//! Same seed, same counts: the deterministic counts of the traced run —
//! allocations, seeds, GBWT lookups and warm-up decodes, extensions and GAF
//! bytes — repeat exactly across two independent runs on inputs generated
//! from one seed. Scaled-down input sets keep the test short.

use std::path::PathBuf;

use mg_e2e_bench::batch::{self, Counts};
use mg_e2e_bench::workload::{generate_from, Inputs, Workload};
use mg_e2e_bench::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counts(workload: Workload, scale: f64, seed: u64, run: &str) -> Counts {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{run}", workload.name()));
    std::fs::create_dir_all(&dir).unwrap();
    generate_from(workload, &workload.spec().scaled(scale), seed, &dir).unwrap();
    let inputs = Inputs::in_dir(&dir);
    let fastq = std::fs::read(&inputs.fastq).unwrap();
    let bundle = batch::open(&inputs.mgi).unwrap();
    let parent = batch::build_parent(&bundle, workload.workflow());
    let options = workload.options();
    let oracle = batch::oracle_digest(&parent, &fastq).unwrap();
    batch::pass(&parent, &fastq, &options).unwrap();
    let traced = batch::trace(&parent, &fastq, &options, oracle).unwrap();
    assert!(
        traced.digests_ok,
        "{}: a pass differs from the oracle GAF",
        workload.name()
    );
    assert!(
        traced.counts_repeat,
        "{}: counts differ between replays",
        workload.name()
    );
    std::fs::remove_dir_all(&dir).unwrap();
    traced.counts()
}

// One test function: the allocation counter is process-wide, so no other
// test may allocate while it counts.
#[test]
fn deterministic_counts_repeat_for_the_same_seed() {
    for (workload, scale) in [
        (Workload::BatchYeast, 0.2),
        (Workload::BatchHprcPaired, 0.05),
    ] {
        let first = counts(workload, scale, 11, "a");
        let second = counts(workload, scale, 11, "b");
        assert_eq!(first, second, "{}", workload.name());
        assert!(first.reads > 0 && first.seeds > 0 && first.lookups > 0 && first.allocs > 0);
        assert!(first.extensions > 0 && first.warmup_decodes > 0 && first.gaf_bytes > 0);
    }
}
