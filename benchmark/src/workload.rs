//! The three workloads and the seeded generator that writes their inputs.
//!
//! The program under test only ever sees the generated files: one `.mgi`
//! bundle (pangenome + minimizer index + distance index) and one FASTQ.

use std::path::{Path, PathBuf};

use minigiraffe::core::types::Workflow;
use minigiraffe::core::MgiBundle;
use minigiraffe::index::DistanceIndex;
use minigiraffe::parent::ParentOptions;
use minigiraffe::workload::{write_fastq, FastqRecord, InputSetSpec, SyntheticInput};

use crate::{fnv64, SplitMix64, GENERATOR_VERSION, JOB_READS};

/// Share of batch-hprc-paired reads that get one seeded 1-bp indel. Without
/// indels the gapped tail aligner fires on no read of any paper set.
const HPRC_INDEL_RATE: f64 = 0.05;

/// Mapping threads of every workload: both cores of the reference host.
/// On that host each vCPU's speed flips independently between two levels
/// every few seconds, so a one-thread run inherits the flips of whichever
/// vCPU it lands on (16% run-to-run spread of `reads_per_s` over five
/// seeds), while a two-thread run averages them (6%). The one-thread
/// baseline is still measured, in the traced run.
pub const THREADS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchYeast,
    BatchHprcPaired,
    ServeYeast,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BatchYeast,
        Workload::BatchHprcPaired,
        Workload::ServeYeast,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchYeast => "batch-yeast",
            Workload::BatchHprcPaired => "batch-hprc-paired",
            Workload::ServeYeast => "serve-yeast",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The paper input set the workload maps.
    pub fn spec(self) -> InputSetSpec {
        match self {
            Workload::BatchYeast | Workload::ServeYeast => InputSetSpec::b_yeast(),
            Workload::BatchHprcPaired => InputSetSpec::d_hprc(),
        }
    }

    pub fn workflow(self) -> Workflow {
        self.spec().workflow
    }

    fn indel_rate(self) -> f64 {
        match self {
            Workload::BatchHprcPaired => HPRC_INDEL_RATE,
            _ => 0.0,
        }
    }

    /// The stock parent options at [`THREADS`] threads.
    pub fn options(self) -> ParentOptions {
        let mut options = ParentOptions::default();
        options.mapping.threads = THREADS;
        options
    }

    /// Fingerprint of everything that defines the inputs for a seed: the
    /// input-set spec, the indel injection, the job size and the
    /// generator version.
    pub fn spec_hash(self) -> u64 {
        fnv64(
            format!(
                "{:?}|indel={}|job={}|gen={}",
                self.spec(),
                self.indel_rate(),
                JOB_READS,
                GENERATOR_VERSION
            )
            .as_bytes(),
        )
    }
}

/// Paths of one generated workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub mgi: PathBuf,
    pub fastq: PathBuf,
}

impl Inputs {
    pub fn in_dir(dir: &Path) -> Inputs {
        Inputs {
            mgi: dir.join("index.mgi"),
            fastq: dir.join("reads.fastq"),
        }
    }
}

/// Inserts or deletes one base at a seeded interior position of `bases`,
/// keeping the read length (an insertion drops the last base, a deletion
/// appends a seeded one).
fn inject_indel(bases: &mut Vec<u8>, rng: &mut SplitMix64) {
    const ACGT: &[u8; 4] = b"ACGT";
    let len = bases.len();
    let pos = 10 + rng.below((len - 20) as u64) as usize;
    if rng.below(2) == 0 {
        bases.insert(pos, ACGT[rng.below(4) as usize]);
        bases.truncate(len);
    } else {
        bases.remove(pos);
        bases.push(ACGT[rng.below(4) as usize]);
    }
}

/// Generates `workload`'s inputs for `seed` into `dir`: the `.mgi` bundle
/// and the FASTQ. Returns the number of reads written and of reads that
/// received an indel.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<(usize, usize), String> {
    generate_from(workload, &workload.spec(), seed, dir)
}

/// [`generate`] from an explicit input-set spec, e.g. a scaled-down one.
pub fn generate_from(
    workload: Workload,
    spec: &InputSetSpec,
    seed: u64,
    dir: &Path,
) -> Result<(usize, usize), String> {
    let input = SyntheticInput::try_generate(spec, seed).map_err(|e| e.to_string())?;
    let distance = DistanceIndex::build(input.gbz.graph());
    let mut rng = SplitMix64::new(seed, 0x1de1);
    let rate = workload.indel_rate();
    let mut indels = 0;
    let records: Vec<FastqRecord> = input
        .sim_reads
        .iter()
        .enumerate()
        .map(|(i, read)| {
            let mut bases = read.bases.clone();
            if rate > 0.0 && rng.next_f64() < rate {
                inject_indel(&mut bases, &mut rng);
                indels += 1;
            }
            FastqRecord::with_uniform_quality(format!("read.{i}"), bases, b'F')
        })
        .collect();
    let reads = records.len();
    let inputs = Inputs::in_dir(dir);
    let mut fastq = Vec::new();
    write_fastq(&mut fastq, &records).map_err(|e| e.to_string())?;
    std::fs::write(&inputs.fastq, fastq).map_err(|e| format!("{}: {e}", inputs.fastq.display()))?;
    MgiBundle::from_parts(input.gbz, input.minimizer_index, distance)
        .save(&inputs.mgi)
        .map_err(|e| format!("{}: {e}", inputs.mgi.display()))?;
    Ok((reads, indels))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indels_keep_the_read_length_and_prefix() {
        let mut rng = SplitMix64::new(1, 2);
        for _ in 0..200 {
            let original: Vec<u8> = (0..148).map(|i| b"ACGT"[(i * 7 + i / 3) % 4]).collect();
            let mut bases = original.clone();
            inject_indel(&mut bases, &mut rng);
            assert_eq!(bases.len(), original.len());
            assert_eq!(bases[..10], original[..10]);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
