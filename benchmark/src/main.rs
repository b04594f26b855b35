//! The end-to-end benchmark binary. `benchmark/run.py` drives it; it has
//! two subcommands:
//!
//! - `gen --workload W --seed N --dir D` writes the workload's generated
//!   inputs (`index.mgi`, `reads.fastq`) and the scalar-oracle GAF digest
//!   (`oracle.txt`) into `D`. This process is the generator: nothing it
//!   does is timed.
//! - `run --workload W --dir D --seed N --seconds S --trace 0|1
//!   [--server BIN]` measures the workload on those inputs and prints one
//!   JSON report line (metrics, attempted/failed counts, gates and
//!   provenance) on stdout; a human-readable account goes to stderr.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use minigiraffe::core::active_tier;
use minigiraffe::parent::ParentOptions;
use minigiraffe::support::probe::NoProbe;

use mg_e2e_bench::{
    fnv64, json_num, json_str, median, tail_percentile, CountingAlloc, Metric, GENERATOR_VERSION,
};

use mg_e2e_bench::batch;
use mg_e2e_bench::serve::{self, ms, JOBS_PER_S, MIN_JOBS};
use mg_e2e_bench::workload::{self, Inputs, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => flags(&args[1..]).and_then(|f| cmd_gen(&f)),
        Some("run") => flags(&args[1..]).and_then(|f| cmd_run(&f)),
        _ => Err("usage: mg-e2e-bench <gen|run> --workload W --seed N --dir D [...]".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("--{name} is required"))
}

fn parsed<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String> {
    required(flags, name)?
        .parse()
        .map_err(|_| format!("--{name}: not a valid value"))
}

fn workload_flag(flags: &HashMap<String, String>) -> Result<Workload, String> {
    let name = required(flags, "workload")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), String> {
    let workload = workload_flag(flags)?;
    let seed: u64 = parsed(flags, "seed")?;
    let dir = PathBuf::from(required(flags, "dir")?);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (reads, indels) = workload::generate(workload, seed, &dir)?;
    let inputs = Inputs::in_dir(&dir);
    let bundle = batch::open(&inputs.mgi)?;
    let parent = batch::build_parent(&bundle, workload.workflow());
    let fastq = std::fs::read(&inputs.fastq).map_err(|e| e.to_string())?;
    let digest = batch::oracle_digest(&parent, &fastq)?;
    std::fs::write(dir.join("oracle.txt"), format!("{digest:016x}\n"))
        .map_err(|e| e.to_string())?;
    eprintln!(
        "generated {}: seed {seed}, {reads} reads ({indels} with an indel), oracle GAF {digest:016x}",
        workload.name()
    );
    Ok(())
}

/// A correctness gate and whether it held.
struct Gate {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn gate(name: &'static str, ok: bool, detail: impl Into<String>) -> Gate {
    Gate {
        name,
        ok,
        detail: detail.into(),
    }
}

/// Everything `run` reports.
struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    gates: Vec<Gate>,
    provenance: Vec<(&'static str, String)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|g| {
                format!(
                    "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                    json_str(g.name),
                    g.ok,
                    json_str(&g.detail)
                )
            })
            .collect();
        let provenance: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        format!(
            "{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"gates\":[{}],\"provenance\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(","),
            gates.join(","),
            provenance.join(",")
        )
    }
}

/// The knobs every workload runs with, for the provenance record.
fn knobs(options: &ParentOptions) -> String {
    let m = &options.mapping;
    format!(
        "threads={} batch={} capacity={} hot_tier={} scheduler={} extend_batch={} prune={} \
         hard_hit_cap={} max_fragment={} rescue={} sharding=off adaptive=off",
        m.threads,
        m.batch_size,
        m.cache_capacity,
        m.hot_tier_budget,
        m.scheduler,
        m.process.extend_batch,
        m.extend.prune,
        options.hard_hit_cap,
        options.max_fragment,
        options.enable_rescue
    )
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let workload = workload_flag(flags)?;
    let seed: u64 = parsed(flags, "seed")?;
    let seconds: f64 = parsed(flags, "seconds")?;
    let trace: u8 = parsed(flags, "trace")?;
    let dir = PathBuf::from(required(flags, "dir")?);
    let inputs = Inputs::in_dir(&dir);
    let oracle_hex = std::fs::read_to_string(dir.join("oracle.txt")).map_err(|e| e.to_string())?;
    let oracle = u64::from_str_radix(oracle_hex.trim(), 16).map_err(|e| e.to_string())?;
    let fastq =
        std::fs::read(&inputs.fastq).map_err(|e| format!("{}: {e}", inputs.fastq.display()))?;
    let server = flags.get("server").map(PathBuf::from);
    let options = workload.options();

    let mut report = Report {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        gates: Vec::new(),
        provenance: vec![
            ("workload", workload.name().to_string()),
            ("seed", seed.to_string()),
            ("spec_hash", format!("{:016x}", workload.spec_hash())),
            ("generator_version", GENERATOR_VERSION.to_string()),
            ("oracle_gaf_digest", format!("{oracle:016x}")),
            (
                "simd_tier",
                active_tier::<NoProbe>(&options.mapping.extend)
                    .name()
                    .to_string(),
            ),
            ("threads", options.mapping.threads.to_string()),
            ("knobs", knobs(&options)),
            ("debug_assertions", cfg!(debug_assertions).to_string()),
            (
                "available_parallelism",
                std::thread::available_parallelism()
                    .map_or(0, |n| n.get())
                    .to_string(),
            ),
        ],
    };
    let server_bin = || {
        server
            .clone()
            .ok_or_else(|| "--server is required for this run".to_string())
    };
    match (workload, trace) {
        (Workload::ServeYeast, 0) => run_serve(
            &mut report,
            workload,
            &inputs,
            &fastq,
            oracle,
            seed,
            seconds,
            &server_bin()?,
        )?,
        (_, 0) => run_batch(&mut report, workload, &inputs, &fastq, oracle, seconds)?,
        (_, 1) => run_trace(
            &mut report,
            workload,
            &inputs,
            &fastq,
            oracle,
            seed,
            seconds,
            &server_bin()?,
        )?,
        _ => return Err("--trace must be 0 or 1".into()),
    }
    for g in &report.gates {
        eprintln!(
            "gate {:<28} {} {}",
            g.name,
            if g.ok { "ok  " } else { "FAIL" },
            g.detail
        );
    }
    println!("{}", report.to_json());
    Ok(())
}

/// The gapped path must fire on batch-hprc-paired (its indels exist for
/// it) and must not fire on the yeast sets, so no workload silently stops
/// exercising — or starts exercising — the layer it was chosen for.
fn coverage_gate(workload: Workload, gapped_reads: usize, reads: usize) -> Gate {
    let frac = gapped_reads as f64 / reads.max(1) as f64;
    let ok = match workload {
        Workload::BatchHprcPaired => gapped_reads > 0,
        Workload::BatchYeast | Workload::ServeYeast => gapped_reads == 0,
    };
    gate(
        "coverage.gapped_frac",
        ok,
        format!("{gapped_reads}/{reads} reads took the gapped path = {frac:.4}"),
    )
}

fn p99(values: &[f64]) -> Result<f64, String> {
    tail_percentile(values, 99)
        .ok_or_else(|| format!("{} samples cannot support p99 (need 1000)", values.len()))
}

fn run_batch(
    report: &mut Report,
    workload: Workload,
    inputs: &Inputs,
    fastq: &[u8],
    oracle: u64,
    seconds: f64,
) -> Result<(), String> {
    let options = workload.options();
    let t = batch::run_timed(
        &inputs.mgi,
        fastq,
        workload.workflow(),
        &options,
        oracle,
        seconds,
    )?;
    eprintln!(
        "{}: {} passes, {} jobs of {} reads, {} set-ups",
        workload.name(),
        t.reads_per_s.len(),
        t.job_ms.len(),
        mg_e2e_bench::JOB_READS,
        t.setup_s.len()
    );
    report.metric("reads_per_s", median(&t.reads_per_s), "reads/s");
    report.metric("setup_s", median(&t.setup_s), "s");
    report.metric("peak_rss_mib", t.peak_rss_mib, "MiB");
    report.metric("serve_p50_ms", median(&t.job_ms), "ms");
    if let Some(p) = tail_percentile(&t.job_ms, 99) {
        eprintln!(
            "{}: job latency p99 {p:.2} ms over {} in-process jobs",
            workload.name(),
            t.job_ms.len()
        );
    }
    report.attempted = t.attempted;
    report.failed = t.failed;
    report.gates.push(gate(
        "gaf.digest",
        t.failed == 0,
        format!(
            "{} of {} passes and jobs differ from the oracle GAF",
            t.failed, t.attempted
        ),
    ));
    report
        .gates
        .push(coverage_gate(workload, t.gapped_reads, t.reads));
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_serve(
    report: &mut Report,
    workload: Workload,
    inputs: &Inputs,
    fastq: &[u8],
    oracle: u64,
    seed: u64,
    seconds: f64,
    server: &Path,
) -> Result<(), String> {
    // The generator side: the batch GAF of every job slice, and a check
    // that the batch path itself still matches the scalar oracle.
    let bundle = batch::open(&inputs.mgi)?;
    let parent = batch::build_parent(&bundle, workload.workflow());
    let stock = workload.options();
    let reference = batch::pass(&parent, fastq, &stock)?;
    let gapped = batch::gapped_reads(&reference.run);
    let reads = reference.run.kernel_results.len();
    let batch_ok = fnv64(reference.gaf.as_bytes()) == oracle;
    drop(reference);
    let slices = batch::job_slices(&parent, fastq)?;
    let load = serve_load(report, workload, inputs, &slices, seed, seconds, server)?;

    let latencies: Vec<f64> = load.jobs.iter().map(|j| j.latency_ms()).collect();
    let done_reads: usize = load
        .jobs
        .iter()
        .filter(|j| serve::job_ok(j, &slices))
        .map(|j| slices[j.arrival.slice].reads)
        .sum();
    report.metric(
        "reads_per_s",
        done_reads as f64 / load.span.as_secs_f64(),
        "reads/s",
    );
    report.metric("setup_s", median(&load.setup_s), "s");
    report.metric("peak_rss_mib", load.server_peak_rss_mib, "MiB");
    report.metric("serve_p50_ms", median(&latencies), "ms");
    eprintln!(
        "{}: job latency p99 {:.2} ms over {} jobs (reported per layer as server.job_ms_p99)",
        workload.name(),
        p99(&latencies)?,
        latencies.len()
    );
    let failed = load.failed(&slices);
    report.attempted = load.jobs.len();
    report.failed = failed;
    report.gates.push(gate(
        "gaf.digest",
        batch_ok,
        "batch GAF of the served reads vs the oracle GAF",
    ));
    report.gates.push(gate(
        "serve.jobs",
        failed == 0,
        format!(
            "{failed} of {} jobs refused, failed, or differing from the batch GAF",
            load.jobs.len()
        ),
    ));
    report.gates.push(server_stats_gate(&load.final_stats));
    report.gates.push(coverage_gate(workload, gapped, reads));
    Ok(())
}

/// Runs the open-loop load on `slices` and records its shape in the
/// provenance.
fn serve_load(
    report: &mut Report,
    workload: Workload,
    inputs: &Inputs,
    slices: &[serve::Slice],
    seed: u64,
    seconds: f64,
    server: &Path,
) -> Result<serve::LoadOutcome, String> {
    let jobs = MIN_JOBS.max((JOBS_PER_S * seconds).round() as usize);
    let window = Duration::from_secs_f64(jobs as f64 / JOBS_PER_S);
    let flags = serve::server_flags(
        workload::THREADS,
        workload.workflow() == minigiraffe::core::types::Workflow::Paired,
    );
    report.provenance.push(("serve_flags", flags.join(" ")));
    report.provenance.push((
        "serve_load",
        format!("open loop, Poisson, {JOBS_PER_S} jobs/s, {jobs} jobs of {} reads over {:.2} s, one connection", mg_e2e_bench::JOB_READS, window.as_secs_f64()),
    ));
    let load = serve::run_load(server, &inputs.mgi, &flags, slices, seed, jobs, window)?;
    eprintln!(
        "{}: served {} jobs over {:.2} s after {} server set-ups",
        workload.name(),
        load.jobs.len(),
        load.span.as_secs_f64(),
        load.setup_s.len()
    );
    Ok(load)
}

/// The server's own account must agree: nothing refused, nothing failed.
fn server_stats_gate(stats: &str) -> Gate {
    let field = |key: &str| -> Option<u64> {
        let at = stats.find(&format!("\"{key}\":"))? + key.len() + 3;
        stats[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    let keys = [
        "failed",
        "rejected_full",
        "rejected_client",
        "rejected_draining",
        "proto_errors",
    ];
    let values: Vec<Option<u64>> = keys.iter().map(|k| field(k)).collect();
    let ok = values.iter().all(|v| *v == Some(0));
    let detail: Vec<String> = keys
        .iter()
        .zip(&values)
        .map(|(k, v)| format!("{k}={}", v.map_or("?".to_string(), |v| v.to_string())))
        .collect();
    gate("serve.stats", ok, detail.join(" "))
}

fn per_read(total: u64, reads: usize) -> f64 {
    total as f64 / reads.max(1) as f64
}

#[allow(clippy::too_many_arguments)]
fn run_trace(
    report: &mut Report,
    workload: Workload,
    inputs: &Inputs,
    fastq: &[u8],
    oracle: u64,
    seed: u64,
    seconds: f64,
    server: &Path,
) -> Result<(), String> {
    let options = workload.options();
    let workflow = workload.workflow();

    let (setups, (t, slices)) =
        batch::set_up(&inputs.mgi, fastq, workflow, &options, |parent, _| {
            Ok((
                batch::trace(parent, fastq, &options, oracle)?,
                batch::job_slices(parent, fastq)?,
            ))
        })?;
    let r = &t.replay;
    let reads = r.reads;
    let threads = options.mapping.threads;
    let ledger = t.ledger();
    eprintln!(
        "ledger of one {threads}-thread pass over {reads} reads (ns/read, share of thread-time):"
    );
    for &(name, ns) in &ledger.rows {
        eprintln!(
            "  {name:<14}{:>10.1}  {:>6.1}%",
            per_read(ns, reads),
            100.0 * ns as f64 / ledger.thread_ns as f64
        );
    }
    eprintln!(
        "  {:<14}{:>10.1}  {:>6.1}%\n  {:<14}{:>10.1}  100.0%",
        "unattributed",
        ledger.unattributed_ns() as f64 / reads as f64,
        100.0 * ledger.unattributed_frac(),
        "thread-time",
        per_read(ledger.thread_ns, reads)
    );

    report.metric(
        "workload.parse_ns_per_read",
        per_read(r.parse_ns, reads),
        "ns/read",
    );
    report.metric(
        "index.seed_ns_per_read",
        per_read(r.seed_ns, reads),
        "ns/read",
    );
    report.metric(
        "index.seeds_per_read",
        per_read(r.seeds, reads),
        "count/read",
    );
    report.metric(
        "core.cluster_ns_per_read",
        per_read(r.cluster_ns, reads),
        "ns/read",
    );
    report.metric(
        "core.clusters_per_read",
        per_read(r.clusters, reads),
        "count/read",
    );
    report.metric(
        "core.extend_ns_per_read",
        per_read(r.extend_ns, reads),
        "ns/read",
    );
    report.metric(
        "core.extensions_per_read",
        per_read(r.extensions, reads),
        "count/read",
    );
    report.metric(
        "kernels.wide_lanes_per_read",
        per_read(r.wide_lanes, reads),
        "count/read",
    );
    report.metric(
        "core.pruned_frames_per_read",
        per_read(r.pruned_frames, reads),
        "count/read",
    );
    report.metric(
        "core.extend_batch_fill",
        r.batch_anchors as f64 / r.batches.max(1) as f64,
        "anchors/batch",
    );
    report.metric(
        "gbwt.lookups_per_read",
        per_read(r.cache.total_lookups(), reads),
        "count/read",
    );
    report.metric(
        "gbwt.private_hit_rate",
        r.cache.private_hit_rate(),
        "fraction",
    );
    report.metric("gbwt.hot_hit_rate", r.cache.hot_hit_rate(), "fraction");
    report.metric("gbwt.warmup_decodes", t.cold.cache.misses as f64, "count");
    report.metric(
        "gbwt.warmup_rehashes",
        t.cold.cache.rehashes as f64,
        "count",
    );
    report.metric("gbwt.decode_ns_per_record", t.decode_ns, "ns/record");
    report.metric("gbwt.hot_tier_bytes", t.hot_tier_bytes as f64, "bytes");
    report.metric(
        "parent.rescore_ns_per_read",
        per_read(r.rescore_ns, reads),
        "ns/read",
    );
    report.metric(
        "parent.gapped_frac",
        per_read(r.gapped_reads, reads),
        "fraction",
    );
    report.metric(
        "parent.gapped_ns_per_call",
        r.gapped_ns as f64 / r.gapped_calls.max(1) as f64,
        "ns/call",
    );
    report.metric(
        "parent.pair_ns_per_pair",
        r.pair_ns as f64 / r.pairs.max(1) as f64,
        "ns/pair",
    );
    report.metric(
        "parent.rescued_frac",
        per_read(r.rescued, reads),
        "fraction",
    );
    report.metric(
        "parent.gaf_ns_per_read",
        per_read(r.gaf_ns, reads),
        "ns/read",
    );
    report.metric(
        "parent.gaf_bytes_per_read",
        per_read(r.gaf_bytes, reads),
        "bytes/read",
    );
    report.metric(
        "sched.parallel_eff",
        t.wall_1 / (2.0 * t.wall_2),
        "fraction",
    );
    report.metric(
        "ledger.thread_ns_per_read",
        per_read(ledger.thread_ns, reads),
        "ns/read",
    );
    report.metric(
        "ledger.unattributed_frac",
        ledger.unattributed_frac(),
        "fraction",
    );
    report.metric(
        "alloc.allocs_per_read",
        per_read(t.allocs, reads),
        "count/read",
    );
    report.metric("trace.overhead_frac", t.overhead_frac, "fraction");
    report.metric("setup.mgi_open_ms", median(&setups.open_ms), "ms");
    report.metric("setup.parent_build_ms", median(&setups.build_ms), "ms");
    report.metric("setup.warmup_ms", median(&setups.warm_ms), "ms");

    report.gates.push(gate(
        "gaf.digest",
        t.digests_ok,
        "every untraced pass vs the oracle GAF",
    ));
    report.gates.push(gate(
        "replay.agrees",
        true,
        "traced replay equals Parent::run kernel results, alignments and GAF",
    ));
    report.gates.push(gate(
        "replay.counts_repeat",
        t.counts_repeat,
        "deterministic counts equal across replays",
    ));
    report
        .gates
        .push(coverage_gate(workload, r.gapped_reads as usize, reads));
    report.attempted = t.passes;
    report.failed = usize::from(!t.digests_ok);

    // The server layer, driven on the same reads.
    let load = serve_load(report, workload, inputs, &slices, seed, seconds, server)?;
    let since_sent = |at: Option<Duration>, j: &serve::JobRecord| match (at, j.sent) {
        (Some(at), Some(sent)) => ms(at.saturating_sub(sent)),
        _ => f64::INFINITY,
    };
    let accept: Vec<f64> = load.jobs.iter().map(|j| since_sent(j.accept, j)).collect();
    let first_gaf: Vec<f64> = load
        .jobs
        .iter()
        .map(|j| since_sent(j.first_gaf, j))
        .collect();
    let done_after_gaf: Vec<f64> = load
        .jobs
        .iter()
        .map(|j| match (j.done, j.last_gaf) {
            (Some(done), Some(gaf)) => ms(done.saturating_sub(gaf)),
            _ => f64::INFINITY,
        })
        .collect();
    let queue_wait: Vec<f64> = load.jobs.iter().map(|j| j.queue_wait_us as f64).collect();
    let late: Vec<f64> = load
        .jobs
        .iter()
        .map(|j| j.late_ms().unwrap_or(f64::INFINITY))
        .collect();
    report.metric("server.accept_ms_p50", median(&accept), "ms");
    report.metric("server.first_gaf_ms_p50", median(&first_gaf), "ms");
    report.metric(
        "server.done_after_gaf_ms_p50",
        median(&done_after_gaf),
        "ms",
    );
    report.metric("server.done_after_gaf_ms_p99", p99(&done_after_gaf)?, "ms");
    report.metric("server.queue_wait_us_p50", median(&queue_wait), "us");
    report.metric("server.gen_late_ms_p99", p99(&late)?, "ms");
    let latencies: Vec<f64> = load.jobs.iter().map(|j| j.latency_ms()).collect();
    report.metric("server.job_ms_p99", p99(&latencies)?, "ms");
    let failed = load.failed(&slices);
    report.attempted += load.jobs.len();
    report.failed += failed;
    report.gates.push(gate(
        "serve.jobs",
        failed == 0,
        format!("{failed} of {} jobs failed", load.jobs.len()),
    ));
    report.gates.push(server_stats_gate(&load.final_stats));
    Ok(())
}
