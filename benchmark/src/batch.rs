//! The batch side of the benchmark: timed FASTQ → GAF passes through
//! [`Parent::run`], in-process jobs, and the traced replay that calls each
//! layer's public functions one read at a time and times every call.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use minigiraffe::core::types::{ReadInput, ReadResult, Seed, Workflow};
use minigiraffe::core::{
    cluster_seeds_with_scratch, process_until_threshold_with_scratch, ClusterScratch,
    ExtendScratch, MgiBundle,
};
use minigiraffe::gbwt::{CacheStats, CachedGbwt};
use minigiraffe::index::MinimizerScratch;
use minigiraffe::parent::gapped::{align_tail, cigar_string, GapParams};
use minigiraffe::parent::{
    align_read, chunk_to_gaf, pair_check, rescue_mate, run_to_gaf, Alignment, Parent,
    ParentOptions, ParentRun,
};
use minigiraffe::server::Frame;
use minigiraffe::support::probe::NoProbe;
use minigiraffe::support::regions::NullSink;
use minigiraffe::workload::{read_fastq, write_fastq};

use crate::{allocs, fnv64, median, Ledger, JOB_READS, SETUPS};

use crate::serve::{ms, Slice};

/// GAF read-name prefix of batch passes (`read.<id>`).
pub const SET_NAME: &str = "read";

/// Rounds of the traced run: each makes one untraced pass per thread
/// count and one replay. The first replay runs on a cold replay cache;
/// of the later ones, the ledger uses the replay with the median wall
/// time.
const TRACE_PASSES: usize = 5;

/// Reads of a FASTQ byte buffer (the generated inputs are valid FASTQ).
pub fn parse_bases(fastq: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    Ok(read_fastq(fastq)
        .map_err(|e| format!("parsing FASTQ: {e}"))?
        .into_iter()
        .map(|r| r.bases)
        .collect())
}

/// One FASTQ → GAF pass: parse, [`Parent::run`], render into memory.
pub struct Pass {
    pub run: ParentRun,
    pub gaf: String,
    pub wall: Duration,
}

pub fn pass(parent: &Parent<'_>, fastq: &[u8], options: &ParentOptions) -> Result<Pass, String> {
    let t0 = Instant::now();
    let reads = parse_bases(fastq)?;
    let run = parent.run(&reads, options);
    let gaf = run_to_gaf(parent.mapper().gbz().graph(), &run, SET_NAME);
    let wall = t0.elapsed();
    Ok(Pass { run, gaf, wall })
}

/// The scalar oracle: byte-at-a-time extension, no hot tier, no anchor
/// batching, one thread. Every optimized path must render the same GAF.
fn oracle_options() -> ParentOptions {
    let mut options = ParentOptions::default();
    options.mapping.threads = 1;
    options.mapping.hot_tier_budget = 0;
    options.mapping.extend.force_scalar = true;
    options.mapping.process.extend_batch = 0;
    options
}

/// Digest of the GAF the scalar oracle renders for `fastq`.
pub fn oracle_digest(parent: &Parent<'_>, fastq: &[u8]) -> Result<u64, String> {
    let run = parent.run(&parse_bases(fastq)?, &oracle_options());
    Ok(fnv64(
        run_to_gaf(parent.mapper().gbz().graph(), &run, SET_NAME).as_bytes(),
    ))
}

/// Builds the parent the way every workload's set-up does: over the
/// opened bundle, with its prebuilt distance index.
pub fn build_parent(bundle: &MgiBundle, workflow: Workflow) -> Parent<'_> {
    Parent::with_distance(
        bundle.gbz(),
        bundle.minimizer(),
        bundle.distance().clone(),
        workflow,
    )
}

pub fn open(mgi: &Path) -> Result<MgiBundle, String> {
    MgiBundle::open(mgi).map_err(|e| format!("opening {}: {e}", mgi.display()))
}

/// Cuts the workload's reads into whole [`JOB_READS`]-read slices (pairs
/// stay whole: the size is even) and renders each slice's batch GAF with
/// stock single-thread options — the expectation every served or
/// in-process job is byte-compared against.
pub fn job_slices(parent: &Parent<'_>, fastq: &[u8]) -> Result<Vec<Slice>, String> {
    let records = read_fastq(fastq).map_err(|e| format!("parsing FASTQ: {e}"))?;
    let options = ParentOptions::default();
    let graph = parent.mapper().gbz().graph();
    records
        .chunks_exact(JOB_READS)
        .enumerate()
        .map(|(k, chunk)| {
            let name = format!("s{k}");
            let mut fastq = Vec::new();
            write_fastq(&mut fastq, chunk).map_err(|e| e.to_string())?;
            let reads: Vec<Vec<u8>> = chunk.iter().map(|r| r.bases.clone()).collect();
            let expected_gaf = run_to_gaf(graph, &parent.run(&reads, &options), &name).into_bytes();
            let submit = Frame::Submit {
                name: name.clone(),
                fastq: fastq.clone(),
            }
            .encode();
            Ok(Slice {
                name,
                fastq,
                submit,
                expected_gaf,
                reads: chunk.len(),
            })
        })
        .collect()
}

/// Reads whose best alignment took the gapped path: the gapped tail
/// aligner extended it and appended its CIGAR.
pub fn gapped_reads(run: &ParentRun) -> usize {
    run.alignments
        .iter()
        .filter(|a| a.first().is_some_and(|a| a.tail_cigar.is_some()))
        .count()
}

/// What the timed batch run measured.
pub struct Timed {
    pub setup_s: Vec<f64>,
    pub reads_per_s: Vec<f64>,
    pub job_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub gapped_reads: usize,
    pub reads: usize,
    pub peak_rss_mib: f64,
}

/// The timed run of a batch workload: [`SETUPS`] set-ups (open → parent
/// → one warm-up pass), then whole-file passes and in-process jobs for
/// `seconds`, every output checked against `oracle` or its slice's batch
/// GAF.
pub fn run_timed(
    mgi: &Path,
    fastq: &[u8],
    workflow: Workflow,
    options: &ParentOptions,
    oracle: u64,
    seconds: f64,
) -> Result<Timed, String> {
    let (setups, timed) = set_up(mgi, fastq, workflow, options, |parent, warm| {
        measure(parent, warm, fastq, options, oracle, seconds)
    })?;
    Ok(Timed {
        setup_s: setups.total_s(),
        ..timed
    })
}

/// The times of [`SETUPS`] set-ups, step by step, in ms.
#[derive(Debug, Default)]
pub struct Setups {
    pub open_ms: Vec<f64>,
    pub build_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
}

impl Setups {
    /// Whole set-up times, in s.
    pub fn total_s(&self) -> Vec<f64> {
        (0..self.open_ms.len())
            .map(|i| (self.open_ms[i] + self.build_ms[i] + self.warm_ms[i]) / 1e3)
            .collect()
    }
}

/// Sets up [`SETUPS`] times — `MgiBundle::open` (validated), then
/// [`Parent::with_distance`], then one warm-up pass that fills the
/// per-thread caches and builds the hot tier — timing each step, and
/// hands the last parent and its warm-up pass to `then`.
pub fn set_up<R>(
    mgi: &Path,
    fastq: &[u8],
    workflow: Workflow,
    options: &ParentOptions,
    then: impl FnOnce(&Parent<'_>, Pass) -> Result<R, String>,
) -> Result<(Setups, R), String> {
    let mut setups = Setups::default();
    for i in 1..=SETUPS {
        let t = Instant::now();
        let bundle = open(mgi)?;
        setups.open_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let parent = build_parent(&bundle, workflow);
        setups.build_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let warm = pass(&parent, fastq, options)?;
        setups.warm_ms.push(ms(t.elapsed()));
        if i == SETUPS {
            let out = then(&parent, warm)?;
            return Ok((setups, out));
        }
    }
    unreachable!("SETUPS is positive")
}

/// The measured part of [`run_timed`], on the last set-up's parent.
fn measure(
    parent: &Parent<'_>,
    warm: Pass,
    fastq: &[u8],
    options: &ParentOptions,
    oracle: u64,
    seconds: f64,
) -> Result<Timed, String> {
    let mut failed = usize::from(fnv64(warm.gaf.as_bytes()) != oracle);
    let mut attempted = 1;
    let reads = warm.run.kernel_results.len();
    let gapped = gapped_reads(&warm.run);
    drop(warm);
    let slices = job_slices(parent, fastq)?;
    let graph = parent.mapper().gbz().graph();

    // Passes and jobs alternate, each getting half the wall time, so both
    // sample the same stretch of a host whose speed drifts by tens of
    // percent over seconds.
    let mut reads_per_s = Vec::new();
    let mut job_ms = Vec::new();
    let (mut pass_time, mut job_time) = (Duration::ZERO, Duration::ZERO);
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while reads_per_s.is_empty() || job_ms.is_empty() || started.elapsed() < budget {
        if pass_time <= job_time && started.elapsed() < budget {
            let p = pass(parent, fastq, options)?;
            pass_time += p.wall;
            reads_per_s.push(reads as f64 / p.wall.as_secs_f64());
            attempted += 1;
            failed += usize::from(fnv64(p.gaf.as_bytes()) != oracle);
        } else {
            let slice = &slices[job_ms.len() % slices.len()];
            let t0 = Instant::now();
            let run = parent.run(&parse_bases(&slice.fastq)?, options);
            let gaf = run_to_gaf(graph, &run, &slice.name);
            let wall = t0.elapsed();
            job_time += wall;
            job_ms.push(ms(wall));
            attempted += 1;
            failed += usize::from(gaf.as_bytes() != slice.expected_gaf.as_slice());
        }
    }
    Ok(Timed {
        setup_s: Vec::new(),
        reads_per_s,
        job_ms,
        attempted,
        failed,
        gapped_reads: gapped,
        reads,
        peak_rss_mib: self_peak_rss_mib()?,
    })
}

fn self_peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    crate::serve::vm_hwm_mib(&status).ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Per-layer totals of one traced replay over every read.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub reads: usize,
    pub pairs: usize,
    pub parse_ns: u64,
    pub seed_ns: u64,
    pub cluster_ns: u64,
    pub extend_ns: u64,
    pub rescore_ns: u64,
    pub gapped_ns: u64,
    pub pair_ns: u64,
    pub gaf_ns: u64,
    pub wall_ns: u64,
    pub seeds: u64,
    pub clusters: u64,
    pub extensions: u64,
    pub gapped_calls: u64,
    pub gapped_reads: u64,
    pub rescued: u64,
    pub wide_lanes: u64,
    pub pruned_frames: u64,
    pub batches: u64,
    pub batch_anchors: u64,
    pub gaf_bytes: u64,
    pub cache: CacheStats,
    /// GBWT symbols the replay touched: seed anchors and every handle on
    /// an extension path, both orientations.
    pub touched: BTreeSet<u64>,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replays one pass read by read on the calling thread through the
/// layers' public functions, in pipeline order — seeding
/// (`query_into`), clustering, extension, rescoring, the gapped tail,
/// then the pair-local rescue and pair check, then GAF rendering — timing
/// each call, and checks the result equals `reference` (a [`Parent::run`]
/// pass over the same FASTQ) and its GAF `reference_gaf`.
fn replay(
    parent: &Parent<'_>,
    fastq: &[u8],
    options: &ParentOptions,
    cache: &mut CachedGbwt<'_>,
    reference: &ParentRun,
    reference_gaf: &str,
) -> Result<Replay, String> {
    let mapper = parent.mapper();
    let graph = mapper.gbz().graph();
    let dist = mapper.distance_index();
    let minimizer = parent.minimizer();
    let mapping = &options.mapping;
    let mut r = Replay::default();
    let stats_before = cache.stats();
    let wall = Instant::now();

    let t = Instant::now();
    let reads = parse_bases(fastq)?;
    r.parse_ns = ns_since(t);
    r.reads = reads.len();

    let mut seeding = MinimizerScratch::default();
    let mut hits = Vec::new();
    let mut cluster_scratch = ClusterScratch::default();
    let mut extend_scratch = ExtendScratch::default();
    let mut inputs: Vec<ReadInput> = Vec::with_capacity(reads.len());
    let mut results: Vec<ReadResult> = Vec::with_capacity(reads.len());
    let mut alignments: Vec<Vec<Alignment>> = Vec::with_capacity(reads.len());
    for (i, bases) in reads.iter().enumerate() {
        let read_id = i as u64;
        let read_len = bases.len() as u32;

        let t = Instant::now();
        let input = bases.to_vec();
        minimizer.query_into(&input, options.hard_hit_cap, &mut seeding, &mut hits);
        let seeds: Vec<Seed> = hits.iter().map(|&(off, pos)| Seed::new(off, pos)).collect();
        r.seed_ns += ns_since(t);

        let t = Instant::now();
        let mut cluster_params = mapping.cluster;
        cluster_params.distance_limit = cluster_params.distance_limit.max(read_len as u64);
        let clusters = cluster_seeds_with_scratch(
            graph,
            dist,
            &seeds,
            read_len,
            &cluster_params,
            &mut NoProbe,
            &mut cluster_scratch,
        );
        r.cluster_ns += ns_since(t);

        let t = Instant::now();
        let extensions = process_until_threshold_with_scratch(
            graph,
            cache,
            &input,
            read_id,
            &seeds,
            &clusters,
            &mapping.extend,
            &mapping.process,
            &mut NoProbe,
            &mut extend_scratch,
        );
        r.extend_ns += ns_since(t);
        let kernel = extend_scratch.take_stats();
        let result = ReadResult {
            read_id,
            extensions,
        };

        let t = Instant::now();
        let mut aligned = align_read(&result, &options.align);
        r.rescore_ns += ns_since(t);

        if let (Some(alignment), Some(extension)) = (aligned.first_mut(), result.extensions.first())
        {
            if alignment.read_end < read_len {
                let t = Instant::now();
                let tail = &input[alignment.read_end as usize..];
                if let Some((gapped, consumed)) =
                    align_tail(graph, extension, tail, &GapParams::default())
                {
                    alignment.score += gapped.score;
                    alignment.read_end += consumed;
                    alignment.tail_cigar = Some(cigar_string(&gapped.cigar));
                    r.gapped_reads += 1;
                }
                r.gapped_ns += ns_since(t);
                r.gapped_calls += 1;
            }
        }

        r.seeds += seeds.len() as u64;
        r.clusters += clusters.len() as u64;
        r.extensions += result.extensions.len() as u64;
        r.wide_lanes += kernel.wide_lanes;
        r.pruned_frames += kernel.pruned_frames;
        r.batches += kernel.batches;
        r.batch_anchors += kernel.batch_anchors;
        inputs.push(ReadInput {
            bases: input,
            seeds,
        });
        results.push(result);
        alignments.push(aligned);
    }

    let mut rescued: Vec<Option<ReadResult>> = vec![None; reads.len()];
    if parent.workflow() == Workflow::Paired {
        let t = Instant::now();
        let n = reads.len();
        if options.enable_rescue {
            let mut rescue_cache = CachedGbwt::new(mapper.gbz().gbwt(), mapping.cache_capacity)
                .with_hot(cache.hot().cloned());
            let mut scratch = minigiraffe::core::MapScratch::default();
            for a in (0..n.saturating_sub(1)).step_by(2) {
                let b = a + 1;
                let (mapped, unmapped) = match (alignments[a].is_empty(), alignments[b].is_empty())
                {
                    (false, true) => (a, b),
                    (true, false) => (b, a),
                    _ => continue,
                };
                let anchor = alignments[mapped][0].pos;
                if let Some(result) = rescue_mate(
                    mapper,
                    minimizer,
                    &mut rescue_cache,
                    unmapped as u64,
                    &inputs[unmapped],
                    anchor,
                    mapping,
                    &options.rescue,
                    &NullSink,
                    0,
                    &mut NoProbe,
                    &mut scratch,
                ) {
                    alignments[unmapped] = align_read(&result, &options.align);
                    rescued[unmapped] = Some(result);
                    r.rescued += 1;
                }
            }
        }
        for pair in alignments.chunks_mut(2) {
            if let [first, second] = pair {
                pair_check(graph, dist, first, second, options.max_fragment);
                r.pairs += 1;
            }
        }
        r.pair_ns = ns_since(t);
    }

    let mut gaf = String::new();
    for i in 0..reads.len() {
        let t = Instant::now();
        let line = chunk_to_gaf(
            graph,
            SET_NAME,
            i as u64,
            &inputs[i..=i],
            &results[i..=i],
            &alignments[i..=i],
        );
        r.gaf_ns += ns_since(t);
        gaf.push_str(&line);
    }
    r.wall_ns = ns_since(wall);
    let seed_handles = inputs.iter().flat_map(|i| &i.seeds).map(|s| s.pos.handle);
    let path_handles = results
        .iter()
        .flat_map(|r| &r.extensions)
        .flat_map(|e| e.path.iter().copied());
    for handle in seed_handles.chain(path_handles) {
        r.touched.insert(handle.to_gbwt());
        r.touched.insert(handle.flip().to_gbwt());
    }
    r.gaf_bytes = gaf.len() as u64;
    let after = cache.stats();
    r.cache = CacheStats {
        hits: after.hits - stats_before.hits,
        misses: after.misses - stats_before.misses,
        rehashes: after.rehashes - stats_before.rehashes,
        rehashed_slots: after.rehashed_slots - stats_before.rehashed_slots,
        evictions: after.evictions - stats_before.evictions,
        hot_hits: after.hot_hits - stats_before.hot_hits,
        hot_misses: after.hot_misses - stats_before.hot_misses,
        decodes_saved: after.decodes_saved - stats_before.decodes_saved,
    };

    if results != reference.kernel_results {
        return Err("replayed kernel results differ from Parent::run".into());
    }
    if alignments != reference.alignments || rescued != reference.rescued {
        return Err("replayed alignments differ from Parent::run".into());
    }
    if gaf != reference_gaf {
        return Err("replayed GAF differs from Parent::run".into());
    }
    Ok(r)
}

/// Median time per record of a cold [`CachedGbwt::record`] sweep over
/// `symbols` (a fresh cache per sweep, so every lookup decodes).
fn decode_ns_per_record(parent: &Parent<'_>, symbols: &BTreeSet<u64>, capacity: usize) -> f64 {
    let gbwt = parent.mapper().gbz().gbwt();
    let sweeps: Vec<f64> = (0..5)
        .map(|_| {
            let mut cache = CachedGbwt::new(gbwt, capacity);
            let t = Instant::now();
            for &symbol in symbols {
                black_box(cache.record(symbol));
            }
            t.elapsed().as_nanos() as f64 / symbols.len().max(1) as f64
        })
        .collect();
    median(&sweeps)
}

/// Allocations made by one pass.
fn pass_allocs(
    parent: &Parent<'_>,
    fastq: &[u8],
    options: &ParentOptions,
) -> Result<(Pass, u64), String> {
    let before = allocs();
    let p = pass(parent, fastq, options)?;
    Ok((p, allocs() - before))
}

/// What the traced run measured on one set-up parent.
pub struct Traced {
    /// Median wall time of an untraced pass at one and at two threads, s.
    pub wall_1: f64,
    pub wall_2: f64,
    /// Threads of the workload's own pass, the one the ledger accounts.
    pub threads: usize,
    /// Allocations made by a one-thread untraced pass.
    pub allocs: u64,
    /// Every untraced pass rendered the oracle GAF.
    pub digests_ok: bool,
    /// Passes and replays run.
    pub passes: usize,
    /// Median over rounds of replay wall / one-thread pass wall − 1.
    pub overhead_frac: f64,
    /// The first replay, on a cold replay cache.
    pub cold: Replay,
    /// The timed replay with the median wall time.
    pub replay: Replay,
    /// The deterministic counts agreed across the timed replays.
    pub counts_repeat: bool,
    pub decode_ns: f64,
    pub hot_tier_bytes: usize,
}

/// The counts a same-seed rerun must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub reads: usize,
    pub allocs: u64,
    pub seeds: u64,
    pub lookups: u64,
    pub extensions: u64,
    pub warmup_decodes: u64,
    pub gaf_bytes: u64,
}

impl Traced {
    /// The ledger of the workload's own untraced pass: the replay's layer
    /// self-times against the pass thread-time (wall × threads).
    pub fn ledger(&self) -> Ledger {
        let r = &self.replay;
        let wall = if self.threads == 1 {
            self.wall_1
        } else {
            self.wall_2
        };
        Ledger {
            rows: vec![
                ("parse", r.parse_ns),
                ("seed", r.seed_ns),
                ("cluster", r.cluster_ns),
                ("extend", r.extend_ns),
                ("rescore", r.rescore_ns),
                ("gapped", r.gapped_ns),
                ("pair", r.pair_ns),
                ("gaf", r.gaf_ns),
            ],
            thread_ns: (wall * self.threads as f64 * 1e9) as u64,
        }
    }

    pub fn counts(&self) -> Counts {
        Counts {
            reads: self.replay.reads,
            allocs: self.allocs,
            seeds: self.replay.seeds,
            lookups: self.replay.cache.total_lookups(),
            extensions: self.replay.extensions,
            warmup_decodes: self.cold.cache.misses,
            gaf_bytes: self.replay.gaf_bytes,
        }
    }
}

/// The traced run on a set-up (warm) parent: [`TRACE_PASSES`] rounds of
/// untraced passes and replays, then a cold decode sweep over the records
/// the replays touched.
pub fn trace(
    parent: &Parent<'_>,
    fastq: &[u8],
    options: &ParentOptions,
    oracle: u64,
) -> Result<Traced, String> {
    let threads = options.mapping.threads;
    let mut one = options.clone();
    one.mapping.threads = 1;
    let mut two = options.clone();
    two.mapping.threads = 2;
    let hot = parent.mapper().warm_hot_tier(&options.mapping);
    let gbwt = parent.mapper().gbz().gbwt();
    let mut cache = CachedGbwt::new(gbwt, options.mapping.cache_capacity).with_hot(hot.clone());
    let (mut wall_1, mut wall_2) = (Vec::new(), Vec::new());
    let mut digests_ok = true;
    let mut allocs = 0;
    let mut cold = None;
    let mut replays = Vec::with_capacity(TRACE_PASSES);
    let mut overhead = Vec::with_capacity(TRACE_PASSES);
    // Each round: a one-thread and a two-thread untraced pass, then a
    // replay checked against the pass at the workload's thread count. The
    // first replay fills the replay's cache; each later one is paired with
    // the one-thread pass just before it for the tracing overhead, so the
    // pair sees the same host speed.
    for _ in 0..TRACE_PASSES {
        let (p1, a) = pass_allocs(parent, fastq, &one)?;
        allocs = a;
        let p2 = pass(parent, fastq, &two)?;
        for p in [&p1, &p2] {
            digests_ok &= fnv64(p.gaf.as_bytes()) == oracle;
        }
        wall_1.push(p1.wall.as_secs_f64());
        wall_2.push(p2.wall.as_secs_f64());
        let reference = if threads == 1 { &p1 } else { &p2 };
        let r = replay(
            parent,
            fastq,
            options,
            &mut cache,
            &reference.run,
            &reference.gaf,
        )?;
        if cold.is_none() {
            cold = Some(r);
            continue;
        }
        overhead.push(r.wall_ns as f64 / p1.wall.as_nanos() as f64 - 1.0);
        replays.push(r);
    }
    let cold = cold.expect("TRACE_PASSES > 0");
    replays.sort_by_key(|r| r.wall_ns);
    let median_replay = replays.swap_remove(replays.len() / 2);
    let key = |r: &Replay| {
        (
            r.seeds,
            r.clusters,
            r.extensions,
            r.cache.total_lookups(),
            r.gaf_bytes,
        )
    };
    let counts_repeat = replays.iter().all(|r| key(r) == key(&median_replay));
    let decode_ns = decode_ns_per_record(parent, &cold.touched, options.mapping.cache_capacity);
    Ok(Traced {
        wall_1: median(&wall_1),
        wall_2: median(&wall_2),
        threads,
        allocs,
        digests_ok,
        passes: 3 * TRACE_PASSES,
        overhead_frac: median(&overhead),
        cold,
        replay: median_replay,
        counts_repeat,
        decode_ns,
        hot_tier_bytes: hot.as_deref().map_or(0, |h| h.heap_bytes()),
    })
}
