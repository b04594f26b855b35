//! The long-lived mapping server.
//!
//! One [`MappingServer`] owns the expensive state — the pangenome, the
//! minimizer index, the distance index, the mapper's persistent worker
//! pool and its GBWT hot tier — and multiplexes mapping jobs from many
//! concurrent clients onto it. Connections are cheap threads that parse
//! frames and talk to the admission queue; all mapping happens on one
//! executor thread that interleaves admitted jobs *chunk by chunk* on the
//! shared pool, so a large job cannot starve a small one and the pool's
//! per-thread caches stay warm across job boundaries.
//!
//! Determinism: GAF output for a job depends only on its own reads.
//! Chunks carry global read ids (`base_id`), per-read work is
//! deterministic and cache-independent, and paired chunks start on pair
//! boundaries — so however jobs interleave, each job's concatenated GAF is
//! byte-identical to a one-shot [`Parent::run`] over the same reads. The
//! harness tests hold the server to exactly that oracle.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mg_core::types::Workflow;
use mg_obs::{bucket_of, percentile, Ctr, Gauge, Hist, Metrics, Report, HIST_BUCKETS};
use mg_parent::{chunk_to_gaf, Parent, ParentOptions, ShardedParent};
use mg_sched::{effective_chunk_reads, AdmissionQueue};
use mg_tuning::{Controller, ControllerConfig, ControllerStats, EpochStats, KnobState};
use mg_workload::read_fastq;

use crate::protocol::{Frame, FrameDecoder, JobSummary};
use crate::transport::{Conn, ReadOutcome};

/// How a [`MappingServer`] is provisioned.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Mapping configuration shared by every job (threads, scheduler,
    /// cache capacity, hot-tier budget, post-processing).
    pub options: ParentOptions,
    /// Reads per executor chunk; `0` picks `threads × batch_size`. Paired
    /// workflows clamp this to an even value so chunks keep pairs whole.
    pub chunk_reads: usize,
    /// Admission: jobs the pending queue holds before `BUSY`.
    pub max_pending: usize,
    /// Jobs the executor interleaves at once; admitted jobs beyond this
    /// wait in the pending queue.
    pub max_active: usize,
    /// Admission: per-client in-flight (pending + executing) cap.
    pub per_client_cap: usize,
    /// Fault injection for the resilience tests: `(job id, global read
    /// id)` — mapping that read of that job panics inside a pool worker.
    pub fault_job: Option<(u64, u64)>,
    /// Bound on how long one outbound frame may stall on a client that
    /// stops reading before the connection is dropped. Zero disables the
    /// bound (writes may block indefinitely).
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            options: ParentOptions::default(),
            chunk_reads: 0,
            max_pending: 16,
            max_active: 4,
            per_client_cap: 4,
            fault_job: None,
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// One admitted mapping job.
struct Job {
    id: u64,
    client: u64,
    name: String,
    reads: Vec<Vec<u8>>,
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
    submitted: Instant,
}

/// A job the executor is actively interleaving.
struct ActiveJob {
    job: Job,
    next_read: usize,
    chunks: u64,
    gaf_bytes: u64,
    queue_wait_us: u64,
    started: bool,
}

/// Shared control block: admission queue, lifecycle flags, and always-on
/// counters (kept outside `mg_obs` so `STATS` answers truthfully even when
/// the `enabled` feature is compiled out).
pub struct ServerCtl {
    queue: AdmissionQueue<Job>,
    shutdown: AtomicBool,
    stopped: AtomicBool,
    next_job: AtomicU64,
    next_client: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    reads_mapped: AtomicU64,
    gaf_bytes: AtomicU64,
    hot_rebuilds: AtomicU64,
    proto_errors: AtomicU64,
    latency_buckets: [AtomicU64; HIST_BUCKETS],
    latency_count: AtomicU64,
    started_at: Instant,
}

impl ServerCtl {
    fn new(config: &ServerConfig) -> ServerCtl {
        ServerCtl {
            queue: AdmissionQueue::new(config.max_pending, config.per_client_cap),
            shutdown: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            next_client: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            reads_mapped: AtomicU64::new(0),
            gaf_bytes: AtomicU64::new(0),
            hot_rebuilds: AtomicU64::new(0),
            proto_errors: AtomicU64::new(0),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_count: AtomicU64::new(0),
            started_at: Instant::now(),
        }
    }

    /// Flips the server into drain mode: in-flight and pending jobs
    /// finish, new submissions get `BUSY (draining)`, and once the queue
    /// is empty the executor exits.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.drain();
    }

    /// Whether the executor has exited (drain complete).
    pub fn stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Jobs completed successfully so far.
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed.load(Ordering::SeqCst)
    }

    /// Jobs that failed (corrupt input or a mapping fault).
    pub fn jobs_failed(&self) -> u64 {
        self.jobs_failed.load(Ordering::SeqCst)
    }

    /// Hot-tier builds since start. Staying at 1 across many jobs is the
    /// residency property the serve tests assert: the tier is built once
    /// and every later job maps against the warm copy.
    pub fn hot_rebuilds(&self) -> u64 {
        self.hot_rebuilds.load(Ordering::SeqCst)
    }

    /// Connections dropped for unparseable bytes.
    pub fn proto_errors(&self) -> u64 {
        self.proto_errors.load(Ordering::SeqCst)
    }

    fn observe_latency(&self, us: u64) {
        self.latency_buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// `q`-quantile (upper bucket edge) of completed-job latency, in
    /// microseconds, from the always-on histogram. Delegates to
    /// [`mg_obs::percentile`] — one quantile definition for every log2
    /// histogram in the tree.
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        let buckets: [u64; HIST_BUCKETS] =
            std::array::from_fn(|b| self.latency_buckets[b].load(Ordering::Relaxed));
        percentile(&buckets, q)
    }

    /// The base `STATS` payload: admission counters, job outcomes,
    /// latency quantiles, and resident-state health. `extra` is spliced
    /// in before the closing brace (the server adds cache and adaptive
    /// sections there).
    fn stats_json_with(&self, extra: &str) -> String {
        let a = self.queue.stats();
        format!(
            concat!(
                "{{\"jobs\":{{\"accepted\":{},\"completed\":{},\"failed\":{},",
                "\"rejected_full\":{},\"rejected_client\":{},\"rejected_draining\":{},",
                "\"pending\":{},\"executing\":{},\"pending_high_water\":{}}},",
                "\"latency_us\":{{\"count\":{},\"p50\":{},\"p99\":{}}},",
                "\"reads_mapped\":{},\"gaf_bytes\":{},",
                "\"hot_tier\":{{\"rebuilds\":{}}},",
                "\"proto_errors\":{},\"draining\":{},\"uptime_ms\":{}{}}}"
            ),
            a.accepted,
            self.jobs_completed(),
            self.jobs_failed(),
            a.rejected_full,
            a.rejected_client,
            a.rejected_draining,
            a.pending,
            a.executing,
            a.pending_high_water,
            self.latency_count.load(Ordering::Relaxed),
            self.latency_quantile_us(0.50),
            self.latency_quantile_us(0.99),
            self.reads_mapped.load(Ordering::SeqCst),
            self.gaf_bytes.load(Ordering::SeqCst),
            self.hot_rebuilds(),
            self.proto_errors(),
            self.queue.is_draining(),
            self.started_at.elapsed().as_millis(),
            extra,
        )
    }

    /// The `STATS` payload without server-level extras (cache hit rates,
    /// adaptive knobs); [`MappingServer::stats_json`] is the full view.
    pub fn stats_json(&self) -> String {
        self.stats_json_with("")
    }
}

/// Sends one frame, swallowing I/O errors: a client that hung up mid-job
/// must not take the executor down with it.
fn send(writer: &Arc<Mutex<Box<dyn Write + Send>>>, frame: &Frame) {
    let mut w = writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = frame.write_to(&mut **w);
}

/// How many executor chunks make one controller epoch. Small enough that
/// the controller reacts within a job, large enough that one epoch's
/// throughput sample spans several pool dispatches.
const EPOCH_CHUNKS: u64 = 8;

/// Live adaptive-tuning state: the controller plus the open epoch it is
/// accumulating (metrics snapshot at epoch start, wall clock, chunk and
/// read counts). Guarded by one mutex — the executor touches it once per
/// chunk, stats readers occasionally.
struct AdaptiveState {
    controller: Controller,
    epoch_base: Report,
    epoch_started: Instant,
    chunks: u64,
    reads: u64,
}

/// The long-lived multi-tenant mapping server.
pub struct MappingServer<'a> {
    parent: &'a Parent<'a>,
    sharded: Option<&'a ShardedParent<'a>>,
    config: ServerConfig,
    ctl: Arc<ServerCtl>,
    metrics: Metrics,
    adaptive: Option<Mutex<AdaptiveState>>,
}

impl<'a> MappingServer<'a> {
    /// Builds a server over an already-constructed parent (index and
    /// distance index built, pool cold).
    pub fn new(parent: &'a Parent<'a>, config: ServerConfig) -> MappingServer<'a> {
        let ctl = Arc::new(ServerCtl::new(&config));
        MappingServer { parent, sharded: None, config, ctl, metrics: Metrics::new(), adaptive: None }
    }

    /// Turns on closed-loop tuning: a [`Controller`] drives `batch_size`,
    /// the chunk window, and the cache budgets from live metric deltas,
    /// starting from this config's knobs. Knob changes land only at chunk
    /// boundaries, so the streamed GAF stays byte-identical to a
    /// fixed-knob run.
    pub fn with_adaptive(mut self, controller_config: ControllerConfig) -> MappingServer<'a> {
        let mapping = &self.config.options.mapping;
        let initial = KnobState {
            batch_size: mapping.batch_size.max(1),
            chunk_reads: effective_chunk_reads(
                self.config.chunk_reads,
                mapping.threads,
                mapping.batch_size,
            ),
            cache_capacity: mapping.cache_capacity.max(1),
            hot_tier_budget: mapping.hot_tier_budget,
        };
        self.adaptive = Some(Mutex::new(AdaptiveState {
            controller: Controller::new(controller_config, initial),
            epoch_base: self.metrics.report(),
            epoch_started: Instant::now(),
            chunks: 0,
            reads: 0,
        }));
        self
    }

    /// Routes every chunk through the sharded pipeline instead of the
    /// monolithic one. Chunks of different jobs still interleave on the
    /// one resident pool, and the streamed GAF stays byte-identical (the
    /// sharded parent falls back per read when routing cannot prove
    /// residency), so clients cannot observe the switch except through
    /// the routing metrics.
    pub fn with_sharded(mut self, sharded: &'a ShardedParent<'a>) -> MappingServer<'a> {
        self.sharded = Some(sharded);
        self
    }

    /// The shared control block (shutdown, counters, `STATS`).
    pub fn ctl(&self) -> &Arc<ServerCtl> {
        &self.ctl
    }

    /// The server's metrics registry (populated when `mg-obs/enabled`).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The knobs in force for the next chunk: the controller's when
    /// adaptive, the static config's otherwise.
    fn knobs(&self) -> KnobState {
        let mapping = &self.config.options.mapping;
        match &self.adaptive {
            Some(state) => {
                state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).controller.knobs()
            }
            None => KnobState {
                batch_size: mapping.batch_size,
                chunk_reads: self.config.chunk_reads,
                cache_capacity: mapping.cache_capacity,
                hot_tier_budget: mapping.hot_tier_budget,
            },
        }
    }

    /// Reads per executor chunk, honouring pair boundaries.
    fn chunk_reads(&self) -> usize {
        let mapping = &self.config.options.mapping;
        let k = self.knobs();
        let mut chunk = effective_chunk_reads(k.chunk_reads, mapping.threads, k.batch_size);
        if self.parent.workflow() == Workflow::Paired {
            chunk = (chunk & !1).max(2);
        }
        chunk.max(1)
    }

    /// Closes the chunk for the controller: every [`EPOCH_CHUNKS`] chunks
    /// it assembles an [`EpochStats`] from the metrics delta, the
    /// admission epoch rollover, and the executor's own read count, and
    /// lets the controller move the knobs. Runs on the executor thread
    /// only, between chunks — never mid-chunk.
    fn adaptive_tick(&self, chunk_reads_mapped: u64) {
        let Some(state) = &self.adaptive else { return };
        let mut st = state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.chunks += 1;
        st.reads += chunk_reads_mapped;
        if st.chunks < EPOCH_CHUNKS {
            return;
        }
        let report = self.metrics.report();
        let delta = report.delta(&st.epoch_base);
        let admission = self.ctl.queue.epoch_rollover();
        let wall_ns = st.epoch_started.elapsed().as_nanos() as u64;
        let mut epoch = EpochStats::from_delta(&delta, &admission, wall_ns);
        // The executor counts mapped reads itself so throughput steering
        // works even when mg-obs is compiled out.
        epoch.reads = st.reads;
        st.controller.observe_epoch(&epoch);
        st.epoch_base = report;
        st.epoch_started = Instant::now();
        st.chunks = 0;
        st.reads = 0;
    }

    /// The adaptive controller's current view: knobs in force, rolling
    /// accept/revert counters, and whether it has converged. `None` when
    /// the server runs fixed knobs.
    pub fn adaptive_status(&self) -> Option<(KnobState, ControllerStats, bool)> {
        let state = self.adaptive.as_ref()?;
        let st = state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Some((st.controller.knobs(), st.controller.stats(), st.controller.converged()))
    }

    /// The full `STATS` payload: the [`ServerCtl`] base plus cache hit
    /// rates from the metrics registry and, when adaptive, the controller
    /// state.
    pub fn stats_json(&self) -> String {
        let rep = self.metrics.report();
        let hits = rep.counter(Ctr::CacheHits);
        let misses = rep.counter(Ctr::CacheMisses);
        let hot_hits = rep.counter(Ctr::CacheHotHits);
        let hot_misses = rep.counter(Ctr::CacheHotMisses);
        let rate = |h: u64, m: u64| if h + m == 0 { 0.0 } else { h as f64 / (h + m) as f64 };
        let mut extra = format!(
            concat!(
                ",\"cache\":{{\"private_hits\":{},\"private_misses\":{},",
                "\"private_hit_rate\":{:.4},\"hot_hits\":{},\"hot_misses\":{},",
                "\"hot_hit_rate\":{:.4},\"decodes_saved\":{}}}"
            ),
            hits,
            misses,
            rate(hits, misses),
            hot_hits,
            hot_misses,
            rate(hot_hits, hot_misses),
            rep.counter(Ctr::CacheDecodesSaved),
        );
        if let Some((knobs, stats, converged)) = self.adaptive_status() {
            extra.push_str(&format!(
                concat!(
                    ",\"adaptive\":{{\"batch_size\":{},\"chunk_reads\":{},",
                    "\"cache_capacity\":{},\"hot_tier_budget\":{},\"epochs\":{},",
                    "\"accepted\":{},\"reverted\":{},\"skipped\":{},\"converged\":{}}}"
                ),
                knobs.batch_size,
                knobs.chunk_reads,
                knobs.cache_capacity,
                knobs.hot_tier_budget,
                stats.epochs,
                stats.accepted,
                stats.reverted,
                stats.skipped,
                converged,
            ));
        }
        self.ctl.stats_json_with(&extra)
    }

    /// Serves connections from `conns` until a client (or
    /// [`ServerCtl::request_shutdown`]) drains the server and the last
    /// admitted job completes. Blocks the calling thread.
    pub fn serve(&self, conns: Receiver<Conn>) {
        std::thread::scope(|scope| {
            scope.spawn(|| self.executor());
            while !self.ctl.stopped() {
                match conns.recv_timeout(Duration::from_millis(50)) {
                    Ok(conn) => {
                        scope.spawn(move || self.handle_conn(conn));
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    // No more connections can arrive; the scope joins the
                    // executor once it drains.
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        });
    }

    /// Serves TCP connections on `listener` until drained. The bench and
    /// the CLI `serve` subcommand sit on this.
    ///
    /// The accept blocks; once the server has drained, one loopback
    /// connect to the listener's own port wakes it to see `stopped()`.
    pub fn serve_tcp(&self, listener: TcpListener) -> io::Result<()> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            // A wildcard bind also listens on loopback.
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let write_timeout = self.config.write_timeout;
        std::thread::scope(|scope| {
            let ctl = Arc::clone(&self.ctl);
            scope.spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { break };
                    if ctl.stopped() {
                        break;
                    }
                    if let Ok(conn) = Conn::tcp_with_timeout(stream, write_timeout) {
                        if tx.send(conn).is_err() {
                            break;
                        }
                    }
                }
            });
            self.serve(rx);
            let _ = TcpStream::connect(wake);
        });
        Ok(())
    }

    /// The single mapping executor: admits jobs up to `max_active` and
    /// round-robins one chunk per job per turn on the shared pool.
    fn executor(&self) {
        let ctl = &*self.ctl;
        let mut active: VecDeque<ActiveJob> = VecDeque::new();
        loop {
            while active.len() < self.config.max_active.max(1) {
                match ctl.queue.try_pop() {
                    Some((_client, job)) => active.push_back(ActiveJob {
                        job,
                        next_read: 0,
                        chunks: 0,
                        gaf_bytes: 0,
                        queue_wait_us: 0,
                        started: false,
                    }),
                    None => break,
                }
            }
            if active.is_empty() {
                if ctl.queue.drained() {
                    break;
                }
                match ctl.queue.pop_wait(Duration::from_millis(50)) {
                    Some((_client, job)) => active.push_back(ActiveJob {
                        job,
                        next_read: 0,
                        chunks: 0,
                        gaf_bytes: 0,
                        queue_wait_us: 0,
                        started: false,
                    }),
                    None => continue,
                }
            }
            let stats = ctl.queue.stats();
            self.metrics.gauge_max(Gauge::ServePendingMax, stats.pending_high_water as u64);
            self.metrics.gauge_max(Gauge::ServeActiveMax, active.len() as u64);
            let mut aj = active.pop_front().expect("active job present");
            if self.step(&mut aj) {
                active.push_back(aj);
            }
        }
        ctl.stopped.store(true, Ordering::SeqCst);
    }

    /// Maps one chunk of one job. Returns `true` while the job has reads
    /// left; emits `DONE`/`ERR` and releases admission otherwise.
    fn step(&self, aj: &mut ActiveJob) -> bool {
        let ctl = &*self.ctl;
        if !aj.started {
            aj.started = true;
            aj.queue_wait_us = aj.job.submitted.elapsed().as_micros() as u64;
            self.metrics.observe(Hist::ServeQueueWaitUs, aj.queue_wait_us);
        }
        let n = aj.job.reads.len();
        let lo = aj.next_read;
        let hi = (lo + self.chunk_reads()).min(n);
        if lo < hi {
            let mut options = self.config.options.clone();
            if self.adaptive.is_some() {
                // Controller knobs apply from this chunk boundary. All
                // three are result-invariant, so the job's GAF cannot
                // observe the move.
                let k = self.knobs();
                options.mapping.batch_size = k.batch_size.max(1);
                options.mapping.cache_capacity = k.cache_capacity.max(1);
                options.mapping.hot_tier_budget = k.hot_tier_budget;
            }
            if let Some((job, read)) = self.config.fault_job {
                if job == aj.job.id {
                    options.fault_read = Some(read);
                }
            }
            let mapper = self.parent.mapper();
            let chunk = catch_unwind(AssertUnwindSafe(|| {
                // Warm tier when resident, else build from this chunk's
                // freshly-computed seeds — the one rebuild the residency
                // tests allow.
                let hot = mapper.warm_hot_tier(&options.mapping);
                let run = match self.sharded {
                    Some(sharded) => sharded.map_chunk(
                        &aj.job.reads[lo..hi],
                        lo as u64,
                        &options,
                        hot.as_ref(),
                        &self.metrics,
                    ),
                    None => self.parent.map_chunk(
                        &aj.job.reads[lo..hi],
                        lo as u64,
                        &options,
                        hot.as_ref(),
                        &self.metrics,
                    ),
                };
                if hot.is_none()
                    && mapper.build_hot_tier(&run.dump_reads, &options.mapping).is_some()
                {
                    ctl.hot_rebuilds.fetch_add(1, Ordering::SeqCst);
                }
                run
            }));
            match chunk {
                Ok(run) => {
                    let gaf = chunk_to_gaf(
                        mapper.gbz().graph(),
                        &aj.job.name,
                        lo as u64,
                        &run.dump_reads,
                        &run.kernel_results,
                        &run.alignments,
                    );
                    aj.gaf_bytes += gaf.len() as u64;
                    if !gaf.is_empty() {
                        send(&aj.job.writer, &Frame::Gaf { job: aj.job.id, data: gaf.into_bytes() });
                    }
                    aj.chunks += 1;
                    aj.next_read = hi;
                    self.adaptive_tick((hi - lo) as u64);
                }
                Err(panic) => {
                    let what = panic_message(&*panic);
                    send(
                        &aj.job.writer,
                        &Frame::Error {
                            job: aj.job.id,
                            message: format!("mapping fault: {what}"),
                        },
                    );
                    ctl.jobs_failed.fetch_add(1, Ordering::SeqCst);
                    self.metrics.add(Ctr::ServeJobsFailed, 1);
                    ctl.queue.finish(aj.job.client);
                    return false;
                }
            }
        }
        if aj.next_read >= n {
            let latency_us = aj.job.submitted.elapsed().as_micros() as u64;
            ctl.observe_latency(latency_us);
            ctl.jobs_completed.fetch_add(1, Ordering::SeqCst);
            ctl.reads_mapped.fetch_add(n as u64, Ordering::SeqCst);
            ctl.gaf_bytes.fetch_add(aj.gaf_bytes, Ordering::SeqCst);
            self.metrics.add(Ctr::ServeJobsCompleted, 1);
            self.metrics.add(Ctr::ServeGafBytes, aj.gaf_bytes);
            self.metrics.observe(Hist::ServeJobLatencyUs, latency_us);
            self.metrics.observe(Hist::ServeJobReads, n as u64);
            send(
                &aj.job.writer,
                &Frame::Done {
                    job: aj.job.id,
                    summary: JobSummary {
                        reads: n as u64,
                        chunks: aj.chunks,
                        gaf_bytes: aj.gaf_bytes,
                        queue_wait_us: aj.queue_wait_us,
                        latency_us,
                    },
                },
            );
            ctl.queue.finish(aj.job.client);
            return false;
        }
        true
    }

    /// One connection: parse frames, answer control frames inline, hand
    /// submissions to admission.
    fn handle_conn(&self, conn: Conn) {
        let ctl = &*self.ctl;
        let client = ctl.next_client.fetch_add(1, Ordering::SeqCst) + 1;
        let Conn { mut reader, writer } = conn;
        let mut decoder = FrameDecoder::new();
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            match reader.read_timed(&mut buf, Duration::from_millis(100)) {
                Ok(ReadOutcome::Data(n)) => {
                    decoder.push(&buf[..n]);
                    loop {
                        match decoder.next_frame() {
                            Ok(Some(frame)) => self.dispatch(frame, client, &writer),
                            Ok(None) => break,
                            Err(_) => {
                                // Framing is lost; nothing sensible can be
                                // sent on a stream we can no longer parse.
                                ctl.proto_errors.fetch_add(1, Ordering::SeqCst);
                                return;
                            }
                        }
                    }
                }
                Ok(ReadOutcome::TimedOut) => {
                    if ctl.stopped() {
                        return;
                    }
                }
                Ok(ReadOutcome::Eof) | Err(_) => return,
            }
        }
    }

    fn dispatch(&self, frame: Frame, client: u64, writer: &Arc<Mutex<Box<dyn Write + Send>>>) {
        let ctl = &*self.ctl;
        match frame {
            Frame::Ping => send(writer, &Frame::Pong),
            Frame::Stats => send(writer, &Frame::StatsReply { json: self.stats_json() }),
            Frame::Shutdown => ctl.request_shutdown(),
            Frame::Submit { name, fastq } => {
                let job_id = ctl.next_job.fetch_add(1, Ordering::SeqCst) + 1;
                match read_fastq(&fastq[..]) {
                    Err(e) => {
                        // The job is born failed: acknowledge it so the
                        // client can correlate, then report the parse
                        // error. It never touches the queue, so other
                        // clients' jobs are unaffected.
                        ctl.jobs_failed.fetch_add(1, Ordering::SeqCst);
                        self.metrics.add(Ctr::ServeJobsFailed, 1);
                        let mut w =
                            writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                        let _ = Frame::Accept { job: job_id }.write_to(&mut **w);
                        let _ = Frame::Error { job: job_id, message: format!("bad FASTQ: {e}") }
                            .write_to(&mut **w);
                    }
                    Ok(records) => {
                        let reads: Vec<Vec<u8>> = records.into_iter().map(|r| r.bases).collect();
                        let job = Job {
                            id: job_id,
                            client,
                            name,
                            reads,
                            writer: Arc::clone(writer),
                            submitted: Instant::now(),
                        };
                        // Hold the connection writer across the admission
                        // verdict so the executor's first GAF frame for
                        // this job cannot overtake our ACCEPT.
                        let mut w =
                            writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                        match ctl.queue.try_submit(client, job) {
                            Ok(()) => {
                                self.metrics.add(Ctr::ServeJobsAccepted, 1);
                                let _ = Frame::Accept { job: job_id }.write_to(&mut **w);
                            }
                            Err((why, _job)) => {
                                self.metrics.add(Ctr::ServeJobsRejected, 1);
                                let _ = Frame::Busy { reason: why.to_string() }.write_to(&mut **w);
                            }
                        }
                    }
                }
            }
            // Server-to-client frames arriving at the server are ignored:
            // tolerated (the sender is confused, not malicious) but never
            // answered.
            Frame::Pong
            | Frame::Accept { .. }
            | Frame::Busy { .. }
            | Frame::Gaf { .. }
            | Frame::Done { .. }
            | Frame::Error { .. }
            | Frame::StatsReply { .. } => {}
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}
