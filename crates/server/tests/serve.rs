//! The concurrent-client lock on `minigiraffe serve`.
//!
//! Every test drives a real [`MappingServer`] — admission queue, chunk
//! executor, shared worker pool, hot tier — through the harness client
//! over in-process loopback, and holds the streamed GAF to the
//! sequential one-shot oracle: for each job, [`Parent::run`] over the
//! same reads on a *separate* parent instance. Byte equality there means
//! multi-tenant interleaving changed nothing. The `tcp` tests use real
//! sockets and also pin the TCP socket policy: prompt drain with no
//! client connected, and per-job latency free of delayed-ACK stalls.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mg_core::types::Workflow;
use mg_parent::{run_to_gaf, Parent, ParentOptions};
use mg_sched::SchedulerKind;
use mg_server::{
    drive_clients, BlockingClient, ClientPlan, Conn, JobOutcome, MappingServer, Profile,
    ServerConfig, ServerCtl,
};
use mg_workload::{write_fastq, FastqRecord, InputSetSpec, SyntheticInput};

/// Requests drain on drop so a failing assertion unwinds cleanly instead
/// of deadlocking the scope join on a server that never exits.
struct ShutdownGuard<'a>(&'a Arc<ServerCtl>);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
    }
}

fn fixture(seed: u64) -> SyntheticInput {
    SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), seed)
}

fn paired_fixture(seed: u64) -> SyntheticInput {
    let mut spec = InputSetSpec::tiny_for_tests();
    spec.workflow = Workflow::Paired;
    SyntheticInput::generate(&spec, seed)
}

fn raw_reads(input: &SyntheticInput) -> Vec<Vec<u8>> {
    input.sim_reads.iter().map(|r| r.bases.clone()).collect()
}

fn fastq_of(reads: &[Vec<u8>]) -> Vec<u8> {
    let records: Vec<FastqRecord> = reads
        .iter()
        .enumerate()
        .map(|(i, bases)| FastqRecord::with_uniform_quality(format!("r{i}"), bases.clone(), b'F'))
        .collect();
    let mut out = Vec::new();
    write_fastq(&mut out, &records).expect("in-memory FASTQ write");
    out
}

fn options(scheduler: SchedulerKind, threads: usize) -> ParentOptions {
    let mut options = ParentOptions::default();
    options.mapping.scheduler = scheduler;
    options.mapping.threads = threads;
    options.mapping.batch_size = 8;
    options
}

/// The sequential oracle: a one-shot batch run on a parent instance the
/// server never touches (own pool, own caches, own hot tier).
fn oracle_gaf(
    input: &SyntheticInput,
    reads: &[Vec<u8>],
    options: &ParentOptions,
    name: &str,
) -> String {
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    run_to_gaf(input.gbz.graph(), &parent.run(reads, options), name)
}

fn expect_done(outcome: &JobOutcome) -> (&[u8], mg_server::JobSummary) {
    match outcome {
        JobOutcome::Done { gaf, summary } => (gaf, *summary),
        JobOutcome::Failed { message } => panic!("job failed: {message}"),
    }
}

/// Eight concurrent clients (mixed steady/bursty pacing), two jobs each,
/// over in-process loopback: every job's streamed GAF must be
/// byte-identical to the sequential oracle, with the hot tier built
/// exactly once across all sixteen jobs.
fn eight_clients_match_oracle(scheduler: SchedulerKind) {
    let input = fixture(11);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(scheduler, 2);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            chunk_reads: 8,
            max_pending: 32,
            max_active: 4,
            per_client_cap: 4,
            fault_job: None,
            write_timeout: std::time::Duration::from_secs(30),
        },
    );
    let slice = |c: usize, j: usize| {
        let lo = (c * 5 + j * 10) % 30;
        lo..lo + 10
    };
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let plans: Vec<ClientPlan> = (0..8)
            .map(|c| ClientPlan {
                label: format!("c{c}"),
                jobs: (0..2).map(|j| fastq_of(&reads[slice(c, j)])).collect(),
                profile: if c % 2 == 0 { Profile::Steady } else { Profile::Bursty },
                seed: 0x5eed ^ c as u64,
            })
            .collect();
        let reports = drive_clients(&tx, &plans);
        for (c, report) in reports.into_iter().enumerate() {
            let report = report.expect("client ran");
            assert_eq!(report.rejected, 0, "client {c} saw spurious BUSY");
            assert_eq!(report.outcomes.len(), 2);
            for (j, (name, outcome)) in report.outcomes.iter().enumerate() {
                let (gaf, summary) = expect_done(outcome);
                let expect = oracle_gaf(&input, &reads[slice(c, j)], &options, name);
                assert_eq!(
                    std::str::from_utf8(gaf).unwrap(),
                    expect,
                    "client {c} job {j} GAF diverged from the sequential oracle"
                );
                assert_eq!(summary.reads, 10);
                assert_eq!(summary.chunks, 2, "10 reads at chunk_reads=8 is 2 chunks");
                assert_eq!(summary.gaf_bytes, expect.len() as u64);
            }
        }
    });
    assert_eq!(server.ctl().jobs_completed(), 16);
    assert_eq!(server.ctl().jobs_failed(), 0);
    assert_eq!(
        server.ctl().hot_rebuilds(),
        1,
        "hot tier must be built once, then stay resident across all jobs"
    );
}

#[test]
fn eight_clients_match_oracle_dynamic() {
    eight_clients_match_oracle(SchedulerKind::Dynamic);
}

#[test]
fn eight_clients_match_oracle_work_stealing() {
    eight_clients_match_oracle(SchedulerKind::WorkStealing);
}

#[test]
fn ping_stats_and_clean_drain() {
    let input = fixture(3);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 1);
    let server = MappingServer::new(
        &parent,
        ServerConfig { options: options.clone(), ..ServerConfig::default() },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        client.ping().expect("PONG");
        let outcome = client.run_job("set", &fastq_of(&reads[..6])).expect("job ran");
        let (gaf, summary) = expect_done(&outcome);
        assert_eq!(
            std::str::from_utf8(gaf).unwrap(),
            oracle_gaf(&input, &reads[..6], &options, "set")
        );
        assert!(summary.latency_us >= summary.queue_wait_us);
        let stats = client.stats().expect("STATS");
        for needle in [
            "\"accepted\":1",
            "\"completed\":1",
            "\"failed\":0",
            "\"rejected_full\":0",
            "\"latency_us\":{\"count\":1",
            "\"hot_tier\":{\"rebuilds\":1}",
            "\"draining\":false",
        ] {
            assert!(stats.contains(needle), "STATS missing {needle}: {stats}");
        }
        client.shutdown().expect("SHUTDOWN sent");
    });
    assert!(server.ctl().stopped());
}

#[test]
fn real_tcp_round_trip() {
    let input = fixture(5);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 2);
    let server = MappingServer::new(
        &parent,
        ServerConfig { options: options.clone(), ..ServerConfig::default() },
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve_tcp(listener).expect("serve_tcp"));
        let _guard = ShutdownGuard(server.ctl());
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut client = BlockingClient::new(Conn::tcp(stream).expect("conn"));
        client.ping().expect("PONG over TCP");
        let outcome = client.run_job("tcp", &fastq_of(&reads[..8])).expect("job over TCP");
        let (gaf, _) = expect_done(&outcome);
        assert_eq!(
            std::str::from_utf8(gaf).unwrap(),
            oracle_gaf(&input, &reads[..8], &options, "tcp")
        );
        client.shutdown().expect("SHUTDOWN over TCP");
    });
}

/// `serve_tcp` with no client ever connecting: the blocking accept must
/// be woken once the server drains.
fn serve_tcp_returns_on_shutdown(bind: &str) {
    let input = fixture(5);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let server = MappingServer::new(
        &parent,
        ServerConfig { options: options(SchedulerKind::Dynamic, 1), ..ServerConfig::default() },
    );
    let listener = std::net::TcpListener::bind(bind).expect("bind");
    let port = listener.local_addr().unwrap().port();
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = channel();
        let server = &server;
        scope.spawn(move || {
            server.serve_tcp(listener).expect("serve_tcp");
            done_tx.send(()).ok();
        });
        server.ctl().request_shutdown();
        let returned = done_rx.recv_timeout(Duration::from_secs(2)).is_ok();
        if !returned {
            // Unstick a hung accept so the scope can join and report.
            let _ = std::net::TcpStream::connect(("127.0.0.1", port));
        }
        assert!(returned, "serve_tcp on {bind} did not return within 2 s of request_shutdown");
    });
}

#[test]
fn serve_tcp_returns_on_shutdown_with_loopback_bind() {
    serve_tcp_returns_on_shutdown("127.0.0.1:0");
}

#[test]
fn serve_tcp_returns_on_shutdown_with_wildcard_bind() {
    serve_tcp_returns_on_shutdown("0.0.0.0:0");
}

/// Sequential one-chunk jobs over loopback TCP. Mapping 8 tiny reads
/// takes well under a millisecond, so ACCEPT → DONE is all transport:
/// with Nagle on, `GAF` and `DONE` each wait for the client's delayed
/// ACK (~40 ms on Linux). The bound is half that floor.
#[test]
fn tcp_accept_to_done_stays_below_the_delayed_ack_floor() {
    let input = fixture(5);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    // One thread × batch 8: an 8-read job is one chunk.
    let server = MappingServer::new(
        &parent,
        ServerConfig { options: options(SchedulerKind::Dynamic, 1), ..ServerConfig::default() },
    );
    let fastq = fastq_of(&reads[..8]);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let mut millis = std::thread::scope(|scope| {
        scope.spawn(|| server.serve_tcp(listener).expect("serve_tcp"));
        let _guard = ShutdownGuard(server.ctl());
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut client = BlockingClient::new(Conn::tcp(stream).expect("conn"));
        client.ping().expect("PONG");
        let mut millis = Vec::new();
        for i in 0..9 {
            let job = client.submit(&format!("j{i}"), &fastq).expect("submit").expect("admitted");
            let accepted = Instant::now();
            let outcome = client.wait_job(job).expect("job over TCP");
            millis.push(accepted.elapsed().as_secs_f64() * 1e3);
            assert_eq!(expect_done(&outcome).1.chunks, 1);
        }
        client.shutdown().expect("SHUTDOWN over TCP");
        millis
    });
    millis.sort_by(f64::total_cmp);
    let median = millis[millis.len() / 2];
    assert!(median < 20.0, "median ACCEPT -> DONE {median:.2} ms (all: {millis:.2?})");
}

/// A hog streaming a large job cannot starve a small job submitted after
/// it: chunk-level interleaving finishes the small one first.
#[test]
fn small_job_finishes_under_a_hog() {
    let input = fixture(7);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 1);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            chunk_reads: 4,
            max_pending: 8,
            max_active: 2,
            per_client_cap: 2,
            fault_job: None,
            write_timeout: std::time::Duration::from_secs(30),
        },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (hog_server, hog_side) = Conn::pair();
        let (small_server, small_side) = Conn::pair();
        tx.send(hog_server).unwrap();
        tx.send(small_server).unwrap();
        let mut hog = BlockingClient::new(hog_side);
        let mut small = BlockingClient::new(small_side);
        let hog_job = hog.submit("hog", &fastq_of(&reads[..32])).unwrap().expect("admitted");
        let small_job =
            small.submit("small", &fastq_of(&reads[..4])).unwrap().expect("admitted");
        let small_done = expect_done(&small.wait_job(small_job).unwrap()).1;
        let hog_done = expect_done(&hog.wait_job(hog_job).unwrap()).1;
        // The small job was submitted later yet finished earlier, so its
        // latency is strictly below the hog's — the fairness property.
        assert!(
            small_done.latency_us < hog_done.latency_us,
            "small job ({} us) should undercut the hog ({} us)",
            small_done.latency_us,
            hog_done.latency_us
        );
        assert_eq!(hog_done.chunks, 8);
        small.shutdown().unwrap();
    });
    assert_eq!(server.ctl().jobs_completed(), 2);
}

#[test]
fn queue_full_and_client_caps_reject_with_busy() {
    let input = fixture(9);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options(SchedulerKind::Dynamic, 1),
            chunk_reads: 4,
            max_pending: 1,
            max_active: 1,
            per_client_cap: 2,
            fault_job: None,
            write_timeout: std::time::Duration::from_secs(30),
        },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (a_server, a_side) = Conn::pair();
        let (b_server, b_side) = Conn::pair();
        tx.send(a_server).unwrap();
        tx.send(b_server).unwrap();
        let mut a = BlockingClient::new(a_side);
        let mut b = BlockingClient::new(b_side);
        // Long jobs (80 chunks each): job 1 must still be executing while
        // the submits below race it, or the cap/queue slots free up and
        // the rejections never happen.
        let big: Vec<Vec<u8>> = reads.iter().cycle().take(320).cloned().collect();
        let fastq = fastq_of(&big);
        // Client A fills its own cap: two in flight, the third bounces
        // off the per-client limit (freed only when a job *finishes*).
        let job1 = a.submit("a0", &fastq).unwrap().expect("first admitted");
        // Wait until the executor has popped job1 (it is long: 8 chunks),
        // so job2 lands in the now-empty 1-slot pending queue instead of
        // racing the pop.
        for _ in 0..200 {
            if a.stats().expect("STATS").contains("\"executing\":1") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let job2 = a.submit("a1", &fastq).unwrap().expect("second admitted");
        let saturated = a.submit("a2", &fastq).unwrap().expect_err("third must bounce");
        assert!(saturated.contains("in flight"), "wrong BUSY reason: {saturated}");
        // Client B is under ITS cap but the shared pending queue is full
        // (A's second job is parked there while the first executes).
        let full = b.submit("b0", &fastq).unwrap().expect_err("queue is full");
        assert!(full.contains("queue full"), "wrong BUSY reason: {full}");
        // Rejection is not punishment: everything admitted still runs.
        expect_done(&a.wait_job(job1).unwrap());
        expect_done(&a.wait_job(job2).unwrap());
        b.shutdown().unwrap();
    });
    assert_eq!(server.ctl().jobs_completed(), 2);
    let stats = server.ctl().stats_json();
    assert!(stats.contains("\"rejected_full\":1"), "{stats}");
    assert!(stats.contains("\"rejected_client\":1"), "{stats}");
}

/// Drain on shutdown: every accepted job completes; nothing is lost, new
/// work is refused.
#[test]
fn drain_loses_no_accepted_jobs() {
    let input = fixture(13);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 1);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            chunk_reads: 4,
            max_pending: 8,
            max_active: 2,
            per_client_cap: 4,
            fault_job: None,
            write_timeout: std::time::Duration::from_secs(30),
        },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        let mut jobs = Vec::new();
        for i in 0..3 {
            let fastq = fastq_of(&reads[i * 8..(i + 1) * 8]);
            jobs.push((i, client.submit(&format!("d{i}"), &fastq).unwrap().expect("admitted")));
        }
        client.shutdown().unwrap();
        // Post-drain submissions bounce; the reason says why.
        let refused = client
            .submit("late", &fastq_of(&reads[..4]))
            .unwrap()
            .expect_err("draining server must refuse");
        assert!(refused.contains("draining"), "wrong BUSY reason: {refused}");
        // Every job accepted before the drain still completes, correctly.
        for (i, job) in jobs {
            let outcome = client.wait_job(job).unwrap();
            let (gaf, _) = expect_done(&outcome);
            let expect =
                oracle_gaf(&input, &reads[i * 8..(i + 1) * 8], &options, &format!("d{i}"));
            assert_eq!(std::str::from_utf8(gaf).unwrap(), expect);
        }
    });
    assert!(server.ctl().stopped());
    assert_eq!(server.ctl().jobs_completed(), 3, "drain must not lose accepted jobs");
}

/// A job whose FASTQ does not parse fails alone: the submitting client
/// gets `ERR`, everyone else keeps mapping.
#[test]
fn corrupt_fastq_fails_one_job_not_the_server() {
    let input = fixture(17);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 1);
    let server = MappingServer::new(
        &parent,
        ServerConfig { options: options.clone(), ..ServerConfig::default() },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        match client.run_job("bad", b"this is not FASTQ\n").expect("client survives") {
            JobOutcome::Failed { message } => {
                assert!(message.contains("bad FASTQ"), "wrong error: {message}")
            }
            JobOutcome::Done { .. } => panic!("corrupt FASTQ must not map"),
        }
        // Same connection, next job: unaffected.
        let outcome = client.run_job("good", &fastq_of(&reads[..6])).expect("job ran");
        let (gaf, _) = expect_done(&outcome);
        assert_eq!(
            std::str::from_utf8(gaf).unwrap(),
            oracle_gaf(&input, &reads[..6], &options, "good")
        );
        client.shutdown().unwrap();
    });
    assert_eq!(server.ctl().jobs_failed(), 1);
    assert_eq!(server.ctl().jobs_completed(), 1);
}

/// Satellite 3's serving half: a worker panic inside a served job fails
/// exactly that job; the pool, the executor, and the resident state all
/// survive, and an identical retry maps correctly.
#[test]
fn worker_panic_fails_job_pool_survives() {
    let input = fixture(19);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 2);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            chunk_reads: 8,
            max_pending: 8,
            max_active: 2,
            per_client_cap: 4,
            // Job 1, read 2: the first chunk of the first job panics in a
            // pool worker mid-mapping.
            fault_job: Some((1, 2)),
            write_timeout: std::time::Duration::from_secs(30),
        },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        let fastq = fastq_of(&reads[..8]);
        match client.run_job("doomed", &fastq).expect("client survives the fault") {
            JobOutcome::Failed { message } => {
                assert!(message.contains("mapping fault"), "wrong error: {message}");
                assert!(message.contains("injected fault"), "wrong error: {message}");
            }
            JobOutcome::Done { .. } => panic!("faulted job must fail"),
        }
        // Identical payload, next job id: runs on the SAME pool the panic
        // unwound through, and must match the oracle exactly.
        let outcome = client.run_job("retry", &fastq).expect("retry ran");
        let (gaf, _) = expect_done(&outcome);
        assert_eq!(
            std::str::from_utf8(gaf).unwrap(),
            oracle_gaf(&input, &reads[..8], &options, "retry")
        );
        client.shutdown().unwrap();
    });
    assert_eq!(server.ctl().jobs_failed(), 1);
    assert_eq!(server.ctl().jobs_completed(), 1);
}

/// Satellite 4: per-job aggregation resets between jobs on the warm pool.
/// Two identical back-to-back jobs must report identical per-job figures
/// (reads, chunks, GAF bytes) and identical GAF — not cumulative ones —
/// and the server-wide counters must be exactly the two-job sums.
#[test]
fn identical_jobs_back_to_back_report_identical_summaries() {
    let input = fixture(23);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 2);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            chunk_reads: 4,
            ..ServerConfig::default()
        },
    );
    let (tx, rx) = channel::<Conn>();
    let mut per_job = None;
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        let fastq = fastq_of(&reads[..10]);
        let first = client.run_job("same", &fastq).expect("first job");
        let second = client.run_job("same", &fastq).expect("second job");
        let (gaf1, s1) = expect_done(&first);
        let (gaf2, s2) = expect_done(&second);
        assert_eq!(gaf1, gaf2, "identical jobs must stream identical GAF");
        assert_eq!(s1.reads, s2.reads);
        assert_eq!(s1.chunks, s2.chunks);
        assert_eq!(
            s1.gaf_bytes, s2.gaf_bytes,
            "job 2's summary must restart from zero on the warm pool, not accumulate"
        );
        assert_eq!(s1.reads, 10);
        assert_eq!(s1.chunks, 3);
        let stats = client.stats().expect("STATS");
        assert!(stats.contains("\"reads_mapped\":20"), "{stats}");
        assert!(stats.contains(&format!("\"gaf_bytes\":{}", 2 * s1.gaf_bytes)), "{stats}");
        per_job = Some(s1);
        client.shutdown().unwrap();
    });
    // The obs registry (when compiled in) agrees with the wire summaries:
    // server-wide totals are exactly the two-job sums.
    if server.metrics().enabled() {
        use mg_obs::{Ctr, Hist};
        let s1 = per_job.expect("summaries captured");
        let report = server.metrics().report();
        assert_eq!(report.counter(Ctr::ServeJobsCompleted), 2);
        assert_eq!(report.counter(Ctr::ServeGafBytes), 2 * s1.gaf_bytes);
        assert_eq!(report.hist_count(Hist::ServeJobReads), 2);
        assert_eq!(report.hist_sum(Hist::ServeJobReads), 2 * s1.reads);
        assert_eq!(report.hist_count(Hist::ServeJobLatencyUs), 2);
    }
}

/// Unparseable bytes on a connection drop that connection only; the
/// server keeps accepting new ones.
#[test]
fn garbage_bytes_drop_the_connection_not_the_server() {
    let input = fixture(29);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let server = MappingServer::new(
        &parent,
        ServerConfig { options: options(SchedulerKind::Dynamic, 1), ..ServerConfig::default() },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut poisoner = BlockingClient::new(client_side);
        poisoner.send_raw(&[0xff; 16]).expect("raw write");
        // The server abandons the stream: the client sees it close.
        assert!(poisoner.ping().is_err(), "poisoned connection must be dropped");
        // A fresh connection is unaffected.
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        client.ping().expect("server still alive");
        client.shutdown().unwrap();
    });
    assert_eq!(server.ctl().proto_errors(), 1);
}

/// Paired workflow over the server: chunks clamp to pair boundaries, and
/// the streamed GAF (rescue, pair check and all) matches the one-shot
/// oracle.
#[test]
fn paired_workflow_matches_oracle() {
    let input = paired_fixture(31);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 2);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            // Odd on purpose: the server must clamp to even so pairs stay
            // whole within a chunk.
            chunk_reads: 5,
            max_pending: 8,
            max_active: 2,
            per_client_cap: 2,
            fault_job: None,
            write_timeout: std::time::Duration::from_secs(30),
        },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let plans: Vec<ClientPlan> = (0..2)
            .map(|c| ClientPlan {
                label: format!("p{c}"),
                jobs: vec![fastq_of(&reads[c * 12..(c + 1) * 12])],
                profile: Profile::Steady,
                seed: c as u64,
            })
            .collect();
        let reports = drive_clients(&tx, &plans);
        for (c, report) in reports.into_iter().enumerate() {
            let report = report.expect("client ran");
            let (name, outcome) = &report.outcomes[0];
            let (gaf, summary) = expect_done(outcome);
            let expect = oracle_gaf(&input, &reads[c * 12..(c + 1) * 12], &options, name);
            assert_eq!(
                std::str::from_utf8(gaf).unwrap(),
                expect,
                "paired client {c} diverged from the oracle"
            );
            assert_eq!(summary.chunks, 3, "12 reads at even-clamped chunk 4 is 3 chunks");
        }
        server.ctl().request_shutdown();
    });
    assert_eq!(server.ctl().jobs_completed(), 2);
}

/// Adaptive serve against the byte oracle: the controller probes batch,
/// chunk window, and cache capacity across epochs while steady and bursty
/// clients stream jobs — and every job's GAF must still be byte-identical
/// to the fixed-knob sequential oracle, because knob moves land only at
/// chunk boundaries and every tuned knob is result-invariant.
#[test]
fn adaptive_serve_matches_oracle_and_reports_state() {
    let input = fixture(17);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 2);
    let controller = mg_server::ControllerConfig {
        // Tiny epochs so the short test actually probes: any mapped epoch
        // counts, and the guard rails keep probes inside sane test sizes.
        min_reads: 1,
        bounds: mg_server::KnobBounds {
            batch: (2, 64),
            chunk: (2, 64),
            cache: (32, 1024),
            hot: (0, 1024),
        },
        ..mg_server::ControllerConfig::default()
    };
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            chunk_reads: 4,
            max_pending: 32,
            max_active: 4,
            per_client_cap: 4,
            fault_job: None,
            write_timeout: std::time::Duration::from_secs(30),
        },
    )
    .with_adaptive(controller);
    let slice = |c: usize, j: usize| {
        let lo = (c * 7 + j * 13) % 20;
        lo..lo + 10
    };
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let plans: Vec<ClientPlan> = (0..6)
            .map(|c| ClientPlan {
                label: format!("a{c}"),
                jobs: (0..3).map(|j| fastq_of(&reads[slice(c, j)])).collect(),
                profile: if c % 2 == 0 { Profile::Steady } else { Profile::Bursty },
                seed: 0xada7 ^ c as u64,
            })
            .collect();
        let reports = drive_clients(&tx, &plans);
        for (c, report) in reports.into_iter().enumerate() {
            let report = report.expect("client ran");
            assert_eq!(report.outcomes.len(), 3);
            for (j, (name, outcome)) in report.outcomes.iter().enumerate() {
                let (gaf, _summary) = expect_done(outcome);
                let expect = oracle_gaf(&input, &reads[slice(c, j)], &options, name);
                assert_eq!(
                    std::str::from_utf8(gaf).unwrap(),
                    expect,
                    "adaptive client {c} job {j} GAF diverged from the oracle"
                );
            }
        }
        // STATS over the wire carries the cache and adaptive sections.
        let (conn, side) = Conn::pair();
        tx.send(conn).unwrap();
        let mut admin = BlockingClient::new(side);
        let stats = admin.stats().expect("STATS");
        assert!(stats.contains("\"cache\":{\"private_hits\":"), "no cache section: {stats}");
        assert!(stats.contains("\"adaptive\":{\"batch_size\":"), "no adaptive section: {stats}");
        admin.shutdown().unwrap();
    });
    assert_eq!(server.ctl().jobs_completed(), 18);
    assert_eq!(server.ctl().jobs_failed(), 0);
    let (knobs, stats, _converged) = server.adaptive_status().expect("adaptive server");
    assert!(stats.epochs > 0, "no epochs closed across 18 jobs");
    // Probes stay inside the guard rails...
    assert!(knobs.batch_size >= 2 && knobs.batch_size <= 64, "batch escaped bounds: {knobs}");
    assert!(knobs.cache_capacity >= 32 && knobs.cache_capacity <= 1024);
    // ...and the hot axis never moves by default, preserving the
    // residency contract even under adaptation.
    assert_eq!(knobs.hot_tier_budget, options.mapping.hot_tier_budget);
    assert_eq!(server.ctl().hot_rebuilds(), 1, "adaptive serve must keep the hot tier resident");
    // The final drain stats JSON carries the same extended sections.
    let stats_json = server.stats_json();
    assert!(stats_json.contains("\"adaptive\":{"), "{stats_json}");
    assert!(stats_json.contains("\"hot_hit_rate\":"), "{stats_json}");
}
