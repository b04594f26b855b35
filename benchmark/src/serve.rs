//! The serve load generator: starts `minigiraffe serve --mgi` as a child process,
//! measures its set-up, then drives it open loop over one TCP connection
//! (a sender thread on a seeded Poisson schedule, a receiver thread
//! timestamping every frame) and byte-compares each job's GAF with the
//! batch GAF of the same reads.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use minigiraffe::server::{Frame, FrameDecoder};

use crate::{lateness, open_loop_latency, open_loop_schedule, Arrival, SETUPS};

/// Offered load: Poisson arrivals at this many jobs per second, about a
/// third of the rate at which latency ran away on a 2-core host.
pub const JOBS_PER_S: f64 = 32.0;

/// The fewest jobs a load sends: enough that ten lie beyond p99.
pub const MIN_JOBS: usize = 1000;

/// Admission caps far above the expected in-flight count (a few jobs), so
/// any `BUSY` is a regression rather than load shedding by design.
const ADMISSION_CAP: &str = "256";

/// How long any single wait on the server may take before the run fails.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// The server flags the benchmark sets, besides `--mgi` and `--port`:
/// stock knobs except the thread count and the admission caps.
pub fn server_flags(threads: usize, paired: bool) -> Vec<String> {
    let mut flags = vec![
        "--threads".to_string(),
        threads.to_string(),
        "--max-pending".to_string(),
        ADMISSION_CAP.to_string(),
        "--client-cap".to_string(),
        ADMISSION_CAP.to_string(),
    ];
    if paired {
        flags.extend(["--paired".to_string(), "true".to_string()]);
    }
    flags
}

/// One job's read slice: its FASTQ, its pre-encoded `SUBMIT` frame, and
/// the GAF a batch run over the same reads renders.
pub struct Slice {
    /// Job name, the GAF read-name prefix.
    pub name: String,
    pub fastq: Vec<u8>,
    pub submit: Vec<u8>,
    pub expected_gaf: Vec<u8>,
    pub reads: usize,
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Pending,
    Done,
    Busy,
    Error,
}

/// Client-side record of one job, all instants relative to load start.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub arrival: Arrival,
    pub sent: Option<Duration>,
    pub accept: Option<Duration>,
    pub first_gaf: Option<Duration>,
    pub last_gaf: Option<Duration>,
    pub done: Option<Duration>,
    pub queue_wait_us: u64,
    pub status: Status,
    pub gaf: Vec<u8>,
}

impl JobRecord {
    /// Open-loop latency in ms, infinite for a job that did not finish.
    pub fn latency_ms(&self) -> f64 {
        match (self.status, self.done) {
            (Status::Done, Some(done)) => ms(open_loop_latency(self.arrival.due, done)),
            _ => f64::INFINITY,
        }
    }

    /// Sender lateness in ms.
    pub fn late_ms(&self) -> Option<f64> {
        self.sent.map(|s| ms(lateness(self.arrival.due, s)))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a load run measured.
pub struct LoadOutcome {
    pub setup_s: Vec<f64>,
    pub jobs: Vec<JobRecord>,
    /// Wall time from the first due instant to the last `DONE`.
    pub span: Duration,
    pub server_peak_rss_mib: f64,
    /// The `STATS` JSON the server printed when it drained.
    pub final_stats: String,
}

impl LoadOutcome {
    /// Jobs refused, failed, or whose GAF differs from the batch GAF.
    pub fn failed(&self, slices: &[Slice]) -> usize {
        self.jobs.iter().filter(|j| !job_ok(j, slices)).count()
    }
}

pub fn job_ok(job: &JobRecord, slices: &[Slice]) -> bool {
    job.status == Status::Done && job.gaf == slices[job.arrival.slice].expected_gaf
}

/// A running server child with its stderr drained in the background.
struct Server {
    child: Child,
    stderr: Option<JoinHandle<()>>,
    conn: TcpStream,
}

impl Server {
    /// Starts the server and returns once it answered `PING`.
    fn start(bin: &Path, mgi: &Path, flags: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--mgi")
            .arg(mgi)
            .args(["--port", "0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || drain_stderr(stderr, tx));
        match connect_and_ping(&rx) {
            Ok(conn) => Ok(Server {
                child,
                stderr: Some(drain),
                conn,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = drain.join();
                Err(e)
            }
        }
    }

    /// Runs one job to completion on the setup connection.
    fn warm_up(&mut self, slice: &Slice) -> Result<(), String> {
        let mut decoder = FrameDecoder::new();
        send(&mut self.conn, &slice.submit)?;
        let mut gaf = Vec::new();
        loop {
            match recv(&mut self.conn, &mut decoder)? {
                Frame::Accept { .. } => {}
                Frame::Gaf { data, .. } => gaf.extend_from_slice(&data),
                Frame::Done { .. } if gaf == slice.expected_gaf => return Ok(()),
                Frame::Done { .. } => return Err("warm-up job GAF differs from batch GAF".into()),
                other => return Err(format!("warm-up job: unexpected {other:?}")),
            }
        }
    }

    fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading server status: {e}"))?;
        vm_hwm_mib(&status).ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// Sends `SHUTDOWN`, waits for the drained server to exit, and returns
    /// the `STATS` JSON it printed.
    fn shutdown(mut self) -> Result<String, String> {
        send(&mut self.conn, &Frame::Shutdown.encode())?;
        let deadline = Instant::now() + STALL_LIMIT;
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    return Err("server did not exit after SHUTDOWN".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let mut stdout = String::new();
        if let Some(mut out) = self.child.stdout.take() {
            out.read_to_string(&mut stdout).map_err(|e| e.to_string())?;
        }
        if let Some(drain) = self.stderr.take() {
            drain
                .join()
                .map_err(|_| "stderr drain panicked".to_string())?;
        }
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(stdout.trim().to_string())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    /// Never leaves a server behind: a no-op after a clean shutdown.
    fn drop(&mut self) {
        self.kill();
    }
}

/// Connects to the address the server announces and checks it answers
/// `PING`.
fn connect_and_ping(addr: &mpsc::Receiver<String>) -> Result<TcpStream, String> {
    let addr = addr
        .recv_timeout(STALL_LIMIT)
        .map_err(|_| "server never reported its address".to_string())?;
    let mut conn = TcpStream::connect(&addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(STALL_LIMIT))
        .map_err(|e| e.to_string())?;
    conn.set_write_timeout(Some(STALL_LIMIT))
        .map_err(|e| e.to_string())?;
    send(&mut conn, &Frame::Ping.encode())?;
    match recv(&mut conn, &mut FrameDecoder::new())? {
        Frame::Pong => Ok(conn),
        other => Err(format!("expected PONG, got {other:?}")),
    }
}

/// Forwards the address from the server's `serving ... on ADDR (` banner,
/// then discards the rest of its stderr until it closes.
fn drain_stderr(stderr: ChildStderr, tx: mpsc::Sender<String>) {
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap_or(0) > 0 {
        if let Some(rest) = line.strip_prefix("serving ") {
            if let Some(addr) = rest.split(" on ").nth(1).and_then(|s| s.split(' ').next()) {
                let _ = tx.send(addr.to_string());
            }
        }
        line.clear();
    }
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` text, in MiB.
pub fn vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn send(conn: &mut TcpStream, bytes: &[u8]) -> Result<(), String> {
    conn.write_all(bytes)
        .map_err(|e| format!("sending to server: {e}"))
}

fn recv(conn: &mut TcpStream, decoder: &mut FrameDecoder) -> Result<Frame, String> {
    let mut buf = [0u8; 64 * 1024];
    loop {
        if let Some(frame) = decoder
            .next_frame()
            .map_err(|e| format!("bad frame: {e:?}"))?
        {
            return Ok(frame);
        }
        let n = conn
            .read(&mut buf)
            .map_err(|e| format!("reading from server: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        decoder.push(&buf[..n]);
    }
}

/// Starts the server [`SETUPS`] times (each: process start → `PONG` → one
/// warm-up job), keeps the last one, and drives it open loop with `jobs`
/// jobs spread over `window`.
pub fn run_load(
    bin: &Path,
    mgi: &Path,
    flags: &[String],
    slices: &[Slice],
    seed: u64,
    jobs: usize,
    window: Duration,
) -> Result<LoadOutcome, String> {
    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let mut s = Server::start(bin, mgi, flags)?;
        s.warm_up(&slices[0])?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("SETUPS > 0");
    let schedule = open_loop_schedule(seed, jobs, window, slices.len());
    let (jobs, span) = drive(&server.conn, slices, &schedule)?;
    let server_peak_rss_mib = server.peak_rss_mib()?;
    let final_stats = server.shutdown()?;
    Ok(LoadOutcome {
        setup_s,
        jobs,
        span,
        server_peak_rss_mib,
        final_stats,
    })
}

/// The open-loop drive over one connection.
fn drive(
    conn: &TcpStream,
    slices: &[Slice],
    schedule: &[Arrival],
) -> Result<(Vec<JobRecord>, Duration), String> {
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let mut reader = conn.try_clone().map_err(|e| e.to_string())?;
    let records: Vec<Mutex<JobRecord>> = schedule
        .iter()
        .map(|&arrival| {
            Mutex::new(JobRecord {
                arrival,
                sent: None,
                accept: None,
                first_gaf: None,
                last_gaf: None,
                done: None,
                queue_wait_us: 0,
                status: Status::Pending,
                gaf: Vec::new(),
            })
        })
        .collect();
    // Submissions awaiting ACCEPT or BUSY; one connection answers them in
    // order, so the front is always the job the next verdict is about.
    let unanswered: Mutex<VecDeque<usize>> = Mutex::new(VecDeque::new());
    let lead = Duration::from_millis(20);
    let start = Instant::now() + lead;
    let record = |i: usize| {
        records[i]
            .lock()
            .expect("job record lock poisoned by a panic")
    };
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> Result<(), String> {
            for (i, arrival) in schedule.iter().enumerate() {
                let due = start + arrival.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                unanswered.lock().expect("queue lock poisoned").push_back(i);
                let sent = Instant::now().saturating_duration_since(start);
                record(i).sent = Some(sent);
                send(&mut writer, &slices[arrival.slice].submit)?;
            }
            Ok(())
        });
        let receiver = scope.spawn(|| -> Result<Duration, String> {
            let mut decoder = FrameDecoder::new();
            let mut job_of: std::collections::HashMap<u64, usize> = Default::default();
            let mut resolved = 0;
            let mut last_done = Duration::ZERO;
            while resolved < schedule.len() {
                let frame = recv(&mut reader, &mut decoder)?;
                let at = Instant::now().saturating_duration_since(start);
                match frame {
                    Frame::Accept { job } => {
                        let i = next_unanswered(&unanswered)?;
                        job_of.insert(job, i);
                        record(i).accept = Some(at);
                    }
                    Frame::Busy { .. } => {
                        let i = next_unanswered(&unanswered)?;
                        record(i).status = Status::Busy;
                        resolved += 1;
                    }
                    Frame::Gaf { job, data } => {
                        let mut r = record(*job_of.get(&job).ok_or("GAF for unknown job")?);
                        r.first_gaf.get_or_insert(at);
                        r.last_gaf = Some(at);
                        r.gaf.extend_from_slice(&data);
                    }
                    Frame::Done { job, summary } => {
                        let mut r = record(job_of.remove(&job).ok_or("DONE for unknown job")?);
                        r.done = Some(at);
                        r.queue_wait_us = summary.queue_wait_us;
                        r.status = Status::Done;
                        last_done = at;
                        resolved += 1;
                    }
                    Frame::Error { job, .. } => {
                        record(job_of.remove(&job).ok_or("ERR for unknown job")?).status =
                            Status::Error;
                        resolved += 1;
                    }
                    other => return Err(format!("unexpected frame {other:?}")),
                }
            }
            Ok(last_done)
        });
        let sent = sender.join().map_err(|_| "sender panicked".to_string())?;
        let received = receiver
            .join()
            .map_err(|_| "receiver panicked".to_string())?;
        sent?;
        let last_done = received?;
        let first_due = schedule.first().map_or(Duration::ZERO, |a| a.due);
        Ok(last_done.saturating_sub(first_due))
    })
    .map(|span| {
        let jobs = records
            .into_iter()
            .map(|m| m.into_inner().expect("job record lock poisoned by a panic"))
            .collect();
        (jobs, span)
    })
}

fn next_unanswered(queue: &Mutex<VecDeque<usize>>) -> Result<usize, String> {
    queue
        .lock()
        .expect("queue lock poisoned")
        .pop_front()
        .ok_or_else(|| "verdict for a job never sent".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_peak_rss_from_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(vm_hwm_mib(status), Some(2.0));
        assert_eq!(vm_hwm_mib("Name:\tx\n"), None);
    }
}
