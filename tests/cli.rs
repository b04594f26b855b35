//! End-to-end tests of the `minigiraffe` command-line application: the
//! complete toolchain generate → parent → map → validate, driven through
//! the real binary.

use std::path::PathBuf;
use std::process::Command;

fn binary() -> PathBuf {
    // Integration tests live next to the binary under target/<profile>/.
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop();
    if path.ends_with("deps") {
        path.pop();
    }
    path.join("minigiraffe")
}

fn run(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(binary())
        .args(args)
        .output()
        .expect("spawn minigiraffe");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mg-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn full_toolchain_generate_parent_map_validate() {
    let dir = TempDir::new("chain");
    // generate
    let (ok, stdout, stderr) = run(&[
        "generate", "--input-set", "tiny", "--seed", "9", "--out", &dir.path(""),
    ]);
    assert!(ok, "generate failed: {stderr}");
    assert!(stdout.contains("tiny.mgz"));
    assert!(stdout.contains("tiny.fastq"));

    // info on both artifacts
    let (ok, stdout, _) = run(&["info", &dir.path("tiny.mgz")]);
    assert!(ok);
    assert!(stdout.contains("haplotypes:   4"));
    let (ok, stdout, _) = run(&["info", &dir.path("tiny.bin")]);
    assert!(ok);
    assert!(stdout.contains("reads:        40"));

    // parent: FASTQ -> GAF + exported dump
    let (ok, stdout, stderr) = run(&[
        "parent",
        &dir.path("tiny.fastq"),
        &dir.path("tiny.mgz"),
        "--gaf",
        &dir.path("out.gaf"),
        "--dump",
        &dir.path("exported.bin"),
    ]);
    assert!(ok, "parent failed: {stderr}");
    assert!(stdout.contains("aligned 40/40"), "{stdout}");
    let gaf = std::fs::read_to_string(dir.path("out.gaf")).unwrap();
    assert!(gaf.lines().count() >= 40);
    assert!(gaf.contains("AS:i:"));

    // proxy map on the exported dump, writing results
    let (ok, stdout, stderr) = run(&[
        "map",
        &dir.path("exported.bin"),
        &dir.path("tiny.mgz"),
        "--threads",
        "2",
        "--out",
        &dir.path("results.csv"),
    ]);
    assert!(ok, "map failed: {stderr}");
    assert!(stdout.contains("mapped 100.00%"), "{stdout}");

    // validate against its own output: exact match, exit 0
    let (ok, stdout, _) = run(&[
        "validate",
        &dir.path("exported.bin"),
        &dir.path("tiny.mgz"),
        &dir.path("results.csv"),
    ]);
    assert!(ok);
    assert!(stdout.contains("PASS: 100% match"));

    // validate with a different scheduler still matches (results are
    // parameter-invariant)
    let (ok, stdout, _) = run(&[
        "validate",
        &dir.path("exported.bin"),
        &dir.path("tiny.mgz"),
        &dir.path("results.csv"),
        "--scheduler",
        "ws",
        "--threads",
        "3",
        "--capacity",
        "0",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("PASS"));
}

#[test]
fn validate_detects_tampered_expectations() {
    let dir = TempDir::new("tamper");
    let (ok, _, _) = run(&[
        "generate", "--input-set", "tiny", "--out", &dir.path(""),
    ]);
    assert!(ok);
    let (ok, _, _) = run(&[
        "map",
        &dir.path("tiny.bin"),
        &dir.path("tiny.mgz"),
        "--out",
        &dir.path("results.csv"),
    ]);
    assert!(ok);
    // Tamper with one expected row's score.
    let csv = std::fs::read_to_string(dir.path("results.csv")).unwrap();
    let mut lines: Vec<String> = csv.lines().map(String::from).collect();
    let last = lines.last_mut().unwrap();
    *last = last.rsplit_once(',').map(|(head, _)| format!("{head},999")).unwrap();
    std::fs::write(dir.path("tampered.csv"), lines.join("\n") + "\n").unwrap();
    let (ok, stdout, stderr) = run(&[
        "validate",
        &dir.path("tiny.bin"),
        &dir.path("tiny.mgz"),
        &dir.path("tampered.csv"),
    ]);
    assert!(!ok, "tampered expectations must fail validation");
    assert!(stdout.contains("missing 1, extra 1") || stderr.contains("differ"), "{stdout}{stderr}");
}

#[test]
fn bad_usage_fails_cleanly() {
    // Unknown subcommand.
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
    // Missing required positional.
    let (ok, _, stderr) = run(&["map", "/nonexistent.bin"]);
    assert!(!ok);
    assert!(stderr.contains("expected"));
    // Bad flag value.
    let dir = TempDir::new("badflag");
    let (genok, _, _) = run(&["generate", "--input-set", "tiny", "--out", &dir.path("")]);
    assert!(genok);
    let (ok, _, stderr) = run(&[
        "map", &dir.path("tiny.bin"), &dir.path("tiny.mgz"), "--threads", "lots",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--threads"));
    // Nonexistent input file.
    let (ok, _, stderr) = run(&["info", "/nonexistent.mgz"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
    // Help exits zero.
    let (ok, stdout, _) = run(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

/// The real CLI server over TCP: the `serving … on ADDR` banner names a
/// reachable address, a served job's GAF is byte-identical to
/// `minigiraffe parent` on the same reads, and SHUTDOWN exits 0.
#[test]
fn serve_matches_parent_over_tcp_and_exits_on_shutdown() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    use minigiraffe::server::{BlockingClient, Conn, JobOutcome};

    let dir = TempDir::new("serve");
    let (ok, _, stderr) =
        run(&["generate", "--input-set", "tiny", "--seed", "9", "--out", &dir.path("")]);
    assert!(ok, "generate failed: {stderr}");
    let (ok, _, stderr) = run(&[
        "parent",
        &dir.path("tiny.fastq"),
        &dir.path("tiny.mgz"),
        "--gaf",
        &dir.path("parent.gaf"),
    ]);
    assert!(ok, "parent failed: {stderr}");
    let expected = std::fs::read(dir.path("parent.gaf")).unwrap();

    let mut child = Command::new(binary())
        .args(["serve", &dir.path("tiny.mgz"), "--port", "0", "--threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn minigiraffe serve");
    // Kills the server if an assertion below fails before it exits.
    struct Reap(std::process::Child);
    impl Drop for Reap {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    // Drain stderr on a thread so the server never blocks on a full pipe;
    // hand over the banner line.
    let stderr = child.stderr.take().unwrap();
    let mut child = Reap(child);
    let (banner_tx, banner_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if line.starts_with("serving ") {
                let _ = banner_tx.send(line);
            }
        }
    });
    let banner = banner_rx.recv_timeout(Duration::from_secs(30)).expect("serving banner");
    let addr = banner
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"));

    let stream = std::net::TcpStream::connect(addr).expect("connect to served address");
    let mut client = BlockingClient::new(Conn::tcp(stream).expect("conn"));
    client.ping().expect("PONG");
    let fastq = std::fs::read(dir.path("tiny.fastq")).unwrap();
    match client.run_job("read", &fastq).expect("job") {
        JobOutcome::Done { gaf, .. } => {
            assert!(gaf == expected, "served GAF differs from `minigiraffe parent`")
        }
        JobOutcome::Failed { message } => panic!("job failed: {message}"),
    }
    client.shutdown().expect("SHUTDOWN");

    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.0.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "server still running 5 s after SHUTDOWN");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "server exited with {status}");
}
