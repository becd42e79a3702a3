//! Graceful-drain integration: SIGTERM mid-sweep must park in-flight jobs
//! with their durable shard rows, refuse new admissions with a typed 503,
//! and exit 0 inside the drain budget — and a restart on the same state
//! directory must resume every drained job and finish with a merged CSV
//! **byte-identical** to a single-process `repro sweep`. Zero lost runs.
//!
//! The second test runs the acceptance combo: disk-watermark breach,
//! a scripted worker death, and a slow-loris client all at once, then
//! SIGTERMs the daemon under that load. A chaos gate parks the
//! replacement worker until the breach has surfaced, so the job cannot
//! finish first however fast the host is.

use mbu_bench::{Experiments, Json, ResultStore};
use mbu_cpu::HwComponent;
use mbu_serve::http;
use mbu_workloads::Workload;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod common;
use common::tmpdir;

const WORKLOAD: Workload = Workload::Qsort;

/// Single-process reference bytes for `components` at `runs` injections.
fn reference_for(components: &[HwComponent], runs: usize) -> String {
    let e = Experiments {
        runs,
        workloads: vec![WORKLOAD],
        ..Experiments::default()
    };
    let dir = tmpdir(&format!("ref-{}-{runs}", components.len()));
    let path = dir.join("measured.csv");
    let mut store = ResultStore::new();
    for &c in components {
        let report = e.run_sweep(&[c], &mut store, None).unwrap();
        assert!(report.failed.is_empty(), "reference: {:?}", report.failed);
    }
    store.save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// A running `repro daemon` child with its stderr captured for assertions
/// (typed drain lines in, panics out).
struct Daemon {
    child: Child,
    addr: String,
    stderr: Arc<Mutex<String>>,
}

impl Daemon {
    fn boot(state: &Path, env: &[(&str, &str)]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.arg("daemon")
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--state")
            .arg(state)
            .env_remove("MBU_CHAOS_WORKER")
            .env_remove("MBU_CHAOS_DISK_FILE")
            .env("MBU_WORKLOADS", WORKLOAD.name())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("daemon spawns");
        let pipe = child.stderr.take().expect("stderr piped");
        let mut reader = BufReader::new(pipe);
        let mut line = String::new();
        reader.read_line(&mut line).expect("daemon stderr line");
        let addr = line
            .strip_prefix("mbu-serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected first stderr line: {line:?}"))
            .trim()
            .to_string();
        let log = Arc::new(Mutex::new(String::new()));
        let sink = Arc::clone(&log);
        std::thread::spawn(move || {
            let mut buf = String::new();
            while matches!(reader.read_line(&mut buf), Ok(n) if n > 0) {
                sink.lock().unwrap().push_str(&buf);
                buf.clear();
            }
        });
        Daemon {
            child,
            addr,
            stderr: log,
        }
    }

    /// Sends SIGTERM — the graceful-drain signal, not the SIGKILL that
    /// `Drop` falls back to.
    fn sigterm(&self) {
        let status = Command::new("kill")
            .arg("-TERM")
            .arg(self.child.id().to_string())
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill -TERM failed");
    }

    /// Waits for the child to exit on its own, bounded by `budget`.
    fn wait_exit(&mut self, budget: Duration) -> ExitStatus {
        let deadline = Instant::now() + budget;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not exit within {budget:?} of SIGTERM"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    fn stderr_log(&self) -> String {
        self.stderr.lock().unwrap().clone()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn get_json(addr: &str, path: &str) -> (u16, Json) {
    let (status, body) = http::request(addr, "GET", path, None).unwrap();
    let v = Json::parse(std::str::from_utf8(&body).unwrap())
        .unwrap_or_else(|e| panic!("GET {path}: bad JSON ({e}): {body:?}"));
    (status, v)
}

fn submit(addr: &str, spec: &str) -> String {
    let (status, body) = http::request(addr, "POST", "/sweeps", Some(spec.as_bytes())).unwrap();
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(status, 201, "submit rejected: {v:?}");
    v.get("id").unwrap().as_str().unwrap().to_string()
}

fn wait_terminal(addr: &str, id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let (status, v) = get_json(addr, &format!("/sweeps/{id}"));
        assert_eq!(status, 200, "status poll: {v:?}");
        if v.get("outcome").is_some() {
            return v;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {v:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn state_of(status: &Json) -> String {
    status.get("state").unwrap().as_str().unwrap().to_string()
}

/// Collects the job's full event stream (replay from seq 0 to terminal).
fn events_of(addr: &str, id: &str) -> String {
    let mut chunks = Vec::new();
    let status = http::request_stream(addr, "GET", &format!("/sweeps/{id}/events?from=0"), |c| {
        chunks.push(String::from_utf8(c.to_vec()).unwrap());
        true
    })
    .unwrap();
    assert_eq!(status, 200);
    chunks.concat()
}

/// Blocks until the job has at least one durably completed unit.
fn wait_first_unit(addr: &str, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, v) = get_json(addr, &format!("/sweeps/{id}"));
        let done = v
            .get("progress")
            .and_then(|p| p.get("done"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if done >= 1 {
            return;
        }
        assert!(Instant::now() < deadline, "no unit ever completed: {v:?}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Blocks until `/healthz` reports `draining: true` (the SIGTERM watcher
/// tick is 50 ms; the drain itself waits for a parked in-flight unit).
fn wait_draining(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, v) = get_json(addr, "/healthz");
        assert_eq!(status, 200);
        if v.get("draining") == Some(&Json::Bool(true)) {
            return;
        }
        assert!(Instant::now() < deadline, "daemon never reported draining");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// SIGTERM mid-sweep: admission turns into typed 503s, the in-flight unit
/// persists, the daemon exits 0 inside the drain budget, and a restart
/// resumes the parked job to a byte-identical merged CSV.
#[test]
fn sigterm_drains_parks_and_restart_finishes_byte_identical() {
    const COMPONENTS: [HwComponent; 2] = [HwComponent::L1D, HwComponent::RegFile];
    let dir = tmpdir("drain");
    let env = [
        ("MBU_HTTP_MAX_JOBS", "1"),
        ("MBU_WORKERS", "1"),
        ("MBU_RUNS", "6"),
        ("MBU_DRAIN_TIMEOUT_SECS", "120"),
    ];
    // The worker parks after its first acknowledged unit until the gate
    // opens, holding its next unit in flight: the drain cannot finish
    // (and the daemon cannot exit) before the test has observed it.
    let gate = dir.join("release-worker-0");
    let park = format!("0:park-after-unit:1:{}", gate.display());
    let mut gated = env.to_vec();
    gated.push(("MBU_CHAOS_WORKER", park.as_str()));
    let mut daemon = Daemon::boot(&dir, &gated);
    let id = submit(&daemon.addr, r#"{"components":["l1d","regfile"],"runs":6}"#);
    wait_first_unit(&daemon.addr, &id);

    daemon.sigterm();
    wait_draining(&daemon.addr);

    // Admission is closed with a typed 503 naming the drain, not a hang
    // or a dropped connection.
    let (status, body) =
        http::request(&daemon.addr, "POST", "/sweeps", Some(br#"{"runs":6}"#)).unwrap();
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let msg = v.get("error").unwrap().as_str().unwrap();
    assert!(msg.contains("draining"), "503 must name the drain: {msg}");

    // Clean exit inside the budget, with the typed drain lines logged.
    std::fs::write(&gate, "").unwrap();
    let status = daemon.wait_exit(Duration::from_secs(120));
    assert_eq!(status.code(), Some(0), "drain must exit 0: {status:?}");
    let log = daemon.stderr_log();
    assert!(
        log.contains("term signal received") && log.contains("drain complete"),
        "drain must be narrated in stderr:\n{log}"
    );
    assert!(!log.contains("panic"), "no panics in daemon stderr:\n{log}");
    drop(daemon);

    // Restart on the same state: the parked job is re-queued, resumes from
    // its shards, and finishes with single-process bytes — zero lost runs.
    let daemon = Daemon::boot(&dir, &env);
    let final_status = wait_terminal(&daemon.addr, &id);
    assert_eq!(state_of(&final_status), "done", "{final_status:?}");
    // The event ring is in-memory (the `drained` event died with the old
    // process — jobs.rs unit tests cover it); the durable drain record is
    // the absence of an outcome, which the restart must read as "resume".
    let events = events_of(&daemon.addr, &id);
    assert!(
        events.contains("\"kind\":\"resumed\""),
        "restart must log the re-queue: {events}"
    );
    let (code, csv) =
        http::request(&daemon.addr, "GET", &format!("/sweeps/{id}/store"), None).unwrap();
    assert_eq!(code, 200);
    assert_eq!(
        String::from_utf8(csv).unwrap(),
        reference_for(&COMPONENTS, 6),
        "drained-and-resumed store differs from the single-process sweep"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance combo: a breached disk watermark (faked free-space
/// probe), a scripted worker death, and a slow-loris client — all live
/// when the SIGTERM lands. The daemon still drains inside the budget,
/// and the restart (chaos lifted) finishes byte-identically.
#[test]
fn drain_under_combined_chaos_loses_nothing() {
    const COMPONENTS: [HwComponent; 1] = [HwComponent::L1D];
    let dir = tmpdir("combo");
    let disk_file = dir.join("fake-free-mb");
    std::fs::write(&disk_file, "100000").unwrap();
    let disk_file_str = disk_file.to_str().unwrap().to_string();
    let gate = dir.join("release-worker-1");
    let worker_chaos = format!(
        "0:die-after-persist:1,1:park-after-unit:1:{}",
        gate.display()
    );
    let chaos_env = [
        ("MBU_HTTP_MAX_JOBS", "1"),
        ("MBU_WORKERS", "1"),
        ("MBU_RUNS", "6"),
        ("MBU_DRAIN_TIMEOUT_SECS", "120"),
        ("MBU_HTTP_TIMEOUT_SECS", "3"),
        ("MBU_DISK_WATERMARK_MB", "500"),
        ("MBU_CHAOS_DISK_FILE", disk_file_str.as_str()),
        // Worker 0 dies after persisting one unit without acking it; its
        // replacement (worker 1) re-runs the unit, acks it, and parks
        // until the gate opens — so the job is provably still in flight
        // when the watermark breach lands, on any host speed.
        ("MBU_CHAOS_WORKER", worker_chaos.as_str()),
    ];
    let mut daemon = Daemon::boot(&dir, &chaos_env);
    let id = submit(&daemon.addr, r#"{"components":["l1d"],"runs":6}"#);
    wait_first_unit(&daemon.addr, &id);

    // Breach the watermark: the governor must pause dispatch with a typed
    // disk-pressure narration instead of running into ENOSPC. (The event
    // stream blocks until the job is terminal, so watch stderr instead.)
    std::fs::write(&disk_file, "100").unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if daemon.stderr_log().contains("disk pressure") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watermark breach never surfaced as typed disk pressure: {}",
            daemon.stderr_log()
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    // Dispatch is paused now; release the parked worker so the drain has
    // nothing held back.
    std::fs::write(&gate, "").unwrap();

    // A slow-loris holds a socket open across the drain.
    let mut loris = std::net::TcpStream::connect(&daemon.addr).unwrap();
    std::io::Write::write_all(&mut loris, b"GET /healthz HT").unwrap();

    daemon.sigterm();
    let status = daemon.wait_exit(Duration::from_secs(120));
    assert_eq!(
        status.code(),
        Some(0),
        "drain under chaos must still exit 0: {status:?}"
    );
    let log = daemon.stderr_log();
    assert!(!log.contains("panic"), "no panics in daemon stderr:\n{log}");
    drop(daemon);
    drop(loris);

    // Restart with the chaos lifted: the drained job resumes and its
    // store is byte-identical to an undisturbed single-process sweep.
    let clean_env = [
        ("MBU_HTTP_MAX_JOBS", "1"),
        ("MBU_WORKERS", "1"),
        ("MBU_RUNS", "6"),
    ];
    let daemon = Daemon::boot(&dir, &clean_env);
    let final_status = wait_terminal(&daemon.addr, &id);
    assert_eq!(state_of(&final_status), "done", "{final_status:?}");
    let events = events_of(&daemon.addr, &id);
    assert!(
        events.contains("\"kind\":\"resumed\""),
        "restart must log the re-queue: {events}"
    );
    let (code, csv) =
        http::request(&daemon.addr, "GET", &format!("/sweeps/{id}/store"), None).unwrap();
    assert_eq!(code, 200);
    assert_eq!(
        String::from_utf8(csv).unwrap(),
        reference_for(&COMPONENTS, 6),
        "chaos-drained store differs from the single-process sweep"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
