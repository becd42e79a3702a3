//! Chaos-proofing the HTTP plane: every scripted client fault in
//! [`mbu_bench::chaos::HttpFault`] must get a typed 4xx/timeout reply or
//! a clean close — never a wedged acceptor, a leaked connection slot, or
//! corrupted job state. Driven both in-process ([`HttpFault::fire`]) and
//! through the `repro chaos-http` CLI verb the CI scenario uses.

use mbu_bench::chaos::{HttpFault, HttpFaultOutcome};
use mbu_bench::{Experiments, Json, ResultStore};
use mbu_cpu::HwComponent;
use mbu_serve::http;
use mbu_workloads::Workload;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

mod common;
use common::tmpdir;

const WORKLOAD: Workload = Workload::Qsort;

struct Daemon {
    child: Child,
    addr: String,
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
        let stderr = child.stderr.take().expect("stderr piped");
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        reader.read_line(&mut line).expect("daemon stderr line");
        let addr = line
            .strip_prefix("mbu-serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected first stderr line: {line:?}"))
            .trim()
            .to_string();
        std::thread::spawn(move || {
            let mut sink = String::new();
            let _ = reader.read_to_string(&mut sink);
        });
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn healthz_ok(addr: &str) {
    let (status, body) = http::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v:?}");
}

/// Every fault in the family gets its typed reply, and the acceptor
/// serves a healthy `/healthz` and a correct full sweep afterwards — the
/// faults leave no wedge and no corrupted job state.
#[test]
fn every_http_fault_yields_a_typed_reply_and_no_wedge() {
    let dir = tmpdir("faults");
    let daemon = Daemon::boot(
        &dir,
        &[
            ("MBU_HTTP_TIMEOUT_SECS", "2"),
            ("MBU_WORKERS", "1"),
            ("MBU_RUNS", "6"),
        ],
    );
    let patience = Duration::from_secs(7);
    for fault in HttpFault::all() {
        let outcome = fault
            .fire(&daemon.addr, patience)
            .unwrap_or_else(|e| panic!("{}: acceptor wedged or died: {e}", fault.kind()));
        let expected = match fault {
            HttpFault::SlowLoris => HttpFaultOutcome::Status(408),
            HttpFault::TornBody => HttpFaultOutcome::Status(400),
            HttpFault::MidStreamDisconnect => HttpFaultOutcome::Closed,
            HttpFault::HeaderFlood => HttpFaultOutcome::Status(431),
        };
        assert_eq!(outcome, expected, "{} got the wrong reply", fault.kind());
        // The fault must not have consumed the acceptor or a slot.
        healthz_ok(&daemon.addr);
    }

    // Job state survives the barrage: a real sweep still runs to a store
    // byte-identical to the single-process reference.
    let (status, body) = http::request(
        &daemon.addr,
        "POST",
        "/sweeps",
        Some(br#"{"components":["l1d"],"runs":6}"#),
    )
    .unwrap();
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    let id = Json::parse(std::str::from_utf8(&body).unwrap())
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let (_, body) = http::request(&daemon.addr, "GET", &format!("/sweeps/{id}"), None).unwrap();
        let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        if v.get("outcome").is_some() {
            assert_eq!(v.get("state").unwrap().as_str().unwrap(), "done", "{v:?}");
            break;
        }
        assert!(Instant::now() < deadline, "post-chaos sweep never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
    let (code, csv) =
        http::request(&daemon.addr, "GET", &format!("/sweeps/{id}/store"), None).unwrap();
    assert_eq!(code, 200);
    let e = Experiments {
        runs: 6,
        workloads: vec![WORKLOAD],
        ..Experiments::default()
    };
    let mut store = ResultStore::new();
    e.run_sweep(&[HwComponent::L1D], &mut store, None).unwrap();
    let ref_path = dir.join("reference.csv");
    store.save(&ref_path).unwrap();
    assert_eq!(
        String::from_utf8(csv).unwrap(),
        std::fs::read_to_string(&ref_path).unwrap(),
        "post-chaos store differs from the single-process sweep"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The connection cap load-sheds with a 503 while a slot is held, and the
/// slot is reclaimed once the holder leaves (or times out) — no leak.
#[test]
fn connection_cap_sheds_and_recovers_end_to_end() {
    let dir = tmpdir("cap");
    let daemon = Daemon::boot(
        &dir,
        &[("MBU_HTTP_CONN_MAX", "1"), ("MBU_HTTP_TIMEOUT_SECS", "2")],
    );
    // Hold the single slot with a half-sent request.
    let mut holder = std::net::TcpStream::connect(&daemon.addr).unwrap();
    std::io::Write::write_all(&mut holder, b"GET /healthz HT").unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let (status, body) = http::request(&daemon.addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(v.get("error").is_some(), "{v:?}");

    // Release the slot; within the 2 s loris budget the daemon recovers.
    drop(holder);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _) = http::request(&daemon.addr, "GET", "/healthz", None).unwrap();
        if status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "connection slot never reclaimed");
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `repro chaos-http` CLI verb — the CI scenario's driver — fires the
/// whole fault family at a live daemon and exits 0 with its verdict.
#[test]
fn chaos_http_cli_verb_passes_against_live_daemon() {
    let dir = tmpdir("cli");
    let daemon = Daemon::boot(&dir, &[("MBU_HTTP_TIMEOUT_SECS", "2")]);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("chaos-http")
        .arg("--to")
        .arg(&daemon.addr)
        .env_remove("MBU_CHAOS_HTTP")
        .env("MBU_HTTP_TIMEOUT_SECS", "2")
        .output()
        .expect("chaos-http runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "chaos-http failed:\n{stderr}");
    assert!(
        stderr.contains("chaos-http: every fault answered typed"),
        "missing verdict line:\n{stderr}"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
