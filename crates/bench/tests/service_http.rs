//! Drives the `repro daemon` HTTP service over a real socket, end to end.
//!
//! The service-mode invariant mirrors the fabric one, one level up:
//!
//! > A sweep submitted over HTTP finishes with a stored CSV
//! > **byte-identical** to a single-process `repro sweep`, streams its
//! > progress live, and survives cancellation and daemon SIGKILL with a
//! > resumable shard directory — errors are structured JSON, never
//! > connection drops.

use mbu_bench::{Experiments, ResultStore};
use mbu_cpu::HwComponent;
use mbu_serve::http;
use mbu_workloads::Workload;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mbu_bench::Json;

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

/// A running `repro daemon` child bound to an ephemeral port.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Boots the daemon on `127.0.0.1:0`, parses the bound address from
    /// its first stderr line, and drains the rest of stderr on a thread.
    fn boot(state: &Path, env: &[(&str, &str)]) -> Daemon {
        let mut child = daemon_cmd(state, env).spawn().expect("daemon spawns");
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

fn daemon_cmd(state: &Path, env: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("daemon")
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--state")
        .arg(state)
        .env_remove("MBU_CHAOS_WORKER")
        .env_remove("MBU_HTTP_MAX_JOBS")
        .env_remove("MBU_HTTP_QUEUE")
        .env("MBU_WORKLOADS", WORKLOAD.name())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd
}

fn get_json(addr: &str, path: &str) -> (u16, Json) {
    let (status, body) = http::request(addr, "GET", path, None).unwrap();
    let v = Json::parse(std::str::from_utf8(&body).unwrap())
        .unwrap_or_else(|e| panic!("GET {path}: bad JSON ({e}): {body:?}"));
    (status, v)
}

/// Submits `spec` and returns the assigned job id.
fn submit(addr: &str, spec: &str) -> String {
    let (status, body) = http::request(addr, "POST", "/sweeps", Some(spec.as_bytes())).unwrap();
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(status, 201, "submit rejected: {v:?}");
    v.get("id").unwrap().as_str().unwrap().to_string()
}

/// Polls `/sweeps/{id}` until the job reaches a terminal state (an
/// `outcome` appears), returning the final status document.
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

/// Two sweeps submitted back to back run concurrently on the shared
/// worker budget, stream typed progress events, and each serves a stored
/// CSV byte-identical to its single-process reference.
#[test]
fn concurrent_http_sweeps_match_single_process_references() {
    let dir = tmpdir("concurrent");
    let daemon = Daemon::boot(
        &dir,
        &[
            ("MBU_HTTP_MAX_JOBS", "2"),
            ("MBU_WORKERS", "2"),
            ("MBU_RUNS", "6"),
        ],
    );
    let a = submit(&daemon.addr, r#"{"components":["l1d"],"runs":6}"#);
    let b = submit(&daemon.addr, r#"{"components":["regfile"],"runs":6}"#);
    assert_ne!(a, b);

    for (id, component) in [(&a, HwComponent::L1D), (&b, HwComponent::RegFile)] {
        let status = wait_terminal(&daemon.addr, id);
        assert_eq!(state_of(&status), "done", "job {id}: {status:?}");
        let (code, csv) =
            http::request(&daemon.addr, "GET", &format!("/sweeps/{id}/store"), None).unwrap();
        assert_eq!(code, 200);
        let want = reference_for(&[component], 6);
        assert_eq!(
            String::from_utf8(csv).unwrap(),
            want,
            "job {id} store differs from the single-process sweep"
        );

        // Live progress surfaced as typed events, replayable after the fact.
        let events = events_of(&daemon.addr, id);
        for kind in ["submitted", "state", "unit-done", "merged"] {
            assert!(
                events.contains(&format!("\"kind\":\"{kind}\"")),
                "job {id} events missing {kind}: {events}"
            );
        }

        // Figures and summary come straight off the merged store.
        let (code, results) = get_json(&daemon.addr, &format!("/sweeps/{id}/results"));
        assert_eq!(code, 200);
        assert!(results.get("figures").is_some(), "{results:?}");
    }

    // Figure numbers use the paper's component order: 1 = L1D, 4 = regfile.
    let (code, _) =
        http::request(&daemon.addr, "GET", &format!("/sweeps/{a}/figures/1"), None).unwrap();
    assert_eq!(code, 200);
    let (code, body) = http::request(
        &daemon.addr,
        "GET",
        &format!("/sweeps/{b}/figures/4?format=csv"),
        None,
    )
    .unwrap();
    assert_eq!(code, 200);
    assert!(!body.is_empty());

    let (code, list) = get_json(&daemon.addr, "/sweeps");
    assert_eq!(code, 200);
    let text = list.encode();
    assert!(text.contains(&a) && text.contains(&b), "{text}");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every rejection is a structured JSON error with the right status code:
/// malformed specs are 400s naming the offending knob, a full queue is a
/// 429, artifacts of unfinished jobs are 409s, and a bad `MBU_HTTP_*`
/// value fails daemon startup with a typed `ConfigError` naming the var.
#[test]
fn structured_errors_queue_limits_and_typed_env_knobs() {
    let dir = tmpdir("errors");
    let daemon = Daemon::boot(
        &dir,
        &[
            ("MBU_HTTP_MAX_JOBS", "1"),
            ("MBU_HTTP_QUEUE", "1"),
            ("MBU_WORKERS", "1"),
            ("MBU_RUNS", "6"),
        ],
    );
    let bad = [
        (&b"not json"[..], 400, "invalid JSON"),
        (&b"[1,2]"[..], 400, "object"),
        (&br#"{"bogus":1}"#[..], 400, "bogus"),
        (&br#"{"runs":0}"#[..], 400, "runs"),
        (&br#"{"cardinality":9}"#[..], 400, "cardinality"),
        (&br#"{"components":["warp-core"]}"#[..], 400, "warp-core"),
    ];
    for (body, want_status, needle) in bad {
        let (status, reply) = http::request(&daemon.addr, "POST", "/sweeps", Some(body)).unwrap();
        let text = String::from_utf8(reply).unwrap();
        assert_eq!(status, want_status, "{text}");
        let v = Json::parse(&text).expect("error body is JSON");
        let msg = v.get("error").unwrap().as_str().unwrap();
        assert!(
            msg.contains(needle),
            "error {msg:?} does not name {needle:?}"
        );
    }

    // One slot, one queue seat: the third submission is a 429.
    let slow = r#"{"runs":40}"#;
    let running = submit(&daemon.addr, slow);
    let queued = submit(&daemon.addr, slow);
    let (status, reply) =
        http::request(&daemon.addr, "POST", "/sweeps", Some(slow.as_bytes())).unwrap();
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&reply));

    // Artifacts of a live job are a 409, not a partial read.
    let (status, _) = http::request(
        &daemon.addr,
        "GET",
        &format!("/sweeps/{running}/store"),
        None,
    )
    .unwrap();
    assert_eq!(status, 409);

    // Cancel the queued job (immediate) and the running one (drains).
    for id in [&queued, &running] {
        let (status, _) =
            http::request(&daemon.addr, "POST", &format!("/sweeps/{id}/cancel"), None).unwrap();
        assert_eq!(status, 202);
        let final_status = wait_terminal(&daemon.addr, id);
        assert_eq!(state_of(&final_status), "cancelled");
    }
    let (status, _) = http::request(
        &daemon.addr,
        "POST",
        &format!("/sweeps/{queued}/cancel"),
        None,
    )
    .unwrap();
    assert_eq!(status, 409, "cancelling a terminal job must conflict");
    let (status, _) = http::request(&daemon.addr, "POST", "/sweeps/j9999/cancel", None).unwrap();
    assert_eq!(status, 404);
    drop(daemon);

    // A malformed env knob fails startup with the var named, not a panic.
    let out = daemon_cmd(&dir, &[("MBU_HTTP_MAX_JOBS", "banana")])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("MBU_HTTP_MAX_JOBS"),
        "startup error must name the bad var:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancelling mid-sweep drains in-flight units and leaves the job's shard
/// directory resumable: a follow-up `repro sweep` over the same state
/// skips the durable coverage and completes byte-identically.
#[test]
fn cancellation_leaves_resumable_shards() {
    const COMPONENTS: [HwComponent; 3] = [HwComponent::L1D, HwComponent::L1I, HwComponent::L2];
    let dir = tmpdir("cancel");
    let daemon = Daemon::boot(&dir, &[("MBU_WORKERS", "1"), ("MBU_RUNS", "10")]);
    let id = submit(
        &daemon.addr,
        r#"{"components":["l1d","l1i","l2"],"runs":10}"#,
    );

    // Wait for real progress (at least one unit durable) before cancelling.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, v) = get_json(&daemon.addr, &format!("/sweeps/{id}"));
        let done = v
            .get("progress")
            .and_then(|p| p.get("done"))
            .and_then(mbu_bench::Json::as_u64)
            .unwrap_or(0);
        if done >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no unit ever completed: {v:?}");
        std::thread::sleep(Duration::from_millis(25));
    }
    let (status, _) =
        http::request(&daemon.addr, "POST", &format!("/sweeps/{id}/cancel"), None).unwrap();
    assert_eq!(status, 202);
    let final_status = wait_terminal(&daemon.addr, &id);
    assert_eq!(state_of(&final_status), "cancelled", "{final_status:?}");
    drop(daemon);

    // The job directory is a valid resume point: partial merged CSV plus
    // durable shards. `repro sweep` over it completes the sweep, skipping
    // what the cancelled run already banked.
    let job_dir = dir.join("jobs").join(&id);
    let shard_dir = job_dir.join("shards");
    assert!(shard_dir.is_dir(), "cancelled job must keep its shards");
    let out_csv = job_dir.join("measured.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", "--workers", "2", "--components", "l1d,l1i,l2"])
        .arg("--shards")
        .arg(&shard_dir)
        .arg("--out")
        .arg(&out_csv)
        .env("MBU_RUNS", "10")
        .env("MBU_WORKLOADS", WORKLOAD.name())
        .env_remove("MBU_CHAOS_WORKER")
        .env_remove("MBU_CHAOS_DISK_FILE")
        .output()
        .expect("resume sweep spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "resume must complete:\n{stderr}");
    let resumed: usize = stderr
        .lines()
        .find_map(|l| l.strip_prefix("fabric: resumed — "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    assert!(
        resumed >= 1,
        "resume must skip the coverage the cancelled run banked:\n{stderr}"
    );
    assert_eq!(
        std::fs::read_to_string(&out_csv).unwrap(),
        reference_for(&COMPONENTS, 10),
        "resumed store differs from the single-process sweep"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILLing the daemon mid-job and restarting it on the same state
/// directory re-adopts finished jobs (results still served) and re-queues
/// the interrupted one, which resumes from its shards and finishes with
/// reference-identical bytes.
#[test]
fn daemon_restart_resumes_interrupted_jobs() {
    const COMPONENTS: [HwComponent; 3] = [HwComponent::L1D, HwComponent::L1I, HwComponent::L2];
    let dir = tmpdir("restart");
    let env = [
        ("MBU_HTTP_MAX_JOBS", "1"),
        ("MBU_WORKERS", "1"),
        ("MBU_RUNS", "10"),
    ];
    let daemon = Daemon::boot(&dir, &env);

    // A fast job that finishes before the crash.
    let finished = submit(&daemon.addr, r#"{"components":["regfile"],"runs":6}"#);
    let status = wait_terminal(&daemon.addr, &finished);
    assert_eq!(state_of(&status), "done");

    // A slow job we SIGKILL the daemon under, once its shards are real.
    let interrupted = submit(
        &daemon.addr,
        r#"{"components":["l1d","l1i","l2"],"runs":10}"#,
    );
    let shard_dir = dir.join("jobs").join(&interrupted).join("shards");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let nonempty = std::fs::read_dir(&shard_dir)
            .map(|entries| {
                entries
                    .flatten()
                    .any(|f| f.metadata().map(|m| m.len() > 0).unwrap_or(false))
            })
            .unwrap_or(false);
        if nonempty {
            break;
        }
        assert!(Instant::now() < deadline, "no shard rows ever appeared");
        std::thread::sleep(Duration::from_millis(25));
    }
    drop(daemon); // SIGKILL; the sweep dies with durable shards on disk.

    let daemon = Daemon::boot(&dir, &env);
    // The finished job survived the restart, outcome and all.
    let status = wait_terminal(&daemon.addr, &finished);
    assert_eq!(state_of(&status), "done");
    let (code, csv) = http::request(
        &daemon.addr,
        "GET",
        &format!("/sweeps/{finished}/store"),
        None,
    )
    .unwrap();
    assert_eq!(code, 200);
    assert_eq!(
        String::from_utf8(csv).unwrap(),
        reference_for(&[HwComponent::RegFile], 6)
    );

    // The interrupted job was re-queued, resumed from its shards, and
    // finished with the same bytes a single process would have produced.
    let status = wait_terminal(&daemon.addr, &interrupted);
    assert_eq!(state_of(&status), "done", "{status:?}");
    let events = events_of(&daemon.addr, &interrupted);
    assert!(
        events.contains("\"kind\":\"resumed\""),
        "restart must log the re-queue: {events}"
    );
    let (code, csv) = http::request(
        &daemon.addr,
        "GET",
        &format!("/sweeps/{interrupted}/store"),
        None,
    )
    .unwrap();
    assert_eq!(code, 200);
    assert_eq!(
        String::from_utf8(csv).unwrap(),
        reference_for(&COMPONENTS, 10),
        "resumed job store differs from the single-process sweep"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
