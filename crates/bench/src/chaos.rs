//! Chaos harness for the injector's *own* infrastructure.
//!
//! The paper's methodology stands on the campaign engine being more
//! reliable than the hardware it models. This module turns the fault
//! injector on itself: [`ChaosIo`] wraps a [`StoreIo`] and injects
//! filesystem failures (rejected appends, torn writes, stalls) at
//! scripted call indices, and the file-corruption helpers flip bits and
//! truncate checkpoints at rest. The integration tests in
//! `tests/chaos.rs` use these to assert the sweep-level invariant:
//!
//! > Every sweep either completes with results **bit-identical** to an
//! > unfaulted sweep, or fails with a **typed error** — and a subsequent
//! > resume reproduces the unfaulted results exactly.
//!
//! Nothing here is test-only cfg'd: the harness is part of the public
//! surface so downstream users can chaos-test their own campaign drivers.

use crate::io::StoreIo;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which append calls misbehave, by 0-based call index. A retried append
/// is a *new* call index, so transient-failure plans compose naturally
/// with [`crate::io::RetryIo`].
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Appends that fail outright (no bytes written).
    pub fail_appends: BTreeSet<usize>,
    /// One append that tears: only the first `keep_bytes` bytes reach the
    /// file, then the call reports failure — a crash mid-write.
    pub torn_append: Option<(usize, usize)>,
    /// From this call index on, *every* append fails (a persistently dead
    /// disk, not a transient hiccup).
    pub fail_appends_from: Option<usize>,
    /// Sleep this long before every append (a stalled NFS mount).
    pub stall: Option<Duration>,
}

impl ChaosPlan {
    /// No chaos at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fail exactly the given append call indices.
    pub fn failing(indices: impl IntoIterator<Item = usize>) -> Self {
        Self {
            fail_appends: indices.into_iter().collect(),
            ..Self::default()
        }
    }

    fn should_fail(&self, index: usize) -> bool {
        if self.fail_appends.contains(&index) {
            return true;
        }
        matches!(self.fail_appends_from, Some(from) if index >= from)
    }
}

/// A [`StoreIo`] that injects scripted failures into append calls while
/// delegating everything else to the wrapped I/O. Reads and atomic writes
/// stay healthy: the interesting crash surface of a checkpointed sweep is
/// the incremental append path.
pub struct ChaosIo<'a> {
    inner: &'a dyn StoreIo,
    appends: AtomicUsize,
    plan: Mutex<ChaosPlan>,
}

impl<'a> ChaosIo<'a> {
    /// Wraps `inner` with a failure plan.
    pub fn new(inner: &'a dyn StoreIo, plan: ChaosPlan) -> Self {
        Self {
            inner,
            appends: AtomicUsize::new(0),
            plan: Mutex::new(plan),
        }
    }

    /// How many append calls have been attempted so far.
    pub fn append_calls(&self) -> usize {
        self.appends.load(Ordering::Relaxed)
    }

    /// Replaces the failure plan mid-flight (e.g. heal the disk after a
    /// crash has been provoked).
    pub fn set_plan(&self, plan: ChaosPlan) {
        *self.plan.lock().unwrap_or_else(|e| e.into_inner()) = plan;
    }

    fn plan_snapshot(&self) -> ChaosPlan {
        self.plan.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl StoreIo for ChaosIo<'_> {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.inner.read_to_string(path)
    }

    fn read_head(&self, path: &Path, max_bytes: usize) -> io::Result<String> {
        self.inner.read_head(path, max_bytes)
    }

    fn append(&self, path: &Path, text: &str) -> io::Result<()> {
        let index = self.appends.fetch_add(1, Ordering::Relaxed);
        let plan = self.plan_snapshot();
        if let Some(stall) = plan.stall {
            std::thread::sleep(stall);
        }
        if let Some((torn_index, keep_bytes)) = plan.torn_append {
            if index == torn_index {
                let keep = keep_bytes.min(text.len());
                // Write the prefix through the healthy inner I/O, then
                // report failure: the caller sees an error, the file holds
                // a torn row.
                self.inner.append(path, &text[..keep])?;
                return Err(io::Error::other(format!(
                    "chaos: append {index} torn after {keep} bytes"
                )));
            }
        }
        if plan.should_fail(index) {
            return Err(io::Error::other(format!("chaos: append {index} rejected")));
        }
        self.inner.append(path, text)
    }

    fn write_atomic(&self, path: &Path, text: &str) -> io::Result<()> {
        self.inner.write_atomic(path, text)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.inner.len(path)
    }
}

/// A scripted worker-process fault for the distributed-sweep chaos tests.
///
/// The crate forbids `unsafe`, so there is no `libc::kill` — instead the
/// fault fires *inside* the victim worker, wired into the campaign's
/// per-run hook, which reproduces the observable effect of each failure
/// mode: an abrupt `SIGKILL` (process vanishes mid-unit, shard file
/// possibly mid-append), a hung worker (process alive, no heartbeats, no
/// progress), or a worker that corrupts its control stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFault {
    /// Exit abruptly (status 137, the `SIGKILL` exit code) after this many
    /// runs of the first assigned unit — no shutdown handshake, no final
    /// flush.
    KillMidUnit {
        /// Runs to execute before dying.
        after_runs: usize,
    },
    /// After this many runs, stop forever: mute the heartbeat thread and
    /// block the run in an endless sleep. The process stays alive, so only
    /// the supervisor's stall detector can reclaim the unit.
    HangMidUnit {
        /// Runs to execute before freezing.
        after_runs: usize,
    },
    /// Write garbage bytes into the control stream instead of the next
    /// protocol frame — a corrupted or truncated frame on the wire.
    GarbageFrames,
    /// Exit abruptly (status 137) immediately after the Nth completed
    /// unit's row is durably in the shard store but *before* the `Done`
    /// acknowledgement is sent — the precise window where work is done on
    /// disk yet the supervisor believes it lost. The supervisor retries
    /// the unit, and the merge drops the second copy as a duplicate.
    DieAfterPersist {
        /// Completed-and-persisted units before dying.
        after_units: usize,
    },
    /// Hold the worker once the Nth completed unit is persisted and
    /// acknowledged, until the `gate` file exists: the supervisor keeps
    /// the worker's next assignment in flight, so a test can act on a
    /// sweep that provably has not finished. A gate never opened is given
    /// up after [`PARK_LIMIT`], so an orphaned worker cannot linger.
    ParkAfterUnit {
        /// Completed-and-acknowledged units before parking.
        after_units: usize,
        /// The file whose creation releases the worker.
        gate: PathBuf,
    },
}

/// The longest a [`WorkerFault::ParkAfterUnit`] worker waits for its gate.
pub const PARK_LIMIT: Duration = Duration::from_secs(60);

impl WorkerFault {
    /// Parses a fault spec: `kill-mid-unit:N`, `hang-mid-unit:N`,
    /// `die-after-persist:N`, `park-after-unit:N:<gate path>` or
    /// `garbage-frames`.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown kinds or malformed counts.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, arg) = match spec.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (spec, None),
        };
        let after = |arg: Option<&str>| -> Result<usize, String> {
            arg.ok_or_else(|| format!("fault `{kind}` needs `:N`"))?
                .parse()
                .map_err(|e| format!("bad run count in `{spec}`: {e}"))
        };
        match kind {
            "kill-mid-unit" => Ok(WorkerFault::KillMidUnit {
                after_runs: after(arg)?,
            }),
            "hang-mid-unit" => Ok(WorkerFault::HangMidUnit {
                after_runs: after(arg)?,
            }),
            "garbage-frames" => Ok(WorkerFault::GarbageFrames),
            "die-after-persist" => Ok(WorkerFault::DieAfterPersist {
                after_units: after(arg)?,
            }),
            "park-after-unit" => {
                let (count, gate) = arg
                    .and_then(|a| a.split_once(':'))
                    .filter(|(_, gate)| !gate.is_empty())
                    .ok_or_else(|| format!("fault `{kind}` needs `:N:<gate path>`"))?;
                Ok(WorkerFault::ParkAfterUnit {
                    after_units: after(Some(count))?,
                    gate: PathBuf::from(gate),
                })
            }
            other => Err(format!("unknown worker fault `{other}`")),
        }
    }
}

/// Worker-side chaos driver: counts runs and fires the configured
/// [`WorkerFault`] at its scripted point. One instance is shared between a
/// worker's campaign run-hook and its heartbeat thread.
#[derive(Debug, Default)]
pub struct WorkerChaos {
    fault: Option<WorkerFault>,
    runs_seen: AtomicUsize,
    units_persisted: AtomicUsize,
    muted: std::sync::atomic::AtomicBool,
}

/// The supervisor-side env var: a comma-separated list of
/// `<worker index>:<fault spec>` entries. The supervisor consumes it and
/// passes each bare spec to the worker spawned at that slot index as
/// `repro worker --fault <spec>` — a respawned replacement takes the next
/// free index, so it inherits only a fault aimed at that index, and a
/// killed worker does not kill its replacement.
pub const CHAOS_WORKER_ENV: &str = "MBU_CHAOS_WORKER";

impl WorkerChaos {
    /// No chaos.
    pub fn none() -> Self {
        Self::default()
    }

    /// A driver firing `fault`.
    pub fn with_fault(fault: WorkerFault) -> Self {
        Self {
            fault: Some(fault),
            ..Self::default()
        }
    }

    /// Parses the supervisor-side [`CHAOS_WORKER_ENV`] into (worker
    /// index, fault spec) pairs, empty when unset.
    ///
    /// # Panics
    ///
    /// Panics on a malformed value — chaos wiring is test scaffolding, and
    /// a typo'd fault silently not firing would pass the test it was meant
    /// to arm.
    pub fn targets_from_env() -> Vec<(usize, String)> {
        let Ok(v) = std::env::var(CHAOS_WORKER_ENV) else {
            return Vec::new();
        };
        v.split(',')
            .map(|entry| {
                let (index, spec) = entry.trim().split_once(':').unwrap_or_else(|| {
                    panic!("{CHAOS_WORKER_ENV} entries must be `<worker index>:<fault>`")
                });
                let index = index
                    .parse()
                    .unwrap_or_else(|e| panic!("{CHAOS_WORKER_ENV}: bad worker index: {e}"));
                // Validate the spec eagerly so the failure is at the
                // supervisor, not buried in a worker's stderr.
                if let Err(e) = WorkerFault::parse(spec) {
                    panic!("{CHAOS_WORKER_ENV}: {e}");
                }
                (index, spec.to_string())
            })
            .collect()
    }

    /// Hook point for the campaign's per-run hook: counts the run and
    /// fires kill/hang faults at their scripted run count.
    pub fn on_run(&self) {
        let seen = self.runs_seen.fetch_add(1, Ordering::Relaxed) + 1;
        match self.fault {
            Some(WorkerFault::KillMidUnit { after_runs }) if seen == after_runs => {
                // 128 + 9: the wait-status a genuinely SIGKILLed process
                // reports. No flush, no unwinding past this point.
                std::process::exit(137);
            }
            Some(WorkerFault::HangMidUnit { after_runs }) if seen == after_runs => {
                self.muted.store(true, Ordering::SeqCst);
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
            _ => {}
        }
    }

    /// Hook point for the worker loop, called after a completed unit's row
    /// is durably appended to the shard store and before the `Done` frame
    /// is written: fires the die-after-persist fault at its scripted unit
    /// count.
    pub fn on_unit_persisted(&self) {
        let seen = self.units_persisted.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(WorkerFault::DieAfterPersist { after_units }) = self.fault {
            if seen == after_units {
                // Same abrupt exit as kill-mid-unit: no flush, no ack.
                std::process::exit(137);
            }
        }
    }

    /// Hook point for the worker loop, called after a completed unit's
    /// `Done` frame is sent: parks the worker at its scripted unit count
    /// until the gate file exists (or [`PARK_LIMIT`] passes).
    pub fn on_unit_acked(&self) {
        let Some(WorkerFault::ParkAfterUnit { after_units, gate }) = &self.fault else {
            return;
        };
        if self.units_persisted.load(Ordering::Relaxed) != *after_units {
            return;
        }
        let give_up = Instant::now() + PARK_LIMIT;
        while !gate.exists() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Whether the heartbeat thread must stop sending (the hang fault has
    /// fired — a frozen process sends nothing).
    pub fn heartbeat_muted(&self) -> bool {
        self.muted.load(Ordering::SeqCst)
    }

    /// Whether the garbage-frames fault is armed.
    pub fn garbage_frames(&self) -> bool {
        matches!(self.fault, Some(WorkerFault::GarbageFrames))
    }

    /// Runs executed so far (test observability).
    pub fn runs_seen(&self) -> usize {
        self.runs_seen.load(Ordering::Relaxed)
    }
}

/// A scripted misbehaving HTTP client for chaos-proofing the injection
/// service's acceptor. Each fault is fired *at* a live daemon from the
/// outside ([`HttpFault::fire`]); the contract under test is that every
/// one yields a typed 4xx/timeout response or a clean close — never a
/// wedged acceptor thread, a leaked connection slot, or corrupted job
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpFault {
    /// Open a connection, send a few bytes of request line, then go
    /// silent while holding the socket open — the classic slow-loris.
    /// Expected: a typed 408 once the server's I/O budget expires.
    SlowLoris,
    /// Send headers promising a `Content-Length` body, write only part of
    /// it, then half-close. Expected: a typed 400 for the truncated body.
    TornBody,
    /// Disconnect abruptly mid-request-line. Expected: a clean close
    /// server-side (nothing to respond to) and a healthy acceptor after.
    MidStreamDisconnect,
    /// Send an unbounded stream of headers. Expected: a typed 431 once
    /// the server's header cap is hit.
    HeaderFlood,
}

/// What the server observably did in response to an [`HttpFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpFaultOutcome {
    /// The server answered with an HTTP status line — a typed response.
    Status(u16),
    /// The server closed the connection without a response (the correct
    /// answer to a client that vanished mid-request).
    Closed,
}

/// The env var naming HTTP faults to fire: a comma-separated list of
/// kebab specs (`slow-loris,header-flood`) or `all`.
pub const CHAOS_HTTP_ENV: &str = "MBU_CHAOS_HTTP";

impl HttpFault {
    /// Every fault in the family, in firing order.
    pub fn all() -> [HttpFault; 4] {
        [
            HttpFault::SlowLoris,
            HttpFault::TornBody,
            HttpFault::MidStreamDisconnect,
            HttpFault::HeaderFlood,
        ]
    }

    /// The fault's kebab-case spec name.
    pub fn kind(self) -> &'static str {
        match self {
            HttpFault::SlowLoris => "slow-loris",
            HttpFault::TornBody => "torn-body",
            HttpFault::MidStreamDisconnect => "mid-stream-disconnect",
            HttpFault::HeaderFlood => "header-flood",
        }
    }

    /// Parses one kebab spec.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown kinds.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "slow-loris" => Ok(HttpFault::SlowLoris),
            "torn-body" => Ok(HttpFault::TornBody),
            "mid-stream-disconnect" => Ok(HttpFault::MidStreamDisconnect),
            "header-flood" => Ok(HttpFault::HeaderFlood),
            other => Err(format!("unknown HTTP fault `{other}`")),
        }
    }

    /// Builds the firing list from [`CHAOS_HTTP_ENV`] (empty when unset;
    /// `all` expands to the whole family).
    ///
    /// # Panics
    ///
    /// Panics on a malformed spec — a typo'd fault silently not firing
    /// would pass the test it was meant to arm.
    pub fn from_env() -> Vec<HttpFault> {
        match std::env::var(CHAOS_HTTP_ENV) {
            Ok(v) if v.trim() == "all" => HttpFault::all().to_vec(),
            Ok(v) => v
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| match HttpFault::parse(s) {
                    Ok(f) => f,
                    Err(e) => panic!("{CHAOS_HTTP_ENV}: {e}"),
                })
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Fires this fault at `addr` and reports what the server did. The
    /// client waits up to `patience` for a response — set it comfortably
    /// above the server's I/O budget so a slow-loris 408 is observed
    /// rather than raced.
    ///
    /// # Errors
    ///
    /// I/O errors from connecting or reading (a *connect* failure means
    /// the acceptor is wedged — exactly what the chaos tests fail on).
    pub fn fire(self, addr: &str, patience: Duration) -> io::Result<HttpFaultOutcome> {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(patience))?;
        match self {
            HttpFault::SlowLoris => {
                stream.write_all(b"GET /healthz HT")?;
                // Hold the socket open and silent; the server's deadline
                // must fire, not ours.
            }
            HttpFault::TornBody => {
                stream.write_all(
                    b"POST /sweeps HTTP/1.1\r\nContent-Type: application/json\r\n\
                      Content-Length: 512\r\n\r\n{\"runs\": 8",
                )?;
                // Half-close: the body can never complete, but the read
                // side stays open for the server's verdict.
                stream.shutdown(std::net::Shutdown::Write)?;
            }
            HttpFault::MidStreamDisconnect => {
                stream.write_all(b"POST /sweeps HTTP/1.1\r\nContent-")?;
                stream.shutdown(std::net::Shutdown::Both)?;
                return Ok(HttpFaultOutcome::Closed);
            }
            HttpFault::HeaderFlood => {
                stream.write_all(b"GET /healthz HTTP/1.1\r\n")?;
                // Keep flooding until the server gives up on us; write
                // errors (reset after the 431) end the flood, not the test.
                for i in 0..10_000 {
                    let header = format!("X-Flood-{i}: {}\r\n", "a".repeat(64));
                    if stream.write_all(header.as_bytes()).is_err() {
                        break;
                    }
                }
                let _ = stream.shutdown(std::net::Shutdown::Write);
            }
        }
        let mut reply = Vec::new();
        match stream.read_to_end(&mut reply) {
            Ok(_) => {}
            // A reset instead of EOF still counts as a close if nothing
            // was received; with bytes in hand, parse what we got.
            Err(_) if reply.is_empty() => return Ok(HttpFaultOutcome::Closed),
            Err(_) => {}
        }
        if reply.is_empty() {
            return Ok(HttpFaultOutcome::Closed);
        }
        let text = String::from_utf8_lossy(&reply);
        let status = text
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unparseable reply: {text:.60}")))?;
        Ok(HttpFaultOutcome::Status(status))
    }
}

/// Truncates the file to its first `keep` bytes — a crash that tore the
/// tail off a checkpoint.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn truncate_file(path: &Path, keep: u64) -> io::Result<()> {
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(keep)?;
    file.sync_all()
}

/// Flips one bit of the file in place — silent at-rest corruption, exactly
/// the fault model the paper studies, aimed at the injector's own records.
///
/// # Errors
///
/// Propagates I/O errors; out-of-range `byte` is an error, not a panic.
pub fn flip_file_bit(path: &Path, byte: u64, bit: u8) -> io::Result<()> {
    let mut data = std::fs::read(path)?;
    let i = usize::try_from(byte).map_err(io::Error::other)?;
    if i >= data.len() {
        return Err(io::Error::other(format!(
            "byte {i} out of range (file is {} bytes)",
            data.len()
        )));
    }
    data[i] ^= 1 << (bit % 8);
    std::fs::write(path, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RealIo;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mbu-chaos-{tag}-{}", std::process::id()))
    }

    #[test]
    fn scripted_appends_fail_and_heal() {
        let dir = tmpdir("plan");
        let path = dir.join("f.csv");
        let io = ChaosIo::new(&RealIo, ChaosPlan::failing([1]));
        io.append(&path, "a\n").unwrap();
        assert!(io.append(&path, "b\n").is_err(), "call 1 scripted to fail");
        io.append(&path, "c\n").unwrap();
        assert_eq!(io.read_to_string(&path).unwrap(), "a\nc\n");
        assert_eq!(io.append_calls(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_leaves_prefix_and_errors() {
        let dir = tmpdir("torn");
        let path = dir.join("f.csv");
        let io = ChaosIo::new(
            &RealIo,
            ChaosPlan {
                torn_append: Some((0, 4)),
                ..ChaosPlan::default()
            },
        );
        let err = io.append(&path, "0123456789\n").unwrap_err();
        assert!(err.to_string().contains("torn"));
        assert_eq!(io.read_to_string(&path).unwrap(), "0123");
        // The next call is healthy.
        io.append(&path, "rest\n").unwrap();
        assert_eq!(io.read_to_string(&path).unwrap(), "0123rest\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_failure_from_index() {
        let dir = tmpdir("dead");
        let path = dir.join("f.csv");
        let io = ChaosIo::new(
            &RealIo,
            ChaosPlan {
                fail_appends_from: Some(1),
                ..ChaosPlan::default()
            },
        );
        io.append(&path, "a\n").unwrap();
        for _ in 0..3 {
            assert!(io.append(&path, "x\n").is_err());
        }
        // Healing the plan restores service.
        io.set_plan(ChaosPlan::none());
        io.append(&path, "b\n").unwrap();
        assert_eq!(io.read_to_string(&path).unwrap(), "a\nb\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_fault_specs_parse() {
        assert_eq!(
            WorkerFault::parse("kill-mid-unit:25"),
            Ok(WorkerFault::KillMidUnit { after_runs: 25 })
        );
        assert_eq!(
            WorkerFault::parse("hang-mid-unit:3"),
            Ok(WorkerFault::HangMidUnit { after_runs: 3 })
        );
        assert_eq!(
            WorkerFault::parse("garbage-frames"),
            Ok(WorkerFault::GarbageFrames)
        );
        assert_eq!(
            WorkerFault::parse("die-after-persist:1"),
            Ok(WorkerFault::DieAfterPersist { after_units: 1 })
        );
        assert_eq!(
            WorkerFault::parse("park-after-unit:1:/tmp/gate:x"),
            Ok(WorkerFault::ParkAfterUnit {
                after_units: 1,
                gate: PathBuf::from("/tmp/gate:x"),
            })
        );
        assert!(WorkerFault::parse("park-after-unit:1").is_err());
        assert!(WorkerFault::parse("park-after-unit:1:").is_err());
        assert!(WorkerFault::parse("park-after-unit:x:/tmp/gate").is_err());
        assert!(WorkerFault::parse("die-after-persist").is_err());
        assert!(WorkerFault::parse("kill-mid-unit").is_err());
        assert!(WorkerFault::parse("kill-mid-unit:x").is_err());
        assert!(WorkerFault::parse("segfault").is_err());
    }

    #[test]
    fn http_fault_specs_parse() {
        for fault in HttpFault::all() {
            assert_eq!(HttpFault::parse(fault.kind()), Ok(fault));
        }
        assert!(HttpFault::parse("teardrop").is_err());
        std::env::remove_var(CHAOS_HTTP_ENV);
        assert!(HttpFault::from_env().is_empty());
        std::env::set_var(CHAOS_HTTP_ENV, "slow-loris, header-flood");
        assert_eq!(
            HttpFault::from_env(),
            vec![HttpFault::SlowLoris, HttpFault::HeaderFlood]
        );
        std::env::set_var(CHAOS_HTTP_ENV, "all");
        assert_eq!(HttpFault::from_env(), HttpFault::all().to_vec());
        std::env::remove_var(CHAOS_HTTP_ENV);
    }

    #[test]
    fn worker_chaos_counts_without_fault() {
        let chaos = WorkerChaos::none();
        for _ in 0..5 {
            chaos.on_run();
        }
        assert_eq!(chaos.runs_seen(), 5);
        assert!(!chaos.heartbeat_muted());
        assert!(!chaos.garbage_frames());
    }

    #[test]
    fn file_corruption_helpers() {
        let dir = tmpdir("corrupt");
        let path = dir.join("f.csv");
        RealIo.append(&path, "hello world\n").unwrap();
        flip_file_bit(&path, 0, 1).unwrap();
        assert_eq!(RealIo.read_to_string(&path).unwrap(), "jello world\n");
        truncate_file(&path, 5).unwrap();
        assert_eq!(RealIo.read_to_string(&path).unwrap(), "jello");
        assert!(
            flip_file_bit(&path, 999, 0).is_err(),
            "out of range is typed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
