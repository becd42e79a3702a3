//! Wire protocol between the distributed-sweep supervisor and its worker
//! processes: length-prefixed JSON frames over stdio or TCP.
//!
//! The JSON value itself lives in [`mbu_gefin::json`] (re-exported here as
//! [`Json`]) so the HTTP service layer can share it; this module owns the
//! framing and the typed message vocabulary.
//!
//! Framing is `<ASCII decimal byte length>\n<payload>`. The length line
//! makes truncation detectable (a dead worker cannot leave a frame that
//! parses), and [`MAX_FRAME`] bounds what a garbage length line can make
//! the supervisor allocate. Anything malformed surfaces as a typed
//! [`ProtocolError`] — the supervisor treats it as a worker fault, never
//! as data.

use mbu_cpu::HwComponent;
use mbu_gefin::campaign::{AdaptiveSpec, UnitSpec};
use mbu_gefin::classify::ClassCounts;
use mbu_gefin::exhaustive::{ExhaustiveSpec, StratifiedSpec};
use mbu_gefin::integrity::GoldenFingerprint;
use mbu_gefin::json::JsonError;
use mbu_workloads::Workload;
use std::fmt;
use std::io::{BufRead, Write};

use crate::store::{component_slug, ShardRow, ShardStratified};

pub use mbu_gefin::json::Json;

/// Upper bound on a single frame's payload, in bytes. Control messages are
/// tiny; a length line above this is garbage by definition.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a frame or message could not be read or decoded.
#[derive(Debug)]
pub enum ProtocolError {
    /// The peer closed the stream cleanly at a frame boundary.
    Eof,
    /// The framing layer was violated: a non-numeric or oversized length
    /// line, or a payload shorter than its declared length.
    Frame(String),
    /// The payload was not valid JSON.
    Json(String),
    /// The JSON was well-formed but not a recognizable message.
    Message(String),
    /// An underlying I/O error.
    Io(std::io::Error),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Eof => f.write_str("peer closed the stream"),
            ProtocolError::Frame(m) => write!(f, "bad frame: {m}"),
            ProtocolError::Json(m) => write!(f, "bad JSON: {m}"),
            ProtocolError::Message(m) => write!(f, "bad message: {m}"),
            ProtocolError::Io(e) => write!(f, "protocol I/O: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<JsonError> for ProtocolError {
    fn from(e: JsonError) -> Self {
        ProtocolError::Json(e.to_string())
    }
}

/// Writes one length-prefixed frame and flushes.
///
/// # Errors
///
/// Propagates I/O errors (a broken pipe here means the peer died).
pub fn write_frame(w: &mut dyn Write, json: &Json) -> std::io::Result<()> {
    let payload = json.encode();
    w.write_all(format!("{}\n", payload.len()).as_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// [`ProtocolError::Eof`] on clean close at a frame boundary;
/// [`ProtocolError::Frame`] on a garbage length line, an oversized length,
/// or a payload truncated mid-frame; [`ProtocolError::Json`] if the payload
/// is not JSON.
pub fn read_frame(r: &mut dyn BufRead) -> Result<Json, ProtocolError> {
    let mut line = String::new();
    let n = r.read_line(&mut line)?;
    if n == 0 {
        return Err(ProtocolError::Eof);
    }
    let trimmed = line.trim();
    let len: usize = trimmed
        .parse()
        .map_err(|_| ProtocolError::Frame(format!("length line {trimmed:?} is not a number")))?;
    if len > MAX_FRAME {
        return Err(ProtocolError::Frame(format!(
            "frame length {len} exceeds cap {MAX_FRAME}"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| ProtocolError::Frame(format!("payload truncated: {e}")))?;
    let text = String::from_utf8(payload)
        .map_err(|_| ProtocolError::Frame("payload is not UTF-8".into()))?;
    Ok(Json::parse(&text)?)
}

/// The experiment parameters a worker needs to reconstruct the exact
/// campaign a supervisor planned: everything in [`crate::Experiments`] that
/// affects classification or checkpoint rows. The core configuration is
/// not carried — both sides build the same default, and any drift is caught
/// by golden-fingerprint verification at merge time.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpSpec {
    /// Runs per full campaign.
    pub runs: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Worker threads per campaign (0 = available parallelism).
    pub threads: usize,
    /// Adaptive early stopping (whole-campaign units only).
    pub adaptive: Option<AdaptiveSpec>,
    /// Checkpoint/restore fast-forward injection.
    pub use_snapshots: bool,
    /// Snapshot interval override, in cycles.
    pub snapshot_interval: Option<u64>,
    /// Snapshot memory cap, in MiB.
    pub snapshot_mem_mb: Option<u64>,
    /// Equivalence-class dispatch: `Some` turns the assigned unit's
    /// `[start, end)` into a *class range* over the campaign's dense live
    /// order (or a whole-campaign stratified sampler) instead of a run
    /// range. Absent on run-range units, so old and new peers interoperate
    /// on the sampled path.
    pub equiv: Option<EquivSpec>,
}

/// The equivalence-class engine knobs a worker needs to rebuild the exact
/// [`mbu_gefin::exhaustive::ExhaustivePlan`] the supervisor planned from.
/// The plan is deterministic in these plus the golden run, and any drift
/// is still caught by golden-fingerprint verification at merge time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquivSpec {
    /// Representative picker / class-cap / snapshot-alignment knobs.
    pub exhaustive: ExhaustiveSpec,
    /// `Some` makes the unit a whole-campaign class-weighted stratified
    /// sampler (L1/L2 scale); `None` makes it an exhaustive class range.
    pub stratified: Option<StratifiedSpec>,
}

impl EquivSpec {
    fn to_json(self) -> Json {
        let strat = match self.stratified {
            None => Json::Null,
            Some(s) => Json::Obj(vec![
                ("target_margin".into(), Json::f64(s.target_margin)),
                ("z".into(), Json::f64(s.z)),
                ("min_draws".into(), Json::u64(s.min_draws)),
                ("batch".into(), Json::u64(s.batch)),
                ("max_draws".into(), Json::u64(s.max_draws)),
                ("seed".into(), Json::u64(s.seed)),
            ]),
        };
        Json::Obj(vec![
            ("rep_seed".into(), Json::u64(self.exhaustive.rep_seed)),
            ("max_classes".into(), Json::u64(self.exhaustive.max_classes)),
            ("snap_align".into(), Json::Bool(self.exhaustive.snap_align)),
            ("strat".into(), strat),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        let stratified = match v.get("strat") {
            None | Some(Json::Null) => None,
            Some(s) => Some(StratifiedSpec {
                target_margin: get_f64(s, "target_margin")?,
                z: get_f64(s, "z")?,
                min_draws: get_u64(s, "min_draws")?,
                batch: get_u64(s, "batch")?,
                max_draws: get_u64(s, "max_draws")?,
                seed: get_u64(s, "seed")?,
            }),
        };
        Ok(Self {
            exhaustive: ExhaustiveSpec {
                rep_seed: get_u64(v, "rep_seed")?,
                max_classes: get_u64(v, "max_classes")?,
                snap_align: get_bool(v, "snap_align")?,
            },
            stratified,
        })
    }
}

fn opt_u64(v: Option<u64>) -> Json {
    match v {
        Some(v) => Json::u64(v),
        None => Json::Null,
    }
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, ProtocolError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtocolError::Message(format!("missing or non-integer field `{key}`")))
}

fn get_usize(obj: &Json, key: &str) -> Result<usize, ProtocolError> {
    obj.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| ProtocolError::Message(format!("missing or non-integer field `{key}`")))
}

fn get_f64(obj: &Json, key: &str) -> Result<f64, ProtocolError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ProtocolError::Message(format!("missing or non-numeric field `{key}`")))
}

fn get_bool(obj: &Json, key: &str) -> Result<bool, ProtocolError> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| ProtocolError::Message(format!("missing or non-bool field `{key}`")))
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, ProtocolError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::Message(format!("missing or non-string field `{key}`")))
}

fn get_opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, ProtocolError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtocolError::Message(format!("non-integer field `{key}`"))),
    }
}

impl ExpSpec {
    /// Encodes to a JSON object.
    pub fn to_json(&self) -> Json {
        let adaptive = match &self.adaptive {
            None => Json::Null,
            Some(a) => Json::Obj(vec![
                ("target_margin".into(), Json::f64(a.target_margin)),
                ("z".into(), Json::f64(a.z)),
                ("min_runs".into(), Json::usize(a.min_runs)),
                ("batch".into(), Json::usize(a.batch)),
            ]),
        };
        Json::Obj(vec![
            ("runs".into(), Json::usize(self.runs)),
            ("seed".into(), Json::u64(self.seed)),
            ("threads".into(), Json::usize(self.threads)),
            ("adaptive".into(), adaptive),
            ("snapshots".into(), Json::Bool(self.use_snapshots)),
            ("snap_interval".into(), opt_u64(self.snapshot_interval)),
            ("snap_mem_mb".into(), opt_u64(self.snapshot_mem_mb)),
            (
                "equiv".into(),
                match self.equiv {
                    None => Json::Null,
                    Some(e) => e.to_json(),
                },
            ),
        ])
    }

    /// Decodes from a JSON object.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Message`] on a missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        let adaptive = match v.get("adaptive") {
            None | Some(Json::Null) => None,
            Some(a) => Some(AdaptiveSpec {
                target_margin: get_f64(a, "target_margin")?,
                z: get_f64(a, "z")?,
                min_runs: get_usize(a, "min_runs")?,
                batch: get_usize(a, "batch")?,
            }),
        };
        Ok(Self {
            runs: get_usize(v, "runs")?,
            seed: get_u64(v, "seed")?,
            threads: get_usize(v, "threads")?,
            adaptive,
            use_snapshots: get_bool(v, "snapshots")?,
            snapshot_interval: get_opt_u64(v, "snap_interval")?,
            snapshot_mem_mb: get_opt_u64(v, "snap_mem_mb")?,
            equiv: match v.get("equiv") {
                None | Some(Json::Null) => None,
                Some(e) => Some(EquivSpec::from_json(e)?),
            },
        })
    }
}

fn row_to_json(r: &ShardRow) -> Json {
    let mut fields = vec![
        ("unit".into(), unit_to_json(&r.unit)),
        ("seed".into(), Json::u64(r.seed)),
        ("masked".into(), Json::u64(r.counts.masked)),
        ("sdc".into(), Json::u64(r.counts.sdc)),
        ("crash".into(), Json::u64(r.counts.crash)),
        ("timeout".into(), Json::u64(r.counts.timeout)),
        ("assert".into(), Json::u64(r.counts.assert_)),
        ("cycles".into(), Json::u64(r.fault_free_cycles)),
        ("instr".into(), Json::u64(r.fault_free_instructions)),
        ("fp".into(), Json::Str(r.fingerprint.to_string())),
    ];
    if let Some(ex) = &r.exhaustive {
        let mut ex_fields = vec![
            ("masked".into(), Json::u64(ex.weighted.masked)),
            ("sdc".into(), Json::u64(ex.weighted.sdc)),
            ("crash".into(), Json::u64(ex.weighted.crash)),
            ("timeout".into(), Json::u64(ex.weighted.timeout)),
            ("assert".into(), Json::u64(ex.weighted.assert_)),
            ("weight".into(), Json::u64(ex.weight_total)),
            ("pruned".into(), Json::u64(ex.pruned)),
        ];
        if let Some(s) = &ex.stratified {
            ex_fields.push(("margin_bits".into(), Json::u64(s.margin_bits)));
            ex_fields.push(("simulated".into(), Json::u64(s.simulated)));
        }
        fields.push(("ex".into(), Json::Obj(ex_fields)));
    }
    Json::Obj(fields)
}

fn row_from_json(v: &Json) -> Result<ShardRow, ProtocolError> {
    let fp: GoldenFingerprint = get_str(v, "fp")?
        .parse()
        .map_err(|e| ProtocolError::Message(format!("bad fingerprint: {e}")))?;
    let exhaustive = match v.get("ex") {
        None | Some(Json::Null) => None,
        Some(ex) => {
            let stratified = match (
                get_opt_u64(ex, "margin_bits")?,
                get_opt_u64(ex, "simulated")?,
            ) {
                (None, None) => None,
                (Some(margin_bits), Some(simulated)) => Some(ShardStratified {
                    margin_bits,
                    simulated,
                }),
                _ => {
                    return Err(ProtocolError::Message(
                        "stratified annotation needs both `margin_bits` and `simulated`".into(),
                    ))
                }
            };
            Some(crate::store::ShardExhaustive {
                weighted: ClassCounts {
                    masked: get_u64(ex, "masked")?,
                    sdc: get_u64(ex, "sdc")?,
                    crash: get_u64(ex, "crash")?,
                    timeout: get_u64(ex, "timeout")?,
                    assert_: get_u64(ex, "assert")?,
                },
                weight_total: get_u64(ex, "weight")?,
                pruned: get_u64(ex, "pruned")?,
                stratified,
            })
        }
    };
    Ok(ShardRow {
        unit: unit_from_json(
            v.get("unit")
                .ok_or_else(|| ProtocolError::Message("missing `unit`".into()))?,
        )?,
        seed: get_u64(v, "seed")?,
        counts: ClassCounts {
            masked: get_u64(v, "masked")?,
            sdc: get_u64(v, "sdc")?,
            crash: get_u64(v, "crash")?,
            timeout: get_u64(v, "timeout")?,
            assert_: get_u64(v, "assert")?,
        },
        fault_free_cycles: get_u64(v, "cycles")?,
        fault_free_instructions: get_u64(v, "instr")?,
        fingerprint: fp,
        exhaustive,
    })
}

fn unit_to_json(u: &UnitSpec) -> Json {
    Json::Obj(vec![
        ("comp".into(), Json::Str(component_slug(u.component).into())),
        ("wl".into(), Json::Str(u.workload.name().into())),
        ("faults".into(), Json::usize(u.faults)),
        ("start".into(), Json::usize(u.start)),
        ("end".into(), Json::usize(u.end)),
    ])
}

fn unit_from_json(v: &Json) -> Result<UnitSpec, ProtocolError> {
    let component: HwComponent = get_str(v, "comp")?
        .parse()
        .map_err(|e| ProtocolError::Message(format!("bad component: {e}")))?;
    let workload: Workload = get_str(v, "wl")?
        .parse()
        .map_err(|e| ProtocolError::Message(format!("bad workload: {e}")))?;
    Ok(UnitSpec {
        component,
        workload,
        faults: get_usize(v, "faults")?,
        start: get_usize(v, "start")?,
        end: get_usize(v, "end")?,
    })
}

/// Supervisor → worker messages.
///
/// `Assign` dominates both traffic and allocation count, so the size
/// skew against the payload-free `Shutdown` is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// Run this unit under these experiment parameters.
    Assign {
        /// Supervisor-assigned unit identity (echoed in every reply).
        unit_id: u64,
        /// The run-range to execute.
        unit: UnitSpec,
        /// The campaign parameters.
        exp: ExpSpec,
    },
    /// Finish up and exit cleanly.
    Shutdown,
}

impl ToWorker {
    /// Encodes to a JSON object with a `t` discriminator.
    pub fn to_json(&self) -> Json {
        match self {
            ToWorker::Assign { unit_id, unit, exp } => Json::Obj(vec![
                ("t".into(), Json::Str("assign".into())),
                ("id".into(), Json::u64(*unit_id)),
                ("unit".into(), unit_to_json(unit)),
                ("exp".into(), exp.to_json()),
            ]),
            ToWorker::Shutdown => Json::Obj(vec![("t".into(), Json::Str("shutdown".into()))]),
        }
    }

    /// Decodes from a JSON object.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Message`] on an unknown discriminator or a missing
    /// field.
    pub fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        match get_str(v, "t")? {
            "assign" => Ok(ToWorker::Assign {
                unit_id: get_u64(v, "id")?,
                unit: unit_from_json(
                    v.get("unit")
                        .ok_or_else(|| ProtocolError::Message("missing `unit`".into()))?,
                )?,
                exp: ExpSpec::from_json(
                    v.get("exp")
                        .ok_or_else(|| ProtocolError::Message("missing `exp`".into()))?,
                )?,
            }),
            "shutdown" => Ok(ToWorker::Shutdown),
            other => Err(ProtocolError::Message(format!(
                "unknown supervisor message `{other}`"
            ))),
        }
    }
}

/// Worker → supervisor messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ToSupervisor {
    /// First message after startup.
    Hello {
        /// The worker's OS process id, for diagnostics.
        pid: u32,
        /// Stable worker identity for session resume. A reconnecting TCP
        /// worker that presents the id of a lost slot rejoins the pool
        /// instead of counting as a brand-new worker. Spawned stdio
        /// workers leave this unset.
        worker_id: Option<String>,
    },
    /// Periodic liveness signal while a unit is in flight.
    Heartbeat {
        /// The unit being executed.
        unit_id: u64,
        /// Runs of the unit completed so far (monotonic).
        done: usize,
    },
    /// The unit completed and its row is durably in the worker's shard
    /// store. The row rides along so a supervisor on the other end of a
    /// TCP link (which cannot read the worker's local shard file) can
    /// persist it into its own shard store; for stdio workers the file on
    /// disk is the authoritative copy and this is a control-plane echo.
    Done {
        /// The completed unit.
        unit_id: u64,
        /// The shard row the worker persisted.
        row: ShardRow,
        /// Anomalies the campaign logged (panics, wall-clock overruns).
        anomalies: usize,
    },
    /// A row replayed from the worker's shard store at startup: work that
    /// was persisted durably but possibly never acknowledged (the worker
    /// died between its shard append and its `Done` frame). The supervisor
    /// uses these to retire matching requeued units without re-running
    /// them; stale or unknown rows are simply ignored — the merge dedups.
    Recovered {
        /// The replayed shard row.
        row: ShardRow,
    },
    /// The unit failed with a campaign-level error.
    Fail {
        /// The failed unit.
        unit_id: u64,
        /// Display form of the error.
        error: String,
    },
}

impl ToSupervisor {
    /// Encodes to a JSON object with a `t` discriminator.
    pub fn to_json(&self) -> Json {
        match self {
            ToSupervisor::Hello { pid, worker_id } => {
                let mut fields = vec![
                    ("t".into(), Json::Str("hello".into())),
                    ("pid".into(), Json::u64(*pid as u64)),
                ];
                if let Some(id) = worker_id {
                    fields.push(("wid".into(), Json::Str(id.clone())));
                }
                Json::Obj(fields)
            }
            ToSupervisor::Heartbeat { unit_id, done } => Json::Obj(vec![
                ("t".into(), Json::Str("hb".into())),
                ("id".into(), Json::u64(*unit_id)),
                ("done".into(), Json::usize(*done)),
            ]),
            ToSupervisor::Done {
                unit_id,
                row,
                anomalies,
            } => Json::Obj(vec![
                ("t".into(), Json::Str("done".into())),
                ("id".into(), Json::u64(*unit_id)),
                ("row".into(), row_to_json(row)),
                ("anomalies".into(), Json::usize(*anomalies)),
            ]),
            ToSupervisor::Recovered { row } => Json::Obj(vec![
                ("t".into(), Json::Str("recovered".into())),
                ("row".into(), row_to_json(row)),
            ]),
            ToSupervisor::Fail { unit_id, error } => Json::Obj(vec![
                ("t".into(), Json::Str("fail".into())),
                ("id".into(), Json::u64(*unit_id)),
                ("error".into(), Json::Str(error.clone())),
            ]),
        }
    }

    /// Decodes from a JSON object.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Message`] on an unknown discriminator or a missing
    /// field.
    pub fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        match get_str(v, "t")? {
            "hello" => Ok(ToSupervisor::Hello {
                pid: get_u64(v, "pid")? as u32,
                worker_id: match v.get("wid") {
                    None | Some(Json::Null) => None,
                    Some(w) => Some(
                        w.as_str()
                            .ok_or_else(|| ProtocolError::Message("non-string field `wid`".into()))?
                            .to_string(),
                    ),
                },
            }),
            "hb" => Ok(ToSupervisor::Heartbeat {
                unit_id: get_u64(v, "id")?,
                done: get_usize(v, "done")?,
            }),
            "done" => Ok(ToSupervisor::Done {
                unit_id: get_u64(v, "id")?,
                row: row_from_json(
                    v.get("row")
                        .ok_or_else(|| ProtocolError::Message("missing `row`".into()))?,
                )?,
                anomalies: get_usize(v, "anomalies")?,
            }),
            "recovered" => Ok(ToSupervisor::Recovered {
                row: row_from_json(
                    v.get("row")
                        .ok_or_else(|| ProtocolError::Message("missing `row`".into()))?,
                )?,
            }),
            "fail" => Ok(ToSupervisor::Fail {
                unit_id: get_u64(v, "id")?,
                error: get_str(v, "error")?.to_string(),
            }),
            other => Err(ProtocolError::Message(format!(
                "unknown worker message `{other}`"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip_frame(json: &Json) -> Json {
        let mut buf = Vec::new();
        write_frame(&mut buf, json).unwrap();
        let mut reader = BufReader::new(&buf[..]);
        read_frame(&mut reader).unwrap()
    }

    fn sample_row() -> ShardRow {
        ShardRow {
            unit: UnitSpec {
                component: HwComponent::DTlb,
                workload: Workload::Qsort,
                faults: 2,
                start: 50,
                end: 125,
            },
            seed: u64::MAX,
            counts: ClassCounts {
                masked: 70,
                sdc: 2,
                crash: 2,
                timeout: 1,
                assert_: 0,
            },
            fault_free_cycles: 123_456,
            fault_free_instructions: 65_432,
            fingerprint: GoldenFingerprint(0x0123_4567_89ab_cdef),
            exhaustive: None,
        }
    }

    #[test]
    fn frames_roundtrip() {
        let msg = Json::Obj(vec![
            ("t".into(), Json::Str("hb".into())),
            ("id".into(), Json::u64(7)),
        ]);
        assert_eq!(roundtrip_frame(&msg), msg);
    }

    #[test]
    fn frame_reader_types_each_failure() {
        // Clean EOF.
        let mut r = BufReader::new(&b""[..]);
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Eof)));
        // Garbage length line.
        let mut r = BufReader::new(&b"not-a-number\n{}"[..]);
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Frame(_))));
        // Oversized length.
        let huge = format!("{}\n", MAX_FRAME + 1);
        let mut r = BufReader::new(huge.as_bytes());
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Frame(_))));
        // Truncated payload (worker died mid-write).
        let mut r = BufReader::new(&b"10\n{\"t\""[..]);
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Frame(_))));
        // Valid frame, non-JSON payload.
        let mut r = BufReader::new(&b"3\nxyz"[..]);
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Json(_))));
    }

    #[test]
    fn assign_roundtrips_with_all_options() {
        let msg = ToWorker::Assign {
            unit_id: 42,
            unit: UnitSpec {
                component: HwComponent::L1D,
                workload: Workload::Sha,
                faults: 3,
                start: 50,
                end: 125,
            },
            exp: ExpSpec {
                runs: 150,
                seed: 0x6EF1_2019,
                threads: 2,
                adaptive: Some(AdaptiveSpec {
                    target_margin: 0.0288,
                    ..AdaptiveSpec::paper()
                }),
                use_snapshots: true,
                snapshot_interval: Some(5_000),
                snapshot_mem_mb: Some(64),
                equiv: None,
            },
        };
        let back = ToWorker::from_json(&roundtrip_frame(&msg.to_json())).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn class_range_assigns_roundtrip() {
        // An exhaustive class-range unit and a whole-campaign stratified
        // unit: both ride the same Assign with an `equiv` spec.
        for stratified in [None, Some(StratifiedSpec::paper())] {
            let msg = ToWorker::Assign {
                unit_id: 7,
                unit: UnitSpec {
                    component: HwComponent::ITlb,
                    workload: Workload::Crc32,
                    faults: 1,
                    start: 128,
                    end: 256,
                },
                exp: ExpSpec {
                    runs: 150,
                    seed: 0x6EF1_2019,
                    threads: 1,
                    adaptive: None,
                    use_snapshots: true,
                    snapshot_interval: None,
                    snapshot_mem_mb: None,
                    equiv: Some(EquivSpec {
                        exhaustive: ExhaustiveSpec {
                            rep_seed: 3,
                            max_classes: 1_000_000,
                            snap_align: true,
                        },
                        stratified,
                    }),
                },
            };
            let back = ToWorker::from_json(&roundtrip_frame(&msg.to_json())).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn stratified_rows_roundtrip_margin_bit_exactly() {
        let mut row = sample_row();
        row.counts = ClassCounts {
            masked: 1,
            sdc: 0,
            crash: 0,
            timeout: 0,
            assert_: 0,
        };
        row.unit.start = 0;
        row.unit.end = 1;
        row.exhaustive = Some(crate::store::ShardExhaustive {
            weighted: ClassCounts {
                masked: 900,
                sdc: 60,
                crash: 30,
                timeout: 8,
                assert_: 2,
            },
            weight_total: 1_500,
            pruned: 500,
            stratified: Some(ShardStratified {
                margin_bits: 0.028_799_123_f64.to_bits(),
                simulated: 42,
            }),
        });
        let msg = ToSupervisor::Done {
            unit_id: 3,
            row: row.clone(),
            anomalies: 0,
        };
        let back = ToSupervisor::from_json(&roundtrip_frame(&msg.to_json())).unwrap();
        assert_eq!(back, msg);
        // A half-present annotation is a typed message error.
        let mut json = msg.to_json();
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "row" {
                    if let Json::Obj(row_fields) = v {
                        for (rk, rv) in row_fields.iter_mut() {
                            if rk == "ex" {
                                if let Json::Obj(ex_fields) = rv {
                                    ex_fields.retain(|(ek, _)| ek != "simulated");
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(matches!(
            ToSupervisor::from_json(&json),
            Err(ProtocolError::Message(_))
        ));
    }

    #[test]
    fn assign_roundtrips_with_defaults() {
        let msg = ToWorker::Assign {
            unit_id: 0,
            unit: UnitSpec::whole(HwComponent::RegFile, Workload::Crc32, 1, 100),
            exp: ExpSpec {
                runs: 100,
                seed: u64::MAX,
                threads: 0,
                adaptive: None,
                use_snapshots: false,
                snapshot_interval: None,
                snapshot_mem_mb: None,
                equiv: None,
            },
        };
        let back = ToWorker::from_json(&roundtrip_frame(&msg.to_json())).unwrap();
        assert_eq!(back, msg);
        assert_eq!(
            ToWorker::from_json(&roundtrip_frame(&ToWorker::Shutdown.to_json())).unwrap(),
            ToWorker::Shutdown
        );
    }

    #[test]
    fn worker_messages_roundtrip() {
        for msg in [
            ToSupervisor::Hello {
                pid: 1234,
                worker_id: None,
            },
            ToSupervisor::Hello {
                pid: 1234,
                worker_id: Some("rack7-worker-2".into()),
            },
            ToSupervisor::Heartbeat {
                unit_id: 9,
                done: 55,
            },
            ToSupervisor::Done {
                unit_id: 9,
                row: sample_row(),
                anomalies: 1,
            },
            ToSupervisor::Recovered { row: sample_row() },
            ToSupervisor::Fail {
                unit_id: 10,
                error: "fault cardinality must fit the cluster".into(),
            },
        ] {
            let back = ToSupervisor::from_json(&roundtrip_frame(&msg.to_json())).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn hello_without_worker_id_omits_the_field() {
        let msg = ToSupervisor::Hello {
            pid: 7,
            worker_id: None,
        };
        assert!(msg.to_json().get("wid").is_none());
    }

    #[test]
    fn unknown_discriminators_are_typed_errors() {
        let v = Json::parse("{\"t\":\"explode\"}").unwrap();
        assert!(matches!(
            ToWorker::from_json(&v),
            Err(ProtocolError::Message(_))
        ));
        assert!(matches!(
            ToSupervisor::from_json(&v),
            Err(ProtocolError::Message(_))
        ));
        let v = Json::parse("[]").unwrap();
        assert!(matches!(
            ToWorker::from_json(&v),
            Err(ProtocolError::Message(_))
        ));
    }
}
