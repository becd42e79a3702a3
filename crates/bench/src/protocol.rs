//! Wire protocol between the distributed-sweep supervisor and its worker
//! processes: length-prefixed JSON frames over the workers' stdio pipes.
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
//!
//! A completed unit's [`ShardRow`] travels as a JSON string holding its
//! checksummed shard line ([`ShardRow::to_line`]) and is decoded by the
//! parser shard loads use ([`ShardRow::from_line`]), so a row the merge
//! would quarantine is refused on arrival.

use mbu_cpu::HwComponent;
use mbu_gefin::campaign::{AdaptiveSpec, UnitSpec};
use mbu_gefin::exhaustive::{ExhaustiveSpec, StratifiedSpec};
use mbu_gefin::json::JsonError;
use mbu_workloads::Workload;
use std::fmt;
use std::io::{BufRead, Write};

use crate::store::{component_slug, ShardRow};

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
/// can change a classification or a checkpoint row. The core configuration
/// is not carried — both sides build the same default, and any drift is
/// caught by golden-fingerprint verification at merge time. Nor are the
/// snapshot settings: they trade time for memory without changing a
/// result, and workers always run the default snapshot path.
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
    /// Equivalence-class dispatch: `Some` turns the assigned unit's
    /// `[start, end)` into a *class range* over the campaign's dense live
    /// order (or a whole-campaign stratified sampler) instead of a run
    /// range. Absent on run-range units.
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
            equiv: match v.get("equiv") {
                None | Some(Json::Null) => None,
                Some(e) => Some(EquivSpec::from_json(e)?),
            },
        })
    }
}

/// The JSON form of a unit: its campaign key and range.
pub(crate) fn unit_to_json(u: &UnitSpec) -> Json {
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
    },
    /// Periodic liveness signal while a unit is in flight.
    Heartbeat {
        /// The unit being executed.
        unit_id: u64,
    },
    /// The unit completed and its row is durably in the worker's shard
    /// store. The row rides along as its shard line, and the supervisor
    /// decodes it with the shard parser, so a row the merge would
    /// quarantine is refused on arrival; the shard file on disk stays the
    /// authoritative copy.
    Done {
        /// The completed unit.
        unit_id: u64,
        /// The shard row the worker persisted.
        row: ShardRow,
        /// Anomalies the campaign logged (panics, wall-clock overruns).
        anomalies: usize,
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
            ToSupervisor::Hello { pid } => Json::Obj(vec![
                ("t".into(), Json::Str("hello".into())),
                ("pid".into(), Json::u64(*pid as u64)),
            ]),
            ToSupervisor::Heartbeat { unit_id } => Json::Obj(vec![
                ("t".into(), Json::Str("hb".into())),
                ("id".into(), Json::u64(*unit_id)),
            ]),
            ToSupervisor::Done {
                unit_id,
                row,
                anomalies,
            } => Json::Obj(vec![
                ("t".into(), Json::Str("done".into())),
                ("id".into(), Json::u64(*unit_id)),
                ("row".into(), Json::Str(row.to_line())),
                ("anomalies".into(), Json::usize(*anomalies)),
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
    /// [`ProtocolError::Message`] on an unknown discriminator, a missing
    /// field, or a shard row that fails its checksum or the shard parser's
    /// checks.
    pub fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        match get_str(v, "t")? {
            "hello" => Ok(ToSupervisor::Hello {
                pid: get_u64(v, "pid")? as u32,
            }),
            "hb" => Ok(ToSupervisor::Heartbeat {
                unit_id: get_u64(v, "id")?,
            }),
            "done" => Ok(ToSupervisor::Done {
                unit_id: get_u64(v, "id")?,
                row: ShardRow::from_line(get_str(v, "row")?)
                    .map_err(|defect| ProtocolError::Message(format!("bad shard row: {defect}")))?,
                anomalies: get_usize(v, "anomalies")?,
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
    use crate::store::{seal, ShardExhaustive, ShardStratified};
    use mbu_gefin::classify::ClassCounts;
    use mbu_gefin::integrity::GoldenFingerprint;
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
        row.exhaustive = Some(ShardExhaustive {
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
        // A half-present annotation, however well sealed, is refused.
        let line = row.to_line();
        let (body, _) = line.rsplit_once(',').unwrap();
        let (half, _) = body.rsplit_once(',').unwrap();
        let m = refusal(seal(half));
        assert!(m.contains("got 22"), "{m}");
    }

    /// A `done` frame carrying `line` as its row, decoded to the typed
    /// message error it must be.
    fn refusal(line: String) -> String {
        let msg = Json::Obj(vec![
            ("t".into(), Json::Str("done".into())),
            ("id".into(), Json::u64(3)),
            ("row".into(), Json::Str(line)),
            ("anomalies".into(), Json::usize(0)),
        ]);
        match ToSupervisor::from_json(&roundtrip_frame(&msg)) {
            Err(ProtocolError::Message(m)) => m,
            other => panic!("expected a typed message error, got {other:?}"),
        }
    }

    #[test]
    fn done_row_whose_counts_miss_its_range_is_refused() {
        // Well sealed, but 76 classified runs for the 75 of [50, 125).
        let mut row = sample_row();
        row.counts.masked += 1;
        let m = refusal(row.to_line());
        assert!(
            m.contains("counts sum to 76 but the range holds 75 runs"),
            "{m}"
        );
    }

    #[test]
    fn done_row_with_a_corrupted_crc_is_refused() {
        let line = sample_row().to_line();
        let (body, crc) = line.rsplit_once(',').unwrap();
        let crc = u32::from_str_radix(crc, 16).unwrap() ^ 1;
        let m = refusal(format!("{body},{crc:08x}"));
        assert!(m.contains("crc mismatch"), "{m}");
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
            ToSupervisor::Hello { pid: 1234 },
            ToSupervisor::Heartbeat { unit_id: 9 },
            ToSupervisor::Done {
                unit_id: 9,
                row: sample_row(),
                anomalies: 1,
            },
            ToSupervisor::Fail {
                unit_id: 10,
                error: "fault cardinality must fit the cluster".into(),
            },
        ] {
            let back = ToSupervisor::from_json(&roundtrip_frame(&msg.to_json())).unwrap();
            assert_eq!(back, msg);
        }
        // On the wire a row is exactly its shard line.
        let done = ToSupervisor::Done {
            unit_id: 9,
            row: sample_row(),
            anomalies: 1,
        }
        .to_json();
        assert_eq!(done.get("row"), Some(&Json::Str(sample_row().to_line())));
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
