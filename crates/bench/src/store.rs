//! CSV persistence for measured campaign results, so expensive campaigns
//! (fig1–fig6) can be run once and the derived tables/figures (Tables IV–V,
//! Figures 7–8) recomputed instantly.
//!
//! # Checkpointing
//!
//! The store doubles as a sweep checkpoint: [`ResultStore::append_row`]
//! flushes one finished campaign to disk immediately, and
//! [`ResultStore::from_csv`] applies rows in order with last-row-wins
//! semantics, so a file produced by an interrupted sweep (possibly with a
//! torn final line) reloads cleanly up to the last complete row and the
//! sweep driver re-runs only the missing campaigns.
//!
//! # Integrity (v2 format)
//!
//! A fault injector that studies silent data corruption must not itself
//! corrupt data silently. Version-2 checkpoint files carry:
//!
//! * a version line (`#mbu-results v2`) so future format changes are
//!   detected instead of misparsed;
//! * a per-row IEEE CRC-32 over the row body, so torn writes and flipped
//!   bits are caught on load;
//! * the golden-run fingerprint of each row's campaign
//!   ([`mbu_gefin::GoldenFingerprint`]), so results persisted by an older
//!   simulator build or different core configuration are detected as stale
//!   on resume and re-run instead of merged;
//! * the achieved error margin of each campaign, so derived tables can
//!   report statistical confidence per cell.
//!
//! [`ResultStore::recover`] is the crash-safe loading path: defective rows
//! are moved to a `<file>.quarantine` sidecar with a typed reason and the
//! survivors win; [`ResultStore::load`] is the strict path that refuses any
//! defect. Files written before the integrity layer (no version line, 10
//! fields, no CRC) still load through both paths via a migration shim —
//! their rows simply carry no fingerprint or margin.

use crate::io::{RealIo, StoreIo};
use mbu_cpu::HwComponent;
use mbu_gefin::campaign::{AnomalyLog, CampaignResult, UnitSpec};
use mbu_gefin::classify::ClassCounts;
use mbu_gefin::integrity::{crc32, GoldenFingerprint};
use mbu_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Key identifying one campaign.
pub type Key = (HwComponent, Workload, usize);

/// Why a store could not be read or written.
#[derive(Debug)]
pub enum StoreError {
    /// The CSV text is malformed at a specific line.
    Syntax {
        /// 1-based line number of the offending row.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A row's stored CRC-32 does not match its contents: the row was torn
    /// mid-write or corrupted at rest.
    CrcMismatch {
        /// 1-based line number of the corrupt row.
        line: usize,
        /// The checksum the row claims.
        stored: u32,
        /// The checksum its body actually has.
        computed: u32,
    },
    /// The file declares a format version this build does not understand.
    UnsupportedVersion {
        /// The version line as found.
        found: String,
    },
    /// An underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            StoreError::CrcMismatch {
                line,
                stored,
                computed,
            } => write!(
                f,
                "line {line}: CRC mismatch (stored {stored:08x}, computed {computed:08x})"
            ),
            StoreError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported store version {found:?} (this build reads v2)"
                )
            }
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The version line leading every v2 store file.
pub const STORE_VERSION_LINE: &str = "#mbu-results v2";

/// The fixed CSV header (v2: margin, fingerprint and CRC columns).
pub const CSV_HEADER: &str =
    "component,workload,faults,masked,sdc,crash,timeout,assert,cycles,instructions,margin,fingerprint,crc32";

/// The pre-integrity (v1) header, recognised by the migration shim.
pub const LEGACY_CSV_HEADER: &str =
    "component,workload,faults,masked,sdc,crash,timeout,assert,cycles,instructions";

/// Which on-disk format a file was parsed as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreVersion {
    /// Current: version line, CRC-checksummed rows, fingerprint + margin.
    V2,
    /// Pre-integrity files: bare 10-field rows, no checksums.
    Legacy,
}

/// Why a row was quarantined instead of loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowDefect {
    /// The row does not parse as a result row.
    Syntax {
        /// What was wrong with it.
        message: String,
    },
    /// The row parses but its checksum disagrees with its contents.
    CrcMismatch {
        /// The checksum the row claims.
        stored: u32,
        /// The checksum its body actually has.
        computed: u32,
    },
}

impl fmt::Display for RowDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowDefect::Syntax { message } => write!(f, "syntax: {message}"),
            RowDefect::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "crc mismatch (stored {stored:08x}, computed {computed:08x})"
                )
            }
        }
    }
}

/// One row set aside by lossy loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRow {
    /// 1-based line number in the source file.
    pub line: usize,
    /// The raw line text, verbatim.
    pub raw: String,
    /// Why it was rejected.
    pub defect: RowDefect,
}

/// What lossy loading found in a file.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadAudit {
    /// The format the file was parsed as.
    pub version: StoreVersion,
    /// Rows that loaded cleanly (before last-row-wins dedup).
    pub rows_loaded: usize,
    /// Rows set aside as defective.
    pub quarantined: Vec<QuarantinedRow>,
}

impl LoadAudit {
    fn empty() -> Self {
        Self {
            version: StoreVersion::V2,
            rows_loaded: 0,
            quarantined: Vec::new(),
        }
    }
}

/// The `.quarantine` sidecar for a checkpoint file.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(".quarantine");
    PathBuf::from(s)
}

/// The exhaustive-campaign annotation of a result row: how the row's
/// counts were produced from the fault-equivalence partition. Rows
/// carrying one have counts summing to the *whole* `bits × cycles`
/// population (weighted per class, or population-scaled for stratified
/// sampling — the two are told apart by the row's margin: exactly 0 means
/// provable full coverage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustiveMeta {
    /// Distinct live classes actually simulated.
    pub classes: u64,
    /// The fault-space population the counts cover (`bits × cycles`).
    pub weight: u64,
}

/// An in-memory, CSV-backed store of campaign results.
#[derive(Debug, Clone, Default)]
pub struct ResultStore {
    entries: BTreeMap<Key, CampaignResult>,
    fingerprints: BTreeMap<Key, GoldenFingerprint>,
    exhaustive_meta: BTreeMap<Key, ExhaustiveMeta>,
}

impl ResultStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a campaign result (replacing any previous entry for its
    /// key). Any stored fingerprint for the key is dropped — pair fresh
    /// results with their fingerprint via
    /// [`ResultStore::insert_with_fingerprint`].
    pub fn insert(&mut self, r: CampaignResult) {
        let key = (r.component, r.workload, r.faults);
        self.fingerprints.remove(&key);
        self.exhaustive_meta.remove(&key);
        self.entries.insert(key, r);
    }

    /// Inserts a campaign result stamped with the golden-run fingerprint it
    /// was measured under (`None` keeps the row unstamped, e.g. for legacy
    /// data).
    pub fn insert_with_fingerprint(
        &mut self,
        r: CampaignResult,
        fingerprint: Option<GoldenFingerprint>,
    ) {
        let key = (r.component, r.workload, r.faults);
        match fingerprint {
            Some(fp) => {
                self.fingerprints.insert(key, fp);
            }
            None => {
                self.fingerprints.remove(&key);
            }
        }
        self.exhaustive_meta.remove(&key);
        self.entries.insert(key, r);
    }

    /// [`ResultStore::insert_with_fingerprint`] for either flavor: with
    /// `Some(meta)` the result is an equivalence-class campaign carrying
    /// its [`ExhaustiveMeta`] annotation.
    pub fn insert_flavored(
        &mut self,
        r: CampaignResult,
        fingerprint: Option<GoldenFingerprint>,
        meta: Option<ExhaustiveMeta>,
    ) {
        let key = (r.component, r.workload, r.faults);
        self.insert_with_fingerprint(r, fingerprint);
        if let Some(meta) = meta {
            self.exhaustive_meta.insert(key, meta);
        }
    }

    /// The exhaustive annotation of a stored result, if it carries one.
    pub fn exhaustive_meta(
        &self,
        component: HwComponent,
        workload: Workload,
        faults: usize,
    ) -> Option<ExhaustiveMeta> {
        self.exhaustive_meta
            .get(&(component, workload, faults))
            .copied()
    }

    /// Looks up a campaign result.
    pub fn get(
        &self,
        component: HwComponent,
        workload: Workload,
        faults: usize,
    ) -> Option<&CampaignResult> {
        self.entries.get(&(component, workload, faults))
    }

    /// The golden-run fingerprint a stored result was measured under, if it
    /// carries one (legacy rows do not).
    pub fn fingerprint(
        &self,
        component: HwComponent,
        workload: Workload,
        faults: usize,
    ) -> Option<GoldenFingerprint> {
        self.fingerprints
            .get(&(component, workload, faults))
            .copied()
    }

    /// Whether a campaign for this key is already present.
    pub fn contains(&self, component: HwComponent, workload: Workload, faults: usize) -> bool {
        self.entries.contains_key(&(component, workload, faults))
    }

    /// Number of stored campaigns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all results.
    pub fn iter(&self) -> impl Iterator<Item = &CampaignResult> {
        self.entries.values()
    }

    /// Whether all 6 × 15 × 3 campaigns are present.
    pub fn is_complete(&self) -> bool {
        self.entries.len() == 6 * 15 * 3
    }

    /// Renders one result as a v2 CSV row (no trailing newline): 12 body
    /// fields (14 with an exhaustive annotation) plus the CRC-32 of the
    /// body text.
    ///
    /// The margin is serialized with Rust's shortest-roundtrip float
    /// formatting, so a saved and reloaded store is *bit-identical* — the
    /// chaos harness depends on this.
    fn csv_row(
        r: &CampaignResult,
        fingerprint: Option<GoldenFingerprint>,
        meta: Option<ExhaustiveMeta>,
    ) -> String {
        let margin = match r.achieved_margin {
            Some(m) => m.to_string(),
            None => "-".to_string(),
        };
        let fp = match fingerprint {
            Some(fp) => fp.to_string(),
            None => "-".to_string(),
        };
        let mut body = format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            component_slug(r.component),
            r.workload.name(),
            r.faults,
            r.counts.masked,
            r.counts.sdc,
            r.counts.crash,
            r.counts.timeout,
            r.counts.assert_,
            r.fault_free_cycles,
            r.fault_free_instructions,
            margin,
            fp,
        );
        if let Some(meta) = meta {
            body.push_str(&format!(",{},{}", meta.classes, meta.weight));
        }
        let crc = crc32(body.as_bytes());
        format!("{body},{crc:08x}")
    }

    /// Serializes to v2 CSV (version line, header, checksummed rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(STORE_VERSION_LINE);
        out.push('\n');
        out.push_str(CSV_HEADER);
        out.push('\n');
        for (key, r) in &self.entries {
            out.push_str(&Self::csv_row(
                r,
                self.fingerprints.get(key).copied(),
                self.exhaustive_meta.get(key).copied(),
            ));
            out.push('\n');
        }
        out
    }

    /// Parses one row body (v2: 12 fields, 14 with the exhaustive
    /// annotation; legacy: 10 fields) into a result, optional fingerprint
    /// and optional exhaustive meta. `Err` is a human-readable defect
    /// message.
    fn parse_body(
        fields: &[&str],
        legacy: bool,
    ) -> Result<
        (
            CampaignResult,
            Option<GoldenFingerprint>,
            Option<ExhaustiveMeta>,
        ),
        String,
    > {
        if legacy && fields.len() != 10 {
            return Err(format!("expected 10 fields, got {}", fields.len()));
        }
        if !legacy && fields.len() != 12 && fields.len() != 14 {
            return Err(format!(
                "expected 12 (sampled) or 14 (exhaustive) fields, got {}",
                fields.len()
            ));
        }
        let parse = |s: &str| -> Result<u64, String> {
            s.parse().map_err(|e| format!("{e} (field {s:?})"))
        };
        let (achieved_margin, fingerprint) = if legacy {
            (None, None)
        } else {
            let margin = match fields[10] {
                "-" => None,
                s => {
                    let m: f64 = s.parse().map_err(|e| format!("{e} (margin {s:?})"))?;
                    if !(m.is_finite() && (0.0..=1.0).contains(&m)) {
                        return Err(format!("margin {m} outside [0, 1]"));
                    }
                    Some(m)
                }
            };
            let fp = match fields[11] {
                "-" => None,
                s => {
                    if s.len() != 16 {
                        return Err(format!("fingerprint {s:?} is not 16 hex digits"));
                    }
                    Some(
                        s.parse::<GoldenFingerprint>()
                            .map_err(|e| format!("{e} (fingerprint {s:?})"))?,
                    )
                }
            };
            (margin, fp)
        };
        let result = CampaignResult {
            component: fields[0].parse().map_err(|e| format!("{e}"))?,
            workload: fields[1].parse().map_err(|e| format!("{e}"))?,
            faults: parse(fields[2])? as usize,
            counts: ClassCounts {
                masked: parse(fields[3])?,
                sdc: parse(fields[4])?,
                crash: parse(fields[5])?,
                timeout: parse(fields[6])?,
                assert_: parse(fields[7])?,
            },
            fault_free_cycles: parse(fields[8])?,
            fault_free_instructions: parse(fields[9])?,
            details: None,
            anomalies: AnomalyLog::new(),
            oracle_skips: 0,
            achieved_margin,
            snapshot_stats: None,
        };
        let meta = if fields.len() == 14 {
            let meta = ExhaustiveMeta {
                classes: parse(fields[12])?,
                weight: parse(fields[13])?,
            };
            // The defining invariant of the flavor: the counts cover the
            // whole fault-space population (weighted or population-scaled),
            // from no more simulations than the population holds.
            if result.counts.total() != meta.weight {
                return Err(format!(
                    "exhaustive counts sum to {} but claim a population of {}",
                    result.counts.total(),
                    meta.weight
                ));
            }
            if meta.classes > meta.weight {
                return Err(format!(
                    "{} simulated classes exceed the population {}",
                    meta.classes, meta.weight
                ));
            }
            Some(meta)
        } else {
            None
        };
        Ok((result, fingerprint, meta))
    }

    /// Checks a v2 row's CRC and parses it.
    #[allow(clippy::type_complexity)]
    fn parse_v2_row(
        line: &str,
    ) -> Result<
        (
            CampaignResult,
            Option<GoldenFingerprint>,
            Option<ExhaustiveMeta>,
        ),
        RowDefect,
    > {
        let syntax = |message: String| RowDefect::Syntax { message };
        let (body, crc_hex) = line
            .rsplit_once(',')
            .ok_or_else(|| syntax("row has no CRC field".into()))?;
        if crc_hex.len() != 8 {
            return Err(syntax(format!("CRC {crc_hex:?} is not 8 hex digits")));
        }
        let stored = u32::from_str_radix(crc_hex, 16)
            .map_err(|e| syntax(format!("{e} (CRC {crc_hex:?})")))?;
        let computed = crc32(body.as_bytes());
        if stored != computed {
            return Err(RowDefect::CrcMismatch { stored, computed });
        }
        let fields: Vec<&str> = body.split(',').collect();
        Self::parse_body(&fields, false).map_err(syntax)
    }

    /// Detects the file's format version. `Err` carries the offending
    /// version line.
    fn detect_version(csv: &str) -> Result<StoreVersion, String> {
        match csv.lines().next() {
            None => Ok(StoreVersion::V2),
            Some(first) if first.trim_start().starts_with('#') => {
                if first.trim() == STORE_VERSION_LINE {
                    Ok(StoreVersion::V2)
                } else {
                    Err(first.to_string())
                }
            }
            Some(_) => Ok(StoreVersion::Legacy),
        }
    }

    /// Parses store CSV, collecting defective rows instead of failing: each
    /// bad row becomes a [`QuarantinedRow`] and the survivors load with
    /// last-row-wins semantics. This is the resume path — a checkpoint with
    /// a torn final line or a flipped bit yields every intact campaign.
    ///
    /// # Errors
    ///
    /// Only [`StoreError::UnsupportedVersion`] — an unknown format version
    /// means *no* line can be trusted, so nothing is guessed.
    pub fn from_csv_lossy(csv: &str) -> Result<(Self, LoadAudit), StoreError> {
        let version =
            Self::detect_version(csv).map_err(|found| StoreError::UnsupportedVersion { found })?;
        let mut store = Self::new();
        let mut audit = LoadAudit {
            version,
            rows_loaded: 0,
            quarantined: Vec::new(),
        };
        // Line 1 is the version line (v2) or the header (legacy); line 2 of
        // a v2 file is the header. Both are skipped, not parsed as rows.
        let skip = match version {
            StoreVersion::V2 => 2,
            StoreVersion::Legacy => 1,
        };
        for (lineno, line) in csv.lines().enumerate().skip(skip) {
            if line.trim().is_empty() {
                continue;
            }
            let parsed = match version {
                StoreVersion::V2 => Self::parse_v2_row(line),
                StoreVersion::Legacy => {
                    let fields: Vec<&str> = line.split(',').collect();
                    Self::parse_body(&fields, true).map_err(|message| RowDefect::Syntax { message })
                }
            };
            match parsed {
                Ok((result, fingerprint, meta)) => {
                    store.insert_flavored(result, fingerprint, meta);
                    audit.rows_loaded += 1;
                }
                Err(defect) => audit.quarantined.push(QuarantinedRow {
                    line: lineno + 1,
                    raw: line.to_string(),
                    defect,
                }),
            }
        }
        Ok((store, audit))
    }

    /// Parses the CSV produced by [`ResultStore::to_csv`] /
    /// [`ResultStore::append_row`], strictly: any defective row is an
    /// error. Duplicate keys are legal (an appended checkpoint may
    /// re-measure a campaign); the last row wins. Pre-integrity (v1) files
    /// are accepted via the migration shim.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Syntax`] / [`StoreError::CrcMismatch`] with
    /// the line number on malformed rows and
    /// [`StoreError::UnsupportedVersion`] on unknown formats; never panics,
    /// whatever the input.
    pub fn from_csv(csv: &str) -> Result<Self, StoreError> {
        let (store, audit) = Self::from_csv_lossy(csv)?;
        if let Some(q) = audit.quarantined.first() {
            return Err(match &q.defect {
                RowDefect::Syntax { message } => StoreError::Syntax {
                    line: q.line,
                    message: message.clone(),
                },
                RowDefect::CrcMismatch { stored, computed } => StoreError::CrcMismatch {
                    line: q.line,
                    stored: *stored,
                    computed: *computed,
                },
            });
        }
        Ok(store)
    }

    /// Saves the whole store to a file atomically (temp file + rename),
    /// creating parent directories: a crash mid-save leaves the previous
    /// file intact, never a torn one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        self.save_with(&RealIo, path)
    }

    /// [`ResultStore::save`] through an injectable I/O layer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_with(&self, io: &dyn StoreIo, path: &Path) -> Result<(), StoreError> {
        io.write_atomic(path, &self.to_csv())?;
        Ok(())
    }

    /// Appends one finished campaign to the checkpoint file (creating it,
    /// with version line and header, if absent). This is the
    /// incremental-flush primitive the sweep driver calls after *every*
    /// campaign, so a killed sweep loses at most the campaign in flight.
    /// The data is synced to stable storage before returning.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append_row(path: &Path, r: &CampaignResult) -> Result<(), StoreError> {
        Self::append_row_with(&RealIo, path, r, None)
    }

    /// [`ResultStore::append_row`] through an injectable I/O layer, with
    /// the golden-run fingerprint the campaign was measured under. A
    /// pre-integrity (v1) checkpoint is upgraded to v2 in place (atomic
    /// rewrite) before the row is appended, so a file never mixes formats.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a corrupt legacy file surfaces its parse
    /// error rather than being silently rewritten.
    pub fn append_row_with(
        io: &dyn StoreIo,
        path: &Path,
        r: &CampaignResult,
        fingerprint: Option<GoldenFingerprint>,
    ) -> Result<(), StoreError> {
        Self::append_flavored_row_with(io, path, r, fingerprint, None)
    }

    /// [`ResultStore::append_row_with`] for either flavor: with
    /// `Some(meta)` the row is written with the two exhaustive columns.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a corrupt legacy file surfaces its parse
    /// error rather than being silently rewritten.
    pub fn append_flavored_row_with(
        io: &dyn StoreIo,
        path: &Path,
        r: &CampaignResult,
        fingerprint: Option<GoldenFingerprint>,
        meta: Option<ExhaustiveMeta>,
    ) -> Result<(), StoreError> {
        let row = Self::csv_row(r, fingerprint, meta);
        if io.len(path)? == 0 {
            // One append call for version + header + row: a single
            // crash-consistency unit, so no observable state has the header
            // without being a valid (empty-row-set) v2 file.
            io.append(
                path,
                &format!("{STORE_VERSION_LINE}\n{CSV_HEADER}\n{row}\n"),
            )?;
            return Ok(());
        }
        let text = io.read_to_string(path)?;
        if Self::detect_version(&text).map_err(|found| StoreError::UnsupportedVersion { found })?
            == StoreVersion::Legacy
        {
            let store = Self::from_csv(&text)?;
            io.write_atomic(path, &store.to_csv())?;
        }
        io.append(path, &format!("{row}\n"))?;
        Ok(())
    }

    /// Loads from a file, strictly: any defective row is an error.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and malformed-CSV errors.
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_csv(&text)
    }

    /// Crash-safe load: defective rows are moved to a `<file>.quarantine`
    /// sidecar (one line each: line number, typed reason, raw text) and the
    /// survivors returned. When anything was quarantined — or the file was
    /// in the legacy format — the main file is atomically rewritten as
    /// clean v2, so the defect is dealt with exactly once. A missing file
    /// yields an empty store.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and [`StoreError::UnsupportedVersion`].
    pub fn recover(path: &Path) -> Result<(Self, LoadAudit), StoreError> {
        Self::recover_with(&RealIo, path)
    }

    /// [`ResultStore::recover`] through an injectable I/O layer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and [`StoreError::UnsupportedVersion`].
    pub fn recover_with(io: &dyn StoreIo, path: &Path) -> Result<(Self, LoadAudit), StoreError> {
        let text = match io.read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok((Self::new(), LoadAudit::empty()))
            }
            Err(e) => return Err(e.into()),
        };
        let (store, audit) = Self::from_csv_lossy(&text)?;
        if !audit.quarantined.is_empty() {
            let mut sidecar = String::new();
            for q in &audit.quarantined {
                sidecar.push_str(&format!("line {}: {}: {}\n", q.line, q.defect, q.raw));
            }
            io.append(&quarantine_path(path), &sidecar)?;
        }
        if !audit.quarantined.is_empty() || audit.version == StoreVersion::Legacy {
            store.save_with(io, path)?;
        }
        Ok((store, audit))
    }
}

/// The version line of a worker shard store.
pub const SHARD_VERSION_LINE: &str = "#mbu-shard v1";

/// The fixed CSV header of a worker shard store. Exhaustive-flavor rows
/// append seven more columns (`w_masked..w_assert,weight,pruned`) between
/// `fingerprint` and `crc`, and whole-campaign stratified rows two more
/// (`margin_bits,simulated`); the parser dispatches on field count.
pub const SHARD_CSV_HEADER: &str = "component,workload,faults,start,end,seed,masked,sdc,crash,\
                                    timeout,assert,cycles,instructions,fingerprint,crc";

/// The stratified-sampler annotation of an exhaustive-flavor [`ShardRow`]:
/// present only on whole-campaign rows produced by the class-weighted
/// stratified sampler (L1/L2 scale), whose result carries a nonzero
/// achieved margin and a memoized distinct-class count that cannot be
/// recomputed from the weighted columns alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStratified {
    /// The achieved whole-population margin as IEEE-754 bits — transported
    /// exactly so the merged store is byte-identical to the single-process
    /// result's shortest-roundtrip rendering.
    pub margin_bits: u64,
    /// Distinct live classes simulated (the memo size).
    pub simulated: u64,
}

impl ShardStratified {
    /// The margin as a float.
    pub fn margin(self) -> f64 {
        f64::from_bits(self.margin_bits)
    }
}

/// The exhaustive-campaign annotation of a [`ShardRow`]: the row's
/// `[start, end)` range indexes *live equivalence classes* (not runs), its
/// standard counts are the unweighted per-class outcomes (so the
/// `total == len` invariant and the splice merge hold unchanged), and
/// these columns carry the population-weighted view the final result is
/// assembled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardExhaustive {
    /// Class outcomes multiplied by their class weights: the population
    /// mass this unit's classes account for, per effect.
    pub weighted: ClassCounts,
    /// The structure's whole fault-space population (`bits × cycles` of
    /// the fault-free run). Every row of a campaign must agree.
    pub weight_total: u64,
    /// Population mass of the provably-dead classes, credited `Masked`
    /// once at merge (never per row). Every row of a campaign must agree.
    pub pruned: u64,
    /// Stratified-sampler annotation; `None` on exhaustive class ranges.
    pub stratified: Option<ShardStratified>,
}

/// One completed work unit in a worker's shard store: the class counts of
/// a contiguous run-range `[start, end)` of one campaign, stamped with the
/// campaign seed it ran under and the golden-run fingerprint it was
/// classified against. Fingerprints are mandatory — shards are born
/// post-integrity, there is no legacy format to tolerate.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRow {
    /// The unit (campaign key + run-range) this row covers.
    pub unit: UnitSpec,
    /// The campaign seed runs were derived from.
    pub seed: u64,
    /// Classifications of the range's runs.
    pub counts: ClassCounts,
    /// Fault-free reference cycles (range-independent).
    pub fault_free_cycles: u64,
    /// Fault-free committed instructions (range-independent).
    pub fault_free_instructions: u64,
    /// Fingerprint of the golden run the range was classified against.
    pub fingerprint: GoldenFingerprint,
    /// Exhaustive-campaign weight columns; `None` on sampled-sweep rows.
    pub exhaustive: Option<ShardExhaustive>,
}

impl ShardRow {
    /// The dedup key the merge uses: identical (unit, range, seed) rows
    /// are the same work executed more than once.
    pub fn dedup_key(&self) -> (Key, usize, usize, u64) {
        (
            (self.unit.component, self.unit.workload, self.unit.faults),
            self.unit.start,
            self.unit.end,
            self.seed,
        )
    }
}

/// What a lossy shard-store load found.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLoadAudit {
    /// Intact rows loaded.
    pub rows_loaded: usize,
    /// Defective rows, in file order.
    pub quarantined: Vec<QuarantinedRow>,
}

impl ShardLoadAudit {
    /// The audit of an empty / missing file.
    pub fn empty() -> Self {
        Self {
            rows_loaded: 0,
            quarantined: Vec::new(),
        }
    }
}

/// Append-ordered store of [`ShardRow`]s — one worker's durable record of
/// every unit it completed. Unlike [`ResultStore`] it is *not* keyed:
/// duplicate and overlapping ranges are legal on disk (retries and resumed
/// sweeps with another worker count produce them) and are resolved by the
/// supervisor's merge, not the store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStore {
    rows: Vec<ShardRow>,
}

impl ShardStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row in memory.
    pub fn push(&mut self, row: ShardRow) {
        self.rows.push(row);
    }

    /// The rows, in append order.
    pub fn rows(&self) -> &[ShardRow] {
        &self.rows
    }

    /// Renders one row as CSV (no trailing newline): 14 body fields (21
    /// for exhaustive-flavor rows, 23 for stratified ones) plus the CRC-32
    /// of the body text.
    fn csv_row(r: &ShardRow) -> String {
        let mut body = format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            component_slug(r.unit.component),
            r.unit.workload.name(),
            r.unit.faults,
            r.unit.start,
            r.unit.end,
            r.seed,
            r.counts.masked,
            r.counts.sdc,
            r.counts.crash,
            r.counts.timeout,
            r.counts.assert_,
            r.fault_free_cycles,
            r.fault_free_instructions,
            r.fingerprint,
        );
        if let Some(ex) = &r.exhaustive {
            body.push_str(&format!(
                ",{},{},{},{},{},{},{}",
                ex.weighted.masked,
                ex.weighted.sdc,
                ex.weighted.crash,
                ex.weighted.timeout,
                ex.weighted.assert_,
                ex.weight_total,
                ex.pruned,
            ));
            if let Some(s) = &ex.stratified {
                body.push_str(&format!(",{},{}", s.margin_bits, s.simulated));
            }
        }
        let crc = crc32(body.as_bytes());
        format!("{body},{crc:08x}")
    }

    /// Serializes to shard CSV (version line, header, checksummed rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(SHARD_VERSION_LINE);
        out.push('\n');
        out.push_str(SHARD_CSV_HEADER);
        out.push('\n');
        for r in &self.rows {
            out.push_str(&Self::csv_row(r));
            out.push('\n');
        }
        out
    }

    /// Checks a row's CRC and parses it.
    fn parse_row(line: &str) -> Result<ShardRow, RowDefect> {
        let syntax = |message: String| RowDefect::Syntax { message };
        let (body, crc_hex) = line
            .rsplit_once(',')
            .ok_or_else(|| syntax("row has no CRC field".into()))?;
        if crc_hex.len() != 8 {
            return Err(syntax(format!("CRC {crc_hex:?} is not 8 hex digits")));
        }
        let stored = u32::from_str_radix(crc_hex, 16)
            .map_err(|e| syntax(format!("{e} (CRC {crc_hex:?})")))?;
        let computed = crc32(body.as_bytes());
        if stored != computed {
            return Err(RowDefect::CrcMismatch { stored, computed });
        }
        let fields: Vec<&str> = body.split(',').collect();
        if fields.len() != 14 && fields.len() != 21 && fields.len() != 23 {
            return Err(syntax(format!(
                "expected 14 (sampled), 21 (exhaustive) or 23 (stratified) fields, got {}",
                fields.len()
            )));
        }
        let parse = |s: &str| -> Result<u64, RowDefect> {
            s.parse().map_err(|e| syntax(format!("{e} (field {s:?})")))
        };
        let fp = fields[13];
        if fp.len() != 16 {
            return Err(syntax(format!("fingerprint {fp:?} is not 16 hex digits")));
        }
        let unit = UnitSpec {
            component: fields[0].parse().map_err(|e| syntax(format!("{e}")))?,
            workload: fields[1].parse().map_err(|e| syntax(format!("{e}")))?,
            faults: parse(fields[2])? as usize,
            start: parse(fields[3])? as usize,
            end: parse(fields[4])? as usize,
        };
        if unit.is_empty() {
            return Err(syntax(format!(
                "empty run-range [{}..{})",
                unit.start, unit.end
            )));
        }
        let counts = ClassCounts {
            masked: parse(fields[6])?,
            sdc: parse(fields[7])?,
            crash: parse(fields[8])?,
            timeout: parse(fields[9])?,
            assert_: parse(fields[10])?,
        };
        if counts.total() != unit.len() as u64 {
            return Err(syntax(format!(
                "counts sum to {} but the range holds {} runs",
                counts.total(),
                unit.len()
            )));
        }
        let exhaustive = if fields.len() >= 21 {
            let stratified = if fields.len() == 23 {
                let s = ShardStratified {
                    margin_bits: parse(fields[21])?,
                    simulated: parse(fields[22])?,
                };
                let margin = s.margin();
                if !margin.is_finite() || !(0.0..=1.0).contains(&margin) {
                    return Err(syntax(format!(
                        "stratified margin bits {:#x} decode to {margin}, not a fraction",
                        s.margin_bits
                    )));
                }
                // A stratified row is whole-campaign by construction.
                if (unit.start, unit.end) != (0, 1) {
                    return Err(syntax(format!(
                        "stratified rows cover the whole campaign, not [{}..{})",
                        unit.start, unit.end
                    )));
                }
                Some(s)
            } else {
                None
            };
            let ex = ShardExhaustive {
                weighted: ClassCounts {
                    masked: parse(fields[14])?,
                    sdc: parse(fields[15])?,
                    crash: parse(fields[16])?,
                    timeout: parse(fields[17])?,
                    assert_: parse(fields[18])?,
                },
                weight_total: parse(fields[19])?,
                pruned: parse(fields[20])?,
                stratified,
            };
            // Each class carries weight ≥ 1, and this unit's live mass plus
            // the dead mass can never exceed the whole population. A
            // stratified row covers the live stratum as one synthetic unit,
            // so only the population bound applies (its live mass may even
            // be zero when every class is provably dead).
            if stratified.is_none() && ex.weighted.total() < unit.len() as u64 {
                return Err(syntax(format!(
                    "weighted counts sum to {} but the range holds {} classes",
                    ex.weighted.total(),
                    unit.len()
                )));
            }
            if ex.weighted.total().saturating_add(ex.pruned) > ex.weight_total {
                return Err(syntax(format!(
                    "weighted mass {} + pruned {} exceeds the population {}",
                    ex.weighted.total(),
                    ex.pruned,
                    ex.weight_total
                )));
            }
            Some(ex)
        } else {
            None
        };
        Ok(ShardRow {
            unit,
            seed: parse(fields[5])?,
            counts,
            fault_free_cycles: parse(fields[11])?,
            fault_free_instructions: parse(fields[12])?,
            fingerprint: fp
                .parse()
                .map_err(|e| syntax(format!("{e} (fingerprint {fp:?})")))?,
            exhaustive,
        })
    }

    /// Parses shard CSV, quarantining defective rows instead of failing —
    /// the merge path: a shard with a torn final line (its worker was
    /// killed mid-append) yields every intact unit.
    ///
    /// # Errors
    ///
    /// Only [`StoreError::UnsupportedVersion`]: a file that does not open
    /// with the shard version line is not a shard store, and none of its
    /// lines can be trusted as rows.
    pub fn from_csv_lossy(csv: &str) -> Result<(Self, ShardLoadAudit), StoreError> {
        match csv.lines().next() {
            None => return Ok((Self::new(), ShardLoadAudit::empty())),
            Some(first) if first.trim() == SHARD_VERSION_LINE => {}
            Some(first) => {
                return Err(StoreError::UnsupportedVersion {
                    found: first.to_string(),
                })
            }
        }
        let mut store = Self::new();
        let mut audit = ShardLoadAudit::empty();
        // Line 1 is the version line, line 2 the header.
        for (lineno, line) in csv.lines().enumerate().skip(2) {
            if line.trim().is_empty() {
                continue;
            }
            match Self::parse_row(line) {
                Ok(row) => {
                    store.push(row);
                    audit.rows_loaded += 1;
                }
                Err(defect) => audit.quarantined.push(QuarantinedRow {
                    line: lineno + 1,
                    raw: line.to_string(),
                    defect,
                }),
            }
        }
        Ok((store, audit))
    }

    /// Appends one completed unit to the shard file (creating it, with
    /// version line and header, if absent), synced to stable storage
    /// before returning — the worker's durability point: a unit is only
    /// reported `done` after this call succeeds.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append_row_with(
        io: &dyn StoreIo,
        path: &Path,
        row: &ShardRow,
    ) -> Result<(), StoreError> {
        let line = Self::csv_row(row);
        if io.len(path)? == 0 {
            io.append(
                path,
                &format!("{SHARD_VERSION_LINE}\n{SHARD_CSV_HEADER}\n{line}\n"),
            )?;
            return Ok(());
        }
        io.append(path, &format!("{line}\n"))?;
        Ok(())
    }

    /// Crash-safe load: defective rows are moved to a `<file>.quarantine`
    /// sidecar and the survivors returned; when anything was quarantined
    /// the file is atomically rewritten clean. A missing file yields an
    /// empty store.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and [`StoreError::UnsupportedVersion`].
    pub fn recover_with(
        io: &dyn StoreIo,
        path: &Path,
    ) -> Result<(Self, ShardLoadAudit), StoreError> {
        let text = match io.read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok((Self::new(), ShardLoadAudit::empty()))
            }
            Err(e) => return Err(e.into()),
        };
        let (store, audit) = Self::from_csv_lossy(&text)?;
        if !audit.quarantined.is_empty() {
            let mut sidecar = String::new();
            for q in &audit.quarantined {
                sidecar.push_str(&format!("line {}: {}: {}\n", q.line, q.defect, q.raw));
            }
            io.append(&quarantine_path(path), &sidecar)?;
            io.write_atomic(path, &store.to_csv())?;
        }
        Ok((store, audit))
    }
}

/// One analytically-derived AVF measurement (ACE-style fault-free capture).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticalRow {
    /// Component whose data array was observed.
    pub component: HwComponent,
    /// Workload driving the observation run.
    pub workload: Workload,
    /// `live-bit-cycles / (bits × cycles)` of the fault-free run.
    pub analytical_avf: f64,
    /// Cycles of the observation run.
    pub total_cycles: u64,
}

/// The fixed CSV header of the analytical-AVF checkpoint.
pub const ANALYTICAL_CSV_HEADER: &str = "component,workload,analytical_avf,total_cycles";

/// CSV-backed store of analytical AVF captures, with the same
/// incremental-checkpoint semantics as [`ResultStore`]: one row per
/// finished (component, workload) capture, last row wins on reload.
#[derive(Debug, Clone, Default)]
pub struct AnalyticalStore {
    entries: BTreeMap<(HwComponent, Workload), AnalyticalRow>,
}

impl AnalyticalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a row (replacing any previous entry for its key).
    pub fn insert(&mut self, row: AnalyticalRow) {
        self.entries.insert((row.component, row.workload), row);
    }

    /// Looks up a capture.
    pub fn get(&self, component: HwComponent, workload: Workload) -> Option<&AnalyticalRow> {
        self.entries.get(&(component, workload))
    }

    /// Whether a capture for this key is already present.
    pub fn contains(&self, component: HwComponent, workload: Workload) -> bool {
        self.entries.contains_key(&(component, workload))
    }

    /// Number of stored captures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all rows.
    pub fn iter(&self) -> impl Iterator<Item = &AnalyticalRow> {
        self.entries.values()
    }

    fn csv_row(r: &AnalyticalRow) -> String {
        format!(
            "{},{},{},{}",
            component_slug(r.component),
            r.workload.name(),
            r.analytical_avf,
            r.total_cycles,
        )
    }

    /// Serializes to CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(ANALYTICAL_CSV_HEADER);
        out.push('\n');
        for r in self.entries.values() {
            out.push_str(&Self::csv_row(r));
            out.push('\n');
        }
        out
    }

    /// Parses the CSV produced by [`AnalyticalStore::to_csv`] /
    /// [`AnalyticalStore::append_row`] (duplicates legal, last row wins).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Syntax`] with the line number on malformed rows.
    pub fn from_csv(csv: &str) -> Result<Self, StoreError> {
        let mut store = Self::new();
        for (lineno, line) in csv.lines().enumerate().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            let syntax = |message: String| StoreError::Syntax {
                line: lineno + 1,
                message,
            };
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 4 {
                return Err(syntax(format!("expected 4 fields, got {}", f.len())));
            }
            let avf: f64 = f[2]
                .parse()
                .map_err(|e| syntax(format!("{e} (field {:?})", f[2])))?;
            if !(0.0..=1.0).contains(&avf) {
                return Err(syntax(format!("AVF {avf} outside [0, 1]")));
            }
            store.insert(AnalyticalRow {
                component: f[0].parse().map_err(|e| syntax(format!("{e}")))?,
                workload: f[1].parse().map_err(|e| syntax(format!("{e}")))?,
                analytical_avf: avf,
                total_cycles: f[3]
                    .parse()
                    .map_err(|e| syntax(format!("{e} (field {:?})", f[3])))?,
            });
        }
        Ok(store)
    }

    /// Appends one finished capture to the checkpoint file (creating it,
    /// with header, if absent).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append_row(path: &Path, r: &AnalyticalRow) -> Result<(), StoreError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if file.metadata()?.len() == 0 {
            writeln!(file, "{ANALYTICAL_CSV_HEADER}")?;
        }
        writeln!(file, "{}", Self::csv_row(r))?;
        Ok(())
    }

    /// Loads from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and malformed-CSV errors.
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_csv(&text)
    }
}

/// Parseable slug for a component.
pub fn component_slug(c: HwComponent) -> &'static str {
    match c {
        HwComponent::L1D => "l1d",
        HwComponent::L1I => "l1i",
        HwComponent::L2 => "l2",
        HwComponent::RegFile => "regfile",
        HwComponent::DTlb => "dtlb",
        HwComponent::ITlb => "itlb",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(component: HwComponent, workload: Workload, faults: usize) -> CampaignResult {
        CampaignResult {
            component,
            workload,
            faults,
            counts: ClassCounts {
                masked: 90,
                sdc: 5,
                crash: 3,
                timeout: 1,
                assert_: 1,
            },
            fault_free_cycles: 12345,
            fault_free_instructions: 6789,
            details: None,
            anomalies: AnomalyLog::new(),
            oracle_skips: 0,
            achieved_margin: Some(0.0275),
            snapshot_stats: None,
        }
    }

    #[test]
    fn csv_roundtrip() {
        let mut s = ResultStore::new();
        s.insert(sample(HwComponent::L1D, Workload::Sha, 1));
        s.insert_with_fingerprint(
            sample(HwComponent::ITlb, Workload::Crc32, 3),
            Some(GoldenFingerprint(0xDEAD_BEEF_0123_4567)),
        );
        let csv = s.to_csv();
        assert!(csv.starts_with(STORE_VERSION_LINE));
        let back = ResultStore::from_csv(&csv).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(
            back.get(HwComponent::L1D, Workload::Sha, 1).unwrap(),
            s.get(HwComponent::L1D, Workload::Sha, 1).unwrap()
        );
        assert_eq!(
            back.fingerprint(HwComponent::ITlb, Workload::Crc32, 3),
            Some(GoldenFingerprint(0xDEAD_BEEF_0123_4567))
        );
        assert_eq!(back.fingerprint(HwComponent::L1D, Workload::Sha, 1), None);
        // Margin roundtrips exactly (shortest-roundtrip float formatting).
        assert_eq!(
            back.get(HwComponent::L1D, Workload::Sha, 1)
                .unwrap()
                .achieved_margin,
            Some(0.0275)
        );
        // Serialize-again is bit-identical.
        assert_eq!(back.to_csv(), csv);
    }

    /// An exhaustive sample: weighted counts covering the whole population
    /// (the flavor's defining invariant), margin exactly 0.
    fn exhaustive_sample(component: HwComponent, workload: Workload) -> CampaignResult {
        let mut r = sample(component, workload, 1);
        r.achieved_margin = Some(0.0);
        r
    }

    #[test]
    fn exhaustive_flavor_roundtrips_meta_and_checkpoints() {
        let meta = ExhaustiveMeta {
            classes: 7,
            weight: 100, // == sample counts.total()
        };
        let mut s = ResultStore::new();
        s.insert_flavored(
            exhaustive_sample(HwComponent::DTlb, Workload::Sha),
            Some(GoldenFingerprint(0x0123_4567_89AB_CDEF)),
            Some(meta),
        );
        s.insert(sample(HwComponent::L1D, Workload::Sha, 1));
        let csv = s.to_csv();
        let back = ResultStore::from_csv(&csv).unwrap();
        assert_eq!(
            back.exhaustive_meta(HwComponent::DTlb, Workload::Sha, 1),
            Some(meta)
        );
        assert_eq!(
            back.exhaustive_meta(HwComponent::L1D, Workload::Sha, 1),
            None,
            "sampled rows carry no annotation"
        );
        assert_eq!(back.to_csv(), csv, "serialize-again is bit-identical");
        // A plain re-measurement of the key drops the stale annotation.
        let mut s = back;
        s.insert(sample(HwComponent::DTlb, Workload::Sha, 1));
        assert_eq!(s.exhaustive_meta(HwComponent::DTlb, Workload::Sha, 1), None);

        // The incremental checkpoint path writes and reloads the flavor.
        let dir = std::env::temp_dir().join(format!("mbu-store-flavor-{}", std::process::id()));
        let path = dir.join("exhaustive.csv");
        let _ = std::fs::remove_file(&path);
        ResultStore::append_flavored_row_with(
            &RealIo,
            &path,
            &exhaustive_sample(HwComponent::ITlb, Workload::Qsort),
            None,
            Some(meta),
        )
        .unwrap();
        let loaded = ResultStore::load(&path).unwrap();
        assert_eq!(
            loaded.exhaustive_meta(HwComponent::ITlb, Workload::Qsort, 1),
            Some(meta)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rows whose class/weight columns don't reconcile with the counts are
    /// typed syntax defects even with a valid CRC — the weight-multiply
    /// must never load a row that claims more (or less) than it covers.
    #[test]
    fn exhaustive_flavor_validation_rejects_unreconciled_rows() {
        let tampered_csv = |classes: u64, weight: u64| {
            let r = exhaustive_sample(HwComponent::DTlb, Workload::Sha);
            let mut s = ResultStore::new();
            s.insert_flavored(r, None, Some(ExhaustiveMeta { classes, weight }));
            s.to_csv()
        };
        // Re-checksum a body so only the semantic validation can object.
        let reseal = |csv: &str, from: &str, to: &str| {
            let row = csv.lines().nth(2).expect("one data row");
            let (body, _) = row.rsplit_once(',').expect("crc field");
            let body = body.replacen(from, to, 1);
            assert_ne!(body, row, "tamper must apply");
            let crc = crc32(body.as_bytes());
            format!("{}\n{}\n{body},{crc:08x}\n", STORE_VERSION_LINE, CSV_HEADER)
        };
        let good = tampered_csv(7, 100);
        assert!(ResultStore::from_csv(&good).is_ok());
        // Weight disagreeing with the counts sum.
        let bad_weight = reseal(&good, ",7,100", ",7,101");
        match ResultStore::from_csv(&bad_weight) {
            Err(StoreError::Syntax { message, .. }) => {
                assert!(message.contains("claim a population"), "{message}")
            }
            other => panic!("expected syntax defect, got {other:?}"),
        }
        // More simulated classes than the population holds. (The counts
        // must still sum to the claimed weight to reach the class check.)
        let bad_classes = reseal(&tampered_csv(7, 100), ",7,100", ",101,100");
        match ResultStore::from_csv(&bad_classes) {
            Err(StoreError::Syntax { message, .. }) => {
                assert!(message.contains("exceed the population"), "{message}")
            }
            other => panic!("expected syntax defect, got {other:?}"),
        }
    }

    #[test]
    fn malformed_csv_rejected() {
        assert!(ResultStore::from_csv("header\nbad,row\n").is_err());
        assert!(ResultStore::from_csv("h\nl1d,sha,1,a,b,c,d,e,f,g\n").is_err());
        assert!(ResultStore::from_csv("h\nnope,sha,1,1,1,1,1,1,1,1\n").is_err());
    }

    #[test]
    fn garbage_and_truncation_return_typed_errors_not_panics() {
        // Binary garbage.
        let garbage = "\u{0}\u{1}\u{2}\nl1d,\u{fffd},x,y\n";
        match ResultStore::from_csv(garbage) {
            Err(StoreError::Syntax { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected syntax error, got {other:?}"),
        }
        // A checkpoint whose last row was torn mid-write.
        let mut s = ResultStore::new();
        s.insert(sample(HwComponent::L1D, Workload::Sha, 1));
        let full = s.to_csv();
        // Tear the row inside its final field, comma included, so the line
        // is left without its CRC.
        let torn = &full[..full.rfind(',').unwrap()];
        let err = ResultStore::from_csv(torn).unwrap_err();
        assert!(
            matches!(err, StoreError::Syntax { .. }),
            "torn row is a syntax error: {err}"
        );
        // Negative and overflowing numeric fields (legacy format).
        assert!(ResultStore::from_csv("h\nl1d,sha,1,-5,1,1,1,1,1,1\n").is_err());
        assert!(
            ResultStore::from_csv("h\nl1d,sha,1,999999999999999999999999,1,1,1,1,1,1\n").is_err()
        );
    }

    #[test]
    fn flipped_bit_is_a_crc_mismatch() {
        let mut s = ResultStore::new();
        s.insert(sample(HwComponent::L1D, Workload::Sha, 1));
        let csv = s.to_csv();
        // Flip a digit inside the masked count (body, not CRC field).
        let corrupted = csv.replacen(",90,", ",91,", 1);
        assert_ne!(corrupted, csv, "corruption must have been applied");
        match ResultStore::from_csv(&corrupted) {
            Err(StoreError::CrcMismatch { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected CRC mismatch, got {other:?}"),
        }
        // Lossy loading quarantines it instead.
        let (store, audit) = ResultStore::from_csv_lossy(&corrupted).unwrap();
        assert!(store.is_empty());
        assert_eq!(audit.quarantined.len(), 1);
        assert!(matches!(
            audit.quarantined[0].defect,
            RowDefect::CrcMismatch { .. }
        ));
    }

    #[test]
    fn legacy_v1_files_load_without_integrity_columns() {
        let legacy = format!("{LEGACY_CSV_HEADER}\nl1d,sha,1,90,5,3,1,1,12345,6789\n");
        let (store, audit) = ResultStore::from_csv_lossy(&legacy).unwrap();
        assert_eq!(audit.version, StoreVersion::Legacy);
        assert_eq!(store.len(), 1);
        let r = store.get(HwComponent::L1D, Workload::Sha, 1).unwrap();
        assert_eq!(r.achieved_margin, None, "legacy rows carry no margin");
        assert_eq!(
            store.fingerprint(HwComponent::L1D, Workload::Sha, 1),
            None,
            "legacy rows carry no fingerprint"
        );
        // The strict path accepts them too.
        assert_eq!(ResultStore::from_csv(&legacy).unwrap().len(), 1);
    }

    #[test]
    fn unknown_version_is_refused_not_guessed() {
        let future = "#mbu-results v99\nanything\n";
        assert!(matches!(
            ResultStore::from_csv(future),
            Err(StoreError::UnsupportedVersion { .. })
        ));
        assert!(matches!(
            ResultStore::from_csv_lossy(future),
            Err(StoreError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn completeness_check() {
        let mut s = ResultStore::new();
        for c in HwComponent::ALL {
            for w in Workload::ALL {
                for f in 1..=3 {
                    s.insert(sample(c, w, f));
                }
            }
        }
        assert!(s.is_complete());
        assert_eq!(s.len(), 270);
    }

    #[test]
    fn insert_replaces_same_key_and_drops_stale_fingerprint() {
        let mut s = ResultStore::new();
        s.insert_with_fingerprint(
            sample(HwComponent::L2, Workload::Fft, 2),
            Some(GoldenFingerprint(42)),
        );
        let mut newer = sample(HwComponent::L2, Workload::Fft, 2);
        newer.counts.masked = 1;
        s.insert(newer.clone());
        assert_eq!(s.len(), 1);
        assert_eq!(
            s.get(HwComponent::L2, Workload::Fft, 2)
                .unwrap()
                .counts
                .masked,
            1
        );
        assert_eq!(
            s.fingerprint(HwComponent::L2, Workload::Fft, 2),
            None,
            "plain insert must not keep a fingerprint it was not measured under"
        );
    }

    #[test]
    fn append_row_checkpoints_incrementally() {
        let dir = std::env::temp_dir().join(format!("mbu-store-test-{}", std::process::id()));
        let path = dir.join("checkpoint.csv");
        let _ = std::fs::remove_file(&path);
        let a = sample(HwComponent::L1D, Workload::Sha, 1);
        let b = sample(HwComponent::RegFile, Workload::Fft, 2);
        ResultStore::append_row(&path, &a).unwrap();
        ResultStore::append_row(&path, &b).unwrap();
        // Re-measurement of the same key appends; last row wins on load.
        let mut newer = a.clone();
        newer.counts.masked = 42;
        ResultStore::append_row(&path, &newer).unwrap();
        let loaded = ResultStore::load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(
            loaded
                .get(HwComponent::L1D, Workload::Sha, 1)
                .unwrap()
                .counts
                .masked,
            42
        );
        assert!(loaded.contains(HwComponent::RegFile, Workload::Fft, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_upgrades_legacy_checkpoint_in_place() {
        let dir = std::env::temp_dir().join(format!("mbu-store-upgrade-{}", std::process::id()));
        let path = dir.join("checkpoint.csv");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            &path,
            format!("{LEGACY_CSV_HEADER}\nl1d,sha,1,90,5,3,1,1,12345,6789\n"),
        )
        .unwrap();
        let b = sample(HwComponent::RegFile, Workload::Fft, 2);
        ResultStore::append_row_with(&RealIo, &path, &b, Some(GoldenFingerprint(7))).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with(STORE_VERSION_LINE),
            "upgraded to v2: {text}"
        );
        let loaded = ResultStore::load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert!(loaded.contains(HwComponent::L1D, Workload::Sha, 1));
        assert_eq!(
            loaded.fingerprint(HwComponent::RegFile, Workload::Fft, 2),
            Some(GoldenFingerprint(7))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_quarantines_bad_rows_and_rewrites_clean_file() {
        let dir = std::env::temp_dir().join(format!("mbu-store-recover-{}", std::process::id()));
        let path = dir.join("checkpoint.csv");
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = ResultStore::new();
        s.insert(sample(HwComponent::L1D, Workload::Sha, 1));
        s.insert(sample(HwComponent::L2, Workload::Fft, 2));
        let mut text = s.to_csv();
        text.push_str("complete,garbage,row\n");
        std::fs::write(&path, &text).unwrap();
        let (recovered, audit) = ResultStore::recover(&path).unwrap();
        assert_eq!(recovered.len(), 2, "survivors load");
        assert_eq!(audit.quarantined.len(), 1);
        // The sidecar holds the quarantined row with its reason.
        let sidecar = std::fs::read_to_string(quarantine_path(&path)).unwrap();
        assert!(sidecar.contains("complete,garbage,row"), "{sidecar}");
        assert!(sidecar.contains("syntax"), "{sidecar}");
        // The main file was rewritten clean: strict load now succeeds and a
        // second recover quarantines nothing.
        assert_eq!(ResultStore::load(&path).unwrap().len(), 2);
        let (_, audit2) = ResultStore::recover(&path).unwrap();
        assert!(audit2.quarantined.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_missing_file_is_empty_store() {
        let path = std::env::temp_dir().join(format!(
            "mbu-store-missing-{}/never-written.csv",
            std::process::id()
        ));
        let (store, audit) = ResultStore::recover(&path).unwrap();
        assert!(store.is_empty());
        assert!(audit.quarantined.is_empty());
    }

    #[test]
    fn save_is_atomic_leaving_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("mbu-store-atomic-{}", std::process::id()));
        let path = dir.join("out.csv");
        let mut s = ResultStore::new();
        s.insert(sample(HwComponent::L1D, Workload::Sha, 1));
        s.save(&path).unwrap();
        assert_eq!(ResultStore::load(&path).unwrap().len(), 1);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analytical_store_roundtrips_and_checkpoints() {
        let mut s = AnalyticalStore::new();
        s.insert(AnalyticalRow {
            component: HwComponent::L1D,
            workload: Workload::Sha,
            analytical_avf: 0.03125,
            total_cycles: 54321,
        });
        s.insert(AnalyticalRow {
            component: HwComponent::RegFile,
            workload: Workload::Qsort,
            analytical_avf: 0.25,
            total_cycles: 999,
        });
        let back = AnalyticalStore::from_csv(&s.to_csv()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(
            back.get(HwComponent::L1D, Workload::Sha),
            s.get(HwComponent::L1D, Workload::Sha)
        );
        // Malformed rows are typed errors.
        assert!(AnalyticalStore::from_csv("h\nl1d,sha,notafloat,1\n").is_err());
        assert!(
            AnalyticalStore::from_csv("h\nl1d,sha,1.5,1\n").is_err(),
            "AVF > 1 rejected"
        );
        assert!(
            AnalyticalStore::from_csv("h\nl1d,sha,0.5\n").is_err(),
            "missing field"
        );
        // Incremental checkpoint with last-row-wins reload.
        let dir = std::env::temp_dir().join(format!("mbu-astore-test-{}", std::process::id()));
        let path = dir.join("analytical.csv");
        let _ = std::fs::remove_file(&path);
        let row = AnalyticalRow {
            component: HwComponent::L2,
            workload: Workload::Fft,
            analytical_avf: 0.001,
            total_cycles: 10,
        };
        AnalyticalStore::append_row(&path, &row).unwrap();
        let mut newer = row.clone();
        newer.analytical_avf = 0.002;
        AnalyticalStore::append_row(&path, &newer).unwrap();
        let loaded = AnalyticalStore::load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(
            loaded
                .get(HwComponent::L2, Workload::Fft)
                .unwrap()
                .analytical_avf,
            0.002
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = ResultStore::load(Path::new("/nonexistent/dir/store.csv")).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
    }
}
