//! The benchmark's metric schema and its result line.
//!
//! `BENCHMARK.json` at the repository root is the single source of the
//! workload and metric names: it is embedded at build time and parsed here.

use mbu_gefin::json::Json;

/// `BENCHMARK.json`, as built into the binary.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A metric: name and unit.
pub type Def = (String, String);

/// The workloads and metrics `BENCHMARK.json` names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, reported with tracing off.
    pub end_to_end: Vec<Def>,
    /// Per-layer metrics, reported by the traced run.
    pub per_layer: Vec<Def>,
}

impl Schema {
    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// Invalid JSON, or a list or entry missing a `name` (or a metric's
    /// `unit`).
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let field = |entry: &Json, key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: an entry lacks `{key}`"))
        };
        let defs = |key: &str| -> Result<Vec<Def>, String> {
            list(key)?
                .iter()
                .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
                .collect()
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }

    /// The embedded `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// As [`Schema::parse`].
    pub fn embedded() -> Result<Self, String> {
        Self::parse(BENCHMARK_JSON)
    }
}

/// Whether `name` is a valid metric or workload name: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Renders the result line: `correct`, `attempted`, `failed`, and one
/// `{value, unit}` per metric of `defs`, taken from `values`. Non-finite
/// values read 0 so the line stays valid JSON.
///
/// # Errors
///
/// A metric of `defs` without a value, or a value no metric of `defs`
/// names: the schema and the measurements have drifted apart.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &[(&str, f64)],
) -> Result<String, String> {
    if let Some((name, _)) = values.iter().find(|(n, _)| !defs.iter().any(|d| d.0 == *n)) {
        return Err(format!("metric `{name}` is not in BENCHMARK.json"));
    }
    let metrics = defs
        .iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| if v.is_finite() { v } else { 0.0 })
                .ok_or(format!(
                    "BENCHMARK.json names `{name}`, which is not measured"
                ))?;
            Ok((
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::f64(value)),
                    ("unit".into(), Json::str(unit)),
                ]),
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(attempted)),
        ("failed".into(), Json::u64(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .encode())
}
