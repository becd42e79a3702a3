//! The README's "Configuration knobs" table is the one list of `MBU_*`
//! environment variables, and this suite keeps it true in both
//! directions:
//!
//! * every quoted `MBU_…` string literal under `crates/`, and every
//!   `MBU_…` name in the CI workflow, has a row — so a caller that still
//!   sets a retired knob fails here instead of silently doing nothing;
//! * every row names a variable that non-test code under `crates/*/src`
//!   reads — so a retired knob cannot linger in the documentation;
//! * the table's length is pinned, so the knob count only changes on
//!   purpose.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `MBU_` names in `text`: maximal `MBU_[A-Z0-9_]+` runs, each reported
/// with whether it sits between double quotes.
fn knob_names(text: &str) -> Vec<(String, bool)> {
    let bytes = text.as_bytes();
    let mut names = Vec::new();
    let mut i = 0;
    while let Some(at) = text[i..].find("MBU_") {
        let start = i + at;
        let mut end = start + 4;
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        let preceded =
            start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        if end > start + 4 && !preceded {
            let quoted = start > 0 && bytes[start - 1] == b'"' && bytes.get(end) == Some(&b'"');
            names.push((text[start..end].to_string(), quoted));
        }
        i = end;
    }
    names
}

/// The knob names of the README table: the first cell of every row in the
/// "Configuration knobs" section.
fn documented() -> BTreeSet<String> {
    let readme = read(&repo_root().join("README.md"));
    let section = readme
        .split("### Configuration knobs")
        .nth(1)
        .expect("README has a Configuration knobs section");
    let section = section.split("\n#").next().unwrap();
    let rows: BTreeSet<String> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .map(String::from)
        .collect();
    assert!(!rows.is_empty(), "the knob table has no rows");
    for row in &rows {
        assert_eq!(
            knob_names(row),
            vec![(row.clone(), false)],
            "a row's first cell is exactly one MBU_ name: {row:?}"
        );
    }
    rows
}

/// Non-test source: a file's text up to its `#[cfg(test)]` module.
fn non_test_source(text: &str) -> &str {
    text.split("#[cfg(test)]").next().unwrap()
}

#[test]
fn every_knob_in_code_and_ci_has_a_readme_row() {
    let table = documented();
    let mut files = Vec::new();
    rust_files(&repo_root().join("crates"), &mut files);
    let mut missing = BTreeSet::new();
    for file in &files {
        for (name, quoted) in knob_names(&read(file)) {
            if quoted && !table.contains(&name) {
                missing.insert(format!("{name} (quoted in {})", file.display()));
            }
        }
    }
    let ci = repo_root().join(".github/workflows/ci.yml");
    for (name, _) in knob_names(&read(&ci)) {
        if !table.contains(&name) {
            missing.insert(format!("{name} (set in {})", ci.display()));
        }
    }
    assert!(
        missing.is_empty(),
        "MBU_* names without a README knob-table row:\n{}",
        missing.into_iter().collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn every_readme_row_names_a_knob_the_code_reads() {
    let mut read_by_code = BTreeSet::new();
    let mut files = Vec::new();
    for krate in std::fs::read_dir(repo_root().join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    for file in &files {
        let text = read(file);
        for (name, quoted) in knob_names(non_test_source(&text)) {
            if quoted {
                read_by_code.insert(name);
            }
        }
    }
    let stale: Vec<String> = documented()
        .into_iter()
        .filter(|row| !read_by_code.contains(row))
        .collect();
    assert!(
        stale.is_empty(),
        "README knob rows that no non-test source under crates/*/src reads: {stale:?}"
    );
}

/// The knob count only moves visibly: a change that adds or retires an
/// `MBU_*` name moves this pin with it.
#[test]
fn the_knob_table_holds_exactly_26_knobs() {
    let table = documented();
    assert_eq!(table.len(), 26, "{table:?}");
}

#[test]
fn knob_scanner_finds_quoted_and_bare_names() {
    assert_eq!(
        knob_names(r#"x "MBU_RUNS" MBU_SEED=1 XMBU_WORKERS "MBU_" MBU_WORKERS"#),
        vec![
            ("MBU_RUNS".to_string(), true),
            ("MBU_SEED".to_string(), false),
            ("MBU_WORKERS".to_string(), false),
        ]
    );
}
