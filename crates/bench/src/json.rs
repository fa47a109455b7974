//! The one JSON writer behind every bench artifact (`--json`, the sweep's
//! `--timing` file), hand-rolled because the workspace is std-only.
//!
//! Callers pass values already rendered as JSON text, so each keeps its
//! own number precision (`{:.3}`, `{:#018x}` wrapped in [`str`]); the
//! layout is decided here alone. A container whose entries are all
//! scalars stays on one line; one holding another container puts each
//! entry on its own indented line. `bench_diff` only relies on every
//! field rendering as `"<key>": <value>`.

use kindle_core::experiments::CsvRow;

/// An escaped JSON string literal.
#[must_use]
pub fn str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An object whose fields keep the given order.
#[must_use]
pub fn obj<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    wrap('{', '}', fields.into_iter().map(|(k, v)| format!("{}: {v}", str(k.as_ref()))).collect())
}

/// An array.
#[must_use]
pub fn arr(items: impl IntoIterator<Item = String>) -> String {
    wrap('[', ']', items.into_iter().collect())
}

/// Experiment rows as an array of objects keyed by the CSV header: a
/// field that parses as a finite number is written bare, anything else
/// as a string. Field values must not contain commas — true for every
/// row type, whose only strings are benchmark identifiers.
#[must_use]
pub fn rows<R: CsvRow>(rows: &[R]) -> String {
    arr(rows.iter().map(|r| {
        let line = r.csv_row();
        obj(R::csv_header().split(',').zip(line.split(',')).map(|(key, v)| {
            (key, if v.parse::<f64>().is_ok_and(f64::is_finite) { v.to_string() } else { str(v) })
        }))
    }))
}

/// Only a nested container's entry ends in `}` or `]`: a string value
/// ends in its closing quote.
fn wrap(open: char, close: char, entries: Vec<String>) -> String {
    if !entries.iter().any(|e| e.ends_with(['}', ']'])) {
        return format!("{open}{}{close}", entries.join(", "));
    }
    let lines: Vec<String> =
        entries.iter().map(|e| format!("  {}", e.replace('\n', "\n  "))).collect();
    format!("{open}\n{}\n{close}", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kindle_core::experiments::{ConsolidationRow, Fig4aRow, Table3Row};

    #[test]
    fn json_mirrors_csv_fields() {
        let rows = vec![Fig4aRow { size_mb: 64, rebuild_ms: 54.2, persistent_ms: 29.2 }];
        assert_eq!(
            super::rows(&rows),
            "[\n  {\"size_mib\": 64, \"rebuild_ms\": 54.200, \"persistent_ms\": 29.200, \
             \"overhead\": 1.856}\n]"
        );
    }

    #[test]
    fn json_quotes_non_numeric_fields() {
        let rows = vec![ConsolidationRow {
            benchmark: "Ycsb_mem".into(),
            consolidation_ms: 12,
            normalized: 1.25,
            pages_consolidated: 7,
        }];
        let json = super::rows(&rows);
        assert!(json.contains("\"benchmark\": \"Ycsb_mem\""), "{json}");
        assert!(json.contains("\"normalized\": 1.2500"), "{json}");
    }

    #[test]
    fn json_empty_rows_render_empty_array() {
        assert_eq!(super::rows::<Table3Row>(&[]), "[]");
    }

    #[test]
    fn str_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(str("plain"), "\"plain\"");
        assert_eq!(str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(str("line\ntab\t\u{1}"), "\"line\\u000atab\\u0009\\u0001\"");
    }

    #[test]
    fn nested_array_in_object_indents_one_entry_per_line() {
        let inner = arr([obj([("a", "1".to_string())]), obj([("a", "2".to_string())])]);
        let doc = obj([("n", "2".to_string()), ("rows", inner)]);
        assert_eq!(doc, "{\n  \"n\": 2,\n  \"rows\": [\n    {\"a\": 1},\n    {\"a\": 2}\n  ]\n}");
    }

    #[test]
    fn empty_containers_stay_inline() {
        assert_eq!(arr(Vec::new()), "[]");
        assert_eq!(obj(Vec::<(&str, String)>::new()), "{}");
        assert_eq!(obj([("rows", arr(Vec::new()))]), "{\n  \"rows\": []\n}");
    }
}
