//! CSV export of experiment rows — the analog of the original artifact's
//! "Python scripts to parse gem5 statistics files and generate output
//! files" step: every driver's rows can be dumped for external plotting.

use super::{ConsolidationRow, Fig4aRow, Fig4bRow, Fig5Row, Fig6Row, Table3Row, Table4Row};

/// Row types that can be rendered to CSV.
pub trait CsvRow {
    /// Header line (no trailing newline).
    fn csv_header() -> &'static str;
    /// One data line (no trailing newline).
    fn csv_row(&self) -> String;
}

/// Renders a full CSV document from rows.
pub fn to_csv<R: CsvRow>(rows: &[R]) -> String {
    let mut out = String::from(R::csv_header());
    out.push('\n');
    for r in rows {
        out.push_str(&r.csv_row());
        out.push('\n');
    }
    out
}

impl CsvRow for Fig4aRow {
    fn csv_header() -> &'static str {
        "size_mib,rebuild_ms,persistent_ms,overhead"
    }
    fn csv_row(&self) -> String {
        format!(
            "{},{:.3},{:.3},{:.3}",
            self.size_mb,
            self.rebuild_ms,
            self.persistent_ms,
            self.overhead()
        )
    }
}

impl CsvRow for Fig4bRow {
    fn csv_header() -> &'static str {
        "stride,stride_bytes,rebuild_ms,persistent_ms"
    }
    fn csv_row(&self) -> String {
        format!(
            "{},{},{:.3},{:.3}",
            self.stride, self.stride_bytes, self.rebuild_ms, self.persistent_ms
        )
    }
}

impl CsvRow for Table3Row {
    fn csv_header() -> &'static str {
        "churn_mib,persistent_ms,rebuild_ms"
    }
    fn csv_row(&self) -> String {
        format!("{},{:.3},{:.3}", self.churn_mb, self.persistent_ms, self.rebuild_ms)
    }
}

impl CsvRow for Table4Row {
    fn csv_header() -> &'static str {
        "churn_mib,interval_ms,persistent_ms,rebuild_ms"
    }
    fn csv_row(&self) -> String {
        format!(
            "{},{:.1},{:.3},{:.3}",
            self.churn_mb, self.interval_ms, self.persistent_ms, self.rebuild_ms
        )
    }
}

impl CsvRow for Fig5Row {
    fn csv_header() -> &'static str {
        "benchmark,interval_ms,baseline_ms,ssp_ms,normalized,overhead"
    }
    fn csv_row(&self) -> String {
        format!(
            "{},{},{:.3},{:.3},{:.4},{:.4}",
            self.benchmark,
            self.interval_ms,
            self.baseline_ms,
            self.ssp_ms,
            self.normalized,
            self.overhead
        )
    }
}

impl CsvRow for Fig6Row {
    fn csv_header() -> &'static str {
        "benchmark,threshold,hw_only_ms,with_os_ms,normalized,pages_migrated,selection_pct,copy_pct,copybacks"
    }
    fn csv_row(&self) -> String {
        format!(
            "{},{},{:.3},{:.3},{:.4},{},{:.2},{:.2},{}",
            self.benchmark,
            self.threshold,
            self.hw_only_ms,
            self.with_os_ms,
            self.normalized,
            self.pages_migrated,
            self.selection_pct,
            self.copy_pct,
            self.copybacks
        )
    }
}

impl CsvRow for ConsolidationRow {
    fn csv_header() -> &'static str {
        "benchmark,consolidation_ms,normalized,pages_consolidated"
    }
    fn csv_row(&self) -> String {
        format!(
            "{},{},{:.4},{}",
            self.benchmark, self.consolidation_ms, self.normalized, self.pages_consolidated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_rows_render() {
        let rows = vec![Fig4aRow { size_mb: 64, rebuild_ms: 54.2, persistent_ms: 29.2 }];
        let csv = to_csv(&rows);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "size_mib,rebuild_ms,persistent_ms,overhead");
        let row = lines.next().unwrap();
        assert!(row.starts_with("64,54.200,29.200,1.856"));
        assert!(lines.next().is_none());
    }

    #[test]
    fn fig6_rows_render() {
        let rows = vec![Fig6Row {
            benchmark: "Ycsb_mem".into(),
            threshold: 5,
            hw_only_ms: 100.0,
            with_os_ms: 150.0,
            normalized: 1.5,
            pages_migrated: 1234,
            selection_pct: 20.0,
            copy_pct: 80.0,
            copybacks: 99,
        }];
        let csv = to_csv(&rows);
        assert!(csv.contains("Ycsb_mem,5,100.000,150.000,1.5000,1234,20.00,80.00,99"));
    }

    #[test]
    fn empty_rows_render_header_only() {
        let csv = to_csv::<Table3Row>(&[]);
        assert_eq!(csv.trim(), Table3Row::csv_header());
    }
}
