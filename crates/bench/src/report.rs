//! Rendering experiment results as text tables.
//!
//! The output format intentionally mirrors the paper's tables: one row per
//! sweep coordinate (k, n, or φ), one column per algorithm (or per φ), and
//! either the solution value or the runtime in seconds in every cell
//! (Table 1: its analytic columns).

use crate::experiments::ExperimentResult;
use std::fmt::Write as _;

/// Formats a cell value the way the paper prints it: three to four
/// significant digits, scientific notation only for extreme magnitudes.
pub fn format_value(v: f64) -> String {
    if !v.is_finite() {
        return "inf".to_string();
    }
    let a = v.abs();
    if a == 0.0 {
        "0".to_string()
    } else if !(1e-4..1e6).contains(&a) {
        format!("{v:.3e}")
    } else if a >= 100.0 {
        format!("{v:.2}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders an experiment result as a markdown table preceded by its title.
pub fn render_result(result: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {}", result.title);
    let _ = writeln!(
        out,
        "\n(scale = {}, metric = {})\n",
        result.scale,
        result.metric.describe()
    );

    // Header.
    let _ = write!(out, "| {} |", sweep_header(result));
    for c in &result.columns {
        let _ = write!(out, " {c} |");
    }
    let _ = writeln!(out);
    let _ = write!(out, "|---|");
    for _ in &result.columns {
        let _ = write!(out, "---|");
    }
    let _ = writeln!(out);

    // Rows.
    for row in &result.rows {
        let _ = write!(out, "| {} |", row.coordinate);
        for &v in &row.cells {
            let _ = write!(out, " {} |", format_value(v));
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders several results back to back (the `repro all` output).
pub fn render_all(results: &[ExperimentResult]) -> String {
    results
        .iter()
        .map(render_result)
        .collect::<Vec<_>>()
        .join("\n")
}

fn sweep_header(result: &ExperimentResult) -> &'static str {
    match result.rows.first().map(|r| r.coordinate.as_str()) {
        Some(c) if c.starts_with("n=") => "n",
        Some(c) if c.starts_with("k=") => "k",
        _ => "row",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{find_experiment, run_experiment, Metric, ResultRow, RunOptions};

    fn sample_result(metric: Metric) -> ExperimentResult {
        ExperimentResult {
            id: "table2".to_string(),
            title: "Table 2: sample".to_string(),
            columns: vec!["MRG".to_string(), "EIM".to_string(), "GON".to_string()],
            metric,
            rows: vec![
                ResultRow {
                    coordinate: "k=2".to_string(),
                    cells: vec![96.04, 93.11, 95.86],
                },
                ResultRow {
                    coordinate: "k=25".to_string(),
                    cells: vec![0.961, 0.5, 0.961],
                },
            ],
            scale: 1.0,
        }
    }

    #[test]
    fn format_value_uses_sensible_precision() {
        assert_eq!(format_value(96.04), "96.040");
        assert_eq!(format_value(0.961), "0.9610");
        assert_eq!(format_value(123.456), "123.46");
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(f64::INFINITY), "inf");
        assert!(format_value(1.5e7).contains('e'));
        assert!(format_value(3.2e-6).contains('e'));
    }

    #[test]
    fn render_solution_value_table_contains_all_cells() {
        let text = render_result(&sample_result(Metric::Value));
        assert!(text.contains("Table 2"));
        assert!(text.contains("| k |"));
        assert!(text.contains("MRG") && text.contains("EIM") && text.contains("GON"));
        assert!(text.contains("96.040"));
        assert!(text.contains("0.9610"));
        assert!(text.contains("solution value"));
    }

    #[test]
    fn render_runtime_table_reports_seconds() {
        let text = render_result(&sample_result(Metric::Runtime));
        assert!(text.contains("runtime in seconds"));
        assert!(text.contains("GON: wall clock of the sequential solve"));
        assert!(text.contains("0.5000"));
    }

    #[test]
    fn render_theory_table_prints_alpha_rounds_and_operations() {
        let table1 = find_experiment("table1").unwrap();
        let text = render_result(&run_experiment(&table1, RunOptions::default()).unwrap());
        assert!(text.contains("metric = theoretical"), "{text}");
        assert!(
            text.contains("| row | alpha | rounds | predicted ops |"),
            "{text}"
        );
        assert!(text.contains("|---|---|---|---|"), "{text}");
        // GON: k·n = 2.5e7 operations, no MapReduce rounds.
        assert!(text.contains("| GON | 2.000 | 0 | 2.500e7 |"), "{text}");
        // MRG: k·n/m + k²·m = 500,000 + 31,250 at m = 50, in two rounds.
        assert!(
            text.contains("| MRG | 4.000 | 2.000 | 531250.00 |"),
            "{text}"
        );
        assert!(text.contains("| EIM | 10.000 | 10.000 |"), "{text}");
    }

    #[test]
    fn render_all_concatenates_results() {
        let text = render_all(&[sample_result(Metric::Value), sample_result(Metric::Runtime)]);
        assert_eq!(text.matches("Table 2").count(), 2);
    }
}
