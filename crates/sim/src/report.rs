//! Plain-text report tables matching the paper's figures.

use custody_simcore::stats::Summary;

use crate::metrics::RunMetrics;

/// Formats a percentage `mean ± std` from a fraction-valued summary.
pub fn pct_mean_std(s: &Summary) -> String {
    format!("{:5.1}% ± {:4.1}%", s.mean() * 100.0, s.std_dev() * 100.0)
}

/// Relative improvement of `ours` over `baseline` (positive = better),
/// where larger is better.
pub fn gain_pct(ours: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (ours - baseline) / baseline * 100.0
    }
}

/// Relative reduction of `ours` vs `baseline` (positive = better), where
/// smaller is better.
pub fn reduction_pct(ours: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (baseline - ours) / baseline * 100.0
    }
}

/// One comparison row: the four headline metrics of a run.
pub fn summary_row(label: &str, m: &RunMetrics) -> String {
    format!(
        "{label:<16} locality {}  jct {:>8}s  input-stage {:>8}s  sched-delay {:>8}ms  min-local-jobs {:4.1}%",
        pct_mean_std(&m.input_locality()),
        format!("{:.2}", m.job_completion_secs().mean()),
        format!("{:.2}", m.input_stage_secs().mean()),
        format!("{:.1}", m.scheduler_delay_secs().mean() * 1000.0),
        m.min_local_job_fraction() * 100.0,
    )
}

/// Renders a simple aligned table from rows of cells.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_and_reduction() {
        assert!((gain_pct(1.5, 1.0) - 50.0).abs() < 1e-9);
        assert!((reduction_pct(0.8, 1.0) - 20.0).abs() < 1e-9);
        assert_eq!(gain_pct(1.0, 0.0), 0.0);
        assert_eq!(reduction_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn pct_formatting() {
        let mut s = Summary::new();
        s.extend([0.5, 0.7]);
        let txt = pct_mean_std(&s);
        assert!(txt.contains("60.0%"), "{txt}");
    }

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a  "));
        assert!(lines[3].starts_with("longer-name"));
    }
}
