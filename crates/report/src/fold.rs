//! Rendering of the analysis fold summary (`repro run`). Every column is
//! deterministic, so the table is byte-stable across runs, thread counts
//! and kill/resume; the per-fold wall-clock timings go to `--timings`.

use crate::table::{fmt_bytes, Table};

/// One row of the fold summary: a fold's accounting as reported by the
/// driver after `finish`.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldSummaryRow {
    /// Fold name (registration order is preserved by the caller).
    pub name: String,
    /// Final encoded state size in bytes.
    pub state_bytes: u64,
    /// Short digest of the rendered fragment (the last column, so a
    /// resumed run's digests compare with `awk '{print $NF}'`).
    pub digest: String,
}

/// Render the per-fold summary table: state sizes and fragment digests,
/// with a peak-state/days headline.
pub fn fold_summary(rows: &[FoldSummaryRow], peak_state_bytes: u64, days_folded: u32) -> Table {
    let mut t = Table::new(format!(
        "Analysis folds — {days_folded} day(s) folded, peak state {}",
        fmt_bytes(peak_state_bytes)
    ))
    .header(["fold", "state", "fragment"]);
    for r in rows {
        t.row([r.name.clone(), fmt_bytes(r.state_bytes), r.digest.clone()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_lists_every_fold_with_headline() {
        let rows = vec![
            FoldSummaryRow {
                name: "discovery".into(),
                state_bytes: 2048,
                digest: "ab12cd34ef56".into(),
            },
            FoldSummaryRow {
                name: "stats".into(),
                state_bytes: 64,
                digest: "0011223344aa".into(),
            },
        ];
        let s = fold_summary(&rows, 4096, 38).render();
        assert!(s.contains("38 day(s) folded"));
        assert!(s.contains("4.0 KiB"));
        assert!(s.contains("discovery"));
        assert!(s.contains("ab12cd34ef56"));
        assert!(!s.contains("\u{b5}s"), "no wall-clock columns");
        // Byte columns are lossless: the exact counts round-trip out of
        // the rendered table (no float approximation in accounting).
        assert!(s.contains("(4,096 B)"), "headline peak must be exact");
        assert!(s.contains("(2,048 B)"), "state column must be exact");
        assert_eq!(crate::table::parse_bytes("4.0 KiB (4,096 B)"), Some(4096));
    }
}
