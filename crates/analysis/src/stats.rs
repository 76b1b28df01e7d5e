//! Statistical primitives: empirical CDFs, quantiles, concentration.

/// An empirical cumulative distribution function over `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (non-finite values are dropped).
    pub fn new(mut samples: Vec<f64>) -> Ecdf {
        samples.retain(|x| x.is_finite());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Ecdf { sorted: samples }
    }

    /// Build from integer samples.
    pub fn from_ints<I: IntoIterator<Item = u64>>(items: I) -> Ecdf {
        Ecdf::new(items.into_iter().map(|x| x as f64).collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (0 for an empty ECDF).
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples `> x`.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_most(x)
    }

    /// The `q`-quantile (`0 <= q <= 1`) by the nearest-rank method, or
    /// `None` for an empty ECDF.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Mean of the samples.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// `(x, F(x))` pairs at each distinct sample value — the series a CDF
    /// plot draws.
    pub fn series(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == x => last.1 = f,
                _ => out.push((x, f)),
            }
        }
        out
    }
}

/// Share of the total mass held by the top `frac` of values (e.g.
/// `top_share(&volumes, 0.01)` = "the top 1% of members account for X% of
/// messages", Fig 9b).
pub fn top_share(values: &[u64], frac: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let total: u64 = values.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = values.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let k = ((values.len() as f64 * frac).ceil() as usize).clamp(1, values.len());
    let top: u64 = sorted[..k].iter().sum();
    top as f64 / total as f64
}

use crate::pipeline::ecdf_stats;
use chatlens_checkpoint::{CheckpointError, Persist, Reader, Writer};
use chatlens_core::{Dataset, DayFold, DaySlice};
use chatlens_simnet::par::Pool;
use std::fmt::Write as _;

/// The day's `[tweets, control, groups, joined]` record counts.
fn day_volumes(slice: &DaySlice<'_>) -> [u64; 4] {
    [
        slice.tweets_today().len() as u64,
        slice.control_today().len() as u64,
        slice.groups_today().len() as u64,
        slice.joined_today().len() as u64,
    ]
}

fn render(out: &mut String, days: &[[u64; 4]]) {
    for (d, v) in days.iter().enumerate() {
        writeln!(
            out,
            "day {d}: tweets={} control={} groups={} joined={}",
            v[0], v[1], v[2], v[3]
        )
        .unwrap();
    }
    for (i, series) in ["tweets", "control", "groups", "joined"]
        .into_iter()
        .enumerate()
    {
        let e = Ecdf::from_ints(days.iter().map(|v| v[i]));
        writeln!(out, "{series}_per_day: {}", ecdf_stats(&e)).unwrap();
    }
    let totals: [u64; 4] = [0, 1, 2, 3].map(|i| days.iter().map(|v| v[i]).sum());
    writeln!(
        out,
        "totals: tweets={} control={} groups={} joined={}",
        totals[0], totals[1], totals[2], totals[3]
    )
    .unwrap();
}

/// The stats fragment of an assembled dataset (see
/// [`fold_dataset`](crate::pipeline::fold_dataset)).
pub fn fragment(ds: &Dataset, pool: &Pool) -> String {
    crate::pipeline::fold_dataset(ds, StatsFold::new()).finish(pool)
}

/// Per-day collection volumes: one `[tweets, control, groups, joined]`
/// record count per folded day.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsFold {
    days: Vec<[u64; 4]>,
}

impl StatsFold {
    /// An empty fold.
    pub fn new() -> StatsFold {
        StatsFold::default()
    }

    /// The folded `[tweets, control, groups, joined]` records per study
    /// day, in day order.
    pub fn output(&self) -> &[[u64; 4]] {
        &self.days
    }
}

impl DayFold for StatsFold {
    fn name(&self) -> &'static str {
        "stats"
    }

    fn fold_day(&mut self, slice: &DaySlice<'_>) {
        self.days.push(day_volumes(slice));
    }

    fn finish(&self, _pool: &Pool) -> String {
        let mut out = String::from("stats v1\n");
        render(&mut out, self.output());
        out
    }

    fn save_state(&self, w: &mut Writer) {
        self.days.save(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.days = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basics() {
        let e = Ecdf::from_ints([1, 2, 2, 3, 10]);
        assert_eq!(e.len(), 5);
        assert!((e.fraction_at_most(2.0) - 0.6).abs() < 1e-12);
        assert!((e.fraction_at_most(0.5) - 0.0).abs() < 1e-12);
        assert!((e.fraction_at_most(10.0) - 1.0).abs() < 1e-12);
        assert!((e.fraction_above(2.0) - 0.4).abs() < 1e-12);
        assert_eq!(e.median(), Some(2.0));
        assert_eq!(e.min(), Some(1.0));
        assert_eq!(e.max(), Some(10.0));
        assert!((e.mean().unwrap() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn ecdf_quantiles_nearest_rank() {
        let e = Ecdf::from_ints(1..=100);
        assert_eq!(e.quantile(0.25), Some(25.0));
        assert_eq!(e.quantile(0.5), Some(50.0));
        assert_eq!(e.quantile(1.0), Some(100.0));
        assert_eq!(e.quantile(0.0), Some(1.0), "clamped to first rank");
    }

    #[test]
    fn ecdf_empty() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.median(), None);
        assert_eq!(e.fraction_at_most(5.0), 0.0);
        assert!(e.series().is_empty());
    }

    #[test]
    fn ecdf_drops_non_finite() {
        let e = Ecdf::new(vec![1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn series_merges_duplicates_and_ends_at_one() {
        let e = Ecdf::from_ints([5, 5, 5, 7]);
        let s = e.series();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], (5.0, 0.75));
        assert_eq!(s[1], (7.0, 1.0));
    }

    #[test]
    fn top_share_concentration() {
        // One giant + 99 ones: top 1% holds 901/1000.
        let mut v = vec![1u64; 99];
        v.push(901);
        assert!((top_share(&v, 0.01) - 0.901).abs() < 1e-12);
        // Uniform values: top 10% holds ~10%.
        let u = vec![5u64; 100];
        assert!((top_share(&u, 0.10) - 0.10).abs() < 1e-12);
        assert_eq!(top_share(&[], 0.01), 0.0);
        assert_eq!(top_share(&[0, 0], 0.5), 0.0);
    }
}
