//! Group-sharing dynamics: Fig 1 (URLs discovered per day) and Fig 2
//! (tweets per group URL).

use crate::pipeline::ecdf_stats;
use crate::stats::Ecdf;
use chatlens_checkpoint::{CheckpointError, Persist, Reader, Writer};
use chatlens_core::{Dataset, DayFold, DaySlice};
use chatlens_platforms::id::PlatformKind;
use chatlens_platforms::invite::parse_invite_url;
use chatlens_simnet::par::Pool;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Fig 1 for one platform: per study-day URL counts.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyDiscovery {
    /// Panel (a): every URL occurrence collected that day (duplicates
    /// included — each tweet's each invite URL counts).
    pub all: Vec<u64>,
    /// Panel (b): distinct URLs seen that day.
    pub unique: Vec<u64>,
    /// Panel (c): URLs never seen on any earlier day.
    pub new: Vec<u64>,
}

impl DailyDiscovery {
    /// Median across days of one panel.
    fn median(series: &[u64]) -> f64 {
        Ecdf::from_ints(series.iter().copied())
            .median()
            .unwrap_or(0.0)
    }

    /// Median of panel (a).
    pub fn median_all(&self) -> f64 {
        Self::median(&self.all)
    }

    /// Median of panel (b).
    pub fn median_unique(&self) -> f64 {
        Self::median(&self.unique)
    }

    /// Median of panel (c).
    pub fn median_new(&self) -> f64 {
        Self::median(&self.new)
    }
}

/// Everything the discovery fold yields: Fig 1 and Fig 2 per platform
/// (indexed by [`PlatformKind::index`]) plus the cross-platform count.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryOutput {
    /// Fig 1's three panels, indexed by the *collection* day
    /// (`seen_at`), so the day-0 spike from the Search API's 7-day
    /// backlog shows up exactly as in the paper.
    pub daily: [DailyDiscovery; 3],
    /// Fig 2: tweets per group URL (each URL counted once per tweet).
    pub tweets_per_url: [Ecdf; 3],
    /// Tweets carrying invites of more than one platform — the reason
    /// Table 2's per-platform rows sum to more than its printed total.
    pub cross_platform_tweets: u64,
}

impl DiscoveryOutput {
    /// Fraction of `kind`'s URLs shared exactly once (the headline of
    /// Fig 2).
    pub fn share_once(&self, kind: PlatformKind) -> f64 {
        self.tweets_per_url[kind.index()].fraction_at_most(1.0)
    }
}

/// One platform's section of the discovery report fragment.
fn render_platform(out: &mut String, kind: PlatformKind, daily: &DailyDiscovery, per_url: &Ecdf) {
    let name = kind.name();
    writeln!(out, "{name}.daily_all: {:?}", daily.all).unwrap();
    writeln!(out, "{name}.daily_unique: {:?}", daily.unique).unwrap();
    writeln!(out, "{name}.daily_new: {:?}", daily.new).unwrap();
    writeln!(out, "{name}.median_all: {:?}", daily.median_all()).unwrap();
    writeln!(out, "{name}.median_unique: {:?}", daily.median_unique()).unwrap();
    writeln!(out, "{name}.median_new: {:?}", daily.median_new()).unwrap();
    writeln!(out, "{name}.tweets_per_url: {}", ecdf_stats(per_url)).unwrap();
    writeln!(
        out,
        "{name}.share_once: {:?}",
        per_url.fraction_at_most(1.0)
    )
    .unwrap();
}

/// The discovery fragment of an assembled dataset (see
/// [`fold_dataset`](crate::pipeline::fold_dataset)).
pub fn fragment(ds: &Dataset, pool: &Pool) -> String {
    crate::pipeline::fold_dataset(ds, DiscoveryFold::new()).finish(pool)
}

/// One platform's folded discovery state.
#[derive(Debug, Clone, Default)]
struct PlatDiscovery {
    /// Fig 1a: URL occurrences per collection day.
    all: Vec<u64>,
    /// Distinct URLs per collection day (Fig 1b counts, Fig 1c input).
    unique: Vec<BTreeSet<String>>,
    /// Tweets per URL (each URL counted once per tweet), Fig 2.
    counts: BTreeMap<String, u64>,
}

impl PlatDiscovery {
    /// Reconstruct Fig 1's three panels; the "new" panel needs a sweep
    /// in day order, not tweet order.
    fn daily(&self) -> DailyDiscovery {
        let mut ever_seen: BTreeSet<&str> = BTreeSet::new();
        let new = self
            .unique
            .iter()
            .map(|set| {
                set.iter()
                    .filter(|key| ever_seen.insert(key.as_str()))
                    .count() as u64
            })
            .collect();
        DailyDiscovery {
            all: self.all.clone(),
            unique: self.unique.iter().map(|s| s.len() as u64).collect(),
            new,
        }
    }
}

/// Fig 1 and Fig 2: folds each day's collected tweets into per-day URL
/// tallies, per-URL tweet counts and the cross-platform counter. State
/// grows with the number of *distinct* URLs, not with the tweet volume.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryFold {
    plats: [PlatDiscovery; 3],
    cross: u64,
}

impl DiscoveryFold {
    /// An empty fold.
    pub fn new() -> DiscoveryFold {
        DiscoveryFold::default()
    }

    /// The folded Figs 1 and 2.
    pub fn output(&self) -> DiscoveryOutput {
        DiscoveryOutput {
            daily: self.plats.each_ref().map(PlatDiscovery::daily),
            tweets_per_url: self
                .plats
                .each_ref()
                .map(|p| Ecdf::from_ints(p.counts.values().copied())),
            cross_platform_tweets: self.cross,
        }
    }
}

impl DayFold for DiscoveryFold {
    fn name(&self) -> &'static str {
        "discovery"
    }

    fn fold_day(&mut self, slice: &DaySlice<'_>) {
        let days = slice.days_total as usize;
        for p in &mut self.plats {
            if p.all.len() < days {
                p.all.resize(days, 0);
                p.unique.resize(days, BTreeSet::new());
            }
        }
        for ct in slice.tweets_today() {
            // Bucketing follows the tweet's collection timestamp, not the
            // fold day it arrived in.
            let day = slice.window.day_index(ct.seen_at).map(|d| d as usize);
            let mut in_tweet: [BTreeSet<String>; 3] = Default::default();
            for url in &ct.tweet.urls {
                let Some(invite) = parse_invite_url(url) else {
                    continue;
                };
                let i = invite.platform().index();
                let key = invite.dedup_key();
                if let Some(day) = day {
                    self.plats[i].all[day] += 1;
                    self.plats[i].unique[day].insert(key.clone());
                }
                in_tweet[i].insert(key);
            }
            if in_tweet.iter().filter(|s| !s.is_empty()).count() > 1 {
                self.cross += 1;
            }
            for (i, set) in in_tweet.into_iter().enumerate() {
                for key in set {
                    *self.plats[i].counts.entry(key).or_insert(0) += 1;
                }
            }
        }
    }

    fn finish(&self, _pool: &Pool) -> String {
        let o = self.output();
        let mut out = String::from("discovery v1\n");
        for kind in PlatformKind::ALL {
            let i = kind.index();
            render_platform(&mut out, kind, &o.daily[i], &o.tweets_per_url[i]);
        }
        writeln!(out, "cross_platform_tweets: {}", o.cross_platform_tweets).unwrap();
        out
    }

    fn save_state(&self, w: &mut Writer) {
        for p in &self.plats {
            p.all.save(w);
            let unique: Vec<Vec<String>> = p
                .unique
                .iter()
                .map(|s| s.iter().cloned().collect())
                .collect();
            unique.save(w);
            p.counts.save(w);
        }
        self.cross.save(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        for p in &mut self.plats {
            p.all = Persist::load(r)?;
            let unique: Vec<Vec<String>> = Persist::load(r)?;
            p.unique = unique
                .into_iter()
                .map(|v| v.into_iter().collect())
                .collect();
            p.counts = Persist::load(r)?;
        }
        self.cross = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{dataset, folded};

    fn output() -> DiscoveryOutput {
        folded().discovery.output()
    }

    #[test]
    fn day_zero_backlog_spike() {
        let o = output();
        for kind in PlatformKind::ALL {
            let d = &o.daily[kind.index()];
            assert_eq!(d.all.len(), 38);
            let later_max = d.new[3..].iter().copied().max().unwrap_or(0);
            assert!(
                d.new[0] > later_max,
                "{kind}: day-0 new {} should beat later days' {later_max}",
                d.new[0]
            );
        }
    }

    #[test]
    fn panels_are_consistent() {
        let o = output();
        for kind in PlatformKind::ALL {
            let d = &o.daily[kind.index()];
            for day in 0..38 {
                assert!(d.unique[day] <= d.all[day], "{kind} day {day}");
                assert!(d.new[day] <= d.unique[day], "{kind} day {day}");
            }
            // Sum of "new" equals total distinct discovered via tweets.
            let total_new: u64 = d.new.iter().sum();
            let urls = dataset().summary(kind).group_urls;
            assert!(
                total_new <= urls,
                "{kind}: new {total_new} > discovered {urls}"
            );
            assert!(
                total_new * 10 >= urls * 9,
                "{kind}: new {total_new} far below discovered {urls}"
            );
        }
    }

    #[test]
    fn telegram_urls_shared_most() {
        // Fig 1a/2: Telegram URLs are shared in the most tweets per URL.
        let mean = |kind: PlatformKind| output().tweets_per_url[kind.index()].mean().unwrap();
        let tg = mean(PlatformKind::Telegram);
        let wa = mean(PlatformKind::WhatsApp);
        let dc = mean(PlatformKind::Discord);
        assert!(tg > wa, "TG {tg:.1} vs WA {wa:.1}");
        assert!(tg > dc, "TG {tg:.1} vs DC {dc:.1}");
    }

    #[test]
    fn cross_platform_tweets_exist_but_rare() {
        let ds = dataset();
        let cross = output().cross_platform_tweets;
        assert!(cross > 0, "some tweets advertise two platforms");
        let rate = cross as f64 / ds.tweets.len() as f64;
        assert!(rate < 0.02, "cross-platform rate {rate}");
        // These tweets are exactly why per-platform rows overcount the
        // distinct total, as in the paper's Table 2.
        let row_sum: u64 = PlatformKind::ALL
            .iter()
            .map(|&k| ds.summary(k).tweets)
            .sum();
        assert!(row_sum > ds.tweets.len() as u64);
        assert_eq!(row_sum - ds.tweets.len() as u64, cross);
    }

    #[test]
    fn share_once_fractions_match_fig2() {
        let o = output();
        let wa = o.share_once(PlatformKind::WhatsApp);
        let tg = o.share_once(PlatformKind::Telegram);
        let dc = o.share_once(PlatformKind::Discord);
        assert!((wa - 0.50).abs() < 0.08, "WA {wa}");
        assert!((tg - 0.50).abs() < 0.08, "TG {tg}");
        assert!((dc - 0.62).abs() < 0.08, "DC {dc}");
        assert!(dc > wa && dc > tg, "Discord has the most share-once URLs");
    }
}
