//! Group lifecycle: Fig 5 (staleness — group age when shared on Twitter)
//! and Fig 6 (URL lifetime and revocation).

use crate::pipeline::ecdf_stats;
use crate::stats::Ecdf;
use chatlens_checkpoint::{persist_struct, CheckpointError, Persist, Reader, Writer};
use chatlens_core::discovery::DiscoveryRecord;
use chatlens_core::intern::Interner;
use chatlens_core::joiner::JoinedGroup;
use chatlens_core::monitor::{ObservedStatus, TimelineStore};
use chatlens_core::{Dataset, DayFold, DaySlice};
use chatlens_platforms::id::PlatformKind;
use chatlens_simnet::par::Pool;
use std::fmt::Write as _;

/// Fig 5: group ages (in days) at the moment their URL was first tweeted.
///
/// Availability follows the paper (§5): WhatsApp and Telegram creation
/// dates are only known for *joined* groups; Discord's come from the
/// invite API for every monitored group.
fn staleness_from(
    joined: &[JoinedGroup],
    groups: &[DiscoveryRecord],
    interner: &Interner,
    timelines: &TimelineStore,
    kind: PlatformKind,
) -> Vec<f64> {
    let mut ages: Vec<f64> = Vec::new();
    match kind {
        PlatformKind::WhatsApp | PlatformKind::Telegram => {
            for jg in joined.iter().filter(|j| j.platform == kind) {
                let Some(created_day) = jg.created_day else {
                    continue;
                };
                let Some(rec) = interner.get(&jg.key).and_then(|s| groups.get(s.index())) else {
                    continue;
                };
                let share_day = rec.first_tweet_at.date().day_number();
                ages.push((share_day - created_day).max(0) as f64);
            }
        }
        PlatformKind::Discord => {
            for (slot, rec) in groups.iter().enumerate() {
                if rec.platform != kind {
                    continue;
                }
                let Some(tl) = timelines.get(slot) else {
                    continue;
                };
                let Some(created_day) = tl.dc_created_day else {
                    continue;
                };
                let share_day = rec.first_tweet_at.date().day_number();
                ages.push((share_day - created_day).max(0) as f64);
            }
        }
    }
    ages
}

/// Fig 6 roll-up for one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct RevocationStats {
    /// Groups with at least one observation.
    pub observed: u64,
    /// Share of groups whose URL was seen revoked at some point.
    pub revoked_fraction: f64,
    /// Share whose *first* observation was already a revocation (the
    /// "revoked before our first observation" bucket).
    pub dead_on_arrival_fraction: f64,
    /// Fig 6a: accessible lifetime (days from first observation to the
    /// observed revocation) over revoked URLs. Revocations whose
    /// preceding day sits in the dataset's gap ledger are *censored* out
    /// of this ECDF: the group may have died unobserved inside the gap,
    /// so its lifetime is only known up to the gap length and would bias
    /// the distribution upward.
    pub lifetime_days: Ecdf,
    /// Revocations censored out of `lifetime_days` by the gap ledger.
    pub censored: u64,
    /// Fig 6b: share of the platform's groups revoked on each study day.
    pub revoked_per_day: Vec<f64>,
}

/// Everything the lifecycle fold yields: Figs 5 and 6 per platform
/// (indexed by [`PlatformKind::index`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleOutput {
    /// Fig 5: group ages (in days) when their URL was first tweeted.
    pub staleness: [Ecdf; 3],
    /// Fig 6: lifetime and revocation.
    pub revocation: [RevocationStats; 3],
    /// Share of observed groups seen alive at least once (a sanity view
    /// of the monitor).
    pub ever_alive: [f64; 3],
}

fn render_platform(
    out: &mut String,
    kind: PlatformKind,
    stale: &Ecdf,
    rev: &RevocationStats,
    ever_alive: f64,
) {
    let name = kind.name();
    writeln!(out, "{name}.staleness: {}", ecdf_stats(stale)).unwrap();
    writeln!(
        out,
        "{name}.revocation: observed={} revoked_fraction={:?} dead_on_arrival={:?} censored={}",
        rev.observed, rev.revoked_fraction, rev.dead_on_arrival_fraction, rev.censored
    )
    .unwrap();
    writeln!(
        out,
        "{name}.lifetime_days: {}",
        ecdf_stats(&rev.lifetime_days)
    )
    .unwrap();
    writeln!(out, "{name}.revoked_per_day: {:?}", rev.revoked_per_day).unwrap();
    writeln!(out, "{name}.ever_alive_fraction: {ever_alive:?}").unwrap();
}

/// The lifecycle fragment of an assembled dataset (see
/// [`fold_dataset`](crate::pipeline::fold_dataset)).
pub fn fragment(ds: &Dataset, pool: &Pool) -> String {
    crate::pipeline::fold_dataset(ds, LifecycleFold::new()).finish(pool)
}

/// One monitored group's folded lifecycle state, advanced from the
/// day's timeline observation.
#[derive(Debug, Clone, PartialEq)]
struct SlotLifecycle {
    /// [`PlatformKind::index`] of the group's platform.
    platform: u8,
    /// Day of the first observation (None until observed at all).
    first_day: Option<u32>,
    /// Whether the first observation was already a revocation.
    doa: bool,
    /// Day the URL was first observed revoked.
    revoked_day: Option<u32>,
    /// Whether the revocation followed a gap day, censoring the lifetime.
    censored: bool,
    /// Whether the group was ever observed alive.
    ever_alive: bool,
}

persist_struct!(SlotLifecycle {
    platform,
    first_day,
    doa,
    revoked_day,
    censored,
    ever_alive
});

/// Figs 5 and 6: one compact record per monitored group, advanced from
/// each day's observation — censoring consults the
/// gap ledger on the revocation day, which is sound because a gap for
/// day `d` is filed at day `d`'s own backfill, before any later fold
/// step runs. Fig 5 staleness is captured on the final day (its joined
/// metadata is only complete then).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LifecycleFold {
    slots: Vec<SlotLifecycle>,
    staleness: [Vec<f64>; 3],
    days_total: u32,
}

impl LifecycleFold {
    /// An empty fold.
    pub fn new() -> LifecycleFold {
        LifecycleFold::default()
    }

    /// The folded Figs 5 and 6.
    pub fn output(&self) -> LifecycleOutput {
        let mut ever_alive = [0.0; 3];
        let revocation = PlatformKind::ALL.map(|kind| {
            let p = kind.index() as u8;
            let mut observed = 0u64;
            let mut revoked = 0u64;
            let mut doa = 0u64;
            let mut censored = 0u64;
            let mut alive = 0u64;
            let mut lifetimes: Vec<f64> = Vec::new();
            let mut per_day = vec![0u64; self.days_total as usize];
            for s in self.slots.iter().filter(|s| s.platform == p) {
                let Some(first_day) = s.first_day else {
                    continue;
                };
                observed += 1;
                if s.doa {
                    doa += 1;
                }
                if s.ever_alive {
                    alive += 1;
                }
                if let Some(rd) = s.revoked_day {
                    revoked += 1;
                    per_day[rd as usize] += 1;
                    // A revocation first seen right after a censored day
                    // may have happened any time inside the gap, so its
                    // lifetime is excluded instead of fabricated.
                    if s.censored {
                        censored += 1;
                    } else {
                        lifetimes.push(f64::from(rd - first_day));
                    }
                }
            }
            let denom = observed.max(1) as f64;
            ever_alive[kind.index()] = alive as f64 / denom;
            RevocationStats {
                observed,
                revoked_fraction: revoked as f64 / denom,
                dead_on_arrival_fraction: doa as f64 / denom,
                lifetime_days: Ecdf::new(lifetimes),
                censored,
                revoked_per_day: per_day.into_iter().map(|c| c as f64 / denom).collect(),
            }
        });
        LifecycleOutput {
            staleness: self.staleness.clone().map(Ecdf::new),
            revocation,
            ever_alive,
        }
    }
}

impl DayFold for LifecycleFold {
    fn name(&self) -> &'static str {
        "lifecycle"
    }

    fn fold_day(&mut self, slice: &DaySlice<'_>) {
        let day = slice.day;
        self.days_total = slice.days_total;
        for rec in slice.groups_today() {
            self.slots.push(SlotLifecycle {
                platform: rec.platform.index() as u8,
                first_day: None,
                doa: false,
                revoked_day: None,
                censored: false,
                ever_alive: false,
            });
        }
        for (slot, s) in self.slots.iter_mut().enumerate() {
            let Some(tl) = slice.timelines.get(slot) else {
                continue;
            };
            let Some(status) = tl.status_on(day) else {
                continue;
            };
            if s.first_day.is_none() {
                s.first_day = Some(day);
                s.doa = matches!(status, ObservedStatus::Revoked);
            }
            match status {
                ObservedStatus::Alive { .. } => s.ever_alive = true,
                ObservedStatus::Revoked => {
                    if s.revoked_day.is_none() {
                        s.revoked_day = Some(day);
                        s.censored =
                            day > 0 && slice.gaps.get(slot).is_some_and(|g| g.contains(&(day - 1)));
                    }
                }
                ObservedStatus::Failed => {}
            }
        }
        if slice.is_final() {
            self.staleness = PlatformKind::ALL.map(|kind| {
                staleness_from(
                    slice.joined(),
                    slice.groups(),
                    slice.interner,
                    slice.timelines,
                    kind,
                )
            });
        }
    }

    fn finish(&self, _pool: &Pool) -> String {
        let o = self.output();
        let mut out = String::from("lifecycle v1\n");
        for kind in PlatformKind::ALL {
            let i = kind.index();
            render_platform(
                &mut out,
                kind,
                &o.staleness[i],
                &o.revocation[i],
                o.ever_alive[i],
            );
        }
        out
    }

    fn save_state(&self, w: &mut Writer) {
        self.slots.save(w);
        self.staleness.save(w);
        self.days_total.save(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.slots = Persist::load(r)?;
        self.staleness = Persist::load(r)?;
        self.days_total = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::folded;

    fn output() -> LifecycleOutput {
        folded().lifecycle.output()
    }

    #[test]
    fn fig5_whatsapp_is_fresh() {
        let [wa, _, dc] = output().staleness;
        assert!(!wa.is_empty());
        let same_day = wa.fraction_at_most(0.0);
        assert!(same_day > 0.55, "WA same-day {same_day}");
        let dc_same_day = dc.fraction_at_most(0.0);
        assert!(
            dc_same_day < same_day,
            "Discord groups are older when shared: {dc_same_day} vs {same_day}"
        );
    }

    #[test]
    fn fig5_old_groups_exist() {
        let [_, _, dc] = output().staleness;
        let over_year = dc.fraction_above(365.0);
        assert!(
            (0.1..=0.4).contains(&over_year),
            "Discord >1y share {over_year}"
        );
    }

    #[test]
    fn fig6_revocation_ordering() {
        let [wa, tg, dc] = output().revocation;
        // Paper: 27.3% / 20.4% / 68.4%.
        assert!(
            dc.revoked_fraction > 0.55,
            "DC revoked {}",
            dc.revoked_fraction
        );
        assert!(
            dc.revoked_fraction > wa.revoked_fraction,
            "DC {} > WA {}",
            dc.revoked_fraction,
            wa.revoked_fraction
        );
        assert!(
            wa.revoked_fraction > tg.revoked_fraction,
            "WA {} > TG {}",
            wa.revoked_fraction,
            tg.revoked_fraction
        );
        // Paper: 6.4% / 16.3% / 67.4% dead before first observation.
        assert!(
            dc.dead_on_arrival_fraction > 0.5,
            "DC dead-on-arrival {}",
            dc.dead_on_arrival_fraction
        );
        assert!(
            tg.dead_on_arrival_fraction > wa.dead_on_arrival_fraction,
            "TG {} > WA {}",
            tg.dead_on_arrival_fraction,
            wa.dead_on_arrival_fraction
        );
    }

    #[test]
    fn fig6_internal_consistency() {
        for (kind, s) in PlatformKind::ALL.into_iter().zip(output().revocation) {
            assert!(s.observed > 0);
            assert!(s.dead_on_arrival_fraction <= s.revoked_fraction + 1e-9);
            let per_day_total: f64 = s.revoked_per_day.iter().sum();
            assert!(
                (per_day_total - s.revoked_fraction).abs() < 1e-9,
                "{kind}: per-day revocations must sum to the total"
            );
            // Lifetimes are within the window.
            if let Some(max) = s.lifetime_days.max() {
                assert!(max <= 37.0);
            }
        }
    }

    #[test]
    fn most_whatsapp_groups_observed_alive() {
        let [f, _, f_dc] = output().ever_alive;
        assert!(f > 0.85, "WA ever-alive {f}");
        assert!(f_dc < 0.5, "DC ever-alive {f_dc}");
    }
}
