//! Group composition: Fig 7 (member counts, online share, growth) and
//! §5's "Group Creators" analysis.

use crate::pipeline::ecdf_stats;
use crate::stats::Ecdf;
use chatlens_checkpoint::{persist_struct, CheckpointError, Persist, Reader, Writer};
use chatlens_core::intern::Interner;
use chatlens_core::joiner::JoinedGroup;
use chatlens_core::monitor::{ObservedStatus, TimelineStore};
use chatlens_core::pii::PiiStore;
use chatlens_core::{discovery::DiscoveryRecord, Dataset, DayFold, DaySlice};
use chatlens_platforms::id::PlatformKind;
use chatlens_simnet::par::Pool;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fig 7c roll-up: growth between first and last observation.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowthStats {
    /// Signed member-count deltas (last − first observation).
    pub deltas: Ecdf,
    /// Share of groups that grew.
    pub grew: f64,
    /// Share that shrank.
    pub shrank: f64,
    /// Share that ended exactly where they started.
    pub flat: f64,
}

/// §5 "Group Creators" roll-up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CreatorStats {
    /// Distinct creators identified.
    pub creators: u64,
    /// Groups attributable to a creator.
    pub groups: u64,
    /// Share of creators with exactly one group.
    pub single_group_share: f64,
    /// The largest number of groups by one creator.
    pub max_groups: u64,
}

/// Creator statistics for one platform. WhatsApp creators are identified
/// by the landing page's (hashed) phone; Discord creators by the invite
/// API's creator id; Telegram creators are only known for joined groups
/// (each had a distinct creator in the paper — and here, by
/// construction of the generator).
fn creators_from(
    groups: &[DiscoveryRecord],
    interner: &Interner,
    timelines: &TimelineStore,
    joined: &[JoinedGroup],
    kind: PlatformKind,
) -> CreatorStats {
    let timeline_of = |rec: &DiscoveryRecord| {
        interner
            .get(&rec.invite.dedup_key())
            .and_then(|s| timelines.get(s.index()))
    };
    // BTreeMap so the creator aggregates iterate in key order — a pure
    // function of the dataset, never of hasher state (lint rule D2).
    let mut per_creator: BTreeMap<String, u64> = BTreeMap::new();
    match kind {
        PlatformKind::WhatsApp => {
            for rec in groups.iter().filter(|g| g.platform == kind) {
                if let Some(h) = timeline_of(rec).and_then(|t| t.wa_creator_hash.as_ref()) {
                    *per_creator.entry(h.clone()).or_insert(0) += 1;
                }
            }
        }
        PlatformKind::Discord => {
            for rec in groups.iter().filter(|g| g.platform == kind) {
                if let Some(c) = timeline_of(rec).and_then(|t| t.dc_creator) {
                    *per_creator.entry(c.to_string()).or_insert(0) += 1;
                }
            }
        }
        PlatformKind::Telegram => {
            // Creator identity is only visible for joined groups; the API
            // exposes no cross-group creator handle beyond that, so each
            // joined group contributes one creator (as in §5).
            for (i, _) in joined.iter().filter(|j| j.platform == kind).enumerate() {
                per_creator.insert(format!("joined-{i}"), 1);
            }
        }
    }
    let creators = per_creator.len() as u64;
    let groups: u64 = per_creator.values().sum();
    let single = per_creator.values().filter(|&&c| c == 1).count() as u64;
    CreatorStats {
        creators,
        groups,
        single_group_share: single as f64 / creators.max(1) as f64,
        max_groups: per_creator.values().copied().max().unwrap_or(0),
    }
}

/// §5 "Group Countries": WhatsApp creator country counts, descending.
fn countries_from(pii: &PiiStore) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = pii
        .wa_creator_countries
        .iter()
        .map(|(k, &n)| (k.clone(), n))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// Everything the membership fold yields: Fig 7 and the §5 creator
/// roll-ups per platform (indexed by [`PlatformKind::index`]), plus the
/// WhatsApp creator countries.
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipOutput {
    /// Fig 7a: member counts at each group's first alive observation.
    pub member_counts: [Ecdf; 3],
    /// Fig 7b: online members as a fraction of total, at the first
    /// alive observation (only meaningful for Telegram and Discord).
    pub online_fractions: [Ecdf; 3],
    /// Fig 7c: growth between first and last alive observation.
    pub growth: [GrowthStats; 3],
    /// §5 "Group Creators".
    pub creators: [CreatorStats; 3],
    /// §5 "Group Countries": WhatsApp creator country counts,
    /// descending.
    pub whatsapp_countries: Vec<(String, u64)>,
}

persist_struct!(CreatorStats {
    creators,
    groups,
    single_group_share,
    max_groups
});

fn render_platform(
    out: &mut String,
    kind: PlatformKind,
    counts: &Ecdf,
    online: &Ecdf,
    growth: &GrowthStats,
    creators: &CreatorStats,
) {
    let name = kind.name();
    writeln!(out, "{name}.member_counts: {}", ecdf_stats(counts)).unwrap();
    writeln!(out, "{name}.online_fractions: {}", ecdf_stats(online)).unwrap();
    writeln!(out, "{name}.growth_deltas: {}", ecdf_stats(&growth.deltas)).unwrap();
    writeln!(
        out,
        "{name}.growth: grew={:?} shrank={:?} flat={:?}",
        growth.grew, growth.shrank, growth.flat
    )
    .unwrap();
    writeln!(
        out,
        "{name}.creators: creators={} groups={} single_group_share={:?} max_groups={}",
        creators.creators, creators.groups, creators.single_group_share, creators.max_groups
    )
    .unwrap();
}

/// The membership fragment of an assembled dataset (see
/// [`fold_dataset`](crate::pipeline::fold_dataset)).
pub fn fragment(ds: &Dataset, pool: &Pool) -> String {
    crate::pipeline::fold_dataset(ds, MembershipFold::new()).finish(pool)
}

/// One monitored group's folded membership state, updated from the day's
/// timeline observation.
#[derive(Debug, Clone, PartialEq)]
struct SlotMembership {
    /// [`PlatformKind::index`] of the group's platform.
    platform: u8,
    /// Size at the first alive observation (Fig 7a).
    first_size: Option<u32>,
    /// Size at the latest alive observation (Fig 7c's "last").
    last_size: Option<u32>,
    /// Alive observations so far (growth needs at least two).
    alive_days: u32,
    /// Whether the first alive observation has been consumed.
    online_seen: bool,
    /// Online share at the first alive observation, when its size was
    /// non-zero (Fig 7b).
    online_frac: Option<f64>,
}

persist_struct!(SlotMembership {
    platform,
    first_size,
    last_size,
    alive_days,
    online_seen,
    online_frac
});

/// Fig 7 and §5's creators: one compact record per monitored group,
/// updated from each day's observation, plus the creator and country
/// roll-ups captured on the final day (their inputs — landing metadata
/// and joined groups — are only complete then). Growth is only
/// measurable for groups with at least two alive observations (a single
/// snapshot has no "first and last day" to difference).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MembershipFold {
    slots: Vec<SlotMembership>,
    creators: Vec<CreatorStats>,
    countries: Vec<(String, u64)>,
}

impl MembershipFold {
    /// An empty fold.
    pub fn new() -> MembershipFold {
        MembershipFold::default()
    }

    /// The folded Fig 7 and §5 roll-ups.
    pub fn output(&self) -> MembershipOutput {
        let per_platform = PlatformKind::ALL.map(|kind| {
            let p = kind.index() as u8;
            let mut sizes: Vec<f64> = Vec::new();
            let mut fracs: Vec<f64> = Vec::new();
            let mut deltas: Vec<f64> = Vec::new();
            let (mut grew, mut shrank, mut flat) = (0u64, 0u64, 0u64);
            for s in self.slots.iter().filter(|s| s.platform == p) {
                if let Some(first) = s.first_size {
                    sizes.push(f64::from(first));
                }
                if let Some(f) = s.online_frac {
                    fracs.push(f);
                }
                if s.alive_days >= 2 {
                    if let (Some(first), Some(last)) = (s.first_size, s.last_size) {
                        deltas.push(f64::from(last) - f64::from(first));
                        if last > first {
                            grew += 1;
                        } else if last < first {
                            shrank += 1;
                        } else {
                            flat += 1;
                        }
                    }
                }
            }
            let n = (grew + shrank + flat).max(1) as f64;
            let growth = GrowthStats {
                deltas: Ecdf::new(deltas),
                grew: grew as f64 / n,
                shrank: shrank as f64 / n,
                flat: flat as f64 / n,
            };
            (Ecdf::new(sizes), Ecdf::new(fracs), growth)
        });
        let [wa, tg, dc] = per_platform;
        let creators = PlatformKind::ALL
            .map(|kind| self.creators.get(kind.index()).cloned().unwrap_or_default());
        MembershipOutput {
            member_counts: [wa.0, tg.0, dc.0],
            online_fractions: [wa.1, tg.1, dc.1],
            growth: [wa.2, tg.2, dc.2],
            creators,
            whatsapp_countries: self.countries.clone(),
        }
    }
}

impl DayFold for MembershipFold {
    fn name(&self) -> &'static str {
        "membership"
    }

    fn fold_day(&mut self, slice: &DaySlice<'_>) {
        let day = slice.day;
        for rec in slice.groups_today() {
            self.slots.push(SlotMembership {
                platform: rec.platform.index() as u8,
                first_size: None,
                last_size: None,
                alive_days: 0,
                online_seen: false,
                online_frac: None,
            });
        }
        for (slot, s) in self.slots.iter_mut().enumerate() {
            let Some(tl) = slice.timelines.get(slot) else {
                continue;
            };
            if let Some(ObservedStatus::Alive { size, online }) = tl.status_on(day) {
                s.alive_days += 1;
                if s.first_size.is_none() {
                    s.first_size = Some(size);
                }
                s.last_size = Some(size);
                if !s.online_seen {
                    s.online_seen = true;
                    if size > 0 {
                        s.online_frac = Some(f64::from(online) / f64::from(size));
                    }
                }
            }
        }
        if slice.is_final() {
            self.creators = PlatformKind::ALL
                .into_iter()
                .map(|kind| {
                    creators_from(
                        slice.groups(),
                        slice.interner,
                        slice.timelines,
                        slice.joined(),
                        kind,
                    )
                })
                .collect();
            self.countries = countries_from(slice.pii);
        }
    }

    fn finish(&self, _pool: &Pool) -> String {
        let o = self.output();
        let mut out = String::from("membership v1\n");
        for kind in PlatformKind::ALL {
            let i = kind.index();
            render_platform(
                &mut out,
                kind,
                &o.member_counts[i],
                &o.online_fractions[i],
                &o.growth[i],
                &o.creators[i],
            );
        }
        writeln!(out, "whatsapp_countries: {:?}", o.whatsapp_countries).unwrap();
        out
    }

    fn save_state(&self, w: &mut Writer) {
        self.slots.save(w);
        self.creators.save(w);
        self.countries.save(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.slots = Persist::load(r)?;
        self.creators = Persist::load(r)?;
        self.countries = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::folded;

    fn output() -> MembershipOutput {
        folded().membership.output()
    }

    #[test]
    fn fig7a_size_ordering() {
        let [wa, tg, dc] = output().member_counts;
        assert!(wa.max().unwrap() <= 257.0, "WhatsApp cap");
        assert!(
            tg.max().unwrap() > 10_000.0,
            "Telegram tail reaches 10k+: {}",
            tg.max().unwrap()
        );
        // Paper: ~60% of Discord groups under 100 members vs ~40% for
        // Telegram.
        let dc_small = dc.fraction_at_most(100.0);
        let tg_small = tg.fraction_at_most(100.0);
        assert!(dc_small > tg_small, "DC {dc_small} vs TG {tg_small}");
    }

    #[test]
    fn fig7b_online_fractions() {
        let [wa, tg, dc] = output().online_fractions;
        let dc_active = dc.fraction_above(0.5);
        let tg_active = tg.fraction_above(0.5);
        assert!(
            (0.05..0.3).contains(&dc_active),
            "DC >50% online: {dc_active}"
        );
        assert!(tg_active < dc_active, "TG {tg_active} < DC {dc_active}");
        assert_eq!(
            wa.max().unwrap_or(0.0),
            0.0,
            "WhatsApp shows no online counts"
        );
    }

    #[test]
    fn fig7c_growth() {
        let growth = output().growth;
        for (kind, g) in PlatformKind::ALL.into_iter().zip(&growth) {
            assert!(
                g.grew > g.shrank,
                "{kind}: sharing on Twitter grows groups ({} vs {})",
                g.grew,
                g.shrank
            );
            assert!((g.grew + g.shrank + g.flat - 1.0).abs() < 1e-9);
        }
        // WhatsApp deltas are bounded by the cap.
        let wa = &growth[PlatformKind::WhatsApp.index()];
        assert!(wa.deltas.max().unwrap() <= 257.0);
    }

    #[test]
    fn creators_mostly_single_group() {
        let creators = output().creators;
        for kind in [PlatformKind::WhatsApp, PlatformKind::Discord] {
            let c = &creators[kind.index()];
            assert!(c.creators > 0, "{kind}");
            assert!(c.creators <= c.groups);
            assert!(
                c.single_group_share > 0.85,
                "{kind} single-group share {}",
                c.single_group_share
            );
        }
        let tg = &creators[PlatformKind::Telegram.index()];
        assert_eq!(tg.single_group_share, 1.0);
        assert_eq!(tg.creators, tg.groups);
    }

    #[test]
    fn whatsapp_countries_brazil_first() {
        let countries = output().whatsapp_countries;
        assert!(!countries.is_empty());
        assert_eq!(countries[0].0, "BR", "countries: {countries:?}");
    }
}
