//! In-group activity: Fig 8 (message types) and Fig 9 (volumes per group
//! and per user), plus §5's active-member shares.

use crate::fanout::per_platform;
use crate::pipeline::ecdf_stats;
use crate::stats::{top_share, Ecdf};
use chatlens_checkpoint::{persist_struct, CheckpointError, Persist, Reader, Writer};
use chatlens_core::joiner::JoinedGroup;
use chatlens_core::{Dataset, DayFold, DaySlice};
use chatlens_platforms::id::PlatformKind;
use chatlens_platforms::message::MessageKind;
use chatlens_simnet::par::Pool;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Per-kind message counts over one platform's joined groups.
fn kind_counts_from<'a>(groups: impl Iterator<Item = &'a JoinedGroup>) -> [u64; 9] {
    let mut counts = [0u64; 9];
    for jg in groups {
        for m in &jg.messages {
            counts[m.kind.index()] += 1;
        }
    }
    counts
}

/// Fig 8 shares from raw per-kind counts; shared by the batch path and
/// [`MessagesFold`] so both run the identical division.
fn shares_from(counts: &[u64; 9]) -> Vec<(MessageKind, f64)> {
    let total: u64 = counts.iter().sum();
    MessageKind::ALL
        .into_iter()
        .zip(counts)
        .map(|(k, c)| (k, *c as f64 / total.max(1) as f64))
        .collect()
}

/// Fig 8: share of messages per [`MessageKind`], in `MessageKind::ALL`
/// order.
pub fn kind_shares(ds: &Dataset, kind: PlatformKind) -> Vec<(MessageKind, f64)> {
    shares_from(&kind_counts_from(ds.joined_of(kind)))
}

/// Multimedia share of an already-computed Fig 8 breakdown.
fn multimedia_from(shares: &[(MessageKind, f64)]) -> f64 {
    shares
        .iter()
        .filter(|(k, _)| k.is_multimedia())
        .map(|(_, s)| s)
        .sum()
}

/// Share of multimedia messages (image/video/audio/sticker) — §5 notes
/// WhatsApp exceeds 20%.
pub fn multimedia_share(ds: &Dataset, kind: PlatformKind) -> f64 {
    multimedia_from(&kind_shares(ds, kind))
}

/// Fig 9a per-group daily rates, in joined order.
fn rates_from<'a>(
    end_day: i64,
    kind: PlatformKind,
    groups: impl Iterator<Item = &'a JoinedGroup>,
) -> Vec<f64> {
    let mut rates: Vec<f64> = Vec::new();
    for jg in groups {
        let start_day = match kind {
            PlatformKind::WhatsApp => jg.joined_at.date().day_number(),
            _ => jg.created_day.unwrap_or(jg.joined_at.date().day_number()),
        };
        let days = (end_day - start_day).max(1) as f64;
        rates.push(jg.messages.len() as f64 / days);
    }
    rates
}

/// Fig 9a: mean messages per day per joined group. WhatsApp rates are
/// normalised by the membership period (messages are only visible from the
/// join date); Telegram/Discord by the group's age (full history).
pub fn msgs_per_group_day(ds: &Dataset, kind: PlatformKind) -> Ecdf {
    Ecdf::new(rates_from(
        ds.window.end.day_number(),
        kind,
        ds.joined_of(kind),
    ))
}

/// Fig 9b per-sender tallies, keyed (and therefore ordered) by sender id.
fn per_user_from<'a>(groups: impl Iterator<Item = &'a JoinedGroup>) -> BTreeMap<u32, u64> {
    // Tally in a HashMap (one hash probe per message), then order once by
    // sender id so Fig 9b's series is identical run-to-run (lint rule D2).
    let mut tally: HashMap<u32, u64> = HashMap::new();
    for jg in groups {
        for m in &jg.messages {
            *tally.entry(m.sender.0).or_insert(0) += 1;
        }
    }
    tally.into_iter().collect::<BTreeMap<u32, u64>>()
}

/// Fig 9b data: per-user message counts across all joined groups of one
/// platform.
pub fn msgs_per_user(ds: &Dataset, kind: PlatformKind) -> Vec<u64> {
    per_user_from(ds.joined_of(kind)).into_values().collect()
}

/// Fig 9b roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct UserActivity {
    /// Distinct message senders.
    pub senders: u64,
    /// Share of senders with at most 10 messages.
    pub low_volume_share: f64,
    /// Share of all messages sent by the top 1% of senders.
    pub top1_share: f64,
    /// ECDF over per-sender volumes.
    pub volumes: Ecdf,
}

/// Fig 9b roll-up from an id-ordered volume series; shared by the batch
/// path and [`MessagesFold`].
fn activity_from(volumes: &[u64]) -> UserActivity {
    let e = Ecdf::from_ints(volumes.iter().copied());
    UserActivity {
        senders: volumes.len() as u64,
        low_volume_share: e.fraction_at_most(10.0),
        top1_share: top_share(volumes, 0.01),
        volumes: e,
    }
}

/// Compute Fig 9b for one platform.
pub fn user_activity(ds: &Dataset, kind: PlatformKind) -> UserActivity {
    activity_from(&msgs_per_user(ds, kind))
}

/// The §5 active-member division, `0.0` when no members were counted.
fn active_share(senders: u64, members: u64) -> f64 {
    let members = members as f64;
    if members == 0.0 {
        0.0
    } else {
        senders as f64 / members
    }
}

/// §5: distinct senders as a share of the joined groups' total members
/// (59.4% WhatsApp, 14.6% Telegram, 65.8% Discord in the paper).
pub fn active_member_share(ds: &Dataset, kind: PlatformKind) -> f64 {
    active_share(
        user_activity(ds, kind).senders,
        ds.summary(kind).platform_users,
    )
}

/// Fig 8 for all three platforms, fanned out across the pool; element `i`
/// equals `kind_shares(ds, PlatformKind::ALL[i])` at any thread count.
pub fn kind_shares_all(ds: &Dataset, pool: &Pool) -> [Vec<(MessageKind, f64)>; 3] {
    per_platform(pool, |kind| kind_shares(ds, kind))
}

/// Fig 9a for all three platforms, fanned out across the pool.
pub fn msgs_per_group_day_all(ds: &Dataset, pool: &Pool) -> [Ecdf; 3] {
    per_platform(pool, |kind| msgs_per_group_day(ds, kind))
}

/// Fig 9b for all three platforms, fanned out across the pool.
pub fn user_activity_all(ds: &Dataset, pool: &Pool) -> [UserActivity; 3] {
    per_platform(pool, |kind| user_activity(ds, kind))
}

fn render_platform(
    out: &mut String,
    kind: PlatformKind,
    shares: &[(MessageKind, f64)],
    rates: &Ecdf,
    activity: &UserActivity,
    active: f64,
) {
    let name = kind.name();
    writeln!(out, "{name}.kind_shares: {shares:?}").unwrap();
    writeln!(
        out,
        "{name}.multimedia_share: {:?}",
        multimedia_from(shares)
    )
    .unwrap();
    writeln!(out, "{name}.msgs_per_group_day: {}", ecdf_stats(rates)).unwrap();
    writeln!(
        out,
        "{name}.user_activity: senders={} low_volume_share={:?} top1_share={:?}",
        activity.senders, activity.low_volume_share, activity.top1_share
    )
    .unwrap();
    writeln!(
        out,
        "{name}.msgs_per_user: {}",
        ecdf_stats(&activity.volumes)
    )
    .unwrap();
    writeln!(out, "{name}.active_member_share: {active:?}").unwrap();
}

/// The batch messages fragment: Fig 8 kind shares, Fig 9 volumes, and
/// the §5 active-member shares, rendered canonically from the final
/// dataset. [`MessagesFold`] reproduces these bytes incrementally.
pub fn fragment(ds: &Dataset, pool: &Pool) -> String {
    let sections = per_platform(pool, |kind| {
        let mut out = String::new();
        let activity = user_activity(ds, kind);
        let active = active_share(activity.senders, ds.summary(kind).platform_users);
        render_platform(
            &mut out,
            kind,
            &kind_shares(ds, kind),
            &msgs_per_group_day(ds, kind),
            &activity,
            active,
        );
        out
    });
    let mut out = String::from("messages v1\n");
    for s in sections {
        out.push_str(&s);
    }
    out
}

/// One platform's folded message state.
#[derive(Debug, Clone, Default, PartialEq)]
struct PlatMessages {
    /// Message tallies per [`MessageKind::index`].
    kind_counts: [u64; 9],
    /// Fig 9a per-group daily rates, in joined order.
    rates: Vec<f64>,
    /// Fig 9b per-sender tallies.
    per_user: BTreeMap<u32, u64>,
    /// Total members across joined groups (§5 denominator).
    platform_users: u64,
}

persist_struct!(PlatMessages {
    kind_counts,
    rates,
    per_user,
    platform_users
});

/// Incremental twin of [`fragment`].
///
/// Every messages artifact is a pure function of the joined-group store,
/// and a joined group's message log and member list keep growing until
/// the final day's collection event — so this fold's `fold_day` is a
/// deliberate no-op until [`DaySlice::is_final`], where it captures the
/// compact tallies (kind counts, per-group rates, per-sender volumes,
/// member totals) the finish step renders from. The state is still a
/// fraction of the raw message log's size, which is what the checkpoint
/// carries on the batch path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessagesFold {
    plats: [PlatMessages; 3],
}

impl MessagesFold {
    /// An empty fold.
    pub fn new() -> MessagesFold {
        MessagesFold::default()
    }
}

impl DayFold for MessagesFold {
    fn name(&self) -> &'static str {
        "messages"
    }

    fn fold_day(&mut self, slice: &DaySlice<'_>) {
        if !slice.is_final() {
            return;
        }
        let end_day = slice.window.end.day_number();
        for (i, kind) in PlatformKind::ALL.into_iter().enumerate() {
            let joined = || slice.joined().iter().filter(|j| j.platform == kind);
            let p = &mut self.plats[i];
            p.kind_counts = kind_counts_from(joined());
            p.rates = rates_from(end_day, kind, joined());
            p.per_user = per_user_from(joined());
            p.platform_users = joined()
                .map(|jg| match kind {
                    PlatformKind::WhatsApp => jg.members.len() as u64,
                    _ => slice
                        .interner
                        .get(&jg.key)
                        .and_then(|s| slice.timelines.get(s.index()))
                        .and_then(|t| t.size_span())
                        .map(|(_, last)| u64::from(last))
                        .unwrap_or(0),
                })
                .sum();
        }
    }

    fn finish(&self, pool: &Pool) -> String {
        let sections = per_platform(pool, |kind| {
            let p = &self.plats[kind.index()];
            let shares = shares_from(&p.kind_counts);
            let rates = Ecdf::new(p.rates.clone());
            let volumes: Vec<u64> = p.per_user.values().copied().collect();
            let activity = activity_from(&volumes);
            let active = active_share(activity.senders, p.platform_users);
            let mut out = String::new();
            render_platform(&mut out, kind, &shares, &rates, &activity, active);
            out
        });
        let mut out = String::from("messages v1\n");
        for s in sections {
            out.push_str(&s);
        }
        out
    }

    fn save_state(&self, w: &mut Writer) {
        self.plats.save(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.plats = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatlens_core::run_study;
    use chatlens_workload::ScenarioConfig;
    use std::sync::OnceLock;

    fn dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| run_study(ScenarioConfig::tiny()))
    }

    #[test]
    fn fig8_text_dominates_everywhere() {
        let ds = dataset();
        for kind in PlatformKind::ALL {
            let shares = kind_shares(ds, kind);
            assert_eq!(shares[0].0, MessageKind::Text);
            assert!(shares[0].1 > 0.7, "{kind} text share {}", shares[0].1);
            let total: f64 = shares.iter().map(|(_, s)| s).sum();
            assert!((total - 1.0).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn fig8_whatsapp_multimedia_heavy() {
        let ds = dataset();
        let wa = multimedia_share(ds, PlatformKind::WhatsApp);
        let tg = multimedia_share(ds, PlatformKind::Telegram);
        let dc = multimedia_share(ds, PlatformKind::Discord);
        assert!(wa > 0.15, "WA multimedia {wa}");
        assert!(wa > tg && tg > dc, "WA {wa} > TG {tg} > DC {dc}");
        // Stickers specifically are a WhatsApp phenomenon (~10%).
        let sticker = kind_shares(ds, PlatformKind::WhatsApp)
            .into_iter()
            .find(|(k, _)| *k == MessageKind::Sticker)
            .unwrap()
            .1;
        assert!((sticker - 0.10).abs() < 0.04, "WA sticker share {sticker}");
    }

    #[test]
    fn fig8_telegram_has_service_messages() {
        let ds = dataset();
        let service = kind_shares(ds, PlatformKind::Telegram)
            .into_iter()
            .find(|(k, _)| *k == MessageKind::Service)
            .unwrap()
            .1;
        assert!(service > 0.005, "TG service share {service}");
        let dc_service = kind_shares(ds, PlatformKind::Discord)
            .into_iter()
            .find(|(k, _)| *k == MessageKind::Service)
            .unwrap()
            .1;
        assert!(dc_service < 0.005, "DC service share {dc_service}");
    }

    #[test]
    fn fig9a_telegram_least_active_per_day() {
        let ds = dataset();
        let wa = msgs_per_group_day(ds, PlatformKind::WhatsApp);
        let tg = msgs_per_group_day(ds, PlatformKind::Telegram);
        let dc = msgs_per_group_day(ds, PlatformKind::Discord);
        // Paper: ~60% of WA/DC groups above 10 msgs/day vs ~25% of TG.
        let wa_busy = wa.fraction_above(10.0);
        let tg_busy = tg.fraction_above(10.0);
        let dc_busy = dc.fraction_above(10.0);
        assert!(tg_busy < wa_busy, "TG {tg_busy} < WA {wa_busy}");
        assert!(tg_busy < dc_busy, "TG {tg_busy} < DC {dc_busy}");
        assert!(tg_busy < 0.45, "TG busy share {tg_busy}");
    }

    #[test]
    fn fig9b_low_volume_majority_and_heavy_tail() {
        let ds = dataset();
        for kind in PlatformKind::ALL {
            let ua = user_activity(ds, kind);
            assert!(ua.senders > 0, "{kind}");
            assert!(
                ua.low_volume_share > 0.5,
                "{kind}: most senders send few messages ({})",
                ua.low_volume_share
            );
            assert!(
                ua.top1_share > 0.05,
                "{kind}: the top 1% carries weight ({})",
                ua.top1_share
            );
        }
        // Telegram/Discord are more concentrated than WhatsApp (60/63% vs
        // 31% in the paper).
        let wa = user_activity(ds, PlatformKind::WhatsApp).top1_share;
        let tg = user_activity(ds, PlatformKind::Telegram).top1_share;
        assert!(tg > wa, "TG {tg} > WA {wa}");
    }

    #[test]
    fn active_member_share_ordering() {
        let ds = dataset();
        let wa = active_member_share(ds, PlatformKind::WhatsApp);
        let tg = active_member_share(ds, PlatformKind::Telegram);
        let dc = active_member_share(ds, PlatformKind::Discord);
        // Paper: 59.4% / 14.6% / 65.8% — Telegram far below the others
        // (channels mute almost everyone).
        assert!(tg < wa && tg < dc, "TG {tg} vs WA {wa}, DC {dc}");
        assert!(tg < 0.45, "TG active share {tg}");
    }

    #[test]
    fn parallel_fanout_matches_serial() {
        let ds = dataset();
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let kinds = kind_shares_all(ds, &pool);
            let volumes = msgs_per_group_day_all(ds, &pool);
            let activity = user_activity_all(ds, &pool);
            for (i, kind) in PlatformKind::ALL.into_iter().enumerate() {
                assert_eq!(kinds[i], kind_shares(ds, kind), "{kind}");
                assert_eq!(volumes[i], msgs_per_group_day(ds, kind), "{kind}");
                assert_eq!(activity[i], user_activity(ds, kind), "{kind}");
            }
        }
    }
}
