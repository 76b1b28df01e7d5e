//! In-group activity: Fig 8 (message types) and Fig 9 (volumes per group
//! and per user), plus §5's active-member shares.

use crate::pipeline::ecdf_stats;
use crate::stats::{top_share, Ecdf};
use chatlens_checkpoint::{persist_struct, CheckpointError, Persist, Reader, Writer};
use chatlens_core::joiner::JoinedGroup;
use chatlens_core::{Dataset, DayFold, DaySlice};
use chatlens_platforms::id::PlatformKind;
use chatlens_platforms::message::MessageKind;
use chatlens_simnet::fastmap::FastMap;
use chatlens_simnet::par::Pool;
use std::collections::BTreeMap;
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

/// Fig 8: share of messages per [`MessageKind`], in `MessageKind::ALL`
/// order.
fn shares_from(counts: &[u64; 9]) -> Vec<(MessageKind, f64)> {
    let total: u64 = counts.iter().sum();
    MessageKind::ALL
        .into_iter()
        .zip(counts)
        .map(|(k, c)| (k, *c as f64 / total.max(1) as f64))
        .collect()
}

/// Multimedia share of an already-computed Fig 8 breakdown.
fn multimedia_from(shares: &[(MessageKind, f64)]) -> f64 {
    shares
        .iter()
        .filter(|(k, _)| k.is_multimedia())
        .map(|(_, s)| s)
        .sum()
}

/// Fig 9a per-group daily rates, in joined order: mean messages per day
/// per joined group. WhatsApp rates are normalised by the membership
/// period (messages are only visible from the join date);
/// Telegram/Discord by the group's age (full history).
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

/// Fig 9b per-sender tallies, keyed (and therefore ordered) by sender id.
fn per_user_from<'a>(groups: impl Iterator<Item = &'a JoinedGroup>) -> BTreeMap<u32, u64> {
    // Tally in a FastMap (one hash probe per message), then order once by
    // sender id so Fig 9b's series is identical run-to-run (lint rule D2).
    let mut tally: FastMap<u32, u64> = FastMap::default();
    for jg in groups {
        for m in &jg.messages {
            *tally.entry(m.sender.0).or_insert(0) += 1;
        }
    }
    tally.into_iter().collect::<BTreeMap<u32, u64>>()
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

/// Fig 9b roll-up from an id-ordered volume series.
fn activity_from(volumes: &[u64]) -> UserActivity {
    let e = Ecdf::from_ints(volumes.iter().copied());
    UserActivity {
        senders: volumes.len() as u64,
        low_volume_share: e.fraction_at_most(10.0),
        top1_share: top_share(volumes, 0.01),
        volumes: e,
    }
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

/// Everything the messages fold yields: Figs 8 and 9 and the §5
/// active-member shares per platform (indexed by
/// [`PlatformKind::index`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MessagesOutput {
    /// Fig 8: share of messages per [`MessageKind`], in
    /// `MessageKind::ALL` order.
    pub kind_shares: [Vec<(MessageKind, f64)>; 3],
    /// Fig 9a: mean messages per day per joined group.
    pub msgs_per_group_day: [Ecdf; 3],
    /// Fig 9b: per-sender volumes and their concentration.
    pub user_activity: [UserActivity; 3],
    /// §5: distinct senders as a share of the joined groups' total
    /// members (59.4% WhatsApp, 14.6% Telegram, 65.8% Discord in the
    /// paper).
    pub active_member_share: [f64; 3],
}

impl MessagesOutput {
    /// Share of multimedia messages (image/video/audio/sticker) — §5
    /// notes WhatsApp exceeds 20%.
    pub fn multimedia_share(&self, kind: PlatformKind) -> f64 {
        multimedia_from(&self.kind_shares[kind.index()])
    }
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

/// The messages fragment of an assembled dataset (see
/// [`fold_dataset`](crate::pipeline::fold_dataset)).
pub fn fragment(ds: &Dataset, pool: &Pool) -> String {
    crate::pipeline::fold_dataset(ds, MessagesFold::new()).finish(pool)
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

/// Figs 8 and 9 and the §5 active-member shares.
///
/// Every messages artifact is a pure function of the joined-group store,
/// and a joined group's message log and member list keep growing until
/// the final day's collection event — so this fold's `fold_day` is a
/// deliberate no-op until [`DaySlice::is_final`], where it captures the
/// compact tallies (kind counts, per-group rates, per-sender volumes,
/// member totals) the finish step renders from. The state is still a
/// fraction of the raw message log's size.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessagesFold {
    plats: [PlatMessages; 3],
}

impl MessagesFold {
    /// An empty fold.
    pub fn new() -> MessagesFold {
        MessagesFold::default()
    }

    /// The folded Figs 8 and 9 and active-member shares.
    pub fn output(&self) -> MessagesOutput {
        let user_activity = self.plats.each_ref().map(|p| {
            let volumes: Vec<u64> = p.per_user.values().copied().collect();
            activity_from(&volumes)
        });
        MessagesOutput {
            kind_shares: self.plats.each_ref().map(|p| shares_from(&p.kind_counts)),
            msgs_per_group_day: self.plats.each_ref().map(|p| Ecdf::new(p.rates.clone())),
            active_member_share: PlatformKind::ALL.map(|kind| {
                let i = kind.index();
                active_share(user_activity[i].senders, self.plats[i].platform_users)
            }),
            user_activity,
        }
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

    fn finish(&self, _pool: &Pool) -> String {
        let o = self.output();
        let mut out = String::from("messages v1\n");
        for kind in PlatformKind::ALL {
            let i = kind.index();
            render_platform(
                &mut out,
                kind,
                &o.kind_shares[i],
                &o.msgs_per_group_day[i],
                &o.user_activity[i],
                o.active_member_share[i],
            );
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
    use crate::pipeline::tests::folded;

    fn output() -> MessagesOutput {
        folded().messages.output()
    }

    fn share_of(kind: PlatformKind, message: MessageKind) -> f64 {
        output().kind_shares[kind.index()]
            .iter()
            .find(|(k, _)| *k == message)
            .unwrap()
            .1
    }

    #[test]
    fn fig8_text_dominates_everywhere() {
        for (kind, shares) in PlatformKind::ALL.into_iter().zip(output().kind_shares) {
            assert_eq!(shares[0].0, MessageKind::Text);
            assert!(shares[0].1 > 0.7, "{kind} text share {}", shares[0].1);
            let total: f64 = shares.iter().map(|(_, s)| s).sum();
            assert!((total - 1.0).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn fig8_whatsapp_multimedia_heavy() {
        let o = output();
        let wa = o.multimedia_share(PlatformKind::WhatsApp);
        let tg = o.multimedia_share(PlatformKind::Telegram);
        let dc = o.multimedia_share(PlatformKind::Discord);
        assert!(wa > 0.15, "WA multimedia {wa}");
        assert!(wa > tg && tg > dc, "WA {wa} > TG {tg} > DC {dc}");
        // Stickers specifically are a WhatsApp phenomenon (~10%).
        let sticker = share_of(PlatformKind::WhatsApp, MessageKind::Sticker);
        assert!((sticker - 0.10).abs() < 0.04, "WA sticker share {sticker}");
    }

    #[test]
    fn fig8_telegram_has_service_messages() {
        let service = share_of(PlatformKind::Telegram, MessageKind::Service);
        assert!(service > 0.005, "TG service share {service}");
        let dc_service = share_of(PlatformKind::Discord, MessageKind::Service);
        assert!(dc_service < 0.005, "DC service share {dc_service}");
    }

    #[test]
    fn fig9a_telegram_least_active_per_day() {
        let [wa, tg, dc] = output().msgs_per_group_day;
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
        let activity = output().user_activity;
        for (kind, ua) in PlatformKind::ALL.into_iter().zip(&activity) {
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
        let wa = activity[PlatformKind::WhatsApp.index()].top1_share;
        let tg = activity[PlatformKind::Telegram.index()].top1_share;
        assert!(tg > wa, "TG {tg} > WA {wa}");
    }

    #[test]
    fn active_member_share_ordering() {
        let [wa, tg, dc] = output().active_member_share;
        // Paper: 59.4% / 14.6% / 65.8% — Telegram far below the others
        // (channels mute almost everyone).
        assert!(tg < wa && tg < dc, "TG {tg} vs WA {wa}, DC {dc}");
        assert!(tg < 0.45, "TG active share {tg}");
    }
}
