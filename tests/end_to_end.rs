//! Cross-crate integration: one tiny campaign and its folded analyses,
//! the paper's qualitative findings checked end-to-end through the
//! public API.

use chatlens::analysis::{fold_dataset, StandardFolds};
use chatlens::platforms::id::PlatformKind;
use chatlens::twitter::Lang;
use chatlens::{run_study, Dataset, ScenarioConfig};
use std::sync::OnceLock;

/// The campaign's dataset and every analysis folded over it.
fn study() -> &'static (Dataset, StandardFolds) {
    static STUDY: OnceLock<(Dataset, StandardFolds)> = OnceLock::new();
    STUDY.get_or_init(|| {
        let ds = run_study(ScenarioConfig::tiny());
        let folds = fold_dataset(&ds, StandardFolds::new());
        (ds, folds)
    })
}

fn dataset() -> &'static Dataset {
    &study().0
}

fn folds() -> &'static StandardFolds {
    &study().1
}

#[test]
fn finding_1_twitter_is_a_rich_source() {
    // Every platform yields a steady stream of new groups every day.
    let ds = dataset();
    let discovery = folds().discovery.output();
    for kind in PlatformKind::ALL {
        let d = &discovery.daily[kind.index()];
        let days_with_new = d.new.iter().filter(|&&n| n > 0).count();
        assert!(
            days_with_new >= 30,
            "{kind}: new groups on only {days_with_new}/38 days"
        );
        assert!(ds.summary(kind).group_urls > 100, "{kind}");
    }
}

#[test]
fn finding_2_platform_content_differs() {
    // The tweet populations differ measurably across platforms: Telegram
    // is retweet- and hashtag-heavy, Discord skews Japanese.
    let content = folds().content.output();
    let [wa, tg, dc] = content.features;
    assert!(tg.retweets > dc.retweets && dc.retweets > wa.retweets);
    assert!(tg.with_hashtag > wa.with_hashtag);
    let dc_ja = content.language_share(PlatformKind::Discord, Lang::Ja);
    let wa_ja = content.language_share(PlatformKind::WhatsApp, Lang::Ja);
    assert!(dc_ja > 0.10 && dc_ja > 3.0 * wa_ja.max(1e-9));
}

#[test]
fn finding_3_group_urls_are_ephemeral() {
    let [wa, tg, dc] = folds().lifecycle.output().revocation;
    // Paper finding 3: 27% / 20.4% / 68.4% become inaccessible.
    assert!(dc.revoked_fraction > 0.5, "DC {}", dc.revoked_fraction);
    assert!(wa.revoked_fraction > tg.revoked_fraction);
    assert!(wa.revoked_fraction < 0.45 && tg.revoked_fraction < 0.35);
    // Discord's deaths happen almost entirely before the first check.
    assert!(dc.dead_on_arrival_fraction / dc.revoked_fraction > 0.75);
}

#[test]
fn finding_4_pii_exposure_hierarchy() {
    let [wa, tg, dc] = folds().pii.output().exposure;
    // WhatsApp: every observed user's phone is exposed.
    assert_eq!(wa.phone_rate, Some(1.0));
    assert!(wa.phones.unwrap() as f64 >= wa.users_observed as f64 * 0.95);
    // Telegram: a sliver opted in.
    assert!(tg.phone_rate.unwrap() < 0.03);
    // Discord: no phones, but ~30% linked accounts.
    assert_eq!(dc.phones, None);
    assert!((dc.link_rate.unwrap() - 0.30).abs() < 0.12);
}

#[test]
fn whatsapp_limits_shape_everything() {
    // The 257-member cap explains three separate observations: small
    // groups, fresh sharing, multi-group creators.
    let wa = PlatformKind::WhatsApp.index();
    let membership = folds().membership.output();
    assert!(membership.member_counts[wa].max().unwrap() <= 257.0);
    let stale = &folds().lifecycle.output().staleness[wa];
    assert!(stale.fraction_at_most(0.0) > 0.55, "shared fresh");
    let creators = &membership.creators[wa];
    assert!(
        creators.single_group_share < 1.0,
        "some creators run multiple groups to beat the cap"
    );
}

#[test]
fn message_collection_respects_platform_semantics() {
    let ds = dataset();
    // WhatsApp history must start at/after the join date.
    for jg in ds.joined_of(PlatformKind::WhatsApp) {
        for m in &jg.messages {
            assert!(m.at >= jg.joined_at, "pre-join WhatsApp message leaked");
        }
    }
    // API platforms return history since creation: some messages predate
    // the join.
    let mut pre_join = 0;
    for kind in [PlatformKind::Telegram, PlatformKind::Discord] {
        for jg in ds.joined_of(kind) {
            pre_join += jg.messages.iter().filter(|m| m.at < jg.joined_at).count();
        }
    }
    assert!(
        pre_join > 0,
        "full history should include pre-join messages"
    );
}

#[test]
fn telegram_member_lists_mostly_hidden() {
    let ds = dataset();
    let joined: Vec<_> = ds.joined_of(PlatformKind::Telegram).collect();
    let visible = joined.iter().filter(|j| j.member_list_available).count();
    // §3.3: member lists visible in 24 of 100 joined chats.
    let rate = visible as f64 / joined.len().max(1) as f64;
    assert!(rate < 0.5, "visible member lists: {rate}");
    // WhatsApp always shows members.
    assert!(ds
        .joined_of(PlatformKind::WhatsApp)
        .all(|j| j.member_list_available));
    // Discord never does (profiles come from senders).
    assert!(ds
        .joined_of(PlatformKind::Discord)
        .all(|j| !j.member_list_available));
}

#[test]
fn activity_analyses_are_consistent() {
    let ds = dataset();
    let messages = folds().messages.output();
    for kind in PlatformKind::ALL {
        let shares = &messages.kind_shares[kind.index()];
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "{kind}");
        let ua = &messages.user_activity[kind.index()];
        let total_msgs: u64 = ds.joined_of(kind).map(|j| j.messages.len() as u64).sum();
        let sum_volumes: f64 = ua.volumes.mean().unwrap_or(0.0) * ua.senders as f64;
        assert!(
            (sum_volumes - total_msgs as f64).abs() < 1.0,
            "{kind}: per-user volumes must sum to the message count"
        );
    }
}
