//! Materialization of joined-group histories (Fig 8–9, Table 2/4/5 data).
//!
//! Only the groups the collector actually joins (§3.3: 416 + 100 + 100)
//! carry member lists and message logs; everything else stays cheap
//! metadata. Materialization is **deterministic per group**: it seeds its
//! own generator from the group's `activity_seed`, so joining the same
//! group in two runs (or twice in one run) yields the identical history.
//!
//! Materialization allocates the members (and past posters) as platform
//! users and keeps the message log as a [`MessageLog`] recipe: the
//! generator state after those draws plus the activity parameters. No
//! message exists until a message endpoint serves the log, so a join, and
//! a checkpoint resume that replays the joins, generate none.

use crate::config::PlatformParams;
use crate::population::{draw_user, generic_countries};
use chatlens_platforms::group::{ChatKind, GroupHistory};
use chatlens_platforms::id::{GroupId, PlatformKind, UserId};
use chatlens_platforms::message::MessageLog;
use chatlens_platforms::phone::CountryCode;
use chatlens_platforms::platform::Platform;
use chatlens_simnet::rng::Rng;
use chatlens_simnet::time::{SimTime, StudyWindow};

/// Materialize the member list and message-log recipe of `gid`, installing
/// it into the platform. `country` anchors member phone numbers (most members
/// share the group's region). Idempotent: a second call is a no-op.
pub fn materialize(
    platform: &mut Platform,
    gid: GroupId,
    params: &PlatformParams,
    window: &StudyWindow,
    country: CountryCode,
) {
    if platform.group(gid).history.is_some() {
        return;
    }
    let kind = platform.kind;
    let (created_at, msgs_per_day, chat_kind, seed, size_now, creator) = {
        let g = platform.group(gid);
        (
            g.created_at,
            g.msgs_per_day,
            g.chat_kind,
            g.activity_seed,
            g.sizes.size_on(window.end) as usize,
            g.creator,
        )
    };
    let mut rng = Rng::new(seed);
    let (countries, country_dist) = generic_countries();

    // ---- members --------------------------------------------------------
    // The creator is always a member; the rest are fresh platform users,
    // mostly from the group's own region.
    let mut members: Vec<UserId> = Vec::with_capacity(size_now);
    members.push(creator);
    for _ in 1..size_now.max(1) {
        let c = if rng.chance(0.8) {
            country
        } else {
            countries[country_dist.sample(&mut rng)]
        };
        members.push(platform.push_user(draw_user(kind, c, params, &mut rng)));
    }

    // ---- posters --------------------------------------------------------
    // Channels are few-to-many: only the creator and a couple of admins
    // ever post (§2, §5 — the reason Telegram's active-member share is so
    // low). Groups/servers: every member may post, Zipf-concentrated.
    let age_years = (window.end_time() - created_at).as_days() as f64 / 365.0;
    let posters: Vec<UserId> = match chat_kind {
        ChatKind::Channel => {
            let admins = 1 + rng.below(3) as usize;
            members[..admins.min(members.len())].to_vec()
        }
        _ => {
            // Only a fraction of members ever post; the rest lurk (§5's
            // active-member shares). Long-lived groups also accumulate
            // *past* members who posted and left — without them every
            // sender in an old room would carry hundreds of messages,
            // where the paper sees 66–83% of senders under 10 (Fig 9b).
            let current =
                ((members.len() as f64) * params.activity.poster_fraction).ceil() as usize;
            let current = current.clamp(1, members.len());
            let churn_factor = 1.0 + params.activity.poster_churn_per_year * age_years;
            let pool = ((current as f64) * churn_factor.min(4.0 / params.activity.poster_fraction))
                .ceil() as usize;
            let mut pool_users: Vec<UserId> = members[..current].to_vec();
            for _ in current..pool {
                // Past members: real platform users (their profiles stay
                // fetchable) who are no longer in the member list.
                let c = if rng.chance(0.8) {
                    country
                } else {
                    countries[country_dist.sample(&mut rng)]
                };
                pool_users.push(platform.push_user(draw_user(kind, c, params, &mut rng)));
            }
            // Interleave past and present posters across the Zipf ranks so
            // activity is not an artifact of seniority ordering.
            rng.shuffle(&mut pool_users);
            pool_users
        }
    };

    // ---- message log ----------------------------------------------------
    // WhatsApp history is only ever visible from the join date (§3.3), so
    // generating it before the study horizon would be dead weight; the
    // API-based platforms return everything since creation.
    let log = MessageLog {
        posters,
        rng: rng.state(),
        start: history_start(kind, created_at, window),
        end: window.end_time(),
        msgs_per_day,
        sender_zipf: params.activity.sender_zipf,
        kind_weights: params.activity.kind_weights,
        cap: params.activity.max_messages_per_group,
    };
    platform.install_history(gid, GroupHistory { members, log });
}

/// The instant a group's history generation effectively begins (useful to
/// analyses that normalise message counts per day).
pub fn history_start(kind: PlatformKind, created_at: SimTime, window: &StudyWindow) -> SimTime {
    match kind {
        PlatformKind::WhatsApp => created_at.max(
            window
                .start
                .plus_days(-crate::groups::PRE_WINDOW_DAYS)
                .midnight(),
        ),
        _ => created_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::groups::generate_groups;
    use chatlens_platforms::message::MessageKind;

    fn materialized(kind: PlatformKind, seed: u64) -> (Platform, GroupId) {
        let cfg = ScenarioConfig::paper();
        let window = StudyWindow::paper();
        let mut platform = Platform::new(kind);
        let mut rng = Rng::new(seed);
        let metas = generate_groups(&mut platform, cfg.platform(kind), &window, 30, &mut rng);
        let gid = metas[0].id;
        materialize(
            &mut platform,
            gid,
            cfg.platform(kind),
            &window,
            metas[0].country,
        );
        (platform, gid)
    }

    #[test]
    fn member_count_matches_size() {
        let (p, gid) = materialized(PlatformKind::Discord, 1);
        let g = p.group(gid);
        let expect = g.sizes.size_on(StudyWindow::paper().end) as usize;
        assert_eq!(g.history.as_ref().unwrap().members.len(), expect.max(1));
    }

    #[test]
    fn creator_is_first_member() {
        let (p, gid) = materialized(PlatformKind::WhatsApp, 2);
        let g = p.group(gid);
        assert_eq!(g.history.as_ref().unwrap().members[0], g.creator);
    }

    #[test]
    fn messages_chronological_and_bounded() {
        let (p, gid) = materialized(PlatformKind::Telegram, 3);
        let g = p.group(gid);
        let messages = g.history.as_ref().unwrap().log.generate();
        let end = StudyWindow::paper().end_time();
        assert!(messages.windows(2).all(|w| w[0].at <= w[1].at));
        for m in &messages {
            assert!(m.at >= g.created_at);
            assert!(m.at < end);
        }
    }

    #[test]
    fn senders_are_real_users() {
        // Senders include *past* members (churn), so they need not all be
        // in the current member list — but every sender must be a real
        // platform user with a fetchable profile, and current members must
        // contribute messages too.
        let (p, gid) = materialized(PlatformKind::Discord, 4);
        let h = p.group(gid).history.as_ref().unwrap();
        let messages = h.log.generate();
        let members: std::collections::HashSet<_> = h.members.iter().collect();
        assert!(messages
            .iter()
            .all(|m| (m.sender.0 as usize) < p.users.len()));
        if !messages.is_empty() {
            assert!(
                messages.iter().any(|m| members.contains(&m.sender)),
                "current members should appear among senders"
            );
        }
    }

    #[test]
    fn channel_has_few_posters() {
        // Find a Telegram channel and check its poster diversity.
        let cfg = ScenarioConfig::paper();
        let window = StudyWindow::paper();
        let mut platform = Platform::new(PlatformKind::Telegram);
        let mut rng = Rng::new(5);
        let metas = generate_groups(
            &mut platform,
            cfg.platform(PlatformKind::Telegram),
            &window,
            200,
            &mut rng,
        );
        let channel = metas
            .iter()
            .find(|m| platform.group(m.id).chat_kind == ChatKind::Channel)
            .expect("a channel among 200 chats");
        materialize(
            &mut platform,
            channel.id,
            cfg.platform(PlatformKind::Telegram),
            &window,
            channel.country,
        );
        let h = platform.group(channel.id).history.as_ref().unwrap();
        let senders: std::collections::HashSet<_> =
            h.log.generate().iter().map(|m| m.sender).collect();
        assert!(senders.len() <= 3, "channel posters: {}", senders.len());
    }

    #[test]
    fn materialization_is_deterministic_and_idempotent() {
        let (p1, gid) = materialized(PlatformKind::WhatsApp, 6);
        let (mut p2, gid2) = materialized(PlatformKind::WhatsApp, 6);
        assert_eq!(gid, gid2);
        let h1 = p1.group(gid).history.as_ref().unwrap().clone();
        // Second materialize call must be a no-op.
        let cfg = ScenarioConfig::paper();
        let c = p2.group(gid2).history.as_ref().unwrap().members.len();
        materialize(
            &mut p2,
            gid2,
            cfg.platform(PlatformKind::WhatsApp),
            &StudyWindow::paper(),
            chatlens_platforms::phone::country_by_iso("BR").unwrap(),
        );
        let h2 = p2.group(gid2).history.as_ref().unwrap();
        assert_eq!(h2.members.len(), c);
        assert_eq!(h1.log.generate().len(), h2.log.generate().len());
        assert_eq!(h1.members.len(), h2.members.len());
        assert_eq!(&h1, h2, "the same members and the same log recipe");
    }

    #[test]
    fn message_kinds_follow_weights() {
        // WhatsApp: text ~78%, stickers ~10% (Fig 8).
        let cfg = ScenarioConfig::paper();
        let window = StudyWindow::paper();
        let mut platform = Platform::new(PlatformKind::WhatsApp);
        let mut rng = Rng::new(7);
        let metas = generate_groups(
            &mut platform,
            cfg.platform(PlatformKind::WhatsApp),
            &window,
            60,
            &mut rng,
        );
        let mut text = 0u64;
        let mut sticker = 0u64;
        let mut total = 0u64;
        for m in &metas {
            materialize(
                &mut platform,
                m.id,
                cfg.platform(PlatformKind::WhatsApp),
                &window,
                m.country,
            );
            let log = &platform.group(m.id).history.as_ref().unwrap().log;
            for msg in &log.generate() {
                total += 1;
                match msg.kind {
                    MessageKind::Text => text += 1,
                    MessageKind::Sticker => sticker += 1,
                    _ => {}
                }
            }
        }
        assert!(total > 2_000, "messages generated: {total}");
        let text_share = text as f64 / total as f64;
        let sticker_share = sticker as f64 / total as f64;
        assert!((text_share - 0.78).abs() < 0.03, "text {text_share}");
        assert!(
            (sticker_share - 0.10).abs() < 0.02,
            "sticker {sticker_share}"
        );
    }

    #[test]
    fn whatsapp_history_starts_near_window() {
        let (p, gid) = materialized(PlatformKind::WhatsApp, 8);
        let g = p.group(gid);
        let horizon = StudyWindow::paper().start.plus_days(-7).midnight();
        for m in &g.history.as_ref().unwrap().log.generate() {
            assert!(m.at >= horizon.max(g.created_at));
        }
    }

    #[test]
    fn history_start_helper() {
        let w = StudyWindow::paper();
        let old = chatlens_simnet::time::Date::new(2015, 1, 1).midnight();
        assert_eq!(
            history_start(PlatformKind::Telegram, old, &w),
            old,
            "API platforms expose everything"
        );
        assert_eq!(
            history_start(PlatformKind::WhatsApp, old, &w),
            w.start.plus_days(-7).midnight(),
            "WhatsApp history clipped to the horizon"
        );
    }
}
