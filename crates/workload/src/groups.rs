//! Group generation: creation dates (staleness, Fig 5), invite death
//! (Fig 6), initial sizes and growth timelines (Fig 7), plus topic,
//! language and creator assignment.

use crate::config::PlatformParams;
use crate::lang::LangProfile;
use crate::population::{draw_user, generic_countries, whatsapp_creator_countries, CreatorModel};
use crate::topics::{topic_categorical, topics_for};
use chatlens_platforms::group::{ChatKind, Group, SizeTimeline};
use chatlens_platforms::id::{GroupId, PlatformKind, UserId};
use chatlens_platforms::invite::InviteCode;
use chatlens_platforms::phone::CountryCode;
use chatlens_platforms::platform::Platform;
use chatlens_simnet::dist::{Exponential, LogNormal};
use chatlens_simnet::rng::Rng;
use chatlens_simnet::time::{SimDuration, SimTime, StudyWindow, SECS_PER_DAY};
use chatlens_twitter::Lang;

/// Ground-truth attributes of a generated group that live outside the
/// platform state: the Twitter-side sharing plan and content assignment.
#[derive(Debug, Clone)]
pub struct GroupMeta {
    /// The group (same index as `Platform::groups`).
    pub id: GroupId,
    /// Instant of the first tweet sharing this group's URL (may precede
    /// the study window by up to the search API's 7-day horizon).
    pub first_share: SimTime,
    /// Total number of tweets that will share the URL (Fig 2).
    pub shares: u32,
    /// Index into `topics_for(kind)` (Table 3).
    pub topic: usize,
    /// Language of the sharing tweets (Fig 4).
    pub lang: Lang,
    /// Country anchor for the group's member phone numbers.
    pub country: CountryCode,
}

/// How many days before the window tweets may exist (the Search API's
/// 7-day lookback makes day-0 discovery see them, §3.1).
pub const PRE_WINDOW_DAYS: i64 = 7;

/// Sample the number of tweets sharing one URL (Fig 2's heavy tail).
pub fn sample_share_count(params: &crate::config::ShareCountParams, rng: &mut Rng) -> u32 {
    if rng.chance(params.p_once) {
        return 1;
    }
    // 1 + floor(Pareto): at least 2 shares on this branch.
    let pareto = chatlens_simnet::dist::Pareto::new(params.x_min, params.alpha);
    let extra = pareto.sample(rng).floor() as u64;
    (1 + extra).min(u64::from(params.cap)) as u32
}

/// Sample a group's age in days at its first share (Fig 5), capped by the
/// platform's own age at that moment.
pub fn sample_staleness_days(
    params: &crate::config::StalenessParams,
    max_age_days: u64,
    rng: &mut Rng,
) -> u64 {
    if rng.chance(params.p_same_day) {
        return 0;
    }
    let ln = LogNormal::from_median(params.tail_median_days, params.tail_sigma);
    (ln.sample(rng).round() as u64).clamp(1, max_age_days.max(1))
}

/// Sample when the invite dies, relative to its first share (Fig 6).
/// `None` = survives beyond the horizon.
pub fn sample_revocation_offset(
    params: &crate::config::RevocationParams,
    rng: &mut Rng,
) -> Option<SimDuration> {
    let roll = rng.f64();
    if roll < params.p_ttl {
        // Default TTL (Discord): the link dies exactly ttl_days after it
        // was minted, which for a link tweeted out is its share time.
        return Some(SimDuration::secs(
            (params.ttl_days * SECS_PER_DAY as f64) as u64,
        ));
    }
    if roll < params.p_ttl + params.p_instant {
        let exp = Exponential::new(1.0 / params.instant_mean_days.max(1e-6));
        return Some(SimDuration::secs(
            (exp.sample(rng) * SECS_PER_DAY as f64) as u64,
        ));
    }
    if roll < params.p_ttl + params.p_instant + params.p_slow {
        let exp = Exponential::new(1.0 / params.slow_mean_days.max(1e-6));
        return Some(SimDuration::secs(
            (exp.sample(rng) * SECS_PER_DAY as f64) as u64,
        ));
    }
    None
}

/// Build a group's daily size timeline covering the pre-window lead-in and
/// the whole study window. `median_boost` scales the initial-size median
/// (Telegram broadcast channels are an order of magnitude larger than
/// ordinary groups — they are what pushes Fig 7a's Telegram tail out).
pub fn sample_size_timeline(
    params: &crate::config::SizeParams,
    window: &StudyWindow,
    median_boost: f64,
    rng: &mut Rng,
) -> SizeTimeline {
    // Initial sizes stay strictly below the cap so a group first observed
    // at the limit still got there by *growing* (only ~5% of WhatsApp
    // groups sit at the 257 cap, §5).
    let initial = LogNormal::from_median(params.median * median_boost, params.sigma)
        .sample(rng)
        .round()
        .clamp(3.0, f64::from(params.cap) - 8.0) as u32;
    // Net drift direction for the whole window (Fig 7c: more groups grow
    // than shrink on every platform).
    let roll = rng.f64();
    let sign: f64 = if roll < params.p_grow {
        1.0
    } else if roll < params.p_grow + params.p_shrink {
        -1.0
    } else {
        0.0
    };
    let rate_dist = LogNormal::from_median(params.drift_median.max(1e-9), params.drift_sigma);
    let days = (PRE_WINDOW_DAYS as usize) + window.num_days() as usize + 1;
    let mut sizes = Vec::with_capacity(days);
    let mut size = f64::from(initial);
    for _ in 0..days {
        sizes.push(size.round().clamp(1.0, f64::from(params.cap)) as u32);
        // Flat groups stay exactly flat (Fig 7c has a visible plateau at
        // zero growth); moving groups get their drift plus mild churn.
        // Growth saturates as a group approaches its cap (a nearly-full
        // WhatsApp group bounces joiners), so only a sliver ever sits at
        // the limit — §5 reports ~5%.
        if sign != 0.0 {
            let headroom = (1.0 - size / f64::from(params.cap)).max(0.0);
            let drift = sign * size * rate_dist.sample(rng) * headroom.min(1.0);
            let churn = (rng.f64() - 0.5) * 2.0 * (size * 0.002 + 0.5);
            size = (size + drift + churn).clamp(1.0, f64::from(params.cap));
        }
    }
    SizeTimeline::new(window.start.plus_days(-PRE_WINDOW_DAYS), sizes)
}

/// Generate all of one platform's groups (and their creator users),
/// pushing them into `platform` and returning the per-group metadata the
/// sharing generator consumes.
pub fn generate_groups(
    platform: &mut Platform,
    params: &PlatformParams,
    window: &StudyWindow,
    n_groups: u64,
    rng: &mut Rng,
) -> Vec<GroupMeta> {
    let kind = platform.kind;
    let topics = topics_for(kind);
    let topic_dist = topic_categorical(kind);
    let lang_profile = LangProfile::for_platform(kind);
    let (creator_countries, creator_country_dist) = match kind {
        PlatformKind::WhatsApp => whatsapp_creator_countries(),
        _ => generic_countries(),
    };
    let creator_model = match kind {
        PlatformKind::WhatsApp => CreatorModel::whatsapp(),
        PlatformKind::Telegram => CreatorModel::telegram(),
        PlatformKind::Discord => CreatorModel::discord(),
    };
    // Creators and their group allotments.
    let counts = creator_model.assign(n_groups as usize, rng);
    let mut creator_of_group: Vec<(UserId, CountryCode)> = Vec::with_capacity(n_groups as usize);
    for &count in &counts {
        let country = creator_countries[creator_country_dist.sample(rng)];
        let uid = platform.push_user(draw_user(kind, country, params, rng));
        for _ in 0..count {
            creator_of_group.push((uid, country));
        }
    }
    // Multi-group creators should not own consecutive share slots only:
    // shuffle the group→creator mapping.
    rng.shuffle(&mut creator_of_group);

    let release = platform.spec.release.midnight();
    let mut metas = Vec::with_capacity(n_groups as usize);
    for i in 0..n_groups {
        let (creator, country) = creator_of_group[i as usize];
        // First share: uniform over the lead-in plus the window.
        let day_offset = rng.range(0, (PRE_WINDOW_DAYS + window.num_days() as i64 - 1) as u64)
            as i64
            - PRE_WINDOW_DAYS;
        let share_day = window.start.plus_days(day_offset);
        let first_share = share_day.midnight() + SimDuration::secs(rng.below(SECS_PER_DAY));
        // Staleness caps at the platform's own age.
        let max_age = (first_share - release).as_days();
        let age_days = sample_staleness_days(&params.staleness, max_age, rng);
        let created_at = if age_days == 0 {
            // Same-day: created earlier on the share day.
            let into_day = first_share.seconds_into_day();
            first_share
                .checked_sub(SimDuration::secs(rng.below(into_day.max(1))))
                .expect("same-day creation stays in day")
        } else {
            first_share
                .checked_sub(SimDuration::days(age_days))
                .unwrap_or(release)
                .max(release)
        };
        let revoked_at =
            sample_revocation_offset(&params.revocation, rng).map(|off| first_share + off);
        let chat_kind = match kind {
            PlatformKind::Discord => ChatKind::Server,
            PlatformKind::Telegram if rng.chance(params.p_channel) => ChatKind::Channel,
            _ => ChatKind::Group,
        };
        // Telegram never exposes a channel's subscriber list; group admins
        // hide theirs at a rate chosen so the overall hidden share matches
        // §3.3 (member lists visible in only 24 of 100 joined chats).
        let member_list_hidden = match chat_kind {
            ChatKind::Channel => true,
            _ => rng.chance(params.p_member_list_hidden),
        };
        let size_boost = if chat_kind == ChatKind::Channel {
            8.0
        } else {
            1.0
        };
        let topic = topic_dist.sample(rng);
        let lang = lang_profile.sample(rng);
        let mut invite = InviteCode::generate(kind, rng);
        while platform.invite_taken(&invite.code) {
            invite = InviteCode::generate(kind, rng);
        }
        let online_frac = if params.size.online_mean <= 0.0 {
            0.0
        } else {
            (params.size.online_mean + params.size.online_sd * rng.normal()).clamp(0.005, 0.95)
        };
        let sizes = sample_size_timeline(&params.size, window, size_boost, rng);
        // Message rate couples to room size: a 10x bigger room talks more
        // (sub-linearly), which drives Fig 9's sender-volume tail. The
        // ratio is against the platform's base median, so giant broadcast
        // channels land at the high rates their subscriber counts imply.
        let size_ratio = f64::from(sizes.first()).max(1.0) / params.size.median.max(1.0);
        let msgs_per_day = LogNormal::from_median(
            params.activity.msgs_per_day_median,
            params.activity.msgs_per_day_sigma,
        )
        .sample(rng)
            * size_ratio.powf(params.activity.msgs_size_exponent);
        let title = format!("{} {}", topics[topic].label, i + 1);
        let gid = platform.push_group(Group {
            id: GroupId(0),
            platform: kind,
            chat_kind,
            title,
            creator,
            created_at,
            revoked_at,
            invite,
            member_list_hidden,
            online_frac: online_frac as f32,
            sizes,
            msgs_per_day,
            activity_seed: rng.next_u64(),
            history: None,
        });
        metas.push(GroupMeta {
            id: gid,
            first_share,
            shares: sample_share_count(&params.shares, rng),
            topic,
            lang,
            country,
        });
    }
    metas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;

    fn setup(kind: PlatformKind, n: u64) -> (Platform, Vec<GroupMeta>) {
        let cfg = ScenarioConfig::paper();
        let mut platform = Platform::new(kind);
        let mut rng = Rng::new(99);
        let window = StudyWindow::paper();
        let metas = generate_groups(&mut platform, cfg.platform(kind), &window, n, &mut rng);
        (platform, metas)
    }

    #[test]
    fn generates_requested_count() {
        let (p, metas) = setup(PlatformKind::WhatsApp, 2000);
        assert_eq!(p.groups.len(), 2000);
        assert_eq!(metas.len(), 2000);
        for (i, m) in metas.iter().enumerate() {
            assert_eq!(m.id, GroupId(i as u32));
        }
    }

    #[test]
    fn whatsapp_staleness_mostly_same_day() {
        let (p, metas) = setup(PlatformKind::WhatsApp, 4000);
        let same_day = metas
            .iter()
            .filter(|m| p.group(m.id).created_at.date() == m.first_share.date())
            .count() as f64
            / metas.len() as f64;
        assert!((same_day - 0.76).abs() < 0.04, "same-day {same_day}");
        let over_year = metas
            .iter()
            .filter(|m| p.group(m.id).age_days(m.first_share) > 365)
            .count() as f64
            / metas.len() as f64;
        assert!((over_year - 0.10).abs() < 0.04, "over-year {over_year}");
    }

    #[test]
    fn telegram_staleness_older() {
        let (p, metas) = setup(PlatformKind::Telegram, 4000);
        let over_year = metas
            .iter()
            .filter(|m| p.group(m.id).age_days(m.first_share) > 365)
            .count() as f64
            / metas.len() as f64;
        assert!((over_year - 0.29).abs() < 0.05, "over-year {over_year}");
    }

    #[test]
    fn creation_never_precedes_platform_release() {
        for kind in PlatformKind::ALL {
            let (p, _) = setup(kind, 1500);
            let release = p.spec.release.midnight();
            for g in &p.groups {
                assert!(
                    g.created_at >= release,
                    "{kind}: {} < release",
                    g.created_at
                );
            }
        }
    }

    #[test]
    fn revocation_never_precedes_first_share() {
        let (p, metas) = setup(PlatformKind::Discord, 2000);
        for m in &metas {
            if let Some(r) = p.group(m.id).revoked_at {
                assert!(r >= m.first_share);
            }
        }
    }

    #[test]
    fn discord_invites_mostly_die_within_hours() {
        let (p, metas) = setup(PlatformKind::Discord, 4000);
        let dead_fast = metas
            .iter()
            .filter(|m| {
                p.group(m.id)
                    .revoked_at
                    .is_some_and(|r| (r - m.first_share).as_secs() <= 86_400)
            })
            .count() as f64
            / metas.len() as f64;
        // p_instant (0.64, mean ~4h) plus the 1-day-TTL sliver.
        assert!(
            (dead_fast - 0.66).abs() < 0.04,
            "dead within a day: {dead_fast}"
        );
        let total_revoked = metas
            .iter()
            .filter(|m| p.group(m.id).revoked_at.is_some())
            .count() as f64
            / metas.len() as f64;
        assert!(
            (total_revoked - 0.68).abs() < 0.04,
            "revoked {total_revoked}"
        );
    }

    #[test]
    fn whatsapp_sizes_capped_at_257() {
        let (p, _) = setup(PlatformKind::WhatsApp, 2000);
        let t = StudyWindow::paper().end_time();
        let mut near_cap = 0;
        for g in &p.groups {
            assert!(g.size_at(t) <= 257);
            if g.size_at(t) >= 248 {
                near_cap += 1;
            }
        }
        // §5: only ~5% of WhatsApp groups reach the limit; growth
        // saturation keeps the pile-up at the cap small.
        let cap_share = f64::from(near_cap) / 2000.0;
        assert!((0.005..0.15).contains(&cap_share), "cap share {cap_share}");
    }

    #[test]
    fn share_counts_heavy_tailed() {
        let cfg = ScenarioConfig::paper();
        let mut rng = Rng::new(5);
        let params = &cfg.platform(PlatformKind::Telegram).shares;
        let n = 40_000;
        let counts: Vec<u32> = (0..n)
            .map(|_| sample_share_count(params, &mut rng))
            .collect();
        let once = counts.iter().filter(|&&c| c == 1).count() as f64 / n as f64;
        assert!((once - 0.50).abs() < 0.02, "share-once {once}");
        let mean = counts.iter().map(|&c| f64::from(c)).sum::<f64>() / n as f64;
        // Telegram's paper mean is 15.7 tweets/URL; the truncated Pareto
        // fit is noisy, so accept a broad band.
        assert!((8.0..=25.0).contains(&mean), "mean shares {mean}");
        assert!(counts.iter().any(|&c| c > 1000), "tail should reach 1000+");
    }

    #[test]
    fn telegram_channel_and_hidden_list_rates() {
        let (p, _) = setup(PlatformKind::Telegram, 4000);
        let channels = p
            .groups
            .iter()
            .filter(|g| g.chat_kind == ChatKind::Channel)
            .count() as f64
            / 4000.0;
        assert!((channels - 0.35).abs() < 0.03, "channels {channels}");
        let hidden = p.groups.iter().filter(|g| g.member_list_hidden).count() as f64 / 4000.0;
        assert!((hidden - 0.76).abs() < 0.03, "hidden {hidden}");
    }

    #[test]
    fn online_fraction_by_platform() {
        let (wa, _) = setup(PlatformKind::WhatsApp, 500);
        assert!(wa.groups.iter().all(|g| g.online_frac == 0.0));
        let (dc, _) = setup(PlatformKind::Discord, 2000);
        let over_half = dc.groups.iter().filter(|g| g.online_frac > 0.5).count() as f64 / 2000.0;
        assert!(
            (0.05..=0.25).contains(&over_half),
            "DC >50% online: {over_half}"
        );
        let (tg, _) = setup(PlatformKind::Telegram, 2000);
        let tg_over_half = tg.groups.iter().filter(|g| g.online_frac > 0.5).count();
        assert!(tg_over_half < 20, "TG >50% online: {tg_over_half}");
    }

    #[test]
    fn growth_direction_mix() {
        let (p, _) = setup(PlatformKind::Discord, 3000);
        let w = StudyWindow::paper();
        let (mut grew, mut shrank) = (0, 0);
        for g in &p.groups {
            let first = g.sizes.size_on(w.start);
            let last = g.sizes.size_on(w.end);
            if last > first {
                grew += 1;
            } else if last < first {
                shrank += 1;
            }
        }
        let grew = f64::from(grew) / 3000.0;
        let shrank = f64::from(shrank) / 3000.0;
        assert!((grew - 0.54).abs() < 0.12, "grew {grew}");
        assert!((shrank - 0.19).abs() < 0.12, "shrank {shrank}");
        assert!(grew > shrank);
    }

    #[test]
    fn first_share_spans_leadin_and_window() {
        let (_, metas) = setup(PlatformKind::Telegram, 3000);
        let w = StudyWindow::paper();
        let before = metas
            .iter()
            .filter(|m| m.first_share < w.start_time())
            .count();
        let within = metas.iter().filter(|m| w.contains(m.first_share)).count();
        assert!(before > 0, "some shares pre-window (7-day search horizon)");
        assert!(within > before * 3, "most shares inside the window");
        assert!(metas.iter().all(|m| m.first_share < w.end_time()));
    }
}
