//! Scenario configuration.
//!
//! [`ScenarioConfig::paper`] encodes the calibration targets taken from the
//! paper's published numbers; [`ScenarioConfig::default`] is the same
//! scenario at 1/10 linear scale so the full campaign runs in seconds.
//! Every knob is plain data (serde-derived), so alternative scenarios are
//! easy to construct in benches and tests.

use serde::{Deserialize, Serialize};

/// Tweet-feature probabilities for one tweet population (Fig 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TweetFeatureParams {
    /// P(tweet contains >= 1 hashtag).
    pub p_hashtag: f64,
    /// P(tweet contains >= 2 hashtags).
    pub p_hashtag2: f64,
    /// P(tweet contains >= 1 mention).
    pub p_mention: f64,
    /// P(tweet contains >= 2 mentions).
    pub p_mention2: f64,
    /// P(tweet is a retweet).
    pub p_retweet: f64,
}

/// Heavy-tailed "how many tweets share this URL" model (Fig 2): with
/// probability `p_once` exactly one tweet; otherwise `1 + floor(Pareto)`
/// capped at `cap`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShareCountParams {
    /// Fraction of URLs shared exactly once.
    pub p_once: f64,
    /// Pareto tail exponent for the rest (smaller = heavier).
    pub alpha: f64,
    /// Pareto scale (minimum extra shares).
    pub x_min: f64,
    /// Hard cap on shares per URL.
    pub cap: u32,
}

/// Group-age ("staleness", Fig 5) model: a same-day spike plus a log-normal
/// tail, capped by the platform's own age.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StalenessParams {
    /// Fraction of groups created the same day they are first shared.
    pub p_same_day: f64,
    /// Median age in days of the non-same-day groups.
    pub tail_median_days: f64,
    /// Log-normal sigma of the tail.
    pub tail_sigma: f64,
}

/// Invite-death model (Fig 6): an optional default TTL (Discord), an
/// "instant" component for URLs that die right after being shared, and a
/// slow manual-revocation hazard.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RevocationParams {
    /// Probability the invite carries the platform's default TTL.
    pub p_ttl: f64,
    /// The TTL in days (only meaningful when `p_ttl > 0`).
    pub ttl_days: f64,
    /// Probability the URL dies almost immediately after first being
    /// shared (stale links, instantly-regretted shares).
    pub p_instant: f64,
    /// Mean (exponential) of the instant component, days.
    pub instant_mean_days: f64,
    /// Probability the URL is eventually revoked manually.
    pub p_slow: f64,
    /// Mean (exponential) of the manual component, days.
    pub slow_mean_days: f64,
}

/// Initial-size and growth model (Fig 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizeParams {
    /// Median initial member count (log-normal).
    pub median: f64,
    /// Log-normal sigma of the initial size.
    pub sigma: f64,
    /// Hard platform cap on members.
    pub cap: u32,
    /// Fraction of groups with positive net drift.
    pub p_grow: f64,
    /// Fraction with negative net drift (the rest are flat).
    pub p_shrink: f64,
    /// Scale of the daily relative drift (|delta| per day as a fraction of
    /// current size, log-normal median).
    pub drift_median: f64,
    /// Log-normal sigma of the daily relative drift.
    pub drift_sigma: f64,
    /// Mean online fraction (Fig 7b); 0 for platforms that don't report it.
    pub online_mean: f64,
    /// Std-dev of the online fraction across groups.
    pub online_sd: f64,
}

/// In-group activity model (Fig 8–9).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityParams {
    /// Median messages/day per group (log-normal).
    pub msgs_per_day_median: f64,
    /// Log-normal sigma of messages/day.
    pub msgs_per_day_sigma: f64,
    /// Hard cap on the messages generated for a group (memory guard; the
    /// cap is far above anything the paper reports per group).
    pub max_messages_per_group: u64,
    /// Zipf exponent of the per-member posting distribution (higher =
    /// more concentrated; drives the top-1% shares of Fig 9b).
    pub sender_zipf: f64,
    /// Fraction of members who ever post (the rest are lurkers) — drives
    /// §5's active-member shares (59.4% WhatsApp, 14.6% Telegram, 65.8%
    /// Discord; Telegram's channels push its share down further).
    pub poster_fraction: f64,
    /// Exponent coupling a group's message rate to its size:
    /// `rate *= (size / size_median)^exp`. Bigger rooms talk more, which
    /// is what lets the long tail of senders in large groups dominate
    /// Fig 9b the way it does in the paper.
    pub msgs_size_exponent: f64,
    /// Member churn per year of group age: the poster pool includes past
    /// members, `pool = poster_fraction * members * (1 + churn * years)`
    /// (capped at 4x the current membership). Platforms whose full history
    /// is collectable (Telegram/Discord) accumulate one-time posters this
    /// way, which is what keeps most senders under 10 messages (Fig 9b).
    pub poster_churn_per_year: f64,
    /// Message-type weights in [`MessageKind::ALL`] order (Fig 8).
    ///
    /// [`MessageKind::ALL`]: chatlens_platforms::MessageKind::ALL
    pub kind_weights: [f64; 9],
}

/// Everything that varies per messaging platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformParams {
    /// Number of distinct group URLs discovered over the window, at scale
    /// 1.0 (Table 2).
    pub n_group_urls: u64,
    /// Number of tweets sharing them, at scale 1.0 (Table 2) — implied by
    /// `n_group_urls` and `shares`, retained as the calibration target.
    pub n_tweets_target: u64,
    /// Size of the tweeting-author pool, at scale 1.0 (Table 2 #Users).
    pub n_tweet_authors: u64,
    /// Number of groups the collector joins, at scale 1.0 (§3.3).
    pub join_budget: u64,
    /// Mean group-creators per group (1/mean groups-per-creator); the
    /// multi-creator tail is modelled in `population`.
    pub creators_per_group: f64,
    /// Fraction of Telegram chats that are broadcast channels (0 on other
    /// platforms).
    pub p_channel: f64,
    /// Fraction of ordinary Telegram *groups* whose admins hide the member
    /// list. Channels are always hidden, so the overall hidden share is
    /// `p_channel + (1 - p_channel) * p_member_list_hidden` — calibrated to
    /// §3.3's 76 of 100.
    pub p_member_list_hidden: f64,
    /// Telegram phone-number opt-in rate (§6: 0.68%).
    pub p_phone_visible: f64,
    /// Discord: fraction of users with >= 1 connected account (§6: 30%).
    pub p_linked_any: f64,
    /// Tweet features for this platform's sharing tweets.
    pub features: TweetFeatureParams,
    /// Share-count model.
    pub shares: ShareCountParams,
    /// Staleness model.
    pub staleness: StalenessParams,
    /// Revocation model.
    pub revocation: RevocationParams,
    /// Size/growth model.
    pub size: SizeParams,
    /// Activity model.
    pub activity: ActivityParams,
}

/// The control (1% sample) tweet population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlParams {
    /// Number of control tweets at scale 1.0 (§3.1: 1,797,914).
    pub n_tweets: u64,
    /// Author-pool size at scale 1.0.
    pub n_authors: u64,
    /// Tweet features of the control population.
    pub features: TweetFeatureParams,
}

/// The top-level scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Root seed; every random decision in the scenario derives from it.
    pub seed: u64,
    /// Linear scale factor applied to population counts (1.0 = the paper's
    /// dataset sizes; the default scenario uses 0.1). Distribution *shapes*
    /// — sizes, rates, percentages — never scale.
    pub scale: f64,
    /// Per-platform parameters, indexed by
    /// [`PlatformKind::index`](chatlens_platforms::PlatformKind::index).
    pub platforms: [PlatformParams; 3],
    /// Control-sample parameters.
    pub control: ControlParams,
    /// Search API miss probability (per tweet, deterministic).
    pub search_miss: f64,
    /// Streaming API miss probability (per tweet, deterministic).
    pub stream_miss: f64,
    /// Probability a sharing tweet also carries an unrelated non-invite
    /// URL the extractor must ignore.
    pub p_noise_url: f64,
    /// Probability a sharing tweet also carries an invite to a group on a
    /// *different* platform ("join my Discord and my Telegram!"). These
    /// tweets are why Table 2's per-platform rows sum to more than its
    /// printed total.
    pub p_cross_platform: f64,
}

impl ScenarioConfig {
    /// The paper-calibrated scenario at full scale.
    pub fn paper() -> ScenarioConfig {
        let whatsapp = PlatformParams {
            n_group_urls: 45_718,
            n_tweets_target: 239_807,
            n_tweet_authors: 88_119,
            join_budget: 416,
            creators_per_group: 34_078.0 / 45_718.0,
            p_channel: 0.0,
            p_member_list_hidden: 0.0,
            p_phone_visible: 1.0, // WhatsApp always exposes phones
            p_linked_any: 0.0,
            features: TweetFeatureParams {
                p_hashtag: 0.13,
                p_hashtag2: 0.04,
                p_mention: 0.73,
                p_mention2: 0.20,
                p_retweet: 0.33,
            },
            shares: ShareCountParams {
                p_once: 0.50,
                alpha: 0.95,
                x_min: 1.0,
                cap: 500,
            },
            staleness: StalenessParams {
                p_same_day: 0.76,
                tail_median_days: 200.0,
                tail_sigma: 2.4,
            },
            revocation: RevocationParams {
                p_ttl: 0.0,
                ttl_days: 0.0,
                p_instant: 0.065,
                instant_mean_days: 0.2,
                p_slow: 0.30,
                slow_mean_days: 15.0,
            },
            size: SizeParams {
                median: 60.0,
                sigma: 1.0,
                cap: 257,
                // Direction probabilities run above Fig 7c's observed
                // shares because short observation spans and low-drift
                // groups read as "flat" through the daily monitor.
                p_grow: 0.58,
                p_shrink: 0.40,
                drift_median: 0.02,
                drift_sigma: 1.0,
                online_mean: 0.0,
                online_sd: 0.0,
            },
            activity: ActivityParams {
                msgs_per_day_median: 16.0,
                msgs_per_day_sigma: 1.2,
                max_messages_per_group: 500_000,
                sender_zipf: 0.7,
                poster_fraction: 0.72,
                msgs_size_exponent: 0.3,
                poster_churn_per_year: 0.0, // history starts at the join date

                // text, image, video, audio, sticker, document, contact,
                // location, service — Fig 8: WhatsApp is the multimedia-
                // heavy platform, stickers alone are 10%.
                kind_weights: [78.0, 6.0, 3.0, 2.0, 10.0, 0.5, 0.25, 0.25, 0.0],
            },
        };
        let telegram = PlatformParams {
            n_group_urls: 78_105,
            n_tweets_target: 1_224_540,
            n_tweet_authors: 398_816,
            join_budget: 100,
            creators_per_group: 1.0,
            p_channel: 0.35,
            p_member_list_hidden: 0.63, // overall: 0.35 + 0.65*0.63 ≈ 0.76
            p_phone_visible: 0.0068,
            p_linked_any: 0.0,
            features: TweetFeatureParams {
                p_hashtag: 0.24,
                p_hashtag2: 0.10,
                p_mention: 0.84,
                p_mention2: 0.14,
                p_retweet: 0.76,
            },
            shares: ShareCountParams {
                p_once: 0.50,
                alpha: 0.80,
                x_min: 1.0,
                cap: 15_000,
            },
            staleness: StalenessParams {
                p_same_day: 0.28,
                tail_median_days: 200.0,
                tail_sigma: 2.4,
            },
            revocation: RevocationParams {
                p_ttl: 0.0,
                ttl_days: 0.0,
                p_instant: 0.155,
                instant_mean_days: 0.2,
                p_slow: 0.15,
                slow_mean_days: 70.0,
            },
            size: SizeParams {
                median: 150.0,
                sigma: 2.0,
                cap: 200_000,
                p_grow: 0.58,
                p_shrink: 0.26,
                drift_median: 0.02,
                drift_sigma: 1.0,
                online_mean: 0.07,
                online_sd: 0.06,
            },
            activity: ActivityParams {
                msgs_per_day_median: 2.2,
                msgs_per_day_sigma: 2.0,
                max_messages_per_group: 500_000,
                sender_zipf: 1.15,
                poster_fraction: 0.30,
                msgs_size_exponent: 0.65,
                poster_churn_per_year: 1.0,
                kind_weights: [85.0, 5.0, 3.0, 1.0, 2.0, 1.0, 0.0, 0.0, 3.0],
            },
        };
        let discord = PlatformParams {
            n_group_urls: 227_712,
            n_tweets_target: 779_685,
            n_tweet_authors: 340_702,
            join_budget: 100,
            creators_per_group: 49_753.0 / 74_000.0,
            p_channel: 0.0,
            p_member_list_hidden: 0.0,
            p_phone_visible: 0.0,
            p_linked_any: 0.30,
            features: TweetFeatureParams {
                p_hashtag: 0.14,
                p_hashtag2: 0.07,
                p_mention: 0.68,
                p_mention2: 0.15,
                p_retweet: 0.50,
            },
            shares: ShareCountParams {
                p_once: 0.62,
                alpha: 1.10,
                x_min: 1.0,
                cap: 2_000,
            },
            staleness: StalenessParams {
                p_same_day: 0.27,
                tail_median_days: 170.0,
                tail_sigma: 2.4,
            },
            revocation: RevocationParams {
                p_ttl: 0.02,
                ttl_days: 1.0,
                p_instant: 0.64,
                instant_mean_days: 0.15,
                p_slow: 0.02,
                slow_mean_days: 30.0,
            },
            size: SizeParams {
                median: 60.0,
                sigma: 1.8,
                cap: 250_000,
                p_grow: 0.60,
                p_shrink: 0.21,
                drift_median: 0.02,
                drift_sigma: 1.0,
                online_mean: 0.30,
                online_sd: 0.18,
            },
            activity: ActivityParams {
                msgs_per_day_median: 17.0,
                msgs_per_day_sigma: 2.0,
                max_messages_per_group: 500_000,
                sender_zipf: 1.15,
                poster_fraction: 0.70,
                msgs_size_exponent: 0.4,
                poster_churn_per_year: 1.5,
                kind_weights: [96.0, 3.0, 0.4, 0.1, 0.3, 0.2, 0.0, 0.0, 0.0],
            },
        };
        ScenarioConfig {
            seed: 20200408,
            scale: 1.0,
            platforms: [whatsapp, telegram, discord],
            control: ControlParams {
                n_tweets: 1_797_914,
                n_authors: 1_200_000,
                features: TweetFeatureParams {
                    p_hashtag: 0.13,
                    p_hashtag2: 0.05,
                    p_mention: 0.76,
                    p_mention2: 0.12,
                    p_retweet: 0.40,
                },
            },
            search_miss: 0.12,
            stream_miss: 0.08,
            p_noise_url: 0.05,
            p_cross_platform: 0.0045,
        }
    }

    /// The paper scenario at a linear scale. Scales in `(0, 1]` shrink the
    /// paper's world; scales above 1 grow it (the `--scale 10x` preset),
    /// with join budgets clamped to the paper's absolute instrument
    /// budgets by [`join_budget_scaled`](Self::join_budget_scaled).
    pub fn at_scale(scale: f64) -> ScenarioConfig {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive and finite"
        );
        ScenarioConfig {
            scale,
            ..ScenarioConfig::paper()
        }
    }

    /// A tiny scenario for unit/integration tests (~1% of the paper).
    pub fn tiny() -> ScenarioConfig {
        ScenarioConfig::at_scale(0.01)
    }

    /// Apply the linear scale to a full-scale count, keeping at least 1.
    pub fn scaled(&self, n: u64) -> u64 {
        (((n as f64) * self.scale).round() as u64).max(1)
    }

    /// Join budgets scale as scale^(1/4): the paper's 416/100/100 are
    /// absolute instrument budgets, and a linear scale-down would starve
    /// small scenarios of the statistical power Figs 8–9 need (joined-
    /// group metrics are dominated by a handful of very large groups).
    pub fn join_budget_scaled(&self, kind: chatlens_platforms::PlatformKind) -> u64 {
        let b = self.platform(kind).join_budget as f64;
        ((b * self.scale.powf(0.25)).round() as u64).clamp(1, self.platform(kind).join_budget)
    }

    /// Parameters of one platform.
    pub fn platform(&self, kind: chatlens_platforms::PlatformKind) -> &PlatformParams {
        &self.platforms[kind.index()]
    }
}

impl Default for ScenarioConfig {
    /// The paper scenario at 1/10 linear scale.
    fn default() -> Self {
        ScenarioConfig::at_scale(0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatlens_platforms::PlatformKind;

    #[test]
    fn paper_totals_match_table2() {
        let c = ScenarioConfig::paper();
        let urls: u64 = c.platforms.iter().map(|p| p.n_group_urls).sum();
        assert_eq!(urls, 351_535);
        // Table 2's per-platform tweet rows sum to 2,244,032 while its
        // printed total is 2,234,128 — tweets carrying URLs of more than
        // one platform are counted once in the paper's total. We target
        // the per-platform rows.
        let tweets: u64 = c.platforms.iter().map(|p| p.n_tweets_target).sum();
        assert_eq!(tweets, 2_244_032);
        let joined: u64 = c.platforms.iter().map(|p| p.join_budget).sum();
        assert_eq!(joined, 616);
    }

    #[test]
    fn default_is_tenth_scale() {
        let c = ScenarioConfig::default();
        assert!((c.scale - 0.1).abs() < 1e-12);
        assert_eq!(c.scaled(45_718), 4_572);
        assert_eq!(c.scaled(3), 1, "scaled counts never hit zero");
    }

    #[test]
    fn platform_lookup_by_kind() {
        let c = ScenarioConfig::paper();
        assert_eq!(c.platform(PlatformKind::WhatsApp).n_group_urls, 45_718);
        assert_eq!(c.platform(PlatformKind::Telegram).p_phone_visible, 0.0068);
        assert_eq!(c.platform(PlatformKind::Discord).p_linked_any, 0.30);
    }

    #[test]
    fn kind_weights_are_plausible_distributions() {
        for p in ScenarioConfig::paper().platforms {
            let total: f64 = p.activity.kind_weights.iter().sum();
            assert!((90.0..=110.0).contains(&total), "weights sum {total}");
            assert!(p.activity.kind_weights[0] >= 75.0, "text dominates");
        }
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn rejects_zero_scale() {
        let _ = ScenarioConfig::at_scale(0.0);
    }

    #[test]
    fn discord_dies_young_others_dont() {
        let c = ScenarioConfig::paper();
        let dc = &c.platform(PlatformKind::Discord).revocation;
        // Nearly all Discord revocations land before the first daily
        // observation (67.4 of 68.4% in the paper): expired-on-arrival
        // invites dominate, plus a sliver of exact 1-day TTLs.
        assert!(dc.p_instant > 0.5);
        assert!(dc.p_ttl > 0.0);
        assert_eq!(c.platform(PlatformKind::WhatsApp).revocation.p_ttl, 0.0);
        assert_eq!(c.platform(PlatformKind::Telegram).revocation.p_ttl, 0.0);
    }
}
