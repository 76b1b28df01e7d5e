//! Tweet generation: how group URLs get shared on Twitter (Fig 1–4) and
//! the control sample (§3.1).
//!
//! Each group's sharing plan is a burst of *original* tweets (the first at
//! the group's `first_share` instant, later ones spread over the following
//! days — Telegram URLs in particular get re-shared across several days,
//! §4) plus *retweets* attached to earlier originals at each platform's
//! retweet rate (Fig 3c). The generator emits [`Draft`]s; the ecosystem
//! builder sorts them globally by time, pushes them into the store, and
//! resolves retweet links to final tweet ids.

use crate::config::{ControlParams, PlatformParams};
use crate::groups::GroupMeta;
use crate::lang::LangProfile;
use crate::topics::{sample_lexicon_tokens, topics_for, topics_for_lang, TopicSampler, Vocabulary};
use chatlens_platforms::platform::Platform;
use chatlens_simnet::dist::Exponential;
use chatlens_simnet::rng::Rng;
use chatlens_simnet::time::{SimDuration, SimTime, StudyWindow};
use chatlens_twitter::{Lang, Tweet, TweetId, TwitterUserId};

/// What a draft tweet is, for retweet-link resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DraftKind {
    /// An original tweet; `ordinal` numbers originals within their group.
    Original {
        /// Platform index of the shared group.
        platform: usize,
        /// Group index within the platform.
        group: u32,
        /// Ordinal of this original within the group's originals.
        ordinal: u32,
    },
    /// A retweet of the group's original with the given ordinal.
    Retweet {
        /// Platform index of the shared group.
        platform: usize,
        /// Group index within the platform.
        group: u32,
        /// Ordinal of the retweeted original.
        of_ordinal: u32,
    },
    /// A control-sample tweet.
    Control,
}

/// A tweet waiting for global time-sorting and id assignment.
#[derive(Debug, Clone)]
pub struct Draft {
    /// The tweet content (id and `retweet_of` filled in later).
    pub tweet: Tweet,
    /// Draft role for link resolution.
    pub kind: DraftKind,
}

fn sample_feature_count(p1: f64, p2: f64, rng: &mut Rng) -> u8 {
    // P(>=1) = p1, P(>=2) = p2; two-or-more spreads uniformly over 2–4.
    let roll = rng.f64();
    if roll >= p1 {
        0
    } else if roll >= p2 {
        1
    } else {
        rng.range(2, 4) as u8
    }
}

/// Occasional unrelated URLs the extractor must ignore (§3.1's patterns
/// are validated, not trusted).
const NOISE_URLS: [&str; 4] = [
    "https://example.com/article",
    "https://youtu.be/dQw4w9WgXcQ",
    "https://bit.ly/2WhAtEv",
    "https://discord.com/developers",
];

/// Generate the sharing tweets for all of one platform's groups.
#[expect(clippy::too_many_arguments, reason = "one platform's build inputs")]
pub fn generate_share_drafts(
    platform: &Platform,
    metas: &[GroupMeta],
    params: &PlatformParams,
    vocab: &Vocabulary,
    window: &StudyWindow,
    author_pool: u64,
    author_offset: u32,
    p_noise_url: f64,
    rng: &mut Rng,
) -> Vec<Draft> {
    let kind = platform.kind;
    let pidx = kind.index();
    let samplers: Vec<TopicSampler> = topics_for(kind)
        .iter()
        .map(|t| TopicSampler::new(t, vocab))
        .collect();
    // Languages with their own topic structure (§4: COVID-19 and politics
    // emerge only in the Spanish/Portuguese analyses).
    let lang_samplers: Vec<(Lang, Vec<TopicSampler>, chatlens_simnet::dist::Categorical)> =
        Lang::ALL
            .into_iter()
            .filter_map(|lang| {
                topics_for_lang(kind, lang).map(|topics| {
                    let weights: Vec<f64> = topics.iter().map(|t| t.weight).collect();
                    (
                        lang,
                        topics.iter().map(|t| TopicSampler::new(t, vocab)).collect(),
                        chatlens_simnet::dist::Categorical::new(&weights),
                    )
                })
            })
            .collect();
    let lang_profile = LangProfile::for_platform(kind);
    let end = window.end_time();
    let retweet_gap = Exponential::new(1.0 / (6.0 * 3_600.0)); // mean 6 hours
    let mut drafts = Vec::new();
    for meta in metas {
        let group = platform.group(meta.id);
        let n = meta.shares;
        let n_retweets = if n <= 1 {
            0
        } else {
            (((f64::from(n)) * params.features.p_retweet).round() as u32).min(n - 1)
        };
        let n_originals = n - n_retweets;
        // Original tweet times: first at first_share, then exponential
        // gaps. Casually re-shared URLs repeat every ~1.2 days; viral URLs
        // burn through their shares within an attention span of a few
        // days (bursts are local in time — attention decays, it does not
        // stretch to the end of the observation window).
        let remaining = (end - meta.first_share).as_secs().max(2) as f64;
        // URLs shared thousands of times are spam campaigns (the paper's
        // 14 Telegram URLs with >10K tweets were porn/crypto channels
        // promoted steadily for weeks); ordinary virality burns out in a
        // few days.
        let span = if n_originals > 500 {
            0.9 * remaining
        } else {
            (86_400.0 * rng.range(1, 8) as f64).min(0.9 * remaining)
        };
        let gap_mean = (1.2f64 * 86_400.0).min(span / f64::from(n_originals.max(1)));
        let original_gap = Exponential::new(1.0 / gap_mean.max(1.0));
        let mut original_times = Vec::with_capacity(n_originals as usize);
        let mut t = meta.first_share;
        for i in 0..n_originals {
            if i > 0 {
                t += SimDuration::secs(original_gap.sample(rng).ceil() as u64 + 1);
            }
            if t >= end {
                // Clamp to strictly more than a second before the horizon,
                // leaving room for retweets to land strictly after their
                // original.
                t = end
                    .checked_sub(SimDuration::secs(2 + rng.below(3_600)))
                    .expect("window end");
            }
            original_times.push(t);
        }
        let make_tweet = |at: SimTime, rng: &mut Rng| -> Tweet {
            // Tweets about a group lean toward its language, but plenty of
            // re-shares are written in the sharer's own language; the 0.5
            // coupling keeps per-platform marginals stable (Fig 4) while
            // preserving within-group coherence.
            let lang = if rng.chance(0.5) {
                meta.lang
            } else {
                lang_profile.sample(rng)
            };
            let tokens = if lang == Lang::En {
                samplers[meta.topic].sample_tokens(rng)
            } else if let Some((_, ls, dist)) = lang_samplers.iter().find(|(l, _, _)| *l == lang) {
                // Stable per-group language topic (a group talks about one
                // thing no matter who tweets it), weighted by the topic
                // set's shares via a group-keyed generator.
                let mut group_rng = Rng::new(0x0070_91C5 ^ u64::from(meta.id.0));
                let t = dist.sample(&mut group_rng);
                ls[t].sample_tokens(rng)
            } else {
                sample_lexicon_tokens(lang, vocab, rng)
            };
            // At its final length: the store keeps this vector as it is
            // (a cross-platform co-share reserves its own slot).
            let noise = rng
                .chance(p_noise_url)
                .then(|| NOISE_URLS[rng.index(NOISE_URLS.len())]);
            let mut urls = Vec::with_capacity(1 + usize::from(noise.is_some()));
            urls.push(group.invite.url());
            urls.extend(noise.map(str::to_string));
            Tweet {
                id: TweetId(0),
                author: TwitterUserId(author_offset + rng.below(author_pool.max(1)) as u32),
                at,
                lang,
                hashtags: sample_feature_count(
                    params.features.p_hashtag,
                    params.features.p_hashtag2,
                    rng,
                ),
                mentions: sample_feature_count(
                    params.features.p_mention,
                    params.features.p_mention2,
                    rng,
                ),
                retweet_of: None,
                urls,
                tokens,
                is_control: false,
            }
        };
        for (ordinal, &at) in original_times.iter().enumerate() {
            drafts.push(Draft {
                tweet: make_tweet(at, rng),
                kind: DraftKind::Original {
                    platform: pidx,
                    group: meta.id.0,
                    ordinal: ordinal as u32,
                },
            });
        }
        for _ in 0..n_retweets {
            // Retweets skew heavily toward the first original (the tweet
            // that "went viral").
            let of_ordinal = if n_originals <= 1 || rng.chance(0.6) {
                0
            } else {
                rng.below(u64::from(n_originals)) as u32
            };
            let base = original_times[of_ordinal as usize];
            let mut at = base + SimDuration::secs(retweet_gap.sample(rng).ceil() as u64 + 1);
            if at >= end {
                at = end.checked_sub(SimDuration::secs(1)).expect("window end");
            }
            // A retweet can never precede its original; the clamp above
            // keeps `at >= base` because `base < end`.
            let at = at
                .max(base + SimDuration::secs(1))
                .min(end.checked_sub(SimDuration::secs(1)).expect("window end"));
            drafts.push(Draft {
                tweet: make_tweet(at, rng),
                kind: DraftKind::Retweet {
                    platform: pidx,
                    group: meta.id.0,
                    of_ordinal,
                },
            });
        }
    }
    drafts
}

/// Generate the control (1% sample) tweet population.
pub fn generate_control_drafts(
    params: &ControlParams,
    n_tweets: u64,
    window: &StudyWindow,
    vocab: &Vocabulary,
    author_offset: u32,
    rng: &mut Rng,
) -> Vec<Draft> {
    let lang_profile = LangProfile::control();
    let span = (window.end_time() - window.start_time()).as_secs();
    let mut drafts = Vec::with_capacity(n_tweets as usize);
    for _ in 0..n_tweets {
        let at = window.start_time() + SimDuration::secs(rng.below(span));
        let lang = lang_profile.sample(rng);
        drafts.push(Draft {
            tweet: Tweet {
                id: TweetId(0),
                author: TwitterUserId(author_offset + rng.below(params.n_authors.max(1)) as u32),
                at,
                lang,
                hashtags: sample_feature_count(
                    params.features.p_hashtag,
                    params.features.p_hashtag2,
                    rng,
                ),
                mentions: sample_feature_count(
                    params.features.p_mention,
                    params.features.p_mention2,
                    rng,
                ),
                // Control retweets carry no resolvable original (the
                // original is outside the 1% sample with overwhelming
                // probability); the sentinel id 0 marks "a retweet".
                retweet_of: rng.chance(params.features.p_retweet).then_some(TweetId(0)),
                urls: Vec::new(),
                tokens: sample_lexicon_tokens(lang, vocab, rng),
                is_control: true,
            },
            kind: DraftKind::Control,
        });
    }
    drafts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::groups::generate_groups;
    use chatlens_platforms::id::PlatformKind;

    fn drafts_for(
        kind: PlatformKind,
        n_groups: u64,
        seed: u64,
    ) -> (Platform, Vec<GroupMeta>, Vec<Draft>) {
        let cfg = ScenarioConfig::paper();
        let vocab = Vocabulary::build();
        let window = StudyWindow::paper();
        let mut platform = Platform::new(kind);
        let mut rng = Rng::new(seed);
        let metas = generate_groups(
            &mut platform,
            cfg.platform(kind),
            &window,
            n_groups,
            &mut rng,
        );
        let drafts = generate_share_drafts(
            &platform,
            &metas,
            cfg.platform(kind),
            &vocab,
            &window,
            cfg.platform(kind).n_tweet_authors,
            0,
            cfg.p_noise_url,
            &mut rng,
        );
        (platform, metas, drafts)
    }

    #[test]
    fn share_totals_match_plan() {
        let (_, metas, drafts) = drafts_for(PlatformKind::WhatsApp, 800, 1);
        let planned: u64 = metas.iter().map(|m| u64::from(m.shares)).sum();
        assert_eq!(drafts.len() as u64, planned);
    }

    #[test]
    fn retweet_rate_near_target() {
        let (_, _, drafts) = drafts_for(PlatformKind::Telegram, 1500, 2);
        let rts = drafts
            .iter()
            .filter(|d| matches!(d.kind, DraftKind::Retweet { .. }))
            .count() as f64
            / drafts.len() as f64;
        assert!((0.66..=0.81).contains(&rts), "retweet rate {rts}");
    }

    #[test]
    fn retweets_follow_their_originals() {
        let (_, _, drafts) = drafts_for(PlatformKind::Discord, 600, 3);
        use std::collections::HashMap;
        let mut original_time: HashMap<(u32, u32), SimTime> = HashMap::new();
        for d in &drafts {
            if let DraftKind::Original { group, ordinal, .. } = d.kind {
                original_time.insert((group, ordinal), d.tweet.at);
            }
        }
        for d in &drafts {
            if let DraftKind::Retweet {
                group, of_ordinal, ..
            } = d.kind
            {
                let orig = original_time[&(group, of_ordinal)];
                assert!(
                    d.tweet.at > orig,
                    "retweet at {} <= original {orig}",
                    d.tweet.at
                );
            }
        }
    }

    #[test]
    fn every_share_carries_the_invite_url() {
        let (platform, metas, drafts) = drafts_for(PlatformKind::WhatsApp, 300, 4);
        use std::collections::HashMap;
        let url_of: HashMap<u32, String> = metas
            .iter()
            .map(|m| (m.id.0, platform.group(m.id).invite.url()))
            .collect();
        for d in &drafts {
            let group = match d.kind {
                DraftKind::Original { group, .. } | DraftKind::Retweet { group, .. } => group,
                DraftKind::Control => unreachable!(),
            };
            assert!(d.tweet.urls.contains(&url_of[&group]));
        }
    }

    #[test]
    fn feature_rates_roughly_match() {
        let (_, _, drafts) = drafts_for(PlatformKind::Telegram, 2000, 5);
        let n = drafts.len() as f64;
        let hashtags = drafts.iter().filter(|d| d.tweet.hashtags >= 1).count() as f64 / n;
        let mentions = drafts.iter().filter(|d| d.tweet.mentions >= 1).count() as f64 / n;
        assert!((hashtags - 0.24).abs() < 0.03, "hashtags {hashtags}");
        assert!((mentions - 0.84).abs() < 0.03, "mentions {mentions}");
    }

    #[test]
    fn tweets_never_leave_the_collection_horizon() {
        let (_, _, drafts) = drafts_for(PlatformKind::Discord, 1000, 6);
        let w = StudyWindow::paper();
        let earliest = w.start.plus_days(-7).midnight();
        for d in &drafts {
            assert!(d.tweet.at >= earliest);
            assert!(d.tweet.at < w.end_time());
        }
    }

    #[test]
    fn english_tweets_use_topic_tokens() {
        let (_, metas, drafts) = drafts_for(PlatformKind::Discord, 1000, 7);
        let vocab = Vocabulary::build();
        use std::collections::HashMap;
        let topic_of: HashMap<u32, usize> = metas.iter().map(|m| (m.id.0, m.topic)).collect();
        let topics = topics_for(PlatformKind::Discord);
        let mut matched = 0u32;
        let mut english = 0u32;
        for d in &drafts {
            if d.tweet.lang != Lang::En {
                continue;
            }
            english += 1;
            let group = match d.kind {
                DraftKind::Original { group, .. } | DraftKind::Retweet { group, .. } => group,
                DraftKind::Control => continue,
            };
            let terms = topics[topic_of[&group]].terms;
            if d.tweet
                .tokens
                .iter()
                .any(|&t| terms.contains(&vocab.word(t)))
            {
                matched += 1;
            }
        }
        assert!(english > 100);
        let rate = f64::from(matched) / f64::from(english);
        assert!(rate > 0.9, "topic-token rate {rate}");
    }

    #[test]
    fn control_drafts_have_no_urls() {
        let cfg = ScenarioConfig::paper();
        let vocab = Vocabulary::build();
        let mut rng = Rng::new(8);
        let drafts = generate_control_drafts(
            &cfg.control,
            5_000,
            &StudyWindow::paper(),
            &vocab,
            1_000_000,
            &mut rng,
        );
        assert_eq!(drafts.len(), 5_000);
        assert!(drafts.iter().all(|d| d.tweet.urls.is_empty()));
        assert!(drafts.iter().all(|d| d.tweet.is_control));
        let rt = drafts.iter().filter(|d| d.tweet.is_retweet()).count() as f64 / 5_000.0;
        assert!((rt - 0.40).abs() < 0.03, "control retweet rate {rt}");
    }

    #[test]
    fn noise_urls_present_but_rare() {
        let (_, _, drafts) = drafts_for(PlatformKind::WhatsApp, 1500, 9);
        let noisy =
            drafts.iter().filter(|d| d.tweet.urls.len() > 1).count() as f64 / drafts.len() as f64;
        assert!((noisy - 0.05).abs() < 0.02, "noise rate {noisy}");
    }
}
