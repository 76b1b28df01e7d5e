//! The ecosystem builder: three populated platforms plus the tweet store.

use crate::config::ScenarioConfig;
use crate::groups::{generate_groups, GroupMeta};
use crate::sharing::{generate_control_drafts, generate_share_drafts, Draft, DraftKind};
use crate::topics::Vocabulary;
use chatlens_platforms::id::{GroupId, PlatformKind};
use chatlens_platforms::platform::{AccountState, Platform};
use chatlens_simnet::fault::TokenBucketState;
use chatlens_simnet::rng::{Rng, Stream};
use chatlens_simnet::time::{SimTime, StudyWindow};
use chatlens_twitter::{Tweet, TweetId, TweetStore};

/// Twitter author-id block assigned to each tweet population, so
/// per-platform author pools are disjoint (the paper's per-platform user
/// counts overlap only marginally).
const AUTHOR_BLOCK: u32 = 50_000_000;

/// A fully built world: the three platforms, their ground-truth metadata,
/// and the tweet store — everything the collection campaign needs.
pub struct Ecosystem {
    /// The scenario this world was built from.
    pub config: ScenarioConfig,
    /// The collection window.
    pub window: StudyWindow,
    /// The token vocabulary behind every tweet's `tokens`.
    pub vocab: Vocabulary,
    /// The three platforms, indexed by [`PlatformKind::index`].
    pub platforms: [Platform; 3],
    /// Ground-truth group metadata, parallel to each platform's groups.
    pub metas: [Vec<GroupMeta>; 3],
    /// The tweet store (mount as `twitter` on the transport).
    pub twitter: TweetStore,
}

/// The campaign-mutated slice of an [`Ecosystem`], exported for
/// checkpointing. The world population is rebuilt deterministically from
/// the scenario seed on restore ([`Ecosystem::build`]), so a snapshot only
/// carries what the campaign changed: collector accounts, server-side
/// flood-control buckets, and which groups had histories materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct EcosystemDelta {
    /// Collector-account states per platform (WhatsApp, Telegram, Discord).
    pub accounts: [Vec<AccountState>; 3],
    /// API flood-control bucket state per platform (`None` where absent).
    pub api_buckets: [Option<TokenBucketState>; 3],
    /// Groups with a materialized history, per platform, in the order the
    /// histories were installed (materialization allocates platform user
    /// ids, so restore must replay installs in this order).
    pub materialized: [Vec<GroupId>; 3],
}

impl Ecosystem {
    /// Build the world from a scenario. Deterministic: the same config
    /// yields an identical ecosystem.
    pub fn build(config: ScenarioConfig) -> Ecosystem {
        let window = StudyWindow::paper();
        let vocab = Vocabulary::build();
        let mut root = Rng::new(config.seed);
        let mut platforms = [
            Platform::new(PlatformKind::WhatsApp),
            Platform::new(PlatformKind::Telegram),
            Platform::new(PlatformKind::Discord),
        ];
        let mut metas: [Vec<GroupMeta>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut drafts: Vec<Draft> = Vec::new();
        for kind in PlatformKind::ALL {
            let i = kind.index();
            let params = &config.platforms[i];
            let mut rng = root.fork(match kind {
                PlatformKind::WhatsApp => Stream::WhatsAppWorld,
                PlatformKind::Telegram => Stream::TelegramWorld,
                PlatformKind::Discord => Stream::DiscordWorld,
            });
            let n_groups = config.scaled(params.n_group_urls);
            metas[i] = generate_groups(&mut platforms[i], params, &window, n_groups, &mut rng);
            drafts.extend(generate_share_drafts(
                &platforms[i],
                &metas[i],
                params,
                &vocab,
                &window,
                config.scaled(params.n_tweet_authors),
                (i as u32 + 1) * AUTHOR_BLOCK,
                config.p_noise_url,
                &mut rng,
            ));
        }
        {
            let mut rng = root.fork(Stream::Control);
            drafts.extend(generate_control_drafts(
                &config.control,
                config.scaled(config.control.n_tweets),
                &window,
                &vocab,
                4 * AUTHOR_BLOCK,
                &mut rng,
            ));
        }
        // Cross-platform co-shares: a sliver of sharing tweets advertise a
        // second group on a *different* platform. The paper's Table 2
        // counts such a tweet in both platforms' rows but once in its
        // total (the rows sum to 2,244,032 against a printed 2,234,128).
        {
            let mut rng = root.fork(Stream::CrossPlatform);
            for draft in &mut drafts {
                let own = match draft.kind {
                    DraftKind::Original { platform, .. } | DraftKind::Retweet { platform, .. } => {
                        platform
                    }
                    DraftKind::Control => continue,
                };
                if !rng.chance(config.p_cross_platform) {
                    continue;
                }
                let other = match rng.below(2) {
                    0 => (own + 1) % 3,
                    _ => (own + 2) % 3,
                };
                if metas[other].is_empty() {
                    continue;
                }
                // The co-shared group must already exist (and still be
                // alive) at the tweet's posting time — nobody can share an
                // invite to a group that hasn't been created yet.
                for _attempt in 0..8 {
                    let pick = rng.index(metas[other].len());
                    let group = platforms[other].group(metas[other][pick].id);
                    if group.is_alive(draft.tweet.at) {
                        draft.tweet.urls.reserve_exact(1);
                        draft.tweet.urls.push(group.invite.url());
                        break;
                    }
                }
            }
        }
        // Global time order with deterministic tie-breaking (draft index):
        // the keys are unique, so an unstable sort orders them as a stable
        // one would.
        let mut order: Vec<(SimTime, u32)> = drafts
            .iter()
            .enumerate()
            .map(|(i, d)| (d.tweet.at, i as u32))
            .collect();
        order.sort_unstable();
        // Retweet parents, dense: group `g` of platform `p` numbers its
        // originals from slot `first[p][g]` of `parents[p]`.
        let mut first: [Vec<u32>; 3] = metas.each_ref().map(|m| vec![0; m.len() + 1]);
        for d in &drafts {
            if let DraftKind::Original {
                platform, group, ..
            } = d.kind
            {
                first[platform][group as usize + 1] += 1;
            }
        }
        let mut parents: [Vec<TweetId>; 3] = first.each_mut().map(|starts| {
            for g in 1..starts.len() {
                starts[g] += starts[g - 1];
            }
            vec![TweetId(0); starts[starts.len() - 1] as usize]
        });
        let mut twitter = TweetStore::new(config.search_miss, config.stream_miss, config.seed);
        for &(_, i) in &order {
            // Move the draft's vectors into the store instead of copying
            // them; each was built at its final length.
            let draft = &mut drafts[i as usize];
            let mut tweet = Tweet {
                urls: std::mem::take(&mut draft.tweet.urls),
                tokens: std::mem::take(&mut draft.tweet.tokens),
                ..draft.tweet.clone()
            };
            match draft.kind {
                DraftKind::Original {
                    platform,
                    group,
                    ordinal,
                } => {
                    let slot = first[platform][group as usize] + ordinal;
                    parents[platform][slot as usize] = twitter.push(tweet);
                }
                DraftKind::Retweet {
                    platform,
                    group,
                    of_ordinal,
                } => {
                    // The original strictly precedes its retweets in time,
                    // so its id is already known.
                    let slot = first[platform][group as usize] + of_ordinal;
                    tweet.retweet_of = Some(parents[platform][slot as usize]);
                    twitter.push(tweet);
                }
                DraftKind::Control => {
                    twitter.push(tweet);
                }
            }
        }
        Ecosystem {
            config,
            window,
            vocab,
            platforms,
            metas,
            twitter,
        }
    }

    /// Borrow one platform.
    pub fn platform(&self, kind: PlatformKind) -> &Platform {
        &self.platforms[kind.index()]
    }

    /// Ground-truth metadata of one group.
    pub fn meta(&self, kind: PlatformKind, id: GroupId) -> &GroupMeta {
        &self.metas[kind.index()][id.0 as usize]
    }

    /// Export the campaign-mutated slice of this world for a checkpoint.
    pub fn export_delta(&self) -> EcosystemDelta {
        let [wa, tg, dc] = &self.platforms;
        EcosystemDelta {
            accounts: [
                wa.export_accounts(),
                tg.export_accounts(),
                dc.export_accounts(),
            ],
            api_buckets: [
                wa.api_bucket_state(),
                tg.api_bucket_state(),
                dc.api_bucket_state(),
            ],
            materialized: [
                wa.materialized_groups(),
                tg.materialized_groups(),
                dc.materialized_groups(),
            ],
        }
    }

    /// Re-apply a checkpointed [`EcosystemDelta`] to a freshly built world:
    /// restores accounts and flood-control buckets, and re-materializes
    /// exactly the groups the original run had materialized, in the
    /// original installation order (each group's content is a pure
    /// function of its own seed, but the platform user ids its members
    /// receive come from a shared counter, so the order matters).
    pub fn apply_delta(&mut self, delta: &EcosystemDelta) {
        for kind in PlatformKind::ALL {
            let i = kind.index();
            self.platforms[i].restore_accounts(delta.accounts[i].clone());
            self.platforms[i].restore_api_bucket(delta.api_buckets[i]);
            for &gid in &delta.materialized[i] {
                self.materialize_group(kind, gid);
            }
        }
    }

    /// Materialize a joined group's members and message-log recipe
    /// (idempotent).
    pub fn materialize_group(&mut self, kind: PlatformKind, id: GroupId) {
        let i = kind.index();
        let country = self.metas[i][id.0 as usize].country;
        crate::activity::materialize(
            &mut self.platforms[i],
            id,
            &self.config.platforms[i],
            &self.window,
            country,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Ecosystem {
        Ecosystem::build(ScenarioConfig::tiny())
    }

    #[test]
    fn build_produces_scaled_counts() {
        let eco = tiny();
        let cfg = &eco.config;
        for kind in PlatformKind::ALL {
            let expect = cfg.scaled(cfg.platform(kind).n_group_urls);
            assert_eq!(eco.platform(kind).groups.len() as u64, expect, "{kind}");
        }
        let stats = eco.twitter.stats();
        assert!(stats.matching > 0);
        assert!(stats.control > 0);
        // Tweet totals should land near the scaled targets.
        let target: u64 = PlatformKind::ALL
            .iter()
            .map(|&k| cfg.scaled(cfg.platform(k).n_tweets_target))
            .sum();
        let ratio = stats.matching as f64 / target as f64;
        assert!((0.5..=2.0).contains(&ratio), "tweet ratio {ratio}");
    }

    #[test]
    fn build_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.twitter.stats(), b.twitter.stats());
        for kind in PlatformKind::ALL {
            let (pa, pb) = (a.platform(kind), b.platform(kind));
            assert_eq!(pa.groups.len(), pb.groups.len());
            for (ga, gb) in pa.groups.iter().zip(&pb.groups) {
                assert_eq!(ga.invite, gb.invite);
                assert_eq!(ga.created_at, gb.created_at);
                assert_eq!(ga.revoked_at, gb.revoked_at);
            }
        }
        // Spot-check tweet equality.
        for i in (0..a.twitter.tweets().len()).step_by(997) {
            assert_eq!(a.twitter.tweets()[i], b.twitter.tweets()[i]);
        }
    }

    #[test]
    fn retweet_links_resolve_to_earlier_tweets_with_same_url() {
        let eco = tiny();
        let mut checked = 0;
        for t in eco.twitter.tweets() {
            if t.is_control {
                continue;
            }
            if let Some(orig_id) = t.retweet_of {
                let orig = eco.twitter.get(orig_id).expect("original exists");
                assert!(orig.at < t.at, "original after retweet");
                assert!(!orig.is_retweet(), "retweet of a retweet");
                assert_eq!(orig.urls[0], t.urls[0], "url mismatch");
                checked += 1;
            }
        }
        assert!(checked > 100, "retweets checked: {checked}");
    }

    #[test]
    fn materialize_group_via_ecosystem() {
        let mut eco = tiny();
        let gid = eco.metas[0][0].id;
        assert!(eco
            .platform(PlatformKind::WhatsApp)
            .group(gid)
            .history
            .is_none());
        eco.materialize_group(PlatformKind::WhatsApp, gid);
        assert!(eco
            .platform(PlatformKind::WhatsApp)
            .group(gid)
            .history
            .is_some());
    }

    #[test]
    fn stored_tweets_hold_their_vectors_at_exact_length() {
        // The store takes the drafts' vectors as they are, so they must
        // hold no more bytes than a copy would.
        let eco = tiny();
        for t in eco.twitter.tweets() {
            assert_eq!(t.urls.capacity(), t.urls.len(), "{t:?}");
            assert_eq!(t.tokens.capacity(), t.tokens.len(), "{t:?}");
            for url in &t.urls {
                assert_eq!(url.capacity(), url.len(), "{url}");
            }
        }
    }

    #[test]
    fn tweets_are_chronological() {
        let eco = tiny();
        let tweets = eco.twitter.tweets();
        assert!(tweets.windows(2).all(|w| w[0].at <= w[1].at));
    }
}
