//! [`Persist`] implementations for the workspace types a campaign
//! snapshot contains: simnet runtime state, platform identifiers, tweets,
//! and the scenario configuration tree.
//!
//! Field order in every `persist_struct!` invocation is the wire format;
//! changing it requires a [`FORMAT_VERSION`](crate::FORMAT_VERSION) bump.
//! Enums encode as a `u8` index into their declared variant order (or
//! their `ALL` table where the type provides one), with payload-carrying
//! variants writing the payload after the tag.

use crate::codec::{Persist, Reader, Writer};
use crate::error::CheckpointError;
use crate::{persist_enum, persist_struct};
use chatlens_platforms::id::{GroupId, PlatformKind, UserId};
use chatlens_platforms::invite::{InviteCode, UrlPattern};
use chatlens_platforms::message::{Message, MessageKind};
use chatlens_platforms::platform::AccountState;
use chatlens_simnet::fault::{
    CorruptionProfile, FaultInjector, FaultProfile, OutageSpec, TokenBucketState,
};
use chatlens_simnet::metrics::{Histogram, Metrics};
use chatlens_simnet::time::{SimDuration, SimTime};
use chatlens_simnet::trace::TraceCounters;
use chatlens_simnet::transport::{BreakerState, ClientState};
use chatlens_twitter::Tweet;
use chatlens_workload::config::{
    ActivityParams, ControlParams, PlatformParams, RevocationParams, ScenarioConfig,
    ShareCountParams, SizeParams, StalenessParams, TweetFeatureParams,
};
use chatlens_workload::ecosystem::EcosystemDelta;
use std::collections::BTreeMap;

// ---- simnet: time ---------------------------------------------------------

impl Persist for SimTime {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(SimTime(u64::load(r)?))
    }
}

impl Persist for SimDuration {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(SimDuration(u64::load(r)?))
    }
}

// ---- simnet: transport & faults ------------------------------------------

persist_struct!(TokenBucketState {
    capacity,
    tokens,
    rate,
    last
});

persist_struct!(FaultInjector {
    drop_chance,
    error_chance
});

persist_enum!(FaultProfile {
    0 => Calm,
    1 => Bursty,
    2 => Outage,
});

persist_enum!(CorruptionProfile {
    0 => Calm,
    1 => Noisy,
    2 => Hostile,
});

persist_struct!(OutageSpec {
    start_day,
    days,
    ban
});

persist_enum!(BreakerState {
    0 => Closed { consecutive_failures },
    1 => Open { until },
    2 => HalfOpen,
});

persist_struct!(TraceCounters {
    total,
    dropped_attempts,
    by_status,
    by_endpoint,
    breaker_opened,
    breaker_fast_fails
});

persist_struct!(ClientState {
    bucket,
    rng,
    waited,
    trace,
    rate_clock,
    burst_rng,
    burst_bad,
    breakers,
    corrupt_rng,
    last_ok_body,
    corrupted
});

// ---- simnet: metrics ------------------------------------------------------

impl Persist for Histogram {
    fn save(&self, w: &mut Writer) {
        w.put_seq(self.bounds().iter());
        w.put_seq(self.bucket_counts().iter());
        self.count().save(w);
        self.sum().save(w);
        self.min().save(w);
        self.max().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let bounds = Vec::<f64>::load(r)?;
        let counts = Vec::<u64>::load(r)?;
        let count = u64::load(r)?;
        let sum = f64::load(r)?;
        let min = Option::<f64>::load(r)?;
        let max = Option::<f64>::load(r)?;
        // Pre-validate Histogram::new / from_parts contracts so malformed
        // input surfaces as an error, not a panic.
        if bounds.is_empty() {
            return Err(CheckpointError::Malformed(
                "histogram with no bounds".into(),
            ));
        }
        if !bounds.iter().all(|b| b.is_finite()) || !bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err(CheckpointError::Malformed(
                "histogram bounds not finite and strictly ascending".into(),
            ));
        }
        if counts.len() != bounds.len() + 1 {
            return Err(CheckpointError::Malformed(
                "histogram bucket count mismatch".into(),
            ));
        }
        Ok(Histogram::from_parts(bounds, counts, count, sum, min, max))
    }
}

impl Persist for Metrics {
    // The encoding of the `BTreeMap<String, _>` pair `load` reads,
    // written straight from the registry's own maps.
    fn save(&self, w: &mut Writer) {
        w.put_varint(self.counters().len() as u64);
        for (name, value) in self.counters() {
            w.put_str(name);
            value.save(w);
        }
        w.put_varint(self.histograms().len() as u64);
        for (name, histogram) in self.histograms() {
            w.put_str(name);
            histogram.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let counters = BTreeMap::<String, u64>::load(r)?;
        let histograms = BTreeMap::<String, Histogram>::load(r)?;
        Ok(Metrics::from_parts(counters, histograms))
    }
}

// ---- platforms ------------------------------------------------------------

impl Persist for PlatformKind {
    fn save(&self, w: &mut Writer) {
        w.put_u8(self.index() as u8);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let i = r.get_u8()? as usize;
        PlatformKind::ALL
            .get(i)
            .copied()
            .ok_or_else(|| CheckpointError::Malformed(format!("PlatformKind index {i}")))
    }
}

impl Persist for GroupId {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(GroupId(u32::load(r)?))
    }
}

impl Persist for UserId {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(UserId(u32::load(r)?))
    }
}

persist_struct!(AccountState { joined, banned });

impl Persist for UrlPattern {
    fn save(&self, w: &mut Writer) {
        let i = UrlPattern::ALL
            .iter()
            .position(|p| p == self)
            .expect("pattern present in ALL");
        w.put_u8(i as u8);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let i = r.get_u8()? as usize;
        UrlPattern::ALL
            .get(i)
            .copied()
            .ok_or_else(|| CheckpointError::Malformed(format!("UrlPattern index {i}")))
    }
}

persist_struct!(InviteCode { pattern, code });

impl Persist for MessageKind {
    fn save(&self, w: &mut Writer) {
        w.put_u8(self.index() as u8);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let i = r.get_u8()? as usize;
        MessageKind::ALL
            .get(i)
            .copied()
            .ok_or_else(|| CheckpointError::Malformed(format!("MessageKind index {i}")))
    }
}

persist_struct!(Message { sender, at, kind });

// ---- twitter --------------------------------------------------------------

/// Tweets reuse the wire codec the simulated APIs already speak
/// ([`Tweet::encode`]/[`Tweet::decode`]) rather than a second field-level
/// layout; only `is_control` rides alongside, since the wire form does not
/// carry it. The wire text is written straight into the snapshot buffer
/// ([`Tweet::encode_into`]), as the `String` it would encode to.
impl Persist for Tweet {
    fn save(&self, w: &mut Writer) {
        w.put_prefixed(self.encoded_len(), |out| self.encode_into(out));
        self.is_control.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let wire = String::load(r)?;
        let is_control = bool::load(r)?;
        let mut tweet = Tweet::decode(&wire)
            .ok_or_else(|| CheckpointError::Malformed("undecodable tweet record".into()))?;
        tweet.is_control = is_control;
        Ok(tweet)
    }
}

// ---- workload: ecosystem delta -------------------------------------------

persist_struct!(EcosystemDelta {
    accounts,
    api_buckets,
    materialized
});

// ---- workload: scenario configuration -------------------------------------

persist_struct!(TweetFeatureParams {
    p_hashtag,
    p_hashtag2,
    p_mention,
    p_mention2,
    p_retweet
});

persist_struct!(ShareCountParams {
    p_once,
    alpha,
    x_min,
    cap
});

persist_struct!(StalenessParams {
    p_same_day,
    tail_median_days,
    tail_sigma
});

persist_struct!(RevocationParams {
    p_ttl,
    ttl_days,
    p_instant,
    instant_mean_days,
    p_slow,
    slow_mean_days
});

persist_struct!(SizeParams {
    median,
    sigma,
    cap,
    p_grow,
    p_shrink,
    drift_median,
    drift_sigma,
    online_mean,
    online_sd
});

persist_struct!(ActivityParams {
    msgs_per_day_median,
    msgs_per_day_sigma,
    max_messages_per_group,
    sender_zipf,
    poster_fraction,
    msgs_size_exponent,
    poster_churn_per_year,
    kind_weights
});

persist_struct!(PlatformParams {
    n_group_urls,
    n_tweets_target,
    n_tweet_authors,
    join_budget,
    creators_per_group,
    p_channel,
    p_member_list_hidden,
    p_phone_visible,
    p_linked_any,
    features,
    shares,
    staleness,
    revocation,
    size,
    activity
});

persist_struct!(ControlParams {
    n_tweets,
    n_authors,
    features
});

persist_struct!(ScenarioConfig {
    seed,
    scale,
    platforms,
    control,
    search_miss,
    stream_miss,
    p_noise_url,
    p_cross_platform
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{decode_snapshot, encode_snapshot};
    use chatlens_simnet::metrics::keys;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(value: T) {
        let back: T = decode_snapshot(&encode_snapshot(&value)).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn simnet_state_round_trips() {
        round_trip(SimTime(123_456));
        round_trip(SimDuration(789));
        round_trip(TokenBucketState {
            capacity: 2_000.0,
            tokens: 137.25,
            rate: 400.0,
            last: SimTime(99),
        });
        round_trip(FaultInjector::new(0.01, 0.005));
    }

    #[test]
    fn client_state_round_trips() {
        let mut by_status = BTreeMap::new();
        by_status.insert("200 OK".to_string(), 10u64);
        let state = ClientState {
            bucket: TokenBucketState {
                capacity: 200.0,
                tokens: 3.5,
                rate: 50.0,
                last: SimTime(7),
            },
            rng: [1, 2, 3, 4],
            waited: SimDuration(60),
            trace: TraceCounters {
                total: 11,
                dropped_attempts: 1,
                by_status,
                by_endpoint: [("twitter/search".to_string(), 11u64)]
                    .into_iter()
                    .collect(),
                breaker_opened: 1,
                breaker_fast_fails: 2,
            },
            rate_clock: SimTime(9),
            burst_rng: [5, 6, 7, 8],
            burst_bad: true,
            breakers: [
                (
                    "twitter".to_string(),
                    BreakerState::Open { until: SimTime(99) },
                ),
                (
                    "whatsapp".to_string(),
                    BreakerState::Closed {
                        consecutive_failures: 3,
                    },
                ),
            ]
            .into_iter()
            .collect(),
            corrupt_rng: [9, 10, 11, 12],
            last_ok_body: Some("tw-search\nn: 0".into()),
            corrupted: 4,
        };
        round_trip(state);
    }

    #[test]
    fn resilience_types_round_trip() {
        for p in [
            FaultProfile::Calm,
            FaultProfile::Bursty,
            FaultProfile::Outage,
        ] {
            round_trip(p);
        }
        for p in [
            CorruptionProfile::Calm,
            CorruptionProfile::Noisy,
            CorruptionProfile::Hostile,
        ] {
            round_trip(p);
        }
        round_trip(Some(OutageSpec {
            start_day: 5,
            days: 3,
            ban: true,
        }));
        round_trip(BreakerState::HalfOpen);
        assert!(matches!(
            BreakerState::load(&mut Reader::new(&[7])),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            FaultProfile::load(&mut Reader::new(&[3])),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn metrics_round_trip_exactly() {
        let mut m = Metrics::new();
        m.add(keys::JOIN_DEAD_AT_JOIN, 7);
        m.incr(keys::JOIN_FAILED_FETCHES);
        m.observe(keys::DISCOVERY_GROUPS_KNOWN, 0.5, &[0.1, 1.0, 10.0]);
        m.observe(keys::DISCOVERY_GROUPS_KNOWN, 25.0, &[0.1, 1.0, 10.0]);
        // The registry encodes as the two maps it is restored from.
        let counters: BTreeMap<String, u64> =
            m.counters().map(|(k, v)| (k.to_string(), v)).collect();
        let histograms: BTreeMap<String, Histogram> = m
            .histograms()
            .map(|(k, h)| (k.to_string(), h.clone()))
            .collect();
        let mut maps = Writer::new();
        counters.save(&mut maps);
        histograms.save(&mut maps);
        let mut direct = Writer::new();
        m.save(&mut direct);
        assert_eq!(direct.into_bytes(), maps.into_bytes());
        round_trip(m);
        round_trip(Metrics::new());
    }

    #[test]
    fn corrupt_histogram_is_error_not_panic() {
        // Encode a histogram, then re-encode a payload with unsorted bounds.
        let mut w = Writer::new();
        vec![5.0f64, 1.0].save(&mut w); // descending bounds
        vec![0u64, 0, 0].save(&mut w);
        0u64.save(&mut w);
        0.0f64.save(&mut w);
        Option::<f64>::None.save(&mut w);
        Option::<f64>::None.save(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            Histogram::load(&mut Reader::new(&bytes)),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn platform_types_round_trip() {
        for kind in PlatformKind::ALL {
            round_trip(kind);
        }
        round_trip(GroupId(42));
        round_trip(UserId(7));
        for pattern in UrlPattern::ALL {
            round_trip(InviteCode {
                pattern,
                code: "AbC123".into(),
            });
        }
        for kind in MessageKind::ALL {
            round_trip(Message {
                sender: UserId(1),
                at: SimTime(2),
                kind,
            });
        }
        round_trip(AccountState {
            joined: vec![(GroupId(1), SimTime(10)), (GroupId(2), SimTime(20))],
            banned: true,
        });
    }

    #[test]
    fn bad_enum_indexes_are_malformed() {
        assert!(matches!(
            PlatformKind::load(&mut Reader::new(&[3])),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            UrlPattern::load(&mut Reader::new(&[6])),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            MessageKind::load(&mut Reader::new(&[9])),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn tweets_round_trip_via_wire_codec() {
        use chatlens_simnet::time::SimTime;
        use chatlens_twitter::{Lang, TweetId, TwitterUserId};
        let tweet = Tweet {
            id: TweetId(31337),
            author: TwitterUserId(99),
            at: SimTime(1000),
            lang: Lang::Pt,
            hashtags: 2,
            mentions: 1,
            retweet_of: Some(TweetId(5)),
            urls: vec!["https://chat.whatsapp.com/AAAAAAAAAAAAAAAAAAAAAA".into()],
            tokens: vec![1, 2, 3],
            is_control: false,
        };
        round_trip(tweet.clone());
        let mut control = tweet;
        control.is_control = true;
        control.urls.clear();
        round_trip(control);
    }

    #[test]
    fn scenario_config_round_trips() {
        round_trip(ScenarioConfig::tiny());
        round_trip(ScenarioConfig::paper());
    }

    #[test]
    fn ecosystem_delta_round_trips() {
        let delta = EcosystemDelta {
            accounts: [
                vec![AccountState {
                    joined: vec![(GroupId(3), SimTime(4))],
                    banned: false,
                }],
                vec![],
                vec![AccountState::default()],
            ],
            api_buckets: [
                None,
                Some(TokenBucketState {
                    capacity: 1.0,
                    tokens: 0.25,
                    rate: 0.5,
                    last: SimTime(77),
                }),
                None,
            ],
            materialized: [vec![GroupId(1), GroupId(9)], vec![], vec![GroupId(0)]],
        };
        round_trip(delta);
    }
}
