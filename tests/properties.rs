//! Property-based tests (proptest) on the core data structures and
//! invariants that hold for *any* input, not just the calibrated
//! scenarios.

use chatlens::analysis::stats::{top_share, Ecdf};
use chatlens::platforms::id::PlatformKind;
use chatlens::platforms::invite::{parse_invite_url, InviteCode, UrlPattern};
use chatlens::platforms::phone::{parse_e164, PhoneNumber, COUNTRIES};
use chatlens::platforms::wire::{sanitize, WireDoc};
use chatlens::simnet::dist::{Categorical, Zipf};
use chatlens::simnet::hash::{sha256_hex, to_hex};
use chatlens::simnet::rng::Rng;
use chatlens::simnet::time::{Date, SimTime};
use chatlens::twitter::{Lang, Tweet, TweetId, TwitterUserId};
use proptest::prelude::*;

proptest! {
    #[test]
    fn date_day_number_roundtrip(n in -1_000_000i64..1_000_000i64) {
        let d = Date::from_day_number(n);
        prop_assert_eq!(d.day_number(), n);
        prop_assert!((1..=12).contains(&d.month));
        prop_assert!((1..=31).contains(&d.day));
    }

    #[test]
    fn date_plus_days_is_additive(n in -100_000i64..100_000i64, k in -1000i64..1000i64) {
        let d = Date::from_day_number(n);
        prop_assert_eq!(d.plus_days(k).day_number(), n + k);
        prop_assert_eq!(d.plus_days(k).plus_days(-k), d);
    }

    #[test]
    fn invite_codes_roundtrip_for_any_seed(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        for platform in PlatformKind::ALL {
            let invite = InviteCode::generate(platform, &mut rng);
            let parsed = parse_invite_url(&invite.url());
            prop_assert_eq!(parsed.as_ref(), Some(&invite));
            prop_assert_eq!(invite.platform(), platform);
        }
    }

    #[test]
    fn invite_parse_never_panics(s in "\\PC*") {
        let _ = parse_invite_url(&s);
    }

    #[test]
    fn alphanumeric_codes_always_parse(code in "[A-Za-z0-9]{1,32}") {
        for pattern in [UrlPattern::WhatsAppChat, UrlPattern::TMe, UrlPattern::DiscordGg] {
            let invite = InviteCode { pattern, code: code.clone() };
            prop_assert_eq!(parse_invite_url(&invite.url()), Some(invite));
        }
    }

    #[test]
    fn phone_roundtrip_any_country(seed in any::<u64>(), idx in 0usize..20) {
        let mut rng = Rng::new(seed);
        let country = COUNTRIES[idx % COUNTRIES.len()];
        let phone = PhoneNumber::allocate(country, &mut rng);
        prop_assert_eq!(parse_e164(&phone.e164()), Some(phone));
    }

    #[test]
    fn phone_parse_never_panics(s in "\\PC*") {
        let _ = parse_e164(&s);
    }

    #[test]
    fn wire_doc_roundtrips_arbitrary_fields(
        kind in "[a-z][a-z-]{0,15}",
        fields in proptest::collection::vec(("[a-z_]{1,12}", "[^\\n\\r]{0,40}"), 0..8),
    ) {
        let mut doc = WireDoc::new(kind.clone());
        for (k, v) in &fields {
            doc = doc.field(k.clone(), sanitize(v));
        }
        let body = doc.render();
        let parsed = WireDoc::parse(&body).unwrap();
        prop_assert_eq!(&parsed.kind.to_string(), &kind);
        prop_assert_eq!(parsed.len(), fields.len());
        for (k, _) in &fields {
            // First value for each key matches the first inserted value.
            let first_inserted = fields
                .iter()
                .find(|(k2, _)| k2 == k)
                .map(|(_, v2)| sanitize(v2));
            let got = parsed.get(k).map(str::to_string);
            prop_assert_eq!(got, first_inserted);
        }
    }

    #[test]
    fn wire_parse_never_panics(s in "\\PC*") {
        let _ = WireDoc::parse(&s);
    }

    #[test]
    fn wire_render_parse_is_exact_identity(
        // Keys of length >= 2 sidestep the reserved count header `n`.
        kind in "[a-z][a-z-]{0,15}",
        fields in proptest::collection::vec(("[a-z_]{2,12}", "[^\\n\\r]{0,40}"), 0..8),
    ) {
        let mut doc = WireDoc::new(kind);
        for (k, v) in &fields {
            doc = doc.field(k.clone(), sanitize(v));
        }
        prop_assert_eq!(WireDoc::parse_owned(&doc.render()), Ok(doc));
    }

    #[test]
    fn wire_parse_then_render_equals_sanitize_then_render(
        kind in "[a-z][a-z-]{0,15}",
        fields in proptest::collection::vec(("[a-z_]{2,12}", "[^\\r]{0,40}"), 0..8),
    ) {
        // Raw values may contain newlines; the builder requires them
        // sanitized first. Rendering the sanitized doc, parsing it with
        // the zero-copy parser, and re-rendering the owned copy must
        // reproduce the sanitized rendering byte-for-byte.
        let mut doc = WireDoc::new(kind);
        for (k, v) in &fields {
            doc = doc.field(k.clone(), sanitize(v));
        }
        let rendered = doc.render();
        let reparsed = WireDoc::parse(&rendered).unwrap().to_doc();
        prop_assert_eq!(reparsed.render(), rendered);
    }

    #[test]
    fn sanitize_is_idempotent(s in "\\PC*") {
        let once = sanitize(&s);
        prop_assert!(!once.contains('\n') && !once.contains('\r'));
        prop_assert_eq!(sanitize(&once), once.clone());
    }

    #[test]
    fn tweet_encoding_roundtrips(
        id in any::<u32>(),
        author in any::<u32>(),
        secs in 0u64..10_000_000_000,
        lang_idx in 0usize..15,
        hashtags in any::<u8>(),
        mentions in any::<u8>(),
        rt in proptest::option::of(any::<u32>()),
        n_tokens in 0usize..20,
    ) {
        let tweet = Tweet {
            id: TweetId(u64::from(id)),
            author: TwitterUserId(author),
            at: SimTime::from_secs(secs),
            lang: Lang::ALL[lang_idx],
            hashtags,
            mentions,
            retweet_of: rt.map(|r| TweetId(u64::from(r))),
            urls: vec!["https://t.me/joinchat/Abc".into()],
            tokens: (0..n_tokens as u16).collect(),
            is_control: false,
        };
        prop_assert_eq!(Tweet::decode(&tweet.encode()), Some(tweet));
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let e = Ecdf::new(samples.clone());
        let mut prev = 0.0;
        for x in [-1e7, -1e3, 0.0, 1e3, 1e7] {
            let f = e.fraction_at_most(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev);
            prev = f;
        }
        prop_assert_eq!(e.fraction_at_most(f64::MAX), 1.0);
        // Quantiles are sample values.
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = e.quantile(q).unwrap();
            prop_assert!(samples.contains(&v));
        }
    }

    #[test]
    fn ecdf_series_ends_at_one(samples in proptest::collection::vec(0u64..1000, 1..100)) {
        let e = Ecdf::from_ints(samples);
        let series = e.series();
        prop_assert!((series.last().unwrap().1 - 1.0).abs() < 1e-12);
        // Strictly increasing x.
        for w in series.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn top_share_bounds(values in proptest::collection::vec(0u64..10_000, 1..100), frac in 0.01f64..1.0) {
        let share = top_share(&values, frac);
        prop_assert!((0.0..=1.0).contains(&share));
        // Taking everything gives everything (when there is any mass).
        if values.iter().sum::<u64>() > 0 {
            prop_assert!((top_share(&values, 1.0) - 1.0).abs() < 1e-12);
            prop_assert!(share >= frac - 1.0 / values.len() as f64 - 1e-9,
                "top group can never hold less than its proportional share");
        }
    }

    #[test]
    fn categorical_never_samples_zero_weight(
        seed in any::<u64>(),
        weights in proptest::collection::vec(0.0f64..10.0, 2..20),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.1);
        let cat = Categorical::new(&weights);
        let mut rng = Rng::new(seed);
        for _ in 0..200 {
            let i = cat.sample(&mut rng);
            prop_assert!(weights[i] > 0.0, "sampled zero-weight category {i}");
        }
    }

    #[test]
    fn zipf_samples_in_range(seed in any::<u64>(), n in 1usize..500, s in 0.1f64..3.0) {
        let z = Zipf::new(n, s);
        let mut rng = Rng::new(seed);
        for _ in 0..50 {
            let r = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&r));
        }
    }

    #[test]
    fn sha256_hex_shape_and_determinism(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let h1 = sha256_hex(&data);
        let h2 = sha256_hex(&data);
        prop_assert_eq!(&h1, &h2);
        prop_assert_eq!(h1.len(), 64);
        prop_assert!(h1.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn hex_encoding_length(data in proptest::collection::vec(any::<u8>(), 0..100)) {
        prop_assert_eq!(to_hex(&data).len(), data.len() * 2);
    }

    #[test]
    fn rng_below_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn rng_sample_indices_invariants(seed in any::<u64>(), n in 0usize..200) {
        let mut rng = Rng::new(seed);
        let k = n / 2;
        let sample = rng.sample_indices(n, k);
        prop_assert_eq!(sample.len(), k);
        for w in sample.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &i in &sample {
            prop_assert!(i < n);
        }
    }
}

// ---- substrate property tests (second block) ------------------------------

use chatlens::platforms::group::SizeTimeline;
use chatlens::platforms::message::MessageKind;
use chatlens::platforms::service::{encode_message, parse_message};
use chatlens::simnet::fault::{
    Backoff, FaultInjector, FaultSchedule, OutageMode, OutageWindow, TokenBucket,
};
use chatlens::simnet::metrics::Histogram;
use chatlens::simnet::time::SimDuration;
use chatlens::simnet::transport::{
    Client, ClientConfig, Request, Response, Router, Service, Status, TransportError,
};
use chatlens::workload::config::{RevocationParams, ShareCountParams, StalenessParams};
use chatlens::workload::groups::{
    sample_revocation_offset, sample_share_count, sample_staleness_days,
};

/// A service that walks a scripted response list, one entry per dispatch.
struct ScriptedService {
    script: Vec<u8>,
    /// When each request reached the service and what it answered, in
    /// arrival order.
    seen: Vec<(SimTime, Status)>,
}

impl Service for ScriptedService {
    fn handle(&mut self, now: SimTime, _req: &Request) -> Response {
        let k = self.script[self.seen.len() % self.script.len()];
        let resp = match k % 5 {
            0 | 1 => Response::ok("ok"),
            2 => Response::status(Status::RateLimited(u32::from(k % 7) + 1), "slow down"),
            3 => Response::status(Status::ServerError, "injected"),
            _ => Response::status(Status::NotFound, "no such thing"),
        };
        self.seen.push((now, resp.status));
        resp
    }
}

/// A service that always answers 429 with a fixed retry-after.
struct AlwaysLimited(u32);

impl Service for AlwaysLimited {
    fn handle(&mut self, _now: SimTime, _req: &Request) -> Response {
        Response::status(Status::RateLimited(self.0), "busy")
    }
}

proptest! {
    #[test]
    fn size_timeline_lookup_always_in_stored_range(
        start in -1000i64..20_000,
        sizes in proptest::collection::vec(1u32..1_000_000, 1..80),
        probe in -2000i64..40_000,
    ) {
        let first = Date::from_day_number(start);
        let tl = SizeTimeline::new(first, sizes.clone());
        let got = tl.size_on(Date::from_day_number(probe));
        prop_assert!(sizes.contains(&got));
        prop_assert_eq!(tl.first(), sizes[0]);
        prop_assert_eq!(tl.last(), *sizes.last().unwrap());
    }

    #[test]
    fn token_bucket_wait_bounded_by_refill_math(
        capacity in 1.0f64..100.0,
        rate in 0.01f64..100.0,
        draws in 1usize..50,
    ) {
        let mut b = TokenBucket::new(capacity, rate, SimTime::EPOCH);
        let mut waited = SimDuration::ZERO;
        for _ in 0..draws {
            match b.acquire(SimTime::EPOCH) {
                Some(w) => waited = waited + w,
                None => break, // > 1h wait refused: fine for tiny rates
            }
        }
        // Total waiting can never exceed what refilling `draws` tokens at
        // `rate` requires (+1s/draw of ceil rounding).
        let bound = (draws as f64 / rate).ceil() as u64 + draws as u64;
        prop_assert!(waited.as_secs() <= bound, "waited {waited} > bound {bound}");
    }

    #[test]
    fn backoff_delays_never_exceed_cap(
        seed in any::<u64>(),
        base in 1u64..100,
        cap in 1u64..500,
        attempts in 1usize..20,
    ) {
        let mut rng = Rng::new(seed);
        let mut b = Backoff::new(SimDuration::secs(base), 2.0, SimDuration::secs(cap));
        for _ in 0..attempts {
            let d = b.next_delay(&mut rng);
            prop_assert!(d.as_secs() <= cap.max(1));
        }
        prop_assert_eq!(b.attempts(), attempts as u32);
    }

    #[test]
    fn histogram_counts_conserved(
        bounds_raw in proptest::collection::btree_set(1u32..1000, 1..8),
        values in proptest::collection::vec(0.0f64..2000.0, 0..200),
    ) {
        let bounds: Vec<f64> = bounds_raw.iter().map(|&b| f64::from(b)).collect();
        let mut h = Histogram::new(&bounds);
        for &v in &values {
            h.observe(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let bucket_total: u64 = h.buckets().map(|(_, c)| c).sum();
        prop_assert_eq!(bucket_total, values.len() as u64);
    }

    #[test]
    fn message_wire_roundtrip(
        secs in 0u64..10_000_000_000,
        sender in any::<u32>(),
        kind_idx in 0usize..9,
    ) {
        let m = chatlens::platforms::message::Message {
            sender: chatlens::platforms::id::UserId(sender),
            at: SimTime::from_secs(secs),
            kind: MessageKind::from_index(kind_idx),
        };
        prop_assert_eq!(parse_message(&encode_message(&m)), Some(m));
    }

    #[test]
    fn share_counts_respect_cap_and_min(
        seed in any::<u64>(),
        p_once in 0.0f64..1.0,
        alpha in 0.5f64..2.0,
        cap in 1u32..10_000,
    ) {
        let params = ShareCountParams { p_once, alpha, x_min: 1.0, cap };
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            let n = sample_share_count(&params, &mut rng);
            prop_assert!(n >= 1);
            prop_assert!(n <= cap.max(1));
        }
    }

    #[test]
    fn staleness_respects_platform_age(
        seed in any::<u64>(),
        p_same_day in 0.0f64..1.0,
        median in 1.0f64..1000.0,
        max_age in 0u64..5000,
    ) {
        let params = StalenessParams {
            p_same_day,
            tail_median_days: median,
            tail_sigma: 2.0,
        };
        let mut rng = Rng::new(seed);
        for _ in 0..50 {
            let age = sample_staleness_days(&params, max_age, &mut rng);
            prop_assert!(age <= max_age.max(1));
        }
    }

    #[test]
    fn revocation_offsets_nonnegative_and_partitioned(
        seed in any::<u64>(),
        p_ttl in 0.0f64..0.5,
        p_instant in 0.0f64..0.3,
        p_slow in 0.0f64..0.2,
    ) {
        let params = RevocationParams {
            p_ttl,
            ttl_days: 1.0,
            p_instant,
            instant_mean_days: 0.5,
            p_slow,
            slow_mean_days: 30.0,
        };
        let mut rng = Rng::new(seed);
        let mut revoked = 0u32;
        for _ in 0..200 {
            if sample_revocation_offset(&params, &mut rng).is_some() {
                revoked += 1;
            }
        }
        // Sampled revocation frequency near the configured total mass.
        let expect = p_ttl + p_instant + p_slow;
        let got = f64::from(revoked) / 200.0;
        prop_assert!((got - expect).abs() < 0.2, "got {got} expect {expect}");
    }

    #[test]
    fn lda_fit_conserves_tokens(
        seed in any::<u64>(),
        docs in proptest::collection::vec(
            proptest::collection::vec(0u16..30, 0..20), 1..30),
    ) {
        use chatlens::analysis::{LdaConfig, LdaModel};
        let total: usize = docs.iter().map(Vec::len).sum();
        let model = LdaModel::fit(&docs, 30, LdaConfig {
            k: 3,
            iterations: 3,
            seed,
            ..LdaConfig::default()
        });
        prop_assert_eq!(model.total_tokens(), total as u64);
        let share_sum: f64 = model.topic_token_shares().iter().sum();
        if total > 0 {
            prop_assert!((share_sum - 1.0).abs() < 1e-9);
        }
    }

    // ---- simnet::par: the parallel runtime IS the serial computation ----

    #[test]
    fn par_map_equals_serial_map(
        items in proptest::collection::vec(any::<u64>(), 0..200),
        chunk in 1usize..40,
        threads in 1usize..9,
    ) {
        use chatlens::simnet::par::Pool;
        let f = |x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(7);
        let serial: Vec<u64> = items.iter().map(f).collect();
        let pool = Pool::new(threads);
        prop_assert_eq!(pool.par_map_chunked(chunk, &items, f), serial.clone());
        // The default chunking must agree too.
        prop_assert_eq!(pool.par_map(&items, f), serial);
    }

    // ---- platforms::invite: URL render/parse round-trips ----

    #[test]
    fn client_call_never_exceeds_attempt_budget_and_accounts_every_wait(
        seed in any::<u64>(),
        max_attempts in 1u32..7,
        drop_p in 0.0f64..0.5,
        error_p in 0.0f64..0.4,
        breaker_threshold in 0u32..4,
        script in proptest::collection::vec(any::<u8>(), 1..40),
        calls in 1usize..25,
    ) {
        let mut svc = ScriptedService { script, seen: Vec::new() };
        let config = ClientConfig {
            max_attempts,
            breaker_threshold,
            ..ClientConfig::default()
        };
        let cap = config.backoff_max.as_secs();
        let mut client = Client::new(
            config,
            FaultInjector::new(drop_p, error_p),
            Rng::new(seed),
            SimTime::EPOCH,
        );
        for i in 0..calls {
            let now = SimTime::EPOCH + SimDuration::secs(i as u64 * 900);
            let attempts_before = client.trace().total;
            let seen_before = svc.seen.len();
            let waited_before = client.waited.as_secs();
            let result = {
                let mut router = Router::new("svc", &mut svc);
                client.call(&mut router, now, &Request::new("svc/op"))
            };
            let new_attempts = client.trace().total - attempts_before;
            let answered = &svc.seen[seen_before..];
            let waited_delta = client.waited.as_secs() - waited_before;
            // A call never counts more than `max_attempts` attempts, and
            // the error-side attempt counts agree with the counters.
            prop_assert!(new_attempts <= u64::from(max_attempts));
            match &result {
                Err(TransportError::Failed { attempts, .. })
                | Err(TransportError::Dropped { attempts }) => {
                    prop_assert!(*attempts <= max_attempts);
                    prop_assert_eq!(u64::from(*attempts), new_attempts);
                }
                Ok(_) => prop_assert!(new_attempts >= 1),
                Err(TransportError::BreakerOpen { .. }) => {
                    prop_assert_eq!(new_attempts, 0);
                }
                Err(TransportError::RateBudgetExhausted) => {}
            }
            // `waited` accounts exactly the imposed waits: every charged
            // wait precedes an attempt, so the delta equals the gap between
            // the call's start and its last attempt. (The old over-counting
            // bug charged the final retryable attempt's retry-after even
            // though no retry followed.) The service sees when each attempt
            // reached it, so the delta is exact when the last attempt was
            // answered: on success, or when no attempt was dropped or failed
            // by injection. Otherwise at most `unseen` attempts follow the
            // last answer, each after one wait of at most the backoff cap
            // (plus the answer's retry-after for the first); the token
            // bucket never binds at 900 s between calls. A call whose every
            // attempt went unanswered waits only before its retries, so a
            // single dropped attempt is charged nothing.
            let unseen = new_attempts - answered.len() as u64;
            match &result {
                Err(TransportError::RateBudgetExhausted) => {}
                Err(TransportError::BreakerOpen { .. }) => prop_assert_eq!(waited_delta, 0),
                _ => match answered.last() {
                    Some(&(last_seen, status)) => {
                        let gap = (last_seen - now).as_secs();
                        if result.is_ok() || unseen == 0 {
                            prop_assert_eq!(waited_delta, gap);
                        } else {
                            let retry_after = match status {
                                Status::RateLimited(secs) => u64::from(secs),
                                _ => 0,
                            };
                            prop_assert!(waited_delta >= gap);
                            prop_assert!(waited_delta <= gap + retry_after + unseen * cap);
                        }
                    }
                    None => {
                        prop_assert!(waited_delta <= (new_attempts - 1) * cap);
                        if new_attempts == 1 {
                            prop_assert_eq!(waited_delta, 0);
                        }
                    }
                },
            }
        }
    }

    #[test]
    fn blacked_out_calls_wait_one_backoff_per_retry_and_none_after_the_last(
        seed in any::<u64>(),
        max_attempts in 1u32..7,
        base_secs in 1u64..8,
        calls in 1usize..12,
    ) {
        // During a blackout every attempt is dropped on the wire and the
        // client's RNG draws only backoff delays, so the waits it charges
        // can be replayed exactly: one delay before each retry, none after
        // the final attempt.
        let config = ClientConfig {
            max_attempts,
            backoff_base: SimDuration::secs(base_secs),
            ..ClientConfig::default()
        };
        let mut plan = FaultSchedule::calm(FaultInjector::none());
        plan.outages.push(OutageWindow {
            from: SimTime::EPOCH,
            until: SimTime::EPOCH + SimDuration::days(1),
            mode: OutageMode::Blackout,
        });
        let (base, cap) = (config.backoff_base, config.backoff_max);
        let mut client = Client::with_schedule(config, plan, Rng::new(seed), SimTime::EPOCH);
        let mut replay = Rng::new(seed);
        let mut svc = |_: SimTime, _: &Request| Response::ok("unreachable");
        let mut router = Router::new("svc", &mut svc);
        for i in 0..calls {
            let now = SimTime::EPOCH + SimDuration::secs(i as u64 * 900);
            let waited_before = client.waited.as_secs();
            let result = client.call(&mut router, now, &Request::new("svc/op"));
            prop_assert_eq!(result.unwrap_err(), TransportError::Dropped { attempts: max_attempts });
            let mut backoff = Backoff::new(base, 2.0, cap);
            let expected: u64 =
                (1..max_attempts).map(|_| backoff.next_delay(&mut replay).as_secs()).sum();
            prop_assert_eq!(client.waited.as_secs() - waited_before, expected);
            prop_assert_eq!(client.trace().dropped_attempts, (i as u64 + 1) * u64::from(max_attempts));
        }
    }

    #[test]
    fn final_retryable_attempt_is_not_charged_as_wait(
        seed in any::<u64>(),
        max_attempts in 1u32..6,
        retry_after in 100u32..500,
    ) {
        let mut svc = AlwaysLimited(retry_after);
        let mut router = Router::new("svc", &mut svc);
        let mut client = Client::new(
            ClientConfig { max_attempts, ..ClientConfig::default() },
            FaultInjector::none(),
            Rng::new(seed),
            SimTime::EPOCH,
        );
        let result = client.call(&mut router, SimTime::EPOCH, &Request::new("svc/op"));
        prop_assert!(matches!(
            result,
            Err(TransportError::Failed { status: Status::RateLimited(_), attempts })
                if attempts == max_attempts
        ));
        prop_assert_eq!(client.trace().total, u64::from(max_attempts));
        let n = u64::from(max_attempts);
        let ra = u64::from(retry_after);
        prop_assert!(client.waited.as_secs() >= (n - 1) * ra);
        // Each of the n-1 served retries waits retry-after plus at most
        // the backoff cap; charging the final attempt too would land at
        // n * retry-after and break this bound.
        prop_assert!(
            client.waited.as_secs() <= (n - 1) * (ra + 61),
            "final retryable attempt charged as wait: {} secs after {n} attempts",
            client.waited.as_secs()
        );
    }

    #[test]
    fn parse_is_scheme_and_noise_insensitive(
        code in "[A-Za-z0-9]{1,22}",
        scheme in 0u8..3,
        query in proptest::option::of("[a-z]{1,8}"),
    ) {
        for host_path in [
            format!("chat.whatsapp.com/{code}"),
            format!("t.me/{code}"),
            format!("discord.gg/{code}"),
            format!("discord.com/invite/{code}"),
        ] {
            let mut url = match scheme {
                0 => format!("https://{host_path}"),
                1 => format!("http://{host_path}"),
                _ => host_path.clone(),
            };
            if let Some(q) = &query {
                url.push_str(&format!("?utm={q}"));
            }
            let parsed = parse_invite_url(&url);
            prop_assert!(parsed.is_some(), "failed to parse {url}");
            let invite = parsed.unwrap();
            prop_assert_eq!(&invite.code, &code, "code mangled in {url}");
            // Round-trip: rendering and reparsing is a fixed point.
            prop_assert_eq!(parse_invite_url(&invite.url()).as_ref(), Some(&invite));
        }
    }
}
