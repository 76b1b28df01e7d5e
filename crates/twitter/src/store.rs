//! The time-indexed tweet store and its three feed endpoints.
//!
//! Mounted on the transport as `twitter`, the store serves:
//!
//! * `twitter/search` — the Search API (§3.1): returns tweets matching a
//!   host pattern posted in the **seven days** before the query instant,
//!   paginated (100/page), with `since_id` for incremental collection.
//!   Coverage is *incomplete*: each tweet is deterministically either
//!   visible to search or not (same answer on every query), modelling the
//!   well-known gap between search and streaming results.
//! * `twitter/stream` — the filtered Streaming API: tweets matching the
//!   track patterns in a time range, minus its own deterministic losses
//!   (disconnects, rate spikes).
//! * `twitter/sample` — the 1% sample stream used as the control dataset.
//!
//! Because each feed's misses are a *fixed* property of the tweet, merging
//! search and stream genuinely recovers more than either alone — the exact
//! discrepancy that made the paper's authors merge the two feeds.

use crate::tweet::{Tweet, TweetId};
use chatlens_platforms::wire::WireDoc;
use chatlens_simnet::rng::SplitMix64;
use chatlens_simnet::time::{SimDuration, SimTime};
use chatlens_simnet::transport::{Request, Response, Service, Status};

/// The six host patterns Twitter is asked to track (§3.1). The store
/// matches on these directly — like Twitter's `track` parameter — while
/// the collector separately *parses and validates* every URL.
pub const TRACK_HOSTS: [&str; 6] = [
    "chat.whatsapp.com",
    "t.me",
    "telegram.me",
    "telegram.org",
    "discord.gg",
    "discord.com",
];

/// Tweets per page on the search endpoint (the v1.1 API's maximum).
pub const SEARCH_PAGE: usize = 100;
/// Tweets per page on the stream/sample drain endpoints.
pub const STREAM_PAGE: usize = 500;
/// The search index horizon: queries see seven days back (§3.1).
pub const SEARCH_WINDOW: SimDuration = SimDuration::days(7);

/// Whether `url` matches one of the tracked host patterns; returns the
/// matching host.
pub fn matches_track(url: &str) -> Option<&'static str> {
    // Twitter's track matching is effectively substring-based on the
    // entity's expanded URL host.
    TRACK_HOSTS
        .into_iter()
        .find(|host| url_host(url).is_some_and(|h| h.eq_ignore_ascii_case(host)))
}

fn url_host(url: &str) -> Option<&str> {
    let rest = url
        .strip_prefix("https://")
        .or_else(|| url.strip_prefix("http://"))
        .unwrap_or(url);
    let rest = if rest.len() >= 4 && rest[..4].eq_ignore_ascii_case("www.") {
        &rest[4..]
    } else {
        rest
    };
    let end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
    let host = &rest[..end];
    (!host.is_empty()).then_some(host)
}

/// Aggregate statistics over the stored tweets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Total tweets stored (matching + control).
    pub total: usize,
    /// Tweets carrying at least one tracked URL.
    pub matching: usize,
    /// Control-sample tweets.
    pub control: usize,
}

/// The tweet store. Tweets must be pushed in chronological order (the
/// workload generator emits them day by day); ids are assigned densely in
/// push order, so id order == time order, as on real Twitter snowflakes.
pub struct TweetStore {
    tweets: Vec<Tweet>,
    /// Per-tweet bitmask over [`TRACK_HOSTS`]: bit `i` is set iff some
    /// URL's host equals `TRACK_HOSTS[i]` (case-insensitive). Computed
    /// once at push; the search filter runs hundreds of millions of
    /// host-match tests per campaign and must not re-parse URLs for each.
    host_bits: Vec<u8>,
    /// Indices of tweets with >= 1 tracked URL, in id order.
    matching: Vec<u32>,
    /// Indices of control tweets, in id order.
    control: Vec<u32>,
    /// Probability a tweet is invisible to the Search API.
    pub search_miss: f64,
    /// Probability a tweet is lost by the Streaming API.
    pub stream_miss: f64,
    salt: u64,
}

impl TweetStore {
    /// An empty store with the given deterministic feed-miss rates and a
    /// salt decorrelating the miss patterns across scenario seeds.
    pub fn new(search_miss: f64, stream_miss: f64, salt: u64) -> TweetStore {
        TweetStore {
            tweets: Vec::new(),
            host_bits: Vec::new(),
            matching: Vec::new(),
            control: Vec::new(),
            search_miss: search_miss.clamp(0.0, 1.0),
            stream_miss: stream_miss.clamp(0.0, 1.0),
            salt,
        }
    }

    /// A store with perfect feeds (tests).
    pub fn perfect() -> TweetStore {
        TweetStore::new(0.0, 0.0, 0)
    }

    /// Append a tweet; its `id` field is overwritten with the assigned id.
    ///
    /// # Panics
    /// Panics if `tweet.at` precedes the previous tweet's time.
    pub fn push(&mut self, mut tweet: Tweet) -> TweetId {
        if let Some(last) = self.tweets.last() {
            assert!(
                tweet.at >= last.at,
                "tweets must be pushed chronologically ({} < {})",
                tweet.at,
                last.at
            );
        }
        let idx = self.tweets.len() as u32;
        tweet.id = TweetId(u64::from(idx));
        let mut bits = 0u8;
        for url in &tweet.urls {
            if let Some(h) = url_host(url) {
                for (b, host) in TRACK_HOSTS.iter().enumerate() {
                    if h.eq_ignore_ascii_case(host) {
                        bits |= 1 << b;
                    }
                }
            }
        }
        if tweet.is_control {
            self.control.push(idx);
        } else if bits != 0 {
            self.matching.push(idx);
        }
        self.tweets.push(tweet);
        self.host_bits.push(bits);
        TweetId(u64::from(idx))
    }

    /// Borrow a tweet by id.
    pub fn get(&self, id: TweetId) -> Option<&Tweet> {
        self.tweets.get(id.0 as usize)
    }

    /// All tweets, in id order.
    pub fn tweets(&self) -> &[Tweet] {
        &self.tweets
    }

    /// Store statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            total: self.tweets.len(),
            matching: self.matching.len(),
            control: self.control.len(),
        }
    }

    /// Encoded size of the world feed in bytes: the sum of every tweet's
    /// wire encoding plus the per-tweet index bytes (`host_bits` and the
    /// `matching`/`control` id lists). This is the memory-budget
    /// accounting floor for the store — a deterministic function of the
    /// scenario, never of allocator behavior.
    pub fn encoded_bytes(&self) -> u64 {
        let wire: u64 = self.tweets.iter().map(|t| t.encoded_len() as u64).sum();
        wire + self.host_bits.len() as u64
            + 4 * (self.matching.len() as u64 + self.control.len() as u64)
    }

    fn feed_visible(&self, id: u32, feed_salt: u64, miss: f64) -> bool {
        if miss <= 0.0 {
            return true;
        }
        // One SplitMix64 step keyed by (tweet, feed, scenario salt): the
        // same tweet gets the same answer on every query.
        let mut sm = SplitMix64::new(u64::from(id) ^ feed_salt ^ self.salt);
        let u = (sm.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u >= miss
    }

    /// Whether the Search API can see this tweet (stable per tweet).
    pub fn search_visible(&self, id: TweetId) -> bool {
        self.feed_visible(id.0 as u32, 0x005E_A2C4_0001, self.search_miss)
    }

    /// Whether the Streaming API delivered this tweet (stable per tweet).
    pub fn stream_visible(&self, id: TweetId) -> bool {
        self.feed_visible(id.0 as u32, 0x0005_7EAA_0002, self.stream_miss)
    }

    // ---- endpoint implementations --------------------------------------

    fn search(&self, now: SimTime, req: &Request) -> Response {
        let host = req.param("host").unwrap_or("any");
        let since_id: Option<u64> = match req.param("since_id").map(str::parse) {
            None => None,
            Some(Ok(v)) => Some(v),
            Some(Err(_)) => return bad("since_id"),
        };
        let page: usize = match req.param("page").map(str::parse) {
            None => 0,
            Some(Ok(v)) => v,
            Some(Err(_)) => return bad("page"),
        };
        let horizon = now.checked_sub(SEARCH_WINDOW).unwrap_or(SimTime::EPOCH);
        // `matching` is in id order == time order, so the 7-day window and
        // the since_id high-water mark are contiguous ranges: binary-search
        // them instead of scanning the whole index on every page request
        // (the campaign issues hundreds of thousands of these).
        let lo_time = self
            .matching
            .partition_point(|&i| self.tweets[i as usize].at < horizon);
        let lo = match since_id {
            Some(s) => {
                let lo_id = self.matching.partition_point(|&i| u64::from(i) <= s);
                lo_id.max(lo_time)
            }
            None => lo_time,
        };
        let hi = self
            .matching
            .partition_point(|&i| self.tweets[i as usize].at <= now);
        // Host match via the precomputed per-tweet bitmask: a stalled
        // `since_id` (a host with no recent deliveries) re-scans up to a
        // full 7-day window of candidates every hour, so the per-candidate
        // test must be flat. Hosts outside the tracked set (tests, hostile
        // queries) keep the exact URL-parsing semantics on the slow path.
        let host_bit = TRACK_HOSTS
            .iter()
            .position(|h| h.eq_ignore_ascii_case(host));
        let mut hits = self.matching[lo..hi.max(lo)].iter().copied().filter(|&i| {
            let by_host = host == "any"
                || match host_bit {
                    Some(b) => self.host_bits[i as usize] & (1 << b) != 0,
                    None => self.tweets[i as usize]
                        .urls
                        .iter()
                        .any(|u| url_host(u).is_some_and(|h| h.eq_ignore_ascii_case(host))),
                };
            by_host && self.search_visible(TweetId(u64::from(i)))
        });
        // Echo the query identity (host + page) so collectors can detect a
        // cross-document splice: a cached page served for the wrong query.
        let mut doc = WireDoc::new("tw-search")
            .field("host", host)
            .field("page", page);
        let mut emitted = 0usize;
        let mut skipped = 0usize;
        let mut more = false;
        for i in hits.by_ref() {
            if skipped < page * SEARCH_PAGE {
                skipped += 1;
                continue;
            }
            if emitted == SEARCH_PAGE {
                more = true;
                break;
            }
            doc = doc.field_string("tweet", self.tweets[i as usize].encode());
            emitted += 1;
        }
        if more {
            doc = doc.field("next_page", page + 1);
        }
        Response::ok(doc.render())
    }

    fn drain(
        &self,
        req: &Request,
        index: &[u32],
        doc_kind: &'static str,
        check_stream_loss: bool,
    ) -> Response {
        let from = match req.param("from").map(str::parse::<u64>) {
            Some(Ok(v)) => SimTime::from_secs(v),
            _ => return bad("from"),
        };
        let to = match req.param("to").map(str::parse::<u64>) {
            Some(Ok(v)) => SimTime::from_secs(v),
            _ => return bad("to"),
        };
        let page: usize = match req.param("page").map(str::parse) {
            None => 0,
            Some(Ok(v)) => v,
            Some(Err(_)) => return bad("page"),
        };
        // Same contiguity argument as search: the [from, to) range is a
        // slice of the id-ordered index.
        let lo = index.partition_point(|&i| self.tweets[i as usize].at < from);
        let hi = index.partition_point(|&i| self.tweets[i as usize].at < to);
        let mut hits = index[lo..hi.max(lo)]
            .iter()
            .copied()
            .filter(|&i| !check_stream_loss || self.stream_visible(TweetId(u64::from(i))));
        // Echo the window identity so a spliced page is detectable.
        let mut doc = WireDoc::new(doc_kind)
            .field("from", from.as_secs())
            .field("to", to.as_secs())
            .field("page", page);
        let mut emitted = 0usize;
        let mut skipped = 0usize;
        let mut more = false;
        for i in hits.by_ref() {
            if skipped < page * STREAM_PAGE {
                skipped += 1;
                continue;
            }
            if emitted == STREAM_PAGE {
                more = true;
                break;
            }
            doc = doc.field_string("tweet", self.tweets[i as usize].encode());
            emitted += 1;
        }
        if more {
            doc = doc.field("next_page", page + 1);
        }
        Response::ok(doc.render())
    }
}

fn bad(what: &str) -> Response {
    // lint:allow(D10) error-path only: a rejected request leaves the hot search loop entirely
    Response::status(Status::NotFound, format!("bad-request\nwhat: {what}"))
}

impl Service for TweetStore {
    fn handle(&mut self, now: SimTime, req: &Request) -> Response {
        let op = req
            .endpoint
            .split_once('/')
            .map(|(_, rest)| rest)
            .unwrap_or("");
        match op {
            "search" => self.search(now, req),
            "stream" => {
                let matching = std::mem::take(&mut self.matching);
                let resp = self.drain(req, &matching, "tw-stream", true);
                self.matching = matching;
                resp
            }
            "sample" => {
                let control = std::mem::take(&mut self.control);
                let resp = self.drain(req, &control, "tw-sample", false);
                self.control = control;
                resp
            }
            _ => bad("operation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tweet::{Lang, TwitterUserId};
    use chatlens_simnet::time::Date;

    fn tweet(at: SimTime, urls: Vec<&str>, control: bool) -> Tweet {
        Tweet {
            id: TweetId(0),
            author: TwitterUserId(1),
            at,
            lang: Lang::En,
            hashtags: 0,
            mentions: 0,
            retweet_of: None,
            urls: urls.into_iter().map(str::to_string).collect(),
            tokens: vec![],
            is_control: control,
        }
    }

    fn day(d: u8) -> SimTime {
        Date::new(2020, 4, d).midnight()
    }

    fn parse_tweets(body: &str, kind: &'static str) -> (Vec<Tweet>, Option<u64>) {
        let doc = WireDoc::parse_as(body, kind).unwrap();
        let tweets = doc
            .get_all("tweet")
            .map(|s| Tweet::decode(s).unwrap())
            .collect();
        let next = doc.opt_u64("next_page").unwrap();
        (tweets, next)
    }

    #[test]
    fn track_matching() {
        assert_eq!(
            matches_track("https://chat.whatsapp.com/XYZ"),
            Some("chat.whatsapp.com")
        );
        assert_eq!(matches_track("http://t.me/joinchat/AB"), Some("t.me"));
        assert_eq!(matches_track("https://discord.gg/abc"), Some("discord.gg"));
        assert_eq!(matches_track("https://example.com/t.me"), None, "host only");
        assert_eq!(
            matches_track("https://WWW.DISCORD.GG/x"),
            Some("discord.gg")
        );
        assert_eq!(matches_track("not a url"), None);
    }

    #[test]
    fn push_assigns_chronological_ids() {
        let mut s = TweetStore::perfect();
        let a = s.push(tweet(day(8), vec!["https://t.me/x"], false));
        let b = s.push(tweet(day(9), vec![], true));
        assert_eq!(a, TweetId(0));
        assert_eq!(b, TweetId(1));
        assert_eq!(s.stats().total, 2);
        assert_eq!(s.stats().matching, 1);
        assert_eq!(s.stats().control, 1);
    }

    #[test]
    #[should_panic(expected = "chronologically")]
    fn push_rejects_time_travel() {
        let mut s = TweetStore::perfect();
        s.push(tweet(day(9), vec![], true));
        s.push(tweet(day(8), vec![], true));
    }

    #[test]
    fn search_seven_day_window() {
        let mut s = TweetStore::perfect();
        s.push(tweet(day(1), vec!["https://t.me/old"], false));
        s.push(tweet(day(9), vec!["https://t.me/fresh"], false));
        // Query on day 10: day 1 is outside the 7-day window.
        let resp = s.handle(day(10), &Request::new("twitter/search"));
        let (tweets, next) = parse_tweets(&resp.body, "tw-search");
        assert_eq!(tweets.len(), 1);
        assert!(tweets[0].urls[0].contains("fresh"));
        assert_eq!(next, None);
    }

    #[test]
    fn search_host_filter() {
        let mut s = TweetStore::perfect();
        s.push(tweet(day(9), vec!["https://t.me/a"], false));
        s.push(tweet(day(9), vec!["https://discord.gg/b"], false));
        let resp = s.handle(
            day(10),
            &Request::new("twitter/search").with("host", "discord.gg"),
        );
        let (tweets, _) = parse_tweets(&resp.body, "tw-search");
        assert_eq!(tweets.len(), 1);
        assert!(tweets[0].urls[0].contains("discord.gg"));
    }

    #[test]
    fn search_since_id_incremental() {
        let mut s = TweetStore::perfect();
        for i in 0..5 {
            s.push(tweet(day(9), vec![&format!("https://t.me/g{i}")], false));
        }
        let resp = s.handle(
            day(10),
            &Request::new("twitter/search").with("since_id", "2"),
        );
        let (tweets, _) = parse_tweets(&resp.body, "tw-search");
        assert_eq!(tweets.len(), 2, "only ids 3 and 4");
        assert!(tweets.iter().all(|t| t.id.0 > 2));
    }

    #[test]
    fn search_pagination() {
        let mut s = TweetStore::perfect();
        for i in 0..250 {
            s.push(tweet(day(9), vec![&format!("https://t.me/g{i}")], false));
        }
        let mut collected = Vec::new();
        let mut page = 0u64;
        loop {
            let resp = s.handle(
                day(10),
                &Request::new("twitter/search").with("page", page.to_string()),
            );
            let (tweets, next) = parse_tweets(&resp.body, "tw-search");
            collected.extend(tweets);
            match next {
                Some(n) => page = n,
                None => break,
            }
        }
        assert_eq!(collected.len(), 250);
        assert_eq!(page, 2);
    }

    #[test]
    fn control_tweets_never_in_search() {
        let mut s = TweetStore::perfect();
        // A control tweet that *would* match the track patterns still only
        // flows through the sample stream (it was sampled, not tracked).
        s.push(tweet(day(9), vec!["https://t.me/x"], true));
        let resp = s.handle(day(10), &Request::new("twitter/search"));
        let (tweets, _) = parse_tweets(&resp.body, "tw-search");
        assert!(tweets.is_empty());
    }

    #[test]
    fn stream_range_and_pagination() {
        let mut s = TweetStore::perfect();
        for d in 8..12u8 {
            for i in 0..3 {
                s.push(tweet(
                    day(d),
                    vec![&format!("https://t.me/d{d}i{i}")],
                    false,
                ));
            }
        }
        let resp = s.handle(
            day(15),
            &Request::new("twitter/stream")
                .with("from", day(9).as_secs().to_string())
                .with("to", day(11).as_secs().to_string()),
        );
        let (tweets, next) = parse_tweets(&resp.body, "tw-stream");
        assert_eq!(tweets.len(), 6, "days 9 and 10 only (to is exclusive)");
        assert_eq!(next, None);
    }

    #[test]
    fn sample_returns_control_only() {
        let mut s = TweetStore::perfect();
        s.push(tweet(day(9), vec!["https://t.me/x"], false));
        s.push(tweet(day(9), vec![], true));
        let resp = s.handle(
            day(15),
            &Request::new("twitter/sample")
                .with("from", day(8).as_secs().to_string())
                .with("to", day(10).as_secs().to_string()),
        );
        let (tweets, _) = parse_tweets(&resp.body, "tw-sample");
        assert_eq!(tweets.len(), 1);
        assert!(tweets[0].urls.is_empty());
    }

    #[test]
    fn feed_misses_are_deterministic_and_complementary() {
        let mut s = TweetStore::new(0.3, 0.2, 99);
        for i in 0..2000 {
            s.push(tweet(day(9), vec![&format!("https://t.me/g{i}")], false));
        }
        // Determinism: same visibility on repeated evaluation.
        for i in (0..2000).step_by(97) {
            let id = TweetId(i);
            assert_eq!(s.search_visible(id), s.search_visible(id));
            assert_eq!(s.stream_visible(id), s.stream_visible(id));
        }
        let search_seen = (0..2000).filter(|&i| s.search_visible(TweetId(i))).count();
        let stream_seen = (0..2000).filter(|&i| s.stream_visible(TweetId(i))).count();
        let union = (0..2000)
            .filter(|&i| s.search_visible(TweetId(i)) || s.stream_visible(TweetId(i)))
            .count();
        assert!((search_seen as f64 / 2000.0 - 0.7).abs() < 0.05);
        assert!((stream_seen as f64 / 2000.0 - 0.8).abs() < 0.05);
        assert!(
            union > search_seen && union > stream_seen,
            "merging feeds must recover more than either alone"
        );
    }

    #[test]
    fn bad_params_rejected() {
        let mut s = TweetStore::perfect();
        let resp = s.handle(day(10), &Request::new("twitter/stream"));
        assert_eq!(resp.status, Status::NotFound, "missing from/to");
        let resp = s.handle(day(10), &Request::new("twitter/search").with("page", "x"));
        assert_eq!(resp.status, Status::NotFound);
        let resp = s.handle(day(10), &Request::new("twitter/nope"));
        assert_eq!(resp.status, Status::NotFound);
    }
}
