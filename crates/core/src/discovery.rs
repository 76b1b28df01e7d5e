//! Group discovery via Twitter's Search and Streaming APIs (§3.1).
//!
//! Every hour the component queries the Search API once per tracked host
//! (paginated, `since_id`-incremental; the very first query of each host
//! pulls the full 7-day backlog) and drains the Streaming API for the
//! elapsed hour. The two feeds disagree — each misses a deterministic
//! subset of tweets — so tweets are merged by id and a tweet's provenance
//! (search, stream, or both) is retained. The 1% sample stream is drained
//! daily into the control dataset.

use crate::budget::SpillableLog;
use crate::error::CoreError;
use crate::intern::Interner;
use crate::net::Net;
use crate::patterns::{extract_invites, ExtractionStats};
use crate::quarantine::{day_of, verify_echoes, Fate, Provenance, QuarantineEntry};
use chatlens_platforms::id::PlatformKind;
use chatlens_platforms::invite::{parse_invite_url, InviteCode};
use chatlens_platforms::wire::WireDoc;
use chatlens_simnet::fastmap::{FastMap, FastSet};
use chatlens_simnet::time::SimTime;
use chatlens_simnet::transport::{Request, Response, Status};
use chatlens_twitter::store::TRACK_HOSTS;
use chatlens_twitter::Tweet;
use chatlens_workload::Ecosystem;

/// First sighting of a group URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryRecord {
    /// The validated invite.
    pub invite: InviteCode,
    /// Which platform it belongs to.
    pub platform: PlatformKind,
    /// When the collector first saw it (collection time, not tweet time).
    pub discovered_at: SimTime,
    /// Posting time of the earliest tweet seen carrying it.
    pub first_tweet_at: SimTime,
}

/// A collected tweet with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectedTweet {
    /// The tweet as decoded off the wire.
    pub tweet: Tweet,
    /// When the collector first received it.
    pub seen_at: SimTime,
    /// Delivered by the Search API.
    pub via_search: bool,
    /// Delivered by the Streaming API.
    pub via_stream: bool,
}

impl CollectedTweet {
    /// Which platforms the tweet carries a URL of, indexed by
    /// [`PlatformKind::index`] (a tweet sharing two platforms counts
    /// toward both, like Table 2's per-platform rows).
    pub fn platforms(&self) -> [bool; 3] {
        let mut on = [false; 3];
        for url in &self.tweet.urls {
            if let Some(inv) = parse_invite_url(url) {
                on[inv.platform().index()] = true;
            }
        }
        on
    }
}

/// The discovery component's accumulated state. A snapshot persists it
/// directly (see [`crate::state`]); `tweet_index`, `control_ids` and
/// `interner` are derived and rebuilt on load.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// Per-host Search API `since_id` watermarks.
    pub(crate) since_id: [Option<u64>; 6],
    /// Tweet id → global append index (derived; rebuilt on resume).
    pub(crate) tweet_index: FastMap<u64, usize>,
    /// Collected pattern-matched tweets, in arrival order, deduplicated.
    /// Under `--mem-budget` the cold day-prefix may be spilled to disk;
    /// indices in `tweet_index` and day-mark cursors are *global* and
    /// stay valid across an eviction.
    pub tweets: SpillableLog<CollectedTweet>,
    /// Control-sample tweets (spillable like `tweets`).
    pub control: SpillableLog<Tweet>,
    /// Ids present in `control` (derived; rebuilt on resume). Backfill
    /// re-fetches sample windows whose early pages already landed, so
    /// control ingestion dedups by id — against this persistent set, not
    /// a per-window rebuild over the whole control corpus.
    pub(crate) control_ids: FastSet<u64>,
    /// Group dedup keys interned in discovery order: a group's [`Sym`]
    /// index equals its slot in `groups`, so every slot-indexed table in
    /// the pipeline (timelines, terminal set, gap ledger) shares this one
    /// identity space.
    ///
    /// [`Sym`]: crate::intern::Sym
    pub(crate) interner: Interner,
    /// Discovered groups in discovery order.
    pub groups: Vec<DiscoveryRecord>,
    /// URL extraction totals.
    pub stats: ExtractionStats,
    /// Last Streaming API drain instant.
    pub(crate) last_stream_drain: SimTime,
    /// Last 1%-sample drain instant.
    pub(crate) last_sample_drain: SimTime,
    /// Transport-level failures that cost data (after retries).
    pub failed_requests: u64,
    /// Stream windows `(from, to)` whose drain failed mid-flight; retried
    /// at the next day boundary by [`Discovery::backfill`]. The Search
    /// feed needs no queue: its `since_id` watermark only advances past
    /// delivered tweets, so the next hourly round re-covers what was lost.
    pub pending_stream: Vec<(SimTime, SimTime)>,
    /// Sample windows awaiting backfill, like `pending_stream`.
    pub pending_sample: Vec<(SimTime, SimTime)>,
    /// Rejected feed pages with provenance (see [`crate::quarantine`]).
    /// A quarantined page is *lost* like a transport failure — stream and
    /// sample windows re-queue for backfill, search re-covers via
    /// `since_id` — so corruption shrinks coverage but never ingests.
    pub quarantine: Vec<QuarantineEntry>,
}

impl Discovery {
    /// A fresh component; `start` anchors the stream drains.
    pub fn new(start: SimTime) -> Discovery {
        Discovery {
            since_id: [None; 6],
            tweet_index: FastMap::default(),
            tweets: SpillableLog::new(),
            control: SpillableLog::new(),
            control_ids: FastSet::default(),
            interner: Interner::new(),
            groups: Vec::new(),
            stats: ExtractionStats::default(),
            last_stream_drain: start,
            last_sample_drain: start,
            failed_requests: 0,
            pending_stream: Vec::new(),
            pending_sample: Vec::new(),
            quarantine: Vec::new(),
        }
    }

    /// Number of distinct groups discovered so far.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Groups of one platform, in discovery order.
    pub fn groups_of(&self, kind: PlatformKind) -> impl Iterator<Item = &DiscoveryRecord> {
        self.groups.iter().filter(move |g| g.platform == kind)
    }

    /// Look up a discovered group by its dedup key.
    pub fn group_by_key(&self, key: &str) -> Option<&DiscoveryRecord> {
        self.slot_of_key(key).map(|i| &self.groups[i])
    }

    /// Slot (= interned sym index) of a discovered group, by dedup key.
    pub fn slot_of_key(&self, key: &str) -> Option<usize> {
        self.interner.get(key).map(|s| s.index())
    }

    /// The group symbol table: dedup keys in discovery order, where a
    /// key's [`Sym`](crate::intern::Sym) index is its `groups` slot.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    fn ingest(&mut self, tweet: Tweet, now: SimTime, via_search: bool) {
        if let Some(&i) = self.tweet_index.get(&tweet.id.0) {
            // Seen before (the other feed, or an overlapping search
            // window): merge provenance only. The record must still be
            // resident: the budget's eviction eligibility rule (a
            // partition ages `RESIDENCY_DAYS` past the 7-day search
            // lookback and past every pending backfill window before it
            // may spill) guarantees no merge can target a spilled day.
            let rec = self
                .tweets
                .get_mut(i)
                .expect("provenance merge reached a spilled partition (eligibility invariant)");
            rec.via_search |= via_search;
            rec.via_stream |= !via_search;
            return;
        }
        for invite in extract_invites(&tweet, &mut self.stats) {
            let sym = self.interner.intern(&invite.dedup_key());
            if let Some(g) = self.groups.get_mut(sym.index()) {
                // Seen before: the interner handed back the group's slot.
                if tweet.at < g.first_tweet_at {
                    g.first_tweet_at = tweet.at;
                }
            } else {
                // First sighting: the interner assigned the next dense id,
                // which is exactly this record's slot in `groups`.
                debug_assert_eq!(sym.index(), self.groups.len());
                self.groups.push(DiscoveryRecord {
                    platform: invite.platform(),
                    invite,
                    discovered_at: now,
                    first_tweet_at: tweet.at,
                });
            }
        }
        self.tweet_index.insert(tweet.id.0, self.tweets.len());
        self.tweets.push(CollectedTweet {
            tweet,
            seen_at: now,
            via_search,
            via_stream: !via_search,
        });
    }

    /// Pull every page of one feed request. Returns the highest tweet id
    /// delivered and whether the drain ran to completion — a transport
    /// failure mid-pagination loses the remaining pages, and the caller
    /// decides whether the window is recoverable (queued for backfill) or
    /// self-healing (search's `since_id`).
    ///
    /// A page whose *body* fails to decode (corruption, splice) is never
    /// a process error: the body is quarantined with provenance, the page
    /// is re-fetched once immediately, and if the retry is damaged too
    /// the page is treated exactly like a transport loss — nothing from
    /// either hostile body is ingested.
    #[allow(clippy::too_many_arguments)]
    fn drain_pages(
        &mut self,
        net: &mut Net,
        eco: &mut Ecosystem,
        now: SimTime,
        base: Request,
        doc_kind: &'static str,
        via_search: bool,
        into_control: bool,
    ) -> (Option<u64>, bool) {
        let mut page = 0u64;
        let mut max_id: Option<u64> = None;
        loop {
            let req = base.clone().with("page", page.to_string());
            let resp = match net.twitter(eco, now, &req) {
                Ok(r) => r,
                Err(_) => {
                    self.failed_requests += 1;
                    return (max_id, false); // lose the page, keep the campaign going
                }
            };
            // Decode the page fully — envelope, echoes, every tweet —
            // before ingesting anything, so a body that goes bad halfway
            // through contributes nothing at all.
            let decoded = match decode_page(&resp.body, doc_kind, &req) {
                Ok(p) => p,
                Err(err) => {
                    let at = Provenance {
                        service: "twitter",
                        req: &req,
                        group: "",
                        day: day_of(eco.window.start_time(), now),
                    };
                    // Feed pages are decoded whatever status the Twitter
                    // client answers with: a body that is no page fails
                    // its decode.
                    let refetch = || {
                        net.twitter(eco, now, &req).map(|r| Response {
                            status: Status::Ok,
                            ..r
                        })
                    };
                    let decode = |body: &str| decode_page(body, doc_kind, &req);
                    match at.refetch_once(&mut self.quarantine, &resp.body, &err, refetch, decode) {
                        Fate::Decoded(p) => p,
                        Fate::Refused(_) | Fate::Lost => {
                            self.failed_requests += 1;
                            return (max_id, false); // page lost, like a transport failure
                        }
                    }
                }
            };
            if let Some(m) = decoded.max_id {
                max_id = Some(max_id.map_or(m, |x| x.max(m)));
            }
            for mut tweet in decoded.tweets {
                if into_control {
                    // Dedup against the persistent id set (`ingest`
                    // already dedups the discovery feeds).
                    if self.control_ids.insert(tweet.id.0) {
                        tweet.is_control = true;
                        self.control.push(tweet);
                    }
                } else {
                    self.ingest(tweet, now, via_search);
                }
            }
            match decoded.next {
                Some(next) => page = next,
                None => return (max_id, true),
            }
        }
    }

    /// One hourly Search API round: one paginated, `since_id`-incremental
    /// query per tracked host.
    pub fn run_search(&mut self, net: &mut Net, eco: &mut Ecosystem, now: SimTime) {
        for (hi, host) in TRACK_HOSTS.into_iter().enumerate() {
            let mut req = Request::new("twitter/search").with("host", host);
            if let Some(since) = self.since_id[hi] {
                req = req.with("since_id", since.to_string());
            }
            let (max_id, _) = self.drain_pages(net, eco, now, req, "tw-search", true, false);
            // Advance the host's high-water mark only past tweets *this
            // host's search* actually delivered — anything older is
            // invisible to search forever, anything newer must still be
            // fetchable next hour even if the stream saw it first.
            if max_id > self.since_id[hi] {
                self.since_id[hi] = max_id;
            }
        }
    }

    /// Drain the Streaming API for the period since the previous drain.
    pub fn drain_stream(&mut self, net: &mut Net, eco: &mut Ecosystem, now: SimTime) {
        let from = self.last_stream_drain;
        self.last_stream_drain = now;
        self.fetch_stream_window(net, eco, now, (from, now));
    }

    /// Drain the 1% sample stream into the control dataset.
    pub fn drain_sample(&mut self, net: &mut Net, eco: &mut Ecosystem, now: SimTime) {
        let from = self.last_sample_drain;
        self.last_sample_drain = now;
        self.fetch_sample_window(net, eco, now, (from, now));
    }

    /// Fetch one stream window, queueing it for backfill if incomplete.
    fn fetch_stream_window(
        &mut self,
        net: &mut Net,
        eco: &mut Ecosystem,
        now: SimTime,
        window: (SimTime, SimTime),
    ) {
        let req = Request::new("twitter/stream")
            .with("from", window.0.as_secs().to_string())
            .with("to", window.1.as_secs().to_string());
        let (_, complete) = self.drain_pages(net, eco, now, req, "tw-stream", false, false);
        if !complete {
            self.pending_stream.push(window);
        }
    }

    /// Fetch one sample window, queueing it for backfill if incomplete.
    fn fetch_sample_window(
        &mut self,
        net: &mut Net,
        eco: &mut Ecosystem,
        now: SimTime,
        window: (SimTime, SimTime),
    ) {
        let req = Request::new("twitter/sample")
            .with("from", window.0.as_secs().to_string())
            .with("to", window.1.as_secs().to_string());
        let (_, complete) = self.drain_pages(net, eco, now, req, "tw-sample", false, true);
        if !complete {
            self.pending_sample.push(window);
        }
    }

    /// Retry every queued stream/sample window. Called once per day
    /// boundary; windows that fail again simply re-queue, so nothing is
    /// lost while an outage lasts and everything recoverable lands at the
    /// first healthy boundary. Re-fetching is safe: both feeds dedup by
    /// tweet id, and collection timestamps honestly record the backfill
    /// instant rather than pretending the window was seen on time.
    pub fn backfill(&mut self, net: &mut Net, eco: &mut Ecosystem, now: SimTime) {
        for window in std::mem::take(&mut self.pending_stream) {
            self.fetch_stream_window(net, eco, now, window);
        }
        for window in std::mem::take(&mut self.pending_sample) {
            self.fetch_sample_window(net, eco, now, window);
        }
    }

    /// Windows still awaiting backfill (campaign health metric).
    pub fn pending_windows(&self) -> usize {
        self.pending_stream.len() + self.pending_sample.len()
    }

    /// Earliest study day any pending backfill window reaches back to,
    /// if any window is queued. The memory budget must keep every
    /// partition from that day on resident: a backfill re-delivers
    /// tweets posted in `[from, to]`, whose original collection day is
    /// at least `day_of(from)` and which therefore merge into
    /// partitions no colder than that. `start` is the window start.
    pub fn min_pending_window_day(&self, start: SimTime) -> Option<u32> {
        self.pending_stream
            .iter()
            .chain(self.pending_sample.iter())
            .map(|&(from, _)| day_of(start, from))
            .min()
    }

    /// Re-register the ids of spilled items into the dedup indexes
    /// after a resume: `tweet_ids` pairs each spilled tweet id with its
    /// global append index (for provenance-merge lookups, which under
    /// the eligibility rule never actually dereference a spilled
    /// index), and `control_ids` repopulates the control dedup set.
    pub fn index_spilled(
        &mut self,
        tweet_ids: impl IntoIterator<Item = (u64, usize)>,
        control_ids: impl IntoIterator<Item = u64>,
    ) {
        for (id, global) in tweet_ids {
            self.tweet_index.insert(id, global);
        }
        // lint:allow(D2) set insertion is order-insensitive
        for id in control_ids {
            self.control_ids.insert(id);
        }
    }
}

/// One fully validated feed page, ready to ingest.
struct Page {
    tweets: Vec<Tweet>,
    max_id: Option<u64>,
    next: Option<u64>,
}

/// Decode one feed page: envelope, identity echoes (`host`, `page`,
/// `from`/`to` — a mismatch is a cross-document splice), and every
/// encoded tweet. Pure: nothing is ingested until the whole page has
/// validated.
fn decode_page(body: &str, doc_kind: &'static str, req: &Request) -> Result<Page, CoreError> {
    let doc = WireDoc::parse_as(body, doc_kind)?;
    verify_echoes(&doc, req)?;
    let mut tweets = Vec::new();
    let mut max_id: Option<u64> = None;
    for encoded in doc.get_all("tweet") {
        let Some(tweet) = Tweet::decode(encoded) else {
            return Err(CoreError::Protocol(format!(
                "undecodable tweet: {encoded:?}"
            )));
        };
        max_id = Some(max_id.map_or(tweet.id.0, |m| m.max(tweet.id.0)));
        tweets.push(tweet);
    }
    let next = doc.opt_u64("next_page")?;
    Ok(Page {
        tweets,
        max_id,
        next,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatlens_simnet::time::SimDuration;
    use chatlens_workload::ScenarioConfig;

    fn setup() -> (Ecosystem, Net, Discovery) {
        let eco = Ecosystem::build(ScenarioConfig::tiny());
        let start = eco.window.start_time();
        let net = Net::reliable(7, start);
        let disco = Discovery::new(start);
        (eco, net, disco)
    }

    #[test]
    fn first_search_pulls_backlog() {
        let (mut eco, mut net, mut disco) = setup();
        let t0 = eco.window.start_time() + SimDuration::hours(1);
        disco.run_search(&mut net, &mut eco, t0);
        assert!(disco.group_count() > 0, "backlog should yield groups");
        assert!(disco.tweets.iter().all(|t| t.via_search));
        // Everything seen so far was posted within the search window.
        for t in &disco.tweets {
            assert!(t.tweet.at <= t0);
        }
    }

    #[test]
    fn since_id_makes_hourly_searches_incremental() {
        let (mut eco, mut net, mut disco) = setup();
        let t0 = eco.window.start_time() + SimDuration::hours(1);
        disco.run_search(&mut net, &mut eco, t0);
        let after_first = disco.tweets.len();
        // Immediately repeating the search must add nothing.
        disco.run_search(&mut net, &mut eco, t0);
        assert_eq!(disco.tweets.len(), after_first);
        // An hour later only the new hour's tweets arrive.
        let t1 = t0 + SimDuration::hours(1);
        disco.run_search(&mut net, &mut eco, t1);
        let delta = disco.tweets.len() - after_first;
        assert!(delta < after_first / 4, "hourly delta {delta} too large");
    }

    #[test]
    fn merging_feeds_beats_either_alone() {
        let (mut eco, mut net, mut disco) = setup();
        let end = eco.window.start_time() + SimDuration::days(2);
        let mut t = eco.window.start_time() + SimDuration::hours(1);
        while t < end {
            disco.run_search(&mut net, &mut eco, t);
            disco.drain_stream(&mut net, &mut eco, t);
            t += SimDuration::hours(1);
        }
        let both = disco
            .tweets
            .iter()
            .filter(|t| t.via_search && t.via_stream)
            .count();
        let search_only = disco
            .tweets
            .iter()
            .filter(|t| t.via_search && !t.via_stream)
            .count();
        let stream_only = disco
            .tweets
            .iter()
            .filter(|t| !t.via_search && t.via_stream)
            .count();
        assert!(both > 0, "feeds overlap");
        assert!(search_only > 0, "search sees tweets the stream lost");
        assert!(stream_only > 0, "stream sees tweets search misses");
    }

    #[test]
    fn control_drain_collects_sample() {
        let (mut eco, mut net, mut disco) = setup();
        let t = eco.window.start_time() + SimDuration::days(1);
        disco.drain_sample(&mut net, &mut eco, t);
        assert!(!disco.control.is_empty());
        assert!(disco.control.iter().all(|t| t.is_control));
        // A second drain for the same period adds nothing.
        let n = disco.control.len();
        disco.drain_sample(&mut net, &mut eco, t);
        assert_eq!(disco.control.len(), n);
    }

    #[test]
    fn groups_deduplicate_across_tweets() {
        let (mut eco, mut net, mut disco) = setup();
        let end = eco.window.start_time() + SimDuration::days(3);
        let mut t = eco.window.start_time() + SimDuration::hours(1);
        while t < end {
            disco.run_search(&mut net, &mut eco, t);
            t += SimDuration::hours(6);
        }
        assert!(disco.tweets.len() > disco.group_count(), "URLs repeat");
        // Every discovered group is resolvable by key and consistent.
        for g in &disco.groups {
            let found = disco.group_by_key(&g.invite.dedup_key()).unwrap();
            assert_eq!(found.invite, g.invite);
            assert!(found.first_tweet_at <= found.discovered_at);
        }
    }
}
