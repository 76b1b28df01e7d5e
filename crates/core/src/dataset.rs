//! The assembled campaign output — everything the analyses consume.

use crate::budget::LogView;
use crate::discovery::{CollectedTweet, Discovery, DiscoveryRecord};
use crate::fold::{DayMark, DayParts, DaySlice};
use crate::intern::Interner;
use crate::joiner::JoinedGroup;
use crate::monitor::{GapLedger, GroupTimeline, ObservedStatus, TimelineStore};
use crate::patterns::ExtractionStats;
use crate::pii::PiiStore;
use crate::quarantine::QuarantineEntry;
use chatlens_platforms::id::PlatformKind;
use chatlens_platforms::wire::push_u64;
use chatlens_simnet::hash::{to_hex, Sha256};
use chatlens_simnet::metrics::Metrics;
use chatlens_simnet::time::StudyWindow;
use chatlens_twitter::Tweet;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

/// Per-platform roll-up of Table 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlatformSummary {
    /// Tweets carrying this platform's URLs (dedup by tweet id).
    pub tweets: u64,
    /// Distinct tweet authors.
    pub twitter_users: u64,
    /// Distinct group URLs discovered.
    pub group_urls: u64,
    /// Groups joined.
    pub joined_groups: u64,
    /// Messages collected from joined groups.
    pub messages: u64,
    /// Total members across joined groups (the paper's "Messaging
    /// Platforms #Users" column: group sizes for the API platforms, the
    /// member list for WhatsApp).
    pub platform_users: u64,
}

/// The full campaign output. `PartialEq` compares every collected record
/// — it exists for the resume-equivalence tests, which assert a resumed
/// campaign's dataset equals an uninterrupted run's (after normalizing
/// wall-clock timings with
/// [`Metrics::strip_wall_clock`](chatlens_simnet::metrics::Metrics::strip_wall_clock)).
#[derive(Debug, PartialEq)]
pub struct Dataset {
    /// The collection window.
    pub window: StudyWindow,
    /// Collected pattern-matched tweets with provenance.
    pub tweets: Vec<CollectedTweet>,
    /// The control sample.
    pub control: Vec<Tweet>,
    /// Discovered groups in discovery order.
    pub groups: Vec<DiscoveryRecord>,
    /// The group symbol table: dedup keys interned in discovery order,
    /// so a key's sym index is its slot in `groups` (and in `timelines`
    /// and `gaps`).
    pub interner: Interner,
    /// Monitor timelines, indexed by discovery slot. Iteration is always
    /// slot- (= discovery-) ordered, never hasher-ordered (lint rule D2).
    pub timelines: TimelineStore,
    /// The gap ledger: study days on which a group could not be observed
    /// even after backfill (outages, persistent transport failure),
    /// indexed by discovery slot with days ascending. Lifetime/staleness
    /// analyses treat these as censored — an unobserved day is never an
    /// observation.
    pub gaps: GapLedger,
    /// The quarantine ledger: every wire body the collectors rejected,
    /// with typed error and provenance, in component order (discovery →
    /// monitor → joiner). Nothing in it ever reaches the tables above —
    /// it records *why* data is missing, the gap/failure counters record
    /// *that* it is missing.
    pub quarantine: Vec<QuarantineEntry>,
    /// Joined groups with members and messages.
    pub joined: Vec<JoinedGroup>,
    /// PII exposure accounting.
    pub pii: PiiStore,
    /// URL-extraction totals.
    pub extraction: crate::patterns::ExtractionStats,
    /// Transport requests that failed after retries.
    pub failed_requests: u64,
    /// Accounts opened per platform.
    pub accounts_used: [u16; 3],
    /// Whether the Discord bot-join probe was refused.
    pub bot_join_rejected: bool,
    /// Campaign-health counters and histograms (request volumes, rounds
    /// executed, discovery progress).
    pub metrics: chatlens_simnet::metrics::Metrics,
    /// Per-day collection cursor marks, one per completed study day —
    /// the boundaries [`Dataset::day_slice`] cuts at. Not rendered by
    /// [`Dataset::campaign_report`] (the frozen byte contract).
    pub marks: Vec<DayMark>,
}

impl Dataset {
    /// Assemble from the campaign components.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        window: StudyWindow,
        discovery: Discovery,
        timelines: TimelineStore,
        gaps: GapLedger,
        monitor_quarantine: Vec<QuarantineEntry>,
        joiner: crate::joiner::Joiner,
        pii: PiiStore,
        marks: Vec<DayMark>,
    ) -> Dataset {
        let mut quarantine = discovery.quarantine;
        quarantine.extend(monitor_quarantine);
        quarantine.extend(joiner.quarantine);
        Dataset {
            window,
            extraction: discovery.stats,
            failed_requests: discovery.failed_requests,
            // Batch assembly needs the full logs in memory; budgeted
            // campaigns stream their report instead of assembling
            // (`into_full_vec` refuses loudly if a prefix was spilled).
            tweets: discovery.tweets.into_full_vec(),
            control: discovery.control.into_full_vec(),
            groups: discovery.groups,
            interner: discovery.interner,
            timelines,
            gaps,
            quarantine,
            accounts_used: joiner.accounts_used,
            bot_join_rejected: joiner.bot_join_rejected,
            joined: joiner.joined,
            pii,
            metrics: chatlens_simnet::metrics::Metrics::new(),
            marks,
        }
    }

    /// A borrowed [`DaySlice`] view of day `day`: the collections as
    /// they stood at that day's boundary, cut at the recorded
    /// [`DayMark`]s (no per-day data is ever cloned). Cumulative stores
    /// (timelines, gaps, PII) are exposed in their final form; timelines
    /// slice by day via binary search
    /// ([`GroupTimeline::status_on`](crate::monitor::GroupTimeline::status_on)).
    /// `None` if `day` has no recorded mark.
    pub fn day_slice(&self, day: u32) -> Option<DaySlice<'_>> {
        let cur = self.marks.get(day as usize)?;
        debug_assert_eq!(cur.day, day, "marks must be day-indexed");
        let zero = DayMark {
            day: 0,
            tweets: 0,
            control: 0,
            groups: 0,
            joined: 0,
        };
        let prev = match day.checked_sub(1) {
            Some(d) => *self.marks.get(d as usize)?,
            None => zero,
        };
        let parts = DayParts {
            window: self.window,
            tweets: LogView::of_slice(&self.tweets),
            control: LogView::of_slice(&self.control),
            groups: &self.groups,
            joined: &self.joined,
            interner: &self.interner,
            timelines: &self.timelines,
            gaps: &self.gaps,
            pii: &self.pii,
        };
        Some(parts.slice_between(day, &prev, cur))
    }

    /// Tweets that carry at least one URL of `kind` (a tweet sharing two
    /// platforms counts toward both, like Table 2's per-platform rows).
    pub fn tweets_of(&self, kind: PlatformKind) -> impl Iterator<Item = &CollectedTweet> {
        self.tweets.iter().filter(move |t| {
            t.tweet
                .urls
                .iter()
                .filter_map(|u| chatlens_platforms::invite::parse_invite_url(u))
                .any(|inv| inv.platform() == kind)
        })
    }

    /// Joined groups of one platform.
    pub fn joined_of(&self, kind: PlatformKind) -> impl Iterator<Item = &JoinedGroup> {
        self.joined.iter().filter(move |j| j.platform == kind)
    }

    /// Slot (= interned sym index) of a group, by dedup key.
    pub fn slot_of_key(&self, key: &str) -> Option<usize> {
        self.interner.get(key).map(|s| s.index())
    }

    /// Monitor timeline of the group at `slot` (its discovery index).
    pub fn timeline_at(&self, slot: usize) -> Option<&GroupTimeline> {
        self.timelines.get(slot)
    }

    /// Monitor timeline of a discovered group.
    pub fn timeline_of(&self, rec: &DiscoveryRecord) -> Option<&GroupTimeline> {
        self.slot_of_key(&rec.invite.dedup_key())
            .and_then(|slot| self.timelines.get(slot))
    }

    /// The Table 2 roll-up for one platform.
    pub fn summary(&self, kind: PlatformKind) -> PlatformSummary {
        let mut tweets = 0u64;
        let mut authors = std::collections::HashSet::new();
        for t in self.tweets_of(kind) {
            tweets += 1;
            authors.insert(t.tweet.author);
        }
        let group_urls = self.groups.iter().filter(|g| g.platform == kind).count() as u64;
        let mut joined_groups = 0u64;
        let mut messages = 0u64;
        let mut platform_users = 0u64;
        for jg in self.joined_of(kind) {
            joined_groups += 1;
            messages += jg.messages.len() as u64;
            platform_users += match kind {
                // WhatsApp: the member list itself.
                PlatformKind::WhatsApp => jg.members.len() as u64,
                // API platforms: the group size reported by the monitor at
                // the last alive observation (the paper reads totals off
                // group metadata, not member lists).
                _ => self
                    .slot_of_key(&jg.key)
                    .and_then(|slot| self.timelines.get(slot))
                    .and_then(|t| t.size_span())
                    .map(|(_, last)| u64::from(last))
                    .unwrap_or(0),
            };
        }
        PlatformSummary {
            tweets,
            twitter_users: authors.len() as u64,
            group_urls,
            joined_groups,
            messages,
            platform_users,
        }
    }

    /// Render the canonical campaign report: a deterministic, versioned
    /// text rendering of *everything* the campaign collected — totals,
    /// per-platform roll-ups, and SHA-256 digests over each table's full
    /// canonical serialization.
    ///
    /// This is the byte contract the golden differential suite
    /// (`tests/golden.rs`) locks: any representation change that alters a
    /// collected datum, a ledger entry, or an iteration order visible in
    /// the output changes these bytes. The format is frozen — fixtures
    /// were recorded before the interned/columnar storage rewrite and the
    /// optimised pipeline must keep reproducing them exactly.
    pub fn campaign_report(&self) -> String {
        let mut rb = TweetRollupBuilder::new();
        for ct in &self.tweets {
            rb.add_tweet(ct);
        }
        for tw in &self.control {
            rb.add_control(tw);
        }
        render_campaign_report(&rb.finish(), &self.report_inputs())
    }

    /// The non-tweet report inputs, borrowed from this dataset.
    pub(crate) fn report_inputs(&self) -> ReportInputs<'_> {
        ReportInputs {
            window: self.window,
            groups: &self.groups,
            interner: &self.interner,
            timelines: &self.timelines,
            gaps: &self.gaps,
            quarantine: &self.quarantine,
            joined: &self.joined,
            pii: &self.pii,
            extraction: self.extraction,
            failed_requests: self.failed_requests,
            accounts_used: self.accounts_used,
            bot_join_rejected: self.bot_join_rejected,
            metrics: &self.metrics,
        }
    }

    /// Totals across platforms plus the distinct-author union (Table 2's
    /// bottom row counts each tweet/author once).
    pub fn totals(&self) -> PlatformSummary {
        let mut authors = std::collections::HashSet::new();
        for t in &self.tweets {
            authors.insert(t.tweet.author);
        }
        let per: Vec<PlatformSummary> = PlatformKind::ALL
            .into_iter()
            .map(|k| self.summary(k))
            .collect();
        PlatformSummary {
            tweets: self.tweets.len() as u64,
            twitter_users: authors.len() as u64,
            group_urls: self.groups.len() as u64,
            joined_groups: per.iter().map(|p| p.joined_groups).sum(),
            messages: per.iter().map(|p| p.messages).sum(),
            platform_users: per.iter().map(|p| p.platform_users).sum(),
        }
    }
}

/// Per-tweet roll-up accumulated in one streaming pass: counts, author
/// sets, per-platform tweet/user columns, and the tweets digest. Built
/// either from the assembled dataset (batch) or by streaming spilled
/// day-partitions in order (budgeted runs) — byte-identical either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TweetRollup {
    /// Collected tweets (global count).
    pub tweets_total: u64,
    /// Distinct tweet authors.
    pub twitter_users: u64,
    /// `(tweets, users)` per platform, indexed by `PlatformKind::index`.
    pub per_kind: [(u64, u64); 3],
    /// Control tweets (global count).
    pub control_total: u64,
    /// The frozen tweets digest (tweet lines then control lines).
    pub tweets_sha: String,
}

/// Streaming builder for [`TweetRollup`]: one partition's worth of
/// tweets in memory at a time, constant-size accumulator state.
pub(crate) struct TweetRollupBuilder {
    hasher: Sha256,
    line: String,
    authors: HashSet<u32>,
    kind_authors: [HashSet<u32>; 3],
    kind_tweets: [u64; 3],
    tweets_total: u64,
    control_total: u64,
    control_phase: bool,
}

impl TweetRollupBuilder {
    pub(crate) fn new() -> TweetRollupBuilder {
        TweetRollupBuilder {
            hasher: Sha256::new(),
            line: String::new(),
            authors: HashSet::new(),
            kind_authors: [HashSet::new(), HashSet::new(), HashSet::new()],
            kind_tweets: [0; 3],
            tweets_total: 0,
            control_total: 0,
            control_phase: false,
        }
    }

    /// Add one collected tweet. All collected tweets arrive in global
    /// append order, before the first control tweet — the frozen digest
    /// layout.
    pub(crate) fn add_tweet(&mut self, ct: &CollectedTweet) {
        assert!(!self.control_phase, "tweets must precede control tweets");
        self.tweets_total += 1;
        self.authors.insert(ct.tweet.author.0);
        let mut kinds = [false; 3];
        for url in &ct.tweet.urls {
            if let Some(inv) = chatlens_platforms::invite::parse_invite_url(url) {
                kinds[inv.platform().index()] = true;
            }
        }
        for (i, hit) in kinds.into_iter().enumerate() {
            if hit {
                self.kind_tweets[i] += 1;
                self.kind_authors[i].insert(ct.tweet.author.0);
            }
        }
        self.line.clear();
        writeln!(
            self.line,
            "{}|seen={}|search={}|stream={}|control={}",
            ct.tweet.encode(),
            ct.seen_at.as_secs(),
            ct.via_search,
            ct.via_stream,
            ct.tweet.is_control
        )
        .unwrap();
        self.hasher.update(self.line.as_bytes());
    }

    /// Add one control tweet (global append order, after every
    /// collected tweet).
    pub(crate) fn add_control(&mut self, tw: &Tweet) {
        self.control_phase = true;
        self.control_total += 1;
        self.line.clear();
        writeln!(self.line, "ctl {}|control={}", tw.encode(), tw.is_control).unwrap();
        self.hasher.update(self.line.as_bytes());
    }

    pub(crate) fn finish(self) -> TweetRollup {
        let mut per_kind = [(0u64, 0u64); 3];
        for (i, slot) in per_kind.iter_mut().enumerate() {
            *slot = (self.kind_tweets[i], self.kind_authors[i].len() as u64);
        }
        TweetRollup {
            tweets_total: self.tweets_total,
            twitter_users: self.authors.len() as u64,
            per_kind,
            control_total: self.control_total,
            tweets_sha: to_hex(&self.hasher.finalize()),
        }
    }
}

/// The non-tweet inputs of the campaign report: every store that stays
/// resident under a memory budget, borrowed from wherever it lives
/// (the assembled dataset, or the live runner on a budgeted run).
pub(crate) struct ReportInputs<'a> {
    pub window: StudyWindow,
    pub groups: &'a [DiscoveryRecord],
    pub interner: &'a Interner,
    pub timelines: &'a TimelineStore,
    pub gaps: &'a GapLedger,
    pub quarantine: &'a [QuarantineEntry],
    pub joined: &'a [JoinedGroup],
    pub pii: &'a PiiStore,
    pub extraction: ExtractionStats,
    pub failed_requests: u64,
    pub accounts_used: [u16; 3],
    pub bot_join_rejected: bool,
    pub metrics: &'a Metrics,
}

impl ReportInputs<'_> {
    /// Group/join/message roll-up for one platform; the tweet columns
    /// come from the [`TweetRollup`].
    fn store_summary(&self, kind: PlatformKind) -> PlatformSummary {
        let group_urls = self.groups.iter().filter(|g| g.platform == kind).count() as u64;
        let mut joined_groups = 0u64;
        let mut messages = 0u64;
        let mut platform_users = 0u64;
        for jg in self.joined.iter().filter(|j| j.platform == kind) {
            joined_groups += 1;
            messages += jg.messages.len() as u64;
            platform_users += match kind {
                // WhatsApp: the member list itself.
                PlatformKind::WhatsApp => jg.members.len() as u64,
                // API platforms: the group size reported by the monitor
                // at the last alive observation.
                _ => self
                    .interner
                    .get(&jg.key)
                    .map(|s| s.index())
                    .and_then(|slot| self.timelines.get(slot))
                    .and_then(|t| t.size_span())
                    .map(|(_, last)| u64::from(last))
                    .unwrap_or(0),
            };
        }
        PlatformSummary {
            tweets: 0,
            twitter_users: 0,
            group_urls,
            joined_groups,
            messages,
            platform_users,
        }
    }

    /// The Table 2 bottom row, combining the streamed tweet roll-up
    /// with the resident stores.
    pub(crate) fn totals_with(&self, rollup: &TweetRollup) -> PlatformSummary {
        let per: Vec<PlatformSummary> = PlatformKind::ALL
            .into_iter()
            .map(|k| self.store_summary(k))
            .collect();
        PlatformSummary {
            tweets: rollup.tweets_total,
            twitter_users: rollup.twitter_users,
            group_urls: self.groups.len() as u64,
            joined_groups: per.iter().map(|p| p.joined_groups).sum(),
            messages: per.iter().map(|p| p.messages).sum(),
            platform_users: per.iter().map(|p| p.platform_users).sum(),
        }
    }
}

/// Render the canonical campaign report from a streamed tweet roll-up
/// plus the resident stores. [`Dataset::campaign_report`] (batch) and
/// the budgeted streaming path both funnel through here, so the two
/// are byte-identical by construction.
pub(crate) fn render_campaign_report(rollup: &TweetRollup, inp: &ReportInputs<'_>) -> String {
    // Hash a canonical multi-line serialization written by `f`.
    fn digest(f: impl FnOnce(&mut DigestWriter)) -> String {
        let mut w = DigestWriter::new();
        f(&mut w);
        w.finish()
    }

    let mut out = String::new();
    writeln!(out, "chatlens campaign report v1").unwrap();
    writeln!(out, "window_days: {}", inp.window.num_days()).unwrap();
    let t = inp.totals_with(rollup);
    writeln!(
        out,
        "totals: tweets={} users={} group_urls={} joined={} messages={} members={}",
        t.tweets, t.twitter_users, t.group_urls, t.joined_groups, t.messages, t.platform_users
    )
    .unwrap();
    for kind in PlatformKind::ALL {
        let s = inp.store_summary(kind);
        let (tweets, users) = rollup.per_kind[kind.index()];
        writeln!(
            out,
            "platform {}: tweets={} users={} group_urls={} joined={} messages={} members={}",
            kind.name(),
            tweets,
            users,
            s.group_urls,
            s.joined_groups,
            s.messages,
            s.platform_users
        )
        .unwrap();
    }
    writeln!(
        out,
        "extraction: urls_seen={} invites={} rejected={}",
        inp.extraction.urls_seen, inp.extraction.invites, inp.extraction.rejected
    )
    .unwrap();
    writeln!(out, "failed_requests: {}", inp.failed_requests).unwrap();
    writeln!(
        out,
        "accounts: wa={} tg={} dc={}",
        inp.accounts_used[0], inp.accounts_used[1], inp.accounts_used[2]
    )
    .unwrap();
    writeln!(out, "bot_join_rejected: {}", inp.bot_join_rejected).unwrap();
    writeln!(out, "control_tweets: {}", rollup.control_total).unwrap();
    writeln!(out, "tweets_sha256: {}", rollup.tweets_sha).unwrap();

    // Discovered groups, in discovery order.
    let groups_sha = digest(|buf| {
        for rec in inp.groups {
            writeln!(
                buf,
                "{}|url={}|at={}|tweet_at={}",
                rec.invite.dedup_key(),
                rec.invite.url(),
                rec.discovered_at.as_secs(),
                rec.first_tweet_at.as_secs()
            )
            .unwrap();
        }
    });
    writeln!(out, "groups_sha256: {groups_sha}").unwrap();

    // Monitor timelines: every observation and all landing metadata,
    // walked in discovery order (the canonical group order).
    let mut obs = 0u64;
    let mut revoked = 0u64;
    let mut failed = 0u64;
    let timelines_sha = digest(|buf| {
        for (slot, rec) in inp.groups.iter().enumerate() {
            let Some(tl) = inp.timelines.get(slot) else {
                continue;
            };
            write!(buf, "{}", rec.invite.dedup_key()).unwrap();
            if let Some(v) = &tl.title {
                write!(buf, "|title={v}").unwrap();
            }
            if let Some(v) = &tl.tg_kind {
                write!(buf, "|kind={v}").unwrap();
            }
            if let Some(v) = tl.dc_created_day {
                write!(buf, "|created={v}").unwrap();
            }
            if let Some(v) = tl.dc_creator {
                write!(buf, "|creator={v}").unwrap();
            }
            if let Some(v) = &tl.wa_creator_cc {
                write!(buf, "|cc={v}").unwrap();
            }
            if let Some(v) = &tl.wa_creator_hash {
                write!(buf, "|creator_hash={v}").unwrap();
            }
            buf.push('\n');
            for o in tl.iter() {
                obs += 1;
                match o.status {
                    ObservedStatus::Alive { size, online } => {
                        writeln!(buf, "  {} alive {size} {online}", o.day).unwrap()
                    }
                    ObservedStatus::Revoked => {
                        revoked += 1;
                        writeln!(buf, "  {} revoked", o.day).unwrap()
                    }
                    ObservedStatus::Failed => {
                        failed += 1;
                        writeln!(buf, "  {} failed", o.day).unwrap()
                    }
                }
            }
        }
    });
    writeln!(
        out,
        "timelines: groups={} observations={obs} revoked={revoked} failed={failed}",
        inp.timelines.len()
    )
    .unwrap();
    writeln!(out, "timelines_sha256: {timelines_sha}").unwrap();

    // Gap ledger, walked in discovery order.
    let mut gap_groups = 0u64;
    let mut gap_days = 0u64;
    let gaps_sha = digest(|buf| {
        for (slot, rec) in inp.groups.iter().enumerate() {
            let Some(days) = inp.gaps.get(slot) else {
                continue;
            };
            let key = rec.invite.dedup_key();
            gap_groups += 1;
            gap_days += days.len() as u64;
            write!(buf, "{key}:").unwrap();
            for d in days {
                write!(buf, " {d}").unwrap();
            }
            buf.push('\n');
        }
    });
    writeln!(out, "gaps: groups={gap_groups} days={gap_days}").unwrap();
    writeln!(out, "gaps_sha256: {gaps_sha}").unwrap();

    // Joined groups: membership and full message logs, in join order.
    let joined_sha = digest(|buf| {
        for jg in inp.joined {
            writeln!(
                buf,
                "{}|{}|gid={}|at={}|created={:?}|list={}",
                jg.key,
                jg.platform.name(),
                jg.group_id.0,
                jg.joined_at.as_secs(),
                jg.created_day,
                jg.member_list_available
            )
            .unwrap();
            for m in &jg.members {
                writeln!(
                    buf,
                    "  m {:?} {:?} {:?} {:?}",
                    m.user_id, m.phone_hash, m.country, m.linked
                )
                .unwrap();
            }
            for msg in &jg.messages {
                // `  g <secs> <sender> <kind>\n` is at most 38 bytes.
                let line = buf.room(38);
                line.push_str("  g ");
                push_u64(line, msg.at.as_secs());
                line.push(' ');
                push_u64(line, u64::from(msg.sender.0));
                line.push(' ');
                push_u64(line, msg.kind.index() as u64);
                line.push('\n');
            }
        }
    });
    writeln!(out, "joined_sha256: {joined_sha}").unwrap();

    // Quarantine ledger, in ledger (component) order, plus per-code
    // counts in label order.
    let mut by_code: BTreeMap<&'static str, u64> = BTreeMap::new();
    let quarantine_sha = digest(|buf| {
        for e in inp.quarantine {
            *by_code.entry(e.code.label()).or_insert(0) += 1;
            writeln!(
                buf,
                "{}|{}|{}|day={}|{}|{}|{:?}",
                e.service,
                e.endpoint,
                e.group,
                e.day,
                e.code.label(),
                e.detail,
                e.body
            )
            .unwrap();
        }
    });
    writeln!(out, "quarantine: entries={}", inp.quarantine.len()).unwrap();
    for (label, n) in &by_code {
        writeln!(out, "quarantine[{label}]: {n}").unwrap();
    }
    writeln!(out, "quarantine_sha256: {quarantine_sha}").unwrap();

    // PII store: unordered sets rendered sorted (canonical form).
    let pii_sha = digest(|buf| {
        let mut wa_creators: Vec<&String> = inp.pii.wa_creator_hashes.iter().collect();
        wa_creators.sort();
        let mut wa_members: Vec<&String> = inp.pii.wa_member_hashes.iter().collect();
        wa_members.sort();
        let mut tg_users: Vec<&u32> = inp.pii.tg_users_observed.iter().collect();
        tg_users.sort();
        let mut tg_phones: Vec<&String> = inp.pii.tg_phone_hashes.iter().collect();
        tg_phones.sort();
        let mut dc_users: Vec<&u32> = inp.pii.dc_users_observed.iter().collect();
        dc_users.sort();
        let mut dc_linked: Vec<&u32> = inp.pii.dc_users_with_link.iter().collect();
        dc_linked.sort();
        writeln!(buf, "wa_creators {wa_creators:?}").unwrap();
        writeln!(buf, "wa_countries {:?}", inp.pii.wa_creator_countries).unwrap();
        writeln!(buf, "wa_members {wa_members:?}").unwrap();
        writeln!(buf, "tg_users {tg_users:?}").unwrap();
        writeln!(buf, "tg_phones {tg_phones:?}").unwrap();
        writeln!(buf, "dc_users {dc_users:?}").unwrap();
        writeln!(buf, "dc_linked {dc_linked:?}").unwrap();
        writeln!(buf, "dc_counts {:?}", inp.pii.dc_linked_counts).unwrap();
    });
    writeln!(out, "pii_sha256: {pii_sha}").unwrap();

    // Deterministic counters (wall-clock timings excluded by name).
    let counters_sha = digest(|buf| {
        for (name, v) in inp.metrics.counters() {
            if name.ends_with(".micros") {
                continue;
            }
            writeln!(buf, "{name}={v}").unwrap();
        }
    });
    writeln!(out, "counters_sha256: {counters_sha}").unwrap();
    out
}

/// Bytes a [`DigestWriter`] buffers before hashing them.
const DIGEST_CHUNK: usize = 64 * 1024;

/// Streams a canonical serialization into SHA-256 through one bounded
/// buffer: the joined-group digest covers every collected message (tens
/// of megabytes of lines), which never exist as one string.
struct DigestWriter {
    buf: String,
    hasher: Sha256,
}

impl DigestWriter {
    fn new() -> DigestWriter {
        DigestWriter {
            buf: String::with_capacity(DIGEST_CHUNK),
            hasher: Sha256::new(),
        }
    }

    /// The buffer, after hashing out what it holds if `bytes` more would
    /// not fit. Writing more than `bytes` only grows it.
    fn room(&mut self, bytes: usize) -> &mut String {
        if self.buf.len() + bytes > DIGEST_CHUNK {
            self.hasher.update(self.buf.as_bytes());
            self.buf.clear();
        }
        &mut self.buf
    }

    fn push(&mut self, c: char) {
        self.room(c.len_utf8()).push(c);
    }

    fn finish(mut self) -> String {
        self.hasher.update(self.buf.as_bytes());
        to_hex(&self.hasher.finalize())
    }
}

impl std::fmt::Write for DigestWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.room(s.len()).push_str(s);
        Ok(())
    }
}
