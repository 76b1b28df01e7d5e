//! The assembled campaign output — everything the analyses consume.

use crate::budget::{BudgetError, LogView, MemoryBudget, SpillPartitionData};
use crate::discovery::{CollectedTweet, Discovery, DiscoveryRecord};
use crate::fold::{DayMark, DayParts, DaySlice};
use crate::intern::Interner;
use crate::joiner::{JoinedGroup, MemberRecord};
use crate::monitor::{GapLedger, GroupTimeline, ObservedStatus, TimelineStore};
use crate::patterns::ExtractionStats;
use crate::pii::PiiStore;
use crate::quarantine::QuarantineEntry;
use chatlens_platforms::id::PlatformKind;
use chatlens_platforms::service::{extend_message_line, MESSAGE_LINE_MAX};
use chatlens_simnet::digits::extend_u64;
use chatlens_simnet::fastmap::FastSet;
use chatlens_simnet::hash::{to_hex, DigestWriter, Sha256};
use chatlens_simnet::time::StudyWindow;
use chatlens_twitter::Tweet;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;

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
    #[expect(clippy::too_many_arguments, reason = "one argument per component")]
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
            // Under a budget these are the tails after the spilled days.
            tweets: discovery.tweets.into_resident(),
            control: discovery.control.into_resident(),
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

    /// Joined groups of one platform.
    pub fn joined_of(&self, kind: PlatformKind) -> impl Iterator<Item = &JoinedGroup> {
        self.joined.iter().filter(move |j| j.platform == kind)
    }

    /// Slot (= interned sym index) of a group, by dedup key.
    pub fn slot_of_key(&self, key: &str) -> Option<usize> {
        self.interner.get(key).map(|s| s.index())
    }

    /// Monitor timeline of a discovered group.
    pub fn timeline_of(&self, rec: &DiscoveryRecord) -> Option<&GroupTimeline> {
        self.slot_of_key(&rec.invite.dedup_key())
            .and_then(|slot| self.timelines.get(slot))
    }

    /// The Table 2 roll-up for one platform.
    pub fn summary(&self, kind: PlatformKind) -> PlatformSummary {
        self.campaign_summary().platforms[kind.index()]
    }

    /// Totals across platforms plus the distinct-author union (Table 2's
    /// bottom row counts each tweet/author once).
    pub fn totals(&self) -> PlatformSummary {
        self.campaign_summary().totals
    }

    /// The campaign summary, counted over the resident tweet log.
    pub(crate) fn campaign_summary(&self) -> CampaignSummary {
        let mut counts = TweetCounts::default();
        self.tweets.iter().for_each(|ct| counts.add(ct));
        self.summary_with(&counts)
    }

    /// The campaign summary: the tweet columns from `counts`, everything
    /// else from the stores.
    fn summary_with(&self, counts: &TweetCounts) -> CampaignSummary {
        let mut platforms = [PlatformSummary::default(); 3];
        for kind in PlatformKind::ALL {
            let s = &mut platforms[kind.index()];
            s.tweets = counts.kind_tweets[kind.index()];
            s.twitter_users = counts.kind_authors[kind.index()].len() as u64;
            s.group_urls = self.groups.iter().filter(|g| g.platform == kind).count() as u64;
            for jg in self.joined_of(kind) {
                s.joined_groups += 1;
                s.messages += jg.messages.len() as u64;
                s.platform_users += match kind {
                    // WhatsApp: the member list itself.
                    PlatformKind::WhatsApp => jg.members.len() as u64,
                    // API platforms: the group size reported by the monitor
                    // at the last alive observation (the paper reads totals
                    // off group metadata, not member lists).
                    _ => self
                        .slot_of_key(&jg.key)
                        .and_then(|slot| self.timelines.get(slot))
                        .and_then(|t| t.size_span())
                        .map(|(_, last)| u64::from(last))
                        .unwrap_or(0),
                };
            }
        }
        let totals = PlatformSummary {
            tweets: counts.tweets,
            twitter_users: counts.authors.len() as u64,
            group_urls: self.groups.len() as u64,
            joined_groups: platforms.iter().map(|p| p.joined_groups).sum(),
            messages: platforms.iter().map(|p| p.messages).sum(),
            platform_users: platforms.iter().map(|p| p.platform_users).sum(),
        };
        CampaignSummary {
            platforms,
            totals,
            extraction: self.extraction,
            failed_requests: self.failed_requests,
            accounts_used: self.accounts_used,
            bot_join_rejected: self.bot_join_rejected,
            gap_groups: self.gaps.group_count() as u64,
            gap_days: self.gaps.total_days(),
            quarantined: self.quarantine.len() as u64,
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
        self.report_pass(None)
            .expect("a resident log reads nothing from disk")
            .0
    }

    /// The campaign report and summary from one pass over the logs: the
    /// day partitions `spill` holds (a budgeted run's, whose `tweets` and
    /// `control` are then only the resident tails), then this dataset's
    /// vectors.
    pub(crate) fn report_pass(
        &self,
        mut spill: Option<&mut MemoryBudget>,
    ) -> Result<(String, CampaignSummary), BudgetError> {
        let mut rb = TweetRollupBuilder::new();
        log_pass(
            spill.as_deref_mut(),
            |p| p.tweets.as_slice(),
            &self.tweets,
            |chunk| chunk.iter().for_each(|ct| rb.add_tweet(ct)),
        )?;
        log_pass(
            spill,
            |p| p.control.as_slice(),
            &self.control,
            |chunk| chunk.iter().for_each(|tw| rb.add_control(tw)),
        )?;
        let rollup = rb.finish();
        let summary = self.summary_with(&rollup.counts);
        Ok((render_campaign_report(&rollup, &summary, self), summary))
    }
}

/// The one ordered pass over a finished campaign's log: `f` sees the
/// `part` of each day partition `spill` holds, oldest day first and one
/// partition in memory at a time, then `tail`, the resident rest — the
/// whole log when nothing was spilled.
pub(crate) fn log_pass<T>(
    spill: Option<&mut MemoryBudget>,
    part: fn(&SpillPartitionData) -> &[T],
    tail: &[T],
    mut f: impl FnMut(&[T]),
) -> Result<(), BudgetError> {
    if let Some(spill) = spill {
        for i in 0..spill.manifest().len() {
            let day = spill.manifest()[i].day;
            f(part(&spill.read_partition(day)?));
        }
    }
    f(tail);
    Ok(())
}

/// Everything Table 2, `extras` and `repro run` print about a finished
/// campaign: the per-platform rows and totals plus the campaign-level
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Table 2's rows, indexed by [`PlatformKind::index`].
    pub platforms: [PlatformSummary; 3],
    /// Table 2's bottom row.
    pub totals: PlatformSummary,
    /// URL-extraction totals.
    pub extraction: ExtractionStats,
    /// Transport requests that failed after retries.
    pub failed_requests: u64,
    /// Accounts opened per platform.
    pub accounts_used: [u16; 3],
    /// Whether the Discord bot-join probe was refused.
    pub bot_join_rejected: bool,
    /// Groups with at least one censored day in the gap ledger.
    pub gap_groups: u64,
    /// Censored group-days in the gap ledger.
    pub gap_days: u64,
    /// Wire bodies in the quarantine ledger.
    pub quarantined: u64,
}

/// Table 2's tweet columns, counted one collected tweet at a time.
#[derive(Default)]
struct TweetCounts {
    tweets: u64,
    authors: FastSet<u32>,
    kind_tweets: [u64; 3],
    kind_authors: [FastSet<u32>; 3],
}

impl TweetCounts {
    /// Count one tweet: toward the totals, and toward every platform it
    /// carries a URL of.
    fn add(&mut self, ct: &CollectedTweet) {
        self.tweets += 1;
        self.authors.insert(ct.tweet.author.0);
        for (i, hit) in ct.platforms().into_iter().enumerate() {
            if hit {
                self.kind_tweets[i] += 1;
                self.kind_authors[i].insert(ct.tweet.author.0);
            }
        }
    }
}

/// The per-tweet half of the report, accumulated in one streaming pass:
/// the Table 2 tweet columns, the control count and the tweets digest.
struct TweetRollup {
    counts: TweetCounts,
    control_total: u64,
    /// The frozen tweets digest (tweet lines then control lines).
    tweets_sha: String,
}

/// Streaming builder for [`TweetRollup`]: one partition's worth of
/// tweets in memory at a time, constant-size accumulator state.
struct TweetRollupBuilder {
    hasher: Sha256,
    line: Vec<u8>,
    counts: TweetCounts,
    control_total: u64,
    control_phase: bool,
}

impl TweetRollupBuilder {
    fn new() -> TweetRollupBuilder {
        TweetRollupBuilder {
            hasher: Sha256::new(),
            line: Vec::new(),
            counts: TweetCounts::default(),
            control_total: 0,
            control_phase: false,
        }
    }

    /// Add one collected tweet. All collected tweets arrive in global
    /// append order, before the first control tweet — the frozen digest
    /// layout.
    fn add_tweet(&mut self, ct: &CollectedTweet) {
        assert!(!self.control_phase, "tweets must precede control tweets");
        self.counts.add(ct);
        self.line.clear();
        ct.tweet.encode_into(&mut self.line);
        writeln!(
            self.line,
            "|seen={}|search={}|stream={}|control={}",
            ct.seen_at.as_secs(),
            ct.via_search,
            ct.via_stream,
            ct.tweet.is_control
        )
        .unwrap();
        self.hasher.update(&self.line);
    }

    /// Add one control tweet (global append order, after every
    /// collected tweet).
    fn add_control(&mut self, tw: &Tweet) {
        self.control_phase = true;
        self.control_total += 1;
        self.line.clear();
        self.line.extend_from_slice(b"ctl ");
        tw.encode_into(&mut self.line);
        writeln!(self.line, "|control={}", tw.is_control).unwrap();
        self.hasher.update(&self.line);
    }

    fn finish(self) -> TweetRollup {
        TweetRollup {
            counts: self.counts,
            control_total: self.control_total,
            tweets_sha: to_hex(&self.hasher.finalize()),
        }
    }
}

/// Render the canonical campaign report from a streamed tweet roll-up,
/// its summary and the resident stores of `ds`.
fn render_campaign_report(rollup: &TweetRollup, sum: &CampaignSummary, ds: &Dataset) -> String {
    // Hash a canonical multi-line serialization written by `f`.
    fn digest(f: impl FnOnce(&mut DigestWriter)) -> String {
        let mut w = DigestWriter::new();
        f(&mut w);
        w.finish()
    }

    let mut out = String::new();
    writeln!(out, "chatlens campaign report v1").unwrap();
    writeln!(out, "window_days: {}", ds.window.num_days()).unwrap();
    let t = sum.totals;
    writeln!(
        out,
        "totals: tweets={} users={} group_urls={} joined={} messages={} members={}",
        t.tweets, t.twitter_users, t.group_urls, t.joined_groups, t.messages, t.platform_users
    )
    .unwrap();
    for kind in PlatformKind::ALL {
        let s = sum.platforms[kind.index()];
        writeln!(
            out,
            "platform {}: tweets={} users={} group_urls={} joined={} messages={} members={}",
            kind.name(),
            s.tweets,
            s.twitter_users,
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
        sum.extraction.urls_seen, sum.extraction.invites, sum.extraction.rejected
    )
    .unwrap();
    writeln!(out, "failed_requests: {}", sum.failed_requests).unwrap();
    writeln!(
        out,
        "accounts: wa={} tg={} dc={}",
        sum.accounts_used[0], sum.accounts_used[1], sum.accounts_used[2]
    )
    .unwrap();
    writeln!(out, "bot_join_rejected: {}", sum.bot_join_rejected).unwrap();
    writeln!(out, "control_tweets: {}", rollup.control_total).unwrap();
    writeln!(out, "tweets_sha256: {}", rollup.tweets_sha).unwrap();

    // Discovered groups, in discovery order.
    let groups_sha = digest(|buf| {
        for rec in &ds.groups {
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
        for (slot, rec) in ds.groups.iter().enumerate() {
            let Some(tl) = ds.timelines.get(slot) else {
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
            buf.push(b'\n');
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
        ds.timelines.len()
    )
    .unwrap();
    writeln!(out, "timelines_sha256: {timelines_sha}").unwrap();

    // Gap ledger, walked in discovery order.
    let mut gap_groups = 0u64;
    let mut gap_days = 0u64;
    let gaps_sha = digest(|buf| {
        for (slot, rec) in ds.groups.iter().enumerate() {
            let Some(days) = ds.gaps.get(slot) else {
                continue;
            };
            let key = rec.invite.dedup_key();
            gap_groups += 1;
            gap_days += days.len() as u64;
            write!(buf, "{key}:").unwrap();
            for d in days {
                write!(buf, " {d}").unwrap();
            }
            buf.push(b'\n');
        }
    });
    writeln!(out, "gaps: groups={gap_groups} days={gap_days}").unwrap();
    writeln!(out, "gaps_sha256: {gaps_sha}").unwrap();

    // Joined groups: membership and full message logs, in join order.
    let joined_sha = digest(|buf| {
        for jg in &ds.joined {
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
                write_member_line(buf, m);
            }
            for msg in &jg.messages {
                extend_message_line(buf.room(MESSAGE_LINE_MAX), b"  g ", msg, b"\n");
            }
        }
    });
    writeln!(out, "joined_sha256: {joined_sha}").unwrap();

    // Quarantine ledger, in ledger (component) order, plus per-code
    // counts in label order.
    let mut by_code: BTreeMap<&'static str, u64> = BTreeMap::new();
    let quarantine_sha = digest(|buf| {
        for e in &ds.quarantine {
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
    writeln!(out, "quarantine: entries={}", ds.quarantine.len()).unwrap();
    for (label, n) in &by_code {
        writeln!(out, "quarantine[{label}]: {n}").unwrap();
    }
    writeln!(out, "quarantine_sha256: {quarantine_sha}").unwrap();

    // PII store: unordered sets rendered sorted (canonical form).
    let pii_sha = digest(|buf| {
        let mut wa_creators: Vec<&String> = ds.pii.wa_creator_hashes.iter().collect();
        wa_creators.sort();
        let mut wa_members: Vec<&String> = ds.pii.wa_member_hashes.iter().collect();
        wa_members.sort();
        let mut tg_users: Vec<&u32> = ds.pii.tg_users_observed.iter().collect();
        tg_users.sort();
        let mut tg_phones: Vec<&String> = ds.pii.tg_phone_hashes.iter().collect();
        tg_phones.sort();
        let mut dc_users: Vec<&u32> = ds.pii.dc_users_observed.iter().collect();
        dc_users.sort();
        let mut dc_linked: Vec<&u32> = ds.pii.dc_users_with_link.iter().collect();
        dc_linked.sort();
        writeln!(buf, "wa_creators {wa_creators:?}").unwrap();
        writeln!(buf, "wa_countries {:?}", ds.pii.wa_creator_countries).unwrap();
        writeln!(buf, "wa_members {wa_members:?}").unwrap();
        writeln!(buf, "tg_users {tg_users:?}").unwrap();
        writeln!(buf, "tg_phones {tg_phones:?}").unwrap();
        writeln!(buf, "dc_users {dc_users:?}").unwrap();
        writeln!(buf, "dc_linked {dc_linked:?}").unwrap();
        writeln!(buf, "dc_counts {:?}", ds.pii.dc_linked_counts).unwrap();
    });
    writeln!(out, "pii_sha256: {pii_sha}").unwrap();

    // Deterministic counters (wall-clock timings excluded by name).
    let counters_sha = digest(|buf| {
        for (name, v) in ds.metrics.counters() {
            if name.ends_with(".micros") {
                continue;
            }
            writeln!(buf, "{name}={v}").unwrap();
        }
    });
    writeln!(out, "counters_sha256: {counters_sha}").unwrap();
    out
}

/// Write member `m`'s line of the joined digest: the bytes of
/// `writeln!("  m {:?} {:?} {:?} {:?}", user_id, phone_hash, country,
/// linked)`. When every string in the line prints verbatim under `Debug`,
/// the line is written straight as bytes; any other line goes through
/// `Debug` itself.
fn write_member_line(buf: &mut DigestWriter, m: &MemberRecord) {
    match plain_member_line_max(m) {
        Some(max) => extend_member_line(buf.room(max), m),
        None => writeln!(
            buf,
            "  m {:?} {:?} {:?} {:?}",
            m.user_id, m.phone_hash, m.country, m.linked
        )
        .unwrap(),
    }
}

/// Whether `Debug` prints `s` verbatim between its quotes: printable
/// ASCII other than `"` and `\`.
fn debug_is_verbatim(s: &str) -> bool {
    s.bytes()
        .all(|b| matches!(b, b' '..=b'~') && b != b'"' && b != b'\\')
}

/// An upper bound on the length of member `m`'s digest line, if every
/// string in it prints verbatim under `Debug`.
fn plain_member_line_max(m: &MemberRecord) -> Option<usize> {
    // `  m Some(<10 digits>) Some("") Some("") []\n` is 42 bytes; each
    // linked account adds at most its quotes and a `, ` separator.
    let mut max = 42 + 4 * m.linked.len();
    for s in m.phone_hash.iter().chain(&m.country).chain(&m.linked) {
        if !debug_is_verbatim(s) {
            return None;
        }
        max += s.len();
    }
    Some(max)
}

/// Append member `m`'s digest line as `Debug` prints it; every string in
/// it must pass [`debug_is_verbatim`].
fn extend_member_line(out: &mut Vec<u8>, m: &MemberRecord) {
    out.extend_from_slice(b"  m ");
    match m.user_id {
        Some(id) => {
            out.extend_from_slice(b"Some(");
            extend_u64(out, u64::from(id));
            out.push(b')');
        }
        None => out.extend_from_slice(b"None"),
    }
    for field in [&m.phone_hash, &m.country] {
        match field {
            Some(s) => {
                out.extend_from_slice(b" Some(\"");
                out.extend_from_slice(s.as_bytes());
                out.extend_from_slice(b"\")");
            }
            None => out.extend_from_slice(b" None"),
        }
    }
    out.extend_from_slice(b" [");
    for (i, s) in m.linked.iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        out.push(b'"');
        out.extend_from_slice(s.as_bytes());
        out.push(b'"');
    }
    out.extend_from_slice(b"]\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatlens_simnet::hash::sha256_hex;

    fn debug_line(m: &MemberRecord) -> String {
        format!(
            "  m {:?} {:?} {:?} {:?}\n",
            m.user_id, m.phone_hash, m.country, m.linked
        )
    }

    /// Characters `Debug` escapes inside a string, or that are not ASCII.
    const NOT_VERBATIM: [char; 10] = [
        '"', '\\', '\t', '\n', '\u{1}', '\u{7f}', '\u{e9}', '\u{301}', '\u{200b}', '\u{4e2d}',
    ];

    /// A plain string, or (when `spoil` picks one) the same string with
    /// one character from [`NOT_VERBATIM`] inserted.
    fn string_of((plain, spoil): (String, (u8, usize))) -> String {
        let mut s = plain;
        if let Some(&c) = NOT_VERBATIM.get(usize::from(spoil.0)) {
            let at = (0..=s.len())
                .filter(|&i| s.is_char_boundary(i))
                .nth(spoil.1 % (s.len() + 1));
            s.insert(at.unwrap_or(0), c);
        }
        s
    }

    #[test]
    fn member_lines_edge_cases() {
        let cases = [
            (None, None, None, vec![]),
            (Some(0), Some(""), Some("BR"), vec![""]),
            (Some(u32::MAX), Some("ab\"c"), None, vec!["x", "y"]),
            (None, None, Some("a\\b"), vec!["steam", "twitch", "it's"]),
            (Some(7), Some("\u{e9}t\u{e9}"), Some("\u{7f}"), vec!["\n"]),
        ];
        for (user_id, phone, country, linked) in cases {
            let m = MemberRecord {
                user_id,
                phone_hash: phone.map(str::to_string),
                country: country.map(str::to_string),
                linked: linked.into_iter().map(str::to_string).collect(),
            };
            let mut w = DigestWriter::new();
            write_member_line(&mut w, &m);
            assert_eq!(w.finish(), sha256_hex(debug_line(&m).as_bytes()), "{m:?}");
        }
    }

    proptest::proptest! {
        #[test]
        fn member_lines_are_what_debug_prints(
            user_id in proptest::option::of(proptest::any::<u32>()),
            phone in proptest::option::of(("[0-9a-f]{0,64}", (0u8..20, 0usize..64))),
            country in proptest::option::of(("[A-Z +'-]{0,4}", (0u8..20, 0usize..8))),
            linked in proptest::collection::vec(("[a-z0-9 !#$%&'()*+,./:;<=>?@^_`{|}~-]{0,10}", (0u8..20, 0usize..12)), 0..4)
        ) {
            let m = MemberRecord {
                user_id,
                phone_hash: phone.map(string_of),
                country: country.map(string_of),
                linked: linked.into_iter().map(string_of).collect(),
            };
            let want = debug_line(&m);
            let strings = || m.phone_hash.iter().chain(&m.country).chain(&m.linked);
            let verbatim = strings().all(|s| !s.contains(NOT_VERBATIM));
            // The byte path is taken exactly when every string prints
            // verbatim, and then writes Debug's bytes within its bound.
            match plain_member_line_max(&m) {
                Some(max) => {
                    proptest::prop_assert!(verbatim);
                    let mut bytes = Vec::new();
                    extend_member_line(&mut bytes, &m);
                    proptest::prop_assert_eq!(&bytes[..], want.as_bytes());
                    proptest::prop_assert!(bytes.len() <= max);
                }
                None => proptest::prop_assert!(!verbatim),
            }
            // Either way, the digest hashes Debug's bytes.
            let mut w = DigestWriter::new();
            write_member_line(&mut w, &m);
            proptest::prop_assert_eq!(w.finish(), sha256_hex(want.as_bytes()));
        }
    }
}
