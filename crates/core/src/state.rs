//! Checkpointable campaign state: the [`CampaignState`] snapshot payload
//! and the snapshot codecs of the live pipeline components it holds.
//!
//! A snapshot captures exactly what the campaign *mutates*; everything
//! derivable from `(seed, config)` — the world population, the tweet
//! store, lookup indexes — is rebuilt on resume instead of being stored.
//! The split per component:
//!
//! | component | stored | rebuilt |
//! |-----------|--------|---------|
//! | engine    | clock, event count, pending events | — |
//! | transport | 4 × bucket fill / RNG positions / breakers / traffic counters | client configs |
//! | discovery | resident tweets and control, spilled-prefix lengths, groups, symbol table, cursors, stats, backfill queues, quarantine | tweet index, control ids, interner |
//! | monitor   | populated timeline slots, terminal slots, gap ledger, quarantine | day scratch |
//! | joiner    | joined groups, account counters, quarantine | — |
//! | pii       | hash and id sets (sorted), counts | — |
//! | ecosystem | [`EcosystemDelta`] | the whole world |
//!
//! The decode parse pool is not state: the campaign builds it from
//! [`CampaignConfig::threads`]. Unordered sets are written in sorted
//! order, so the same logical state always encodes to the same bytes —
//! snapshot files of equal states are byte-equal, which the determinism
//! suite exploits directly. Each hand-written `save` destructures its
//! component exhaustively and names the derived fields `field: _` (the
//! joiner has none and uses `persist_struct!`, whose `load` is just as
//! exhaustive), so a new field does not compile until it is either saved
//! or declared derived.

use crate::budget::{BudgetState, SpillableLog};
use crate::discovery::{CollectedTweet, Discovery, DiscoveryRecord};
use crate::fold::{DayMark, FoldLedger};
use crate::intern::Interner;
use crate::joiner::{JoinStrategy, JoinedGroup, Joiner, MemberRecord};
use crate::monitor::{
    DayScratch, GapLedger, GroupTimeline, Monitor, ObservedStatus, TimelineStore,
};
use crate::patterns::ExtractionStats;
use crate::pii::PiiStore;
use crate::quarantine::{QuarantineCode, QuarantineEntry};
use crate::study::{CampaignConfig, CampaignEvent};
use chatlens_checkpoint::{persist_struct, CheckpointError, Persist, Reader, Writer};
use chatlens_simnet::metrics::Metrics;
use chatlens_simnet::time::SimTime;
use chatlens_simnet::transport::ClientState;
use chatlens_simnet::Engine;
use chatlens_twitter::Tweet;
use chatlens_workload::ecosystem::EcosystemDelta;
use chatlens_workload::{Ecosystem, ScenarioConfig};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hash::Hash;

/// The virtual clock and pending event queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineState {
    /// Clock position (the day-boundary instant at a scheduled save).
    pub now: SimTime,
    /// Lifetime count of processed events.
    pub processed: u64,
    /// Pending events in delivery order, as exported by
    /// [`Engine::pending_events`].
    pub pending: Vec<(SimTime, CampaignEvent)>,
}

impl EngineState {
    /// Capture an engine's restorable state.
    pub fn capture(engine: &Engine<CampaignEvent>) -> EngineState {
        EngineState {
            now: engine.now(),
            processed: engine.processed(),
            pending: engine.pending_events(),
        }
    }

    /// Rebuild the engine. Pending events are re-scheduled in order, so
    /// fresh sequence numbers reproduce the original pop order.
    pub fn restore(&self) -> Engine<CampaignEvent> {
        Engine::restore(self.now, self.processed, self.pending.clone())
    }
}

// A custom impl rather than `persist_struct!`: the pending queue must be
// validated against `now` on load, because `Engine::restore` treats a
// past-dated event as a logic bug and panics — a malformed snapshot has
// to fail before reaching it.
impl Persist for EngineState {
    fn save(&self, w: &mut Writer) {
        self.now.save(w);
        self.processed.save(w);
        self.pending.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let now = SimTime::load(r)?;
        let processed = u64::load(r)?;
        let pending = Vec::<(SimTime, CampaignEvent)>::load(r)?;
        if pending.iter().any(|&(at, _)| at < now) {
            return Err(CheckpointError::Malformed(
                "pending event scheduled before the snapshot clock".into(),
            ));
        }
        if pending.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err(CheckpointError::Malformed(
                "pending events out of delivery order".into(),
            ));
        }
        Ok(EngineState {
            now,
            processed,
            pending,
        })
    }
}

/// Encode `items` exactly as a `Vec` of them encodes: a varint count,
/// then each item.
fn save_seq<'a, T: Persist + 'a>(items: impl ExactSizeIterator<Item = &'a T>, w: &mut Writer) {
    w.put_varint(items.len() as u64);
    for item in items {
        item.save(w);
    }
}

/// Encode a hash set as its sorted `Vec` (via `BTreeSet`, lint D2), so
/// equal sets always encode to equal bytes.
fn save_sorted<T: Persist + Ord>(set: &HashSet<T>, w: &mut Writer) {
    save_seq(set.iter().collect::<BTreeSet<&T>>().into_iter(), w);
}

/// Decode a set written by [`save_sorted`].
fn load_set<T: Persist + Eq + Hash>(r: &mut Reader<'_>) -> Result<HashSet<T>, CheckpointError> {
    Ok(Vec::<T>::load(r)?.into_iter().collect())
}

// A custom impl: only the resident tails of the spillable logs are
// written (their spilled-prefix lengths go last), the lookup indexes are
// rebuilt on load, and group slots double as interned symbol ids
// everywhere downstream (timelines, gap ledger). A snapshot whose symbol
// table disagrees with its group list would silently attach observations
// to the wrong groups, so load validates the correspondence before any
// component is rebuilt on top of it. The ids of spilled items are
// re-registered afterwards by [`Discovery::index_spilled`].
impl Persist for Discovery {
    fn save(&self, w: &mut Writer) {
        let Discovery {
            since_id,
            tweet_index: _,
            tweets,
            control,
            control_ids: _,
            interner,
            groups,
            stats,
            last_stream_drain,
            last_sample_drain,
            failed_requests,
            pending_stream,
            pending_sample,
            quarantine,
        } = self;
        since_id.save(w);
        save_seq(tweets.resident().iter(), w);
        save_seq(control.resident().iter(), w);
        groups.save(w);
        stats.save(w);
        last_stream_drain.save(w);
        last_sample_drain.save(w);
        failed_requests.save(w);
        pending_stream.save(w);
        pending_sample.save(w);
        quarantine.save(w);
        save_seq(interner.symbols().iter(), w);
        tweets.base().save(w);
        control.base().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let since_id = <[Option<u64>; 6]>::load(r)?;
        let tweets = Vec::<CollectedTweet>::load(r)?;
        let control = Vec::<Tweet>::load(r)?;
        let groups = Vec::<DiscoveryRecord>::load(r)?;
        let stats = ExtractionStats::load(r)?;
        let last_stream_drain = SimTime::load(r)?;
        let last_sample_drain = SimTime::load(r)?;
        let failed_requests = u64::load(r)?;
        let pending_stream = Vec::<(SimTime, SimTime)>::load(r)?;
        let pending_sample = Vec::<(SimTime, SimTime)>::load(r)?;
        let quarantine = Vec::<QuarantineEntry>::load(r)?;
        let symbols = Vec::<String>::load(r)?;
        let tweets = SpillableLog::from_parts(usize::load(r)?, tweets);
        let control = SpillableLog::from_parts(usize::load(r)?, control);
        if symbols.len() != groups.len() {
            return Err(CheckpointError::Malformed(format!(
                "symbol table has {} entries for {} groups",
                symbols.len(),
                groups.len()
            )));
        }
        let mut interner = Interner::new();
        for (i, (sym, g)) in symbols.iter().zip(&groups).enumerate() {
            let key = g.invite.dedup_key();
            if *sym != key {
                return Err(CheckpointError::Malformed(format!(
                    "symbol {i} is {sym:?} but group {i} has key {key:?}"
                )));
            }
            if interner.intern(&key).index() != i {
                return Err(CheckpointError::Malformed(format!(
                    "group {i} repeats key {key:?}"
                )));
            }
        }
        let base = tweets.base();
        let tweet_index = tweets
            .iter()
            .enumerate()
            .map(|(i, t)| (t.tweet.id.0, base + i))
            .collect();
        let control_ids = control.iter().map(|t| t.id.0).collect();
        Ok(Discovery {
            since_id,
            tweet_index,
            tweets,
            control,
            control_ids,
            interner,
            groups,
            stats,
            last_stream_drain,
            last_sample_drain,
            failed_requests,
            pending_stream,
            pending_sample,
            quarantine,
        })
    }
}

// Not a `Persist` impl: keys are group slots (discovery-order indexes,
// equal to the interned symbol ids of the discovery snapshot), not
// dedup-key strings, so a monitor only decodes against the group count of
// the discovery decoded before it (see `CampaignState`'s impl). Only
// populated slots are written, ascending, so padding slots never affect
// the encoding.
impl Monitor {
    fn save(&self, w: &mut Writer) {
        let Monitor {
            timelines,
            terminal,
            gaps,
            quarantine,
            scratch: _,
        } = self;
        w.put_varint(timelines.len() as u64);
        for (slot, tl) in timelines.iter() {
            (slot as u32).save(w);
            tl.save(w);
        }
        let terminal: Vec<u32> = terminal
            .iter()
            .enumerate()
            .filter(|&(_, &done)| done)
            .map(|(slot, _)| slot as u32)
            .collect();
        terminal.save(w);
        w.put_varint(gaps.group_count() as u64);
        for (slot, days) in gaps.iter() {
            (slot as u32).save(w);
            save_seq(days.iter(), w);
        }
        quarantine.save(w);
    }

    /// Decode a monitor whose slots index `groups` discovered groups. Every
    /// slot list must ascend strictly below `groups`, and every group's gap
    /// days must ascend strictly, before any table is sized from them.
    fn load(r: &mut Reader<'_>, groups: usize) -> Result<Monitor, CheckpointError> {
        let timelines = Vec::<(u32, GroupTimeline)>::load(r)?;
        let terminal = Vec::<u32>::load(r)?;
        let gaps = Vec::<(u32, Vec<u32>)>::load(r)?;
        let quarantine = Vec::<QuarantineEntry>::load(r)?;
        check_slots("timeline", timelines.iter().map(|&(slot, _)| slot), groups)?;
        check_slots("terminal", terminal.iter().copied(), groups)?;
        check_slots("gap", gaps.iter().map(|&(slot, _)| slot), groups)?;
        if let Some((slot, _)) = gaps
            .iter()
            .find(|(_, days)| days.windows(2).any(|w| w[0] >= w[1]))
        {
            return Err(CheckpointError::Malformed(format!(
                "gap days of slot {slot} not strictly ascending"
            )));
        }
        let mut monitor = Monitor {
            timelines: TimelineStore::new(),
            terminal: Vec::new(),
            gaps: GapLedger::new(),
            quarantine,
            scratch: DayScratch::default(),
        };
        for (slot, tl) in timelines {
            *monitor.timelines.ensure(slot as usize) = tl;
        }
        for slot in terminal {
            monitor.mark_terminal(slot as usize);
        }
        for (slot, days) in gaps {
            for day in days {
                monitor.gaps.push(slot as usize, day);
            }
        }
        Ok(monitor)
    }
}

/// Require a `what` slot list to ascend strictly and to index one of
/// `groups` groups.
fn check_slots(
    what: &str,
    mut slots: impl Iterator<Item = u32>,
    groups: usize,
) -> Result<(), CheckpointError> {
    let mut next = 0usize;
    slots.try_for_each(|slot| {
        let slot = slot as usize;
        if slot >= groups {
            return Err(CheckpointError::Malformed(format!(
                "{what} slot {slot} with only {groups} groups discovered"
            )));
        }
        if slot < next {
            return Err(CheckpointError::Malformed(format!(
                "{what} slots not strictly ascending at slot {slot}"
            )));
        }
        next = slot + 1;
        Ok(())
    })
}

persist_struct!(Joiner {
    joined,
    accounts_used,
    dead_at_join,
    bot_join_rejected,
    failed_fetches,
    quarantine
});

// A custom impl: every unordered set is written sorted, so equal stores
// encode to equal bytes.
impl Persist for PiiStore {
    fn save(&self, w: &mut Writer) {
        let PiiStore {
            wa_creator_hashes,
            wa_creator_countries,
            wa_member_hashes,
            tg_users_observed,
            tg_phone_hashes,
            dc_users_observed,
            dc_users_with_link,
            dc_linked_counts,
        } = self;
        save_sorted(wa_creator_hashes, w);
        wa_creator_countries.save(w);
        save_sorted(wa_member_hashes, w);
        save_sorted(tg_users_observed, w);
        save_sorted(tg_phone_hashes, w);
        save_sorted(dc_users_observed, w);
        save_sorted(dc_users_with_link, w);
        dc_linked_counts.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(PiiStore {
            wa_creator_hashes: load_set(r)?,
            wa_creator_countries: BTreeMap::load(r)?,
            wa_member_hashes: load_set(r)?,
            tg_users_observed: load_set(r)?,
            tg_phone_hashes: load_set(r)?,
            dc_users_observed: load_set(r)?,
            dc_users_with_link: load_set(r)?,
            dc_linked_counts: BTreeMap::load(r)?,
        })
    }
}

// Core enums and records referenced by the components above.

impl Persist for CampaignEvent {
    fn save(&self, w: &mut Writer) {
        match self {
            CampaignEvent::Search => w.put_u8(0),
            CampaignEvent::StreamDrain => w.put_u8(1),
            CampaignEvent::SampleDrain => w.put_u8(2),
            CampaignEvent::Monitor { day } => {
                w.put_u8(3);
                day.save(w);
            }
            CampaignEvent::Join => w.put_u8(4),
            CampaignEvent::Collect => w.put_u8(5),
            CampaignEvent::Backfill { day } => {
                w.put_u8(6);
                day.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.get_u8()? {
            0 => Ok(CampaignEvent::Search),
            1 => Ok(CampaignEvent::StreamDrain),
            2 => Ok(CampaignEvent::SampleDrain),
            3 => Ok(CampaignEvent::Monitor { day: u32::load(r)? }),
            4 => Ok(CampaignEvent::Join),
            5 => Ok(CampaignEvent::Collect),
            6 => Ok(CampaignEvent::Backfill { day: u32::load(r)? }),
            n => Err(CheckpointError::Malformed(format!("CampaignEvent tag {n}"))),
        }
    }
}

impl Persist for JoinStrategy {
    fn save(&self, w: &mut Writer) {
        match self {
            JoinStrategy::Uniform => w.put_u8(0),
            JoinStrategy::SizeBiased => w.put_u8(1),
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.get_u8()? {
            0 => Ok(JoinStrategy::Uniform),
            1 => Ok(JoinStrategy::SizeBiased),
            n => Err(CheckpointError::Malformed(format!("JoinStrategy tag {n}"))),
        }
    }
}

impl Persist for ObservedStatus {
    fn save(&self, w: &mut Writer) {
        match self {
            ObservedStatus::Alive { size, online } => {
                w.put_u8(0);
                size.save(w);
                online.save(w);
            }
            ObservedStatus::Revoked => w.put_u8(1),
            ObservedStatus::Failed => w.put_u8(2),
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.get_u8()? {
            0 => Ok(ObservedStatus::Alive {
                size: u32::load(r)?,
                online: u32::load(r)?,
            }),
            1 => Ok(ObservedStatus::Revoked),
            2 => Ok(ObservedStatus::Failed),
            n => Err(CheckpointError::Malformed(format!(
                "ObservedStatus tag {n}"
            ))),
        }
    }
}

impl Persist for QuarantineCode {
    fn save(&self, w: &mut Writer) {
        w.put_u8(match self {
            QuarantineCode::WrongKind => 0,
            QuarantineCode::MalformedLine => 1,
            QuarantineCode::MissingField => 2,
            QuarantineCode::BadNumber => 3,
            QuarantineCode::TooLarge => 4,
            QuarantineCode::DuplicateField => 5,
            QuarantineCode::CountMismatch => 6,
            QuarantineCode::SpliceMismatch => 7,
            QuarantineCode::BadPayload => 8,
        });
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.get_u8()? {
            0 => Ok(QuarantineCode::WrongKind),
            1 => Ok(QuarantineCode::MalformedLine),
            2 => Ok(QuarantineCode::MissingField),
            3 => Ok(QuarantineCode::BadNumber),
            4 => Ok(QuarantineCode::TooLarge),
            5 => Ok(QuarantineCode::DuplicateField),
            6 => Ok(QuarantineCode::CountMismatch),
            7 => Ok(QuarantineCode::SpliceMismatch),
            8 => Ok(QuarantineCode::BadPayload),
            n => Err(CheckpointError::Malformed(format!(
                "QuarantineCode tag {n}"
            ))),
        }
    }
}

persist_struct!(QuarantineEntry {
    service,
    endpoint,
    group,
    day,
    code,
    detail,
    body
});

// A custom impl rather than `persist_struct!`: the timeline's day and
// status columns are parallel arrays with a strictly-increasing day
// invariant that every binary-search lookup relies on. A snapshot that
// breaks either property must fail at load, not at first query.
impl Persist for GroupTimeline {
    fn save(&self, w: &mut Writer) {
        self.days.save(w);
        self.statuses.save(w);
        self.title.save(w);
        self.tg_kind.save(w);
        self.dc_created_day.save(w);
        self.dc_creator.save(w);
        self.wa_creator_cc.save(w);
        self.wa_creator_hash.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let days = Vec::<u32>::load(r)?;
        let statuses = Vec::<ObservedStatus>::load(r)?;
        if days.len() != statuses.len() {
            return Err(CheckpointError::Malformed(format!(
                "timeline has {} days but {} statuses",
                days.len(),
                statuses.len()
            )));
        }
        if days.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CheckpointError::Malformed(
                "timeline day column not strictly increasing".into(),
            ));
        }
        Ok(GroupTimeline {
            days,
            statuses,
            title: Option::<String>::load(r)?,
            tg_kind: Option::<String>::load(r)?,
            dc_created_day: Option::<i64>::load(r)?,
            dc_creator: Option::<u32>::load(r)?,
            wa_creator_cc: Option::<String>::load(r)?,
            wa_creator_hash: Option::<String>::load(r)?,
        })
    }
}
persist_struct!(DiscoveryRecord {
    invite,
    platform,
    discovered_at,
    first_tweet_at
});
persist_struct!(CollectedTweet {
    tweet,
    seen_at,
    via_search,
    via_stream
});
persist_struct!(ExtractionStats {
    urls_seen,
    invites,
    rejected
});
persist_struct!(MemberRecord {
    user_id,
    phone_hash,
    country,
    linked
});
persist_struct!(JoinedGroup {
    platform,
    key,
    group_id,
    joined_at,
    created_day,
    members,
    member_list_available,
    messages
});
persist_struct!(CampaignConfig {
    join_day,
    search_interval_hours,
    monitor_interval_days,
    use_search,
    use_stream,
    join_strategy,
    faults,
    profile,
    outages,
    corruption,
    seed,
    threads
});

/// Everything needed to resume a campaign mid-flight: the scenario (to
/// rebuild the world), the campaign knobs, and the mutated state of every
/// pipeline component at a day boundary.
///
/// Two states are equal when they encode to the same snapshot bytes (the
/// components' derived indexes are not state).
#[derive(Debug, Clone)]
pub struct CampaignState {
    /// World scenario — resume rebuilds the ecosystem from this.
    pub scenario: ScenarioConfig,
    /// Campaign knobs. `threads` may be changed before resuming; the
    /// dataset is bit-identical at any value.
    pub campaign: CampaignConfig,
    /// Number of completed study days (also the next day index to run).
    pub day: u32,
    /// Clock and pending events.
    pub engine: EngineState,
    /// Campaign RNG stream position (join sampling).
    pub rng: [u64; 4],
    /// Transport clients: Twitter, WhatsApp, Telegram, Discord.
    pub clients: [ClientState; 4],
    /// Discovery ledger and cursors.
    pub discovery: Discovery,
    /// Monitor timelines, terminal set and gap ledger.
    pub monitor: Monitor,
    /// Join ledger.
    pub joiner: Joiner,
    /// PII accounting.
    pub pii: PiiStore,
    /// Metrics registry. Counters ending `.micros` are wall-clock and
    /// differ across runs; [`Metrics::strip_wall_clock`] normalizes.
    pub metrics: Metrics,
    /// Per-day collection cursor marks, one per completed day (format
    /// v5). Recorded by every run — they delimit day slices for the
    /// incremental analysis folds and `Dataset::day_slice`.
    pub marks: Vec<DayMark>,
    /// Folded analysis state (format v5). `Some` when the snapshot was
    /// written by a session with analysis folds attached (every `repro`
    /// run); sessions without folds write `None`. Resuming with folds
    /// attached requires it — the folds' inputs are never replayed from
    /// raw history.
    pub folds: Option<FoldLedger>,
    /// Campaign-mutated slice of the ecosystem.
    pub delta: EcosystemDelta,
    /// Memory-budget accountant state (format v6). `Some` when the
    /// snapshot was written under `--mem-budget`; carries the limit,
    /// accounting floor, per-day encoded sizes and the spill-partition
    /// manifest so a resume stays byte-identical.
    pub budget: Option<BudgetState>,
}

// A custom impl rather than `persist_struct!`: the monitor decodes
// against the group count of the discovery decoded just before it.
impl Persist for CampaignState {
    fn save(&self, w: &mut Writer) {
        let CampaignState {
            scenario,
            campaign,
            day,
            engine,
            rng,
            clients,
            discovery,
            monitor,
            joiner,
            pii,
            metrics,
            marks,
            folds,
            delta,
            budget,
        } = self;
        scenario.save(w);
        campaign.save(w);
        day.save(w);
        engine.save(w);
        rng.save(w);
        clients.save(w);
        discovery.save(w);
        monitor.save(w);
        joiner.save(w);
        pii.save(w);
        metrics.save(w);
        marks.save(w);
        folds.save(w);
        delta.save(w);
        budget.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let scenario = ScenarioConfig::load(r)?;
        let campaign = CampaignConfig::load(r)?;
        let day = u32::load(r)?;
        let engine = EngineState::load(r)?;
        let rng = <[u64; 4]>::load(r)?;
        let clients = <[ClientState; 4]>::load(r)?;
        let discovery = Discovery::load(r)?;
        let monitor = Monitor::load(r, discovery.groups.len())?;
        Ok(CampaignState {
            scenario,
            campaign,
            day,
            engine,
            rng,
            clients,
            discovery,
            monitor,
            joiner: Persist::load(r)?,
            pii: Persist::load(r)?,
            metrics: Persist::load(r)?,
            marks: Persist::load(r)?,
            folds: Persist::load(r)?,
            delta: Persist::load(r)?,
            budget: Persist::load(r)?,
        })
    }
}

impl PartialEq for CampaignState {
    fn eq(&self, other: &CampaignState) -> bool {
        let bytes = |state: &CampaignState| {
            let mut w = Writer::new();
            state.save(&mut w);
            w.into_bytes()
        };
        bytes(self) == bytes(other)
    }
}

/// Human-readable digest of a snapshot for `repro checkpoint inspect`,
/// rendered as JSON via the workspace serializer (the `counters` map is
/// the workspace's one serialized map — `config_io` grew map support for
/// it).
#[derive(Debug, Serialize)]
pub struct SnapshotSummary {
    /// Snapshot format generation
    /// ([`chatlens_checkpoint::FORMAT_VERSION`]).
    pub format_version: u32,
    /// Completed study days.
    pub day: u32,
    /// Virtual clock, seconds since the simulation epoch.
    pub sim_now_secs: u64,
    /// Events processed so far.
    pub events_processed: u64,
    /// Events still pending.
    pub events_pending: usize,
    /// Pattern-matched tweets collected.
    pub tweets_collected: usize,
    /// Control-sample tweets collected.
    pub control_tweets: usize,
    /// Groups discovered.
    pub groups_discovered: usize,
    /// Groups with at least one monitor observation.
    pub groups_monitored: usize,
    /// Groups joined.
    pub groups_joined: usize,
    /// World seed of the scenario.
    pub world_seed: u64,
    /// Campaign seed.
    pub campaign_seed: u64,
    /// Worker threads the saved run used.
    pub threads: usize,
    /// Payload-corruption profile the saved run used.
    pub corruption: String,
    /// Quarantined bodies in the discovery ledger.
    pub quarantined_discovery: usize,
    /// Quarantined bodies in the monitor ledger.
    pub quarantined_monitor: usize,
    /// Quarantined bodies in the joiner ledger.
    pub quarantined_joiner: usize,
    /// Analyses carried in the fold ledger (0 for batch snapshots).
    pub folds: usize,
    /// Encoded fold-state bytes, keyed by fold name (empty for batch
    /// snapshots). The `repro checkpoint inspect` per-fold size report.
    pub fold_state_bytes: BTreeMap<String, u64>,
    /// Spilled day-partitions on disk (0 for unbudgeted snapshots).
    pub spill_partitions: usize,
    /// Total encoded bytes across all spill partitions.
    pub spill_bytes: u64,
    /// Per-day spill inventory: `dayNNN` → encoded partition bytes
    /// (empty for unbudgeted snapshots).
    pub spill_day_bytes: BTreeMap<String, u64>,
    /// Deterministic metric counters (wall-clock timings excluded).
    pub counters: BTreeMap<String, u64>,
}

impl CampaignState {
    /// The world this snapshot was taken in: the ecosystem re-derived
    /// from the scenario (deterministic) with the campaign's mutations
    /// replayed from the delta. [`Campaign::resume`] runs on it.
    ///
    /// [`Campaign::resume`]: crate::study::Campaign::resume
    pub fn world(&self) -> Ecosystem {
        let mut eco = Ecosystem::build(self.scenario.clone());
        eco.apply_delta(&self.delta);
        eco
    }

    /// Build the inspect digest for this snapshot.
    pub fn summary(&self) -> SnapshotSummary {
        SnapshotSummary {
            format_version: chatlens_checkpoint::FORMAT_VERSION,
            day: self.day,
            sim_now_secs: self.engine.now.0,
            events_processed: self.engine.processed,
            events_pending: self.engine.pending.len(),
            tweets_collected: self.discovery.tweets.len(),
            control_tweets: self.discovery.control.len(),
            groups_discovered: self.discovery.groups.len(),
            groups_monitored: self.monitor.timelines.len(),
            groups_joined: self.joiner.joined.len(),
            world_seed: self.scenario.seed,
            campaign_seed: self.campaign.seed,
            threads: self.campaign.threads,
            corruption: self.campaign.corruption.name().to_string(),
            quarantined_discovery: self.discovery.quarantine.len(),
            quarantined_monitor: self.monitor.quarantine.len(),
            quarantined_joiner: self.joiner.quarantine.len(),
            folds: self.folds.as_ref().map_or(0, |l| l.entries.len()),
            fold_state_bytes: self
                .folds
                .as_ref()
                .map(|l| {
                    l.state_sizes()
                        .map(|(name, bytes)| (name.to_string(), bytes))
                        .collect()
                })
                .unwrap_or_default(),
            spill_partitions: self.budget.as_ref().map_or(0, |b| b.manifest.len()),
            spill_bytes: self
                .budget
                .as_ref()
                .map_or(0, |b| b.manifest.iter().map(|p| p.encoded_bytes).sum()),
            spill_day_bytes: self
                .budget
                .as_ref()
                .map(|b| {
                    b.manifest
                        .iter()
                        .map(|p| (format!("day{:03}", p.day), p.encoded_bytes))
                        .collect()
                })
                .unwrap_or_default(),
            counters: self
                .metrics
                .counters()
                .filter(|(name, _)| !name.ends_with(".micros"))
                .map(|(name, v)| (name.to_string(), v))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatlens_checkpoint::{decode_snapshot, encode_snapshot};

    /// The component's snapshot bytes (no snapshot header).
    fn bytes<T: Persist>(value: &T) -> Vec<u8> {
        let mut w = Writer::new();
        value.save(&mut w);
        w.into_bytes()
    }

    /// Decode `bytes` as one `T`, requiring every byte consumed.
    fn decode<T: Persist>(bytes: &[u8]) -> Result<T, CheckpointError> {
        let mut r = Reader::new(bytes);
        let value = T::load(&mut r)?;
        assert!(r.is_empty(), "trailing bytes");
        Ok(value)
    }

    #[test]
    fn pii_store_round_trips_and_encodes_sorted() {
        let record = |reverse: bool| {
            let mut store = PiiStore::new();
            let mut users = vec![9, 3, 41, 17];
            if reverse {
                users.reverse();
            }
            for id in users {
                let phone = format!("+55119999900{id:02}");
                store.record_wa_creator(&phone, "BR");
                store.record_wa_member(&crate::pii::hash_phone(&phone));
                store.record_tg_user(id, Some(&crate::pii::hash_phone(&phone)));
                let linked = if id > 10 {
                    vec!["steam".to_string()]
                } else {
                    vec![]
                };
                store.record_dc_user(id, &linked);
            }
            store
        };
        let (store, reversed) = (record(false), record(true));
        let encoded = bytes(&store);
        assert_eq!(
            encoded,
            bytes(&reversed),
            "insertion order leaks into the bytes"
        );
        let back: PiiStore = decode(&encoded).unwrap();
        assert_eq!(back, store);
        assert_eq!(bytes(&back), encoded);
        // Every set is written as a sorted `Vec`.
        let mut r = Reader::new(&encoded);
        let wa_creators = Vec::<String>::load(&mut r).unwrap();
        BTreeMap::<String, u64>::load(&mut r).unwrap();
        let wa_members = Vec::<String>::load(&mut r).unwrap();
        let tg_users = Vec::<u32>::load(&mut r).unwrap();
        assert_eq!(tg_users, [3, 9, 17, 41]);
        for hashes in [wa_creators, wa_members] {
            assert_eq!(hashes.len(), 4);
            assert!(hashes.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn engine_state_rejects_impossible_queues() {
        // An event before the clock.
        let mut w = chatlens_checkpoint::Writer::new();
        SimTime(100).save(&mut w);
        5u64.save(&mut w);
        vec![(SimTime(50), CampaignEvent::Join)].save(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            EngineState::load(&mut chatlens_checkpoint::Reader::new(&bytes)),
            Err(CheckpointError::Malformed(_))
        ));
        // Events out of delivery order.
        let mut w = chatlens_checkpoint::Writer::new();
        SimTime(10).save(&mut w);
        0u64.save(&mut w);
        vec![
            (SimTime(30), CampaignEvent::Search),
            (SimTime(20), CampaignEvent::Collect),
        ]
        .save(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            EngineState::load(&mut chatlens_checkpoint::Reader::new(&bytes)),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn campaign_events_round_trip() {
        let events = vec![
            CampaignEvent::Search,
            CampaignEvent::StreamDrain,
            CampaignEvent::SampleDrain,
            CampaignEvent::Monitor { day: 17 },
            CampaignEvent::Join,
            CampaignEvent::Collect,
        ];
        let back: Vec<CampaignEvent> = decode_snapshot(&encode_snapshot(&events)).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn campaign_config_round_trips() {
        let config = CampaignConfig::default();
        let back: CampaignConfig = decode_snapshot(&encode_snapshot(&config)).unwrap();
        assert_eq!(back.join_day, config.join_day);
        assert_eq!(back.seed, config.seed);
        assert_eq!(back.threads, config.threads);
        assert_eq!(back.faults, config.faults);
    }

    #[test]
    fn monitor_writes_only_populated_slots_ascending() {
        let mut tl = GroupTimeline::default();
        tl.push(
            3,
            ObservedStatus::Alive {
                size: 10,
                online: 2,
            },
        );
        tl.push(5, ObservedStatus::Revoked);
        let mut monitor = Monitor::new();
        *monitor.timelines.ensure(4) = tl.clone();
        *monitor.timelines.ensure(1) = tl.clone();
        monitor.mark_terminal(4);
        monitor.gaps.push(4, 1);
        monitor.gaps.push(4, 2);
        // Slots 0, 2 and 3 are padding: absent from the bytes.
        let expected = (
            vec![(1u32, tl.clone()), (4, tl)],
            vec![4u32],
            vec![(4u32, vec![1u32, 2])],
        );
        let mut w = Writer::new();
        expected.save(&mut w);
        Vec::<QuarantineEntry>::new().save(&mut w);
        let encoded = monitor_bytes(&monitor);
        assert_eq!(encoded, w.into_bytes());
        let back = decode_monitor(&encoded, 5).unwrap();
        assert_eq!(back.timelines, monitor.timelines);
        assert_eq!(back.gaps, monitor.gaps);
        assert!(back.is_terminal(4) && !back.is_terminal(1));
        assert_eq!(monitor_bytes(&back), encoded);
        // Slot 4 needs at least 5 discovered groups.
        assert!(matches!(
            decode_monitor(&encoded, 4),
            Err(CheckpointError::Malformed(_))
        ));
    }

    fn monitor_bytes(monitor: &Monitor) -> Vec<u8> {
        let mut w = Writer::new();
        monitor.save(&mut w);
        w.into_bytes()
    }

    fn decode_monitor(bytes: &[u8], groups: usize) -> Result<Monitor, CheckpointError> {
        let mut r = Reader::new(bytes);
        let monitor = Monitor::load(&mut r, groups)?;
        assert!(r.is_empty(), "trailing bytes");
        Ok(monitor)
    }

    #[test]
    fn monitor_snapshots_reject_bad_slots_before_sizing_tables() {
        let tl = || GroupTimeline::default();
        let encode = |timelines: Vec<(u32, GroupTimeline)>,
                      terminal: Vec<u32>,
                      gaps: Vec<(u32, Vec<u32>)>| {
            let mut w = Writer::new();
            (timelines, terminal, gaps).save(&mut w);
            Vec::<QuarantineEntry>::new().save(&mut w);
            w.into_bytes()
        };
        let rejected = |bytes: Vec<u8>, want: &str| match decode_monitor(&bytes, 10) {
            Err(CheckpointError::Malformed(msg)) => assert!(msg.contains(want), "{msg}"),
            other => panic!("expected a Malformed error naming {want:?}, got {other:?}"),
        };
        // A slot far past the group count fails without sizing a table to it.
        rejected(
            encode(vec![(1_000_000, tl())], vec![], vec![]),
            "timeline slot",
        );
        rejected(encode(vec![], vec![10], vec![]), "terminal slot 10");
        rejected(
            encode(vec![], vec![], vec![(1_000_000, vec![1])]),
            "gap slot",
        );
        // A repeated or descending slot would silently overwrite or reorder.
        rejected(
            encode(vec![(3, tl()), (3, tl())], vec![], vec![]),
            "not strictly",
        );
        rejected(encode(vec![], vec![5, 2], vec![]), "not strictly");
        rejected(
            encode(vec![], vec![], vec![(2, vec![1]), (1, vec![1])]),
            "not strictly",
        );
        // Out-of-order gap days are a typed error, not a debug assertion.
        rejected(encode(vec![], vec![], vec![(2, vec![7, 7])]), "gap days");
        rejected(encode(vec![], vec![], vec![(2, vec![9, 3])]), "gap days");
        assert!(
            decode_monitor(&encode(vec![(9, tl())], vec![9], vec![(9, vec![1, 4])]), 10).is_ok()
        );
    }

    #[test]
    fn timeline_snapshots_reject_broken_columns() {
        // Day and status columns of different lengths.
        let mut w = chatlens_checkpoint::Writer::new();
        vec![1u32, 2].save(&mut w);
        vec![ObservedStatus::Revoked].save(&mut w);
        for _ in 0..6 {
            Option::<String>::None.save(&mut w);
        }
        let bytes = w.into_bytes();
        assert!(matches!(
            GroupTimeline::load(&mut chatlens_checkpoint::Reader::new(&bytes)),
            Err(CheckpointError::Malformed(_))
        ));
        // A day column that is not strictly increasing.
        let mut w = chatlens_checkpoint::Writer::new();
        vec![2u32, 2].save(&mut w);
        vec![ObservedStatus::Revoked, ObservedStatus::Revoked].save(&mut w);
        for _ in 0..6 {
            Option::<String>::None.save(&mut w);
        }
        let bytes = w.into_bytes();
        assert!(matches!(
            GroupTimeline::load(&mut chatlens_checkpoint::Reader::new(&bytes)),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn discovery_snapshots_reject_symbol_drift() {
        let invite =
            chatlens_platforms::invite::parse_invite_url("https://discord.com/invite/abc123XY")
                .unwrap();
        let good_key = invite.dedup_key();
        let mut d = Discovery::new(SimTime(0));
        d.interner.intern(&good_key);
        d.groups.push(DiscoveryRecord {
            platform: invite.platform(),
            invite,
            discovered_at: SimTime(0),
            first_tweet_at: SimTime(0),
        });
        let encoded = bytes(&d);
        assert_eq!(bytes(&decode::<Discovery>(&encoded).unwrap()), encoded);
        // A symbol that disagrees with its group's dedup key.
        d.interner = Interner::from_symbols(vec!["0:WRONG".to_string()]);
        assert!(matches!(
            decode::<Discovery>(&bytes(&d)),
            Err(CheckpointError::Malformed(_))
        ));
        // A symbol table of the wrong length.
        d.interner = Interner::from_symbols(vec![good_key.clone(), "1:EXTRA".to_string()]);
        assert!(matches!(
            decode::<Discovery>(&bytes(&d)),
            Err(CheckpointError::Malformed(_))
        ));
        // Two groups with one key: each symbol matches its group, but the
        // slots would no longer be dense symbol ids.
        let rec = d.groups[0].clone();
        let mut w = Writer::new();
        d.since_id.save(&mut w);
        Vec::<CollectedTweet>::new().save(&mut w);
        Vec::<Tweet>::new().save(&mut w);
        vec![rec.clone(), rec].save(&mut w);
        d.stats.save(&mut w);
        (SimTime(0), SimTime(0), 0u64).save(&mut w);
        Vec::<(SimTime, SimTime)>::new().save(&mut w);
        Vec::<(SimTime, SimTime)>::new().save(&mut w);
        Vec::<QuarantineEntry>::new().save(&mut w);
        vec![good_key.clone(), good_key].save(&mut w);
        (0usize, 0usize).save(&mut w);
        assert!(matches!(
            decode::<Discovery>(&w.into_bytes()),
            Err(CheckpointError::Malformed(why)) if why.contains("repeats")
        ));
    }

    #[test]
    fn discovery_with_a_spilled_prefix_round_trips_byte_identical() {
        let mut eco = Ecosystem::build(ScenarioConfig::tiny());
        let start = eco.window.start_time();
        let mut net = crate::net::Net::reliable(7, start);
        let mut d = Discovery::new(start);
        let day = start + chatlens_simnet::time::SimDuration::days(1);
        d.run_search(&mut net, &mut eco, day).unwrap();
        d.drain_sample(&mut net, &mut eco, day).unwrap();
        assert!(d.tweets.len() > 4 && d.control.len() > 4);
        d.tweets.spill_to(d.tweets.len() / 2);
        d.control.spill_to(3);
        let encoded = bytes(&d);
        let back: Discovery = decode(&encoded).unwrap();
        assert_eq!(back.tweets.base(), d.tweets.base());
        assert_eq!(back.control.base(), 3);
        assert_eq!(back.tweets.len(), d.tweets.len());
        // The rebuilt indexes cover the resident tails only; the budget
        // re-registers the spilled ids on resume.
        assert_eq!(back.tweet_index.len(), back.tweets.resident().len());
        assert_eq!(back.control_ids.len(), back.control.resident().len());
        assert_eq!(bytes(&back), encoded);
    }

    mod properties {
        use crate::intern::Interner;
        use chatlens_checkpoint::{decode_snapshot, encode_snapshot};
        use proptest::{collection::vec, prop_assert_eq, proptest};

        proptest! {
            /// The interner survives the real snapshot codec: persist the
            /// symbol column, decode it, rebuild with `from_symbols`, and
            /// every id/string mapping is intact.
            #[test]
            fn interner_round_trips_through_snapshot_codec(
                words in vec("[a-z0-9:]{1,12}", 0..48),
            ) {
                let mut t = Interner::new();
                for w in &words {
                    t.intern(w);
                }
                let bytes = encode_snapshot(&t.symbols().to_vec());
                let back: Vec<String> = decode_snapshot(&bytes).unwrap();
                prop_assert_eq!(back.as_slice(), t.symbols());
                let rebuilt = Interner::from_symbols(back);
                prop_assert_eq!(&rebuilt, &t);
                for w in &words {
                    prop_assert_eq!(rebuilt.get(w), t.get(w));
                }
            }
        }
    }
}
