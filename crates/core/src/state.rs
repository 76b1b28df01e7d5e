//! Checkpointable campaign state: the [`CampaignState`] snapshot payload
//! and its conversions to/from the live pipeline components.
//!
//! A snapshot captures exactly what the campaign *mutates*; everything
//! derivable from `(seed, config)` — the world population, the tweet
//! store, lookup indexes — is rebuilt on resume instead of being stored.
//! The split per component:
//!
//! | component | stored | rebuilt |
//! |-----------|--------|---------|
//! | engine    | clock, event count, pending events | — |
//! | transport | 4 × bucket fill / RNG position / trace | client configs |
//! | discovery | tweets, groups, symbol table, cursors, stats | tweet index, key→sym map |
//! | monitor   | timelines, terminal slots, gap ledger | parse pool |
//! | joiner    | joined groups, account counters | — |
//! | pii       | hashes and counts (sorted) | `HashSet` form |
//! | ecosystem | [`EcosystemDelta`] | the whole world |
//!
//! Unordered sets are exported in sorted order, so the same logical state
//! always encodes to the same bytes — snapshot files of equal states are
//! byte-equal, which the determinism suite exploits directly.

use crate::budget::{BudgetState, SpillableLog};
use crate::discovery::{CollectedTweet, Discovery, DiscoveryRecord};
use crate::fold::{DayMark, FoldLedger};
use crate::joiner::{JoinStrategy, JoinedGroup, Joiner, MemberRecord};
use crate::monitor::{GapLedger, GroupTimeline, Monitor, ObservedStatus, TimelineStore};
use crate::patterns::ExtractionStats;
use crate::pii::PiiStore;
use crate::quarantine::{QuarantineCode, QuarantineEntry};
use crate::study::{CampaignConfig, CampaignEvent};
use chatlens_checkpoint::{persist_struct, CheckpointError, Persist, Reader, Writer};
use chatlens_simnet::metrics::Metrics;
use chatlens_simnet::par::Pool;
use chatlens_simnet::time::SimTime;
use chatlens_simnet::transport::ClientState;
use chatlens_simnet::Engine;
use chatlens_twitter::Tweet;
use chatlens_workload::ecosystem::EcosystemDelta;
use chatlens_workload::ScenarioConfig;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

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

/// The discovery component's accumulated data and feed cursors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryState {
    /// Per-host Search API `since_id` watermarks.
    pub since_id: [Option<u64>; 6],
    /// Resident tail of the collected tweet log (v6: a budgeted run may
    /// have spilled the cold prefix to disk; `tweets_base` counts it).
    pub tweets: Vec<CollectedTweet>,
    /// Resident tail of the control-sample log (see `control_base`).
    pub control: Vec<Tweet>,
    /// Spilled tweet-prefix length: the global index of `tweets[0]`.
    /// Zero on unbudgeted runs.
    pub tweets_base: u64,
    /// Spilled control-prefix length, like `tweets_base`.
    pub control_base: u64,
    /// Discovered groups in discovery order.
    pub groups: Vec<DiscoveryRecord>,
    /// URL extraction totals.
    pub stats: ExtractionStats,
    /// Last Streaming API drain instant.
    pub last_stream_drain: SimTime,
    /// Last 1%-sample drain instant.
    pub last_sample_drain: SimTime,
    /// Transport failures that cost data.
    pub failed_requests: u64,
    /// Stream windows queued for backfill.
    pub pending_stream: Vec<(SimTime, SimTime)>,
    /// Sample windows queued for backfill.
    pub pending_sample: Vec<(SimTime, SimTime)>,
    /// Rejected feed bodies with provenance.
    pub quarantine: Vec<QuarantineEntry>,
    /// The group-key symbol table in interning order. Symbol `i` is the
    /// dedup key of `groups[i]` — the snapshot carries it explicitly so a
    /// loader can verify the dense-id invariant instead of assuming it.
    pub symbols: Vec<String>,
}

// A custom impl rather than `persist_struct!`: group slots double as
// interned symbol ids everywhere downstream (timelines, gap ledger), so
// a snapshot whose symbol table disagrees with its group list would
// silently attach observations to the wrong groups. Validate the
// correspondence at load, before any component is rebuilt on top of it.
impl Persist for DiscoveryState {
    fn save(&self, w: &mut Writer) {
        self.since_id.save(w);
        self.tweets.save(w);
        self.control.save(w);
        self.groups.save(w);
        self.stats.save(w);
        self.last_stream_drain.save(w);
        self.last_sample_drain.save(w);
        self.failed_requests.save(w);
        self.pending_stream.save(w);
        self.pending_sample.save(w);
        self.quarantine.save(w);
        self.symbols.save(w);
        self.tweets_base.save(w);
        self.control_base.save(w);
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
        let tweets_base = u64::load(r)?;
        let control_base = u64::load(r)?;
        if symbols.len() != groups.len() {
            return Err(CheckpointError::Malformed(format!(
                "symbol table has {} entries for {} groups",
                symbols.len(),
                groups.len()
            )));
        }
        for (i, (sym, g)) in symbols.iter().zip(&groups).enumerate() {
            if *sym != g.invite.dedup_key() {
                return Err(CheckpointError::Malformed(format!(
                    "symbol {i} is {sym:?} but group {i} has key {:?}",
                    g.invite.dedup_key()
                )));
            }
        }
        Ok(DiscoveryState {
            since_id,
            tweets,
            control,
            tweets_base,
            control_base,
            groups,
            stats,
            last_stream_drain,
            last_sample_drain,
            failed_requests,
            pending_stream,
            pending_sample,
            quarantine,
            symbols,
        })
    }
}

impl DiscoveryState {
    /// Capture a discovery component.
    pub fn capture(d: &Discovery) -> DiscoveryState {
        let (since_id, last_stream_drain, last_sample_drain) = d.cursors();
        DiscoveryState {
            since_id,
            tweets: d.tweets.resident().to_vec(),
            control: d.control.resident().to_vec(),
            tweets_base: d.tweets.base() as u64,
            control_base: d.control.base() as u64,
            groups: d.groups.clone(),
            stats: d.stats,
            last_stream_drain,
            last_sample_drain,
            failed_requests: d.failed_requests,
            pending_stream: d.pending_stream.clone(),
            pending_sample: d.pending_sample.clone(),
            quarantine: d.quarantine.clone(),
            symbols: d.interner().symbols().to_vec(),
        }
    }

    /// Rebuild the component (lookup indexes are derived on the way in;
    /// `start` is the window start, pure config the quarantine ledger
    /// stamps day provenance against).
    pub fn restore(&self, start: SimTime) -> Discovery {
        Discovery::from_parts(
            start,
            self.since_id,
            SpillableLog::from_parts(self.tweets_base as usize, self.tweets.clone()),
            SpillableLog::from_parts(self.control_base as usize, self.control.clone()),
            self.groups.clone(),
            self.stats,
            self.last_stream_drain,
            self.last_sample_drain,
            self.failed_requests,
            self.pending_stream.clone(),
            self.pending_sample.clone(),
            self.quarantine.clone(),
        )
    }
}

/// The monitor's per-group timelines and terminal set.
///
/// Keys are *group slots* (discovery-order indexes, equal to the interned
/// symbol ids carried by [`DiscoveryState::symbols`]), not dedup-key
/// strings. Only populated slots are written, in ascending slot order, so
/// padding `None` slots never affect the encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorState {
    /// `(slot, timeline)` pairs for groups with at least one observation,
    /// ascending by slot.
    pub timelines: Vec<(u32, GroupTimeline)>,
    /// Slots no longer polled (observed revoked), ascending.
    pub terminal: Vec<u32>,
    /// `(slot, censored days)` pairs for groups with at least one gap,
    /// ascending by slot.
    pub gaps: Vec<(u32, Vec<u32>)>,
    /// Rejected landing/invite bodies with provenance.
    pub quarantine: Vec<QuarantineEntry>,
}

persist_struct!(MonitorState {
    timelines,
    terminal,
    gaps,
    quarantine
});

impl MonitorState {
    /// Capture a monitor.
    pub fn capture(m: &Monitor) -> MonitorState {
        MonitorState {
            timelines: m.timelines.entries(),
            terminal: m.terminal_slots(),
            gaps: m.gaps.entries(),
            quarantine: m.quarantine.clone(),
        }
    }

    /// Rebuild the monitor around `pool` (thread count is a run-time
    /// choice, not state — any value yields the same observations).
    pub fn restore(&self, pool: Pool) -> Monitor {
        Monitor::from_parts(
            TimelineStore::from_entries(self.timelines.clone()),
            self.terminal.clone(),
            GapLedger::from_entries(self.gaps.clone()),
            self.quarantine.clone(),
            pool,
        )
    }
}

/// The joiner's ledger of joined groups and account bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinerState {
    /// Joined groups with their collected contents.
    pub joined: Vec<JoinedGroup>,
    /// Accounts opened per platform.
    pub accounts_used: [u16; 3],
    /// Join attempts refused because the URL was dead.
    pub dead_at_join: u64,
    /// Whether the Discord bot-join probe was rejected.
    pub bot_join_rejected: bool,
    /// Collection fetches lost to transport failures.
    pub failed_fetches: u64,
    /// Rejected join/collection bodies with provenance.
    pub quarantine: Vec<QuarantineEntry>,
}

persist_struct!(JoinerState {
    joined,
    accounts_used,
    dead_at_join,
    bot_join_rejected,
    failed_fetches,
    quarantine
});

impl JoinerState {
    /// Capture a joiner.
    pub fn capture(j: &Joiner) -> JoinerState {
        JoinerState {
            joined: j.joined.clone(),
            accounts_used: j.accounts_used,
            dead_at_join: j.dead_at_join,
            bot_join_rejected: j.bot_join_rejected,
            failed_fetches: j.failed_fetches,
            quarantine: j.quarantine.clone(),
        }
    }

    /// Rebuild the joiner.
    pub fn restore(&self) -> Joiner {
        Joiner {
            joined: self.joined.clone(),
            accounts_used: self.accounts_used,
            dead_at_join: self.dead_at_join,
            bot_join_rejected: self.bot_join_rejected,
            failed_fetches: self.failed_fetches,
            quarantine: self.quarantine.clone(),
        }
    }
}

/// The PII store with every unordered set flattened to a sorted `Vec`, so
/// the encoding is canonical (equal stores → equal bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiiState {
    /// WhatsApp creator phone hashes, sorted.
    pub wa_creator_hashes: Vec<String>,
    /// WhatsApp creator country-code counts.
    pub wa_creator_countries: BTreeMap<String, u64>,
    /// WhatsApp member phone hashes, sorted.
    pub wa_member_hashes: Vec<String>,
    /// Telegram user ids observed, sorted.
    pub tg_users_observed: Vec<u32>,
    /// Telegram phone hashes, sorted.
    pub tg_phone_hashes: Vec<String>,
    /// Discord user ids observed, sorted.
    pub dc_users_observed: Vec<u32>,
    /// Discord users with a connected account, sorted.
    pub dc_users_with_link: Vec<u32>,
    /// Connected-account counts per external platform.
    pub dc_linked_counts: BTreeMap<String, u64>,
}

persist_struct!(PiiState {
    wa_creator_hashes,
    wa_creator_countries,
    wa_member_hashes,
    tg_users_observed,
    tg_phone_hashes,
    dc_users_observed,
    dc_users_with_link,
    dc_linked_counts
});

impl PiiState {
    /// Capture a PII store, sorting every set.
    pub fn capture(p: &PiiStore) -> PiiState {
        PiiState {
            wa_creator_hashes: sorted_strings(p.wa_creator_hashes.iter()),
            wa_creator_countries: p.wa_creator_countries.clone(),
            wa_member_hashes: sorted_strings(p.wa_member_hashes.iter()),
            tg_users_observed: sorted_ids(p.tg_users_observed.iter()),
            tg_phone_hashes: sorted_strings(p.tg_phone_hashes.iter()),
            dc_users_observed: sorted_ids(p.dc_users_observed.iter()),
            dc_users_with_link: sorted_ids(p.dc_users_with_link.iter()),
            dc_linked_counts: p.dc_linked_counts.clone(),
        }
    }

    /// Rebuild the store (`Vec`s fold back into hash sets).
    pub fn restore(&self) -> PiiStore {
        PiiStore {
            wa_creator_hashes: self.wa_creator_hashes.iter().cloned().collect(),
            wa_creator_countries: self.wa_creator_countries.clone(),
            wa_member_hashes: self.wa_member_hashes.iter().cloned().collect(),
            tg_users_observed: self.tg_users_observed.iter().copied().collect(),
            tg_phone_hashes: self.tg_phone_hashes.iter().cloned().collect(),
            dc_users_observed: self.dc_users_observed.iter().copied().collect(),
            dc_users_with_link: self.dc_users_with_link.iter().copied().collect(),
            dc_linked_counts: self.dc_linked_counts.clone(),
        }
    }
}

/// Sort a set of strings into a canonical `Vec` (via `BTreeSet`, lint D2).
fn sorted_strings<'a>(it: impl Iterator<Item = &'a String>) -> Vec<String> {
    it.cloned()
        .collect::<BTreeSet<String>>()
        .into_iter()
        .collect()
}

/// Sort a set of ids into a canonical `Vec` (via `BTreeSet`, lint D2).
fn sorted_ids<'a>(it: impl Iterator<Item = &'a u32>) -> Vec<u32> {
    it.copied().collect::<BTreeSet<u32>>().into_iter().collect()
}

// Core enums and records referenced by the states above.

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
#[derive(Debug, Clone, PartialEq)]
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
    pub discovery: DiscoveryState,
    /// Monitor timelines and terminal set.
    pub monitor: MonitorState,
    /// Join ledger.
    pub joiner: JoinerState,
    /// PII accounting (sorted canonical form).
    pub pii: PiiState,
    /// Metrics registry. Counters ending `.micros` are wall-clock and
    /// differ across runs; [`Metrics::strip_wall_clock`] normalizes.
    pub metrics: Metrics,
    /// Per-day collection cursor marks, one per completed day (format
    /// v5). Recorded by every run — they delimit day slices for the
    /// incremental analysis folds and `Dataset::day_slice`.
    pub marks: Vec<DayMark>,
    /// Folded analysis state (format v5). `Some` when the snapshot was
    /// written by an incremental (`--analysis incremental`) run; batch
    /// runs write `None`. Resuming incrementally requires it — the
    /// folds' inputs are never replayed from raw history.
    pub folds: Option<FoldLedger>,
    /// Campaign-mutated slice of the ecosystem.
    pub delta: EcosystemDelta,
    /// Memory-budget accountant state (format v6). `Some` when the
    /// snapshot was written under `--mem-budget`; carries the limit,
    /// accounting floor, per-day encoded sizes and the spill-partition
    /// manifest so a resume stays byte-identical.
    pub budget: Option<BudgetState>,
}

persist_struct!(CampaignState {
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
    budget
});

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
    /// Build the inspect digest for this snapshot.
    pub fn summary(&self) -> SnapshotSummary {
        SnapshotSummary {
            format_version: chatlens_checkpoint::FORMAT_VERSION,
            day: self.day,
            sim_now_secs: self.engine.now.0,
            events_processed: self.engine.processed,
            events_pending: self.engine.pending.len(),
            tweets_collected: self.discovery.tweets.len() + self.discovery.tweets_base as usize,
            control_tweets: self.discovery.control.len() + self.discovery.control_base as usize,
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

    #[test]
    fn pii_state_round_trips_and_is_sorted() {
        let mut store = PiiStore::new();
        store.record_wa_creator("+5511999990000", "BR");
        store.record_wa_creator("+4915112345678", "DE");
        store.record_wa_member(&crate::pii::hash_phone("+5511999990001"));
        store.record_tg_user(9, Some(&crate::pii::hash_phone("+34600000000")));
        store.record_tg_user(3, None);
        store.record_dc_user(7, &["steam".to_string(), "twitch".to_string()]);
        store.record_dc_user(2, &[]);
        let state = PiiState::capture(&store);
        assert!(state.tg_users_observed.windows(2).all(|w| w[0] < w[1]));
        assert!(state.wa_creator_hashes.windows(2).all(|w| w[0] < w[1]));
        let back: PiiState = decode_snapshot(&encode_snapshot(&state)).unwrap();
        assert_eq!(back, state);
        let restored = state.restore();
        assert_eq!(PiiState::capture(&restored), state);
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
    fn monitor_state_round_trips_sparse_slots() {
        let mut tl = GroupTimeline::default();
        tl.push(
            3,
            ObservedStatus::Alive {
                size: 10,
                online: 2,
            },
        );
        tl.push(5, ObservedStatus::Revoked);
        let state = MonitorState {
            timelines: vec![(4, tl)],
            terminal: vec![4],
            gaps: vec![(4, vec![1, 2])],
            quarantine: Vec::new(),
        };
        let back: MonitorState = decode_snapshot(&encode_snapshot(&state)).unwrap();
        assert_eq!(back, state);
        // restore → capture drops nothing and re-sorts nothing: slots 0-3
        // are padding in the store, absent from the re-captured entries.
        let restored = state.restore(Pool::new(1));
        assert_eq!(MonitorState::capture(&restored), state);
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
        let rec = DiscoveryRecord {
            platform: invite.platform(),
            invite,
            discovered_at: SimTime(0),
            first_tweet_at: SimTime(0),
        };
        let good_key = rec.invite.dedup_key();
        let mut state = DiscoveryState {
            since_id: [None; 6],
            tweets: Vec::new(),
            control: Vec::new(),
            groups: vec![rec],
            stats: ExtractionStats::default(),
            last_stream_drain: SimTime(0),
            last_sample_drain: SimTime(0),
            failed_requests: 0,
            pending_stream: Vec::new(),
            pending_sample: Vec::new(),
            quarantine: Vec::new(),
            symbols: vec![good_key.clone()],
            tweets_base: 0,
            control_base: 0,
        };
        let back: DiscoveryState = decode_snapshot(&encode_snapshot(&state)).unwrap();
        assert_eq!(back, state);
        // A symbol that disagrees with its group's dedup key.
        state.symbols = vec!["0:WRONG".to_string()];
        assert!(matches!(
            decode_snapshot::<DiscoveryState>(&encode_snapshot(&state)),
            Err(CheckpointError::Malformed(_))
        ));
        // A symbol table of the wrong length.
        state.symbols = vec![good_key, "1:EXTRA".to_string()];
        assert!(matches!(
            decode_snapshot::<DiscoveryState>(&encode_snapshot(&state)),
            Err(CheckpointError::Malformed(_))
        ));
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
