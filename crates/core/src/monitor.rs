//! Daily group-metadata monitoring (§3.2).
//!
//! From the day a group is discovered until its URL is found revoked, the
//! monitor fetches its public metadata once per day: the WhatsApp landing
//! page (title, size, creator country + phone — hashed on arrival), the
//! Telegram web page (title, size, online count, group-vs-channel), or
//! the Discord invite API (title, size, online, creator, creation date).
//!
//! # Data layout
//!
//! The monitor is the campaign's hottest loop: every discovered group is
//! touched every remaining day. Storage is therefore *dense and
//! slot-indexed*: a group's identity inside the monitor is its discovery
//! slot (its index in `discovery.groups`, which equals its interned
//! [`Sym`](crate::intern::Sym)), never its dedup-key string. Timelines,
//! the terminal set, and the gap ledger are all `Vec`s indexed by slot,
//! so a steady-state day performs no string hashing, no tree walks, and
//! no per-group key allocation — the dedup key is only materialized on
//! the cold quarantine path, where an entry needs human-readable
//! provenance.

use crate::discovery::{Discovery, DiscoveryRecord};
use crate::error::CoreError;
use crate::net::Net;
use crate::pii::PiiStore;
use crate::quarantine::{service_name, verify_echoes, Fate, Provenance, QuarantineEntry};
use chatlens_platforms::id::PlatformKind;
use chatlens_platforms::wire::WireDoc;
use chatlens_simnet::time::SimTime;
use chatlens_simnet::transport::{Request, Status};
use chatlens_workload::Ecosystem;

/// What the monitor saw for one group on one day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservedStatus {
    /// Landing page served: the group is alive with these counts.
    Alive {
        /// Member count shown.
        size: u32,
        /// Online count shown (0 where the platform shows none).
        online: u32,
    },
    /// The URL is revoked/expired (410).
    Revoked,
    /// Transport failed after retries; no information for the day.
    Failed,
}

/// One day's observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Zero-based study-day index.
    pub day: u32,
    /// What was seen.
    pub status: ObservedStatus,
}

/// Everything the monitor learned about one group over the campaign.
///
/// Observations are stored *columnar*: a sorted day column and a parallel
/// status column. Days are strictly increasing by construction (one
/// observation per study day, appended in day order), so point lookups
/// are a binary search and day-range slices are two `partition_point`s —
/// no per-observation struct walk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupTimeline {
    /// Observation days, strictly increasing.
    pub(crate) days: Vec<u32>,
    /// Status observed on each day in `days` (parallel column).
    pub(crate) statuses: Vec<ObservedStatus>,
    /// Title from the first successful fetch.
    pub title: Option<String>,
    /// Telegram: `"group"` or `"channel"`.
    pub tg_kind: Option<String>,
    /// Discord: creation day number from the invite API.
    pub dc_created_day: Option<i64>,
    /// Discord: creator user id from the invite API.
    pub dc_creator: Option<u32>,
    /// WhatsApp: creator country code from the landing page.
    pub wa_creator_cc: Option<String>,
    /// WhatsApp: SHA-256 of the creator's phone (the only creator identity
    /// available; used by §5's creators-per-group analysis).
    pub wa_creator_hash: Option<String>,
}

impl GroupTimeline {
    /// Append one day's observation. Days must arrive strictly
    /// increasing (the monitor visits each group once per study day).
    pub fn push(&mut self, day: u32, status: ObservedStatus) {
        debug_assert!(
            self.days.last().is_none_or(|&d| d < day),
            "observations must be appended in day order"
        );
        self.days.push(day);
        self.statuses.push(status);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.days.len()
    }

    /// Whether no day was ever observed.
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }

    /// The sorted day column.
    pub fn days(&self) -> &[u32] {
        &self.days
    }

    /// Walk the observations in day order.
    pub fn iter(&self) -> impl Iterator<Item = Observation> + '_ {
        self.days
            .iter()
            .zip(&self.statuses)
            .map(|(&day, &status)| Observation { day, status })
    }

    /// First observation, if any.
    pub fn first(&self) -> Option<Observation> {
        Some(Observation {
            day: *self.days.first()?,
            status: *self.statuses.first()?,
        })
    }

    /// Last observation, if any.
    pub fn last(&self) -> Option<Observation> {
        Some(Observation {
            day: *self.days.last()?,
            status: *self.statuses.last()?,
        })
    }

    /// Rewrite the status of the most recent observation (the backfill
    /// retry replaces a `Failed` day in place; days stay strictly
    /// increasing because no day is appended).
    pub(crate) fn set_last_status(&mut self, status: ObservedStatus) {
        let last = self
            .statuses
            .last_mut()
            .expect("set_last_status on an empty timeline");
        *last = status;
    }

    /// Point lookup: what was observed on `day`, if the group was
    /// observed that day at all. Binary search over the day column.
    pub fn status_on(&self, day: u32) -> Option<ObservedStatus> {
        let i = self.days.binary_search(&day).ok()?;
        Some(self.statuses[i])
    }

    /// Observations with `day <= last_day`, as a pair of column slices —
    /// a binary-search cut, not a scan.
    pub fn through(&self, last_day: u32) -> (&[u32], &[ObservedStatus]) {
        let end = self.days.partition_point(|&d| d <= last_day);
        (&self.days[..end], &self.statuses[..end])
    }

    /// Whether the group was ever observed revoked.
    pub fn saw_revoked(&self) -> bool {
        self.statuses.contains(&ObservedStatus::Revoked)
    }

    /// Whether the *first* observation was already a revocation — the
    /// "revoked before our first observation" bucket of Fig 6.
    pub fn dead_on_arrival(&self) -> bool {
        self.statuses.first() == Some(&ObservedStatus::Revoked)
    }

    /// `(first, last)` sizes over the alive observations (Fig 7).
    pub fn size_span(&self) -> Option<(u32, u32)> {
        let mut first = None;
        let mut last = None;
        for s in &self.statuses {
            if let ObservedStatus::Alive { size, .. } = s {
                if first.is_none() {
                    first = Some(*size);
                }
                last = Some(*size);
            }
        }
        Some((first?, last?))
    }

    /// Day index of the observed revocation, if any.
    pub fn revoked_day(&self) -> Option<u32> {
        let i = self
            .statuses
            .iter()
            .position(|s| *s == ObservedStatus::Revoked)?;
        Some(self.days[i])
    }

    /// Number of days the group was observed alive.
    pub fn alive_days(&self) -> u32 {
        self.statuses
            .iter()
            .filter(|s| matches!(s, ObservedStatus::Alive { .. }))
            .count() as u32
    }
}

/// Dense timeline storage, indexed by discovery slot (= interned group
/// sym). A slot is `Some` exactly when the group has at least one
/// observation, which preserves the semantics of the old
/// `BTreeMap<String, GroupTimeline>`: "present" means "monitored at
/// least once". Equality ignores trailing never-observed slots, so a
/// store that merely reserved more capacity compares equal.
#[derive(Debug, Clone, Default)]
pub struct TimelineStore {
    slots: Vec<Option<GroupTimeline>>,
}

impl TimelineStore {
    /// An empty store.
    pub fn new() -> TimelineStore {
        TimelineStore::default()
    }

    /// The timeline at `slot`, if the group was ever observed.
    pub fn get(&self, slot: usize) -> Option<&GroupTimeline> {
        self.slots.get(slot).and_then(|s| s.as_ref())
    }

    /// Mutable timeline at `slot`, if the group was ever observed.
    pub fn get_mut(&mut self, slot: usize) -> Option<&mut GroupTimeline> {
        self.slots.get_mut(slot).and_then(|s| s.as_mut())
    }

    /// The timeline at `slot`, created empty if absent (grows the store).
    pub fn ensure(&mut self, slot: usize) -> &mut GroupTimeline {
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot].get_or_insert_with(GroupTimeline::default)
    }

    /// Number of groups with at least one observation.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no group was ever observed.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }

    /// Walk `(slot, timeline)` in slot (= discovery) order, observed
    /// groups only.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &GroupTimeline)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|tl| (i, tl)))
    }

    /// Encoded (checkpoint codec) size of every observed timeline, in
    /// bytes. This is the memory-budget accounting charge for the
    /// columnar store — a pure function of observation history, never of
    /// allocator behavior. Only computed at day boundaries under
    /// `--mem-budget`, so the walk stays off the request hot path.
    pub fn encoded_bytes(&self) -> u64 {
        use chatlens_checkpoint::codec::{Persist, Writer};
        let mut w = Writer::new();
        for (_, tl) in self.iter() {
            tl.save(&mut w);
        }
        w.len() as u64
    }
}

impl PartialEq for TimelineStore {
    fn eq(&self, other: &TimelineStore) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Dense gap ledger, indexed by discovery slot: for each group, the study
/// days on which it could not be observed even after the backfill retry
/// (days ascending). A group "has gaps" exactly when its day list is
/// non-empty — empty lists are representation padding, invisible to
/// equality, counting, and iteration.
#[derive(Debug, Clone, Default)]
pub struct GapLedger {
    /// Censored days per slot; empty lists are padding. Crate-visible so
    /// the auditor's tests can construct the corrupt shapes the public
    /// API forbids.
    pub(crate) slots: Vec<Vec<u32>>,
}

impl GapLedger {
    /// An empty ledger.
    pub fn new() -> GapLedger {
        GapLedger::default()
    }

    /// The censored days of the group at `slot`, if it has any.
    pub fn get(&self, slot: usize) -> Option<&[u32]> {
        match self.slots.get(slot) {
            Some(days) if !days.is_empty() => Some(days),
            _ => None,
        }
    }

    /// Append a censored day for `slot` (grows the ledger).
    pub fn push(&mut self, slot: usize, day: u32) {
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, Vec::new);
        }
        debug_assert!(self.slots[slot].last().is_none_or(|&d| d < day));
        self.slots[slot].push(day);
    }

    /// Number of groups with at least one censored day.
    pub fn group_count(&self) -> usize {
        self.slots.iter().filter(|d| !d.is_empty()).count()
    }

    /// Total censored group-days.
    pub fn total_days(&self) -> u64 {
        self.slots.iter().map(|d| d.len() as u64).sum()
    }

    /// Whether the ledger records no censored day at all.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|d| d.is_empty())
    }

    /// Walk `(slot, days)` in slot order, gapped groups only.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_empty())
            .map(|(i, d)| (i, d.as_slice()))
    }
}

impl PartialEq for GapLedger {
    fn eq(&self, other: &GapLedger) -> bool {
        self.iter().eq(other.iter())
    }
}

/// The monitoring component. A snapshot persists it directly (see
/// [`crate::state`]).
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    /// Per-group timelines, indexed by discovery slot.
    pub timelines: TimelineStore,
    /// Per-slot terminal flags (observed revoked — no longer polled).
    pub(crate) terminal: Vec<bool>,
    /// The gap ledger: study days on which a group could not be observed
    /// even after the same-day backfill retry, indexed by discovery slot,
    /// days ascending. Lifetime analyses treat these days as *censored* —
    /// "we could not look" is recorded as exactly that, never as an
    /// observation.
    pub gaps: GapLedger,
    /// Rejected landing-page bodies with provenance (see
    /// [`crate::quarantine`]). A quarantined fetch is handled like a
    /// transport failure: one immediate re-fetch, then the day-end
    /// backfill retry, then the gap ledger.
    pub quarantine: Vec<QuarantineEntry>,
}

impl Monitor {
    /// A fresh monitor.
    pub fn new() -> Monitor {
        Monitor::default()
    }

    /// Whether the group at `slot` reached a terminal state.
    pub fn is_terminal(&self, slot: usize) -> bool {
        self.terminal.get(slot).copied().unwrap_or(false)
    }

    pub(crate) fn mark_terminal(&mut self, slot: usize) {
        if slot >= self.terminal.len() {
            self.terminal.resize(slot + 1, false);
        }
        self.terminal[slot] = true;
    }

    /// Total censored group-days in the gap ledger.
    pub fn gap_days(&self) -> u64 {
        self.gaps.total_days()
    }

    /// Run one daily round over every discovered, not-yet-revoked group.
    /// `day` is the zero-based study-day index. When `pii` is given,
    /// WhatsApp creator phone numbers coming off the landing pages are
    /// hashed into it (the landing page is the only pre-join source of
    /// creator phones, §6).
    ///
    /// One pass in discovery order fetches, decodes and applies each
    /// group (every transport call advances the shared network/ecosystem
    /// RNG and rate-limiter state, so its order is fixed). A body that
    /// fails decode is parked, and the parked groups go through the
    /// quarantine lifecycle after the pass, again in discovery order, so
    /// every first fetch of the day precedes every re-fetch.
    pub fn run_day(
        &mut self,
        net: &mut Net,
        eco: &mut Ecosystem,
        discovery: &Discovery,
        now: SimTime,
        day: u32,
        mut pii: Option<&mut PiiStore>,
    ) {
        // Slot, request, body and decode error of each group whose body
        // failed decode, in slot order.
        let mut parked = Vec::new();
        for (i, rec) in discovery.groups.iter().enumerate() {
            if self.is_terminal(i) {
                continue;
            }
            let req = probe(rec);
            let status = match net.platform(eco, rec.platform, now, &req) {
                Ok(resp) if resp.status == Status::Ok => {
                    let timeline = self.timelines.ensure(i);
                    match observe(timeline, rec.platform, &resp.body, &req, &mut pii) {
                        Ok(status) => status,
                        Err(err) => {
                            parked.push((i, req, resp.body, err));
                            continue;
                        }
                    }
                }
                Ok(resp) if resp.status == Status::Gone => self.revoke(i),
                _ => ObservedStatus::Failed,
            };
            self.timelines.ensure(i).push(day, status);
        }

        // Corruption is usually transient damage, not a dead URL: each
        // parked body is quarantined and its page re-fetched once. When
        // both fetches are damaged or lost the day is `Failed`; the
        // day-end backfill retries once more, and a repeated failure
        // lands the day in the gap ledger — censored, never fabricated.
        for (i, req, body, err) in parked {
            let rec = &discovery.groups[i];
            let key = rec.invite.dedup_key();
            let at = Provenance {
                service: service_name(rec.platform),
                req: &req,
                group: &key,
                day,
            };
            let timeline = self.timelines.ensure(i);
            let status = match at.refetch_once(
                &mut self.quarantine,
                &body,
                &err,
                || net.platform(eco, rec.platform, now, &req),
                |body| observe(timeline, rec.platform, body, &req, &mut pii),
            ) {
                Fate::Decoded(status) => status,
                Fate::Refused(Status::Gone) => self.revoke(i),
                Fate::Refused(_) | Fate::Lost => ObservedStatus::Failed,
            };
            self.timelines.ensure(i).push(day, status);
        }
    }

    /// Mark the group at `slot` terminal and return the status to record.
    fn revoke(&mut self, slot: usize) -> ObservedStatus {
        self.mark_terminal(slot);
        ObservedStatus::Revoked
    }

    /// Same-day retry of every group whose monitor fetch failed today.
    /// A success *replaces* the day's `Failed` observation in place (days
    /// stay strictly increasing); a revocation does the same and marks the
    /// group terminal; a repeated failure appends the day to the group's
    /// gap ledger — the day is censored, never fabricated.
    pub fn backfill_day(
        &mut self,
        net: &mut Net,
        eco: &mut Ecosystem,
        discovery: &Discovery,
        now: SimTime,
        day: u32,
        mut pii: Option<&mut PiiStore>,
    ) {
        // Discovery order, like `run_day`, so the transport call sequence
        // is a deterministic function of the campaign state.
        for (i, rec) in discovery.groups.iter().enumerate() {
            if self.is_terminal(i) {
                continue;
            }
            let Some(timeline) = self.timelines.get_mut(i) else {
                continue;
            };
            if timeline
                .last()
                .is_none_or(|o| o.day != day || o.status != ObservedStatus::Failed)
            {
                continue;
            }
            let req = probe(rec);
            match net.platform(eco, rec.platform, now, &req) {
                Ok(resp) if resp.status == Status::Ok => {
                    match observe(timeline, rec.platform, &resp.body, &req, &mut pii) {
                        Ok(status) => timeline.set_last_status(status),
                        Err(err) => {
                            // The backfill fetch came back hostile too:
                            // this was the last retry, so quarantine it
                            // and censor the day.
                            let key = rec.invite.dedup_key();
                            let at = Provenance {
                                service: service_name(rec.platform),
                                req: &req,
                                group: &key,
                                day,
                            };
                            at.file(&mut self.quarantine, &err, &resp.body);
                            self.gaps.push(i, day);
                        }
                    }
                }
                Ok(resp) if resp.status == Status::Gone => {
                    timeline.set_last_status(ObservedStatus::Revoked);
                    self.mark_terminal(i);
                }
                _ => self.gaps.push(i, day),
            }
        }
    }

    /// Borrow the timeline of the group at `slot` (its discovery index /
    /// interned sym).
    pub fn timeline_at(&self, slot: usize) -> Option<&GroupTimeline> {
        self.timelines.get(slot)
    }
}

/// Monitor probe for one group: the landing request, invite code
/// included (the landing page echoes it, so a spliced body is
/// detectable). Built once per group-day and shared by the daily round,
/// the same-day re-fetch, and the backfill retry.
fn probe(rec: &DiscoveryRecord) -> Request {
    let endpoint = match rec.platform {
        PlatformKind::WhatsApp => "whatsapp/landing",
        PlatformKind::Telegram => "telegram/web",
        PlatformKind::Discord => "discord/api/invite",
    };
    // lint:allow(D10) Request::with takes ownership of the wire value; one short invite code per probe
    Request::new(endpoint).with("code", rec.invite.code.clone())
}

/// A fully decoded, validated landing page — everything `run_day` may
/// write to a timeline, extracted *before* any mutation so a body that
/// fails validation halfway through cannot leave a partial write (e.g. a
/// title from a document whose size field was garbage).
/// String fields borrow the fetched body, so the steady-state daily probe of an already-known group allocates
/// nothing for them; timelines copy only on first observation.
struct Landing<'a> {
    size: u32,
    online: u32,
    title: Option<&'a str>,
    tg_kind: Option<&'a str>,
    dc_created_day: Option<i64>,
    dc_creator: Option<u32>,
    wa_creator_cc: Option<&'a str>,
    wa_creator_phone: Option<&'a str>,
}

/// Decode one landing-page body. Pure: envelope and kind check, identity
/// echo check (the page echoes the invite `code` it describes — a
/// mismatch means a cross-document splice), then per-platform field
/// extraction. Errors carry the exact [`WireError`]/protocol cause for
/// the quarantine ledger.
fn decode_landing<'a>(
    body: &'a str,
    platform: PlatformKind,
    req: &Request,
) -> Result<Landing<'a>, CoreError> {
    let doc = WireDoc::parse_as(
        body,
        match platform {
            PlatformKind::WhatsApp => "wa-landing",
            PlatformKind::Telegram => "tg-web",
            PlatformKind::Discord => "dc-invite",
        },
    )?;
    verify_echoes(&doc, req)?;
    let size = doc.req_u64("size")? as u32;
    let online = doc.opt_u64("online")?.unwrap_or(0) as u32;
    let title = doc.get_in_body("title");
    let mut landing = Landing {
        size,
        online,
        title,
        tg_kind: None,
        dc_created_day: None,
        dc_creator: None,
        wa_creator_cc: None,
        wa_creator_phone: None,
    };
    match platform {
        PlatformKind::WhatsApp => {
            landing.wa_creator_cc = Some(doc.req_in_body("creator_cc")?);
            landing.wa_creator_phone = Some(doc.req_in_body("creator_phone")?);
        }
        PlatformKind::Telegram => {
            landing.tg_kind = doc.get_in_body("kind");
        }
        PlatformKind::Discord => {
            landing.dc_created_day = Some(doc.req_i64("created_day")?);
            landing.dc_creator = Some(doc.req_u64("creator")? as u32);
        }
    }
    Ok(landing)
}

/// Decode one landing-page body with [`decode_landing`] and, only if it
/// validates, apply it to a timeline: first-seen metadata, platform
/// specifics, PII accounting. Returns the day's observed status. Shared
/// by the daily round, the re-fetch and the backfill retry so all three
/// record exactly the same facts.
fn observe(
    timeline: &mut GroupTimeline,
    platform: PlatformKind,
    body: &str,
    req: &Request,
    pii: &mut Option<&mut PiiStore>,
) -> Result<ObservedStatus, CoreError> {
    let landing = decode_landing(body, platform, req)?;
    if timeline.title.is_none() {
        timeline.title = landing.title.map(str::to_string);
    }
    match platform {
        PlatformKind::WhatsApp => {
            if timeline.wa_creator_cc.is_none() {
                timeline.wa_creator_cc = landing.wa_creator_cc.map(str::to_string);
            }
            if timeline.wa_creator_hash.is_none() {
                timeline.wa_creator_hash = landing.wa_creator_phone.map(crate::pii::hash_phone);
            }
            if let (Some(pii), Some(phone), Some(cc)) = (
                pii.as_deref_mut(),
                landing.wa_creator_phone,
                landing.wa_creator_cc,
            ) {
                pii.record_wa_creator(phone, cc);
            }
        }
        PlatformKind::Telegram => {
            if timeline.tg_kind.is_none() {
                timeline.tg_kind = landing.tg_kind.map(str::to_string);
            }
        }
        PlatformKind::Discord => {
            if timeline.dc_created_day.is_none() {
                timeline.dc_created_day = landing.dc_created_day;
                timeline.dc_creator = landing.dc_creator;
            }
        }
    }
    Ok(ObservedStatus::Alive {
        size: landing.size,
        online: landing.online,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatlens_simnet::time::SimDuration;
    use chatlens_workload::ScenarioConfig;

    fn setup() -> (Ecosystem, Net, Discovery, Monitor) {
        let eco = Ecosystem::build(ScenarioConfig::tiny());
        let start = eco.window.start_time();
        let net = Net::reliable(11, start);
        let disco = Discovery::new(start);
        (eco, net, disco, Monitor::new())
    }

    #[test]
    fn daily_rounds_build_timelines() {
        let (mut eco, mut net, mut disco, mut monitor) = setup();
        let t0 = eco.window.start_time() + SimDuration::hours(1);
        disco.run_search(&mut net, &mut eco, t0);
        let n_groups = disco.group_count();
        assert!(n_groups > 0);
        for day in 0..3u32 {
            let t = eco.window.start_time()
                + SimDuration::days(u64::from(day))
                + SimDuration::hours(23);
            monitor.run_day(&mut net, &mut eco, &disco, t, day, None);
        }
        assert_eq!(monitor.timelines.len(), n_groups);
        // Groups observed alive on day 0 have three observations; revoked
        // ones stop early.
        for (_, tl) in monitor.timelines.iter() {
            assert!(!tl.is_empty());
            assert!(tl.len() <= 3);
            if tl.len() < 3 {
                assert!(tl.saw_revoked() || tl.first().is_none());
            }
            // Days are strictly increasing.
            assert!(tl.days().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn revoked_groups_stop_being_polled() {
        let (mut eco, mut net, mut disco, mut monitor) = setup();
        let t0 = eco.window.start_time() + SimDuration::hours(1);
        disco.run_search(&mut net, &mut eco, t0);
        for day in 0..2u32 {
            let t = eco.window.start_time()
                + SimDuration::days(u64::from(day))
                + SimDuration::hours(23);
            monitor.run_day(&mut net, &mut eco, &disco, t, day, None);
        }
        for (_, tl) in monitor.timelines.iter() {
            if let Some(rd) = tl.revoked_day() {
                assert_eq!(
                    tl.last().unwrap().day,
                    rd,
                    "no observations after revocation"
                );
            }
        }
    }

    #[test]
    fn discord_metadata_includes_creation_date() {
        let (mut eco, mut net, mut disco, mut monitor) = setup();
        let t0 = eco.window.start_time() + SimDuration::hours(1);
        disco.run_search(&mut net, &mut eco, t0);
        monitor.run_day(
            &mut net,
            &mut eco,
            &disco,
            t0 + SimDuration::hours(22),
            0,
            None,
        );
        let mut dc_alive = 0;
        for (slot, rec) in disco.groups.iter().enumerate() {
            if rec.platform != PlatformKind::Discord {
                continue;
            }
            let tl = monitor.timeline_at(slot).unwrap();
            if matches!(
                tl.first().map(|o| o.status),
                Some(ObservedStatus::Alive { .. })
            ) {
                assert!(tl.dc_created_day.is_some());
                assert!(tl.dc_creator.is_some());
                dc_alive += 1;
            }
        }
        assert!(dc_alive > 0, "some Discord invites alive on day 0");
    }

    #[test]
    fn pii_harvest_collects_creator_hashes() {
        let (mut eco, mut net, mut disco, mut monitor) = setup();
        let mut pii = PiiStore::new();
        let t0 = eco.window.start_time() + SimDuration::hours(1);
        disco.run_search(&mut net, &mut eco, t0);
        monitor.run_day(
            &mut net,
            &mut eco,
            &disco,
            t0 + SimDuration::hours(22),
            0,
            Some(&mut pii),
        );
        let wa_alive = disco
            .groups
            .iter()
            .enumerate()
            .filter(|(_, r)| r.platform == PlatformKind::WhatsApp)
            .filter(|(slot, _)| {
                monitor
                    .timeline_at(*slot)
                    .is_some_and(|t| !t.dead_on_arrival())
            })
            .count();
        assert!(wa_alive > 0);
        assert!(!pii.wa_creator_hashes.is_empty());
        assert!(
            pii.wa_creator_hashes.len() <= wa_alive,
            "at most one hash per alive group (creators may repeat)"
        );
        assert!(!pii.wa_creator_countries.is_empty());
    }

    #[test]
    fn size_span_tracks_growth() {
        let mut tl = GroupTimeline::default();
        tl.push(
            0,
            ObservedStatus::Alive {
                size: 10,
                online: 0,
            },
        );
        tl.push(1, ObservedStatus::Failed);
        tl.push(
            2,
            ObservedStatus::Alive {
                size: 25,
                online: 3,
            },
        );
        assert_eq!(tl.size_span(), Some((10, 25)));
        assert_eq!(tl.alive_days(), 2);
        assert!(!tl.dead_on_arrival());
        assert!(!tl.saw_revoked());
    }

    #[test]
    fn empty_timeline_helpers() {
        let tl = GroupTimeline::default();
        assert!(tl.first().is_none());
        assert_eq!(tl.size_span(), None);
        assert_eq!(tl.revoked_day(), None);
        assert!(!tl.dead_on_arrival());
    }

    #[test]
    fn columnar_lookups_binary_search_the_day_column() {
        let mut tl = GroupTimeline::default();
        for day in [2u32, 5, 9, 11] {
            tl.push(
                day,
                ObservedStatus::Alive {
                    size: day * 10,
                    online: 0,
                },
            );
        }
        assert_eq!(
            tl.status_on(5),
            Some(ObservedStatus::Alive {
                size: 50,
                online: 0
            })
        );
        assert_eq!(tl.status_on(6), None);
        let (days, statuses) = tl.through(9);
        assert_eq!(days, &[2, 5, 9]);
        assert_eq!(statuses.len(), 3);
        let all: Vec<Observation> = tl.iter().collect();
        assert_eq!(all.len(), 4);
        assert_eq!(all[3].day, 11);
    }

    #[test]
    fn dense_stores_ignore_padding_in_equality() {
        // A store padded past its last observed slot compares equal to
        // one that grew exactly to it.
        let mut tl = GroupTimeline::default();
        tl.push(0, ObservedStatus::Failed);
        let mut padded = TimelineStore::new();
        *padded.ensure(5) = tl.clone();
        padded.slots.push(None);
        let mut grown = TimelineStore::new();
        *grown.ensure(5) = tl;
        assert_eq!(padded, grown);
        assert_eq!(padded.len(), 1);
        assert!(padded.get(0).is_none());

        let mut g = GapLedger::new();
        let mut h = GapLedger::new();
        g.push(3, 7);
        h.push(3, 7);
        h.push(9, 1);
        assert_ne!(g, h);
        h.slots[9].clear();
        assert_eq!(g, h, "an emptied slot is padding");
        assert_eq!(g.group_count(), 1);
        assert_eq!(g.total_days(), 1);
        assert_eq!(g.get(3), Some(&[7u32][..]));
        assert_eq!(g.get(4), None);
    }
}
