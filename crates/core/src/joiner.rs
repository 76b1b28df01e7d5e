//! Joining sampled groups and collecting their contents (§3.3).
//!
//! The paper joined 416 WhatsApp groups, 100 Telegram chats, and 100
//! Discord servers, selected uniformly at random, under each platform's
//! constraints:
//!
//! * WhatsApp bans an account after ~250–300 joins, so the joiner rotates
//!   to a fresh account when the platform starts refusing.
//! * Discord rejects bot self-joins; the joiner demonstrates that (one
//!   probing bot attempt) and proceeds with a user account, capped at 100
//!   servers per account.
//! * Telegram's API flood control throttles joins and history fetches;
//!   the transport client absorbs `FLOOD_WAIT`s with retry + backoff.
//!
//! After joining, the collector fetches member lists (where the platform
//! allows), user profiles, and message histories, feeding every piece of
//! PII through the hashing store.

use crate::discovery::Discovery;
use crate::error::CoreError;
use crate::net::Net;
use crate::pii::{country_of, hash_phone, PiiStore};
use crate::quarantine::{day_within, service_name, verify_echoes, QuarantineEntry};
use chatlens_platforms::id::{GroupId, PlatformKind};
use chatlens_platforms::message::Message;
use chatlens_platforms::service::parse_message;
use chatlens_platforms::wire::WireDoc;
use chatlens_simnet::rng::Rng;
use chatlens_simnet::time::SimTime;

/// How the join sample is drawn from the discovered groups (the paper
/// samples uniformly, §3.3; size-biased sampling is the ablation
/// DESIGN.md calls out — it inflates message-volume estimates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Uniformly random over discovered groups (the paper's choice).
    #[default]
    Uniform,
    /// Largest observed groups first (requires monitor sizes).
    SizeBiased,
}
use chatlens_simnet::transport::{Request, Status};
use chatlens_workload::Ecosystem;

/// A member as the collector recorded it (already ethics-scrubbed: phones
/// are hashes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberRecord {
    /// Platform-local user id, when the platform exposes one (Telegram,
    /// Discord); WhatsApp identifies members only by phone.
    pub user_id: Option<u32>,
    /// SHA-256 of the member's E.164 phone number, if exposed.
    pub phone_hash: Option<String>,
    /// Country code derived from the number before hashing.
    pub country: Option<String>,
    /// Connected accounts (Discord).
    pub linked: Vec<String>,
}

/// One joined group and everything collected from inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinedGroup {
    /// The platform.
    pub platform: PlatformKind,
    /// Dedup key of the invite it was joined through.
    pub key: String,
    /// Platform-local group id returned by the join call.
    pub group_id: GroupId,
    /// When the collector joined.
    pub joined_at: SimTime,
    /// Creation day number, once known (WhatsApp/Telegram reveal it only
    /// after joining; Discord already had it from the invite API).
    pub created_day: Option<i64>,
    /// Members with any collected information.
    pub members: Vec<MemberRecord>,
    /// Whether a member list was available at all (§3.3: hidden on most
    /// Telegram chats; never available to Discord collectors).
    pub member_list_available: bool,
    /// Collected messages.
    pub messages: Vec<Message>,
}

/// A phone number as it comes off the wire, reduced on the spot to what
/// the collector keeps: its hash (computed once, shared by the PII store
/// and the member record) and its country.
struct PhoneSeen {
    hash: String,
    country: Option<&'static str>,
}

impl PhoneSeen {
    fn of(e164: &str) -> PhoneSeen {
        PhoneSeen {
            hash: hash_phone(e164),
            country: country_of(e164),
        }
    }
}

/// The joining/collection component.
#[derive(Default)]
pub struct Joiner {
    /// Successfully joined groups with their collected contents.
    pub joined: Vec<JoinedGroup>,
    /// Accounts opened per platform (index = [`PlatformKind::index`]).
    pub accounts_used: [u16; 3],
    /// Join attempts refused because the URL was dead by join time.
    pub dead_at_join: u64,
    /// Whether the Discord bot-join probe was rejected (it always is;
    /// recorded to mirror §3.3's constraint).
    pub bot_join_rejected: bool,
    /// Collection fetches lost to transport failures (after retries) —
    /// the campaign skips and carries on, like any crawler.
    pub failed_fetches: u64,
    /// Rejected join/collection bodies with provenance (see
    /// [`crate::quarantine`]). A doubly-corrupted fetch is counted in
    /// `failed_fetches` and skipped, exactly like a transport loss.
    pub quarantine: Vec<QuarantineEntry>,
}

impl Joiner {
    /// A fresh joiner.
    pub fn new() -> Joiner {
        Joiner::default()
    }

    /// Join up to `budget` sampled discovered groups on `platform`. Dead
    /// URLs are skipped and resampled, mirroring the paper's join of live
    /// public groups. `observed_size` supplies monitor sizes for the
    /// size-biased ablation strategy (ignored under `Uniform`).
    #[allow(clippy::too_many_arguments)]
    pub fn join_phase_with(
        &mut self,
        net: &mut Net,
        eco: &mut Ecosystem,
        discovery: &Discovery,
        platform: PlatformKind,
        budget: u64,
        now: SimTime,
        rng: &mut Rng,
        strategy: JoinStrategy,
        observed_size: &dyn Fn(&str) -> Option<u32>,
    ) -> Result<(), CoreError> {
        let pidx = platform.index();
        let (join_ep, join_doc) = match platform {
            PlatformKind::WhatsApp => ("whatsapp/join", "wa-join"),
            PlatformKind::Telegram => ("telegram/api/join", "tg-join"),
            PlatformKind::Discord => ("discord/api/join", "dc-join"),
        };
        // Candidate order: uniformly shuffled (the paper), or largest
        // observed first (ablation).
        let mut candidates: Vec<&crate::discovery::DiscoveryRecord> =
            discovery.groups_of(platform).collect();
        rng.shuffle(&mut candidates);
        if strategy == JoinStrategy::SizeBiased {
            candidates.sort_by_key(|r| {
                std::cmp::Reverse(observed_size(&r.invite.dedup_key()).unwrap_or(0))
            });
        }

        let mut account = eco.platforms[pidx].create_account();
        self.accounts_used[pidx] += 1;

        // Discord: demonstrate that a bot credential cannot join (§3.3).
        if platform == PlatformKind::Discord {
            if let Some(first) = candidates.first() {
                let req = request(
                    join_ep,
                    &[
                        ("account", &account.0),
                        ("code", &first.invite.code),
                        ("actor", &"bot"),
                    ],
                );
                if let Ok(resp) = net.platform(eco, platform, now, &req) {
                    self.bot_join_rejected = resp.status == Status::Forbidden;
                }
            }
        }

        let mut joined_here = 0u64;
        // Joins are sequential in real life; pace them at one per second
        // of virtual time so server-side flood control (Telegram) sees a
        // sustainable rate instead of one infinite burst.
        let mut cursor = now;
        for rec in candidates {
            if joined_here >= budget {
                break;
            }
            cursor += chatlens_simnet::time::SimDuration::secs(1);
            let req = request(
                join_ep,
                &[("account", &account.0), ("code", &rec.invite.code)],
            );
            let resp = match net.platform(eco, platform, cursor, &req) {
                Ok(r) => r,
                Err(_) => continue,
            };
            match resp.status {
                Status::Ok => {
                    let key = rec.invite.dedup_key();
                    let day = day_within(&eco.window, cursor);
                    // A corrupted join acknowledgment is quarantined and
                    // the join retried once — acting on a hostile group
                    // id would collect some *other* group's contents.
                    let gid = match decode_join(&resp.body, join_doc, &req) {
                        Ok(gid) => Some(gid),
                        Err(err) => {
                            self.quarantine.push(QuarantineEntry::new(
                                service_name(platform),
                                &req,
                                &key,
                                day,
                                &err,
                                &resp.body,
                            ));
                            match net.platform(eco, platform, cursor, &req) {
                                Ok(r2) if r2.status == Status::Ok => {
                                    match decode_join(&r2.body, join_doc, &req) {
                                        Ok(gid) => Some(gid),
                                        Err(err2) => {
                                            self.quarantine.push(QuarantineEntry::new(
                                                service_name(platform),
                                                &req,
                                                &key,
                                                day,
                                                &err2,
                                                &r2.body,
                                            ));
                                            None
                                        }
                                    }
                                }
                                _ => None,
                            }
                        }
                    };
                    let Some(gid) = gid else {
                        // Candidate lost to corruption; move on like a
                        // dead URL — the budget goes to the next one.
                        self.failed_fetches += 1;
                        continue;
                    };
                    // The platform granted membership; materialize the
                    // group's world-side history so later collection has
                    // something to return.
                    eco.materialize_group(platform, gid);
                    self.joined.push(JoinedGroup {
                        platform,
                        key,
                        group_id: gid,
                        joined_at: cursor,
                        created_day: None,
                        members: Vec::new(),
                        member_list_available: false,
                        messages: Vec::new(),
                    });
                    joined_here += 1;
                }
                Status::Gone | Status::NotFound => {
                    self.dead_at_join += 1;
                }
                Status::Forbidden => {
                    // Join limit reached: rotate to a fresh account (the
                    // paper needed multiple phones/SIMs for WhatsApp) and
                    // retry this candidate once.
                    account = eco.platforms[pidx].create_account();
                    self.accounts_used[pidx] += 1;
                    let retry = request(
                        join_ep,
                        &[("account", &account.0), ("code", &rec.invite.code)],
                    );
                    if let Ok(r2) = net.platform(eco, platform, cursor, &retry) {
                        if r2.status == Status::Ok {
                            // Already the retry of a rotated account:
                            // quarantine a corrupt acknowledgment and move
                            // on without a further fetch.
                            match decode_join(&r2.body, join_doc, &retry) {
                                Ok(gid) => {
                                    eco.materialize_group(platform, gid);
                                    self.joined.push(JoinedGroup {
                                        platform,
                                        key: rec.invite.dedup_key(),
                                        group_id: gid,
                                        joined_at: cursor,
                                        created_day: None,
                                        members: Vec::new(),
                                        member_list_available: false,
                                        messages: Vec::new(),
                                    });
                                    joined_here += 1;
                                }
                                Err(err) => {
                                    let day = day_within(&eco.window, cursor);
                                    self.quarantine.push(QuarantineEntry::new(
                                        service_name(platform),
                                        &retry,
                                        &rec.invite.dedup_key(),
                                        day,
                                        &err,
                                        &r2.body,
                                    ));
                                    self.failed_fetches += 1;
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Join uniformly at random (the paper's strategy, §3.3).
    #[allow(clippy::too_many_arguments)]
    pub fn join_phase(
        &mut self,
        net: &mut Net,
        eco: &mut Ecosystem,
        discovery: &Discovery,
        platform: PlatformKind,
        budget: u64,
        now: SimTime,
        rng: &mut Rng,
    ) -> Result<(), CoreError> {
        self.join_phase_with(
            net,
            eco,
            discovery,
            platform,
            budget,
            now,
            rng,
            JoinStrategy::Uniform,
            &|_| None,
        )
    }

    /// Collect member lists, profiles and message histories for every
    /// joined group, recording PII exposures.
    pub fn collect_phase(
        &mut self,
        net: &mut Net,
        eco: &mut Ecosystem,
        now: SimTime,
        pii: &mut PiiStore,
    ) -> Result<(), CoreError> {
        // Collection is a long sequential crawl: each request advances a
        // shared virtual cursor so server-side flood control (Telegram's
        // FLOOD_WAIT) experiences a sustainable rate, exactly as a real
        // crawler pacing itself would.
        let mut cursor = now;
        // The account that joined each group: accounts were rotated in
        // join order, and group membership is per-account, so replay the
        // same resolution the platform uses.
        for jg in &mut self.joined {
            let platform = jg.platform;
            let account = find_member_account(eco, jg);
            let Some(account) = account else {
                continue; // defensive: join bookkeeping mismatch
            };
            match platform {
                PlatformKind::WhatsApp => {
                    collect_whatsapp(
                        net,
                        eco,
                        jg,
                        account,
                        &mut cursor,
                        pii,
                        &mut self.failed_fetches,
                        &mut self.quarantine,
                    )?;
                }
                PlatformKind::Telegram => {
                    collect_telegram(
                        net,
                        eco,
                        jg,
                        account,
                        &mut cursor,
                        pii,
                        &mut self.failed_fetches,
                        &mut self.quarantine,
                    )?;
                }
                PlatformKind::Discord => {
                    collect_discord(
                        net,
                        eco,
                        jg,
                        account,
                        &mut cursor,
                        pii,
                        &mut self.failed_fetches,
                        &mut self.quarantine,
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// Find the collector account that holds membership of `jg`.
fn find_member_account(eco: &Ecosystem, jg: &JoinedGroup) -> Option<u16> {
    let p = &eco.platforms[jg.platform.index()];
    (0..p.account_count() as u16).find(|&a| {
        p.joined_at(chatlens_platforms::id::AccountId(a), jg.group_id)
            .is_some()
    })
}

/// Build a request from borrowed parameter values.
fn request(ep: &'static str, params: &[(&'static str, &dyn std::fmt::Display)]) -> Request {
    params.iter().fold(Request::new(ep), |req, &(key, value)| {
        // lint:allow(D10) `Request` owns its parameters: one copy per fetch, never per message
        req.with(key, value.to_string())
    })
}

/// Advance the collection cursor by one pacing step (1 s per request).
fn tick(cursor: &mut SimTime) -> SimTime {
    *cursor += chatlens_simnet::time::SimDuration::secs(1);
    *cursor
}

fn parse_messages(doc: &chatlens_platforms::wire::WireView<'_>) -> Result<Vec<Message>, CoreError> {
    // Message pages are all `msg` fields bar a header or two.
    let mut out = Vec::with_capacity(doc.len());
    for raw in doc.get_all("msg") {
        let Some(m) = parse_message(raw) else {
            // lint:allow(D10) error-path only: a bad message rejects the whole page
            return Err(CoreError::Protocol(format!("bad message: {raw:?}")));
        };
        out.push(m);
    }
    Ok(out)
}

/// Decode a join acknowledgment: envelope, identity echo (the response
/// echoes the invite `code` it granted — a spliced acknowledgment would
/// hand back a *different group's* id), then the group id itself.
fn decode_join(body: &str, join_doc: &'static str, req: &Request) -> Result<GroupId, CoreError> {
    let doc = WireDoc::parse_as(body, join_doc)?;
    verify_echoes(&doc, req)?;
    Ok(GroupId(doc.req_u64("group")? as u32))
}

/// Outcome of one quarantine-aware collection fetch.
enum Fetched<T> {
    /// Body decoded and validated.
    Decoded(T),
    /// The server answered with a non-OK status (hidden list, gone…).
    Denied,
    /// Transport failure, or both the fetch and its bounded re-fetch came
    /// back corrupted. Already counted in `failed`.
    Lost,
}

/// Fetch `req` and decode its body with `decode`, quarantining a hostile
/// body (with provenance) and re-fetching once before giving it up as
/// [`Fetched::Lost`]. Every attempt ticks the pacing cursor like any
/// other collection request. `decode` must be pure — nothing is applied
/// until the whole body has validated.
#[allow(clippy::too_many_arguments)]
fn fetch_decoded<T>(
    net: &mut Net,
    eco: &mut Ecosystem,
    platform: PlatformKind,
    cursor: &mut SimTime,
    req: &Request,
    group: &str,
    quarantine: &mut Vec<QuarantineEntry>,
    failed: &mut u64,
    decode: &dyn Fn(&str) -> Result<T, CoreError>,
) -> Fetched<T> {
    let Ok(resp) = net.platform(eco, platform, tick(cursor), req) else {
        *failed += 1;
        return Fetched::Lost;
    };
    if resp.status != Status::Ok {
        return Fetched::Denied;
    }
    let day = day_within(&eco.window, *cursor);
    match decode(&resp.body) {
        Ok(v) => Fetched::Decoded(v),
        Err(err) => {
            quarantine.push(QuarantineEntry::new(
                service_name(platform),
                req,
                group,
                day,
                &err,
                &resp.body,
            ));
            let Ok(r2) = net.platform(eco, platform, tick(cursor), req) else {
                *failed += 1;
                return Fetched::Lost;
            };
            if r2.status != Status::Ok {
                return Fetched::Denied;
            }
            match decode(&r2.body) {
                Ok(v) => Fetched::Decoded(v),
                Err(err2) => {
                    quarantine.push(QuarantineEntry::new(
                        service_name(platform),
                        req,
                        group,
                        day,
                        &err2,
                        &r2.body,
                    ));
                    *failed += 1;
                    Fetched::Lost
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn collect_whatsapp(
    net: &mut Net,
    eco: &mut Ecosystem,
    jg: &mut JoinedGroup,
    account: u16,
    cursor: &mut SimTime,
    pii: &mut PiiStore,
    failed: &mut u64,
    quarantine: &mut Vec<QuarantineEntry>,
) -> Result<(), CoreError> {
    let base = |ep: &'static str| request(ep, &[("account", &account), ("group", &jg.group_id.0)]);
    // Member phone numbers + creation date (visible only after joining).
    // Transport failures and doubly-corrupted bodies (after retries) cost
    // this group's data, not the campaign.
    let req = base("whatsapp/members");
    let decode = |body: &str| -> Result<(i64, Vec<PhoneSeen>), CoreError> {
        let doc = WireDoc::parse_as(body, "wa-members")?;
        verify_echoes(&doc, &req)?;
        let created_day = doc.req_i64("created_day")?;
        let phones = doc.get_all("member").map(PhoneSeen::of).collect();
        Ok((created_day, phones))
    };
    match fetch_decoded(
        net,
        eco,
        PlatformKind::WhatsApp,
        cursor,
        &req,
        &jg.key,
        quarantine,
        failed,
        &decode,
    ) {
        Fetched::Decoded((created_day, phones)) => {
            jg.created_day = Some(created_day);
            jg.member_list_available = true;
            for phone in phones {
                pii.record_wa_member(&phone.hash);
                jg.members.push(MemberRecord {
                    user_id: None,
                    phone_hash: Some(phone.hash),
                    country: phone.country.map(str::to_string),
                    linked: Vec::new(),
                });
            }
        }
        Fetched::Denied => {}
        Fetched::Lost => return Ok(()),
    }
    // Messages since the join date.
    let req = base("whatsapp/messages");
    let decode = |body: &str| -> Result<Vec<Message>, CoreError> {
        let doc = WireDoc::parse_as(body, "wa-messages")?;
        verify_echoes(&doc, &req)?;
        parse_messages(&doc)
    };
    if let Fetched::Decoded(messages) = fetch_decoded(
        net,
        eco,
        PlatformKind::WhatsApp,
        cursor,
        &req,
        &jg.key,
        quarantine,
        failed,
        &decode,
    ) {
        jg.messages = messages;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn collect_telegram(
    net: &mut Net,
    eco: &mut Ecosystem,
    jg: &mut JoinedGroup,
    account: u16,
    cursor: &mut SimTime,
    pii: &mut PiiStore,
    failed: &mut u64,
    quarantine: &mut Vec<QuarantineEntry>,
) -> Result<(), CoreError> {
    let base = |ep: &'static str| request(ep, &[("account", &account), ("group", &jg.group_id.0)]);
    // Full history since creation.
    let req = base("telegram/api/history");
    let decode = |body: &str| -> Result<(i64, Vec<Message>), CoreError> {
        let doc = WireDoc::parse_as(body, "tg-history")?;
        verify_echoes(&doc, &req)?;
        let created_day = doc.req_i64("created_day")?;
        let messages = parse_messages(&doc)?;
        Ok((created_day, messages))
    };
    match fetch_decoded(
        net,
        eco,
        PlatformKind::Telegram,
        cursor,
        &req,
        &jg.key,
        quarantine,
        failed,
        &decode,
    ) {
        Fetched::Decoded((created_day, messages)) => {
            jg.created_day = Some(created_day);
            jg.messages = messages;
        }
        Fetched::Denied => {}
        Fetched::Lost => return Ok(()),
    }
    // Member list, if the admins left it visible.
    let req = base("telegram/api/members");
    let decode = |body: &str| -> Result<Vec<u32>, CoreError> {
        let doc = WireDoc::parse_as(body, "tg-members")?;
        verify_echoes(&doc, &req)?;
        let mut ids = Vec::new();
        for raw in doc.get_all("member") {
            // A garbled id is corruption, not data: reject the whole
            // body (silently skipping would undercount members from a
            // document we know is damaged).
            let Ok(id) = raw.parse::<u32>() else {
                // lint:allow(D10) error-path only: a bad member id rejects the whole page
                return Err(CoreError::Protocol(format!("bad member id: {raw:?}")));
            };
            ids.push(id);
        }
        Ok(ids)
    };
    let user_ids: Vec<u32> = match fetch_decoded(
        net,
        eco,
        PlatformKind::Telegram,
        cursor,
        &req,
        &jg.key,
        quarantine,
        failed,
        &decode,
    ) {
        Fetched::Decoded(ids) => {
            jg.member_list_available = true;
            ids
        }
        Fetched::Denied => {
            // Hidden list (§3.3): fall back to the users who posted at
            // least one message, exactly as the paper did (§6).
            let mut senders: Vec<u32> = jg.messages.iter().map(|m| m.sender.0).collect();
            senders.sort_unstable();
            senders.dedup();
            senders
        }
        Fetched::Lost => return Ok(()),
    };
    // Profile lookups: phones only for the opt-in sliver.
    for id in user_ids {
        let req = request("telegram/api/user", &[("account", &account), ("id", &id)]);
        let decode = |body: &str| -> Result<Option<PhoneSeen>, CoreError> {
            let doc = WireDoc::parse_as(body, "tg-user")?;
            verify_echoes(&doc, &req)?;
            Ok(doc.get("phone").map(PhoneSeen::of))
        };
        let Fetched::Decoded(phone) = fetch_decoded(
            net,
            eco,
            PlatformKind::Telegram,
            cursor,
            &req,
            &jg.key,
            quarantine,
            failed,
            &decode,
        ) else {
            continue;
        };
        let (phone_hash, country) = phone.map_or((None, None), |p| {
            (Some(p.hash), p.country.map(str::to_string))
        });
        pii.record_tg_user(id, phone_hash.as_deref());
        jg.members.push(MemberRecord {
            user_id: Some(id),
            phone_hash,
            country,
            linked: Vec::new(),
        });
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn collect_discord(
    net: &mut Net,
    eco: &mut Ecosystem,
    jg: &mut JoinedGroup,
    account: u16,
    cursor: &mut SimTime,
    pii: &mut PiiStore,
    failed: &mut u64,
    quarantine: &mut Vec<QuarantineEntry>,
) -> Result<(), CoreError> {
    let base = |ep: &'static str| request(ep, &[("account", &account), ("group", &jg.group_id.0)]);
    let req = base("discord/api/messages");
    let decode = |body: &str| -> Result<(i64, Vec<Message>), CoreError> {
        let doc = WireDoc::parse_as(body, "dc-messages")?;
        verify_echoes(&doc, &req)?;
        let created_day = doc.req_i64("created_day")?;
        let messages = parse_messages(&doc)?;
        Ok((created_day, messages))
    };
    match fetch_decoded(
        net,
        eco,
        PlatformKind::Discord,
        cursor,
        &req,
        &jg.key,
        quarantine,
        failed,
        &decode,
    ) {
        Fetched::Decoded((created_day, messages)) => {
            jg.created_day = Some(created_day);
            jg.messages = messages;
        }
        Fetched::Denied => {}
        Fetched::Lost => return Ok(()),
    }
    // No member list for user-level collectors (§3.3): profiles are
    // fetched for users who posted at least one message.
    let mut senders: Vec<u32> = jg.messages.iter().map(|m| m.sender.0).collect();
    senders.sort_unstable();
    senders.dedup();
    for id in senders {
        let req = request("discord/api/user", &[("id", &id)]);
        let decode = |body: &str| -> Result<Vec<String>, CoreError> {
            let doc = WireDoc::parse_as(body, "dc-user")?;
            verify_echoes(&doc, &req)?;
            Ok(doc.get_all("linked").map(str::to_string).collect())
        };
        let Fetched::Decoded(linked) = fetch_decoded(
            net,
            eco,
            PlatformKind::Discord,
            cursor,
            &req,
            &jg.key,
            quarantine,
            failed,
            &decode,
        ) else {
            continue;
        };
        pii.record_dc_user(id, &linked);
        jg.members.push(MemberRecord {
            user_id: Some(id),
            phone_hash: None,
            country: None,
            linked,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatlens_simnet::time::SimDuration;
    use chatlens_workload::ScenarioConfig;

    fn setup_with_discovery() -> (Ecosystem, Net, Discovery) {
        let eco = Ecosystem::build(ScenarioConfig::tiny());
        let start = eco.window.start_time();
        let mut net = Net::reliable(21, start);
        let mut disco = Discovery::new(start);
        let mut eco = eco;
        let t0 = start + SimDuration::hours(1);
        disco.run_search(&mut net, &mut eco, t0).unwrap();
        (eco, net, disco)
    }

    #[test]
    fn joins_live_groups_up_to_budget() {
        let (mut eco, mut net, disco) = setup_with_discovery();
        let mut joiner = Joiner::new();
        let mut rng = Rng::new(1);
        let now = eco.window.start_time() + SimDuration::days(2);
        joiner
            .join_phase(
                &mut net,
                &mut eco,
                &disco,
                PlatformKind::Telegram,
                5,
                now,
                &mut rng,
            )
            .unwrap();
        assert_eq!(joiner.joined.len(), 5);
        for jg in &joiner.joined {
            assert_eq!(jg.platform, PlatformKind::Telegram);
            assert!(
                eco.platform(PlatformKind::Telegram)
                    .group(jg.group_id)
                    .history
                    .is_some(),
                "joined group materialized"
            );
        }
    }

    #[test]
    fn discord_bot_probe_is_rejected() {
        let (mut eco, mut net, disco) = setup_with_discovery();
        let mut joiner = Joiner::new();
        let mut rng = Rng::new(2);
        let now = eco.window.start_time() + SimDuration::days(1);
        joiner
            .join_phase(
                &mut net,
                &mut eco,
                &disco,
                PlatformKind::Discord,
                3,
                now,
                &mut rng,
            )
            .unwrap();
        assert!(joiner.bot_join_rejected, "bots cannot self-join (§3.3)");
        assert!(joiner.dead_at_join > 0, "many Discord invites are dead");
    }

    #[test]
    fn whatsapp_collection_yields_hashed_phones() {
        let (mut eco, mut net, disco) = setup_with_discovery();
        let mut joiner = Joiner::new();
        let mut pii = PiiStore::new();
        let mut rng = Rng::new(3);
        let now = eco.window.start_time() + SimDuration::days(2);
        joiner
            .join_phase(
                &mut net,
                &mut eco,
                &disco,
                PlatformKind::WhatsApp,
                4,
                now,
                &mut rng,
            )
            .unwrap();
        let end = eco
            .window
            .end_time()
            .checked_sub(SimDuration::hours(1))
            .unwrap();
        joiner
            .collect_phase(&mut net, &mut eco, end, &mut pii)
            .unwrap();
        assert!(!joiner.joined.is_empty());
        let mut saw_member = false;
        for jg in &joiner.joined {
            assert!(jg.member_list_available, "WhatsApp always shows members");
            assert!(jg.created_day.is_some(), "creation date visible post-join");
            for m in &jg.members {
                saw_member = true;
                let h = m.phone_hash.as_ref().expect("every member has a phone");
                assert_eq!(h.len(), 64, "stored as SHA-256, not a number");
                assert!(m.country.is_some());
            }
        }
        assert!(saw_member);
        assert!(!pii.wa_member_hashes.is_empty());
    }

    #[test]
    fn telegram_hidden_lists_fall_back_to_senders() {
        let (mut eco, mut net, disco) = setup_with_discovery();
        let mut joiner = Joiner::new();
        let mut pii = PiiStore::new();
        let mut rng = Rng::new(4);
        let now = eco.window.start_time() + SimDuration::days(2);
        joiner
            .join_phase(
                &mut net,
                &mut eco,
                &disco,
                PlatformKind::Telegram,
                12,
                now,
                &mut rng,
            )
            .unwrap();
        let end = eco
            .window
            .end_time()
            .checked_sub(SimDuration::hours(1))
            .unwrap();
        joiner
            .collect_phase(&mut net, &mut eco, end, &mut pii)
            .unwrap();
        let hidden = joiner
            .joined
            .iter()
            .filter(|j| !j.member_list_available)
            .count();
        let visible = joiner.joined.len() - hidden;
        assert!(hidden > 0, "most Telegram lists are hidden");
        // Visible-list groups report more members than they have senders.
        let _ = visible;
        assert!(!pii.tg_users_observed.is_empty());
        // Opt-in phones are rare but the rate is tiny, not guaranteed >0
        // in a tiny scenario; just check the bound.
        assert!(pii.tg_phone_hashes.len() <= pii.tg_users_observed.len());
    }

    #[test]
    fn discord_collection_yields_linked_accounts() {
        let (mut eco, mut net, disco) = setup_with_discovery();
        let mut joiner = Joiner::new();
        let mut pii = PiiStore::new();
        let mut rng = Rng::new(5);
        let now = eco.window.start_time() + SimDuration::days(1);
        joiner
            .join_phase(
                &mut net,
                &mut eco,
                &disco,
                PlatformKind::Discord,
                8,
                now,
                &mut rng,
            )
            .unwrap();
        let end = eco
            .window
            .end_time()
            .checked_sub(SimDuration::hours(1))
            .unwrap();
        joiner
            .collect_phase(&mut net, &mut eco, end, &mut pii)
            .unwrap();
        assert!(!joiner.joined.is_empty());
        assert!(!pii.dc_users_observed.is_empty());
        let rate = pii.dc_link_rate();
        assert!((0.1..=0.55).contains(&rate), "link rate {rate}");
        // No phone numbers on Discord, ever.
        for jg in &joiner.joined {
            assert!(jg.members.iter().all(|m| m.phone_hash.is_none()));
        }
    }

    #[test]
    fn account_rotation_on_join_limits() {
        // Force a tiny join limit by using Discord (limit 100) with a
        // budget above it.
        let (mut eco, mut net, disco) = setup_with_discovery();
        let n_discord_alive = disco.groups_of(PlatformKind::Discord).count();
        if n_discord_alive < 110 {
            // tiny scenario may not have enough groups; skip gracefully
            return;
        }
        let mut joiner = Joiner::new();
        let mut rng = Rng::new(6);
        let now = eco.window.start_time() + SimDuration::days(1);
        joiner
            .join_phase(
                &mut net,
                &mut eco,
                &disco,
                PlatformKind::Discord,
                150,
                now,
                &mut rng,
            )
            .unwrap();
        if joiner.joined.len() > 100 {
            assert!(joiner.accounts_used[PlatformKind::Discord.index()] > 1);
        }
    }
}
