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
use crate::quarantine::{
    day_within, service_name, verify_echoes, Fate, Provenance, QuarantineEntry,
};
use chatlens_platforms::id::{GroupId, PlatformKind};
use chatlens_platforms::message::Message;
use chatlens_platforms::service::{message_page_kind, parse_message, scan_message_page};
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
#[derive(Debug, Clone, Default)]
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
    ) {
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
            let day = day_within(&eco.window, cursor);
            let (gid, key) = match resp.status {
                // A corrupted join acknowledgment is quarantined and the
                // join retried once — acting on a hostile group id would
                // collect some *other* group's contents.
                Status::Ok => {
                    let key = rec.invite.dedup_key();
                    let gid = match decode_join(&resp.body, join_doc, &req) {
                        Ok(gid) => gid,
                        Err(err) => {
                            let at = Provenance {
                                service: service_name(platform),
                                req: &req,
                                group: &key,
                                day,
                            };
                            match at.refetch_once(
                                &mut self.quarantine,
                                &resp.body,
                                &err,
                                || net.platform(eco, platform, cursor, &req),
                                |body| decode_join(body, join_doc, &req),
                            ) {
                                Fate::Decoded(gid) => gid,
                                // Candidate lost to corruption; move on like a
                                // dead URL — the budget goes to the next one.
                                Fate::Refused(_) | Fate::Lost => {
                                    self.failed_fetches += 1;
                                    continue;
                                }
                            }
                        }
                    };
                    (gid, key)
                }
                Status::Gone | Status::NotFound => {
                    self.dead_at_join += 1;
                    continue;
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
                    let Ok(r2) = net.platform(eco, platform, cursor, &retry) else {
                        continue;
                    };
                    if r2.status != Status::Ok {
                        continue;
                    }
                    let key = rec.invite.dedup_key();
                    match decode_join(&r2.body, join_doc, &retry) {
                        Ok(gid) => (gid, key),
                        Err(err) => {
                            // Already the retry of a rotated account:
                            // quarantine a corrupt acknowledgment and move
                            // on without a further fetch.
                            let at = Provenance {
                                service: service_name(platform),
                                req: &retry,
                                group: &key,
                                day,
                            };
                            at.file(&mut self.quarantine, &err, &r2.body);
                            self.failed_fetches += 1;
                            continue;
                        }
                    }
                }
                _ => continue,
            };
            // The platform granted membership; materialize the group's
            // world-side history so later collection has something to
            // return.
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
    ) {
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
        );
    }

    /// Collect member lists, profiles and message histories for every
    /// joined group, recording PII exposures.
    pub fn collect_phase(
        &mut self,
        net: &mut Net,
        eco: &mut Ecosystem,
        now: SimTime,
        pii: &mut PiiStore,
    ) {
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
                    );
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
                    );
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
                    );
                }
            }
        }
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

/// Decode `platform`'s message page fetched by `req`: the group's
/// creation day (Telegram and Discord pages carry it) and its messages.
/// A page exactly as the platform renders it goes through the one-pass
/// scanner; any other body through [`decode_message_page_general`], so a
/// damaged page is rejected with the error, and quarantined with the
/// entry, that decode has always given. The scanner's echo check covers
/// `group` only: message requests carry `account` and `group`, and a page
/// it accepts has no `account` field.
fn decode_message_page(
    body: &str,
    platform: PlatformKind,
    req: &Request,
) -> Result<(Option<i64>, Vec<Message>), CoreError> {
    if let Some(page) = req
        .param("group")
        .and_then(|group| scan_message_page(body, platform, group))
    {
        return Ok(page);
    }
    decode_message_page_general(body, platform, req)
}

/// The general decode of a message page: parse the document, check its
/// echoes, read `created_day` (not on WhatsApp) and every `msg` field.
fn decode_message_page_general(
    body: &str,
    platform: PlatformKind,
    req: &Request,
) -> Result<(Option<i64>, Vec<Message>), CoreError> {
    let doc = WireDoc::parse_as(body, message_page_kind(platform))?;
    verify_echoes(&doc, req)?;
    let created_day = match platform {
        PlatformKind::WhatsApp => None,
        PlatformKind::Telegram | PlatformKind::Discord => Some(doc.req_i64("created_day")?),
    };
    // Message pages are all `msg` fields bar a header or two.
    let mut messages = Vec::with_capacity(doc.len());
    for raw in doc.get_all("msg") {
        let Some(m) = parse_message(raw) else {
            // lint:allow(D10) error-path only: a bad message rejects the whole page
            return Err(CoreError::Protocol(format!("bad message: {raw:?}")));
        };
        messages.push(m);
    }
    Ok((created_day, messages))
}

/// Decode a join acknowledgment: envelope, identity echo (the response
/// echoes the invite `code` it granted — a spliced acknowledgment would
/// hand back a *different group's* id), then the group id itself.
fn decode_join(body: &str, join_doc: &'static str, req: &Request) -> Result<GroupId, CoreError> {
    let doc = WireDoc::parse_as(body, join_doc)?;
    verify_echoes(&doc, req)?;
    Ok(GroupId(doc.req_u64("group")? as u32))
}

/// Fetch `req` and decode its body with `decode`, sending a body that
/// fails decode through [`Provenance::refetch_once`]. Every attempt
/// ticks the pacing cursor like any other collection request, and a
/// lost fetch is counted in `failed`. `decode` must be pure — nothing is
/// applied until the whole body has validated.
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
    decode: impl Fn(&str) -> Result<T, CoreError>,
) -> Fate<T> {
    let fetched = match net.platform(eco, platform, tick(cursor), req) {
        Err(_) => Fate::Lost,
        Ok(resp) if resp.status != Status::Ok => Fate::Refused(resp.status),
        Ok(resp) => match decode(&resp.body) {
            Ok(v) => Fate::Decoded(v),
            Err(err) => {
                let at = Provenance {
                    service: service_name(platform),
                    req,
                    group,
                    day: day_within(&eco.window, *cursor),
                };
                at.refetch_once(
                    quarantine,
                    &resp.body,
                    &err,
                    || net.platform(eco, platform, tick(cursor), req),
                    decode,
                )
            }
        },
    };
    if matches!(fetched, Fate::Lost) {
        *failed += 1;
    }
    fetched
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
) {
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
        decode,
    ) {
        Fate::Decoded((created_day, phones)) => {
            jg.created_day = Some(created_day);
            jg.member_list_available = true;
            jg.members.reserve_exact(phones.len());
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
        Fate::Refused(_) => {}
        Fate::Lost => return,
    }
    // Messages since the join date.
    let req = base("whatsapp/messages");
    let decode = |body: &str| decode_message_page(body, PlatformKind::WhatsApp, &req);
    if let Fate::Decoded((_, messages)) = fetch_decoded(
        net,
        eco,
        PlatformKind::WhatsApp,
        cursor,
        &req,
        &jg.key,
        quarantine,
        failed,
        decode,
    ) {
        jg.messages = messages;
    }
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
) {
    let base = |ep: &'static str| request(ep, &[("account", &account), ("group", &jg.group_id.0)]);
    // Full history since creation.
    let req = base("telegram/api/history");
    let decode = |body: &str| decode_message_page(body, PlatformKind::Telegram, &req);
    match fetch_decoded(
        net,
        eco,
        PlatformKind::Telegram,
        cursor,
        &req,
        &jg.key,
        quarantine,
        failed,
        decode,
    ) {
        Fate::Decoded((created_day, messages)) => {
            jg.created_day = created_day;
            jg.messages = messages;
        }
        Fate::Refused(_) => {}
        Fate::Lost => return,
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
        decode,
    ) {
        Fate::Decoded(ids) => {
            jg.member_list_available = true;
            ids
        }
        Fate::Refused(_) => {
            // Hidden list (§3.3): fall back to the users who posted at
            // least one message, exactly as the paper did (§6).
            let mut senders: Vec<u32> = jg.messages.iter().map(|m| m.sender.0).collect();
            senders.sort_unstable();
            senders.dedup();
            senders
        }
        Fate::Lost => return,
    };
    // Profile lookups: phones only for the opt-in sliver.
    jg.members.reserve_exact(user_ids.len());
    for id in user_ids {
        let req = request("telegram/api/user", &[("account", &account), ("id", &id)]);
        let decode = |body: &str| -> Result<Option<PhoneSeen>, CoreError> {
            let doc = WireDoc::parse_as(body, "tg-user")?;
            verify_echoes(&doc, &req)?;
            Ok(doc.get("phone").map(PhoneSeen::of))
        };
        let Fate::Decoded(phone) = fetch_decoded(
            net,
            eco,
            PlatformKind::Telegram,
            cursor,
            &req,
            &jg.key,
            quarantine,
            failed,
            decode,
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
) {
    let base = |ep: &'static str| request(ep, &[("account", &account), ("group", &jg.group_id.0)]);
    let req = base("discord/api/messages");
    let decode = |body: &str| decode_message_page(body, PlatformKind::Discord, &req);
    match fetch_decoded(
        net,
        eco,
        PlatformKind::Discord,
        cursor,
        &req,
        &jg.key,
        quarantine,
        failed,
        decode,
    ) {
        Fate::Decoded((created_day, messages)) => {
            jg.created_day = created_day;
            jg.messages = messages;
        }
        Fate::Refused(_) => {}
        Fate::Lost => return,
    }
    // No member list for user-level collectors (§3.3): profiles are
    // fetched for users who posted at least one message.
    let mut senders: Vec<u32> = jg.messages.iter().map(|m| m.sender.0).collect();
    senders.sort_unstable();
    senders.dedup();
    jg.members.reserve_exact(senders.len());
    for id in senders {
        let req = request("discord/api/user", &[("id", &id)]);
        let decode = |body: &str| -> Result<Vec<String>, CoreError> {
            let doc = WireDoc::parse_as(body, "dc-user")?;
            verify_echoes(&doc, &req)?;
            Ok(doc.get_all("linked").map(str::to_string).collect())
        };
        let Fate::Decoded(linked) = fetch_decoded(
            net,
            eco,
            PlatformKind::Discord,
            cursor,
            &req,
            &jg.key,
            quarantine,
            failed,
            decode,
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
        disco.run_search(&mut net, &mut eco, t0);
        (eco, net, disco)
    }

    #[test]
    fn joins_live_groups_up_to_budget() {
        let (mut eco, mut net, disco) = setup_with_discovery();
        let mut joiner = Joiner::new();
        let mut rng = Rng::new(1);
        let now = eco.window.start_time() + SimDuration::days(2);
        joiner.join_phase(
            &mut net,
            &mut eco,
            &disco,
            PlatformKind::Telegram,
            5,
            now,
            &mut rng,
        );
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
        joiner.join_phase(
            &mut net,
            &mut eco,
            &disco,
            PlatformKind::Discord,
            3,
            now,
            &mut rng,
        );
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
        joiner.join_phase(
            &mut net,
            &mut eco,
            &disco,
            PlatformKind::WhatsApp,
            4,
            now,
            &mut rng,
        );
        let end = eco
            .window
            .end_time()
            .checked_sub(SimDuration::hours(1))
            .unwrap();
        joiner.collect_phase(&mut net, &mut eco, end, &mut pii);
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
        joiner.join_phase(
            &mut net,
            &mut eco,
            &disco,
            PlatformKind::Telegram,
            12,
            now,
            &mut rng,
        );
        let end = eco
            .window
            .end_time()
            .checked_sub(SimDuration::hours(1))
            .unwrap();
        joiner.collect_phase(&mut net, &mut eco, end, &mut pii);
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
        joiner.join_phase(
            &mut net,
            &mut eco,
            &disco,
            PlatformKind::Discord,
            8,
            now,
            &mut rng,
        );
        let end = eco
            .window
            .end_time()
            .checked_sub(SimDuration::hours(1))
            .unwrap();
        joiner.collect_phase(&mut net, &mut eco, end, &mut pii);
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
        joiner.join_phase(
            &mut net,
            &mut eco,
            &disco,
            PlatformKind::Discord,
            150,
            now,
            &mut rng,
        );
        if joiner.joined.len() > 100 {
            assert!(joiner.accounts_used[PlatformKind::Discord.index()] > 1);
        }
    }

    // ---- the message-page scanner against the general decode -----------

    use chatlens_platforms::message::MessageKind;
    use chatlens_platforms::service::encode_message;
    use chatlens_platforms::wire::{WireError, MAX_LINES};
    use chatlens_simnet::fault::{CorruptionKind, CorruptionSchedule};

    type Page = (Option<i64>, Vec<Message>);

    /// A message page as the generic document builder renders it: the
    /// bytes the platforms serve (`message_pages_render_the_wire_doc_bytes`
    /// pins the direct renderer to them).
    fn page(platform: PlatformKind, group: u32, created_day: i64, messages: &[Message]) -> String {
        let mut doc = WireDoc::new(message_page_kind(platform)).field("group", group);
        if platform != PlatformKind::WhatsApp {
            doc = doc.field("created_day", created_day);
        }
        for m in messages {
            doc = doc.field_string("msg", encode_message(m));
        }
        doc.render()
    }

    fn messages_request(group: impl std::fmt::Display) -> Request {
        request("svc/messages", &[("account", &0), ("group", &group)])
    }

    /// Scan `body`; when the scanner accepts it, the general decode must
    /// return `Ok` with the same value. Returns what the scanner read.
    fn scan_checked(body: &str, platform: PlatformKind, req: &Request) -> Option<Page> {
        let scanned = scan_message_page(body, platform, req.param("group").unwrap());
        if let Some(page) = &scanned {
            assert_eq!(
                decode_message_page_general(body, platform, req).as_ref(),
                Ok(page),
                "the scanner accepted a page the general decode reads differently: {body:?}"
            );
        }
        scanned
    }

    fn message(at: u64, sender: u32, kind: usize) -> Message {
        Message {
            at: SimTime::from_secs(at),
            sender: chatlens_platforms::id::UserId(sender),
            kind: MessageKind::from_index(kind),
        }
    }

    proptest::proptest! {
        #[test]
        fn scanned_pages_are_what_the_general_decode_returns(
            shape in (0usize..3, proptest::any::<u32>(), proptest::any::<i64>()),
            raw in proptest::collection::vec(
                (proptest::any::<u64>(), proptest::any::<u32>(), 0usize..MessageKind::ALL.len()),
                0..24
            ),
            seed in proptest::any::<u64>(),
            edits in proptest::collection::vec((proptest::any::<usize>(), 0u8..4, 0u8..16), 1..4)
        ) {
            let (platform, group, created_day) = shape;
            let platform = PlatformKind::ALL[platform];
            // Small values too, where fields are one or two digits long.
            let messages: Vec<Message> = raw
                .iter()
                .enumerate()
                .map(|(i, &(at, sender, kind))| match i % 3 {
                    0 => message(at % 1_000, sender % 100, kind),
                    _ => message(at, sender, kind),
                })
                .collect();
            let created_day = if seed % 2 == 0 { created_day % 20_000 } else { created_day };
            let body = page(platform, group, created_day, &messages);
            let req = messages_request(group);
            let want = (
                (platform != PlatformKind::WhatsApp).then_some(created_day),
                messages.clone(),
            );
            // The rendered page: the scanner reads it, as the general
            // decode does.
            proptest::prop_assert_eq!(scan_checked(&body, platform, &req), Some(want.clone()));
            proptest::prop_assert_eq!(decode_message_page(&body, platform, &req), Ok(want));
            // Another group's request: the echo check declines it.
            let other = messages_request(u64::from(group) + 1);
            proptest::prop_assert_eq!(scan_checked(&body, platform, &other), None);

            // The first message's time and sender at the edges of the
            // digit scan: 19 digits never overflow, the 20th may, and a
            // 21st always does. Both decodes take exactly the values that
            // fit the field.
            if let Some(first) = messages.first() {
                let line = format!("\nmsg: {}", encode_message(first));
                let (sender, kind) = (first.sender.0, first.kind.index());
                let edges = [
                    "9999999999999999999",
                    "10000000000000000000",
                    "99999999999999999999",
                    "100000000000000000000",
                    "18446744073709551614",
                    "18446744073709551615",
                    "18446744073709551616",
                    "4294967295",
                    "4294967296",
                ];
                for edge in edges {
                    for (value, field_max) in [
                        (format!("\nmsg: {edge} {sender} {kind}"), u64::MAX),
                        (format!("\nmsg: {} {edge} {kind}", first.at.as_secs()), u64::from(u32::MAX)),
                    ] {
                        let edited = body.replacen(&line, &value, 1);
                        let fits = edge.parse::<u64>().is_ok_and(|v| v <= field_max);
                        let scanned = scan_checked(&edited, platform, &req);
                        proptest::prop_assert_eq!(scanned.is_some(), fits, "{}", value);
                        let general = decode_message_page_general(&edited, platform, &req);
                        proptest::prop_assert_eq!(general.is_ok(), fits, "{}", value);
                    }
                }
            }

            // Every corruption kind the transport applies.
            let prev = page(platform, group ^ 1, created_day, &messages[..messages.len() / 2]);
            let schedule = CorruptionSchedule::new(1.0);
            let mut rng = Rng::new(seed);
            for _ in 0..8 {
                let (mangled, _) = schedule.corrupt_body(&body, Some(&prev), &mut rng);
                scan_checked(&mangled, platform, &req);
            }

            // Random byte edits: digits changed, inserted or removed, and
            // the separators and signs the scanner must not take for
            // canonical bytes.
            let mut bytes = body.clone().into_bytes();
            for (pos, what, pick) in edits {
                let at = pos % (bytes.len() + 1);
                let byte = b"0123456789\n\r+- :"[usize::from(pick) % 16];
                match what {
                    0 if at < bytes.len() => bytes[at] = b'0' + pick % 10,
                    1 => bytes.insert(at, byte),
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, b'0' + pick % 10),
                }
                let edited = String::from_utf8(bytes.clone()).expect("pages are ASCII");
                scan_checked(&edited, platform, &req);
            }
        }
    }

    #[test]
    fn every_corruption_kind_is_met_and_declined() {
        let messages: Vec<Message> = (0..12)
            .map(|i| message(1_000 + i, 7 * i as u32, i as usize % 9))
            .collect();
        let schedule = CorruptionSchedule::new(1.0);
        let mut seen = Vec::new();
        for platform in PlatformKind::ALL {
            let body = page(platform, 41, 18_353, &messages);
            let prev = page(platform, 40, 18_353, &messages[..5]);
            let req = messages_request(41);
            let mut rng = Rng::new(platform.index() as u64);
            for _ in 0..200 {
                let (mangled, kind) = schedule.corrupt_body(&body, Some(&prev), &mut rng);
                // Each mutation breaks a canonical page, so the scanner
                // declines it and the general decode decides.
                assert_eq!(
                    scan_checked(&mangled, platform, &req),
                    None,
                    "{kind:?}: {mangled:?}"
                );
                if !seen.contains(&kind) {
                    seen.push(kind);
                }
            }
        }
        assert_eq!(seen.len(), CorruptionKind::ALL.len(), "{seen:?}");
    }

    /// A page the scanner declines: it must fall back to the general
    /// decode, whose outcome is returned unchanged.
    fn declined(body: &str, platform: PlatformKind, req: &Request) -> Result<Page, CoreError> {
        assert_eq!(scan_checked(body, platform, req), None, "{body:?}");
        let general = decode_message_page_general(body, platform, req);
        assert_eq!(decode_message_page(body, platform, req), general);
        general
    }

    #[test]
    fn non_canonical_pages_fall_back_to_the_general_decode() {
        use PlatformKind::{Discord, Telegram, WhatsApp};
        let req = messages_request(5);
        let one = vec![message(1, 2, 3)];
        let tg = |body: &str| declined(body, Telegram, &req);
        // `\r\n` line endings, a `+`-signed field, a duplicated `group`
        // line and a trailing newline all decode on the general path.
        let crlf = "tg-history\r\nn: 3\r\ngroup: 5\r\ncreated_day: 9\r\nmsg: 1 2 3";
        assert_eq!(tg(crlf), Ok((Some(9), one.clone())));
        for body in [
            "tg-history\nn: 3\ngroup: 5\ncreated_day: 9\nmsg: +1 2 3",
            "tg-history\nn: +3\ngroup: 5\ncreated_day: 9\nmsg: 1 2 3",
            "tg-history\nn: 3\ngroup: 5\ncreated_day: +9\nmsg: 1 2 3",
            "tg-history\nn: 3\ngroup: 5\ncreated_day: 9\nmsg: 01 2 3",
            "tg-history\nn: 4\ngroup: 5\ngroup: 5\ncreated_day: 9\nmsg: 1 2 3",
            "tg-history\nn: 3\ngroup: 5\ncreated_day: 9\nmsg: 1 2 3\n",
            "tg-history\nn: 3\ngroup: 5\ncreated_day: 9\n\nmsg: 1 2 3",
            "tg-history\nn: 3\ncreated_day: 9\ngroup: 5\nmsg: 1 2 3",
        ] {
            assert_eq!(tg(body), Ok((Some(9), one.clone())), "{body:?}");
        }
        // `-0` is zero to the parser, but not what the renderer writes.
        assert_eq!(
            tg("tg-history\nn: 2\ngroup: 5\ncreated_day: -0"),
            Ok((Some(0), Vec::new()))
        );
        // A mismatched `group` echo is a splice, on either path.
        let spliced = declined(
            "dc-messages\nn: 3\ngroup: 6\ncreated_day: 9\nmsg: 1 2 3",
            Discord,
            &req,
        );
        assert!(
            matches!(&spliced, Err(CoreError::Protocol(e)) if e.contains("cross-document splice")),
            "{spliced:?}"
        );
        // WhatsApp pages carry no creation day; one that does is not the
        // canonical page, though the general decode ignores the field.
        assert_eq!(
            declined(
                "wa-messages\nn: 3\ngroup: 5\ncreated_day: 9\nmsg: 1 2 3",
                WhatsApp,
                &req
            ),
            Ok((None, one))
        );
    }

    #[test]
    fn the_line_guard_is_left_to_the_general_decode() {
        // The `n` line counts toward `MAX_LINES`, so a page declaring
        // `MAX_LINES - 1` fields is the largest the parser accepts and one
        // declaring `MAX_LINES` is too large. The scanner declines both.
        let req = messages_request(5);
        for fields in [MAX_LINES - 1, MAX_LINES] {
            let mut body = format!("wa-messages\nn: {fields}\ngroup: 5");
            for _ in 1..fields {
                body.push_str("\nmsg: 0 0 0");
            }
            let general = declined(&body, PlatformKind::WhatsApp, &req);
            if fields < MAX_LINES {
                let (day, messages) = general.expect("within the guard");
                assert_eq!((day, messages.len()), (None, fields - 1));
            } else {
                assert_eq!(
                    general,
                    Err(CoreError::Wire(WireError::TooLarge {
                        what: "lines",
                        limit: MAX_LINES
                    }))
                );
            }
        }
        // One line fewer is the scanner's.
        let fields = MAX_LINES - 2;
        let mut body = format!("wa-messages\nn: {fields}\ngroup: 5");
        for _ in 1..fields {
            body.push_str("\nmsg: 0 0 0");
        }
        let scanned = scan_checked(&body, PlatformKind::WhatsApp, &req).expect("below the guard");
        assert_eq!(scanned.1.len(), fields - 1);
    }
}
