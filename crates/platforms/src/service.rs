//! Transport endpoints: the web frontends and APIs the collector scrapes.
//!
//! Each [`Platform`] is mounted on the simulated transport under its
//! lowercase name (`whatsapp`, `telegram`, `discord`). The endpoints mirror
//! the access paths of §3:
//!
//! | Endpoint | Real-world analogue | Auth |
//! |---|---|---|
//! | `whatsapp/landing?code=` | invite landing page (web client) | none |
//! | `whatsapp/join?account=&code=` | clicking "Join" in the web client | account |
//! | `whatsapp/members?account=&group=` | member list after joining | member |
//! | `whatsapp/messages?account=&group=` | chat log **after the join date** | member |
//! | `telegram/web?code=` | public group web page | none |
//! | `telegram/api/join?...` | `channels.joinChannel` | account, flood-limited |
//! | `telegram/api/history?...` | full history **since creation** | member, flood-limited |
//! | `telegram/api/members?...` | member list (admins may hide) | member, flood-limited |
//! | `telegram/api/user?id=` | user profile (phone iff opted in) | account, flood-limited |
//! | `discord/api/invite?code=` | GET /invites/{code} | none |
//! | `discord/api/join?...&actor=` | join (bots rejected) | account |
//! | `discord/api/messages?...` | full channel history | member |
//! | `discord/api/user?id=` | profile + connected accounts | account |
//!
//! Responses are [`crate::wire`] documents; messages are encoded one per `msg`
//! field via [`encode_message`] / [`parse_message`]. Message pages are
//! rendered (each line by [`extend_message_line`]), and read back by
//! [`scan_message_page`], in one byte pass. A message endpoint generates
//! the group's log from its
//! [`MessageLog`](crate::message::MessageLog) recipe and renders it; the
//! platform holds the generated log only until its next request, so an
//! immediate re-fetch of the same page does not generate it again.

use crate::group::{Group, GroupHistory};
use crate::id::{AccountId, GroupId, PlatformKind, UserId};
use crate::message::{Message, MessageKind};
use crate::platform::{JoinError, Platform};
use crate::wire::{sanitize, WireDoc, MAX_LINES, MAX_VALUE_LEN};
use chatlens_simnet::digits::{decimal_len, extend_i64, extend_u64, write_digits};
use chatlens_simnet::time::SimTime;
use chatlens_simnet::transport::{Request, Response, Service, Status};

/// Encode a message as a single wire-field value: `<secs> <sender> <kind>`.
///
/// This is the format's reference form; pages and the report digest
/// write the same bytes through [`extend_message_line`].
pub fn encode_message(m: &Message) -> String {
    format!("{} {} {}", m.at.as_secs(), m.sender.0, m.kind.index())
}

/// Longest [`encode_message`] value: a 20-digit time, a 10-digit sender,
/// a one-digit kind and two spaces.
const MESSAGE_MAX: usize = 20 + 1 + 10 + 1 + 1;
const _: () = assert!(MessageKind::ALL.len() <= 10, "message kinds are one digit");

/// Longest message line [`extend_message_line`] writes: the longest value
/// plus up to 16 bytes of `prefix` and `end` together.
pub const MESSAGE_LINE_MAX: usize = MESSAGE_MAX + 16;

/// Append one message line to `out`: `prefix`, [`encode_message`]'s bytes
/// for `m`, then `end`. The line is written right to left into one stack
/// buffer and appended at once, as bytes; every message line in the code
/// (the `msg` lines of a page, the report's message digest) comes from
/// here.
///
/// # Panics
/// If `prefix` and `end` together are longer than 16 bytes.
#[inline]
pub fn extend_message_line(out: &mut Vec<u8>, prefix: &[u8], m: &Message, end: &[u8]) {
    let mut line = [b' '; MESSAGE_LINE_MAX];
    let tail = MESSAGE_LINE_MAX - end.len();
    line[tail..].copy_from_slice(end);
    let at = write_digits(&mut line, tail, m.kind.index() as u64);
    let at = write_digits(&mut line, at - 1, u64::from(m.sender.0));
    let at = write_digits(&mut line, at - 1, m.at.as_secs());
    let start = at - prefix.len();
    line[start..at].copy_from_slice(prefix);
    out.extend_from_slice(&line[start..]);
}

/// Length in bytes of [`encode_message`]'s output for `m`.
fn encoded_message_len(m: &Message) -> usize {
    decimal_len(m.at.as_secs()) + decimal_len(u64::from(m.sender.0)) + 3
}

/// Parse a value produced by [`encode_message`].
///
/// A byte-level parser with exactly the acceptance of splitting on `' '`
/// and `str::parse`-ing three fields: each field is an optional leading
/// `+` and one or more ASCII digits, the time fits a `u64`, the sender a
/// `u32`, the kind indexes [`MessageKind::ALL`], and nothing follows.
pub fn parse_message(s: &str) -> Option<Message> {
    let mut fields = s.as_bytes().splitn(3, |&b| b == b' ');
    let at = parse_decimal(fields.next()?, u64::MAX)?;
    let sender = parse_decimal(fields.next()?, u64::from(u32::MAX))?;
    // The last field runs to the end of the value, so a fourth field
    // leaves a space in it, which is not a digit.
    let kind = parse_decimal(fields.next()?, MessageKind::ALL.len() as u64 - 1)?;
    Some(Message {
        at: SimTime::from_secs(at),
        sender: UserId(u32::try_from(sender).ok()?),
        kind: MessageKind::from_index(kind as usize),
    })
}

/// One unsigned decimal field as `str::parse` reads it (optional leading
/// `+`, then at least one ASCII digit), if its value is at most `max`.
fn parse_decimal(field: &[u8], max: u64) -> Option<u64> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    let mut v = 0u64;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    (v <= max).then_some(v)
}

/// The document type of `platform`'s message page. Telegram's and
/// Discord's pages also carry the group's `created_day`; WhatsApp's,
/// which shows a member only the history after their join, does not.
pub fn message_page_kind(platform: PlatformKind) -> &'static str {
    match platform {
        PlatformKind::WhatsApp => "wa-messages",
        PlatformKind::Telegram => "tg-history",
        PlatformKind::Discord => "dc-messages",
    }
}

/// Longest possible header of a message page after its kind line:
/// `\nn: `, `\ngroup: ` and `\ncreated_day: ` with 20-, 10- and 20-byte
/// values.
const PAGE_HEADER_MAX: usize = 4 + 20 + 8 + 10 + 14 + 20;

/// Render `platform`'s message page straight into one pre-sized body: the
/// bytes [`WireDoc::render`] produces for a `group` field, an optional
/// `created_day` field and one `msg` field per message, without the
/// intermediate document or a `String` per message. `messages` is walked
/// twice: once to size the body exactly, once to write it.
fn render_message_page(
    platform: PlatformKind,
    gid: GroupId,
    created_day: Option<i64>,
    messages: &[Message],
) -> String {
    const MSG: &str = "\nmsg: ";
    let kind = message_page_kind(platform);
    let msg_bytes: usize = messages
        .iter()
        .map(|m| MSG.len() + encoded_message_len(m))
        .sum();
    let fields = 1 + usize::from(created_day.is_some()) + messages.len();
    let mut out = Vec::with_capacity(kind.len() + PAGE_HEADER_MAX + msg_bytes);
    out.extend_from_slice(kind.as_bytes());
    out.extend_from_slice(b"\nn: ");
    extend_u64(&mut out, fields as u64);
    out.extend_from_slice(b"\ngroup: ");
    extend_u64(&mut out, u64::from(gid.0));
    if let Some(day) = created_day {
        out.extend_from_slice(b"\ncreated_day: ");
        extend_i64(&mut out, day);
    }
    for m in messages {
        extend_message_line(&mut out, MSG.as_bytes(), m, b"");
    }
    String::from_utf8(out).expect("ASCII page")
}

/// Shortest `msg` line of a message page: `\nmsg: 0 0 0`.
const MSG_LINE_MIN: usize = 11;

/// Decode a message page that is byte for byte what the platform renders
/// for `platform`, in one pass and with no field vector: the kind line;
/// an `n` header of plain digits that counts the fields; a `group` line
/// equal to `group`, the request's `group` parameter (the echo check);
/// a `created_day` line on Telegram and Discord only; then `msg` lines
/// of plain digits. No `\r`, no blank line, no trailing newline, no
/// leading zero and no `+` sign.
///
/// Returns the creation day (Telegram and Discord) and the messages in
/// page order, or `None` for any other body. A `Some` is always exactly
/// what the general decode — `WireDoc::parse_as`, the echo check,
/// `created_day` as a unique `i64` and [`parse_message`] per `msg` field
/// — returns as `Ok`, so a caller falls back to that decode on `None` and
/// gets its errors unchanged. That includes the parser's guards: every
/// value the scanner accepts is far below [`MAX_VALUE_LEN`], and it
/// declines a declared count of `MAX_LINES - 1` or more, leaving the
/// guard's edge (the `n` line counts toward [`MAX_LINES`]) to the parser.
pub fn scan_message_page(
    body: &str,
    platform: PlatformKind,
    group: &str,
) -> Option<(Option<i64>, Vec<Message>)> {
    // Collectors send the group id in plain digits. Anything else (a line
    // break, say) could compare equal here and not in the parser.
    if group.is_empty() || group.len() > MAX_VALUE_LEN || !group.bytes().all(|b| b.is_ascii_digit())
    {
        return None;
    }
    let mut page = Scanner {
        body: body.as_bytes(),
        at: 0,
    };
    page.tag(message_page_kind(platform).as_bytes())?;
    page.tag(b"\nn: ")?;
    // `fields + 1` lines, with one to spare below the parser's guard.
    let fields = page.number(MAX_LINES as u64 - 2)? as usize;
    page.tag(b"\ngroup: ")?;
    page.tag(group.as_bytes())?;
    let created_day = match platform {
        PlatformKind::WhatsApp => None,
        PlatformKind::Telegram | PlatformKind::Discord => {
            page.tag(b"\ncreated_day: ")?;
            Some(page.signed()?)
        }
    };
    let count = fields.checked_sub(1 + usize::from(created_day.is_some()))?;
    let mut messages = Vec::with_capacity(count.min(page.rest() / MSG_LINE_MIN));
    while page.rest() > 0 {
        if messages.len() == count {
            return None;
        }
        page.tag(b"\nmsg: ")?;
        let at = page.number(u64::MAX)?;
        page.tag(b" ")?;
        let sender = page.number(u64::from(u32::MAX))?;
        page.tag(b" ")?;
        let kind = page.number(MessageKind::ALL.len() as u64 - 1)?;
        messages.push(Message {
            at: SimTime::from_secs(at),
            sender: UserId(sender as u32),
            kind: MessageKind::from_index(kind as usize),
        });
    }
    (messages.len() == count).then_some((created_day, messages))
}

/// A page under [`scan_message_page`] and the index of its first unread
/// byte. `tag` and `number` are forced inline: called five times per
/// message line, they were outlined otherwise, which kept the index in
/// memory, and scanning a benchmark campaign's pages took about 1.7
/// times as long (x86-64).
struct Scanner<'a> {
    body: &'a [u8],
    at: usize,
}

impl Scanner<'_> {
    /// Number of unread bytes.
    fn rest(&self) -> usize {
        self.body.len() - self.at
    }

    /// Consume exactly `want`.
    #[inline(always)]
    fn tag(&mut self, want: &[u8]) -> Option<()> {
        if !self.body[self.at..].starts_with(want) {
            return None;
        }
        self.at += want.len();
        Some(())
    }

    /// Consume a decimal number as the digit writer prints it (one or
    /// more digits, no leading zero), if it is at most `max`. One pass:
    /// the value accumulates while the digits are scanned, and only
    /// digits past the 19th, where a `u64` can overflow, are checked.
    #[inline(always)]
    fn number(&mut self, max: u64) -> Option<u64> {
        let rest = &self.body[self.at..];
        let mut len = 0;
        let mut v = 0u64;
        // 19 digits are at most 10^19 - 1, below `u64::MAX`.
        for &b in rest.iter().take(19) {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            v = v * 10 + u64::from(d);
            len += 1;
        }
        if len == 19 {
            for &b in &rest[19..] {
                let d = b.wrapping_sub(b'0');
                if d > 9 {
                    break;
                }
                v = v.checked_mul(10)?.checked_add(u64::from(d))?;
                len += 1;
            }
        }
        if len == 0 || (len > 1 && rest[0] == b'0') || v > max {
            return None;
        }
        self.at += len;
        Some(v)
    }

    /// Consume a signed number as `push_i64` prints it (no `-0`).
    fn signed(&mut self) -> Option<i64> {
        if self.tag(b"-").is_none() {
            return i64::try_from(self.number(i64::MAX as u64)?).ok();
        }
        match self.number(i64::MIN.unsigned_abs())? {
            0 => None,
            magnitude => 0i64.checked_sub_unsigned(magnitude),
        }
    }
}

fn gone() -> Response {
    Response::status(
        Status::Gone,
        WireDoc::new("revoked")
            .field("notice", "this invite link is no longer active")
            .render(),
    )
}

fn not_found(what: &str) -> Response {
    Response::status(Status::NotFound, format!("not-found\nwhat: {what}"))
}

fn bad_request(what: &str) -> Response {
    // Modelled as 404 — the simulated frontends, like the real ones, give
    // scrapers no structured validation errors.
    Response::status(Status::NotFound, format!("bad-request\nwhat: {what}"))
}

fn forbidden(reason: &str) -> Response {
    Response::status(
        Status::Forbidden,
        WireDoc::new("forbidden").field("reason", reason).render(),
    )
}

fn join_error_response(err: JoinError) -> Response {
    match err {
        JoinError::UnknownCode => not_found("invite"),
        JoinError::Revoked => gone(),
        JoinError::LimitExceeded => forbidden("join limit exceeded; account banned"),
        JoinError::Banned => forbidden("account banned"),
        JoinError::BotsNotAllowed => forbidden("bots cannot join servers by themselves"),
        JoinError::UnknownAccount => not_found("account"),
    }
}

impl Platform {
    fn parse_account(&self, req: &Request) -> Result<AccountId, Response> {
        let raw = req
            .param("account")
            .ok_or_else(|| bad_request("missing account"))?;
        let id: u16 = raw.parse().map_err(|_| bad_request("bad account"))?;
        if usize::from(id) >= self.account_count() {
            return Err(not_found("account"));
        }
        Ok(AccountId(id))
    }

    fn parse_group(&self, req: &Request) -> Result<GroupId, Response> {
        let raw = req
            .param("group")
            .ok_or_else(|| bad_request("missing group"))?;
        let id: u32 = raw.parse().map_err(|_| bad_request("bad group"))?;
        if (id as usize) >= self.groups.len() {
            return Err(not_found("group"));
        }
        Ok(GroupId(id))
    }

    /// Resolve the group behind `code=`, mapping unknown → 404 and
    /// dead → 410 exactly like the landing pages do.
    fn resolve_live_group(&self, req: &Request, now: SimTime) -> Result<&Group, Response> {
        let code = req
            .param("code")
            .ok_or_else(|| bad_request("missing code"))?;
        let gid = self.find_by_code(code).ok_or_else(|| not_found("invite"))?;
        let group = self.group(gid);
        if !group.is_alive(now) {
            return Err(gone());
        }
        Ok(group)
    }

    /// Require that `account` joined `group`; membership gates member lists
    /// and message history on every platform.
    fn require_membership(&self, account: AccountId, group: GroupId) -> Result<SimTime, Response> {
        self.joined_at(account, group)
            .ok_or_else(|| forbidden("not a member of this group"))
    }

    /// Telegram flood control for `api/*` ops: consume a token or tell the
    /// caller how long to wait (FLOOD_WAIT).
    fn flood_gate(&mut self, now: SimTime) -> Option<Response> {
        let bucket = self.api_bucket.as_mut()?;
        // Dispatch times are not monotone across calls (a retried call's
        // virtual time can overtake the next call's start). This bucket
        // never imposes waits, so its refill cursor is exactly the latest
        // dispatch time seen; clamping against it upholds the bucket's
        // monotonicity contract with identical refill math.
        let now = now.max(bucket.refilled_to());
        if bucket.available(now) >= 1.0 {
            bucket.acquire(now);
            None
        } else {
            Some(Response::status(
                Status::RateLimited(5),
                WireDoc::new("flood-wait").field("seconds", 5u32).render(),
            ))
        }
    }

    // ---- WhatsApp -------------------------------------------------------

    fn wa_landing(&self, now: SimTime, req: &Request) -> Response {
        let group = match self.resolve_live_group(req, now) {
            Ok(g) => g,
            Err(r) => return r,
        };
        // The landing page shows title, current size, and — the PII finding
        // of §6 — the creator's phone number, visible to *non-members*.
        let creator = self.user(group.creator);
        let phone = creator.phone.expect("WhatsApp users register by phone");
        // Every successful document echoes the identity it was resolved
        // for (here the invite code), so collectors can detect a
        // cross-document splice: a body served under the wrong URL.
        Response::ok(
            WireDoc::new("wa-landing")
                .field("code", req.param("code").unwrap_or_default())
                .field_string("title", sanitize(&group.title))
                .field("size", group.size_at(now))
                .field("creator_cc", phone.iso())
                .field_string("creator_phone", phone.e164())
                .render(),
        )
    }

    fn wa_join(&mut self, now: SimTime, req: &Request) -> Response {
        let account = match self.parse_account(req) {
            Ok(a) => a,
            Err(r) => return r,
        };
        let code = match req.param("code") {
            Some(c) => c.to_string(),
            None => return bad_request("missing code"),
        };
        match self.join(account, &code, now, false) {
            Ok(gid) => Response::ok(
                WireDoc::new("wa-join")
                    .field("code", &code)
                    .field("group", gid.0)
                    .render(),
            ),
            Err(e) => join_error_response(e),
        }
    }

    fn wa_members(&self, req: &Request) -> Response {
        let (account, gid) = match self
            .parse_account(req)
            .and_then(|a| self.parse_group(req).map(|g| (a, g)))
        {
            Ok(v) => v,
            Err(r) => return r,
        };
        if let Err(r) = self.require_membership(account, gid) {
            return r;
        }
        let group = self.group(gid);
        let Some(history) = group.history.as_ref() else {
            return not_found("history not materialized");
        };
        // Joining a WhatsApp group reveals every member's phone number and
        // the group's creation date (§3.3).
        let mut doc = WireDoc::new("wa-members")
            .field("group", gid.0)
            .field("created_day", group.created_at.date().day_number());
        for &m in &history.members {
            let phone = self.user(m).phone.expect("WhatsApp member has phone");
            doc = doc.field_string("member", phone.e164());
        }
        Response::ok(doc.render())
    }

    fn wa_messages(&mut self, req: &Request, served: ServedLog) -> Response {
        let (account, gid) = match self
            .parse_account(req)
            .and_then(|a| self.parse_group(req).map(|g| (a, g)))
        {
            Ok(v) => v,
            Err(r) => return r,
        };
        let joined_at = match self.require_membership(account, gid) {
            Ok(t) => t,
            Err(r) => return r,
        };
        let Some(history) = self.group(gid).history.as_ref() else {
            return not_found("history not materialized");
        };
        let messages = log_messages(history, gid, served);
        // WhatsApp only reveals messages sent *after* the join date (§3.3):
        // a suffix of the chronological log.
        let visible = messages.partition_point(|m| m.at < joined_at);
        let page = render_message_page(PlatformKind::WhatsApp, gid, None, &messages[visible..]);
        self.served_log = Some((gid, messages));
        Response::ok(page)
    }

    // ---- Telegram -------------------------------------------------------

    fn tg_web(&self, now: SimTime, req: &Request) -> Response {
        let group = match self.resolve_live_group(req, now) {
            Ok(g) => g,
            Err(r) => return r,
        };
        // The public web page: title, size, online count, group-vs-channel.
        // No phone numbers here — Telegram hides them by default (§6).
        Response::ok(
            WireDoc::new("tg-web")
                .field("code", req.param("code").unwrap_or_default())
                .field_string("title", sanitize(&group.title))
                .field("size", group.size_at(now))
                .field("online", group.online_at(now))
                .field("kind", group.chat_kind.label())
                .render(),
        )
    }

    fn tg_join(&mut self, now: SimTime, req: &Request) -> Response {
        if let Some(r) = self.flood_gate(now) {
            return r;
        }
        let account = match self.parse_account(req) {
            Ok(a) => a,
            Err(r) => return r,
        };
        let code = match req.param("code") {
            Some(c) => c.to_string(),
            None => return bad_request("missing code"),
        };
        match self.join(account, &code, now, false) {
            Ok(gid) => Response::ok(
                WireDoc::new("tg-join")
                    .field("code", &code)
                    .field("group", gid.0)
                    .render(),
            ),
            Err(e) => join_error_response(e),
        }
    }

    fn tg_history(&mut self, now: SimTime, req: &Request, served: ServedLog) -> Response {
        if let Some(r) = self.flood_gate(now) {
            return r;
        }
        let (account, gid) = match self
            .parse_account(req)
            .and_then(|a| self.parse_group(req).map(|g| (a, g)))
        {
            Ok(v) => v,
            Err(r) => return r,
        };
        if let Err(r) = self.require_membership(account, gid) {
            return r;
        }
        let group = self.group(gid);
        let Some(history) = group.history.as_ref() else {
            return not_found("history not materialized");
        };
        let messages = log_messages(history, gid, served);
        // Telegram's API returns the full history since creation (§3.3).
        let page = render_message_page(
            PlatformKind::Telegram,
            gid,
            Some(group.created_at.date().day_number()),
            &messages,
        );
        self.served_log = Some((gid, messages));
        Response::ok(page)
    }

    fn tg_members(&mut self, now: SimTime, req: &Request) -> Response {
        if let Some(r) = self.flood_gate(now) {
            return r;
        }
        let (account, gid) = match self
            .parse_account(req)
            .and_then(|a| self.parse_group(req).map(|g| (a, g)))
        {
            Ok(v) => v,
            Err(r) => return r,
        };
        if let Err(r) = self.require_membership(account, gid) {
            return r;
        }
        let group = self.group(gid);
        // Admins can hide the member list; only 24 of the paper's 100
        // joined groups had a visible one (§3.3).
        if group.member_list_hidden {
            return forbidden("member list hidden by administrators");
        }
        let Some(history) = group.history.as_ref() else {
            return not_found("history not materialized");
        };
        let mut doc = WireDoc::new("tg-members").field("group", gid.0);
        for &m in &history.members {
            doc = doc.field("member", m.0);
        }
        Response::ok(doc.render())
    }

    fn tg_user(&mut self, now: SimTime, req: &Request) -> Response {
        if let Some(r) = self.flood_gate(now) {
            return r;
        }
        let Some(raw) = req.param("id") else {
            return bad_request("missing id");
        };
        let Ok(id) = raw.parse::<u32>() else {
            return bad_request("bad id");
        };
        if id as usize >= self.users.len() {
            return not_found("user");
        }
        let user = self.user(UserId(id));
        let mut doc = WireDoc::new("tg-user").field("id", id);
        // The profile carries a phone number only for the 0.68% who opted
        // in to showing it (§6).
        if let Some(phone) = user.exposed_phone() {
            doc = doc.field_string("phone", phone.e164());
        }
        Response::ok(doc.render())
    }

    // ---- Discord --------------------------------------------------------

    fn dc_invite(&self, now: SimTime, req: &Request) -> Response {
        let group = match self.resolve_live_group(req, now) {
            Ok(g) => g,
            Err(r) => return r,
        };
        // GET /invites/{code}: title, counts, creator id, creation date —
        // all without joining (§3.2).
        Response::ok(
            WireDoc::new("dc-invite")
                .field("code", req.param("code").unwrap_or_default())
                .field_string("title", sanitize(&group.title))
                .field("size", group.size_at(now))
                .field("online", group.online_at(now))
                .field("creator", group.creator.0)
                .field("created_day", group.created_at.date().day_number())
                .render(),
        )
    }

    fn dc_join(&mut self, now: SimTime, req: &Request) -> Response {
        let account = match self.parse_account(req) {
            Ok(a) => a,
            Err(r) => return r,
        };
        let code = match req.param("code") {
            Some(c) => c.to_string(),
            None => return bad_request("missing code"),
        };
        let as_bot = req.param("actor") == Some("bot");
        match self.join(account, &code, now, as_bot) {
            Ok(gid) => Response::ok(
                WireDoc::new("dc-join")
                    .field("code", &code)
                    .field("group", gid.0)
                    .render(),
            ),
            Err(e) => join_error_response(e),
        }
    }

    fn dc_messages(&mut self, req: &Request, served: ServedLog) -> Response {
        let (account, gid) = match self
            .parse_account(req)
            .and_then(|a| self.parse_group(req).map(|g| (a, g)))
        {
            Ok(v) => v,
            Err(r) => return r,
        };
        if let Err(r) = self.require_membership(account, gid) {
            return r;
        }
        let group = self.group(gid);
        let Some(history) = group.history.as_ref() else {
            return not_found("history not materialized");
        };
        let messages = log_messages(history, gid, served);
        let page = render_message_page(
            PlatformKind::Discord,
            gid,
            Some(group.created_at.date().day_number()),
            &messages,
        );
        self.served_log = Some((gid, messages));
        Response::ok(page)
    }

    fn dc_user(&self, req: &Request) -> Response {
        let Some(raw) = req.param("id") else {
            return bad_request("missing id");
        };
        let Ok(id) = raw.parse::<u32>() else {
            return bad_request("bad id");
        };
        if id as usize >= self.users.len() {
            return not_found("user");
        }
        let user = self.user(UserId(id));
        // The profile exposes connected accounts (§6, Table 5).
        let mut doc = WireDoc::new("dc-user").field("id", id);
        for link in &user.linked {
            doc = doc.field("linked", link.label());
        }
        Response::ok(doc.render())
    }
}

/// The log a message endpoint generated for the platform's previous
/// request, if that was one.
type ServedLog = Option<(GroupId, Vec<Message>)>;

/// The messages of `gid`'s log: the previous request's log if it was
/// this group's, otherwise generated from the recipe.
fn log_messages(history: &GroupHistory, gid: GroupId, served: ServedLog) -> Vec<Message> {
    match served {
        Some((g, messages)) if g == gid => messages,
        _ => history.log.generate(),
    }
}

impl Service for Platform {
    fn handle(&mut self, now: SimTime, req: &Request) -> Response {
        // Strip the mount prefix ("whatsapp/landing" → "landing").
        let op = req
            .endpoint
            .split_once('/')
            .map(|(_, rest)| rest)
            .unwrap_or("");
        // Any request releases the held log; a message endpoint serving
        // the same group again takes it back.
        let served = self.served_log.take();
        match (self.kind, op) {
            (PlatformKind::WhatsApp, "landing") => self.wa_landing(now, req),
            (PlatformKind::WhatsApp, "join") => self.wa_join(now, req),
            (PlatformKind::WhatsApp, "members") => self.wa_members(req),
            (PlatformKind::WhatsApp, "messages") => self.wa_messages(req, served),
            (PlatformKind::Telegram, "web") => self.tg_web(now, req),
            (PlatformKind::Telegram, "api/join") => self.tg_join(now, req),
            (PlatformKind::Telegram, "api/history") => self.tg_history(now, req, served),
            (PlatformKind::Telegram, "api/members") => self.tg_members(now, req),
            (PlatformKind::Telegram, "api/user") => self.tg_user(now, req),
            (PlatformKind::Discord, "api/invite") => self.dc_invite(now, req),
            (PlatformKind::Discord, "api/join") => self.dc_join(now, req),
            (PlatformKind::Discord, "api/messages") => self.dc_messages(req, served),
            (PlatformKind::Discord, "api/user") => self.dc_user(req),
            _ => not_found("operation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{ChatKind, GroupHistory, SizeTimeline};
    use crate::invite::InviteCode;
    use crate::message::MessageLog;
    use crate::phone::{country_by_iso, PhoneNumber};
    use crate::user::{LinkedPlatform, User};
    use chatlens_simnet::rng::Rng;
    use chatlens_simnet::time::{Date, SimDuration};

    fn now() -> SimTime {
        Date::new(2020, 4, 10).midnight()
    }

    fn build_platform(kind: PlatformKind) -> (Platform, GroupId, String) {
        let mut p = Platform::new(kind);
        let mut rng = Rng::new(42);
        // Creator + two members.
        let country = country_by_iso("BR").unwrap();
        let ids: Vec<UserId> = (0..3)
            .map(|i| match kind {
                PlatformKind::WhatsApp => {
                    let phone = PhoneNumber::allocate(country, &mut rng);
                    p.push_user(User::whatsapp(UserId(0), phone))
                }
                PlatformKind::Telegram => {
                    let phone = PhoneNumber::allocate(country, &mut rng);
                    p.push_user(User::telegram(UserId(0), phone, i == 1))
                }
                PlatformKind::Discord => {
                    let linked = if i == 1 {
                        vec![LinkedPlatform::Twitch, LinkedPlatform::Steam]
                    } else {
                        vec![]
                    };
                    p.push_user(User::discord(UserId(0), linked))
                }
            })
            .collect();
        let created = Date::new(2020, 4, 1);
        let invite = InviteCode::generate(kind, &mut rng);
        let code = invite.code.clone();
        let gid = p.push_group(crate::group::Group {
            id: GroupId(0),
            platform: kind,
            chat_kind: if kind == PlatformKind::Discord {
                ChatKind::Server
            } else {
                ChatKind::Group
            },
            title: "Test Group 🚀".into(),
            creator: ids[0],
            created_at: created.midnight(),
            revoked_at: None,
            invite,
            member_list_hidden: false,
            online_frac: 0.5,
            sizes: SizeTimeline::flat(created, 10),
            msgs_per_day: 2.0,
            activity_seed: 1,
            history: None,
        });
        // Twenty days from creation at 0.4 messages a day: the log has
        // messages both before and after the join on `now()`
        // (`fixture_log_straddles_the_join` checks it).
        let history = GroupHistory {
            members: ids.clone(),
            log: MessageLog {
                posters: ids[1..].to_vec(),
                rng: Rng::new(1).state(),
                start: created.midnight(),
                end: created.midnight() + SimDuration::days(20),
                msgs_per_day: 0.4,
                sender_zipf: 1.0,
                kind_weights: [4.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                cap: 100,
            },
        };
        p.install_history(gid, history);
        (p, gid, code)
    }

    /// The fixture group's messages, generated from its recipe.
    fn fixture_messages(p: &Platform, gid: GroupId) -> Vec<Message> {
        p.group(gid).history.as_ref().unwrap().log.generate()
    }

    /// The message endpoint of `kind`, its join endpoint and its page's
    /// document type.
    fn message_endpoints(kind: PlatformKind) -> (&'static str, &'static str, &'static str) {
        match kind {
            PlatformKind::WhatsApp => ("whatsapp/messages", "whatsapp/join", "wa-messages"),
            PlatformKind::Telegram => ("telegram/api/history", "telegram/api/join", "tg-history"),
            PlatformKind::Discord => ("discord/api/messages", "discord/api/join", "dc-messages"),
        }
    }

    #[test]
    fn fixture_log_straddles_the_join() {
        for kind in PlatformKind::ALL {
            let (p, gid, _) = build_platform(kind);
            let messages = fixture_messages(&p, gid);
            assert!(
                messages.iter().any(|m| m.at < now()),
                "{kind}: {messages:?}"
            );
            assert!(
                messages.iter().any(|m| m.at >= now()),
                "{kind}: {messages:?}"
            );
        }
    }

    fn req(ep: &'static str) -> Request {
        Request::new(ep)
    }

    #[test]
    fn message_encoding_roundtrip() {
        let m = Message {
            sender: UserId(17),
            at: SimTime::from_secs(123_456),
            kind: MessageKind::Sticker,
        };
        assert_eq!(parse_message(&encode_message(&m)), Some(m));
        assert_eq!(parse_message("garbage"), None);
        assert_eq!(parse_message("1 2 99"), None, "kind out of range");
        assert_eq!(parse_message("1 2 3 4"), None, "trailing junk");
    }

    /// The split-based parser `parse_message` replaced, kept as the
    /// oracle its byte-level successor must agree with.
    fn parse_message_split(s: &str) -> Option<Message> {
        let mut it = s.split(' ');
        let at = it.next()?.parse().ok()?;
        let sender = it.next()?.parse().ok()?;
        let kind: usize = it.next()?.parse().ok()?;
        if it.next().is_some() || kind >= MessageKind::ALL.len() {
            return None;
        }
        Some(Message {
            at: SimTime::from_secs(at),
            sender: UserId(sender),
            kind: MessageKind::from_index(kind),
        })
    }

    /// A message page as the generic document builder renders it: the
    /// bytes the direct page renderer must reproduce.
    fn page_via_wire_doc<'m>(
        kind: &'static str,
        gid: GroupId,
        created_day: Option<i64>,
        messages: impl Iterator<Item = &'m Message>,
    ) -> String {
        let mut doc = WireDoc::new(kind).field("group", gid.0);
        if let Some(day) = created_day {
            doc = doc.field("created_day", day);
        }
        for m in messages {
            let value = format!("{} {} {}", m.at.as_secs(), m.sender.0, m.kind.index());
            doc = doc.field_string("msg", value);
        }
        doc.render()
    }

    #[test]
    fn parse_message_edge_cases_match_the_split_parser() {
        let cases = [
            "0 0 0",
            "+1 +2 +3",
            "00012 007 08",
            "1 2 8",
            "1 2 9",
            "1 2 +9",
            "1 2 18446744073709551616",
            "18446744073709551615 4294967295 8",
            "18446744073709551616 1 1",
            "1 4294967296 1",
            "1 2 3 ",
            " 1 2 3",
            "1  2 3",
            "1 2",
            "",
            "+ 1 1",
            "++1 1 1",
            "-0 1 1",
            "1 -2 3",
            "1\t2 3",
            "1 2 3\n",
            "١ 2 3",
            "1 2 ３",
        ];
        for s in cases {
            assert_eq!(parse_message(s), parse_message_split(s), "{s:?}");
        }
    }

    #[test]
    fn message_lines_at_the_field_extremes() {
        for (at, sender) in [(0, 0), (9, 9), (10, 10), (u64::MAX, u32::MAX)] {
            for kind in MessageKind::ALL {
                let m = Message {
                    sender: UserId(sender),
                    at: SimTime::from_secs(at),
                    kind,
                };
                let mut line = Vec::new();
                extend_message_line(&mut line, b"\nmsg: ", &m, b"");
                assert_eq!(line, format!("\nmsg: {}", encode_message(&m)).as_bytes());
                assert_eq!(encoded_message_len(&m), encode_message(&m).len());
            }
        }
        // The longest line: a 16-byte prefix and end around the longest value.
        let m = Message {
            sender: UserId(u32::MAX),
            at: SimTime::from_secs(u64::MAX),
            kind: MessageKind::ALL[MessageKind::ALL.len() - 1],
        };
        let mut line = vec![b'x'];
        extend_message_line(&mut line, b"0123456789", &m, b"abcdef");
        assert_eq!(line.len(), 1 + MESSAGE_LINE_MAX);
        assert_eq!(
            line,
            format!("x0123456789{}abcdef", encode_message(&m)).as_bytes()
        );
    }

    proptest::proptest! {
        #[test]
        fn the_line_writer_writes_encode_message_bytes(
            at in proptest::any::<u64>(),
            sender in proptest::any::<u32>(),
            kind in 0usize..MessageKind::ALL.len(),
            short in 0u8..3,
            framing in 0usize..3
        ) {
            // Short fields too, where the digit writer takes its one-digit
            // tail.
            let (at, sender) = match short {
                0 => (at % 100, sender % 100),
                1 => (at >> (at % 64), sender >> (sender % 32)),
                _ => (at, sender),
            };
            let m = Message {
                sender: UserId(sender),
                at: SimTime::from_secs(at),
                kind: MessageKind::from_index(kind),
            };
            let (prefix, end): (&[u8], &[u8]) =
                [(&b""[..], &b""[..]), (b"\nmsg: ", b""), (b"  g ", b"\n")][framing];
            let mut line = b"kept".to_vec();
            extend_message_line(&mut line, prefix, &m, end);
            let mut want = b"kept".to_vec();
            want.extend_from_slice(prefix);
            want.extend_from_slice(encode_message(&m).as_bytes());
            want.extend_from_slice(end);
            proptest::prop_assert_eq!(line, want);
        }

        #[test]
        fn parse_message_agrees_with_the_split_parser_on_arbitrary_strings(
            lines in proptest::collection::vec("[0-9+ \\-a:\\t]{0,24}", 0..64)
        ) {
            for s in &lines {
                proptest::prop_assert_eq!(parse_message(s), parse_message_split(s));
            }
        }

        #[test]
        fn parse_message_agrees_with_the_split_parser_on_corrupted_lines(
            at in proptest::any::<u64>(),
            sender in 0u64..(1u64 << 33),
            kind in 0u64..24,
            plus in 0u8..8,
            cut in 0usize..4,
            damage in proptest::collection::vec((0usize..48, 0u8..6), 0..3)
        ) {
            // A well-formed line whose sender may overflow u32 and whose
            // kind may be out of range, with optional `+` signs ...
            let sign = |bit: u8| if plus & bit != 0 { "+" } else { "" };
            let mut line = format!(
                "{}{at} {}{sender} {}{kind}",
                sign(1),
                sign(2),
                sign(4)
            );
            // ... and u64 overflow on the time field ...
            if cut == 3 {
                line.insert(0, '9');
            }
            // ... then byte-level damage: a field emptied, a trailing or
            // doubled space, a stray sign or letter.
            for (pos, what) in damage {
                let at = pos.min(line.len());
                match what {
                    0 => line.push(' '),
                    1 => line.insert(at, ' '),
                    2 => line.insert(at, '+'),
                    3 => line.insert(at, 'x'),
                    4 => {
                        if let Some(end) = line[at..].find(' ') {
                            line.replace_range(at..at + end, "");
                        }
                    }
                    _ => line.truncate(at),
                }
            }
            proptest::prop_assert_eq!(parse_message(&line), parse_message_split(&line));
        }
    }

    #[test]
    fn message_pages_render_the_wire_doc_bytes() {
        let extreme = [
            Message {
                sender: UserId(u32::MAX),
                at: SimTime::from_secs(u64::MAX),
                kind: MessageKind::Service,
            },
            Message {
                sender: UserId(0),
                at: SimTime::from_secs(0),
                kind: MessageKind::Text,
            },
            Message {
                sender: UserId(10),
                at: SimTime::from_secs(1_000_000_000),
                kind: MessageKind::Location,
            },
        ];
        for created_day in [None, Some(0), Some(18_353), Some(-7), Some(i64::MIN)] {
            for n in 0..=extreme.len() {
                let page = render_message_page(
                    PlatformKind::Telegram,
                    GroupId(9),
                    created_day,
                    &extreme[..n],
                );
                let want =
                    page_via_wire_doc("tg-history", GroupId(9), created_day, extreme[..n].iter());
                assert_eq!(page, want);
                assert_eq!(page.capacity() - page.len(), header_slack(&page));
            }
        }
    }

    #[test]
    fn message_pages_are_sized_exactly_at_every_digit_count() {
        // Times and senders on both sides of every power of ten: 1 to 20
        // digits for a time, 1 to 10 for a sender.
        let edges: Vec<u64> = (0..20)
            .map(|e| 10u64.pow(e))
            .flat_map(|p| [p - 1, p, p.saturating_add(1)])
            .chain([u64::MAX])
            .collect();
        let senders: Vec<u32> = edges.iter().filter_map(|&v| v.try_into().ok()).collect();
        // Every pair of a time's and a sender's digit counts.
        let messages: Vec<Message> = edges
            .iter()
            .flat_map(|&at| senders.iter().map(move |&sender| (at, sender)))
            .enumerate()
            .map(|(i, (at, sender))| Message {
                sender: UserId(sender),
                at: SimTime::from_secs(at),
                kind: MessageKind::from_index(i % MessageKind::ALL.len()),
            })
            .collect();
        for kind in PlatformKind::ALL {
            let created_day =
                (kind != PlatformKind::WhatsApp).then_some(18_353 - 40 * kind.index() as i64);
            for n in [1, 3, 20, messages.len()] {
                let page =
                    render_message_page(kind, GroupId(4_000_000_000), created_day, &messages[..n]);
                let want = page_via_wire_doc(
                    message_page_kind(kind),
                    GroupId(4_000_000_000),
                    created_day,
                    messages[..n].iter(),
                );
                assert_eq!(page, want, "{kind}");
                assert_eq!(page.capacity() - page.len(), header_slack(&page), "{kind}");
            }
        }

        // A WhatsApp page cut at a join inside the log.
        let (mut p, gid, code) = build_platform(PlatformKind::WhatsApp);
        p.create_account();
        let join = req("whatsapp/join").with("account", "0").with("code", code);
        assert_eq!(p.handle(now(), &join).status, Status::Ok);
        let log = fixture_messages(&p, gid);
        let cut = log.partition_point(|m| m.at < now());
        assert!(0 < cut && cut < log.len(), "the join falls inside the log");
        let page = p.handle(
            now(),
            &req("whatsapp/messages")
                .with("account", "0")
                .with("group", gid.0.to_string()),
        );
        assert_eq!(page.status, Status::Ok);
        assert_eq!(
            page.body,
            page_via_wire_doc("wa-messages", gid, None, log[cut..].iter())
        );
        assert_eq!(
            page.body.capacity() - page.body.len(),
            header_slack(&page.body)
        );
    }

    /// The spare capacity of an exactly sized page (never more than
    /// [`PAGE_HEADER_MAX`]): what its header leaves unused of that bound.
    /// A page that regrew, or whose messages were sized too long, keeps
    /// more.
    fn header_slack(page: &str) -> usize {
        let kind_end = page.find('\n').unwrap();
        let header_end = page.find("\nmsg: ").unwrap_or(page.len());
        PAGE_HEADER_MAX - (header_end - kind_end)
    }

    #[test]
    fn message_endpoints_render_the_wire_doc_bytes() {
        for kind in PlatformKind::ALL {
            let (ep, join, doc_kind) = message_endpoints(kind);
            let (mut p, gid, code) = build_platform(kind);
            p.create_account();
            let joined = p.handle(now(), &req(join).with("account", "0").with("code", code));
            assert_eq!(joined.status, Status::Ok);
            let full = *p.group(gid).history.clone().unwrap();
            let created_day = Some(p.group(gid).created_at.date().day_number());
            // The fixture log (messages before the join and after it),
            // then an empty one.
            let silent = MessageLog {
                msgs_per_day: 0.0,
                ..full.log.clone()
            };
            for log in [full.log.clone(), silent] {
                let messages = log.generate();
                p.install_history(
                    gid,
                    GroupHistory {
                        log,
                        ..full.clone()
                    },
                );
                let resp = p.handle(
                    now(),
                    &req(ep)
                        .with("account", "0")
                        .with("group", gid.0.to_string()),
                );
                assert_eq!(resp.status, Status::Ok);
                let want = match kind {
                    // WhatsApp hides the pre-join history and the
                    // creation day.
                    PlatformKind::WhatsApp => page_via_wire_doc(
                        doc_kind,
                        gid,
                        None,
                        messages.iter().filter(|m| m.at >= now()),
                    ),
                    _ => page_via_wire_doc(doc_kind, gid, created_day, messages.iter()),
                };
                assert_eq!(resp.body, want, "{doc_kind}");
            }
        }
    }

    #[test]
    fn message_endpoints_serve_identical_bodies_on_a_repeat_request() {
        // A quarantined page is fetched again at once, and serves the held
        // log; after any other request the log is generated again from
        // its recipe. Both must serve the same bytes.
        for kind in PlatformKind::ALL {
            let (ep, join, doc_kind) = message_endpoints(kind);
            let (mut p, gid, code) = build_platform(kind);
            p.create_account();
            let join = req(join).with("account", "0").with("code", code);
            assert_eq!(p.handle(now(), &join).status, Status::Ok);
            let fetch = |p: &mut Platform| {
                p.handle(
                    now(),
                    &req(ep)
                        .with("account", "0")
                        .with("group", gid.0.to_string()),
                )
            };
            let first = fetch(&mut p);
            assert_eq!(first.status, Status::Ok);
            assert!(first.body.contains("\nmsg: "), "{doc_kind}: {}", first.body);
            let held = |p: &Platform| p.served_log.as_ref().map(|(g, m)| (*g, m.len()));
            let log_len = fixture_messages(&p, gid).len();
            assert_eq!(held(&p), Some((gid, log_len)), "{doc_kind}");
            let refetch = fetch(&mut p);
            assert_eq!(refetch.status, Status::Ok);
            assert_eq!(refetch.body, first.body, "{doc_kind}");
            assert_eq!(p.handle(now(), &join).status, Status::Ok);
            assert_eq!(
                held(&p),
                None,
                "{doc_kind}: another request releases the log"
            );
            let regenerated = fetch(&mut p);
            assert_eq!(regenerated.status, Status::Ok);
            assert_eq!(regenerated.body, first.body, "{doc_kind}");
        }
    }

    #[test]
    fn wa_landing_exposes_creator_phone() {
        let (mut p, _gid, code) = build_platform(PlatformKind::WhatsApp);
        let resp = p.handle(now(), &req("whatsapp/landing").with("code", code));
        assert_eq!(resp.status, Status::Ok);
        let doc = WireDoc::parse_as(&resp.body, "wa-landing").unwrap();
        assert_eq!(doc.get("title"), Some("Test Group 🚀"));
        assert_eq!(doc.req_u64("size").unwrap(), 10);
        assert_eq!(doc.get("creator_cc"), Some("BR"));
        assert!(doc.get("creator_phone").unwrap().starts_with("+55"));
    }

    #[test]
    fn wa_messages_only_after_join() {
        let (mut p, gid, code) = build_platform(PlatformKind::WhatsApp);
        let acct = p.create_account();
        // Join on Apr 10; the Apr 3 message must be invisible, the Apr 13
        // message visible.
        let resp = p.handle(
            now(),
            &req("whatsapp/join").with("account", "0").with("code", code),
        );
        assert_eq!(resp.status, Status::Ok);
        let resp = p.handle(
            now() + SimDuration::days(20),
            &req("whatsapp/messages")
                .with("account", "0")
                .with("group", gid.0.to_string()),
        );
        let doc = WireDoc::parse_as(&resp.body, "wa-messages").unwrap();
        let msgs: Vec<Message> = doc
            .get_all("msg")
            .map(|s| parse_message(s).unwrap())
            .collect();
        let log = fixture_messages(&p, gid);
        let after_join: Vec<Message> = log.iter().copied().filter(|m| m.at >= now()).collect();
        assert!(!after_join.is_empty() && after_join.len() < log.len());
        assert_eq!(msgs, after_join, "pre-join history hidden on WhatsApp");
        let _ = acct;
    }

    #[test]
    fn wa_members_requires_membership() {
        let (mut p, gid, code) = build_platform(PlatformKind::WhatsApp);
        p.create_account();
        let resp = p.handle(
            now(),
            &req("whatsapp/members")
                .with("account", "0")
                .with("group", gid.0.to_string()),
        );
        assert_eq!(resp.status, Status::Forbidden, "must join first");
        p.handle(
            now(),
            &req("whatsapp/join").with("account", "0").with("code", code),
        );
        let resp = p.handle(
            now(),
            &req("whatsapp/members")
                .with("account", "0")
                .with("group", gid.0.to_string()),
        );
        let doc = WireDoc::parse_as(&resp.body, "wa-members").unwrap();
        assert_eq!(doc.get_all("member").count(), 3, "all member phones");
        assert!(doc.get_all("member").all(|m| m.starts_with("+55")));
        assert_eq!(
            doc.req_i64("created_day").unwrap(),
            Date::new(2020, 4, 1).day_number()
        );
    }

    #[test]
    fn tg_web_reports_online_and_kind() {
        let (mut p, _gid, code) = build_platform(PlatformKind::Telegram);
        let resp = p.handle(now(), &req("telegram/web").with("code", code));
        let doc = WireDoc::parse_as(&resp.body, "tg-web").unwrap();
        assert_eq!(doc.req_u64("size").unwrap(), 10);
        assert_eq!(doc.req_u64("online").unwrap(), 5);
        assert_eq!(doc.get("kind"), Some("group"));
        assert!(
            doc.get("creator_phone").is_none(),
            "no phone on Telegram web"
        );
    }

    #[test]
    fn tg_history_is_complete_since_creation() {
        let (mut p, gid, code) = build_platform(PlatformKind::Telegram);
        p.create_account();
        p.handle(
            now(),
            &req("telegram/api/join")
                .with("account", "0")
                .with("code", code),
        );
        let resp = p.handle(
            now(),
            &req("telegram/api/history")
                .with("account", "0")
                .with("group", gid.0.to_string()),
        );
        let doc = WireDoc::parse_as(&resp.body, "tg-history").unwrap();
        let msgs: Vec<Message> = doc
            .get_all("msg")
            .map(|s| parse_message(s).unwrap())
            .collect();
        let log = fixture_messages(&p, gid);
        assert!(
            log.iter().any(|m| m.at < now()),
            "the log predates the join"
        );
        assert_eq!(msgs, log, "full history via API");
    }

    #[test]
    fn tg_hidden_member_list_is_forbidden() {
        let (mut p, gid, code) = build_platform(PlatformKind::Telegram);
        p.group_mut(gid).member_list_hidden = true;
        p.create_account();
        p.handle(
            now(),
            &req("telegram/api/join")
                .with("account", "0")
                .with("code", code),
        );
        let resp = p.handle(
            now(),
            &req("telegram/api/members")
                .with("account", "0")
                .with("group", gid.0.to_string()),
        );
        assert_eq!(resp.status, Status::Forbidden);
    }

    #[test]
    fn tg_user_phone_only_when_opted_in() {
        let (mut p, _gid, _code) = build_platform(PlatformKind::Telegram);
        // User 1 opted in; users 0 and 2 did not.
        let resp = p.handle(now(), &req("telegram/api/user").with("id", "1"));
        let doc = WireDoc::parse_as(&resp.body, "tg-user").unwrap();
        assert!(doc.get("phone").is_some(), "opted-in phone visible");
        let resp = p.handle(now(), &req("telegram/api/user").with("id", "0"));
        let doc = WireDoc::parse_as(&resp.body, "tg-user").unwrap();
        assert!(doc.get("phone").is_none(), "default phone hidden");
    }

    #[test]
    fn tg_flood_wait_triggers_on_burst() {
        let (mut p, _gid, _code) = build_platform(PlatformKind::Telegram);
        let mut limited = 0;
        for _ in 0..100 {
            let resp = p.handle(now(), &req("telegram/api/user").with("id", "0"));
            if matches!(resp.status, Status::RateLimited(_)) {
                limited += 1;
            }
        }
        assert!(limited > 0, "burst of 100 should trip FLOOD_WAIT");
        // After waiting, tokens come back.
        let later = now() + SimDuration::minutes(5);
        let resp = p.handle(later, &req("telegram/api/user").with("id", "0"));
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn dc_invite_exposes_creator_and_creation_date() {
        let (mut p, _gid, code) = build_platform(PlatformKind::Discord);
        let resp = p.handle(now(), &req("discord/api/invite").with("code", code));
        let doc = WireDoc::parse_as(&resp.body, "dc-invite").unwrap();
        assert_eq!(doc.req_u64("creator").unwrap(), 0);
        assert_eq!(
            doc.req_i64("created_day").unwrap(),
            Date::new(2020, 4, 1).day_number()
        );
        assert_eq!(doc.req_u64("online").unwrap(), 5);
    }

    #[test]
    fn dc_bot_join_forbidden_user_join_ok() {
        let (mut p, _gid, code) = build_platform(PlatformKind::Discord);
        p.create_account();
        let resp = p.handle(
            now(),
            &req("discord/api/join")
                .with("account", "0")
                .with("code", code.clone())
                .with("actor", "bot"),
        );
        assert_eq!(resp.status, Status::Forbidden);
        let resp = p.handle(
            now(),
            &req("discord/api/join")
                .with("account", "0")
                .with("code", code)
                .with("actor", "user"),
        );
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn dc_user_lists_connected_accounts() {
        let (mut p, _gid, _code) = build_platform(PlatformKind::Discord);
        let resp = p.handle(now(), &req("discord/api/user").with("id", "1"));
        let doc = WireDoc::parse_as(&resp.body, "dc-user").unwrap();
        let linked: Vec<_> = doc.get_all("linked").collect();
        assert_eq!(linked, vec!["Twitch", "Steam"]);
        let resp = p.handle(now(), &req("discord/api/user").with("id", "0"));
        let doc = WireDoc::parse_as(&resp.body, "dc-user").unwrap();
        assert_eq!(doc.get_all("linked").count(), 0);
    }

    #[test]
    fn revoked_invite_is_gone_everywhere() {
        for kind in PlatformKind::ALL {
            let (mut p, gid, code) = build_platform(kind);
            p.group_mut(gid).revoked_at = Some(now().checked_sub(SimDuration::days(1)).unwrap());
            let ep = match kind {
                PlatformKind::WhatsApp => "whatsapp/landing",
                PlatformKind::Telegram => "telegram/web",
                PlatformKind::Discord => "discord/api/invite",
            };
            let resp = p.handle(now(), &req(ep).with("code", code));
            assert_eq!(resp.status, Status::Gone, "{kind} should report Gone");
            let doc = WireDoc::parse_as(&resp.body, "revoked").unwrap();
            assert!(doc.get("notice").is_some());
        }
    }

    #[test]
    fn unknown_code_is_not_found() {
        let (mut p, _gid, _code) = build_platform(PlatformKind::WhatsApp);
        let resp = p.handle(now(), &req("whatsapp/landing").with("code", "zzz"));
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn unknown_operation_is_not_found() {
        let (mut p, _gid, _code) = build_platform(PlatformKind::WhatsApp);
        let resp = p.handle(now(), &req("whatsapp/api/invite"));
        assert_eq!(resp.status, Status::NotFound, "discord op on whatsapp");
    }
}
