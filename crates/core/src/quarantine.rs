//! The quarantine ledger: provenance-tagged records of every wire body
//! the collectors *rejected* instead of ingesting.
//!
//! A hostile or bit-rotted response must never abort the campaign and
//! must never leak into an analysis table. When a collector's decode of a
//! successful (`200 OK`) body fails — grammar damage, a type violation, a
//! count-header mismatch, or an identity echo that does not match the
//! request (a cross-document splice) — the collector files a
//! [`QuarantineEntry`] carrying the service, the exact request, the study
//! day, a typed [`QuarantineCode`], and a bounded excerpt of the
//! offending body, then performs at most **one** immediate same-day
//! re-fetch. A second failure files a second entry and the datum is
//! handled by the component's existing loss machinery (monitor gap
//! ledger, stream/sample backfill queues, skipped collection fetches) —
//! quarantine records *why* data is missing, the loss ledgers record
//! *that* it is missing. [`Provenance::refetch_once`] is that lifecycle,
//! for every collector; a fetch that is already the last attempt files
//! its one entry with [`Provenance::file`].
//!
//! The ledger persists through checkpoints (since snapshot format v3) and is
//! merged into [`Dataset::quarantine`](crate::dataset::Dataset) in
//! component order (discovery → monitor → joiner), so a resumed campaign
//! reproduces it bit-identically.

use crate::error::CoreError;
use chatlens_platforms::wire::WireError;
use chatlens_simnet::time::SimTime;
use chatlens_simnet::transport::{Request, Response, Status};

/// Bound on the stored body excerpt: enough to diagnose the corruption
/// by eye, small enough that a hostile run cannot balloon the snapshot.
pub const MAX_QUARANTINED_BODY: usize = 256;

/// Why a body was quarantined — one code per failure class, so audits
/// and reports can aggregate without string-matching `detail`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QuarantineCode {
    /// The document's kind line named a different document.
    WrongKind,
    /// A line did not scan as `key: value`.
    MalformedLine,
    /// A required field was absent.
    MissingField,
    /// A numeric field did not parse.
    BadNumber,
    /// The body tripped an allocation guard (line or value budget).
    TooLarge,
    /// A scalar field appeared more than once.
    DuplicateField,
    /// The self-describing field count disagreed with the body.
    CountMismatch,
    /// An identity echo (invite code, group id, query host, window) did
    /// not match the request — the body belongs to a different resource.
    SpliceMismatch,
    /// A field-level payload (encoded tweet, message, member id) failed
    /// to decode even though the envelope was well-formed.
    BadPayload,
}

impl QuarantineCode {
    /// Stable lower-case label (used by reports and `repro audit`).
    pub fn label(self) -> &'static str {
        match self {
            QuarantineCode::WrongKind => "wrong-kind",
            QuarantineCode::MalformedLine => "malformed-line",
            QuarantineCode::MissingField => "missing-field",
            QuarantineCode::BadNumber => "bad-number",
            QuarantineCode::TooLarge => "too-large",
            QuarantineCode::DuplicateField => "duplicate-field",
            QuarantineCode::CountMismatch => "count-mismatch",
            QuarantineCode::SpliceMismatch => "splice-mismatch",
            QuarantineCode::BadPayload => "bad-payload",
        }
    }

    /// Classify a decode error into its quarantine code.
    pub fn of(err: &CoreError) -> QuarantineCode {
        match err {
            CoreError::Wire(w) => match w {
                WireError::WrongType { .. } => QuarantineCode::WrongKind,
                WireError::Empty | WireError::MalformedLine(_) => QuarantineCode::MalformedLine,
                WireError::MissingField(_) => QuarantineCode::MissingField,
                WireError::BadNumber(_, _) => QuarantineCode::BadNumber,
                WireError::TooLarge { .. } => QuarantineCode::TooLarge,
                WireError::DuplicateField(_) => QuarantineCode::DuplicateField,
                WireError::CountMismatch { .. } => QuarantineCode::CountMismatch,
            },
            CoreError::Protocol(msg) if msg.starts_with("cross-document splice") => {
                QuarantineCode::SpliceMismatch
            }
            _ => QuarantineCode::BadPayload,
        }
    }
}

/// One rejected body, with full provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Service name, in [`SERVICE_NAMES`](crate::net::SERVICE_NAMES)
    /// vocabulary (`"twitter"`, `"whatsapp"`, `"telegram"`, `"discord"`).
    pub service: String,
    /// The request the body answered, rendered as
    /// `endpoint?key=value&key=value` (parameters in key order).
    pub endpoint: String,
    /// Dedup key of the group the request concerned; empty for feed
    /// requests with no single group.
    pub group: String,
    /// Zero-based study day of the fetch.
    pub day: u32,
    /// Failure class.
    pub code: QuarantineCode,
    /// Human-readable error detail (the decode error's display form).
    pub detail: String,
    /// The offending body, truncated to [`MAX_QUARANTINED_BODY`] bytes.
    pub body: String,
}

impl QuarantineEntry {
    /// Build an entry from a failed decode. `group` is the dedup key /
    /// group id the request concerned (empty where none applies).
    pub fn new(
        service: &str,
        req: &Request,
        group: &str,
        day: u32,
        err: &CoreError,
        body: &str,
    ) -> QuarantineEntry {
        QuarantineEntry {
            service: service.to_string(),
            endpoint: render_request(req),
            group: group.to_string(),
            day,
            code: QuarantineCode::of(err),
            detail: err.to_string(),
            body: truncate_body(body),
        }
    }
}

/// Where a fetch came from: the provenance every quarantine entry for
/// it carries.
#[derive(Debug)]
pub struct Provenance<'a> {
    /// Service name, as in [`QuarantineEntry::service`].
    pub service: &'static str,
    /// The request the bodies answer.
    pub req: &'a Request,
    /// Dedup key of the group concerned; empty for feed requests.
    pub group: &'a str,
    /// Zero-based study day of the first fetch (a re-fetch files under
    /// the same day).
    pub day: u32,
}

/// The outcome of a fetch that went through the quarantine lifecycle.
#[derive(Debug, PartialEq, Eq)]
pub enum Fate<T> {
    /// A body decoded.
    Decoded(T),
    /// The server answered with a non-OK status.
    Refused(Status),
    /// The fetch was lost in transport, or its body failed decode on the
    /// re-fetch too (both bodies are then in the ledger).
    Lost,
}

impl Provenance<'_> {
    /// File `body`, rejected by its decode with `err`, in `ledger`.
    pub fn file(&self, ledger: &mut Vec<QuarantineEntry>, err: &CoreError, body: &str) {
        ledger.push(QuarantineEntry::new(
            self.service,
            self.req,
            self.group,
            self.day,
            err,
            body,
        ));
    }

    /// The quarantine lifecycle of a served `body` whose decode failed
    /// with `err`: file it, `refetch` once, and decode the re-fetched
    /// body with `decode`; a second decode failure is filed too before
    /// the fetch counts as [`Fate::Lost`]. A re-fetch answered with a
    /// non-OK status is [`Fate::Refused`] and files nothing. The
    /// caller owns transport order, pacing and loss accounting: `refetch`
    /// makes the call, and the caller maps the outcome onto its own
    /// ledgers. `decode` must write nothing unless it succeeds.
    pub fn refetch_once<T>(
        &self,
        ledger: &mut Vec<QuarantineEntry>,
        body: &str,
        err: &CoreError,
        refetch: impl FnOnce() -> Result<Response, CoreError>,
        decode: impl FnOnce(&str) -> Result<T, CoreError>,
    ) -> Fate<T> {
        self.file(ledger, err, body);
        let Ok(resp) = refetch() else {
            return Fate::Lost;
        };
        if resp.status != Status::Ok {
            return Fate::Refused(resp.status);
        }
        match decode(&resp.body) {
            Ok(v) => Fate::Decoded(v),
            Err(err) => {
                self.file(ledger, &err, &resp.body);
                Fate::Lost
            }
        }
    }
}

/// Render a request as `endpoint?k=v&k=v` (params are sorted by key, so
/// the rendering is canonical).
fn render_request(req: &Request) -> String {
    let mut out = req.endpoint.clone().into_owned();
    for (i, (k, v)) in req.params.iter().enumerate() {
        out.push(if i == 0 { '?' } else { '&' });
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out
}

/// Truncate a body to the storage bound on a char boundary.
fn truncate_body(body: &str) -> String {
    if body.len() <= MAX_QUARANTINED_BODY {
        return body.to_string();
    }
    let mut end = MAX_QUARANTINED_BODY;
    while !body.is_char_boundary(end) {
        end -= 1;
    }
    body[..end].to_string()
}

/// Service name of a messaging platform, in
/// [`SERVICE_NAMES`](crate::net::SERVICE_NAMES) vocabulary.
pub fn service_name(platform: chatlens_platforms::id::PlatformKind) -> &'static str {
    match platform {
        chatlens_platforms::id::PlatformKind::WhatsApp => "whatsapp",
        chatlens_platforms::id::PlatformKind::Telegram => "telegram",
        chatlens_platforms::id::PlatformKind::Discord => "discord",
    }
}

/// Zero-based study day of `now` relative to the window start (provenance
/// for quarantine entries; saturates rather than panicking on a
/// pre-window instant).
pub fn day_of(window_start: SimTime, now: SimTime) -> u32 {
    (now.as_secs().saturating_sub(window_start.as_secs()) / 86_400) as u32
}

/// [`day_of`], clamped into the study window. The joiner paces its
/// collection fetches at one virtual second each, so a large final-day
/// collection can tick its cursor past the last midnight; those fetches
/// still belong to the last study day.
pub fn day_within(window: &chatlens_simnet::time::StudyWindow, now: SimTime) -> u32 {
    day_of(window.start_time(), now).min(window.num_days().saturating_sub(1) as u32)
}

/// Compare every identity echo a document carries against the request
/// parameter of the same name. Documents echo the binding parameters of
/// the resource they describe (invite `code`, `group` id, query `host`,
/// stream `from`/`to`/`page`); a mismatch means the body answers a
/// *different* request — a cross-document splice — no matter how
/// well-formed it is. Parameters the document does not echo (credentials
/// like `account`, cursors like `since_id`) are not checked.
pub fn verify_echoes(
    doc: &chatlens_platforms::wire::WireView<'_>,
    req: &Request,
) -> Result<(), CoreError> {
    for (key, want) in &req.params {
        if let Some(got) = doc.get(key) {
            if got != want {
                return Err(CoreError::Protocol(format!(
                    "cross-document splice: {key} echoed {got:?} for request {want:?}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatlens_platforms::wire::WireDoc;
    use chatlens_simnet::transport::TransportError;

    #[test]
    fn entries_render_requests_canonically() {
        let req = Request::new("twitter/search")
            .with("host", "chat.whatsapp.com")
            .with("page", "2");
        let err = CoreError::Wire(WireError::MissingField("size"));
        let e = QuarantineEntry::new("twitter", &req, "", 4, &err, "tw-search\nn: 0");
        assert_eq!(e.endpoint, "twitter/search?host=chat.whatsapp.com&page=2");
        assert_eq!(e.code, QuarantineCode::MissingField);
        assert_eq!(e.day, 4);
        assert!(e.detail.contains("size"));
    }

    #[test]
    fn bodies_are_truncated_on_char_boundaries() {
        let body = "é".repeat(MAX_QUARANTINED_BODY); // 2 bytes per char
        let e = QuarantineEntry::new(
            "twitter",
            &Request::new("twitter/stream"),
            "",
            0,
            &CoreError::Protocol("x".into()),
            &body,
        );
        assert!(e.body.len() <= MAX_QUARANTINED_BODY);
        assert!(e.body.chars().all(|c| c == 'é'));
    }

    #[test]
    fn splice_detection_compares_echoes_to_params() {
        let doc = WireDoc::new("wa-landing")
            .field("code", "AAA")
            .field("size", 10);
        let body = doc.render();
        let parsed = WireDoc::parse_as(&body, "wa-landing").unwrap();
        let matching = Request::new("whatsapp/landing").with("code", "AAA");
        assert!(verify_echoes(&parsed, &matching).is_ok());
        let spliced = Request::new("whatsapp/landing").with("code", "BBB");
        let err = verify_echoes(&parsed, &spliced).unwrap_err();
        assert_eq!(QuarantineCode::of(&err), QuarantineCode::SpliceMismatch);
    }

    #[test]
    fn unechoed_params_are_not_checked() {
        let body = WireDoc::new("tg-history").field("group", 7u64).render();
        let parsed = WireDoc::parse_as(&body, "tg-history").unwrap();
        let req = Request::new("telegram/api/history")
            .with("group", "7")
            .with("account", "3"); // credentials are never echoed
        assert!(verify_echoes(&parsed, &req).is_ok());
    }

    /// Decode a body as a number; anything else is a bad payload.
    fn number(body: &str) -> Result<u32, CoreError> {
        body.parse()
            .map_err(|_| CoreError::Protocol(format!("not a number: {body:?}")))
    }

    /// Run the lifecycle on a first body `"x1"` whose re-fetch answers
    /// `served`, returning the outcome, the ledger, and how many
    /// re-fetches were made.
    fn lifecycle(served: Result<Response, CoreError>) -> (Fate<u32>, Vec<QuarantineEntry>, u32) {
        let req = Request::new("whatsapp/landing").with("code", "AAA");
        let at = Provenance {
            service: "whatsapp",
            req: &req,
            group: "wa:AAA",
            day: 7,
        };
        let mut ledger = Vec::new();
        let mut calls = 0;
        let err = number("x1").unwrap_err();
        let out = at.refetch_once(
            &mut ledger,
            "x1",
            &err,
            || {
                calls += 1;
                served
            },
            number,
        );
        (out, ledger, calls)
    }

    #[test]
    fn clean_refetch_files_one_entry() {
        let (out, ledger, calls) = lifecycle(Ok(Response::ok("42")));
        assert_eq!(out, Fate::Decoded(42));
        assert_eq!(calls, 1);
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].body, "x1");
        assert_eq!(ledger[0].endpoint, "whatsapp/landing?code=AAA");
        assert_eq!(ledger[0].code, QuarantineCode::BadPayload);
    }

    #[test]
    fn corrupt_refetch_files_two_entries_in_order() {
        let (out, ledger, calls) = lifecycle(Ok(Response::ok("x2")));
        assert_eq!(out, Fate::Lost);
        assert_eq!(calls, 1);
        let bodies: Vec<&str> = ledger.iter().map(|e| e.body.as_str()).collect();
        assert_eq!(bodies, ["x1", "x2"]);
        for e in &ledger {
            assert_eq!((e.group.as_str(), e.day), ("wa:AAA", 7));
            assert_eq!(e.service, "whatsapp");
        }
    }

    #[test]
    fn lost_refetch_files_one_entry() {
        let dropped = CoreError::Transport(TransportError::Dropped { attempts: 4 });
        let (out, ledger, calls) = lifecycle(Err(dropped));
        assert_eq!(out, Fate::Lost);
        assert_eq!(calls, 1);
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].body, "x1");
    }

    #[test]
    fn refused_refetch_files_one_entry_and_keeps_its_status() {
        let (out, ledger, calls) = lifecycle(Ok(Response::status(Status::Gone, "42")));
        assert_eq!(out, Fate::Refused(Status::Gone));
        assert_eq!(calls, 1);
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].body, "x1");
    }

    #[test]
    fn day_provenance_is_window_relative() {
        let start = SimTime(86_400 * 10);
        assert_eq!(day_of(start, start), 0);
        assert_eq!(day_of(start, SimTime(86_400 * 13 + 5)), 3);
        assert_eq!(day_of(start, SimTime(0)), 0, "saturates");
    }
}
