//! The line-based wire format platform frontends serialize bodies with.
//!
//! The paper's collectors *scraped* landing pages and *parsed* API replies;
//! to keep those code paths honest, the simulated platforms render their
//! responses as text and the collectors parse them back. The format is
//! deliberately simple and deterministic:
//!
//! ```text
//! doc-type
//! key: value
//! key: value          # keys may repeat (lists)
//! ```
//!
//! The first line is the document type; every following non-empty line is a
//! `key: value` pair. Values may contain anything except a newline.
//!
//! # Hardening
//!
//! The wire can hand back *successfully delivered garbage* (see
//! `simnet::fault::CorruptionSchedule`), so parsing is defensive:
//!
//! * **Allocation guards** — bodies with more than [`MAX_LINES`] lines or a
//!   value longer than [`MAX_VALUE_LEN`] bytes are rejected with
//!   [`WireError::TooLarge`] before any further work, mirroring the
//!   checkpoint codec's bounds checks.
//! * **Self-describing field count** — [`WireDoc::render`] emits a
//!   `n: <field-count>` header as the first field line and
//!   [`WireDoc::parse`] transparently verifies and strips it
//!   ([`WireError::CountMismatch`] on disagreement), so dropped, duplicated
//!   or truncated lines are structurally detectable. Handcrafted bodies
//!   without the header still parse (error notices are built with raw
//!   `format!`), and the key `n` is reserved by [`WireDoc::field`].
//! * **Duplicate required fields** — the `req*`/`opt*` accessors reject a
//!   key that appears more than once ([`WireError::DuplicateField`]);
//!   list-valued keys go through [`WireDoc::get_all`] instead.

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Maximum number of lines [`WireDoc::parse`] accepts before rejecting the
/// body as hostile. The largest legitimate documents are full message
/// histories, hard-capped by the workload at 500 000 messages per group
/// (`max_messages_per_group`), so the guard sits comfortably above that:
/// it exists to stop unbounded allocation, not to second-guess real data.
pub const MAX_LINES: usize = 1_048_576;

/// Maximum length in bytes of a single field value.
pub const MAX_VALUE_LEN: usize = 4_096;

/// Errors produced while parsing or interrogating a wire document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body was empty.
    Empty,
    /// A line had no `": "` separator.
    MalformedLine(String),
    /// A required field was absent.
    MissingField(&'static str),
    /// A field failed numeric conversion.
    BadNumber(&'static str, String),
    /// The document type was not the expected one.
    WrongType {
        /// Expected document type.
        expected: &'static str,
        /// Actual document type found.
        found: String,
    },
    /// The body exceeded an allocation guard (too many lines, or a value
    /// too long).
    TooLarge {
        /// Which guard tripped (`"lines"` or `"value"`).
        what: &'static str,
        /// The configured limit.
        limit: usize,
    },
    /// A field that must appear exactly once appeared more than once.
    DuplicateField(&'static str),
    /// The declared field count (`n` header) disagrees with the fields
    /// actually present — lines were dropped, duplicated, or spliced in.
    CountMismatch {
        /// Count the header declared.
        declared: usize,
        /// Fields actually present.
        actual: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Empty => write!(f, "empty wire document"),
            WireError::MalformedLine(l) => write!(f, "malformed line: {l:?}"),
            WireError::MissingField(k) => write!(f, "missing field {k:?}"),
            WireError::BadNumber(k, v) => write!(f, "field {k:?} is not a number: {v:?}"),
            WireError::WrongType { expected, found } => {
                write!(f, "expected document type {expected:?}, found {found:?}")
            }
            WireError::TooLarge { what, limit } => {
                write!(f, "document exceeds {what} guard ({limit})")
            }
            WireError::DuplicateField(k) => {
                write!(f, "field {k:?} appears more than once")
            }
            WireError::CountMismatch { declared, actual } => {
                write!(f, "declared {declared} fields, found {actual}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Generates the field accessors shared by [`WireDoc`] (owned fields) and
/// [`WireView`] (fields borrowed from the body buffer). Both types expose
/// the exact same read API, so decode code is agnostic to which one it
/// holds.
macro_rules! wire_accessors {
    () => {
        /// First value for `key`, if present.
        pub fn get(&self, key: &str) -> Option<&str> {
            self.fields_iter().find(|(k, _)| *k == key).map(|(_, v)| v)
        }

        /// All values for `key`, in order.
        pub fn get_all<'k>(&'k self, key: &'k str) -> impl Iterator<Item = &'k str> + 'k {
            self.fields_iter()
                .filter(move |(k, _)| *k == key)
                .map(|(_, v)| v)
        }

        /// The single value for `key`, rejecting duplicates. `Ok(None)`
        /// when absent.
        fn unique(&self, key: &'static str) -> Result<Option<&str>, WireError> {
            let mut it = self.get_all(key);
            let first = it.next();
            if first.is_some() && it.next().is_some() {
                return Err(WireError::DuplicateField(key));
            }
            Ok(first)
        }

        /// Required string field. A field that must appear exactly once
        /// appearing twice is an error — a duplicated line is corruption,
        /// not a list.
        pub fn req(&self, key: &'static str) -> Result<&str, WireError> {
            self.unique(key)?.ok_or(WireError::MissingField(key))
        }

        /// Required `u64` field.
        pub fn req_u64(&self, key: &'static str) -> Result<u64, WireError> {
            let v = self.req(key)?;
            v.parse()
                // lint:allow(D10) error-path only: the copy prices a malformed body, not the per-request loop
                .map_err(|_| WireError::BadNumber(key, v.to_string()))
        }

        /// Required `i64` field.
        pub fn req_i64(&self, key: &'static str) -> Result<i64, WireError> {
            let v = self.req(key)?;
            v.parse()
                // lint:allow(D10) error-path only: the copy prices a malformed body, not the per-request loop
                .map_err(|_| WireError::BadNumber(key, v.to_string()))
        }

        /// Optional `u64` field (error if present-and-malformed or
        /// duplicated).
        pub fn opt_u64(&self, key: &'static str) -> Result<Option<u64>, WireError> {
            match self.unique(key)? {
                None => Ok(None),
                Some(v) => v
                    .parse()
                    .map(Some)
                    // lint:allow(D10) error-path only: the copy prices a malformed body, not the per-request loop
                    .map_err(|_| WireError::BadNumber(key, v.to_string())),
            }
        }

        /// Number of fields.
        pub fn len(&self) -> usize {
            self.fields.len()
        }

        /// Whether the document has no fields.
        pub fn is_empty(&self) -> bool {
            self.fields.is_empty()
        }
    };
}

/// A parsed (or under-construction) wire document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDoc {
    /// Document type (the first line). Borrowed for the static kind
    /// literals every service uses; owned only when copied out of a
    /// parsed body ([`WireView::to_doc`]).
    pub kind: Cow<'static, str>,
    fields: Vec<(Cow<'static, str>, String)>,
}

/// A zero-copy parsed wire document: the kind line and every key/value
/// slice borrow straight from the body buffer, so parsing performs one
/// allocation (the field vector) instead of two per line.
///
/// Produced by [`WireDoc::parse`] / [`WireDoc::parse_as`]. Anything that
/// must outlive the body — a quarantine excerpt, a retained document —
/// copies explicitly ([`WireView::to_doc`], or the `&str` accessors
/// feeding owned stores as before).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireView<'a> {
    /// Document type (the first line), borrowed from the body.
    pub kind: &'a str,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> WireView<'a> {
    /// Parse a body without copying any of it. Semantics are identical to
    /// the historical owning parser: same guards, same `n` count-header
    /// verification and stripping, same errors.
    pub fn parse(body: &'a str) -> Result<WireView<'a>, WireError> {
        let mut lines = body.lines();
        let kind = lines
            .next()
            .filter(|l| !l.is_empty())
            .ok_or(WireError::Empty)?;
        let mut fields: Vec<(&str, &str)> = Vec::new();
        // The `n` count header's value, when the first field line is one.
        let mut header: Option<&str> = None;
        let mut seen = 0usize;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            seen += 1;
            if seen > MAX_LINES {
                return Err(WireError::TooLarge {
                    what: "lines",
                    limit: MAX_LINES,
                });
            }
            let (k, v) = split_field(line)
                // lint:allow(D10) error-path only: a malformed line aborts the parse, so the copy is never hot
                .ok_or_else(|| WireError::MalformedLine(line.to_string()))?;
            if v.len() > MAX_VALUE_LEN {
                return Err(WireError::TooLarge {
                    what: "value",
                    limit: MAX_VALUE_LEN,
                });
            }
            if seen == 1 && k == "n" {
                // Size the field vector from the header, but never past
                // one field per three body bytes (`: ` plus a newline is
                // the shortest field line), so a hostile count cannot buy
                // memory. A garbled header is reported after the line
                // checks, as it always was.
                if let Ok(n) = v.parse::<usize>() {
                    fields.reserve(n.min(body.len() / 3));
                }
                header = Some(v);
                continue;
            }
            fields.push((k, v));
        }
        if let Some(raw) = header {
            let declared: usize = raw
                .parse()
                // lint:allow(D10) error-path only: a bad count header aborts the parse
                .map_err(|_| WireError::BadNumber("n", raw.to_string()))?;
            if fields.len() != declared {
                return Err(WireError::CountMismatch {
                    declared,
                    actual: fields.len(),
                });
            }
        }
        Ok(WireView { kind, fields })
    }

    /// Parse and verify the document type in one step.
    pub fn parse_as(body: &'a str, expected: &'static str) -> Result<WireView<'a>, WireError> {
        let doc = WireView::parse(body)?;
        if doc.kind != expected {
            return Err(WireError::WrongType {
                expected,
                // lint:allow(D10) error-path only: a type mismatch aborts the parse
                found: doc.kind.to_string(),
            });
        }
        Ok(doc)
    }

    /// Copy into an owning [`WireDoc`] (for retention past the body's
    /// lifetime).
    pub fn to_doc(&self) -> WireDoc {
        WireDoc {
            // lint:allow(D10) to_doc IS the sanctioned copy: callers opt into retention past the borrowed body
            kind: Cow::Owned(self.kind.to_string()),
            fields: self
                .fields
                .iter()
                // lint:allow(D10) to_doc IS the sanctioned copy: callers opt into retention past the borrowed body
                .map(|&(k, v)| (Cow::Owned(k.to_string()), v.to_string()))
                .collect(),
        }
    }

    /// [`WireView::get`], but the returned slice borrows the *body*, not
    /// the view — callers can retain it after the view is dropped (e.g. a
    /// decoded record built from a body that outlives the parse).
    pub fn get_in_body(&self, key: &str) -> Option<&'a str> {
        self.fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// [`WireView::req`] with the body lifetime: required, rejects
    /// duplicates, and the slice outlives the view.
    pub fn req_in_body(&self, key: &'static str) -> Result<&'a str, WireError> {
        let mut it = self.fields.iter().filter(|(k, _)| *k == key);
        let first = it.next();
        if first.is_some() && it.next().is_some() {
            return Err(WireError::DuplicateField(key));
        }
        first.map(|&(_, v)| v).ok_or(WireError::MissingField(key))
    }

    fn fields_iter(&self) -> impl Iterator<Item = (&'a str, &'a str)> + '_ {
        self.fields.iter().copied()
    }

    wire_accessors!();
}

impl PartialEq<WireDoc> for WireView<'_> {
    fn eq(&self, other: &WireDoc) -> bool {
        self.kind == other.kind
            && self.fields.len() == other.fields.len()
            && self
                .fields_iter()
                .zip(other.fields_iter())
                .all(|(a, b)| a == b)
    }
}

impl PartialEq<WireView<'_>> for WireDoc {
    fn eq(&self, other: &WireView<'_>) -> bool {
        other == self
    }
}

impl WireDoc {
    /// Start building a document of type `kind`.
    pub fn new(kind: impl Into<Cow<'static, str>>) -> WireDoc {
        WireDoc {
            kind: kind.into(),
            fields: Vec::new(),
        }
    }

    /// Append a field (keys may repeat).
    ///
    /// # Panics
    /// Panics if the value contains a newline — the caller must sanitize
    /// free-form text (group titles) first via [`sanitize`] — or if the
    /// key is the reserved field-count header `n`.
    pub fn field(self, key: impl Into<Cow<'static, str>>, value: impl fmt::Display) -> WireDoc {
        // lint:allow(D10) Display rendering must own; hot callers use field_string to move instead
        self.field_string(key, value.to_string())
    }

    /// [`WireDoc::field`] for a value that is already an owned `String`:
    /// moves it into the document instead of taking the extra copy the
    /// `Display` path would (the tweet feeds attach millions of
    /// pre-encoded payloads per campaign).
    ///
    /// # Panics
    /// Same contract as [`WireDoc::field`].
    pub fn field_string(mut self, key: impl Into<Cow<'static, str>>, value: String) -> WireDoc {
        let key = key.into();
        assert!(
            !value.contains('\n') && !key.contains('\n'),
            "wire fields must be single-line"
        );
        assert!(
            key != "n",
            "field key \"n\" is reserved for the count header"
        );
        self.fields.push((key, value));
        self
    }

    /// Render to the textual body. The field count is emitted as a leading
    /// `n: <count>` header so parsers can detect dropped/duplicated lines;
    /// [`WireDoc::parse`] strips it back out.
    pub fn render(&self) -> String {
        // Exact size up front (plus the count header's few digits): large
        // pages carry hundreds of encoded payload lines, and growth
        // re-copies would double the memory traffic of rendering.
        let body: usize = self.fields.iter().map(|(k, v)| k.len() + v.len() + 3).sum();
        let mut out = String::with_capacity(self.kind.len() + 8 + body);
        out.push_str(&self.kind);
        let _ = write!(out, "\nn: {}", self.fields.len());
        for (k, v) in &self.fields {
            out.push('\n');
            out.push_str(k);
            out.push_str(": ");
            out.push_str(v);
        }
        out
    }

    /// Parse a body into a zero-copy [`WireView`] borrowing from it.
    ///
    /// Applies the allocation guards, and — when the first field line is a
    /// `n: <count>` header — verifies the declared field count and strips
    /// the header. Bodies without the header (handcrafted error notices)
    /// parse leniently.
    pub fn parse(body: &str) -> Result<WireView<'_>, WireError> {
        WireView::parse(body)
    }

    /// Parse and verify the document type in one step.
    pub fn parse_as<'a>(body: &'a str, expected: &'static str) -> Result<WireView<'a>, WireError> {
        WireView::parse_as(body, expected)
    }

    /// Parse into an owning document (copies every field; reach for
    /// [`WireDoc::parse`] on any hot path).
    pub fn parse_owned(body: &str) -> Result<WireDoc, WireError> {
        WireDoc::parse(body).map(|v| v.to_doc())
    }

    fn fields_iter(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.fields.iter().map(|(k, v)| (k.as_ref(), v.as_str()))
    }

    wire_accessors!();
}

/// Split a field line at its first `": "` separator, exactly as
/// `line.split_once(": ")` would, with a byte scan for `:` instead of the
/// general substring searcher (message pages run this on millions of
/// lines).
fn split_field(line: &str) -> Option<(&str, &str)> {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(off) = bytes[from..].iter().position(|&b| b == b':') {
        let at = from + off;
        if bytes.get(at + 1) == Some(&b' ') {
            // `:` and ` ` are ASCII, so both cuts fall on char boundaries.
            return Some((&line[..at], &line[at + 2..]));
        }
        from = at + 1;
    }
    None
}

/// Append the decimal digits of `v` to `out` — the digit writer behind
/// the message pages and the report's message digest, which render
/// millions of integers without `fmt` machinery or a temporary `String`.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// [`push_u64`] for signed values (a leading `-` for negatives).
pub(crate) fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Number of bytes [`push_u64`] appends for `v`.
pub(crate) fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |l| l as usize + 1)
}

/// Replace newlines in free-form text (group titles come from user input)
/// so it can be carried in a single-line field.
pub fn sanitize(text: &str) -> String {
    text.replace(['\n', '\r'], " ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic() {
        let doc = WireDoc::new("landing")
            .field("title", "Crypto Signals")
            .field("size", 42u32);
        let body = doc.render();
        let parsed = WireDoc::parse(&body).unwrap();
        assert_eq!(parsed.kind, "landing");
        assert_eq!(parsed.get("title"), Some("Crypto Signals"));
        assert_eq!(parsed.req_u64("size").unwrap(), 42);
    }

    #[test]
    fn repeated_keys_preserved_in_order() {
        let doc = WireDoc::new("members")
            .field("member", "+551100")
            .field("member", "+551101")
            .field("member", "+551102");
        let body = doc.render();
        let parsed = WireDoc::parse(&body).unwrap();
        let all: Vec<_> = parsed.get_all("member").collect();
        assert_eq!(all, vec!["+551100", "+551101", "+551102"]);
        assert_eq!(parsed.len(), 3);
    }

    #[test]
    fn parse_as_checks_type() {
        let body = WireDoc::new("alpha").render();
        assert!(WireDoc::parse_as(&body, "alpha").is_ok());
        let err = WireDoc::parse_as(&body, "beta").unwrap_err();
        assert_eq!(
            err,
            WireError::WrongType {
                expected: "beta",
                found: "alpha".into()
            }
        );
    }

    #[test]
    fn errors_on_bad_input() {
        assert_eq!(WireDoc::parse(""), Err(WireError::Empty));
        assert!(matches!(
            WireDoc::parse("doc\nnocolonhere"),
            Err(WireError::MalformedLine(_))
        ));
        // A garbled count header is a parse error, not a field.
        assert!(matches!(
            WireDoc::parse("doc\nn: abc"),
            Err(WireError::BadNumber("n", _))
        ));
        let doc = WireDoc::parse("doc\na: 1").unwrap();
        assert!(matches!(doc.req("x"), Err(WireError::MissingField("x"))));
        assert!(matches!(doc.req_u64("a"), Ok(1)));
    }

    #[test]
    fn count_header_is_emitted_verified_and_stripped() {
        let doc = WireDoc::new("landing")
            .field("size", 3u32)
            .field("title", "x");
        let body = doc.render();
        assert!(body.starts_with("landing\nn: 2\n"), "{body:?}");
        let parsed = WireDoc::parse(&body).unwrap();
        assert_eq!(parsed, doc, "header must be transparent to round-trips");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.get("n"), None);
    }

    #[test]
    fn count_mismatch_detected_both_ways() {
        assert_eq!(
            WireDoc::parse("doc\nn: 2\na: 1"),
            Err(WireError::CountMismatch {
                declared: 2,
                actual: 1
            })
        );
        assert_eq!(
            WireDoc::parse("doc\nn: 0\na: 1"),
            Err(WireError::CountMismatch {
                declared: 0,
                actual: 1
            })
        );
        // Bodies without the header parse leniently (handcrafted notices).
        assert!(WireDoc::parse("not-found\nwhat: nothing here").is_ok());
    }

    #[test]
    fn allocation_guards_reject_hostile_sizes() {
        let mut huge = String::from("doc");
        for i in 0..(MAX_LINES + 1) {
            huge.push_str(&format!("\nk{i}: v"));
        }
        assert_eq!(
            WireDoc::parse(&huge),
            Err(WireError::TooLarge {
                what: "lines",
                limit: MAX_LINES
            })
        );
        let long = format!("doc\nk: {}", "x".repeat(MAX_VALUE_LEN + 1));
        assert_eq!(
            WireDoc::parse(&long),
            Err(WireError::TooLarge {
                what: "value",
                limit: MAX_VALUE_LEN
            })
        );
        // The largest legitimate documents stay under the guards.
        let mut big = WireDoc::new("members");
        for i in 0..1_000 {
            big = big.field("member", format!("+55{i}"));
        }
        assert!(WireDoc::parse(&big.render()).is_ok());
    }

    #[test]
    fn duplicated_scalar_fields_are_rejected() {
        let doc = WireDoc::parse("doc\nsize: 1\nsize: 2\nmember: a\nmember: b").unwrap();
        assert_eq!(doc.req("size"), Err(WireError::DuplicateField("size")));
        assert_eq!(doc.req_u64("size"), Err(WireError::DuplicateField("size")));
        assert_eq!(doc.opt_u64("size"), Err(WireError::DuplicateField("size")));
        // List-valued keys still flow through get_all.
        assert_eq!(doc.get_all("member").count(), 2);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn field_key_n_is_reserved() {
        let _ = WireDoc::new("doc").field("n", 1u32);
    }

    #[test]
    fn values_may_contain_colons_and_unicode() {
        let doc = WireDoc::new("t").field("title", "Grupo: Vagas 🚀 SP: zona sul");
        let body = doc.render();
        let parsed = WireDoc::parse(&body).unwrap();
        assert_eq!(parsed.get("title"), Some("Grupo: Vagas 🚀 SP: zona sul"));
    }

    #[test]
    fn fields_split_at_the_first_colon_space_like_split_once() {
        let lines = [
            "a: b",
            "a:b: c",
            "a::  b",
            "a: b: c: d",
            "::: : :",
            ": ",
            ":  ",
            "a :b",
            "a:",
            ":",
            "x:y:z",
            "é: ü: 🚀",
            "a:\tb",
            "a: ",
            " : ",
        ];
        for line in lines {
            assert_eq!(split_field(line), line.split_once(": "), "{line:?}");
        }
        // Through the parser: every line that has a separator becomes the
        // field `split_once` names, in order.
        let good: Vec<&str> = lines.into_iter().filter(|l| l.contains(": ")).collect();
        let body = format!("doc\n{}", good.join("\n"));
        let view = WireView::parse(&body).unwrap();
        let fields: Vec<(&str, &str)> = view.fields_iter().collect();
        let want: Vec<(&str, &str)> = good.iter().map(|l| l.split_once(": ").unwrap()).collect();
        assert_eq!(fields, want);
    }

    proptest::proptest! {
        #[test]
        fn split_field_agrees_with_split_once(
            lines in proptest::collection::vec("[a: é]{0,16}", 0..64)
        ) {
            for line in &lines {
                proptest::prop_assert_eq!(split_field(line), line.split_once(": "));
            }
        }
    }

    #[test]
    fn digit_writer_matches_display() {
        let mut out = String::new();
        for v in [0, 1, 9, 10, 99, 100, 4_294_967_295, u64::MAX] {
            out.clear();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
            assert_eq!(decimal_len(v), out.len());
        }
        for v in [0, -1, 7, -10, i64::MIN, i64::MAX] {
            out.clear();
            push_i64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn garbled_count_header_reports_after_line_errors() {
        // A malformed line still wins over a garbled `n` header, and a
        // hostile count sizes nothing beyond the body.
        assert!(matches!(
            WireDoc::parse("doc\nn: abc\nnocolon"),
            Err(WireError::MalformedLine(_))
        ));
        assert_eq!(
            WireDoc::parse("doc\nn: 18446744073709551615\na: 1"),
            Err(WireError::CountMismatch {
                declared: usize::MAX,
                actual: 1
            })
        );
        // Only the first field line is the header.
        let doc = WireDoc::parse("doc\na: 1\nn: 5").unwrap();
        assert_eq!(doc.get("n"), Some("5"));
    }

    #[test]
    fn sanitize_strips_newlines() {
        assert_eq!(sanitize("a\nb\r\nc"), "a b  c");
    }

    #[test]
    #[should_panic(expected = "single-line")]
    fn field_rejects_embedded_newline() {
        let _ = WireDoc::new("t").field("title", "a\nb");
    }

    #[test]
    fn opt_u64_semantics() {
        let doc = WireDoc::parse("t\na: 5").unwrap();
        assert_eq!(doc.opt_u64("a").unwrap(), Some(5));
        assert_eq!(doc.opt_u64("b").unwrap(), None);
        let bad = WireDoc::parse("t\na: x").unwrap();
        assert!(bad.opt_u64("a").is_err());
    }

    #[test]
    fn negative_numbers() {
        let doc = WireDoc::new("t").field("delta", -42i64);
        let body = doc.render();
        let parsed = WireDoc::parse(&body).unwrap();
        assert_eq!(parsed.req_i64("delta").unwrap(), -42);
    }
}
