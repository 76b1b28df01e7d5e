//! A lightweight Rust tokenizer for the determinism lint.
//!
//! This is not a full lexer — it recognises exactly what the lint rules
//! need to match identifier sequences *reliably*: identifiers, punctuation
//! and literal spans with line/column provenance, while never producing
//! tokens from inside comments, strings, char literals, or raw strings
//! (so commented-out code cannot trip a rule). It also extracts
//! `// lint:allow(<rules>)` suppression pragmas from line comments.

use std::collections::{BTreeMap, BTreeSet};

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`for`, `let`, `HashMap`, ...).
    Ident,
    /// A single punctuation character (`:`, `.`, `(`, `&`, ...).
    Punct,
    /// A string, raw-string, byte-string, char, or numeric literal.
    Literal,
    /// A lifetime (`'a`) — kept distinct so `'a` never parses as a char.
    Lifetime,
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Identifier text, single punctuation char, or `""` for literals.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (byte offset within the line).
    pub col: u32,
}

impl Tok {
    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// One `// lint:allow(...)` suppression pragma with its provenance and
/// whether a justification follows the rule list — a bare pragma with no
/// trailing rationale is itself a lint error (the pragma audit).
#[derive(Debug, Clone)]
pub struct AllowPragma {
    /// 1-based line the pragma comment starts on.
    pub line: u32,
    /// 1-based column of the comment.
    pub col: u32,
    /// Rule ids named inside the parentheses.
    pub rules: BTreeSet<String>,
    /// Whether explanatory text follows the closing paren (at least two
    /// words — "sorted" alone is a label, not a justification).
    pub justified: bool,
}

/// Tokenizer output: the token stream plus the suppression pragmas found
/// in line comments, keyed by the 1-based line they appear on.
#[derive(Debug, Default)]
pub struct Scan {
    /// Tokens outside comments/strings, in source order.
    pub tokens: Vec<Tok>,
    /// `lint:allow(...)` pragmas: line → rule ids named on that line.
    pub allows: BTreeMap<u32, BTreeSet<String>>,
    /// Every pragma with provenance and justification status, in source
    /// order — the raw material for the unused-pragma and
    /// missing-justification audits.
    pub pragmas: Vec<AllowPragma>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Parse a suppression pragma out of a comment body, if present. The
/// shape is `lint:allow` followed by a parenthesized rule list and a
/// trailing justification; returns the named rules plus whether a
/// justification (at least two words of trailing text) follows the
/// closing paren.
fn parse_allow(comment: &str) -> Option<(BTreeSet<String>, bool)> {
    let at = comment.find("lint:allow(")?;
    let rest = &comment[at + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let rules: BTreeSet<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let tail = rest[close + 1..].trim_matches(|c: char| c.is_whitespace() || "—–-:;,.".contains(c));
    let justified = tail.split_whitespace().count() >= 2;
    (!rules.is_empty()).then_some((rules, justified))
}

/// Tokenize `source`, recording pragmas along the way.
pub fn scan(source: &str) -> Scan {
    let mut cur = Cursor {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Scan::default();
    while let Some(b) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        match b {
            // Line comment (also handles doc comments //! and ///) —
            // capture a lint:allow pragma if a plain comment carries one;
            // a doc comment that mentions the syntax documents it.
            b'/' if cur.peek(1) == Some(b'/') => {
                let start = cur.pos;
                while let Some(c) = cur.peek(0) {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
                let body = &source[start..cur.pos];
                let doc = body.starts_with("///") || body.starts_with("//!");
                if let Some((rules, justified)) = parse_allow(body).filter(|_| !doc) {
                    out.allows.entry(line).or_default().extend(rules.clone());
                    out.pragmas.push(AllowPragma {
                        line,
                        col,
                        rules,
                        justified,
                    });
                }
            }
            // Block comment, with nesting.
            b'/' if cur.peek(1) == Some(b'*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            cur.bump();
                            cur.bump();
                            depth += 1;
                        }
                        (Some(b'*'), Some(b'/')) => {
                            cur.bump();
                            cur.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
            }
            // Plain string literal.
            b'"' => {
                consume_string(&mut cur);
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                    col,
                });
            }
            // Lifetime or char literal.
            b'\'' => {
                // `'ident` not followed by a closing quote is a lifetime;
                // anything else ('x', '\n', '{', '\'') is a char literal.
                let is_lifetime = match cur.peek(1) {
                    Some(c) if is_ident_start(c) => {
                        // Walk the identifier; a trailing `'` makes it a
                        // char literal like 'a'.
                        let mut j = 2;
                        while cur.peek(j).map(is_ident_continue) == Some(true) {
                            j += 1;
                        }
                        cur.peek(j) != Some(b'\'')
                    }
                    _ => false,
                };
                if is_lifetime {
                    cur.bump(); // '
                    let start = cur.pos;
                    while cur.peek(0).map(is_ident_continue) == Some(true) {
                        cur.bump();
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: source[start..cur.pos].to_string(),
                        line,
                        col,
                    });
                } else {
                    cur.bump(); // opening '
                    if cur.peek(0) == Some(b'\\') {
                        cur.bump();
                        cur.bump(); // escaped char (or first of \u{...})
                        while cur.peek(0).is_some() && cur.peek(0) != Some(b'\'') {
                            cur.bump(); // rest of \u{...} style escapes
                        }
                    } else {
                        // The char itself — may be multi-byte UTF-8 (e.g.
                        // sparkline blocks), so consume to the closing quote.
                        cur.bump();
                        while cur.peek(0).is_some() && cur.peek(0) != Some(b'\'') {
                            cur.bump();
                        }
                    }
                    if cur.peek(0) == Some(b'\'') {
                        cur.bump(); // closing '
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Literal,
                        text: String::new(),
                        line,
                        col,
                    });
                }
            }
            // Identifier — with care for raw strings (r"..", r#".."#),
            // byte strings (b".."), raw identifiers (r#ident) and their
            // combinations; the prefix must not swallow `regular_name`.
            _ if is_ident_start(b) => {
                let start = cur.pos;
                while cur.peek(0).map(is_ident_continue) == Some(true) {
                    cur.bump();
                }
                let text = &source[start..cur.pos];
                let next = cur.peek(0);
                let raw_capable = matches!(text, "r" | "br");
                let str_capable = matches!(text, "b" | "r" | "br");
                if raw_capable && next == Some(b'#') {
                    // r#raw_ident vs r#"raw string"#.
                    let mut j = 0;
                    while cur.peek(j) == Some(b'#') {
                        j += 1;
                    }
                    if cur.peek(j) == Some(b'"') {
                        consume_raw_string(&mut cur);
                        out.tokens.push(Tok {
                            kind: TokKind::Literal,
                            text: String::new(),
                            line,
                            col,
                        });
                        continue;
                    }
                    if text == "r" {
                        // Raw identifier: emit `r#name` as the name itself.
                        cur.bump(); // #
                        let istart = cur.pos;
                        while cur.peek(0).map(is_ident_continue) == Some(true) {
                            cur.bump();
                        }
                        out.tokens.push(Tok {
                            kind: TokKind::Ident,
                            text: source[istart..cur.pos].to_string(),
                            line,
                            col,
                        });
                        continue;
                    }
                } else if str_capable && next == Some(b'"') {
                    if text == "b" {
                        consume_string(&mut cur);
                    } else {
                        consume_raw_string(&mut cur);
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Literal,
                        text: String::new(),
                        line,
                        col,
                    });
                    continue;
                } else if text == "b" && next == Some(b'\'') {
                    // Byte char literal b'x'.
                    cur.bump(); // '
                    if cur.peek(0) == Some(b'\\') {
                        cur.bump();
                    }
                    cur.bump();
                    if cur.peek(0) == Some(b'\'') {
                        cur.bump();
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Literal,
                        text: String::new(),
                        line,
                        col,
                    });
                    continue;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: text.to_string(),
                    line,
                    col,
                });
            }
            // Number: digits, then any alphanumeric tail (hex, suffixes),
            // plus a fractional part when a digit follows the dot — so
            // `0..n` leaves the range dots alone.
            _ if b.is_ascii_digit() => {
                while cur.peek(0).map(|c| c.is_ascii_alphanumeric() || c == b'_') == Some(true) {
                    cur.bump();
                }
                if cur.peek(0) == Some(b'.')
                    && cur.peek(1).map(|c| c.is_ascii_digit()) == Some(true)
                {
                    cur.bump();
                    while cur.peek(0).map(|c| c.is_ascii_alphanumeric() || c == b'_') == Some(true)
                    {
                        cur.bump();
                    }
                }
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                    col,
                });
            }
            // Whitespace.
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            // Single punctuation character.
            _ => {
                cur.bump();
                out.tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: (b as char).to_string(),
                    line,
                    col,
                });
            }
        }
    }
    out
}

/// Consume a `"..."` string starting at the opening quote, honouring
/// backslash escapes (including `\"` and `\\`).
fn consume_string(cur: &mut Cursor) {
    cur.bump(); // opening "
    while let Some(c) = cur.peek(0) {
        match c {
            b'\\' => {
                cur.bump();
                cur.bump();
            }
            b'"' => {
                cur.bump();
                return;
            }
            _ => {
                cur.bump();
            }
        }
    }
}

/// Consume a raw string starting at the `#`s or quote after the `r`/`br`
/// prefix: `#*"` ... `"#*` with a matching number of hashes, no escapes.
/// Returns the byte range of the string's contents.
fn consume_raw_string(cur: &mut Cursor) {
    let mut hashes = 0usize;
    while cur.peek(0) == Some(b'#') {
        cur.bump();
        hashes += 1;
    }
    cur.bump(); // opening "
    loop {
        match cur.peek(0) {
            None => return,
            Some(b'"') => {
                cur.bump();
                let mut seen = 0usize;
                while seen < hashes && cur.peek(0) == Some(b'#') {
                    cur.bump();
                    seen += 1;
                }
                if seen == hashes {
                    return;
                }
            }
            Some(_) => {
                cur.bump();
            }
        }
    }
}

/// Indices of tokens that belong to `#[cfg(test)] mod ... { ... }` blocks.
///
/// Test modules are exempt from the lint: tests may use wall-clock,
/// `unwrap()`, and unordered maps freely — the contract protects the
/// artifact pipeline, not assertions about it.
pub fn test_mod_spans(tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Match `# [ cfg ( test ) ]`.
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && tokens.get(i + 5).is_some_and(|t| t.is_punct(')'))
            && tokens.get(i + 6).is_some_and(|t| t.is_punct(']'));
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip further attributes, then require `mod name {`.
        let mut j = i + 7;
        while tokens.get(j).is_some_and(|t| t.is_punct('#')) {
            // Balance the attribute's brackets.
            let mut depth = 0usize;
            j += 1; // past '#'
            while let Some(t) = tokens.get(j) {
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if tokens.get(j).is_some_and(|t| t.is_ident("mod")) {
            // Find the opening brace, then balance.
            let mut k = j;
            while k < tokens.len() && !tokens[k].is_punct('{') {
                k += 1;
            }
            let mut depth = 0usize;
            let open = k;
            while k < tokens.len() {
                if tokens[k].is_punct('{') {
                    depth += 1;
                } else if tokens[k].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            spans.push((i, k.min(tokens.len().saturating_sub(1))));
            i = k + 1;
            let _ = open;
        } else {
            i = j;
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_produce_no_tokens() {
        let src = "// SystemTime::now()\n/* Instant::now() /* nested */ still */ let x = 1;";
        assert_eq!(idents(src), vec!["let", "x"]);
    }

    #[test]
    fn strings_produce_no_ident_tokens() {
        let src =
            r###"let s = "SystemTime::now() // not a comment"; let r = r#"Instant::now()"#;"###;
        assert_eq!(idents(src), vec!["let", "s", "let", "r"]);
    }

    #[test]
    fn char_literals_with_braces_do_not_derail_nesting() {
        let src = "fn f() { let open = '{'; let close = '}'; inner(); } after();";
        let ids = idents(src);
        assert!(ids.contains(&"inner".to_string()));
        assert!(ids.contains(&"after".to_string()));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let s = scan(src);
        assert!(s.tokens.iter().any(|t| t.kind == TokKind::Lifetime));
        // The 'a's must not swallow `str`.
        assert_eq!(idents(src).iter().filter(|t| *t == "str").count(), 2);
    }

    #[test]
    fn raw_identifiers_keep_their_name() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn line_and_column_tracking() {
        let src = "let a = 1;\n  let bb = 2;";
        let s = scan(src);
        let bb = s.tokens.iter().find(|t| t.is_ident("bb")).unwrap();
        assert_eq!((bb.line, bb.col), (2, 7));
    }

    #[test]
    fn allow_pragmas_are_collected() {
        let src = "// lint:allow(D10, D2) — cold path, sorted here\nlet x = 1;";
        let s = scan(src);
        let rules = &s.allows[&1];
        assert!(rules.contains("D10") && rules.contains("D2"));
        // A doc comment that shows the syntax documents it; it is no pragma.
        let doc = scan("/// put `// lint:allow(D2) reason` above the site\n//! `lint:allow(D4)`\n");
        assert!(doc.pragmas.is_empty() && doc.allows.is_empty());
    }

    #[test]
    fn test_mod_spans_cover_cfg_test_blocks() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { x(); }\n}\nfn after() {}";
        let s = scan(src);
        let spans = test_mod_spans(&s.tokens);
        assert_eq!(spans.len(), 1);
        let (lo, hi) = spans[0];
        let inside: Vec<&str> = s.tokens[lo..=hi]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(inside.contains(&"x"));
        assert!(!inside.contains(&"after"));
        assert!(!inside.contains(&"live"));
    }
}
