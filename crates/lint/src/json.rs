//! Machine-readable lint output: a hand-rolled emitter and a minimal
//! validating parser for the `chatlens-lint/v1` schema.
//!
//! The lint crate is deliberately dependency-free, so both directions are
//! written by hand. The schema is stable — ci.sh writes `target/lint.json`
//! every run and downstream tooling may key off it:
//!
//! ```json
//! {
//!   "schema": "chatlens-lint/v1",
//!   "files_scanned": 57,
//!   "suppressed": 12,
//!   "findings": [
//!     { "rule": "D2", "path": "crates/x/src/y.rs",
//!       "line": 3, "col": 9, "message": "..." }
//!   ],
//!   "per_rule": { "D2": 0, "...": 0 },
//!   "per_crate": { "analysis": 0, "bin": 0 }
//! }
//! ```
//!
//! Emission order is fully deterministic (findings in walk order, maps
//! BTreeMap-backed), so two consecutive runs over an unchanged tree are
//! byte-identical — ci.sh asserts exactly that.

use crate::Report;

/// JSON-escape a string (control characters, quotes, backslashes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a [`Report`] as `chatlens-lint/v1` JSON.
pub fn report_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"chatlens-lint/v1\",\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"suppressed\": {},\n",
        report.files_scanned, report.suppressed
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{ \"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\" }}",
            f.rule.id(),
            escape(&f.path),
            f.line,
            f.col,
            escape(&f.message)
        ));
    }
    if report.findings.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"per_rule\": {");
    let per_rule = report.per_rule();
    for (i, (rule, n)) in per_rule.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(" \"{}\": {}", rule.id(), n));
    }
    out.push_str(" },\n  \"per_crate\": {");
    for (i, (krate, n)) in report.per_crate().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(" \"{}\": {}", escape(krate), n));
    }
    out.push_str(" }\n}\n");
    out
}

/// Validate that `text` is well-formed JSON carrying the
/// `chatlens-lint/v1` schema: the required top-level keys with the
/// required shapes, and every finding object fully populated. Returns a
/// human-readable error on the first problem found.
pub fn validate(text: &str) -> Result<(), String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    let Val::Obj(top) = v else {
        return Err("top level is not an object".into());
    };
    let get = |k: &str| -> Result<&Val, String> {
        top.iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing required key \"{k}\""))
    };
    match get("schema")? {
        Val::Str(s) if s == "chatlens-lint/v1" => {}
        Val::Str(s) => return Err(format!("unknown schema \"{s}\"")),
        _ => return Err("\"schema\" is not a string".into()),
    }
    for k in ["files_scanned", "suppressed"] {
        if !matches!(get(k)?, Val::Num) {
            return Err(format!("\"{k}\" is not a number"));
        }
    }
    for k in ["per_rule", "per_crate"] {
        let Val::Obj(m) = get(k)? else {
            return Err(format!("\"{k}\" is not an object"));
        };
        if m.iter().any(|(_, v)| !matches!(v, Val::Num)) {
            return Err(format!("\"{k}\" has a non-numeric value"));
        }
    }
    let Val::Arr(findings) = get("findings")? else {
        return Err("\"findings\" is not an array".into());
    };
    for (i, f) in findings.iter().enumerate() {
        let Val::Obj(obj) = f else {
            return Err(format!("findings[{i}] is not an object"));
        };
        for (k, want_str) in [
            ("rule", true),
            ("path", true),
            ("message", true),
            ("line", false),
            ("col", false),
        ] {
            let v = obj
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("findings[{i}] missing \"{k}\""))?;
            let ok = if want_str {
                matches!(v, Val::Str(_))
            } else {
                matches!(v, Val::Num)
            };
            if !ok {
                return Err(format!("findings[{i}].{k} has the wrong type"));
            }
        }
    }
    Ok(())
}

/// A parsed JSON value — just enough structure for schema checking.
enum Val {
    Obj(Vec<(String, Val)>),
    Arr(Vec<Val>),
    Str(String),
    Num,
    Bool,
    Null,
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}, found {:?}",
                c as char,
                self.i,
                self.b.get(self.i).map(|&x| x as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Val, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b't') => self.literal("true", Val::Bool),
            Some(b'f') => self.literal("false", Val::Bool),
            Some(b'n') => self.literal("null", Val::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                self.i += 1;
                while self.b.get(self.i).is_some_and(|c| {
                    c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
                }) {
                    self.i += 1;
                }
                Ok(Val::Num)
            }
            other => Err(format!(
                "unexpected {:?} at offset {}",
                other.map(|&x| x as char),
                self.i
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Val) -> Result<Val, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| "invalid utf-8".into());
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            // \uXXXX — decode minimally (BMP only).
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.extend(
                                char::from_u32(code)
                                    .unwrap_or('\u{fffd}')
                                    .to_string()
                                    .as_bytes(),
                            );
                            self.i += 4;
                        }
                        Some(&c) => out.push(c),
                        None => return Err("unterminated escape".into()),
                    }
                    self.i += 1;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Val, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Val::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            out.push((key, val));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Val::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Val, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Val::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Val::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, Rule};

    fn sample_report() -> Report {
        Report {
            findings: vec![Finding {
                rule: Rule::D2,
                path: "crates/core/src/x.rs".into(),
                line: 3,
                col: 9,
                message: "quoted \"key\" and\nnewline".into(),
            }],
            suppressed: 2,
            files_scanned: 5,
        }
    }

    #[test]
    fn emitted_json_validates() {
        let json = report_json(&sample_report());
        validate(&json).unwrap();
        // And an empty report too.
        validate(&report_json(&Report::default())).unwrap();
    }

    #[test]
    fn emission_is_deterministic() {
        let r = sample_report();
        assert_eq!(report_json(&r), report_json(&r));
    }

    #[test]
    fn validator_rejects_malformed_and_off_schema_input() {
        assert!(validate("{").is_err());
        assert!(validate("[]").is_err());
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"schema": "other/v9"}"#).is_err());
        let missing_findings = r#"{"schema": "chatlens-lint/v1", "files_scanned": 1, "suppressed": 0, "per_rule": {}, "per_crate": {}}"#;
        assert!(validate(missing_findings).is_err());
        let bad_finding = r#"{"schema": "chatlens-lint/v1", "files_scanned": 1, "suppressed": 0,
            "findings": [{"rule": "D2"}], "per_rule": {}, "per_crate": {}}"#;
        assert!(validate(bad_finding).is_err());
    }

    #[test]
    fn validator_accepts_escapes() {
        let json = report_json(&sample_report());
        assert!(json.contains("\\\"key\\\""));
        validate(&json).unwrap();
    }
}
