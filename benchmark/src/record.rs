//! The benchmark's record: named metrics with units, the one-line JSON
//! result, summary statistics, and the report-digest references.

use std::fmt::Write as _;

/// Whether `name` is a legal metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let starts_well = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_well
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// The result of one benchmark run: printed as the last line of stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Render as one JSON line. Values keep every digit Rust's shortest
    /// round-trip formatting gives them.
    ///
    /// # Panics
    /// On an invalid metric name or a non-finite value: both are bugs in
    /// the benchmark, never properties of the measured program.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Parse a line written by [`Outcome::to_json`] (only that layout).
    #[cfg(test)]
    pub fn parse(line: &str) -> Option<Outcome> {
        let field = |key: &str| -> Option<&str> {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let mut metrics = Vec::new();
        let body = &line[line.find("\"metrics\": {")? + 12..];
        for entry in body.split("}, ") {
            let entry = entry.trim_end_matches('}');
            if entry.is_empty() {
                continue;
            }
            let (name, rest) = entry.strip_prefix('"')?.split_once("\": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            metrics.push(Metric {
                name: name.to_string(),
                unit: unit.strip_suffix('"')?.to_string(),
                value: value.parse().ok()?,
            });
        }
        Some(Outcome {
            correct: field("correct")?.parse().ok()?,
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics,
        })
    }
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Hex SHA-256 prefix used as a report digest (64 bits is ample to tell
/// two reports apart; the full reports are compared byte for byte where
/// both are in hand).
pub fn digest(text: &str) -> String {
    chatlens_simnet::hash::sha256_hex(text.as_bytes())[..16].to_string()
}

/// One seed-table entry: a campaign seed and the digests of the report
/// and analysis fragments it yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<'a> {
    pub seed: u64,
    pub report: &'a str,
    pub fragments: &'a str,
}

/// The seed tables, one line per entry:
/// `table campaign_seed report_digest fragments_digest`.
pub struct References<'a> {
    text: &'a str,
}

impl<'a> References<'a> {
    pub fn new(text: &'a str) -> References<'a> {
        References { text }
    }

    /// Every entry of `table`, in file order.
    pub fn entries(&self, table: &str) -> Vec<Entry<'a>> {
        self.text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
                [t, seed, report, fragments] if t == table => Some(Entry {
                    seed: seed.parse().ok()?,
                    report,
                    fragments,
                }),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "setup_s",
            "core.collect_2t_s",
            "analysis.fold.pii.day_s",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".x",
            "_x",
            "-x",
            "a b",
            "a/b",
            "é",
            "x\"",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn record_round_trips_through_its_json_line() {
        let outcome = Outcome {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "setup_s".into(),
                    unit: "s".into(),
                    value: 0.025_123_456_789,
                },
                Metric {
                    name: "heap_peak_mb".into(),
                    unit: "MB".into(),
                    value: 41.5,
                },
                Metric {
                    name: "core.tweets".into(),
                    unit: "count".into(),
                    value: 12_345.0,
                },
            ],
        };
        let line = outcome.to_json();
        assert_eq!(Outcome::parse(&line), Some(outcome));
        let empty = Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        };
        assert_eq!(Outcome::parse(&empty.to_json()), Some(empty));
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn an_invalid_name_never_reaches_the_record() {
        Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric {
                name: "bad name".into(),
                unit: "s".into(),
                value: 1.0,
            }],
        }
        .to_json();
    }

    #[test]
    fn seed_tables_parse_by_name() {
        let text = "# table campaign_seed report fragments\n\
                    calm 3 aaaa bbbb\n\
                    hostile 45 cccc dddd\n\
                    calm 30 eeee ffff\n\
                    calm x gggg hhhh\n";
        let refs = References::new(text);
        let calm = refs.entries("calm");
        assert_eq!(calm.len(), 2, "a malformed seed is skipped");
        assert_eq!(
            calm[1],
            Entry {
                seed: 30,
                report: "eeee",
                fragments: "ffff"
            }
        );
        assert_eq!(refs.entries("hostile")[0].seed, 45);
        assert!(refs.entries("durable").is_empty());
    }

    #[test]
    fn digests_tell_reports_apart() {
        assert_eq!(digest("report").len(), 16);
        assert_eq!(digest("report"), digest("report"));
        assert_ne!(digest("report"), digest("report\n"));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
