//! Phone numbers and country codes.
//!
//! WhatsApp and Telegram register users by phone number; the paper derives
//! a WhatsApp group's country of origin from the **country code of the
//! creator's phone number** (§5, "Group Countries") and hashes the numbers
//! before storage (§3.4). This module provides an E.164-style phone-number
//! type, the country table used by the workload models (the top WhatsApp
//! countries reported by the paper plus the rest of the study's language
//! regions), and deterministic number allocation.

use chatlens_simnet::rng::Rng;
use std::fmt;

/// ISO-3166-style country entries used by the simulation.
///
/// `dial` is the E.164 country calling code; `iso` the two-letter code the
/// paper reports (e.g. "BR").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CountryCode {
    /// Two-letter ISO code (e.g. "BR").
    pub iso: &'static str,
    /// E.164 dialing prefix (e.g. 55 for Brazil).
    pub dial: u16,
    /// Number of digits in the national significant number.
    pub national_digits: u8,
}

/// The country table: the paper's top WhatsApp-creator countries (§5:
/// Brazil, Nigeria, Indonesia, India, Saudi Arabia, Mexico, Argentina)
/// plus the other regions implied by the language analysis (Fig 4).
pub const COUNTRIES: &[CountryCode] = &[
    CountryCode {
        iso: "BR",
        dial: 55,
        national_digits: 11,
    },
    CountryCode {
        iso: "NG",
        dial: 234,
        national_digits: 10,
    },
    CountryCode {
        iso: "ID",
        dial: 62,
        national_digits: 10,
    },
    CountryCode {
        iso: "IN",
        dial: 91,
        national_digits: 10,
    },
    CountryCode {
        iso: "SA",
        dial: 966,
        national_digits: 9,
    },
    CountryCode {
        iso: "MX",
        dial: 52,
        national_digits: 10,
    },
    CountryCode {
        iso: "AR",
        dial: 54,
        national_digits: 10,
    },
    CountryCode {
        iso: "US",
        dial: 1,
        national_digits: 10,
    },
    CountryCode {
        iso: "GB",
        dial: 44,
        national_digits: 10,
    },
    CountryCode {
        iso: "ES",
        dial: 34,
        national_digits: 9,
    },
    CountryCode {
        iso: "PT",
        dial: 351,
        national_digits: 9,
    },
    CountryCode {
        iso: "TR",
        dial: 90,
        national_digits: 10,
    },
    CountryCode {
        iso: "EG",
        dial: 20,
        national_digits: 10,
    },
    CountryCode {
        iso: "KW",
        dial: 965,
        national_digits: 8,
    },
    CountryCode {
        iso: "JP",
        dial: 81,
        national_digits: 10,
    },
    CountryCode {
        iso: "DE",
        dial: 49,
        national_digits: 10,
    },
    CountryCode {
        iso: "FR",
        dial: 33,
        national_digits: 9,
    },
    CountryCode {
        iso: "RU",
        dial: 7,
        national_digits: 10,
    },
    CountryCode {
        iso: "PK",
        dial: 92,
        national_digits: 10,
    },
    CountryCode {
        iso: "ZA",
        dial: 27,
        national_digits: 9,
    },
];

/// Look up a country by its two-letter ISO code.
pub fn country_by_iso(iso: &str) -> Option<CountryCode> {
    COUNTRIES.iter().copied().find(|c| c.iso == iso)
}

/// Look up a country by its dialing prefix.
pub fn country_by_dial(dial: u16) -> Option<CountryCode> {
    COUNTRIES.iter().copied().find(|c| c.dial == dial)
}

/// An E.164-style phone number: dialing prefix plus national number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhoneNumber {
    /// E.164 country calling code.
    pub dial: u16,
    /// National significant number.
    pub national: u64,
}

impl PhoneNumber {
    /// Allocate a random number in `country`, deterministic under `rng`.
    ///
    /// Numbers start with a nonzero digit and have the country's national
    /// length; collisions across draws are possible but harmless (two users
    /// sharing a number merely share a hash, which only ever *understates*
    /// PII exposure counts).
    pub fn allocate(country: CountryCode, rng: &mut Rng) -> PhoneNumber {
        let digits = u32::from(country.national_digits);
        let lo = 10u64.pow(digits - 1);
        let hi = 10u64.pow(digits) - 1;
        PhoneNumber {
            dial: country.dial,
            national: rng.range(lo, hi),
        }
    }

    /// E.164 string, e.g. `+5511987654321`.
    pub fn e164(&self) -> String {
        format!("+{}{}", self.dial, self.national)
    }

    /// The country this number belongs to, if its prefix is in the table.
    pub fn country(&self) -> Option<CountryCode> {
        country_by_dial(self.dial)
    }

    /// Two-letter ISO code of the number's country, or `"??"` if unknown.
    pub fn iso(&self) -> &'static str {
        self.country().map(|c| c.iso).unwrap_or("??")
    }
}

impl fmt::Display for PhoneNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.e164())
    }
}

/// Parse an E.164 string produced by [`PhoneNumber::e164`].
///
/// Returns `None` for anything that does not match a known country prefix
/// followed by the right number of national digits.
pub fn parse_e164(s: &str) -> Option<PhoneNumber> {
    let digits = s.strip_prefix('+')?;
    if !digits.bytes().all(|b| b.is_ascii_digit()) || digits.is_empty() {
        return None;
    }
    // Try longest dialing prefixes first (3, then 2, then 1 digits) so
    // e.g. +351... parses as Portugal rather than a bogus 1-digit match.
    for plen in (1..=3.min(digits.len())).rev() {
        let (p, rest) = digits.split_at(plen);
        let dial: u16 = p.parse().ok()?;
        if let Some(c) = country_by_dial(dial) {
            if rest.len() == usize::from(c.national_digits) {
                return Some(PhoneNumber {
                    dial,
                    national: rest.parse().ok()?,
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_paper_countries() {
        for iso in ["BR", "NG", "ID", "IN", "SA", "MX", "AR"] {
            assert!(country_by_iso(iso).is_some(), "missing {iso}");
        }
    }

    #[test]
    fn no_country_dials_the_no_phone_sentinel() {
        // `User` stores "no phone" as dial 0.
        for c in COUNTRIES {
            assert_ne!(c.dial, 0, "{}", c.iso);
        }
    }

    #[test]
    fn dial_codes_unique() {
        let mut dials: Vec<u16> = COUNTRIES.iter().map(|c| c.dial).collect();
        dials.sort_unstable();
        dials.dedup();
        assert_eq!(dials.len(), COUNTRIES.len());
    }

    #[test]
    fn allocation_has_correct_shape() {
        let mut rng = Rng::new(1);
        let br = country_by_iso("BR").unwrap();
        for _ in 0..100 {
            let p = PhoneNumber::allocate(br, &mut rng);
            assert_eq!(p.dial, 55);
            let s = p.national.to_string();
            assert_eq!(s.len(), 11, "national number {s} wrong length");
        }
    }

    #[test]
    fn e164_roundtrip() {
        let mut rng = Rng::new(2);
        for &c in COUNTRIES {
            let p = PhoneNumber::allocate(c, &mut rng);
            let parsed = parse_e164(&p.e164()).unwrap_or_else(|| panic!("parse {p}"));
            assert_eq!(parsed, p);
            assert_eq!(parsed.iso(), c.iso);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_e164(""), None);
        assert_eq!(parse_e164("+"), None);
        assert_eq!(parse_e164("5511987654321"), None, "missing plus");
        assert_eq!(parse_e164("+55abc"), None);
        assert_eq!(parse_e164("+99912345678"), None, "unknown prefix");
        // Right prefix, wrong length.
        assert_eq!(parse_e164("+55123"), None);
    }

    #[test]
    fn longest_prefix_wins() {
        // +351 (PT, 9 digits) must not parse as an invalid 1-digit prefix.
        let pt = country_by_iso("PT").unwrap();
        let mut rng = Rng::new(3);
        let p = PhoneNumber::allocate(pt, &mut rng);
        assert_eq!(parse_e164(&p.e164()).unwrap().iso(), "PT");
    }

    #[test]
    fn display_matches_e164() {
        let p = PhoneNumber {
            dial: 55,
            national: 11_987_654_321,
        };
        assert_eq!(p.to_string(), "+5511987654321");
    }
}
