//! Invite codes and group-URL patterns.
//!
//! §3.1: group URLs follow six patterns across the three platforms —
//! `chat.whatsapp.com/`, `t.me/`, `telegram.me/`, `telegram.org/`,
//! `discord.gg/`, and `discord.com/`. This module generates codes in each
//! platform's native alphabet/length and renders/parses the URL forms the
//! discovery pipeline searches for.

use crate::id::PlatformKind;
use chatlens_simnet::rng::Rng;
use std::fmt;

/// The six host patterns of §3.1, in a fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UrlPattern {
    /// `chat.whatsapp.com/<code>`
    WhatsAppChat,
    /// `t.me/joinchat/<code>` or `t.me/<name>`
    TMe,
    /// `telegram.me/<name>`
    TelegramMe,
    /// `telegram.org/<name>` (rare legacy form)
    TelegramOrg,
    /// `discord.gg/<code>`
    DiscordGg,
    /// `discord.com/invite/<code>`
    DiscordCom,
}

impl UrlPattern {
    /// All six patterns.
    pub const ALL: [UrlPattern; 6] = [
        UrlPattern::WhatsAppChat,
        UrlPattern::TMe,
        UrlPattern::TelegramMe,
        UrlPattern::TelegramOrg,
        UrlPattern::DiscordGg,
        UrlPattern::DiscordCom,
    ];

    /// The host prefix (what the paper's Twitter queries match on).
    pub fn host(self) -> &'static str {
        match self {
            UrlPattern::WhatsAppChat => "chat.whatsapp.com",
            UrlPattern::TMe => "t.me",
            UrlPattern::TelegramMe => "telegram.me",
            UrlPattern::TelegramOrg => "telegram.org",
            UrlPattern::DiscordGg => "discord.gg",
            UrlPattern::DiscordCom => "discord.com",
        }
    }

    /// The platform this pattern belongs to.
    pub fn platform(self) -> PlatformKind {
        match self {
            UrlPattern::WhatsAppChat => PlatformKind::WhatsApp,
            UrlPattern::TMe | UrlPattern::TelegramMe | UrlPattern::TelegramOrg => {
                PlatformKind::Telegram
            }
            UrlPattern::DiscordGg | UrlPattern::DiscordCom => PlatformKind::Discord,
        }
    }
}

const BASE62: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";

fn base62(rng: &mut Rng, len: usize) -> String {
    (0..len)
        .map(|_| BASE62[rng.index(BASE62.len())] as char)
        .collect()
}

/// A platform invite code plus the URL form it is shared under.
///
/// Codes are unique per platform (the allocator in
/// [`crate::platform::Platform`] retries on collision), so a code string
/// identifies exactly one group.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InviteCode {
    /// Which of the six URL patterns this invite renders as.
    pub pattern: UrlPattern,
    /// The opaque code or vanity name.
    pub code: String,
}

impl InviteCode {
    /// Generate a fresh invite in `platform`'s native format.
    ///
    /// * WhatsApp: 22-character base62 id under `chat.whatsapp.com/`.
    /// * Telegram: mostly `t.me/joinchat/<16 base62>` (private-style invite)
    ///   or `t.me/<name>` (public vanity name); a small share uses the
    ///   legacy `telegram.me` / `telegram.org` hosts.
    /// * Discord: 8-character base62 code under `discord.gg/` or the longer
    ///   `discord.com/invite/` form.
    pub fn generate(platform: PlatformKind, rng: &mut Rng) -> InviteCode {
        match platform {
            PlatformKind::WhatsApp => InviteCode {
                pattern: UrlPattern::WhatsAppChat,
                code: base62(rng, 22),
            },
            PlatformKind::Telegram => {
                let roll = rng.f64();
                let pattern = if roll < 0.90 {
                    UrlPattern::TMe
                } else if roll < 0.97 {
                    UrlPattern::TelegramMe
                } else {
                    UrlPattern::TelegramOrg
                };
                // 60% joinchat-style opaque codes, 40% vanity names.
                let code = if pattern == UrlPattern::TMe && rng.chance(0.6) {
                    format!("joinchat/{}", base62(rng, 16))
                } else {
                    format!("grp_{}", base62(rng, 10))
                };
                InviteCode { pattern, code }
            }
            PlatformKind::Discord => {
                let pattern = if rng.chance(0.85) {
                    UrlPattern::DiscordGg
                } else {
                    UrlPattern::DiscordCom
                };
                let code = base62(rng, 8);
                InviteCode { pattern, code }
            }
        }
    }

    /// The full URL as it appears inside tweets.
    pub fn url(&self) -> String {
        let path = match self.pattern {
            UrlPattern::DiscordCom => "discord.com/invite",
            p => p.host(),
        };
        // Built at its exact length: tweets keep these strings for good.
        let mut url = String::with_capacity("https://".len() + path.len() + 1 + self.code.len());
        url.push_str("https://");
        url.push_str(path);
        url.push('/');
        url.push_str(&self.code);
        url
    }

    /// The platform this invite belongs to.
    pub fn platform(&self) -> PlatformKind {
        self.pattern.platform()
    }

    /// A canonical identity key for deduplication: platform index plus the
    /// opaque code (two URL forms of the same Discord code are one group).
    pub fn dedup_key(&self) -> String {
        format!("{}:{}", self.platform().index(), self.code)
    }
}

impl fmt::Display for InviteCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.url())
    }
}

/// Parse a group URL (any of the six patterns) back into an [`InviteCode`].
///
/// Accepts `http://`, `https://` or bare-host forms and ignores query
/// strings/fragments. Returns `None` for non-invite URLs (e.g. a plain
/// `discord.com/` marketing page without `/invite/`).
pub fn parse_invite_url(url: &str) -> Option<InviteCode> {
    let rest = url
        .strip_prefix("https://")
        .or_else(|| url.strip_prefix("http://"))
        .unwrap_or(url);
    let rest = rest.strip_prefix("www.").unwrap_or(rest);
    // Cut query string / fragment.
    let rest = rest.split(['?', '#']).next().unwrap_or(rest);
    let (host, path) = rest.split_once('/')?;
    let path = path.trim_end_matches('/');
    if path.is_empty() {
        return None;
    }
    let pattern = UrlPattern::ALL
        .into_iter()
        .find(|p| p.host().eq_ignore_ascii_case(host))?;
    let code = match pattern {
        UrlPattern::DiscordCom => path.strip_prefix("invite/")?.to_string(),
        _ => path.to_string(),
    };
    if code.is_empty() {
        return None;
    }
    Some(InviteCode { pattern, code })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_matches_platform_formats() {
        let mut rng = Rng::new(1);
        for _ in 0..200 {
            let wa = InviteCode::generate(PlatformKind::WhatsApp, &mut rng);
            assert_eq!(wa.pattern, UrlPattern::WhatsAppChat);
            assert_eq!(wa.code.len(), 22);
            assert!(wa.url().starts_with("https://chat.whatsapp.com/"));

            let tg = InviteCode::generate(PlatformKind::Telegram, &mut rng);
            assert_eq!(tg.platform(), PlatformKind::Telegram);

            let dc = InviteCode::generate(PlatformKind::Discord, &mut rng);
            assert_eq!(dc.platform(), PlatformKind::Discord);
            assert_eq!(dc.code.len(), 8);
        }
    }

    #[test]
    fn telegram_pattern_mix() {
        let mut rng = Rng::new(2);
        let mut tme = 0;
        let mut legacy = 0;
        for _ in 0..2000 {
            match InviteCode::generate(PlatformKind::Telegram, &mut rng).pattern {
                UrlPattern::TMe => tme += 1,
                UrlPattern::TelegramMe | UrlPattern::TelegramOrg => legacy += 1,
                p => panic!("unexpected pattern {p:?}"),
            }
        }
        assert!(tme > 1600, "t.me should dominate, got {tme}");
        assert!(legacy > 50, "legacy hosts should appear, got {legacy}");
    }

    #[test]
    fn roundtrip_all_platforms() {
        let mut rng = Rng::new(3);
        for platform in PlatformKind::ALL {
            for _ in 0..100 {
                let inv = InviteCode::generate(platform, &mut rng);
                let parsed = parse_invite_url(&inv.url()).expect("roundtrip parse");
                assert_eq!(parsed, inv);
            }
        }
    }

    #[test]
    fn parse_tolerates_url_noise() {
        let inv = parse_invite_url("http://www.discord.gg/Ab3dEf9h?utm=x#frag").unwrap();
        assert_eq!(inv.pattern, UrlPattern::DiscordGg);
        assert_eq!(inv.code, "Ab3dEf9h");

        let inv = parse_invite_url("chat.whatsapp.com/AAAAAAAAAAAAAAAAAAAAAA/").unwrap();
        assert_eq!(inv.pattern, UrlPattern::WhatsAppChat);
    }

    #[test]
    fn parse_discord_com_requires_invite_path() {
        assert!(parse_invite_url("https://discord.com/developers").is_none());
        assert!(parse_invite_url("https://discord.com/invite/abc123XY").is_some());
    }

    #[test]
    fn parse_rejects_non_invites() {
        assert!(parse_invite_url("https://example.com/x").is_none());
        assert!(parse_invite_url("https://t.me/").is_none());
        assert!(parse_invite_url("nonsense").is_none());
        assert!(parse_invite_url("https://discord.com/invite/").is_none());
    }

    #[test]
    fn dedup_key_merges_url_forms() {
        let a = InviteCode {
            pattern: UrlPattern::DiscordGg,
            code: "abc".into(),
        };
        let b = InviteCode {
            pattern: UrlPattern::DiscordCom,
            code: "abc".into(),
        };
        assert_eq!(a.dedup_key(), b.dedup_key());
        let c = InviteCode {
            pattern: UrlPattern::WhatsAppChat,
            code: "abc".into(),
        };
        assert_ne!(a.dedup_key(), c.dedup_key());
    }

    #[test]
    fn url_spells_each_pattern_at_exact_length() {
        for (pattern, url) in [
            (UrlPattern::WhatsAppChat, "https://chat.whatsapp.com/abc"),
            (UrlPattern::TMe, "https://t.me/abc"),
            (UrlPattern::TelegramMe, "https://telegram.me/abc"),
            (UrlPattern::TelegramOrg, "https://telegram.org/abc"),
            (UrlPattern::DiscordGg, "https://discord.gg/abc"),
            (UrlPattern::DiscordCom, "https://discord.com/invite/abc"),
        ] {
            let built = InviteCode {
                pattern,
                code: "abc".into(),
            }
            .url();
            assert_eq!(built, url);
            assert_eq!(built.capacity(), built.len(), "{url}");
        }
    }

    #[test]
    fn telegram_joinchat_roundtrip() {
        let inv = InviteCode {
            pattern: UrlPattern::TMe,
            code: "joinchat/AbCdEf123".into(),
        };
        let parsed = parse_invite_url(&inv.url()).unwrap();
        assert_eq!(parsed, inv);
    }
}
