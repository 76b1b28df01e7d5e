//! # chatlens-platforms — simulators of WhatsApp, Telegram, and Discord
//!
//! This crate models the three messaging platforms the paper studies (§2,
//! Table 1), faithfully enough that the collection pipeline in
//! `chatlens-core` must work around the *same* platform peculiarities the
//! authors did:
//!
//! * **WhatsApp** — no data API. Group metadata is only available by
//!   scraping the invite's web landing page, which exposes the **creator's
//!   phone number** to non-members. Joining reveals every member's phone
//!   number, but message history starts at the join date. At most ~256
//!   members per group; an account that joins too many groups is banned.
//! * **Telegram** — groups *and* channels (few-to-many). A real API with
//!   FLOOD_WAIT rate limiting; full message history since creation; member
//!   lists hideable by admins; phone numbers hidden unless the user opted
//!   in.
//! * **Discord** — servers (guilds) with channels. Invites **auto-expire
//!   after one day** by default; a REST API exposes invite metadata
//!   (including creator and creation date) without joining; bots cannot
//!   join servers by themselves; user profiles expose **connected accounts**
//!   on other platforms (Twitch, Steam, …).
//!
//! The crate is *mechanism*, not *policy*: groups, users, invites,
//! revocation, joining, landing pages and APIs live here; the generative
//! models that decide how many groups exist, how fast they grow and what
//! gets posted live in `chatlens-workload`.
//!
//! All platform frontends speak `chatlens-simnet`'s transport protocol and
//! serialize bodies with the line-based [`wire`] format, so collectors
//! genuinely *parse* responses the way the paper's scrapers parsed pages.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod group;
pub mod id;
pub mod invite;
pub mod message;
pub mod phone;
pub mod platform;
pub mod service;
pub mod spec;
pub mod user;
pub mod wire;

pub use group::{ChatKind, Group, GroupHistory, SizeTimeline};
pub use id::{AccountId, GroupId, PlatformKind, UserId};
pub use invite::{InviteCode, UrlPattern};
pub use message::{Message, MessageKind, MessageLog};
pub use phone::{CountryCode, PhoneNumber};
pub use platform::{JoinError, Platform};
pub use spec::PlatformSpec;
pub use user::{LinkedPlatform, User};
