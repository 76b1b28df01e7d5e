//! The platform state container: users, groups, invite index, and the
//! join rules each platform enforces on collector accounts.

use crate::group::{Group, GroupHistory};
use crate::id::{AccountId, GroupId, PlatformKind, UserId};
use crate::message::Message;
use crate::spec::PlatformSpec;
use crate::user::User;
use chatlens_simnet::fastmap::FastMap;
use chatlens_simnet::fault::{TokenBucket, TokenBucketState};
use chatlens_simnet::time::SimTime;
use std::fmt;

/// Why a join attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinError {
    /// No group with this invite code ever existed.
    UnknownCode,
    /// The invite was revoked or expired before the attempt.
    Revoked,
    /// The account hit the platform's join limit and is now banned
    /// (WhatsApp: ~250–300 groups; Discord: 100 servers — §3.2).
    LimitExceeded,
    /// The account was previously banned.
    Banned,
    /// Bots cannot join Discord servers by themselves (§3.3).
    BotsNotAllowed,
    /// Unknown account id.
    UnknownAccount,
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinError::UnknownCode => "unknown invite code",
            JoinError::Revoked => "invite revoked or expired",
            JoinError::LimitExceeded => "join limit exceeded; account banned",
            JoinError::Banned => "account banned",
            JoinError::BotsNotAllowed => "bots cannot join by themselves",
            JoinError::UnknownAccount => "unknown account",
        };
        f.write_str(s)
    }
}

impl std::error::Error for JoinError {}

/// A collector-side account's standing on the platform.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccountState {
    /// Groups joined, with join instants (WhatsApp reveals messages only
    /// from the join date onward, so the instant matters).
    pub joined: Vec<(GroupId, SimTime)>,
    /// Whether the platform banned the account (exceeded join limit).
    pub banned: bool,
}

impl AccountState {
    /// The join instant for `group`, if this account is a member.
    pub fn joined_at(&self, group: GroupId) -> Option<SimTime> {
        self.joined
            .iter()
            .find(|(g, _)| *g == group)
            .map(|&(_, t)| t)
    }
}

/// One simulated messaging platform: its user and group population plus the
/// state of the collector's accounts on it.
pub struct Platform {
    /// Which platform this is.
    pub kind: PlatformKind,
    /// Static characteristics (Table 1).
    pub spec: PlatformSpec,
    /// All users, indexed by [`UserId`].
    pub users: Vec<User>,
    /// All groups, indexed by [`GroupId`].
    pub groups: Vec<Group>,
    invite_index: FastMap<String, GroupId>,
    accounts: Vec<AccountState>,
    /// Telegram's API flood control (`FLOOD_WAIT`): a server-side token
    /// bucket gating `api/*` endpoints. `None` on platforms whose APIs the
    /// collector is not flood-limited on in the paper.
    pub(crate) api_bucket: Option<TokenBucket>,
    /// Groups whose history was installed, in installation order. History
    /// materialization allocates fresh user ids from the platform-wide
    /// counter, so a checkpoint restore must replay installs in this exact
    /// order to reproduce the same id assignment.
    materialized: Vec<GroupId>,
    /// The last log a message endpoint generated, held only until the
    /// platform's next request: the same-day re-fetch of a quarantined
    /// page serves it again instead of generating the log a second time.
    pub(crate) served_log: Option<(GroupId, Vec<Message>)>,
}

impl Platform {
    /// An empty platform of the given kind.
    pub fn new(kind: PlatformKind) -> Platform {
        // Telegram's API is rate-limited aggressively enough that the paper
        // cites it as the reason they joined only 100 groups (§8): model a
        // sustained 2 req/s with a burst of 40.
        let api_bucket =
            (kind == PlatformKind::Telegram).then(|| TokenBucket::new(40.0, 2.0, SimTime::EPOCH));
        Platform {
            kind,
            spec: PlatformSpec::of(kind),
            users: Vec::new(),
            groups: Vec::new(),
            invite_index: FastMap::default(),
            accounts: Vec::new(),
            api_bucket,
            materialized: Vec::new(),
            served_log: None,
        }
    }

    /// Register a user; its id is its index in [`Platform::users`].
    pub fn push_user(&mut self, user: User) -> UserId {
        let id = UserId(self.users.len() as u32);
        self.users.push(user);
        id
    }

    /// Register a group; the platform assigns its id and indexes the
    /// invite code.
    ///
    /// # Panics
    /// Panics if the group's invite code collides with an existing one —
    /// the workload generator must call [`Platform::invite_taken`] first
    /// and regenerate.
    pub fn push_group(&mut self, mut group: Group) -> GroupId {
        let id = GroupId(self.groups.len() as u32);
        group.id = id;
        debug_assert_eq!(group.platform, self.kind);
        let prev = self.invite_index.insert(group.invite.code.clone(), id);
        assert!(
            prev.is_none(),
            "invite code collision: {}",
            group.invite.code
        );
        self.groups.push(group);
        id
    }

    /// Whether an invite code is already allocated.
    pub fn invite_taken(&self, code: &str) -> bool {
        self.invite_index.contains_key(code)
    }

    /// Resolve an invite code to its group.
    pub fn find_by_code(&self, code: &str) -> Option<GroupId> {
        self.invite_index.get(code).copied()
    }

    /// Borrow a group.
    pub fn group(&self, id: GroupId) -> &Group {
        &self.groups[id.0 as usize]
    }

    /// Mutably borrow a group.
    pub fn group_mut(&mut self, id: GroupId) -> &mut Group {
        &mut self.groups[id.0 as usize]
    }

    /// Borrow a user.
    pub fn user(&self, id: UserId) -> &User {
        &self.users[id.0 as usize]
    }

    /// Open a fresh collector account; returns its id.
    pub fn create_account(&mut self) -> AccountId {
        self.accounts.push(AccountState::default());
        AccountId((self.accounts.len() - 1) as u16)
    }

    /// Number of collector accounts created.
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// Borrow an account's state.
    pub fn account(&self, id: AccountId) -> Option<&AccountState> {
        self.accounts.get(usize::from(id.0))
    }

    /// Attempt to join the group behind `code` with `account` at time
    /// `now`. `as_bot` marks Discord bot credentials, which the platform
    /// rejects (§3.3).
    pub fn join(
        &mut self,
        account: AccountId,
        code: &str,
        now: SimTime,
        as_bot: bool,
    ) -> Result<GroupId, JoinError> {
        let gid = self.find_by_code(code).ok_or(JoinError::UnknownCode)?;
        let limit = self.spec.join_limit;
        let state = self
            .accounts
            .get_mut(usize::from(account.0))
            .ok_or(JoinError::UnknownAccount)?;
        if state.banned {
            return Err(JoinError::Banned);
        }
        if as_bot && self.kind == PlatformKind::Discord {
            return Err(JoinError::BotsNotAllowed);
        }
        // A re-join of a group the account already holds takes no new
        // slot, so it can neither exceed the limit nor earn the ban.
        let member = state.joined_at(gid).is_some();
        if let Some(limit) = limit {
            if !member && state.joined.len() as u32 >= limit {
                state.banned = true;
                return Err(JoinError::LimitExceeded);
            }
        }
        let group = &self.groups[gid.0 as usize];
        if !group.is_alive(now) {
            return Err(JoinError::Revoked);
        }
        if !member {
            state.joined.push((gid, now));
        }
        Ok(gid)
    }

    /// The join instant of `account` in `group`, or `None` if not a member.
    pub fn joined_at(&self, account: AccountId, group: GroupId) -> Option<SimTime> {
        self.accounts
            .get(usize::from(account.0))
            .and_then(|a| a.joined_at(group))
    }

    /// Install a materialized history (members + message-log recipe) for
    /// a joined group; the service endpoints serve from it.
    pub fn install_history(&mut self, id: GroupId, history: GroupHistory) {
        if self.groups[id.0 as usize].history.is_none() {
            self.materialized.push(id);
        }
        self.served_log = None;
        self.groups[id.0 as usize].history = Some(Box::new(history));
    }

    /// Export the collector-account states (checkpointing). The world
    /// population itself is rebuilt deterministically from the scenario
    /// seed, so accounts — mutated by the campaign's joins — are the only
    /// per-account state a snapshot needs.
    pub fn export_accounts(&self) -> Vec<AccountState> {
        self.accounts.clone()
    }

    /// Overwrite the collector-account states from a checkpoint export.
    pub fn restore_accounts(&mut self, accounts: Vec<AccountState>) {
        self.accounts = accounts;
    }

    /// Export the server-side API flood-control bucket state, if this
    /// platform has one (checkpointing).
    pub fn api_bucket_state(&self) -> Option<TokenBucketState> {
        self.api_bucket.as_ref().map(TokenBucket::state)
    }

    /// Restore the API flood-control bucket from a checkpoint export.
    /// `None` clears the bucket only on platforms that never had one.
    pub fn restore_api_bucket(&mut self, state: Option<TokenBucketState>) {
        if let Some(s) = state {
            self.api_bucket = Some(TokenBucket::from_state(s));
        }
    }

    /// Ids of groups with a materialized history installed, in
    /// *installation order* (checkpointing: histories are re-materialized
    /// deterministically on restore rather than serialized, and because
    /// materialization allocates platform user ids, the replay must follow
    /// the original order exactly for the id assignment to match). A
    /// replay allocates the members and rebuilds each log's recipe; it
    /// generates no message.
    pub fn materialized_groups(&self) -> Vec<GroupId> {
        self.materialized.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{ChatKind, SizeTimeline};
    use crate::invite::InviteCode;
    use crate::message::MessageLog;
    use crate::phone::{country_by_iso, PhoneNumber};
    use chatlens_simnet::rng::Rng;
    use chatlens_simnet::time::{Date, SimDuration};

    fn make_group(platform: &mut Platform, rng: &mut Rng, revoked: Option<SimTime>) -> GroupId {
        let created = Date::new(2020, 4, 1);
        let mut invite = InviteCode::generate(platform.kind, rng);
        while platform.invite_taken(&invite.code) {
            invite = InviteCode::generate(platform.kind, rng);
        }
        platform.push_group(Group {
            id: GroupId(0),
            platform: platform.kind,
            chat_kind: ChatKind::Group,
            title: "t".into(),
            creator: UserId(0),
            created_at: created.midnight(),
            revoked_at: revoked,
            invite,
            member_list_hidden: false,
            online_frac: 0.2,
            sizes: SizeTimeline::flat(created, 10),
            msgs_per_day: 1.0,
            activity_seed: 0,
            history: None,
        })
    }

    fn wa_user(p: &mut Platform, rng: &mut Rng) -> UserId {
        let phone = PhoneNumber::allocate(country_by_iso("BR").unwrap(), rng);
        p.push_user(User::whatsapp(phone))
    }

    #[test]
    fn push_assigns_dense_ids() {
        let mut p = Platform::new(PlatformKind::WhatsApp);
        let mut rng = Rng::new(1);
        let u0 = wa_user(&mut p, &mut rng);
        let u1 = wa_user(&mut p, &mut rng);
        assert_eq!(u0, UserId(0));
        assert_eq!(u1, UserId(1));
        let g0 = make_group(&mut p, &mut rng, None);
        let g1 = make_group(&mut p, &mut rng, None);
        assert_eq!(g0, GroupId(0));
        assert_eq!(g1, GroupId(1));
    }

    #[test]
    fn find_by_code_roundtrip() {
        let mut p = Platform::new(PlatformKind::Telegram);
        let mut rng = Rng::new(2);
        let gid = make_group(&mut p, &mut rng, None);
        let code = p.group(gid).invite.code.clone();
        assert_eq!(p.find_by_code(&code), Some(gid));
        assert_eq!(p.find_by_code("nope"), None);
        assert!(p.invite_taken(&code));
    }

    #[test]
    fn join_happy_path_records_time() {
        let mut p = Platform::new(PlatformKind::Telegram);
        let mut rng = Rng::new(3);
        let gid = make_group(&mut p, &mut rng, None);
        let code = p.group(gid).invite.code.clone();
        let acct = p.create_account();
        let t = Date::new(2020, 4, 10).midnight();
        assert_eq!(p.join(acct, &code, t, false), Ok(gid));
        assert_eq!(p.joined_at(acct, gid), Some(t));
        // Re-joining keeps the original join time.
        let t2 = t + SimDuration::days(1);
        assert_eq!(p.join(acct, &code, t2, false), Ok(gid));
        assert_eq!(p.joined_at(acct, gid), Some(t));
    }

    #[test]
    fn join_revoked_group_fails() {
        let mut p = Platform::new(PlatformKind::Telegram);
        let mut rng = Rng::new(4);
        let revoked_at = Date::new(2020, 4, 5).midnight();
        let gid = make_group(&mut p, &mut rng, Some(revoked_at));
        let code = p.group(gid).invite.code.clone();
        let acct = p.create_account();
        let err = p
            .join(acct, &code, Date::new(2020, 4, 10).midnight(), false)
            .unwrap_err();
        assert_eq!(err, JoinError::Revoked);
    }

    #[test]
    fn join_unknown_code_fails() {
        let mut p = Platform::new(PlatformKind::Telegram);
        let acct = p.create_account();
        assert_eq!(
            p.join(acct, "nothere", SimTime::EPOCH, false),
            Err(JoinError::UnknownCode)
        );
    }

    #[test]
    fn discord_rejects_bots() {
        let mut p = Platform::new(PlatformKind::Discord);
        let mut rng = Rng::new(5);
        let gid = make_group(&mut p, &mut rng, None);
        let code = p.group(gid).invite.code.clone();
        let acct = p.create_account();
        let t = Date::new(2020, 4, 10).midnight();
        assert_eq!(p.join(acct, &code, t, true), Err(JoinError::BotsNotAllowed));
        // A user account works.
        assert_eq!(p.join(acct, &code, t, false), Ok(gid));
    }

    #[test]
    fn join_limit_bans_account() {
        let mut p = Platform::new(PlatformKind::Discord); // limit 100
        let mut rng = Rng::new(6);
        let codes: Vec<String> = (0..101)
            .map(|_| {
                let gid = make_group(&mut p, &mut rng, None);
                p.group(gid).invite.code.clone()
            })
            .collect();
        let acct = p.create_account();
        let t = Date::new(2020, 4, 10).midnight();
        for code in &codes[..100] {
            assert!(p.join(acct, code, t, false).is_ok());
        }
        assert_eq!(
            p.join(acct, &codes[100], t, false),
            Err(JoinError::LimitExceeded)
        );
        // Account is now banned for everything.
        assert_eq!(p.join(acct, &codes[0], t, false), Err(JoinError::Banned));
        assert!(p.account(acct).unwrap().banned);
    }

    #[test]
    fn member_at_its_limit_rejoins_without_a_ban() {
        let mut p = Platform::new(PlatformKind::Discord); // limit 100
        let mut rng = Rng::new(6);
        let gids: Vec<GroupId> = (0..101)
            .map(|_| make_group(&mut p, &mut rng, None))
            .collect();
        let code = |p: &Platform, gid: GroupId| p.group(gid).invite.code.clone();
        let acct = p.create_account();
        let t = Date::new(2020, 4, 10).midnight();
        for &gid in &gids[..100] {
            assert_eq!(p.join(acct, &code(&p, gid), t, false), Ok(gid));
        }
        // The re-join after a lost acknowledgment of the limit-reaching
        // join: the account holds the group, so it takes no new slot.
        let last = gids[99];
        let later = t + SimDuration::hours(1);
        assert_eq!(p.join(acct, &code(&p, last), later, false), Ok(last));
        assert!(!p.account(acct).unwrap().banned);
        assert_eq!(p.joined_at(acct, last), Some(t));
        assert_eq!(p.account(acct).unwrap().joined.len(), 100);
        // A group the account does not hold is still over the limit.
        assert_eq!(
            p.join(acct, &code(&p, gids[100]), later, false),
            Err(JoinError::LimitExceeded)
        );
        assert!(p.account(acct).unwrap().banned);
    }

    #[test]
    fn telegram_has_no_join_limit() {
        let mut p = Platform::new(PlatformKind::Telegram);
        let mut rng = Rng::new(7);
        let acct = p.create_account();
        let t = Date::new(2020, 4, 10).midnight();
        for _ in 0..150 {
            let gid = make_group(&mut p, &mut rng, None);
            let code = p.group(gid).invite.code.clone();
            assert!(p.join(acct, &code, t, false).is_ok());
        }
    }

    #[test]
    fn unknown_account_is_an_error() {
        let mut p = Platform::new(PlatformKind::Telegram);
        let mut rng = Rng::new(8);
        let gid = make_group(&mut p, &mut rng, None);
        let code = p.group(gid).invite.code.clone();
        assert_eq!(
            p.join(AccountId(9), &code, SimTime::EPOCH, false),
            Err(JoinError::UnknownAccount)
        );
    }

    #[test]
    fn install_history() {
        let mut p = Platform::new(PlatformKind::Telegram);
        let mut rng = Rng::new(9);
        let gid = make_group(&mut p, &mut rng, None);
        let other = make_group(&mut p, &mut rng, None);
        assert!(p.group(gid).history.is_none());
        let history = GroupHistory {
            members: vec![UserId(0)],
            log: MessageLog {
                posters: vec![UserId(0)],
                rng: rng.state(),
                start: SimTime::EPOCH,
                end: SimTime::EPOCH,
                msgs_per_day: 1.0,
                sender_zipf: 1.0,
                kind_weights: [1.0; 9],
                cap: 10,
            },
        };
        p.install_history(gid, history.clone());
        p.install_history(other, history.clone());
        p.install_history(gid, history.clone());
        assert_eq!(p.group(gid).history.as_deref(), Some(&history));
        assert_eq!(p.materialized_groups(), [gid, other], "first installs only");
    }
}
