//! `chatlens-lint`: the determinism & concurrency static-analysis pass.
//!
//! Every table and figure this workspace reproduces is contractually a
//! pure function of `(seed, config)` — bit-identical at any thread count
//! (DESIGN.md §3, §7). This crate machine-checks that contract instead of
//! trusting comments: a dependency-free token scanner ([`scan`](mod@scan)) walks
//! every workspace source file and enforces deny-by-default rules with
//! `file:line:col` diagnostics.
//!
//! ## Rule catalog
//!
//! | id | rule |
//! |----|------|
//! | D2 | `HashMap`/`HashSet`/`FastMap`/`FastSet` iteration on result paths (analysis, report, core, workload, perspective) unless the site collects into a sorted/`BTreeMap` form or only takes a cardinality |
//! | D4 | `par_map`/`par_map_chunked`/`par_chunks_mut`/`run_tasks` closures must not touch locks or shared atomics (ordered merge is the only legal reduction; the `Fn` bound already forbids `&mut` capture at compile time) |
//! | D5 | no `unwrap()`/`expect()` on lock acquisition in library crates (the `parking_lot` shim never poisons; a `Result`-shaped lock call is a sign std locks leaked in) |
//! | D8 | `unwrap()`/`expect()` on a `WireDoc` accessor result (`parse`, `parse_as`, `req`, `req_u64`, `req_i64`, `opt_u64`) outside `#[cfg(test)]` and the quarantine module — wire bodies are hostile input; a failed decode must route into the quarantine ledger, never panic a collector |
//! | D10 | hot-path allocation: `format!`, `.to_string()`, `.to_owned()`, `String::from`, `.clone()` in the designated hot modules (`core::dataset`, `core::joiner`, `core::monitor`, wire parsing, the platform services and message logs, `TweetStore`) — protects the zero-copy/`Cow` layout |
//! | D14 | `with_capacity`/`reserve`/`reserve_exact` sized from a wire-derived quantity (`req_u64`/`req_i64`/`opt_u64`/`get_varint`, or an identifier bound from one) without a guard — hostile input must pass `Reader::get_len` or a `.min(..)`/`.clamp(..)` bound before it sizes an allocation (the unbounded-allocation cousin of D10) |
//!
//! The contract's four API bans are clippy's, run by `ci.sh` as
//! `cargo clippy --workspace --all-targets -- -D warnings -D
//! clippy::allow_attributes_without_reason`:
//!
//! | id | where it is checked |
//! |----|---------------------|
//! | D1 | wall clock and scheduler identity: `disallowed-types` `Instant`, `SystemTime`, `Duration` and `disallowed-methods` `thread::current` in the root `clippy.toml` |
//! | D3 | ambient entropy: `disallowed-types` `RandomState` in `clippy.toml` (the other entropy crates are not in `Cargo.lock`) |
//! | D7 | discarded transport results: `#![deny(clippy::let_underscore_must_use)]` at the roots of `chatlens-core`, the root package and `repro`, and rustc's `unused_must_use` for the bare statement |
//! | D13 | `std::fs` outside `checkpoint::vfs`: `disallowed-methods` for every `std::fs` free function and `disallowed-types` `File`, `OpenOptions`, `DirBuilder` in `clippy.toml` |
//!
//! Their exemptions are `#[expect(clippy::…, reason = "…")]`; an
//! expectation that suppresses nothing, or one without a reason, fails
//! the clippy step.
//!
//! Three more rules are the compiler's, checked by the types themselves:
//!
//! | id | where it is checked |
//! |----|---------------------|
//! | D9 | checkpoint coverage: `persist_struct!` builds a struct literal, `persist_enum!` saves through one exhaustive `match` over an explicit tag list, and each hand-written `Persist` impl destructures its struct in `save` and builds a struct literal in `load`, all without `..` — a field or variant left out does not compile |
//! | D11 | RNG streams: `Rng::fork` takes a `simnet::rng::Stream`, an enum of every label, so no call site names a stream as a string |
//! | D12 | metric keys: the metric writers take a `simnet::metrics::keys` `Key` or `StageKey`, which nothing else can construct |
//!
//! A `lint:allow` naming any of these seven ids is reported like any
//! pragma naming no rule.
//!
//! A site is suppressed by `// lint:allow(<rule>)` on the same line or the
//! line directly above; a pragma must carry a trailing justification
//! (missing one is an error) and must actually suppress something (a
//! stale pragma is an error too). `#[cfg(test)] mod` blocks are exempt
//! wholesale — the contract protects the artifact pipeline, not the
//! assertions about it.

pub mod json;
pub mod scan;

use scan::{scan, test_mod_spans, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Unordered-map iteration on result paths.
    D2,
    /// Locks / shared atomics inside deterministic-parallel closures.
    D4,
    /// `unwrap`/`expect` on lock acquisition in library crates.
    D5,
    /// `unwrap`/`expect` on `WireDoc` accessor results outside tests.
    D8,
    /// Allocation idioms in designated hot modules.
    D10,
    /// Allocations sized from unguarded wire-derived quantities.
    D14,
    /// A `lint:allow` pragma naming an id that is no rule in
    /// [`Rule::ALL`] (a retired rule or a typo). Only the pragma audit
    /// reports it, and no pragma suppresses it.
    Pragma,
}

impl Rule {
    /// All rules, in catalog order.
    pub const ALL: [Rule; 6] = [Rule::D2, Rule::D4, Rule::D5, Rule::D8, Rule::D10, Rule::D14];

    /// The short id used in diagnostics and `lint:allow(...)` pragmas.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D2 => "D2",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::D8 => "D8",
            Rule::D10 => "D10",
            Rule::D14 => "D14",
            Rule::Pragma => "pragma",
        }
    }

    /// Parse a rule id as written in pragmas (`"D8"` → `Rule::D8`).
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }

    /// One-line description for `--stats` output and docs.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::D2 => "hash map/set iteration on a result path",
            Rule::D4 => "lock or shared atomic inside a par_* closure",
            Rule::D5 => "unwrap()/expect() on lock acquisition in a library crate",
            Rule::D8 => "unwrap()/expect() on a WireDoc accessor result outside tests",
            Rule::D10 => {
                "allocation (format!, to_string, to_owned, clone, String::from) in a hot module"
            }
            Rule::D14 => {
                "with_capacity/reserve sized from an unguarded wire-derived value (validate or clamp first)"
            }
            Rule::Pragma => "lint:allow pragma naming no rule",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Debug, Clone, Copy, Default)]
struct Scope {
    /// Feeds tables/figures: analysis, report, core, workload, perspective.
    result_path: bool,
    /// Under `crates/` (vs. the binary in `src/`).
    library: bool,
    /// The quarantine module — the one place sanctioned to dissect
    /// hostile wire bodies, exempt from D8.
    quarantine_path: bool,
    /// Designated hot modules where D10 bans allocation idioms: the
    /// dataset/monitor per-request paths, the joiner's collect pass, the
    /// platform services and message logs, wire parsing, and the tweet
    /// store.
    hot_path: bool,
}

/// The seven files whose per-request loops D10 guards.
const HOT_MODULES: [&str; 7] = [
    "core/src/dataset.rs",
    "core/src/joiner.rs",
    "core/src/monitor.rs",
    "platforms/src/message.rs",
    "platforms/src/service.rs",
    "platforms/src/wire.rs",
    "twitter/src/store.rs",
];

fn scope_of(path: &str) -> Scope {
    let p = path.replace('\\', "/");
    let in_crate = |name: &str| p.contains(&format!("crates/{name}/src"));
    Scope {
        result_path: ["analysis", "report", "core", "workload", "perspective"]
            .iter()
            .any(|c| in_crate(c)),
        library: p.contains("crates/"),
        quarantine_path: p.ends_with("core/src/quarantine.rs"),
        hot_path: HOT_MODULES.iter().any(|m| p.ends_with(m)),
    }
}

/// The crate a finding path belongs to, for per-crate stats: the crate
/// directory name under `crates/`, or `bin` for the workspace binary.
fn crate_of(path: &str) -> String {
    let p = path.replace('\\', "/");
    p.split("crates/")
        .nth(1)
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("bin")
        .to_string()
}

/// Methods whose call on an unordered map/set observes iteration order.
const ITER_METHODS: [&str; 13] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "union",
    "intersection",
    "difference",
];

/// Tokens that excuse a D2 site: the statement lands in a sorted
/// container, or only a cardinality leaves the iteration.
const D2_EXCUSES: [&str; 10] = [
    "BTreeMap",
    "BTreeSet",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "from_ints", // Ecdf::from_ints sorts on construction
    "count",
];

/// Deterministic-parallel entry points whose closures D4 inspects.
const PAR_CALLS: [&str; 4] = ["par_map", "par_map_chunked", "par_chunks_mut", "run_tasks"];

/// Shared-mutability methods banned inside par closures (D4).
const PAR_BANNED_METHODS: [&str; 10] = [
    "lock",
    "try_lock",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Shared-mutability types banned inside par closures (D4).
const PAR_BANNED_TYPES: [&str; 3] = ["Mutex", "RwLock", "RefCell"];

/// Lock-acquisition methods D5 watches for `unwrap`/`expect` chains.
const LOCK_METHODS: [&str; 4] = ["lock", "try_lock", "read", "write"];

/// `WireDoc` decode/accessor functions whose fallible results D8 refuses
/// to see unwrapped outside tests — a wire body is hostile input.
const WIREDOC_ACCESSORS: [&str; 6] = ["parse", "parse_as", "req", "req_u64", "req_i64", "opt_u64"];

/// Numeric quantities decoded straight off a wire or checkpoint body —
/// the values D14 refuses to see sizing an allocation unguarded. A
/// hostile page (or a torn spill partition) can claim any count it
/// likes; the claim must be validated before it becomes a `Vec` size.
const D14_WIRE_SOURCES: [&str; 4] = ["req_u64", "req_i64", "opt_u64", "get_varint"];

/// Allocation constructors/growers whose size argument D14 inspects.
const D14_ALLOC_CALLS: [&str; 3] = ["with_capacity", "reserve", "reserve_exact"];

/// Tokens that excuse a D14 site: the length was validated against the
/// remaining input (`Reader::get_len`, the codec's allocation guard) or
/// explicitly bounded before allocating.
const D14_GUARDS: [&str; 3] = ["get_len", "min", "clamp"];

/// Allocation idioms D10 refuses to see in hot modules.
const HOT_ALLOC_METHODS: [&str; 3] = ["to_string", "to_owned", "clone"];

/// The rules (D2, D4, D5, D8, D10, D14) over one file's token stream.
/// Returns raw findings, before suppression.
fn token_findings(
    path: &str,
    scope: Scope,
    toks: &[Tok],
    tests: &[(usize, usize)],
) -> Vec<Finding> {
    let in_test = |i: usize| tests.iter().any(|&(lo, hi)| i >= lo && i <= hi);

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: Rule, tok: &Tok, message: String| {
        raw.push(Finding {
            rule,
            path: path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
        });
    };

    let path_sep =
        |i: usize| toks[i].is_punct(':') && toks.get(i + 1).is_some_and(|t| t.is_punct(':'));

    for i in 0..toks.len() {
        if in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        // ---- D4: par closures touching shared mutability -----------------
        if PAR_CALLS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            let end = balance(toks, i + 1, '(', ')');
            for j in i + 2..end {
                let bad_method = toks[j].is_punct('.')
                    && toks.get(j + 1).is_some_and(|t| {
                        t.kind == TokKind::Ident && PAR_BANNED_METHODS.contains(&t.text.as_str())
                    });
                let bad_type = toks[j].kind == TokKind::Ident
                    && PAR_BANNED_TYPES.contains(&toks[j].text.as_str());
                if bad_method || bad_type {
                    let at = if bad_method { &toks[j + 1] } else { &toks[j] };
                    push(
                        Rule::D4,
                        at,
                        format!(
                            "`{}` inside a `{}` closure: chunk results must merge in chunk order, never through shared state",
                            at.text, toks[i].text
                        ),
                    );
                }
            }
        }
    }

    // D5 needs a punct-anchored pass: `. lock ( ) . unwrap`.
    if scope.library {
        for i in 0..toks.len() {
            if in_test(i) || !toks[i].is_punct('.') {
                continue;
            }
            let m = match toks.get(i + 1) {
                Some(t) if t.kind == TokKind::Ident && LOCK_METHODS.contains(&t.text.as_str()) => t,
                _ => continue,
            };
            if toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
                && toks.get(i + 4).is_some_and(|t| t.is_punct('.'))
                && toks
                    .get(i + 5)
                    .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
            {
                raw.push(Finding {
                    rule: Rule::D5,
                    path: path.to_string(),
                    line: m.line,
                    col: m.col,
                    message: format!(
                        "`.{}().{}` — the parking_lot shim never poisons; a Result-shaped lock call means std locks leaked into a library crate",
                        m.text, toks[i + 5].text
                    ),
                });
            }
        }
    }

    // ---- D8: unwrapped WireDoc accessor results ---------------------------
    // Two shapes: method accessors (`doc.req_u64("size")...unwrap()`) and
    // the associated decoders (`WireDoc::parse_as(body, kind).expect(..)`).
    // `parse`/`parse_as` are matched only in `WireDoc::` position so
    // `str::parse` never trips the rule. The quarantine module is exempt:
    // dissecting hostile bodies is its job.
    if !scope.quarantine_path {
        let mut d8 = |name: &Tok, open: usize| {
            if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
                return;
            }
            let end = balance(toks, open, '(', ')');
            if toks.get(end + 1).is_some_and(|t| t.is_punct('.'))
                && toks
                    .get(end + 2)
                    .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
            {
                raw.push(Finding {
                    rule: Rule::D8,
                    path: path.to_string(),
                    line: name.line,
                    col: name.col,
                    message: format!(
                        "`{}(..).{}` — a wire body is hostile input; route the error into the quarantine ledger instead of panicking",
                        name.text, toks[end + 2].text
                    ),
                });
            }
        };
        for i in 0..toks.len() {
            if in_test(i) {
                continue;
            }
            // `.req_u64(...)` method form (parse/parse_as excluded — see above).
            if toks[i].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| {
                    t.kind == TokKind::Ident
                        && WIREDOC_ACCESSORS.contains(&t.text.as_str())
                        && t.text != "parse"
                        && t.text != "parse_as"
                })
            {
                d8(&toks[i + 1], i + 2);
            }
            // `WireDoc::parse(...)` / `WireDoc::parse_as(...)` associated form.
            if i + 3 < toks.len()
                && toks[i].is_ident("WireDoc")
                && path_sep(i + 1)
                && toks
                    .get(i + 3)
                    .is_some_and(|t| t.is_ident("parse") || t.is_ident("parse_as"))
            {
                d8(&toks[i + 3], i + 4);
            }
        }
    }

    // ---- D2: unordered-map iteration on result paths ---------------------
    if scope.result_path {
        let tracked = tracked_unordered_idents(toks);
        for i in 0..toks.len() {
            if in_test(i) || toks[i].kind != TokKind::Ident || !tracked.contains(&toks[i].text) {
                continue;
            }
            // `name.iter_method(...)`
            if toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && toks
                    .get(i + 2)
                    .is_some_and(|t| ITER_METHODS.contains(&t.text.as_str()))
            {
                let (lo, hi) = statement_window(toks, i);
                if !has_excuse(&toks[lo..hi]) {
                    raw.push(Finding {
                        rule: Rule::D2,
                        path: path.to_string(),
                        line: toks[i + 2].line,
                        col: toks[i + 2].col,
                        message: format!(
                            "iteration over unordered `{}` (`.{}`) feeds a result path; use BTreeMap/BTreeSet or sort before emitting",
                            toks[i].text, toks[i + 2].text
                        ),
                    });
                }
            }
        }
        // `for x in [&]name {` — direct loop over the container.
        for i in 0..toks.len() {
            if in_test(i) || !toks[i].is_ident("for") {
                continue;
            }
            // find `in`, then the loop body brace.
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_ident("in") && !toks[j].is_punct('{') {
                j += 1;
            }
            if j >= toks.len() || !toks[j].is_ident("in") {
                continue;
            }
            let mut k = j + 1;
            while k < toks.len() && !toks[k].is_punct('{') {
                k += 1;
            }
            let header = &toks[j + 1..k.min(toks.len())];
            if has_excuse(header) {
                continue;
            }
            for (off, t) in header.iter().enumerate() {
                if t.kind == TokKind::Ident && tracked.contains(t.text.as_str()) {
                    // Any dotted form is either a lookup (`map.get(..)`) or
                    // an explicit iterator call already reported by the
                    // method pass; the for-pass only flags the bare
                    // container (`for k in map` / `for k in &map`).
                    let dotted = header.get(off + 1).is_some_and(|n| n.is_punct('.'));
                    if !dotted {
                        raw.push(Finding {
                            rule: Rule::D2,
                            path: path.to_string(),
                            line: t.line,
                            col: t.col,
                            message: format!(
                                "`for .. in {}` iterates an unordered container on a result path; use BTreeMap/BTreeSet or sort first",
                                t.text
                            ),
                        });
                    }
                }
            }
        }
    }

    // ---- D10: allocation idioms in hot modules -----------------------------
    // `format!`, `.to_string()`, `.to_owned()`, `.clone()` and
    // `String::from` in the designated hot modules. These paths carry the
    // campaign's per-request work; the zero-copy/`Cow` layout is a
    // measured win that one stray `format!` erodes. Legitimate
    // allocations (error construction, handoff at the API boundary)
    // carry a justified pragma.
    if scope.hot_path {
        for i in 0..toks.len() {
            if in_test(i) {
                continue;
            }
            let t = &toks[i];
            let (at, message) = if t.is_ident("format")
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                (t, "`format!` allocates on a hot path; build into a reusable buffer or defer to the cold side".to_string())
            } else if t.is_punct('.')
                && toks.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident && HOT_ALLOC_METHODS.contains(&n.text.as_str())
                })
                && toks.get(i + 2).is_some_and(|n| n.is_punct('('))
            {
                let m = &toks[i + 1];
                (m, format!(
                    "`.{}()` allocates on a hot path; borrow (`&str`/`Cow`) or hoist the copy out of the per-request loop",
                    m.text
                ))
            } else if t.is_ident("String")
                && path_sep(i + 1)
                && toks.get(i + 3).is_some_and(|n| n.is_ident("from"))
            {
                (
                    t,
                    "`String::from` allocates on a hot path; borrow (`&str`/`Cow`) instead"
                        .to_string(),
                )
            } else {
                continue;
            };
            raw.push(Finding {
                rule: Rule::D10,
                path: path.to_string(),
                line: at.line,
                col: at.col,
                message,
            });
        }
    }

    // ---- D14: allocations sized from unguarded wire-derived values --------
    // `with_capacity`/`reserve`/`reserve_exact` whose size argument
    // mentions a wire decode (`req_u64`, `get_varint`, ...) — directly or
    // through an identifier let-bound from one — is an unbounded
    // allocation a hostile page (or torn spill partition) can dial up at
    // will. The excuse is a guard in the same statement: `Reader::get_len`
    // (the codec's validated-length accessor) or an explicit
    // `.min(..)`/`.clamp(..)` bound. Taint is tracked statement by
    // statement in order, so a rebinding through a guard
    // (`let len = r.get_len()?;`) launders the name.
    {
        let is_guard = |t: &Tok| t.kind == TokKind::Ident && D14_GUARDS.contains(&t.text.as_str());
        let is_source =
            |t: &Tok| t.kind == TokKind::Ident && D14_WIRE_SOURCES.contains(&t.text.as_str());
        let mut tainted: BTreeSet<String> = BTreeSet::new();
        let mut start = 0usize;
        for i in 0..=toks.len() {
            let boundary = i == toks.len()
                || toks[i].is_punct(';')
                || toks[i].is_punct('{')
                || toks[i].is_punct('}');
            if !boundary {
                continue;
            }
            let stmt = &toks[start..i];
            let stmt_start = start;
            start = i + 1;
            if stmt.is_empty() {
                continue;
            }
            let has_guard = stmt.iter().any(is_guard);
            let has_source = stmt.iter().any(&is_source);
            let uses_taint = stmt
                .iter()
                .any(|t| t.kind == TokKind::Ident && tainted.contains(&t.text));
            // Allocation calls inside this statement.
            if !has_guard && (has_source || uses_taint) {
                for (off, t) in stmt.iter().enumerate() {
                    if in_test(stmt_start + off)
                        || t.kind != TokKind::Ident
                        || !D14_ALLOC_CALLS.contains(&t.text.as_str())
                        || !stmt.get(off + 1).is_some_and(|n| n.is_punct('('))
                    {
                        continue;
                    }
                    let end = balance(stmt, off + 1, '(', ')');
                    let args = &stmt[off + 2..end.min(stmt.len())];
                    let Some(src) = args.iter().find(|a| {
                        is_source(a) || (a.kind == TokKind::Ident && tainted.contains(&a.text))
                    }) else {
                        continue;
                    };
                    raw.push(Finding {
                        rule: Rule::D14,
                        path: path.to_string(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "`{}` sized from wire-derived `{}`; validate through Reader::get_len or bound with .min/.clamp before allocating",
                            t.text, src.text
                        ),
                    });
                }
            }
            // Taint update: a let-binding whose initializer touches a wire
            // source (or an already-tainted name) without a guard taints
            // the bound name; any other rebinding clears it.
            if stmt[0].is_ident("let") {
                if let Some(name) = stmt
                    .iter()
                    .skip(1)
                    .find(|t| t.kind == TokKind::Ident && t.text != "mut")
                {
                    if (has_source || uses_taint) && !has_guard {
                        tainted.insert(name.text.clone());
                    } else {
                        tainted.remove(&name.text);
                    }
                }
            }
        }
    }

    raw
}

/// Lint a set of source files: tokenize each, run the rules (D2, D4, D5,
/// D8, D10, D14), apply suppression pragmas, and audit the pragmas
/// themselves (unused or unjustified pragmas are findings attributed to
/// the rule they name, and a pragma naming no rule is a [`Rule::Pragma`]
/// finding). Findings come back in input file order, sorted by
/// `(line, col, rule)` within each file.
pub fn check_sources(files: &[(String, String)]) -> Report {
    let mut report = Report::default();
    for (path, source) in files {
        let unit = scan(source);
        let tests = test_mod_spans(&unit.tokens);
        let toks = unit.tokens.as_slice();
        let mut raw = token_findings(path, scope_of(path), toks, &tests);

        // Dedupe (a site can be reached by more than one pass).
        raw.sort_by_key(|f| (f.line, f.col, f.rule));
        raw.dedup_by_key(|f| (f.line, f.col, f.rule));

        // Apply suppression pragmas (same line or the line directly
        // above), tracking which pragmas earned their keep.
        let pragmas = &unit.pragmas;
        let mut used = vec![false; pragmas.len()];
        let mut kept = Vec::new();
        for f in raw {
            let mut suppressed = false;
            for (pi, pragma) in pragmas.iter().enumerate() {
                if (pragma.line == f.line || pragma.line + 1 == f.line)
                    && pragma.rules.contains(f.rule.id())
                {
                    used[pi] = true;
                    suppressed = true;
                }
            }
            if suppressed {
                report.suppressed += 1;
            } else {
                kept.push(f);
            }
        }

        // Pragma audit: a pragma that suppresses nothing is stale; a
        // pragma that works but carries no justification is unreviewable.
        // Both are findings against the rule the pragma names, and are
        // not themselves suppressible; so is a pragma naming an id that
        // is no rule. Pragmas inside test mods are exempt like everything
        // else there.
        let test_lines: Vec<(u32, u32)> = tests
            .iter()
            .filter_map(|&(lo, hi)| Some((toks.get(lo)?.line, toks.get(hi)?.line)))
            .collect();
        for (pi, pragma) in pragmas.iter().enumerate() {
            if test_lines
                .iter()
                .any(|&(lo, hi)| pragma.line >= lo && pragma.line <= hi)
            {
                continue;
            }
            let named = pragma.rules.iter().cloned().collect::<Vec<_>>().join(", ");
            for id in pragma.rules.iter().filter(|r| Rule::from_id(r).is_none()) {
                kept.push(Finding {
                    rule: Rule::Pragma,
                    path: path.clone(),
                    line: pragma.line,
                    col: pragma.col,
                    message: format!(
                        "`lint:allow({named})` names `{id}`, which is no lint rule; D1, D3, D7 and D13 are clippy's, exempted with #[expect(.., reason = ..)], and D9, D11 and D12 the compiler's"
                    ),
                });
            }
            let Some(rule) = pragma.rules.iter().find_map(|r| Rule::from_id(r)) else {
                continue;
            };
            if !used[pi] {
                kept.push(Finding {
                    rule,
                    path: path.clone(),
                    line: pragma.line,
                    col: pragma.col,
                    message: format!(
                        "`lint:allow({named})` suppresses nothing; remove the stale pragma"
                    ),
                });
            } else if !pragma.justified {
                kept.push(Finding {
                    rule,
                    path: path.clone(),
                    line: pragma.line,
                    col: pragma.col,
                    message: format!(
                        "`lint:allow({named})` has no justification; add a one-line reason after the rule list"
                    ),
                });
            }
        }
        kept.sort_by_key(|a| (a.line, a.col, a.rule));
        report.findings.extend(kept);
        report.files_scanned += 1;
    }
    report
}

/// Lint one source file. `path` is the workspace-relative path (used for
/// rule scoping and diagnostics); returns surviving findings plus the
/// number suppressed by `lint:allow` pragmas.
pub fn check_source_counting(path: &str, source: &str) -> (Vec<Finding>, usize) {
    let report = check_sources(&[(path.to_string(), source.to_string())]);
    (report.findings, report.suppressed)
}

/// [`check_source_counting`] without the suppression count.
pub fn check_source(path: &str, source: &str) -> Vec<Finding> {
    check_source_counting(path, source).0
}

/// Find the matching close delimiter for the open one at `open_idx`.
fn balance(toks: &[Tok], open_idx: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

/// The statement containing token `i`: from the previous `;`/`{`/`}` to
/// the next `;`/`{` (loop bodies and blocks end a statement for our
/// purposes — the excuse must sit on the same line of reasoning).
fn statement_window(toks: &[Tok], i: usize) -> (usize, usize) {
    let mut lo = i;
    while lo > 0 {
        let t = &toks[lo - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        lo -= 1;
    }
    let mut hi = i;
    while hi < toks.len() {
        let t = &toks[hi];
        if t.is_punct(';') || t.is_punct('{') {
            break;
        }
        hi += 1;
    }
    (lo, hi)
}

/// Whether a token window contains a D2 excuse (sorted collection or
/// cardinality-only use).
fn has_excuse(window: &[Tok]) -> bool {
    window
        .iter()
        .any(|t| t.kind == TokKind::Ident && D2_EXCUSES.contains(&t.text.as_str()))
}

/// Hash container types whose iteration order D2 tracks: the std ones
/// and the workspace's fixed-hasher aliases (`chatlens_simnet::fastmap`).
/// A fixed hasher makes the order the same in every process, but not a
/// function of the contents alone, so it is still no result order.
const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet", "FastMap", "FastSet"];

/// Identifiers declared (let-bound, field, or parameter) with an
/// [`UNORDERED_TYPES`] type or initializer in this file.
fn tracked_unordered_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !UNORDERED_TYPES.contains(&toks[i].text.as_str()) {
            continue;
        }
        // Walk back to the start of the declaration.
        let mut lo = i;
        while lo > 0 {
            let t = &toks[lo - 1];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(',') {
                break;
            }
            lo -= 1;
        }
        let window = &toks[lo..i];
        // `name : ... HashMap` (let-with-type, struct field, fn param) —
        // take the ident before the last single `:` (not a `::`).
        let mut name: Option<&str> = None;
        for j in (1..window.len()).rev() {
            if window[j].is_punct(':')
                && !window.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && (j == 0 || !window[j - 1].is_punct(':'))
            {
                if window[j - 1].kind == TokKind::Ident {
                    name = Some(&window[j - 1].text);
                }
                break;
            }
        }
        // `let name = HashMap::new()` — the ident before `=`.
        if name.is_none() {
            for j in (1..window.len()).rev() {
                if window[j].is_punct('=') && window[j - 1].kind == TokKind::Ident {
                    name = Some(&window[j - 1].text);
                    break;
                }
            }
        }
        if let Some(n) = name {
            if !matches!(n, "let" | "mut" | "pub") {
                tracked.insert(n.to_string());
            }
        }
    }
    tracked
}

/// Aggregated result of a workspace walk.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression, in path order.
    pub findings: Vec<Finding>,
    /// Count of findings silenced by `lint:allow` pragmas.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings per rule (fired, i.e. surviving suppression).
    pub fn per_rule(&self) -> BTreeMap<Rule, usize> {
        let mut m: BTreeMap<Rule, usize> = Rule::ALL.iter().map(|&r| (r, 0)).collect();
        for f in &self.findings {
            *m.entry(f.rule).or_insert(0) += 1;
        }
        m
    }

    /// Findings per crate (`bin` for the workspace binary), sorted by
    /// crate name. Crates with zero findings are omitted — the per-rule
    /// table already proves the zeros.
    pub fn per_crate(&self) -> BTreeMap<String, usize> {
        let mut m: BTreeMap<String, usize> = BTreeMap::new();
        for f in &self.findings {
            *m.entry(crate_of(&f.path)).or_insert(0) += 1;
        }
        m
    }

    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// A `--stats` summary table (markdown): per-rule counts (every rule,
    /// catalog order) then per-crate counts (sorted, non-zero only).
    pub fn stats_table(&self) -> String {
        let mut out = String::new();
        out.push_str("| rule | findings | description |\n|------|----------|-------------|\n");
        for (rule, n) in self.per_rule() {
            out.push_str(&format!(
                "| {} | {} | {} |\n",
                rule.id(),
                n,
                rule.describe()
            ));
        }
        let per_crate = self.per_crate();
        if !per_crate.is_empty() {
            out.push_str("\n| crate | findings |\n|-------|----------|\n");
            for (krate, n) in per_crate {
                out.push_str(&format!("| {krate} | {n} |\n"));
            }
        }
        out.push_str(&format!(
            "\n{} file(s) scanned, {} finding(s), {} suppressed by lint:allow pragmas\n",
            self.files_scanned,
            self.findings.len(),
            self.suppressed
        ));
        out
    }
}

/// Walk `root`'s `src/` and every `crates/*/src/` tree and lint each
/// `.rs` file. Paths in findings are workspace-relative; file order is
/// deterministic (sorted).
#[expect(clippy::disallowed_methods, reason = "the linter reads sources")]
pub fn check_workspace(root: impl AsRef<Path>) -> std::io::Result<Report> {
    let root = root.as_ref();
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut files)?;
        }
    }
    files.sort();
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&file)?));
    }
    Ok(check_sources(&sources))
}

#[expect(clippy::disallowed_methods, reason = "the linter reads sources")]
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<Rule> {
        check_source(path, src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn d2_fires_on_hashmap_iteration_in_result_crate() {
        let src =
            "fn f(per_user: &HashMap<u32, u64>) { for v in per_user.values() { use_it(v); } }";
        assert_eq!(rules_of("crates/analysis/src/x.rs", src), vec![Rule::D2]);
        // Same code outside a result path is fine.
        assert_eq!(rules_of("crates/simnet/src/x.rs", src), vec![]);
    }

    #[test]
    fn d2_fires_on_fast_map_iteration_too() {
        let src =
            "fn f(per_user: &FastMap<u32, u64>) { for v in per_user.values() { use_it(v); } }";
        assert_eq!(rules_of("crates/analysis/src/x.rs", src), vec![Rule::D2]);
        let src = "fn f() { let seen = FastSet::default(); for v in seen.iter() { use_it(v); } }";
        assert_eq!(rules_of("crates/core/src/x.rs", src), vec![Rule::D2]);
    }

    #[test]
    fn d2_lookups_are_fine() {
        let src = "fn f(m: &HashMap<u32, u64>) -> Option<&u64> { m.get(&1) }";
        assert_eq!(rules_of("crates/analysis/src/x.rs", src), vec![]);
    }

    #[test]
    fn d2_sorted_collect_excuses() {
        let src =
            "fn f(m: HashMap<u32, u64>) { let b: BTreeMap<u32, u64> = m.into_iter().collect(); }";
        assert_eq!(rules_of("crates/analysis/src/x.rs", src), vec![]);
        let src2 = "fn f(s: &HashSet<String>) -> usize { s.union(other).count() }";
        assert_eq!(rules_of("crates/core/src/x.rs", src2), vec![]);
    }

    #[test]
    fn d2_skips_cfg_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(m: HashMap<u32, u64>) { for v in m.values() { x(v); } }\n}";
        assert_eq!(rules_of("crates/analysis/src/x.rs", src), vec![]);
    }

    #[test]
    fn d4_fires_on_lock_in_par_closure() {
        let src = "fn f(pool: &Pool) { pool.par_map(&xs, |x| { acc.lock().push(*x); 0 }); }";
        assert_eq!(rules_of("crates/analysis/src/x.rs", src), vec![Rule::D4]);
    }

    #[test]
    fn d4_clean_closure_passes() {
        let src = "fn f(pool: &Pool) { pool.par_map(&xs, |x| x * 2); }";
        assert_eq!(rules_of("crates/analysis/src/x.rs", src), vec![]);
    }

    #[test]
    fn d5_fires_on_lock_unwrap_in_library() {
        let src = "fn f(m: &std::sync::Mutex<u32>) { *m.lock().unwrap() += 1; }";
        assert_eq!(rules_of("crates/core/src/x.rs", src), vec![Rule::D5]);
        // The binary crate may unwrap (it is allowed to crash loudly).
        assert_eq!(rules_of("src/bin/repro.rs", src), vec![]);
    }

    #[test]
    fn d14_fires_on_allocation_sized_from_wire() {
        // Direct: the size expression decodes straight off the body.
        let src = "fn f(doc: &WireDoc) -> Vec<u8> { Vec::with_capacity(doc.req_u64(\"n\").unwrap_or(0) as usize) }";
        assert_eq!(rules_of("crates/core/src/x.rs", src), vec![Rule::D14]);
        // Through a let-binding: the claim travels one statement.
        let src = "fn f(r: &mut Reader) { let n = r.get_varint()? as usize; let mut out: Vec<u8> = Vec::with_capacity(n); }";
        assert_eq!(
            rules_of("crates/checkpoint/src/codec.rs", src),
            vec![Rule::D14]
        );
        // `reserve` grows just as unboundedly as `with_capacity`.
        let src = "fn f(out: &mut Vec<u8>, doc: &WireDoc) { out.reserve(doc.req_u64(\"more\").unwrap_or(0) as usize); }";
        assert_eq!(rules_of("crates/core/src/x.rs", src), vec![Rule::D14]);
    }

    #[test]
    fn d14_guarded_constructors_pass() {
        // `Reader::get_len` is the sanctioned validated-length accessor.
        let src = "fn f(r: &mut Reader) { let len = r.get_len()?; let mut out: Vec<u8> = Vec::with_capacity(len); }";
        assert_eq!(rules_of("crates/checkpoint/src/codec.rs", src), vec![]);
        // An explicit clamp bounds the allocation at the site.
        let src = "fn f(doc: &WireDoc) -> Vec<u8> { Vec::with_capacity((doc.req_u64(\"n\").unwrap_or(0) as usize).min(MAX_PAGE)) }";
        assert_eq!(rules_of("crates/core/src/x.rs", src), vec![]);
        // Sizes not derived from the wire are out of scope.
        let src = "fn f(xs: &[u32]) -> Vec<u32> { Vec::with_capacity(xs.len()) }";
        assert_eq!(rules_of("crates/core/src/x.rs", src), vec![]);
    }

    #[test]
    fn d14_pragma_suppresses() {
        let src = "fn f(doc: &WireDoc) -> Vec<u8> {\n // lint:allow(D14) page size capped by the transport frame limit upstream\n Vec::with_capacity(doc.req_u64(\"n\").unwrap_or(0) as usize)\n}";
        let (findings, suppressed) = check_source_counting("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed, 1);
    }

    /// One D8 site: an unwrapped wire accessor.
    const D8_SITE: &str = "fn f(d: &WireDoc) -> u64 { d.req_u64(\"n\").unwrap() }";

    #[test]
    fn allow_pragma_suppresses_and_counts() {
        let src = format!("// lint:allow(D8) the body was rendered one line up\n{D8_SITE}");
        let (findings, suppressed) = check_source_counting("crates/core/src/x.rs", &src);
        assert!(findings.is_empty());
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn allow_pragma_is_rule_specific() {
        // The D2 pragma does not silence the D8 finding — and since it
        // suppresses nothing, the pragma audit flags it as stale too.
        let src = format!("// lint:allow(D2) wrong rule\n{D8_SITE}");
        assert_eq!(
            rules_of("crates/core/src/x.rs", &src),
            vec![Rule::D2, Rule::D8]
        );
    }

    #[test]
    fn unjustified_pragma_is_a_finding() {
        let bare = format!("// lint:allow(D8)\n{D8_SITE}");
        let (findings, suppressed) = check_source_counting("crates/core/src/x.rs", &bare);
        assert_eq!(suppressed, 1); // the D8 site itself is silenced...
        assert_eq!(findings.len(), 1); // ...but the bare pragma is flagged
        assert!(findings[0].message.contains("no justification"));
        // One trailing word is a label, not a justification.
        let one_word = format!("// lint:allow(D8) probe\n{D8_SITE}");
        let (findings, _) = check_source_counting("crates/core/src/x.rs", &one_word);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn unused_pragma_is_a_finding() {
        let src = "// lint:allow(D10) nothing to suppress here at all\nfn f() {}";
        let findings = check_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::D10);
        assert!(findings[0].message.contains("suppresses nothing"));
        // A retired id (D1, D3, D7 and D13 are clippy's; D9, D11 and D12
        // the compiler's) or a typo names no rule, so its pragma is
        // reported, alone or beside a kept id.
        let beside = format!("// lint:allow(D8, D1) the body was rendered one line up\n{D8_SITE}");
        for src in [
            "// lint:allow(D13) reads outside the durability domain\nfn f() {}",
            "// lint:allow(D9) derived at load time, never persisted\nfn f() {}",
            "// lint:allow(D11) per-chunk label family\nfn f() {}",
            "// lint:allow(D12) one-off probe counter\nfn f() {}",
            &beside,
        ] {
            let findings = check_source("crates/core/src/x.rs", src);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert_eq!(findings[0].rule, Rule::Pragma);
            assert!(findings[0].message.contains("no lint rule"));
        }
        // Inside a test mod, stale pragmas are exempt like everything else.
        let in_test =
            "#[cfg(test)]\nmod tests {\n // lint:allow(D10) stale but in tests\n fn t() {}\n}";
        assert_eq!(rules_of("crates/core/src/x.rs", in_test), vec![]);
    }

    #[test]
    fn d10_fires_only_in_hot_modules() {
        let src = "fn f(s: &str) -> String { format!(\"x-{s}\") }";
        assert_eq!(rules_of("crates/core/src/monitor.rs", src), vec![Rule::D10]);
        assert_eq!(rules_of("crates/core/src/study.rs", src), vec![]);
        let clone = "fn f(v: &Vec<u32>) -> Vec<u32> { v.clone() }";
        assert_eq!(
            rules_of("crates/platforms/src/wire.rs", clone),
            vec![Rule::D10]
        );
        let owned = "fn f(s: &str) -> String { s.to_owned() }";
        assert_eq!(
            rules_of("crates/twitter/src/store.rs", owned),
            vec![Rule::D10]
        );
        let from = "fn f() -> String { String::from(\"x\") }";
        assert_eq!(
            rules_of("crates/core/src/dataset.rs", from),
            vec![Rule::D10]
        );
        let param = "fn f(id: u32) -> String { id.to_string() }";
        assert_eq!(
            rules_of("crates/core/src/joiner.rs", param),
            vec![Rule::D10]
        );
        assert_eq!(rules_of("crates/core/src/discovery.rs", param), vec![]);
    }

    #[test]
    fn commented_out_violations_do_not_fire() {
        let src = "// d.req_u64(\"n\").unwrap();\n/* d.req(\"k\").unwrap() */ fn f() {}";
        assert_eq!(rules_of("crates/core/src/x.rs", src), vec![]);
    }

    #[test]
    fn string_embedded_violations_do_not_fire() {
        let src = r#"const MSG: &str = "never call format!("x") or v.clone() here";"#;
        assert_eq!(rules_of("crates/core/src/monitor.rs", src), vec![]);
    }

    #[test]
    fn d8_fires_on_unwrapped_wiredoc_accessors() {
        let method = "fn f(doc: &WireDoc) { let n = doc.req_u64(\"size\").unwrap(); }";
        assert_eq!(
            rules_of("crates/core/src/monitor.rs", method),
            vec![Rule::D8]
        );
        let assoc =
            "fn f(body: &str) { let doc = WireDoc::parse_as(body, \"tg-web\").expect(\"doc\"); }";
        assert_eq!(
            rules_of("crates/core/src/discovery.rs", assoc),
            vec![Rule::D8]
        );
        let opt = "fn f(doc: &WireDoc) { let n = doc.opt_u64(\"online\").unwrap().unwrap_or(0); }";
        assert_eq!(rules_of("src/bin/repro.rs", opt), vec![Rule::D8]);
    }

    #[test]
    fn d8_spares_tests_quarantine_and_std_parse() {
        let in_test = "#[cfg(test)]\nmod tests {\n fn f(d: &WireDoc) { d.req(\"k\").unwrap(); }\n}";
        assert_eq!(rules_of("crates/core/src/monitor.rs", in_test), vec![]);
        let quarantine = "fn f(d: &WireDoc) { d.req(\"k\").unwrap(); }";
        assert_eq!(
            rules_of("crates/core/src/quarantine.rs", quarantine),
            vec![]
        );
        // `str::parse` shares a name with `WireDoc::parse`; only the
        // associated form is matched.
        let std_parse = "fn f(s: &str) -> u32 { s.parse().unwrap() }";
        assert_eq!(rules_of("crates/core/src/monitor.rs", std_parse), vec![]);
        // Propagated errors are the sanctioned shape.
        let propagated = "fn f(d: &WireDoc) -> Result<u64, WireError> { d.req_u64(\"size\") }";
        assert_eq!(rules_of("crates/core/src/monitor.rs", propagated), vec![]);
    }

    #[test]
    fn d8_pragma_suppresses() {
        let src = "// lint:allow(D8) fixture body is rendered two lines up, cannot fail\nfn f(b: &str) { WireDoc::parse(b).unwrap(); }";
        let (findings, suppressed) = check_source_counting("crates/core/src/monitor.rs", src);
        assert!(findings.is_empty());
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn stats_table_lists_every_rule() {
        let report = Report::default();
        let t = report.stats_table();
        for r in Rule::ALL {
            assert!(t.contains(r.id()), "{t}");
        }
    }
}
