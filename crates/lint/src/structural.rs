//! The structure-aware rules (D9–D12), layered on the item parser and
//! the workspace symbol index.
//!
//! Unlike the token rules these reason about *items*: D9 pairs `Persist`
//! impls and `persist_struct!` invocations with the struct/enum they
//! serialize and demands field/variant coverage in both directions of the
//! wire format; D10 bans allocation idioms in the designated hot modules;
//! D11 forces every `Rng::fork` label to be a literal drawn from the
//! declared stream registry; D12 forces metric keys through declared
//! constants. All four skip `#[cfg(test)] mod` spans like the token
//! rules do.

use crate::index::WorkspaceIndex;
use crate::items::{Item, ItemKind};
use crate::scan::{Tok, TokKind};
use crate::{Finding, Rule};
use std::collections::BTreeSet;

/// Everything the structural rules need to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// The file's token stream.
    pub toks: &'a [Tok],
    /// Parsed items.
    pub items: &'a [Item],
    /// `#[cfg(test)] mod` token-index spans.
    pub tests: &'a [(usize, usize)],
}

impl FileCtx<'_> {
    fn in_test(&self, tok_idx: usize) -> bool {
        self.tests
            .iter()
            .any(|&(lo, hi)| tok_idx >= lo && tok_idx <= hi)
    }

    fn finding(&self, rule: Rule, line: u32, col: u32, message: String) -> Finding {
        Finding {
            rule,
            path: self.path.to_string(),
            line,
            col,
            message,
        }
    }
}

/// Identifier texts inside a body token span (inclusive).
fn idents_in(toks: &[Tok], span: (usize, usize)) -> BTreeSet<&str> {
    toks.iter()
        .take((span.1 + 1).min(toks.len()))
        .skip(span.0)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect()
}

/// D9 — Persist-coverage: every named field of a type with an
/// `impl Persist` must be referenced in both the `save` and `load`
/// bodies; every variant of a persisted enum must appear in both match
/// arms unless the load body goes through an `ALL` table (table-driven
/// encodings carry coverage in the table itself, which the compiler
/// checks for exhaustiveness). `persist_struct!` invocations must list
/// every field of their target struct — the field list *is* the wire
/// format.
pub fn check_d9(ctx: &FileCtx, index: &WorkspaceIndex, out: &mut Vec<Finding>) {
    for item in ctx.items {
        if ctx.in_test(item.span.0) {
            continue;
        }
        match item.kind {
            ItemKind::Impl if item.trait_name.as_deref() == Some("Persist") => {
                check_persist_impl(ctx, index, item, out);
            }
            ItemKind::MacroCall if item.name == "persist_struct" => {
                let Some(target) = item.target.as_deref() else {
                    continue;
                };
                let Some(def) = index.resolve_struct(target, ctx.path) else {
                    continue;
                };
                let listed: BTreeSet<&str> = item.fields.iter().map(|f| f.name.as_str()).collect();
                for field in &def.fields {
                    if !listed.contains(field.as_str()) {
                        out.push(ctx.finding(
                            Rule::D9,
                            item.line,
                            1,
                            format!(
                                "field `{field}` of `{target}` is missing from the persist_struct! field list — the list is the wire format; a silent omission is checkpoint drift"
                            ),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
}

fn check_persist_impl(ctx: &FileCtx, index: &WorkspaceIndex, item: &Item, out: &mut Vec<Finding>) {
    let save = item.methods.iter().find(|m| m.name == "save");
    let load = item.methods.iter().find(|m| m.name == "load");
    if let Some(def) = index.resolve_struct(&item.name, ctx.path) {
        if def.fields.is_empty() {
            return; // tuple/unit structs have no named fields to cover
        }
        for (method, side) in [(save, "save"), (load, "load")] {
            let Some(m) = method else { continue };
            let body = idents_in(ctx.toks, m.body);
            for field in &def.fields {
                if !body.contains(field.as_str()) {
                    out.push(ctx.finding(
                        Rule::D9,
                        item.line,
                        1,
                        format!(
                            "field `{field}` of `{}` is not referenced in the `{side}` body of its `impl Persist` — checkpoint drift: the field would silently vanish from (or desync) the wire format",
                            item.name
                        ),
                    ));
                }
            }
        }
    } else if let Some(def) = index.resolve_enum(&item.name, ctx.path) {
        // Table-driven encodings (`Self::ALL[idx]`) get their coverage
        // from the table, which separate unit tests pin; skip them.
        if load
            .map(|m| idents_in(ctx.toks, m.body).contains("ALL"))
            .unwrap_or(true)
        {
            return;
        }
        for (method, side) in [(save, "save"), (load, "load")] {
            let Some(m) = method else { continue };
            let body = idents_in(ctx.toks, m.body);
            for variant in &def.variants {
                if !body.contains(variant.as_str()) {
                    out.push(ctx.finding(
                        Rule::D9,
                        item.line,
                        1,
                        format!(
                            "variant `{variant}` of `{}` is not matched in the `{side}` body of its `impl Persist` — a new variant must round-trip through the checkpoint",
                            item.name
                        ),
                    ));
                }
            }
        }
    }
}

/// Allocation idioms D10 refuses to see in hot modules.
const HOT_ALLOC_METHODS: [&str; 3] = ["to_string", "to_owned", "clone"];

/// D10 — hot-path allocation: `format!`, `.to_string()`, `.to_owned()`,
/// `String::from`, and `.clone()` in the designated hot modules
/// (`core::dataset`, `core::monitor`, wire parsing, `TweetStore`
/// search). These paths carry the campaign's per-request work; the
/// zero-copy/`Cow` layout is a measured win that one stray `format!`
/// erodes. Legitimate allocations (error construction, handoff at the
/// API boundary) carry a justified pragma.
pub fn check_d10(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        let t = &toks[i];
        if t.is_ident("format") && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            out.push(ctx.finding(
                Rule::D10,
                t.line,
                t.col,
                "`format!` allocates on a hot path; build into a reusable buffer or defer to the cold side".into(),
            ));
        }
        if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && HOT_ALLOC_METHODS.contains(&n.text.as_str())
            })
            && toks.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            let m = &toks[i + 1];
            out.push(ctx.finding(
                Rule::D10,
                m.line,
                m.col,
                format!(
                    "`.{}()` allocates on a hot path; borrow (`&str`/`Cow`) or hoist the copy out of the per-request loop",
                    m.text
                ),
            ));
        }
        if t.is_ident("String")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("from"))
        {
            out.push(ctx.finding(
                Rule::D10,
                t.line,
                t.col,
                "`String::from` allocates on a hot path; borrow (`&str`/`Cow`) instead".into(),
            ));
        }
    }
}

/// D11 — RNG-stream discipline: every `.fork(...)` label must be a
/// string literal, and the `(subsystem, label)` pair must be declared in
/// `simnet::rng::STREAM_REGISTRY`. Two subsystems sharing a stream label
/// is a silent determinism hazard the moment call order changes; a
/// computed label cannot be audited at all. Dynamic label families
/// (e.g. per-topic LDA sweeps) carry a justified pragma.
pub fn check_d11(ctx: &FileCtx, index: &WorkspaceIndex, subsystem: &str, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        if !(toks[i].is_ident("fork")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('(')))
        {
            continue;
        }
        let Some(arg) = toks.get(i + 2) else { continue };
        match arg.str_contents() {
            Some(label) => {
                let registered_here = index
                    .stream_registry
                    .iter()
                    .any(|(s, l)| s == subsystem && l == label);
                if registered_here {
                    continue;
                }
                let other = index
                    .stream_registry
                    .iter()
                    .find(|(_, l)| l == label)
                    .map(|(s, _)| s.clone());
                let message = match other {
                    Some(owner) => format!(
                        "fork label \"{label}\" is registered to subsystem `{owner}` but used from `{subsystem}` — two subsystems sharing a stream is a determinism hazard; register a distinct label"
                    ),
                    None => format!(
                        "fork label \"{label}\" is not declared in simnet::rng::STREAM_REGISTRY for subsystem `{subsystem}`; add it to the registry"
                    ),
                };
                out.push(ctx.finding(Rule::D11, arg.line, arg.col, message));
            }
            None => {
                out.push(ctx.finding(
                    Rule::D11,
                    arg.line,
                    arg.col,
                    "fork label must be a string literal drawn from STREAM_REGISTRY — a computed label cannot be audited for stream collisions".into(),
                ));
            }
        }
    }
}

/// Registry self-checks for D11: no label may be claimed by two
/// subsystems, and no `(subsystem, label)` pair may repeat.
pub fn check_stream_registry(index: &WorkspaceIndex, out: &mut Vec<Finding>) {
    let Some((path, line)) = index.registry_site.clone() else {
        return;
    };
    let mut seen_pairs: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut label_owner: std::collections::BTreeMap<&str, &str> = Default::default();
    for (sub, label) in &index.stream_registry {
        if !seen_pairs.insert((sub, label)) {
            out.push(Finding {
                rule: Rule::D11,
                path: path.clone(),
                line,
                col: 1,
                message: format!(
                    "STREAM_REGISTRY declares (\"{sub}\", \"{label}\") twice; remove the duplicate entry"
                ),
            });
        } else if let Some(owner) = label_owner.insert(label, sub) {
            if owner != sub {
                out.push(Finding {
                    rule: Rule::D11,
                    path: path.clone(),
                    line,
                    col: 1,
                    message: format!(
                        "STREAM_REGISTRY label \"{label}\" is claimed by both `{owner}` and `{sub}`; stream labels must be globally unique per subsystem"
                    ),
                });
            }
        }
    }
}

/// `Metrics` methods whose first argument is a key (D12).
const METRIC_METHODS: [&str; 5] = ["incr", "add", "observe", "time_stage", "stage_micros"];

/// D12 — metrics/trace-key registry: a string literal passed directly to
/// a `Metrics` method is an ad-hoc key that can fork a family via typo
/// (`transport.breaker_opend`); keys must flow through the declared
/// constants in `simnet::metrics::keys` so the compiler catches the
/// misspelling.
pub fn check_d12(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        if !(toks[i].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && METRIC_METHODS.contains(&n.text.as_str())
            })
            && toks.get(i + 2).is_some_and(|n| n.is_punct('(')))
        {
            continue;
        }
        if let Some(arg) = toks.get(i + 3) {
            if let Some(key) = arg.str_contents() {
                out.push(ctx.finding(
                    Rule::D12,
                    arg.line,
                    arg.col,
                    format!(
                        "metric key \"{key}\" passed as an ad-hoc literal to `.{}`; declare it in simnet::metrics::keys and pass the constant",
                        toks[i + 1].text
                    ),
                ));
            }
        }
    }
}

/// Registry self-check for D12: two constants declaring the same key
/// value silently merge two metric families.
pub fn check_metric_registry(index: &WorkspaceIndex, out: &mut Vec<Finding>) {
    let mut by_value: std::collections::BTreeMap<&str, &str> = Default::default();
    for (name, k) in &index.metric_keys {
        if let Some(first) = by_value.insert(k.value.as_str(), name.as_str()) {
            out.push(Finding {
                rule: Rule::D12,
                path: k.path.clone(),
                line: k.line,
                col: 1,
                message: format!(
                    "metric key constants `{first}` and `{name}` both declare \"{}\"; two names for one family is a merge hazard",
                    k.value
                ),
            });
        }
    }
}
