//! A lightweight *item-level* parser layered on the token stream.
//!
//! The flat scanner ([`scan`](mod@crate::scan)) is enough for token-shaped
//! rules (D2–D8, D14), but the structure-aware rules need to know *what* a
//! token belongs to: D9 must pair a `struct` definition's field list with
//! the `save`/`load` bodies of its `impl Persist`, D11 must find the
//! stream-registry constant, D12 the metric-key constants. This module
//! recognises exactly those item shapes — struct/enum definitions with
//! named fields, `impl` blocks with per-method body spans, free functions,
//! `const` items with value spans, macro invocations, and inline `mod`
//! nesting — without attempting to be a full Rust parser. Anything it
//! cannot classify it skips; spans are always in-bounds token ranges
//! (property-tested against arbitrary token streams).

use crate::scan::{Tok, TokKind};

/// What kind of item was recognised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `struct Name { .. }` / `struct Name(..);` / `struct Name;`
    Struct,
    /// `enum Name { .. }`
    Enum,
    /// `impl [Trait for] Type { .. }`
    Impl,
    /// A free `fn` (not inside an `impl`).
    Fn,
    /// `const NAME: Ty = value;` or `static NAME: Ty = value;`
    Const,
    /// `name!( .. )` at item/statement position.
    MacroCall,
}

/// A named struct field with its (flattened) type text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// The type tokens joined with single spaces (e.g. `Vec < u32 >`).
    pub ty: String,
}

/// A method inside an `impl` block, with its body token span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Method {
    /// Method name.
    pub name: String,
    /// Token index range of the body, `[open brace, close brace]`.
    pub body: (usize, usize),
}

/// One recognised item.
#[derive(Debug, Clone)]
pub struct Item {
    /// Classification.
    pub kind: ItemKind,
    /// Struct/enum/fn/const name; macro name for [`ItemKind::MacroCall`];
    /// the *type* name for [`ItemKind::Impl`].
    pub name: String,
    /// For impls: the trait name if this is a trait impl (`Persist` in
    /// `impl Persist for Foo`).
    pub trait_name: Option<String>,
    /// For macro calls: the first identifier inside the arguments (the
    /// target type of `persist_struct!(Type { .. })`).
    pub target: Option<String>,
    /// Named fields (structs) or the brace-list identifiers of a macro
    /// call (`persist_struct!`'s field list).
    pub fields: Vec<Field>,
    /// Variant names (enums).
    pub variants: Vec<String>,
    /// Methods with body spans (impls).
    pub methods: Vec<Method>,
    /// Inline-module path from the file root (e.g. `["keys"]`).
    pub module: Vec<String>,
    /// Token index range of the whole item, inclusive.
    pub span: (usize, usize),
    /// 1-based source line of the item's first token.
    pub line: u32,
}

/// Parse the items of one file's token stream.
pub fn parse_items(toks: &[Tok]) -> Vec<Item> {
    let mut out = Vec::new();
    parse_range(toks, 0, toks.len(), &mut Vec::new(), &mut out);
    out
}

/// Find the matching close delimiter for the open one at `open_idx`,
/// clamped to `hi`. Returns `hi - 1` (or `open_idx`) when unbalanced.
fn balance_to(toks: &[Tok], open_idx: usize, hi: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut i = open_idx;
    while i < hi.min(toks.len()) {
        if toks[i].is_punct(open) {
            depth += 1;
        } else if toks[i].is_punct(close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    hi.min(toks.len()).saturating_sub(1).max(open_idx)
}

/// Skip one `#[...]` / `#![...]` attribute starting at `i` (which must
/// point at the `#`); returns the index just past it.
fn skip_attr(toks: &[Tok], i: usize, hi: usize) -> usize {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct('!')) {
        j += 1;
    }
    if toks.get(j).is_some_and(|t| t.is_punct('[')) {
        balance_to(toks, j, hi, '[', ']') + 1
    } else {
        i + 1
    }
}

/// Skip a `<...>` generics list starting at `i` if one is there.
fn skip_generics(toks: &[Tok], i: usize, hi: usize) -> usize {
    if !toks.get(i).is_some_and(|t| t.is_punct('<')) {
        return i;
    }
    let mut depth = 0usize;
    let mut j = i;
    while j < hi.min(toks.len()) {
        if toks[j].is_punct('<') {
            depth += 1;
        } else if toks[j].is_punct('>') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    hi.min(toks.len())
}

/// Index of the first token at `target` punct with all of `()`, `[]`,
/// `{}` and `<>` balanced, scanning `[i, hi)`; `hi` if none.
fn find_at_depth0(toks: &[Tok], i: usize, hi: usize, target: &[char]) -> usize {
    let (mut p, mut b, mut c, mut a) = (0i32, 0i32, 0i32, 0i32);
    let mut j = i;
    while j < hi.min(toks.len()) {
        let t = &toks[j];
        if p == 0 && b == 0 && c == 0 && a <= 0 && target.iter().any(|&ch| t.is_punct(ch)) {
            return j;
        }
        if t.is_punct('(') {
            p += 1;
        } else if t.is_punct(')') {
            p -= 1;
        } else if t.is_punct('[') {
            b += 1;
        } else if t.is_punct(']') {
            b -= 1;
        } else if t.is_punct('{') {
            c += 1;
        } else if t.is_punct('}') {
            c -= 1;
        } else if t.is_punct('<') {
            // `->` arrows never reach here (the `-` is a separate token
            // and `>` alone just decrements past zero, clamped below).
            a += 1;
        } else if t.is_punct('>') {
            a = (a - 1).max(0);
        }
        j += 1;
    }
    hi.min(toks.len())
}

fn parse_range(toks: &[Tok], lo: usize, hi: usize, module: &mut Vec<String>, out: &mut Vec<Item>) {
    let hi = hi.min(toks.len());
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.is_punct('#') {
            i = skip_attr(toks, i, hi).max(i + 1);
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "mod" => {
                let name = match toks.get(i + 1) {
                    Some(n) if n.kind == TokKind::Ident => n.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                match toks.get(i + 2) {
                    Some(b) if b.is_punct('{') => {
                        let close = balance_to(toks, i + 2, hi, '{', '}');
                        module.push(name);
                        parse_range(toks, i + 3, close, module, out);
                        module.pop();
                        i = close + 1;
                    }
                    _ => i += 2, // `mod name;`
                }
            }
            "struct" => i = parse_struct(toks, i, hi, module, out),
            "enum" => i = parse_enum(toks, i, hi, module, out),
            "impl" => i = parse_impl(toks, i, hi, module, out),
            "fn" => i = parse_fn(toks, i, hi, module, out),
            "const" | "static" => i = parse_const(toks, i, hi, module, out),
            _ => {
                // `name!( .. )` / `name!{ .. }` macro invocation.
                if toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                    && toks
                        .get(i + 2)
                        .is_some_and(|n| n.is_punct('(') || n.is_punct('{') || n.is_punct('['))
                {
                    i = parse_macro_call(toks, i, hi, module, out);
                } else {
                    i += 1;
                }
            }
        }
    }
}

fn parse_struct(
    toks: &[Tok],
    at: usize,
    hi: usize,
    module: &[String],
    out: &mut Vec<Item>,
) -> usize {
    let name = match toks.get(at + 1) {
        Some(n) if n.kind == TokKind::Ident => n.text.clone(),
        _ => return at + 1,
    };
    let mut j = skip_generics(toks, at + 2, hi);
    // Skip a where clause: scan to the first `{`, `(` or `;` at depth 0.
    j = find_at_depth0(toks, j, hi, &['{', '(', ';']);
    if j >= hi {
        return at + 1;
    }
    let mut fields = Vec::new();
    let end = if toks[j].is_punct('{') {
        let close = balance_to(toks, j, hi, '{', '}');
        parse_named_fields(toks, j + 1, close, &mut fields);
        close
    } else if toks[j].is_punct('(') {
        // Tuple struct: no named fields; consume through the `;`.
        let close = balance_to(toks, j, hi, '(', ')');
        find_at_depth0(toks, close + 1, hi, &[';'])
    } else {
        j // unit struct `;`
    };
    out.push(Item {
        kind: ItemKind::Struct,
        name,
        trait_name: None,
        target: None,
        fields,
        variants: Vec::new(),
        methods: Vec::new(),
        module: module.to_vec(),
        span: (at, end.min(hi.saturating_sub(1)).max(at)),
        line: toks[at].line,
    });
    end + 1
}

/// Parse `name: Type,` pairs in `[lo, hi)` (a struct body), appending to
/// `fields`. Attributes and visibility modifiers are skipped.
fn parse_named_fields(toks: &[Tok], lo: usize, hi: usize, fields: &mut Vec<Field>) {
    let hi = hi.min(toks.len());
    let mut i = lo;
    while i < hi {
        if toks[i].is_punct('#') {
            i = skip_attr(toks, i, hi).max(i + 1);
            continue;
        }
        if toks[i].is_ident("pub") {
            i += 1;
            if toks.get(i).is_some_and(|t| t.is_punct('(')) {
                i = balance_to(toks, i, hi, '(', ')') + 1;
            }
            continue;
        }
        // `name :` (but not `name ::`).
        if toks[i].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            let ty_end = find_at_depth0(toks, i + 2, hi, &[',']).min(hi);
            let ty = toks
                .get((i + 2).min(ty_end)..ty_end)
                .unwrap_or(&[])
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            fields.push(Field {
                name: toks[i].text.clone(),
                ty,
            });
            i = ty_end + 1;
        } else {
            i += 1;
        }
    }
}

fn parse_enum(toks: &[Tok], at: usize, hi: usize, module: &[String], out: &mut Vec<Item>) -> usize {
    let name = match toks.get(at + 1) {
        Some(n) if n.kind == TokKind::Ident => n.text.clone(),
        _ => return at + 1,
    };
    let j = find_at_depth0(toks, skip_generics(toks, at + 2, hi), hi, &['{', ';']);
    if j >= hi || !toks[j].is_punct('{') {
        return at + 1;
    }
    let close = balance_to(toks, j, hi, '{', '}');
    let mut variants = Vec::new();
    let mut i = j + 1;
    while i < close {
        if toks[i].is_punct('#') {
            i = skip_attr(toks, i, close).max(i + 1);
            continue;
        }
        if toks[i].kind == TokKind::Ident {
            variants.push(toks[i].text.clone());
            // Skip any payload / discriminant through the next top-level
            // comma.
            i = find_at_depth0(toks, i + 1, close, &[',']) + 1;
        } else {
            i += 1;
        }
    }
    out.push(Item {
        kind: ItemKind::Enum,
        name,
        trait_name: None,
        target: None,
        fields: Vec::new(),
        variants,
        methods: Vec::new(),
        module: module.to_vec(),
        span: (at, close.min(hi.saturating_sub(1)).max(at)),
        line: toks[at].line,
    });
    close + 1
}

/// Last plain identifier of a type path in `[lo, hi)`, ignoring generic
/// arguments (`std :: borrow :: Cow < 'static , str >` → `Cow`).
fn path_type_name(toks: &[Tok], lo: usize, hi: usize) -> Option<String> {
    let mut name = None;
    let mut angle = 0i32;
    for t in toks.iter().take(hi.min(toks.len())).skip(lo) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if angle == 0 && t.kind == TokKind::Ident && t.text != "dyn" {
            name = Some(t.text.clone());
        }
    }
    name
}

fn parse_impl(toks: &[Tok], at: usize, hi: usize, module: &[String], out: &mut Vec<Item>) -> usize {
    let j = skip_generics(toks, at + 1, hi);
    // First path: either the trait (if `for` follows) or the self type.
    let path1_end = find_at_depth0(toks, j, hi, &['{', ';']);
    if path1_end >= hi {
        return at + 1;
    }
    // Look for a `for` keyword at depth 0 between j and the body.
    let mut for_at = None;
    {
        let mut angle = 0i32;
        for (k, t) in toks
            .iter()
            .enumerate()
            .take(path1_end.min(toks.len()))
            .skip(j)
        {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle = (angle - 1).max(0);
            } else if angle == 0 && t.is_ident("for") {
                for_at = Some(k);
                break;
            } else if angle == 0 && t.is_ident("where") {
                break;
            }
        }
    }
    let (trait_name, ty_lo) = match for_at {
        Some(k) => (path_type_name(toks, j, k), k + 1),
        None => (None, j),
    };
    // Self-type path ends at the body brace or a where clause.
    let mut ty_hi = path1_end;
    {
        let mut angle = 0i32;
        for (k, t) in toks
            .iter()
            .enumerate()
            .take(path1_end.min(toks.len()))
            .skip(ty_lo)
        {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle = (angle - 1).max(0);
            } else if angle == 0 && t.is_ident("where") {
                ty_hi = k;
                break;
            }
        }
        let _ = angle;
    }
    let name = match path_type_name(toks, ty_lo, ty_hi) {
        Some(n) => n,
        None => return at + 1,
    };
    if !toks.get(path1_end).is_some_and(|t| t.is_punct('{')) {
        return path1_end + 1;
    }
    let close = balance_to(toks, path1_end, hi, '{', '}');
    // Methods: `fn name .. { body }` at body depth 1.
    let mut methods = Vec::new();
    let mut i = path1_end + 1;
    while i < close {
        if toks[i].is_punct('#') {
            i = skip_attr(toks, i, close).max(i + 1);
            continue;
        }
        if toks[i].is_punct('{') {
            // A nested block that is not a method body we tracked (e.g. a
            // const initializer) — skip it wholesale.
            i = balance_to(toks, i, close, '{', '}') + 1;
            continue;
        }
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let mname = toks[i + 1].text.clone();
            let body_open = find_at_depth0(toks, i + 2, close, &['{', ';']);
            if body_open < close && toks[body_open].is_punct('{') {
                let body_close = balance_to(toks, body_open, close, '{', '}');
                methods.push(Method {
                    name: mname,
                    body: (body_open, body_close),
                });
                i = body_close + 1;
                continue;
            }
            i = body_open + 1;
            continue;
        }
        i += 1;
    }
    out.push(Item {
        kind: ItemKind::Impl,
        name,
        trait_name,
        target: None,
        fields: Vec::new(),
        variants: Vec::new(),
        methods,
        module: module.to_vec(),
        span: (at, close.min(hi.saturating_sub(1)).max(at)),
        line: toks[at].line,
    });
    close + 1
}

fn parse_fn(toks: &[Tok], at: usize, hi: usize, module: &[String], out: &mut Vec<Item>) -> usize {
    let name = match toks.get(at + 1) {
        Some(n) if n.kind == TokKind::Ident => n.text.clone(),
        _ => return at + 1,
    };
    let body_open = find_at_depth0(toks, at + 2, hi, &['{', ';']);
    if body_open >= hi || !toks[body_open].is_punct('{') {
        return body_open + 1;
    }
    let close = balance_to(toks, body_open, hi, '{', '}');
    out.push(Item {
        kind: ItemKind::Fn,
        name,
        trait_name: None,
        target: None,
        fields: Vec::new(),
        variants: Vec::new(),
        methods: vec![Method {
            name: "self".into(),
            body: (body_open, close),
        }],
        module: module.to_vec(),
        span: (at, close.min(hi.saturating_sub(1)).max(at)),
        line: toks[at].line,
    });
    close + 1
}

fn parse_const(
    toks: &[Tok],
    at: usize,
    hi: usize,
    module: &[String],
    out: &mut Vec<Item>,
) -> usize {
    let name = match toks.get(at + 1) {
        Some(n) if n.kind == TokKind::Ident && n.text != "fn" => n.text.clone(),
        _ => return at + 1,
    };
    let end = find_at_depth0(toks, at + 2, hi, &[';']);
    out.push(Item {
        kind: ItemKind::Const,
        name,
        trait_name: None,
        target: None,
        fields: Vec::new(),
        variants: Vec::new(),
        methods: Vec::new(),
        module: module.to_vec(),
        span: (at, end.min(hi.saturating_sub(1)).max(at)),
        line: toks[at].line,
    });
    end + 1
}

fn parse_macro_call(
    toks: &[Tok],
    at: usize,
    hi: usize,
    module: &[String],
    out: &mut Vec<Item>,
) -> usize {
    let name = toks[at].text.clone();
    let open = at + 2;
    let (oc, cc) = if toks[open].is_punct('(') {
        ('(', ')')
    } else if toks[open].is_punct('{') {
        ('{', '}')
    } else {
        ('[', ']')
    };
    let close = balance_to(toks, open, hi, oc, cc);
    // First identifier of the arguments (e.g. the target type of
    // `persist_struct!(Type { .. })`).
    let target = toks
        .get(open + 1..close.min(toks.len()))
        .unwrap_or(&[])
        .iter()
        .find(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone());
    // A brace-list inside the args contributes bare identifiers as a
    // "field list" (`{ a, b, c }`).
    let mut fields = Vec::new();
    if let Some(brace) = (open + 1..close).find(|&k| toks[k].is_punct('{')) {
        let bclose = balance_to(toks, brace, close, '{', '}');
        let mut i = brace + 1;
        while i < bclose {
            if toks[i].kind == TokKind::Ident {
                fields.push(Field {
                    name: toks[i].text.clone(),
                    ty: String::new(),
                });
                i = find_at_depth0(toks, i + 1, bclose, &[',']) + 1;
            } else {
                i += 1;
            }
        }
    }
    out.push(Item {
        kind: ItemKind::MacroCall,
        name,
        trait_name: None,
        target,
        fields,
        variants: Vec::new(),
        methods: Vec::new(),
        module: module.to_vec(),
        span: (at, close.min(hi.saturating_sub(1)).max(at)),
        line: toks[at].line,
    });
    close + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn items_of(src: &str) -> Vec<Item> {
        parse_items(&scan(src).tokens)
    }

    #[test]
    fn struct_fields_are_parsed() {
        let src = "pub struct Foo { pub a: u32, b: Vec<String>, c: BTreeMap<String, (u32, u64)> }";
        let items = items_of(src);
        assert_eq!(items.len(), 1);
        let s = &items[0];
        assert_eq!(s.kind, ItemKind::Struct);
        assert_eq!(s.name, "Foo");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(s.fields[1].ty.contains("Vec"));
    }

    #[test]
    fn tuple_and_unit_structs_have_no_fields() {
        let items = items_of("struct T(u32, String);\nstruct U;");
        assert_eq!(items.len(), 2);
        assert!(items.iter().all(|i| i.fields.is_empty()));
    }

    #[test]
    fn enum_variants_are_parsed_with_payloads_skipped() {
        let src = "enum E { A, B { x: u32, y: u64 }, C(String), D = 7 }";
        let items = items_of(src);
        assert_eq!(items[0].variants, vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn trait_impls_expose_methods_with_body_spans() {
        let src = "impl Persist for Foo { fn save(&self, w: &mut Writer) { self.a.save(w); } fn load(r: &mut Reader<'_>) -> Result<Self, E> { Ok(Foo { a: u32::load(r)? }) } }";
        let items = items_of(src);
        assert_eq!(items.len(), 1);
        let i = &items[0];
        assert_eq!(i.kind, ItemKind::Impl);
        assert_eq!(i.name, "Foo");
        assert_eq!(i.trait_name.as_deref(), Some("Persist"));
        assert_eq!(i.methods.len(), 2);
        assert_eq!(i.methods[0].name, "save");
        let (lo, hi) = i.methods[0].body;
        assert!(lo < hi);
    }

    #[test]
    fn generic_impls_resolve_the_plain_type_name() {
        let src = "impl<T: Persist> Persist for Vec<T> { fn save(&self, w: &mut Writer) {} }";
        let items = items_of(src);
        assert_eq!(items[0].name, "Vec");
        let cow = "impl Persist for std::borrow::Cow<'static, str> { fn save(&self) {} }";
        assert_eq!(items_of(cow)[0].name, "Cow");
    }

    #[test]
    fn inherent_impls_have_no_trait() {
        let src = "impl Foo { pub fn new() -> Foo { Foo } }";
        let items = items_of(src);
        assert_eq!(items[0].trait_name, None);
        assert_eq!(items[0].methods[0].name, "new");
    }

    #[test]
    fn consts_span_array_semicolons() {
        let src = "const X: [u64; 4] = [0; 4];\nconst Y: &str = \"y\";";
        let items = items_of(src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "X");
        assert_eq!(items[1].name, "Y");
    }

    #[test]
    fn macro_calls_carry_target_and_field_list() {
        let src = "persist_struct!(MonitorState { timelines, terminal, gaps, quarantine });";
        let items = items_of(src);
        assert_eq!(items[0].kind, ItemKind::MacroCall);
        assert_eq!(items[0].name, "persist_struct");
        assert_eq!(items[0].target.as_deref(), Some("MonitorState"));
        let names: Vec<&str> = items[0].fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["timelines", "terminal", "gaps", "quarantine"]);
    }

    #[test]
    fn module_nesting_is_tracked() {
        let src = "pub mod keys { pub const A: &str = \"a\"; }\nconst B: &str = \"b\";";
        let items = items_of(src);
        let a = items.iter().find(|i| i.name == "A").unwrap();
        assert_eq!(a.module, vec!["keys"]);
        let b = items.iter().find(|i| i.name == "B").unwrap();
        assert!(b.module.is_empty());
    }

    #[test]
    fn spans_stay_in_bounds_on_broken_input() {
        for src in [
            "struct",
            "struct {",
            "impl for {",
            "enum E { A",
            "fn f(",
            "const X",
            "mod m {",
            "m!(",
            "impl Persist for { fn save",
        ] {
            let toks = scan(src).tokens;
            for item in parse_items(&toks) {
                assert!(item.span.0 <= item.span.1 || toks.is_empty(), "{src}");
                assert!(item.span.1 < toks.len().max(1), "{src}");
            }
        }
    }
}
