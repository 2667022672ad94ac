//! Symbol extraction: item declarations from the cleaned token stream.
//!
//! The workspace has no `syn`, so this is a line/brace-oriented scan over
//! the lexer's cleaned view (`crate::lexer::clean`): comments and literal
//! contents are already blanked, which makes brace counting and keyword
//! token matching reliable. The pass recovers, per file:
//!
//! * every function: name, `impl` owner type (and trait, for trait
//!   impls), 1-based body span, whether it sits in a `#[cfg(test)]`
//!   region, and the call sites inside its body;
//! * bodyless trait-method declarations (dispatch targets);
//! * `use` imports (one brace level deep), for free-function resolution.
//!
//! The output feeds `crate::callgraph`, which resolves call sites into an
//! approximate cross-crate call graph for obligation propagation.

use crate::lexer::CleanFile;

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    /// The called name (last path segment).
    pub callee: String,
    /// The `::`-joined path before the callee (`gf256::slice`, `Self`,
    /// `Kernel`), if any.
    pub qualifier: Option<String>,
    /// `true` for `.callee(...)` method syntax.
    pub method: bool,
    /// 1-based source line.
    pub line: usize,
}

/// One function (or bodyless trait-method declaration).
#[derive(Debug, Clone, PartialEq)]
pub struct FnSym {
    /// The function name.
    pub name: String,
    /// The `impl` type or trait the function belongs to; `None` for free
    /// functions.
    pub owner: Option<String>,
    /// For `impl Trait for Type` methods, the trait name.
    pub trait_name: Option<String>,
    /// 1-based first line of the declaration (attributes/signature).
    pub start: usize,
    /// 1-based last line of the body (`== start` for bodyless decls).
    pub end: usize,
    /// `true` when declared inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// `true` for bodyless trait-method declarations.
    pub decl_only: bool,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnSym {
    /// `Owner::name` or bare `name`, for blame chains.
    pub fn label(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One `use` import visible in the file.
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    /// The name as visible in this file (the alias, for `as` renames).
    pub name: String,
    /// The full `::`-joined path.
    pub path: String,
}

/// All symbols extracted from one file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FileSymbols {
    /// Functions in declaration order.
    pub fns: Vec<FnSym>,
    /// Imports in declaration order.
    pub imports: Vec<Import>,
}

/// What kind of braced scope a `{` opened.
#[derive(Debug, Clone)]
enum ScopeKind {
    Impl {
        type_name: Option<String>,
        trait_name: Option<String>,
    },
    Trait(String),
    Fn(usize),
    Other,
}

struct Scope {
    kind: ScopeKind,
    open_depth: u32,
}

/// Extracts declarations and call sites from a cleaned file. `in_test`
/// is the per-line `#[cfg(test)]` mask (`crate::analyzer::test_line_mask`).
pub fn extract(file: &CleanFile, in_test: &[bool]) -> FileSymbols {
    let mut out = FileSymbols::default();
    let mut stack: Vec<Scope> = Vec::new();
    let mut depth = 0u32;
    // Declaration text accumulated since the last `{` / `}` / `;`.
    let mut pending = String::new();
    let mut pending_start: Option<usize> = None; // 0-based line index
    let mut in_use_decl = false;

    for (idx, line) in file.lines.iter().enumerate() {
        for c in line.code.chars() {
            // Inside a grouped `use a::{...}` the braces are path syntax,
            // not scopes: accumulate verbatim until the terminating `;`.
            if in_use_decl {
                if c == ';' {
                    flush_semicolon(
                        &pending,
                        &stack,
                        &mut out,
                        pending_start.unwrap_or(idx),
                        in_test,
                    );
                    pending.clear();
                    pending_start = None;
                    in_use_decl = false;
                } else {
                    pending.push(c);
                }
                continue;
            }
            match c {
                '{' if is_use_decl(&pending) => {
                    pending.push(c);
                    in_use_decl = true;
                }
                '{' => {
                    let start = pending_start.unwrap_or(idx);
                    let kind = classify(&pending, &stack, &mut out, start, in_test);
                    stack.push(Scope {
                        kind,
                        open_depth: depth,
                    });
                    depth += 1;
                    pending.clear();
                    pending_start = None;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    while stack.last().is_some_and(|s| s.open_depth >= depth) {
                        if let Some(Scope {
                            kind: ScopeKind::Fn(fi),
                            ..
                        }) = stack.pop()
                        {
                            out.fns[fi].end = file.lines[idx].number;
                        }
                    }
                    pending.clear();
                    pending_start = None;
                }
                ';' => {
                    flush_semicolon(
                        &pending,
                        &stack,
                        &mut out,
                        pending_start.unwrap_or(idx),
                        in_test,
                    );
                    pending.clear();
                    pending_start = None;
                }
                _ => {
                    if pending_start.is_none() && !c.is_whitespace() {
                        pending_start = Some(idx);
                    }
                    pending.push(c);
                }
            }
        }
        pending.push(' ');
    }

    attach_calls(file, &mut out);
    out
}

/// Decides what scope a `{` opens and records fn/impl/trait declarations.
fn classify(
    pending: &str,
    stack: &[Scope],
    out: &mut FileSymbols,
    start_idx: usize,
    in_test: &[bool],
) -> ScopeKind {
    if let Some(name) = fn_decl_name(pending) {
        let (owner, trait_name) = enclosing_owner(stack);
        out.fns.push(FnSym {
            name,
            owner,
            trait_name,
            start: start_idx + 1,
            end: start_idx + 1,
            is_test: in_test.get(start_idx).copied().unwrap_or(false),
            decl_only: false,
            calls: Vec::new(),
        });
        return ScopeKind::Fn(out.fns.len() - 1);
    }
    if let Some((type_name, trait_name)) = impl_header(pending) {
        return ScopeKind::Impl {
            type_name,
            trait_name,
        };
    }
    if let Some(name) = trait_decl_name(pending) {
        return ScopeKind::Trait(name);
    }
    ScopeKind::Other
}

/// Handles a `;`-terminated declaration: `use` imports and bodyless
/// trait-method declarations.
fn flush_semicolon(
    pending: &str,
    stack: &[Scope],
    out: &mut FileSymbols,
    start_idx: usize,
    in_test: &[bool],
) {
    if is_use_decl(pending) {
        parse_use(pending, &mut out.imports);
        return;
    }
    // A bodyless `fn name(...);` directly inside a trait is a dispatch
    // target: calls through the trait resolve to every implementor.
    if let Some(Scope {
        kind: ScopeKind::Trait(trait_name),
        ..
    }) = stack.last()
    {
        if let Some(name) = fn_decl_name(pending) {
            out.fns.push(FnSym {
                name,
                owner: Some(trait_name.clone()),
                trait_name: Some(trait_name.clone()),
                start: start_idx + 1,
                end: start_idx + 1,
                is_test: in_test.get(start_idx).copied().unwrap_or(false),
                decl_only: true,
                calls: Vec::new(),
            });
        }
    }
}

/// The innermost `impl`/`trait` owner for a function declared now.
fn enclosing_owner(stack: &[Scope]) -> (Option<String>, Option<String>) {
    for scope in stack.iter().rev() {
        match &scope.kind {
            ScopeKind::Impl {
                type_name,
                trait_name,
            } => return (type_name.clone(), trait_name.clone()),
            ScopeKind::Trait(name) => return (Some(name.clone()), Some(name.clone())),
            // A fn nested inside another fn's body is a free function.
            ScopeKind::Fn(_) => return (None, None),
            ScopeKind::Other => continue,
        }
    }
    (None, None)
}

// ---------------------------------------------------------------------------
// Declaration-text parsing
// ---------------------------------------------------------------------------

/// Position of `word` as a standalone token in `text`, scanning forward.
fn find_token(text: &str, word: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(p) = text[from..].find(word) {
        let pos = from + p;
        let before_ok = pos == 0 || !is_ident_char(bytes[pos - 1]);
        let after = pos + word.len();
        let after_ok = after >= bytes.len() || !is_ident_char(bytes[after]);
        if before_ok && after_ok {
            return Some(pos);
        }
        from = pos + word.len().max(1);
    }
    None
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Reads the identifier starting at `pos`.
fn ident_at(text: &str, pos: usize) -> Option<String> {
    let bytes = text.as_bytes();
    let mut j = pos;
    while j < bytes.len() && (bytes[j] as char).is_whitespace() {
        j += 1;
    }
    let start = j;
    while j < bytes.len() && is_ident_char(bytes[j]) {
        j += 1;
    }
    (j > start).then(|| text[start..j].to_owned())
}

/// If `pending` declares a function (`fn name`), returns the name. Scans
/// `fn` tokens and takes the first followed by an identifier, so fn-pointer
/// parameter types (`f: fn(u8)`) and `impl Fn` bounds don't match.
fn fn_decl_name(pending: &str) -> Option<String> {
    let mut from = 0;
    while let Some(rel) = find_token(&pending[from..], "fn") {
        let pos = from + rel;
        if let Some(name) = ident_at(pending, pos + 2) {
            return Some(name);
        }
        from = pos + 2;
    }
    None
}

/// If `pending` declares a trait, returns its name.
fn trait_decl_name(pending: &str) -> Option<String> {
    let pos = find_token(pending, "trait")?;
    ident_at(pending, pos + 5)
}

/// Parses an `impl` header into `(type_name, trait_name)`:
/// `impl<T> Foo<T>` → `(Some("Foo"), None)`;
/// `impl Display for Severity` → `(Some("Severity"), Some("Display"))`.
fn impl_header(pending: &str) -> Option<(Option<String>, Option<String>)> {
    let pos = find_token(pending, "impl")?;
    let mut rest = pending[pos + 4..].trim_start();
    // Strip the generic parameter list, minding `->` inside `Fn() -> T`
    // bounds so its `>` doesn't close the list early.
    if rest.starts_with('<') {
        let bytes = rest.as_bytes();
        let mut depth = 0i32;
        let mut end = bytes.len();
        let mut k = 0;
        while k < bytes.len() {
            match bytes[k] {
                b'<' => depth += 1,
                b'>' if k > 0 && bytes[k - 1] == b'-' => {}
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        rest = rest[end.min(rest.len())..].trim_start();
    }
    // Drop any `where` clause.
    let rest = match find_token(rest, "where") {
        Some(w) => rest[..w].trim_end(),
        None => rest,
    };
    if let Some(for_pos) = find_token(rest, "for") {
        let trait_part = rest[..for_pos].trim();
        let type_part = rest[for_pos + 3..].trim();
        Some((base_type_name(type_part), base_type_name(trait_part)))
    } else {
        Some((base_type_name(rest), None))
    }
}

/// The base identifier of a type expression: last path segment before any
/// generics (`net_topo::Graph<W>` → `Graph`, `&mut [u8]` → None).
fn base_type_name(text: &str) -> Option<String> {
    let t = text.trim().trim_start_matches('&').trim_start();
    let t = t.strip_prefix("mut ").unwrap_or(t).trim_start();
    let head = t
        .split(|c: char| c == '<' || c.is_whitespace())
        .next()
        .unwrap_or("");
    let seg = head.rsplit("::").next().unwrap_or("");
    let seg: String = seg
        .chars()
        .filter(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!seg.is_empty() && seg.chars().next().is_some_and(char::is_alphabetic)).then_some(seg)
}

/// `true` when `pending` is (so far) a `use` declaration (possibly `pub use`).
fn is_use_decl(pending: &str) -> bool {
    let t = pending.trim_start();
    let t = t.strip_prefix("pub").map_or(t, |r| {
        let r = r.trim_start();
        r.strip_prefix("(crate)").map_or(r, |x| x).trim_start()
    });
    t == "use"
        || t.strip_prefix("use")
            .is_some_and(|r| r.starts_with(|c: char| c.is_whitespace()))
}

/// Parses a complete `use` declaration (without the trailing `;`) into
/// imports. Handles one level of `{...}` grouping and `as` renames; globs
/// and deeper nesting are skipped (resolution then falls back to
/// same-crate name search).
fn parse_use(pending: &str, imports: &mut Vec<Import>) {
    let t = pending.trim();
    let Some(pos) = find_token(t, "use") else {
        return;
    };
    let body = t[pos + 3..].trim();
    if let Some(brace) = body.find('{') {
        let prefix = body[..brace].trim_end_matches("::").trim();
        let Some(close) = body.rfind('}') else {
            return;
        };
        for entry in body[brace + 1..close].split(',') {
            add_use_entry(prefix, entry.trim(), imports);
        }
    } else {
        add_use_entry("", body, imports);
    }
}

fn add_use_entry(prefix: &str, entry: &str, imports: &mut Vec<Import>) {
    if entry.is_empty() || entry.contains('{') || entry.contains('*') {
        return;
    }
    let (path_part, alias) = match find_token(entry, "as") {
        Some(p) => (entry[..p].trim(), Some(entry[p + 2..].trim())),
        None => (entry.trim(), None),
    };
    let full = if prefix.is_empty() {
        path_part.to_owned()
    } else if path_part == "self" {
        prefix.to_owned()
    } else {
        format!("{prefix}::{path_part}")
    };
    let visible = alias
        .map(str::to_owned)
        .or_else(|| full.rsplit("::").next().map(str::to_owned));
    if let Some(name) = visible {
        if !name.is_empty() {
            imports.push(Import { name, path: full });
        }
    }
}

// ---------------------------------------------------------------------------
// Call-site extraction
// ---------------------------------------------------------------------------

const KEYWORDS: [&str; 16] = [
    "if", "while", "for", "match", "return", "loop", "as", "in", "move", "ref", "let", "else",
    "fn", "unsafe", "await", "box",
];

/// Second pass: attribute call sites on each line to the innermost
/// function whose body span contains it.
fn attach_calls(file: &CleanFile, out: &mut FileSymbols) {
    for line in &file.lines {
        let number = line.number;
        // Innermost containing fn = max start among spans covering the line.
        let Some(fi) = out
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.decl_only && f.start <= number && number <= f.end)
            .max_by_key(|(_, f)| f.start)
            .map(|(i, _)| i)
        else {
            continue;
        };
        let mut calls = line_calls(&line.code, number);
        out.fns[fi].calls.append(&mut calls);
    }
}

/// Extracts the call sites on one cleaned line.
fn line_calls(code: &str, number: usize) -> Vec<CallSite> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (j, &b) in bytes.iter().enumerate() {
        if b != b'(' || j == 0 {
            continue;
        }
        let mut k = j;
        // Turbofish: `name::<T>(` — skip back over the balanced `<...>`.
        if bytes[k - 1] == b'>' {
            let mut depth = 0i32;
            let mut m = k - 1;
            loop {
                match bytes[m] {
                    b'>' => depth += 1,
                    b'<' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if m == 0 {
                    break;
                }
                m -= 1;
            }
            if depth != 0 || m < 2 || &code[m - 2..m] != "::" {
                continue;
            }
            k = m - 2;
        }
        if k == 0 || !is_ident_char(bytes[k - 1]) {
            continue;
        }
        let end = k;
        let mut s = k;
        while s > 0 && is_ident_char(bytes[s - 1]) {
            s -= 1;
        }
        let ident = &code[s..end];
        if ident.is_empty()
            || ident.chars().next().is_some_and(char::is_uppercase)
            || ident.chars().next().is_some_and(|c| c.is_ascii_digit())
            || KEYWORDS.contains(&ident)
        {
            continue;
        }
        // `fn ident(` is a definition, not a call.
        let before_text = code[..s].trim_end();
        if before_text.ends_with("fn") {
            let bt = before_text.as_bytes();
            if bt.len() == 2 || !is_ident_char(bt[bt.len() - 3]) {
                continue;
            }
        }
        // Path qualifier: walk back over `seg::` groups.
        let mut qual_start = s;
        let mut q = s;
        while q >= 2 && &code[q - 2..q] == "::" {
            let mut p = q - 2;
            while p > 0 && is_ident_char(bytes[p - 1]) {
                p -= 1;
            }
            if p == q - 2 {
                break;
            }
            qual_start = p;
            q = p;
        }
        let qualifier = (qual_start < s).then(|| code[qual_start..s.saturating_sub(2)].to_owned());
        let method = qualifier.is_none() && qual_start > 0 && bytes[qual_start - 1] == b'.';
        out.push(CallSite {
            callee: ident.to_owned(),
            qualifier,
            method,
            line: number,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::test_line_mask;
    use crate::lexer::clean;

    fn symbols(src: &str) -> FileSymbols {
        let file = clean(src);
        let mask = test_line_mask(&file);
        extract(&file, &mask)
    }

    #[test]
    fn free_fn_with_span_and_calls() {
        let src = "fn outer(x: u8) -> u8 {\n    helper(x);\n    other::helper2(x)\n}\n";
        let syms = symbols(src);
        assert_eq!(syms.fns.len(), 1);
        let f = &syms.fns[0];
        assert_eq!(f.name, "outer");
        assert_eq!((f.start, f.end), (1, 4));
        assert_eq!(f.owner, None);
        let callees: Vec<&str> = f.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, ["helper", "helper2"]);
        assert_eq!(f.calls[1].qualifier.as_deref(), Some("other"));
    }

    #[test]
    fn impl_methods_get_owner_and_trait() {
        let src = "\
struct Encoder;
impl Encoder {
    pub fn emit(&mut self) -> u8 {
        self.step()
    }
}
impl<'a> std::fmt::Display for Encoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, \"e\")
    }
}
";
        let syms = symbols(src);
        assert_eq!(syms.fns.len(), 2, "{syms:#?}");
        assert_eq!(syms.fns[0].name, "emit");
        assert_eq!(syms.fns[0].owner.as_deref(), Some("Encoder"));
        assert_eq!(syms.fns[0].trait_name, None);
        assert_eq!(syms.fns[0].calls[0].callee, "step");
        assert!(syms.fns[0].calls[0].method);
        assert_eq!(syms.fns[1].name, "fmt");
        assert_eq!(syms.fns[1].owner.as_deref(), Some("Encoder"));
        assert_eq!(syms.fns[1].trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn generic_impl_headers_parse() {
        let src = "\
impl<M: Clone + 'static, B: Behavior<M> + ?Sized> Simulator<M, B> {
    pub fn run_until(&mut self) { self.dispatch(); }
}
impl<F: Fn() -> u8> Holder<F> {
    fn call_it(&self) { go(); }
}
";
        let syms = symbols(src);
        assert_eq!(syms.fns[0].owner.as_deref(), Some("Simulator"));
        assert_eq!(syms.fns[1].owner.as_deref(), Some("Holder"));
    }

    #[test]
    fn trait_decls_are_dispatch_targets() {
        let src = "\
pub trait Behavior {
    fn on_packet(&mut self, p: u8);
    fn tick(&mut self) { self.on_packet(0); }
}
";
        let syms = symbols(src);
        assert_eq!(syms.fns.len(), 2, "{syms:#?}");
        let decl = &syms.fns[0];
        assert_eq!(decl.name, "on_packet");
        assert!(decl.decl_only);
        assert_eq!(decl.owner.as_deref(), Some("Behavior"));
        let default_m = &syms.fns[1];
        assert_eq!(default_m.name, "tick");
        assert!(!default_m.decl_only);
        assert_eq!(default_m.calls[0].callee, "on_packet");
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "\
fn shipping() { helper(); }
#[cfg(test)]
mod tests {
    fn test_helper() { shipping(); }
}
";
        let syms = symbols(src);
        assert_eq!(syms.fns.len(), 2, "{syms:#?}");
        assert!(!syms.fns[0].is_test);
        assert!(syms.fns[1].is_test, "{syms:#?}");
    }

    #[test]
    fn use_imports_parse_groups_and_renames() {
        let src = "\
use gf256::slice::mul_add_assign;
use crate::kernel::{Kernel, scalar as sc, self};
pub fn f() {}
";
        let syms = symbols(src);
        let find = |n: &str| syms.imports.iter().find(|i| i.name == n);
        assert_eq!(
            find("mul_add_assign").map(|i| i.path.as_str()),
            Some("gf256::slice::mul_add_assign")
        );
        assert_eq!(
            find("Kernel").map(|i| i.path.as_str()),
            Some("crate::kernel::Kernel")
        );
        assert_eq!(
            find("sc").map(|i| i.path.as_str()),
            Some("crate::kernel::scalar")
        );
        assert_eq!(
            find("kernel").map(|i| i.path.as_str()),
            Some("crate::kernel")
        );
    }

    #[test]
    fn calls_skip_macros_constructors_and_keywords() {
        let src = "\
fn f() {
    assert_eq!(g(), 1);
    let v = Vec::with_capacity(4);
    if check(v.len()) { return; }
    let s = Some(3);
    h::<u32>(s);
}
";
        let syms = symbols(src);
        let callees: Vec<&str> = syms.fns[0]
            .calls
            .iter()
            .map(|c| c.callee.as_str())
            .collect();
        // `g` (inside the macro args), `with_capacity` (qualified by Vec),
        // `check`, `len`, and the turbofish `h` — but not `assert_eq`,
        // `Some`, `if`, or `return`.
        assert_eq!(
            callees,
            ["g", "with_capacity", "check", "len", "h"],
            "{syms:#?}"
        );
        let h = syms.fns[0].calls.iter().find(|c| c.callee == "h").unwrap();
        assert!(!h.method);
        let wc = &syms.fns[0].calls[1];
        assert_eq!(wc.qualifier.as_deref(), Some("Vec"));
    }

    #[test]
    fn nested_fns_attribute_calls_to_the_innermost() {
        let src = "\
fn outer() {
    fn inner() {
        deep();
    }
    shallow();
}
";
        let syms = symbols(src);
        assert_eq!(syms.fns.len(), 2);
        let outer = syms.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = syms.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(
            inner
                .calls
                .iter()
                .map(|c| c.callee.as_str())
                .collect::<Vec<_>>(),
            ["deep"]
        );
        assert_eq!(
            outer
                .calls
                .iter()
                .map(|c| c.callee.as_str())
                .collect::<Vec<_>>(),
            ["shallow"]
        );
    }

    #[test]
    fn multiline_signatures_and_uses() {
        let src = "\
use crate::{
    alpha,
    beta::gamma,
};
pub fn long_sig(
    a: u8,
    b: u8,
) -> u8 {
    combine(a, b)
}
";
        let syms = symbols(src);
        assert_eq!(syms.imports.len(), 2, "{syms:#?}");
        assert_eq!(syms.imports[1].path, "crate::beta::gamma");
        assert_eq!(syms.fns[0].name, "long_sig");
        assert_eq!(syms.fns[0].start, 5);
        assert_eq!(syms.fns[0].calls[0].callee, "combine");
    }
}
