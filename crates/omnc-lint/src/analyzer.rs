//! The analysis engine: per-file passes, the cross-file propagation
//! phase, and the workspace walker.
//!
//! Everything here operates on the cleaned line view produced by
//! [`crate::lexer::clean`]: comments and literal contents are already
//! blanked, so plain substring/token matching is safe. Lines inside
//! `#[cfg(test)]` regions are exempt from every code rule — the policies
//! target shipping simulation code, not its tests.
//!
//! Analysis runs in two phases (ISSUE 8):
//!
//! * **Phase A (per file)** — [`analyze_file`] lexes one file
//!   and produces a [`FileAnalysis`]: extracted symbols, *local* findings
//!   (rules applied by their static path scopes, exactly as before), and
//!   *potential* findings (violations of propagating rules computed
//!   regardless of path scope, held back until phase B proves the code
//!   hot). This phase depends only on the file's bytes and the rule
//!   table.
//! * **Phase B (cross-file)** — [`assemble_findings`]
//!   builds the call graph over the simulation crates, BFS-propagates
//!   hot-path obligations from [`crate::rules::HOT_ENTRIES`], releases
//!   the potential findings that landed inside a hot function, and
//!   annotates every finding in a hot span with its blame chain.

use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph;
use crate::findings::{Finding, Report};
use crate::lexer::{clean, CleanFile};
use crate::rules::{Rule, RuleTable, HOT_ENTRIES, SIM_CRATES, UNSAFE_SURFACES};
use crate::symbols::{self, FileSymbols};

/// Phase-A output for one file: everything derivable from its bytes.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    /// Declarations and call sites, for the phase-B graph.
    pub symbols: FileSymbols,
    /// Findings from the static path scopes (reported unconditionally).
    pub local: Vec<Finding>,
    /// Propagating-rule findings outside their static scope; reported
    /// only if phase B proves the enclosing function hot.
    pub potential: Vec<Finding>,
}

/// Analyzes one source file (given workspace-relative `rel_path`) against
/// `table`, returning only the local (path-scoped) findings. This is the
/// pre-propagation view; workspace runs go through [`check_workspace`].
/// Public so tests can lint fixture text under fake paths.
pub fn analyze_source(rel_path: &str, source: &str, table: &RuleTable) -> Vec<Finding> {
    analyze_file(rel_path, source, table).local
}

/// Phase A: the full per-file analysis.
pub fn analyze_file(rel_path: &str, source: &str, table: &RuleTable) -> FileAnalysis {
    let file = clean(source);
    let in_test = test_line_mask(&file);
    let in_loop = loop_line_mask(&file);
    let syms = symbols::extract(&file, &in_test);
    let local = run_line_checks(rel_path, &file, &in_test, &in_loop, table, false);
    // Potential findings only matter where the call graph lives.
    let potential = if is_sim_crate(rel_path) {
        run_line_checks(rel_path, &file, &in_test, &in_loop, table, true)
    } else {
        Vec::new()
    };
    FileAnalysis {
        symbols: syms,
        local,
        potential,
    }
}

/// `true` for files inside the simulation-core crates (the propagation
/// universe).
pub fn is_sim_crate(rel_path: &str) -> bool {
    SIM_CRATES.iter().any(|p| rel_path.starts_with(p))
}

/// Runs every line-oriented check. With `potential` false this is the
/// classic path-scoped pass; with `potential` true it collects
/// violations of propagating rules in places their static scope does
/// *not* cover (phase B decides whether the code is hot).
fn run_line_checks(
    rel_path: &str,
    file: &CleanFile,
    in_test: &[bool],
    in_loop: &[bool],
    table: &RuleTable,
    potential: bool,
) -> Vec<Finding> {
    let hash_bindings = collect_hash_bindings(file, in_test);
    let mut findings = Vec::new();

    for (idx, line) in file.lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let mut emit = |rule: Rule, message: String| {
            let cfg = table.config(rule);
            let wanted = if potential {
                rule.propagates() && cfg.enabled && !cfg.applies_to(rel_path)
            } else {
                cfg.applies_to(rel_path)
            };
            if wanted && !file.is_allowed(idx, rule.name()) {
                findings.push(Finding::new(
                    rel_path,
                    line.number,
                    rule,
                    cfg.severity,
                    message,
                    &line.raw,
                ));
            }
        };
        check_patterns(&line.code, &mut emit);
        check_hash_iteration(&line.code, &hash_bindings, &mut emit);
        check_float_eq(&line.code, &mut emit);
        check_unsafe(rel_path, file, idx, &mut emit);
        check_lossy_cast(&line.code, &mut emit);
        check_unchecked_arith(&line.code, &mut emit);
        check_atomics(file, idx, &mut emit);
        check_clone_in_loop(&line.code, in_loop[idx], &mut emit);
    }
    findings
}

/// Substring rules: each hit of a pattern outside tests is one finding.
fn check_patterns(code: &str, emit: &mut impl FnMut(Rule, String)) {
    const PATTERNS: [(Rule, &str, &str); 17] = [
        (Rule::WallClock, "Instant::now", "wall-clock read"),
        (Rule::WallClock, "SystemTime", "wall-clock read"),
        (Rule::NondetRng, "thread_rng", "entropy-seeded RNG"),
        (Rule::NondetRng, "rand::random", "entropy-seeded RNG"),
        (Rule::NondetRng, "from_entropy", "entropy-seeded RNG"),
        (Rule::NondetRng, "OsRng", "entropy-seeded RNG"),
        (Rule::EnvDep, "env::var", "environment read"),
        (Rule::EnvDep, "env::args", "environment read"),
        (Rule::EnvDep, "env::vars", "environment read"),
        (Rule::Unwrap, ".unwrap()", "unchecked unwrap in hot path"),
        (Rule::Concurrency, "thread::spawn", "thread creation"),
        (Rule::Concurrency, "thread::scope", "thread creation"),
        (Rule::Concurrency, "thread::Builder", "thread creation"),
        (Rule::Concurrency, "mpsc::", "channel plumbing"),
        (Rule::Concurrency, "TcpListener", "network listener"),
        (Rule::HotAlloc, "Box::new(", "heap allocation in hot path"),
        (
            Rule::HotAlloc,
            "Vec::with_capacity(0)",
            "zero-capacity Vec (allocates on first push) in hot path",
        ),
    ];
    for (rule, pat, what) in PATTERNS {
        // Patterns that begin with an identifier char need a non-identifier
        // char before the match so e.g. `MySystemTimer` does not trip
        // `SystemTime`; method patterns like `.unwrap()` start at a `.` and
        // legitimately follow an identifier.
        let needs_boundary = pat.as_bytes().first().is_some_and(|&b| is_ident_byte(b));
        for pos in find_all(code, pat) {
            if needs_boundary && !ident_boundary_before(code, pos) {
                continue;
            }
            emit(rule, format!("{what}: `{pat}` is banned here"));
        }
    }
}

/// Pass 1 of hash-iteration detection: names bound to `HashMap`/`HashSet`
/// via a type annotation (`name: HashMap<...>`, including field and
/// parameter positions) or a constructor assignment (`name = HashMap::new`).
fn collect_hash_bindings(file: &CleanFile, in_test: &[bool]) -> Vec<String> {
    let mut names = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        for ty in ["HashMap", "HashSet"] {
            for pos in find_all(&line.code, ty) {
                if !ident_boundary_before(&line.code, pos) {
                    continue;
                }
                let after = &line.code[pos + ty.len()..];
                let name = if after.starts_with('<') {
                    binding_before_annotation(&line.code, pos)
                } else if after.starts_with("::") {
                    binding_before_assignment(&line.code, pos)
                } else {
                    None
                };
                if let Some(name) = name {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
    }
    names
}

/// Pass 2: flag order-dependent consumption of collected bindings —
/// iteration-yielding method calls and direct `for ... in name` loops.
fn check_hash_iteration(code: &str, bindings: &[String], emit: &mut impl FnMut(Rule, String)) {
    const ITER_METHODS: [&str; 8] = [
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".drain(",
        ".retain(",
    ];
    for name in bindings {
        for pos in find_all(code, name) {
            if !ident_boundary_before(code, pos) || !ident_boundary_after(code, pos + name.len()) {
                continue;
            }
            let after = &code[pos + name.len()..];
            let via_method = ITER_METHODS.iter().find(|m| after.starts_with(*m));
            let via_for = preceded_by_in_keyword(code, pos);
            if let Some(m) = via_method {
                emit(
                    Rule::HashIter,
                    format!("hash-order iteration: `{name}{m}..` (order is seeded per process)"),
                );
            } else if via_for && !after.starts_with('.') {
                emit(
                    Rule::HashIter,
                    format!("hash-order iteration: `for .. in {name}`"),
                );
            }
        }
    }
}

/// `==`/`!=` where either operand token is a float literal.
fn check_float_eq(code: &str, emit: &mut impl FnMut(Rule, String)) {
    let bytes = code.as_bytes();
    for op in ["==", "!="] {
        for pos in find_all(code, op) {
            // Skip `<=`, `>=`, `=>`-adjacent false matches.
            if pos > 0 && matches!(bytes[pos - 1], b'<' | b'>' | b'=' | b'!') {
                continue;
            }
            if bytes.get(pos + 2) == Some(&b'=') {
                continue;
            }
            let lhs = token_before(code, pos);
            let rhs = token_after(code, pos + 2);
            if is_float_literal(&lhs) || is_float_literal(&rhs) {
                emit(
                    Rule::FloatEq,
                    format!("exact float comparison `{lhs} {op} {rhs}` (use a tolerance)"),
                );
            }
        }
    }
}

/// `unsafe` keyword use: only inside [`UNSAFE_SURFACES`], and there
/// justified by a `SAFETY:` comment on the same line or within the three
/// raw lines above.
fn check_unsafe(rel_path: &str, file: &CleanFile, idx: usize, emit: &mut impl FnMut(Rule, String)) {
    let code = &file.lines[idx].code;
    for pos in find_all(code, "unsafe") {
        if !ident_boundary_before(code, pos) || !ident_boundary_after(code, pos + 6) {
            continue;
        }
        let documented = (idx.saturating_sub(3)..=idx)
            .any(|j| file.lines.get(j).is_some_and(|l| l.raw.contains("SAFETY")));
        if !UNSAFE_SURFACES.contains(&rel_path) {
            emit(
                Rule::UnsafeAudit,
                "`unsafe` outside the sanctioned surfaces".to_owned(),
            );
        } else if !documented {
            emit(
                Rule::UnsafeAudit,
                "`unsafe` without a SAFETY comment".to_owned(),
            );
        }
    }
}

/// Narrowing `as` casts: `expr as u8/u16/u32/i8/i16/i32` silently
/// truncates, which corrupts wire fields and GF(2^8) elements. Widening
/// and float casts are fine.
fn check_lossy_cast(code: &str, emit: &mut impl FnMut(Rule, String)) {
    const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
    for pos in find_all(code, "as") {
        if !ident_boundary_before(code, pos) || !ident_boundary_after(code, pos + 2) {
            continue;
        }
        let target = token_after(code, pos + 2);
        if NARROW.contains(&target.as_str()) {
            let src = token_before(code, pos);
            emit(
                Rule::LossyCast,
                format!("narrowing cast `{src} as {target}` can truncate silently (use try_from or a checked helper)"),
            );
        }
    }
}

/// Bare `+`/`*` (including `+=`/`*=`) where an operand identifier looks
/// like a packet/rank index (`seq`, `rank`, `idx`, `index`, `pivot` in
/// its last path segment): overflow on these walks off a generation or
/// a matrix row, so hot-path code must use `wrapping_*`/`checked_*` or
/// carry a justification allow.
fn check_unchecked_arith(code: &str, emit: &mut impl FnMut(Rule, String)) {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'+' && b != b'*' {
            continue;
        }
        // Binary use needs an operand expression ending just before the
        // operator; prefix `*deref`, `&*`, `+` in bounds etc. do not have
        // one. `**`/`+=`-second-char positions are skipped the same way.
        let Some(pb) = prev_nonws(bytes, i) else {
            continue;
        };
        if !(is_ident_byte(bytes[pb]) || bytes[pb] == b')' || bytes[pb] == b']') {
            continue;
        }
        let mut j = i + 1;
        if bytes.get(j) == Some(&b'=') {
            j += 1; // compound assignment `+=` / `*=`
        }
        let lhs = token_before(code, i);
        let rhs = token_after(code, j);
        let offender = if is_index_like(&lhs) {
            Some(lhs)
        } else if is_index_like(&rhs) {
            Some(rhs)
        } else {
            None
        };
        if let Some(name) = offender {
            let op = if bytes.get(i + 1) == Some(&b'=') {
                format!("{}=", b as char)
            } else {
                (b as char).to_string()
            };
            emit(
                Rule::UncheckedArith,
                format!(
                    "bare `{op}` on index-like value `{name}` in hot path (use wrapping_*/checked_*)"
                ),
            );
        }
    }
}

/// `true` if the token's last `.`-segment names a sequence/rank/index.
fn is_index_like(token: &str) -> bool {
    let last = token
        .rsplit('.')
        .next()
        .unwrap_or(token)
        .to_ascii_lowercase();
    ["seq", "rank", "idx", "index", "pivot"]
        .iter()
        .any(|k| last.contains(k))
}

/// Index of the previous non-whitespace byte, if any.
fn prev_nonws(bytes: &[u8], i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| !bytes[j].is_ascii_whitespace())
}

/// Every `Ordering::` choice in the sanctioned unsafe surface must carry
/// an `// ordering:` justification on the same line or within the three
/// raw lines above (mirroring the SAFETY-comment rule for `unsafe`).
fn check_atomics(file: &CleanFile, idx: usize, emit: &mut impl FnMut(Rule, String)) {
    let code = &file.lines[idx].code;
    for pos in find_all(code, "Ordering::") {
        if !ident_boundary_before(code, pos) {
            continue;
        }
        let documented = (idx.saturating_sub(3)..=idx).any(|j| {
            file.lines
                .get(j)
                .is_some_and(|l| l.raw.contains("ordering:"))
        });
        if !documented {
            emit(
                Rule::AtomicsAudit,
                "atomic `Ordering::` choice without an `// ordering:` justification".to_owned(),
            );
        }
    }
}

/// `.clone()`/`.to_vec()` on a loop-body line: a per-iteration heap copy
/// on a hot path.
fn check_clone_in_loop(code: &str, in_loop: bool, emit: &mut impl FnMut(Rule, String)) {
    if !in_loop {
        return;
    }
    for pat in [".clone()", ".to_vec()"] {
        for _pos in find_all(code, pat) {
            emit(
                Rule::CloneInHotLoop,
                format!("`{pat}` inside a loop on a hot path (hoist or borrow instead)"),
            );
        }
    }
}

/// Crate-root audit: a crate root file must carry `#![forbid(unsafe_code)]`,
/// or a SAFETY-commented `#![allow(unsafe_code)]` / `#![deny(unsafe_code)]`.
/// The deny form is the counting-allocator pattern: unsafe denied
/// crate-wide and allowed back in exactly one SAFETY-documented module
/// (deny, unlike forbid, can be overridden by an inner `#![allow]`).
/// Returns a file-level finding otherwise.
pub fn audit_crate_root(rel_path: &str, source: &str, table: &RuleTable) -> Option<Finding> {
    let cfg = table.config(Rule::UnsafeAudit);
    if !cfg.applies_to(rel_path) {
        return None;
    }
    if source.contains("#![forbid(unsafe_code)]") {
        return None;
    }
    if source.contains("#![allow(unsafe_code)]") && source.contains("SAFETY") {
        return None;
    }
    if source.contains("#![deny(unsafe_code)]") && source.contains("SAFETY") {
        return None;
    }
    Some(Finding::new(
        rel_path,
        0,
        Rule::UnsafeAudit,
        cfg.severity,
        "crate root lacks `#![forbid(unsafe_code)]`".to_owned(),
        "",
    ))
}

// ---------------------------------------------------------------------------
// Region detection (cfg(test), loop bodies)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum RegionScan {
    Normal,
    /// Saw the trigger, waiting for the opening brace of the item.
    Seeking,
    /// Inside the braced region at the given depth.
    Inside(u32),
}

/// Marks lines belonging to `#[cfg(test)]` items (modules or functions).
pub fn test_line_mask(file: &CleanFile) -> Vec<bool> {
    region_mask(file, |code| {
        code.find("#[cfg(test)]")
            .or_else(|| code.find("#[cfg(all(test"))
    })
}

/// Marks lines inside `for`/`while`/`loop` bodies (including the header
/// line). Nested loops extend nothing — the outermost region already
/// covers them.
pub(crate) fn loop_line_mask(file: &CleanFile) -> Vec<bool> {
    region_mask(file, |code| {
        ["for", "while", "loop"]
            .iter()
            .filter_map(|kw| find_keyword(code, kw))
            .filter(|&p| !non_loop_for(code, p))
            .min()
    })
}

/// `true` when the `for` keyword at `pos` is not a loop: the `for` of an
/// `impl Trait for Type` header, or an HRTB `for<'a>`.
fn non_loop_for(code: &str, pos: usize) -> bool {
    if !code[pos..].starts_with("for") {
        return false;
    }
    if code[pos + 3..].trim_start().starts_with('<') {
        return true; // for<'a> bound
    }
    ["impl", "trait"]
        .iter()
        .any(|kw| find_keyword(code, kw).is_some_and(|k| k < pos))
}

/// Position of `kw` as a standalone keyword token in `code`.
fn find_keyword(code: &str, kw: &str) -> Option<usize> {
    find_all(code, kw)
        .into_iter()
        .find(|&p| ident_boundary_before(code, p) && ident_boundary_after(code, p + kw.len()))
}

/// Shared brace-tracking region scanner: `trigger` returns the column at
/// which a region-opening construct starts on a line.
fn region_mask(file: &CleanFile, trigger: impl Fn(&str) -> Option<usize>) -> Vec<bool> {
    let mut mask = vec![false; file.lines.len()];
    let mut state = RegionScan::Normal;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = line.code.as_str();
        let mut start = 0usize;
        if state == RegionScan::Normal {
            if let Some(p) = trigger(code) {
                state = RegionScan::Seeking;
                start = p;
            }
        }
        if state == RegionScan::Normal {
            continue;
        }
        mask[idx] = true;
        for c in code[start..].chars() {
            match (state, c) {
                (RegionScan::Seeking, '{') => state = RegionScan::Inside(1),
                (RegionScan::Seeking, ';') => {
                    // e.g. `#[cfg(test)] use ...;` — no braced region follows.
                    state = RegionScan::Normal;
                    break;
                }
                (RegionScan::Inside(d), '{') => state = RegionScan::Inside(d + 1),
                (RegionScan::Inside(1), '}') => {
                    state = RegionScan::Normal;
                    break;
                }
                (RegionScan::Inside(d), '}') => state = RegionScan::Inside(d - 1),
                _ => {}
            }
        }
    }
    mask
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// All byte offsets where `pat` occurs in `code`.
fn find_all(code: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = code[from..].find(pat) {
        out.push(from + p);
        from += p + pat.len().max(1);
    }
    out
}

/// `true` if position `pos` is not preceded by an identifier character.
fn ident_boundary_before(code: &str, pos: usize) -> bool {
    pos == 0 || !is_ident_byte(code.as_bytes()[pos - 1])
}

/// `true` if position `pos` is not followed by an identifier character.
fn ident_boundary_after(code: &str, pos: usize) -> bool {
    code.as_bytes().get(pos).is_none_or(|&b| !is_ident_byte(b))
}

/// For `name: [&mut] [path::]HashMap<..>` at `ty_start`, recovers `name`.
fn binding_before_annotation(code: &str, ty_start: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut j = ty_start;
    // Strip any path prefix (`std::collections::`) attached to the type.
    loop {
        let mut k = j;
        while k > 0 && is_ident_byte(bytes[k - 1]) {
            k -= 1;
        }
        if k >= 2 && &code[k - 2..k] == "::" {
            j = k - 2;
        } else {
            j = k;
            break;
        }
    }
    // Strip reference/mutability tokens and whitespace.
    loop {
        while j > 0 && (bytes[j - 1] as char).is_whitespace() {
            j -= 1;
        }
        if j > 0 && bytes[j - 1] == b'&' {
            j -= 1;
        } else if j >= 3 && &code[j - 3..j] == "mut" && (j == 3 || !is_ident_byte(bytes[j - 4])) {
            j -= 3;
        } else {
            break;
        }
    }
    // Expect the single colon of a type annotation.
    if j == 0 || bytes[j - 1] != b':' || (j >= 2 && bytes[j - 2] == b':') {
        return None;
    }
    j -= 1;
    while j > 0 && (bytes[j - 1] as char).is_whitespace() {
        j -= 1;
    }
    let end = j;
    while j > 0 && is_ident_byte(bytes[j - 1]) {
        j -= 1;
    }
    (j < end).then(|| code[j..end].to_owned())
}

/// For `let [mut] name = HashMap::new()` at `ty_start`, recovers `name`.
fn binding_before_assignment(code: &str, ty_start: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut j = ty_start;
    while j > 0 && (bytes[j - 1] as char).is_whitespace() {
        j -= 1;
    }
    if j == 0 || bytes[j - 1] != b'=' {
        return None;
    }
    j -= 1;
    if j > 0 && matches!(bytes[j - 1], b'=' | b'!' | b'<' | b'>' | b'+') {
        return None;
    }
    while j > 0 && (bytes[j - 1] as char).is_whitespace() {
        j -= 1;
    }
    let end = j;
    while j > 0 && is_ident_byte(bytes[j - 1]) {
        j -= 1;
    }
    (j < end).then(|| code[j..end].to_owned())
}

/// `true` if the identifier at `pos` is the iterated expression of a
/// `for .. in [&mut] name` loop.
fn preceded_by_in_keyword(code: &str, pos: usize) -> bool {
    let bytes = code.as_bytes();
    let mut j = pos;
    while j > 0 && (bytes[j - 1] as char).is_whitespace() {
        j -= 1;
    }
    if j > 0 && bytes[j - 1] == b'&' {
        j -= 1;
        if j >= 3 && &code[j - 3..j] == "mut" {
            j -= 3;
        }
        while j > 0 && (bytes[j - 1] as char).is_whitespace() {
            j -= 1;
        }
    }
    j >= 2 && &code[j - 2..j] == "in" && (j == 2 || !is_ident_byte(bytes[j - 3]))
}

/// The expression token ending at `pos` (identifier/number chars and dots).
fn token_before(code: &str, pos: usize) -> String {
    let bytes = code.as_bytes();
    let mut j = pos;
    while j > 0 && (bytes[j - 1] as char).is_whitespace() {
        j -= 1;
    }
    let end = j;
    while j > 0 && (is_ident_byte(bytes[j - 1]) || bytes[j - 1] == b'.') {
        j -= 1;
    }
    code[j..end].to_owned()
}

/// The expression token starting at `pos`, including exponent signs.
fn token_after(code: &str, pos: usize) -> String {
    let bytes = code.as_bytes();
    let mut j = pos;
    while j < bytes.len() && (bytes[j] as char).is_whitespace() {
        j += 1;
    }
    if bytes.get(j) == Some(&b'-') {
        j += 1;
    }
    let start = j;
    while j < bytes.len() && (is_ident_byte(bytes[j]) || bytes[j] == b'.') {
        if (bytes[j] == b'e' || bytes[j] == b'E')
            && matches!(bytes.get(j + 1), Some(b'-') | Some(b'+'))
        {
            j += 2;
            continue;
        }
        j += 1;
    }
    code[start..j].to_owned()
}

/// `true` for numeric float literal tokens: `0.5`, `1.`, `1e-9`, `2.5e3`.
fn is_float_literal(token: &str) -> bool {
    let t = token.trim_end_matches("f64").trim_end_matches("f32");
    let mut chars = t.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !first.is_ascii_digit() && first != '.' {
        return false;
    }
    let has_digit = t.chars().any(|c| c.is_ascii_digit());
    let has_marker = t.contains('.') || t.contains('e') || t.contains('E');
    has_digit
        && has_marker
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '_' | '-' | '+'))
}

// ---------------------------------------------------------------------------
// Phase B: propagation and assembly
// ---------------------------------------------------------------------------

/// Builds the call graph over the sim-crate files, propagates hot-path
/// obligations from [`HOT_ENTRIES`], and assembles the final finding
/// list: all local findings (chain-annotated when they sit inside a hot
/// function) plus the potential findings proven hot.
pub fn assemble_findings(analyses: &[(String, FileAnalysis)]) -> Vec<Finding> {
    let sim_files: Vec<(String, FileSymbols)> = analyses
        .iter()
        .filter(|(path, _)| is_sim_crate(path))
        .map(|(path, a)| (path.clone(), a.symbols.clone()))
        .collect();
    let graph = callgraph::build(&sim_files);
    let hot = callgraph::hot_spans(&graph, &HOT_ENTRIES);

    let mut findings = Vec::new();
    for (path, analysis) in analyses {
        let spans = hot.get(path);
        // The innermost hot function covering a line, if any.
        let chain_for = |line: usize| -> Option<&str> {
            spans?
                .iter()
                .filter(|s| s.start <= line && line <= s.end)
                .max_by_key(|s| s.start)
                .map(|s| s.chain.as_str())
        };
        for f in &analysis.local {
            let mut f = f.clone();
            if Rule::by_name(&f.rule).is_some_and(Rule::propagates) {
                if let Some(chain) = chain_for(f.line) {
                    f.chain = Some(chain.to_owned());
                }
            }
            findings.push(f);
        }
        for f in &analysis.potential {
            if let Some(chain) = chain_for(f.line) {
                let mut f = f.clone();
                f.chain = Some(chain.to_owned());
                findings.push(f);
            }
        }
    }
    findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
    findings.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.rule == b.rule);
    findings
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Finds the workspace root by walking up from `start` until a `Cargo.toml`
/// declaring `[workspace]` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Lints every first-party source file under `<root>/crates` against
/// `table`. Files under `tests/`, `benches/`, `examples/`, `fixtures/`, and
/// `target/` directories are skipped — the rules govern shipping code.
///
/// # Errors
///
/// Returns an I/O error if the tree cannot be read.
pub fn check_workspace(root: &Path, table: &RuleTable) -> io::Result<Report> {
    let crates = root.join("crates");
    let mut files = Vec::new();
    collect_rust_files(&crates, &mut files)?;
    files.sort();

    let mut report = Report::default();
    let mut analyses: Vec<(String, FileAnalysis)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(path)?;
        let analysis = analyze_file(&rel, &source, table);
        if rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs") {
            report
                .findings
                .extend(audit_crate_root(&rel, &source, table));
        }
        analyses.push((rel, analysis));
        report.files_checked += 1;
    }
    report.findings.extend(assemble_findings(&analyses));
    report.finish();
    Ok(report)
}

/// Recursively collects `.rs` files, skipping non-shipping directories.
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    const SKIP_DIRS: [&str; 5] = ["tests", "benches", "examples", "fixtures", "target"];
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rust_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Severity;

    const SIM_PATH: &str = "crates/drift/src/sim.rs";
    const HOT_PATH: &str = "crates/rlnc/src/kernel.rs";

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        analyze_source(path, src, &RuleTable::default())
    }

    #[test]
    fn wall_clock_flagged_in_sim_not_in_telemetry() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(lint(SIM_PATH, src).len(), 1);
        assert!(lint("crates/omnc-telemetry/src/timer.rs", src).is_empty());
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "fn f() { let t = Instant::now(); } // lint: allow(wall-clock)\n";
        assert!(lint(SIM_PATH, src).is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); let t = Instant::now(); }\n}\n";
        assert!(lint(HOT_PATH, src).is_empty());
    }

    #[test]
    fn hash_iteration_found_via_annotation_and_constructor() {
        let src = "struct S { pub seen: HashMap<u32, u64> }\nfn f(s: &S) { for (k, v) in s.seen.iter() { use_it(k, v); } }\n";
        let fs = lint(SIM_PATH, src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "hash-iter");

        let src2 =
            "fn f() { let mut m = HashMap::new(); m.insert(1, 2); for k in m.keys() { g(k); } }\n";
        assert_eq!(lint(SIM_PATH, src2).len(), 1);
    }

    #[test]
    fn hash_lookup_without_iteration_is_clean() {
        let src = "struct S { pub seen: HashMap<u32, u64> }\nfn f(s: &S) { let v = s.seen.get(&1); use_it(v); }\n";
        assert!(lint(SIM_PATH, src).is_empty());
    }

    #[test]
    fn for_loop_over_hash_binding_is_flagged() {
        let src = "fn f(roles: HashMap<u32, u64>) { for (k, v) in roles { g(k, v); } }\n";
        let fs = lint(SIM_PATH, src);
        assert_eq!(fs.len(), 1, "{fs:?}");
    }

    #[test]
    fn btree_map_is_clean() {
        let src = "fn f(roles: BTreeMap<u32, u64>) { for (k, v) in roles { g(k, v); } }\n";
        assert!(lint(SIM_PATH, src).is_empty());
    }

    #[test]
    fn unwrap_denied_in_hot_path_only() {
        // `.expect(` states its reason and indexing is bounds-checked:
        // neither is a finding.
        let src = "fn f(x: Option<u32>, v: &[u8]) { x.unwrap(); x.expect(\"b\"); v[0]; }\n";
        let fs = lint(HOT_PATH, src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "unwrap");
        assert_eq!(fs[0].severity, Severity::Deny);
        assert!(lint("crates/omnc/src/runner.rs", src).is_empty());
    }

    #[test]
    fn float_eq_flagged_in_opt_crates() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }\n";
        let fs = lint("crates/omnc-opt/src/flow.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "float-eq");
        // Integer comparison and tuple-field access are fine.
        assert!(lint(
            "crates/omnc-opt/src/flow.rs",
            "fn g(i: u32, t: (f64, f64)) -> bool { i == 0 && t.0 != t.1 }\n"
        )
        .is_empty());
        // Out of scope elsewhere.
        assert!(lint(SIM_PATH, src).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let fs = lint(crate::rules::SIMD_MODULE, bad);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "unsafe-audit");
        let good =
            "// SAFETY: p is valid by contract.\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert!(lint(crate::rules::SIMD_MODULE, good).is_empty());
        // Outside the sanctioned surfaces no comment redeems it.
        let fs = lint("crates/omnc-report/src/lib.rs", good);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "unsafe-audit");
    }

    #[test]
    fn crate_root_audit() {
        let t = RuleTable::default();
        assert!(audit_crate_root("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\n", &t).is_none());
        let f = audit_crate_root("crates/x/src/lib.rs", "pub mod a;\n", &t).unwrap();
        assert_eq!(f.rule, "unsafe-audit");
        assert_eq!(f.line, 0);
        // The counting-allocator pattern: deny crate-wide, allow back in
        // one SAFETY-documented module.
        let deny = "// SAFETY comments audited per module.\n#![deny(unsafe_code)]\nmod alloc;\n";
        assert!(audit_crate_root("crates/x/src/lib.rs", deny, &t).is_none());
        // A bare deny without any SAFETY documentation is not enough.
        let bare = "#![deny(unsafe_code)]\nmod alloc;\n";
        assert!(audit_crate_root("crates/x/src/lib.rs", bare, &t).is_some());
    }

    #[test]
    fn hot_alloc_flagged_in_hot_path_with_escape_hatch() {
        let src = "fn f() { let b = Box::new(Thing::default()); }\n";
        let fs = lint(HOT_PATH, src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "hot-alloc");
        assert_eq!(fs[0].severity, Severity::Deny);
        // Out of scope outside the hot-path modules.
        assert!(lint("crates/omnc/src/runner.rs", src).is_empty());
        // The documented escape hatch.
        let allowed = "fn f() { let b = Box::new(Thing::default()); } // lint: allow(hot-alloc)\n";
        assert!(lint(HOT_PATH, allowed).is_empty());
        // Degenerate zero-capacity Vec; a sized one is fine.
        let zero = "fn g() { let v: Vec<u8> = Vec::with_capacity(0); }\n";
        assert_eq!(lint(HOT_PATH, zero).len(), 1);
        let sized = "fn g(n: usize) { let v: Vec<u8> = Vec::with_capacity(n); }\n";
        assert!(lint(HOT_PATH, sized).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "fn f() { log(\"Instant::now\"); } // Instant::now in comments is fine\n";
        assert!(lint(SIM_PATH, src).is_empty());
    }

    #[test]
    fn lossy_cast_fires_in_wire_and_kernel_code() {
        let src = "fn f(n: usize) -> u32 { n as u32 }\n";
        let fs = lint("crates/rlnc/src/packet.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "lossy-cast");
        assert_eq!(fs[0].severity, Severity::Deny);
        // Widening/float casts are fine; out-of-scope files are silent.
        assert!(lint(
            "crates/rlnc/src/packet.rs",
            "fn g(n: u8) -> u64 { n as u64 }\n"
        )
        .is_empty());
        assert!(lint("crates/omnc-opt/src/flow.rs", src).is_empty());
        // The escape hatch.
        let allowed = "fn f(n: usize) -> u32 { n as u32 } // lint: allow(lossy-cast)\n";
        assert!(lint("crates/rlnc/src/packet.rs", allowed).is_empty());
    }

    #[test]
    fn unchecked_arith_fires_on_index_like_operands() {
        let src = "fn f(&mut self) { self.next_seq += 1; }\n";
        let fs = lint("crates/drift/src/event.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "unchecked-arith");
        // Multiplication on a rank/pivot value.
        let mul = "fn g(&self, row: &Row) -> usize { row.pivot * self.block }\n";
        assert_eq!(lint("crates/rlnc/src/decoder.rs", mul).len(), 1);
        // Wrapping arithmetic and non-index operands are fine.
        let ok =
            "fn h(&mut self) { self.next_seq = self.next_seq.wrapping_add(1); let y = a + b; }\n";
        assert!(lint("crates/drift/src/event.rs", ok).is_empty());
        // Generic bounds (`Clone + 'static`) don't trip it.
        let bounds = "fn b<M: Clone + 'static>(m: M) {}\n";
        assert!(lint("crates/drift/src/event.rs", bounds).is_empty());
    }

    #[test]
    fn atomics_audit_requires_ordering_comment() {
        let path = "crates/omnc-telemetry/src/alloc.rs";
        let bare = "fn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let fs = lint(path, bare);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "atomics-audit");
        let documented = "// ordering: independent counter, no synchronization needed.\nfn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(lint(path, documented).is_empty());
        // Only the sanctioned unsafe surface is audited.
        assert!(lint("crates/omnc-telemetry/src/sink.rs", bare).is_empty());
    }

    #[test]
    fn clone_in_hot_loop_fires_inside_loops_only() {
        let in_loop = "fn f(rows: &[Vec<u8>]) {\n    for r in rows {\n        consume(r.clone());\n    }\n}\n";
        let fs = lint(HOT_PATH, in_loop);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "clone-in-hot-loop");
        let outside = "fn f(r: &Vec<u8>) { consume(r.clone()); }\n";
        assert!(lint(HOT_PATH, outside).is_empty());
        let allowed = "fn f(rows: &[Vec<u8>]) {\n    for r in rows {\n        consume(r.clone()); // lint: allow(clone-in-hot-loop)\n    }\n}\n";
        assert!(lint(HOT_PATH, allowed).is_empty());
    }

    #[test]
    fn loop_mask_covers_while_and_loop_bodies() {
        let file = clean("fn f() {\n    let x = 1;\n    while x < 2 {\n        step();\n    }\n    loop {\n        break;\n    }\n}\n");
        let mask = loop_line_mask(&file);
        assert!(!mask[0] && !mask[1], "{mask:?}");
        assert!(mask[2] && mask[3] && mask[4], "{mask:?}");
        assert!(mask[5] && mask[6] && mask[7], "{mask:?}");
        assert!(!mask[8], "{mask:?}");
    }

    #[test]
    fn impl_for_headers_and_hrtbs_are_not_loops() {
        let src = "impl Behavior<Msg> for Forwarder {\n    fn on_receive(&mut self, msg: &Msg) {\n        self.forward(msg.clone());\n    }\n}\nfn call<F: for<'a> Fn(&'a u8)>(f: F, v: &Vec<u8>) {\n    f(&v.clone()[0]);\n}\n";
        let mask = loop_line_mask(&clean(src));
        assert!(mask.iter().all(|m| !m), "{mask:?}");
        let fs = lint(HOT_PATH, src);
        assert!(fs.iter().all(|f| f.rule != "clone-in-hot-loop"), "{fs:#?}");
    }

    #[test]
    fn potential_findings_released_only_when_hot() {
        // `algorithm.rs` is NOT in HOT_PATH_MODULES, so the unwrap is
        // invisible to the local pass — but RateControl::iterate is a
        // registered entry, so propagation releases it with a chain.
        let src = "struct RateControl;\nimpl RateControl {\n    fn iterate(&mut self) { self.step() }\n    fn step(&mut self) { self.x.unwrap(); }\n}\n";
        let table = RuleTable::default();
        let analysis = analyze_file("crates/omnc-opt/src/algorithm.rs", src, &table);
        assert!(analysis.local.is_empty(), "{:#?}", analysis.local);
        assert_eq!(analysis.potential.len(), 1, "{:#?}", analysis.potential);

        let findings =
            assemble_findings(&[("crates/omnc-opt/src/algorithm.rs".to_owned(), analysis)]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].rule, "unwrap");
        assert_eq!(
            findings[0].chain.as_deref(),
            Some("RateControl::iterate → RateControl::step")
        );

        // The same code under a crate with no hot entries stays silent.
        let cold = analyze_file("crates/net-topo/src/algorithm.rs", src, &table);
        let cold_findings =
            assemble_findings(&[("crates/net-topo/src/algorithm.rs".to_owned(), cold)]);
        assert!(cold_findings.is_empty(), "{cold_findings:#?}");
    }

    #[test]
    fn local_findings_in_hot_functions_gain_chains() {
        // gf256 is statically hot (path scope) AND reachable from the
        // rlnc encoder — the finding keeps its local origin but gains
        // the blame chain.
        let gf = "pub fn lead(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let enc = "use gf256::slice::lead;\nstruct Encoder;\nimpl Encoder {\n    fn emit(&self) { lead(None); }\n}\n";
        let table = RuleTable::default();
        let analyses = vec![
            (
                "crates/gf256/src/slice.rs".to_owned(),
                analyze_file("crates/gf256/src/slice.rs", gf, &table),
            ),
            (
                "crates/rlnc/src/encoder.rs".to_owned(),
                analyze_file("crates/rlnc/src/encoder.rs", enc, &table),
            ),
        ];
        let findings = assemble_findings(&analyses);
        let unwrap = findings.iter().find(|f| f.rule == "unwrap").unwrap();
        assert_eq!(unwrap.chain.as_deref(), Some("Encoder::emit → lead"));
        assert!(unwrap.render().contains("hot path: Encoder::emit → lead"));
    }
}
