//! The configurable rule table: what is checked where, and how loudly.
//!
//! Four rule families (ISSUE 3):
//!
//! * **(D) determinism** — the simulation core must be bit-reproducible
//!   under a fixed seed, so wall clocks, entropy-seeded RNGs,
//!   environment reads, and hash-order iteration are banned from the sim
//!   crates;
//! * **(P) panic-freedom** — designated hot-path modules must not
//!   `.unwrap()`;
//! * **(U) unsafe audit** — every workspace crate keeps
//!   `#![forbid(unsafe_code)]` or documents each allow with a `// SAFETY:`
//!   comment, and `unsafe` itself appears only in [`UNSAFE_SURFACES`];
//! * **(F) float hygiene** — `==`/`!=` against float literals in the
//!   optimizer/LP crates.
//!
//! Determinism grew a fifth member with the campaign orchestrator
//! (ISSUE 5): **concurrency** — `std::thread` / `mpsc` (and, with the
//! live observability plane, `TcpListener`) stay banned in the sim
//! crates and in `omnc-campaign` and `omnc-telemetry` at large, with
//! exactly two sanctioned exceptions: the campaign's `executor.rs`
//! (workers run whole cells around the simulation, never threads inside
//! it) and the telemetry crate's `export.rs` (the read-only observer
//! thread serving `/metrics`).
//!
//! The SIMD/perf arc (ISSUE 8) added a sixth family, **(K) kernel
//! hygiene**, and made obligations *transitive*: `lossy-cast` (narrowing
//! `as` casts in wire/proto and kernel code), `unchecked-arith` (bare
//! `+`/`*` on packet/rank indices in hot paths), `atomics-audit` (every
//! `Ordering::` choice in the sanctioned unsafe surface needs an
//! `// ordering:` justification), and `clone-in-hot-loop`
//! (`.clone()`/`.to_vec()` inside loops on hot paths). Rules for which
//! [`Rule::propagates`] returns `true` additionally apply to any function
//! reachable in the call graph from a [`HOT_ENTRIES`] entry point,
//! regardless of module or crate — see `crate::callgraph`.
//!
//! Every rule can be suppressed locally with `// lint: allow(<rule>)` (same
//! line or the line above) or per file with `// lint: allow-file(<rule>)`.

use serde::{Deserialize, Serialize};

/// How a finding affects the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Reported, does not fail the run.
    Warn,
    /// Fails the run (nonzero exit).
    Deny,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

/// Stable rule identifiers (also the names accepted by `lint: allow(...)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Rule {
    /// D: `Instant::now` / `SystemTime` wall-clock reads.
    WallClock,
    /// D: entropy-seeded randomness (`thread_rng`, `rand::random`, ...).
    NondetRng,
    /// D: process-environment reads (`env::var`, `env::args`, ...).
    EnvDep,
    /// D: iteration over `HashMap`/`HashSet` (order is seeded per process).
    HashIter,
    /// P: `.unwrap()` in hot-path modules.
    Unwrap,
    /// U: missing `#![forbid(unsafe_code)]` or undocumented unsafe.
    UnsafeAudit,
    /// F: `==` / `!=` against a float literal.
    FloatEq,
    /// D: thread spawning / channel plumbing outside the sanctioned
    /// campaign executor module.
    Concurrency,
    /// P: heap-allocating constructs (`Box::new`, degenerate
    /// `Vec::with_capacity(0)`) in hot-path modules.
    HotAlloc,
    /// K: narrowing `as` casts in wire/proto and kernel code.
    LossyCast,
    /// K: bare `+`/`*` on packet/rank index values in hot-path code.
    UncheckedArith,
    /// K: `Ordering::` without an `// ordering:` justification in the
    /// sanctioned unsafe surface.
    AtomicsAudit,
    /// K: `.clone()`/`.to_vec()` inside loops on hot paths.
    CloneInHotLoop,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 13] = [
        Rule::WallClock,
        Rule::NondetRng,
        Rule::EnvDep,
        Rule::HashIter,
        Rule::Unwrap,
        Rule::UnsafeAudit,
        Rule::FloatEq,
        Rule::Concurrency,
        Rule::HotAlloc,
        Rule::LossyCast,
        Rule::UncheckedArith,
        Rule::AtomicsAudit,
        Rule::CloneInHotLoop,
    ];

    /// The name used in reports and `lint: allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::NondetRng => "nondet-rng",
            Rule::EnvDep => "env-dep",
            Rule::HashIter => "hash-iter",
            Rule::Unwrap => "unwrap",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::FloatEq => "float-eq",
            Rule::Concurrency => "concurrency",
            Rule::HotAlloc => "hot-alloc",
            Rule::LossyCast => "lossy-cast",
            Rule::UncheckedArith => "unchecked-arith",
            Rule::AtomicsAudit => "atomics-audit",
            Rule::CloneInHotLoop => "clone-in-hot-loop",
        }
    }

    /// The rule named `name`, if any (inverse of [`Rule::name`]).
    pub fn by_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description for `omnc-lint rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock reads (Instant::now / SystemTime) in sim crates",
            Rule::NondetRng => {
                "entropy-seeded randomness (thread_rng / rand::random) in sim crates"
            }
            Rule::EnvDep => "process-environment reads (env::var / env::args) in sim crates",
            Rule::HashIter => "iteration over HashMap/HashSet bindings in sim crates",
            Rule::Unwrap => ".unwrap() in hot-path modules or code reachable from hot entries",
            Rule::UnsafeAudit => "crates must forbid unsafe_code or SAFETY-document each allow",
            Rule::FloatEq => "== / != against float literals in optimizer/LP crates",
            Rule::Concurrency => {
                "std::thread / mpsc / TcpListener use outside the two sanctioned modules \
                 (the omnc-campaign executor and the omnc-telemetry observer)"
            }
            Rule::HotAlloc => {
                "Box::new / Vec::with_capacity(0) allocations in designated hot-path modules"
            }
            Rule::LossyCast => "narrowing `as` casts in wire/proto and kernel code",
            Rule::UncheckedArith => {
                "bare + / * on seq/rank/index values in hot paths (use wrapping_*/checked_*)"
            }
            Rule::AtomicsAudit => {
                "atomic Ordering choices in the sanctioned unsafe surface need // ordering: notes"
            }
            Rule::CloneInHotLoop => ".clone() / .to_vec() inside loops reachable from hot entries",
        }
    }

    /// `true` for rules whose obligation is *transitive*: besides their
    /// static path scope, they apply inside any function reachable in the
    /// call graph from a [`HOT_ENTRIES`] entry point. Rules tied to a
    /// fixed audit surface (unsafe/atomics), to numeric style
    /// (float-eq), or to crate layout (concurrency, lossy-cast on wire
    /// layouts) do not travel with callers.
    pub fn propagates(self) -> bool {
        matches!(
            self,
            Rule::WallClock
                | Rule::NondetRng
                | Rule::EnvDep
                | Rule::HashIter
                | Rule::Unwrap
                | Rule::HotAlloc
                | Rule::UncheckedArith
                | Rule::CloneInHotLoop
        )
    }
}

/// One rule's scope and severity.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Whether the rule runs at all.
    pub enabled: bool,
    /// Warn or deny.
    pub severity: Severity,
    /// Workspace-relative path prefixes the rule applies to. Empty means
    /// "every linted file".
    pub include: Vec<String>,
    /// Path substrings that exempt a file (e.g. `/src/bin/` entry points).
    pub exclude: Vec<String>,
}

impl RuleConfig {
    /// `true` if the rule applies to `path` (workspace-relative, `/`-separated).
    pub fn applies_to(&self, path: &str) -> bool {
        if !self.enabled {
            return false;
        }
        if self.exclude.iter().any(|e| path.contains(e.as_str())) {
            return false;
        }
        self.include.is_empty() || self.include.iter().any(|p| path.starts_with(p.as_str()))
    }
}

/// The full rule table.
#[derive(Debug, Clone)]
pub struct RuleTable {
    configs: Vec<(Rule, RuleConfig)>,
}

/// Crates whose `src/` trees form the deterministic simulation core.
pub const SIM_CRATES: [&str; 7] = [
    "crates/drift/",
    "crates/rlnc/",
    "crates/omnc/",
    "crates/omnc-opt/",
    "crates/net-topo/",
    "crates/gf256/",
    "crates/simplex-lp/",
];

/// Modules held to the panic-freedom bar: the per-event simulator engine,
/// the per-packet decoding kernels, and untrusted-input parsing.
pub const HOT_PATH_MODULES: [&str; 6] = [
    "crates/drift/src/sim.rs",
    "crates/drift/src/event.rs",
    "crates/rlnc/src/decoder.rs",
    "crates/rlnc/src/kernel.rs",
    "crates/gf256/src/",
    "crates/omnc/src/wire.rs",
];

/// Crates held to float-comparison hygiene (LP/optimizer numerics).
pub const FLOAT_CRATES: [&str; 2] = ["crates/omnc-opt/", "crates/simplex-lp/"];

/// The windowed time-series recorder. It lives in the telemetry crate
/// (which is otherwise exempt: clocks are its job) but feeds
/// byte-compared artifacts, so it is held to the simulation core's
/// determinism bar and must never sample a wall clock — and to the
/// hot-alloc bar, since every sim event records through it.
pub const TIMESERIES_MODULE: &str = "crates/omnc-telemetry/src/timeseries.rs";

/// Wire-format and kernel modules where a silently narrowing `as` cast can
/// corrupt packets or field elements: header encoders, message layouts,
/// and the GF(2^8) kernels.
pub const WIRE_KERNEL_MODULES: [&str; 5] = [
    "crates/omnc/src/wire.rs",
    "crates/omnc/src/msg.rs",
    "crates/rlnc/src/packet.rs",
    "crates/rlnc/src/kernel.rs",
    "crates/gf256/src/",
];

/// The counting global allocator, one of the two sanctioned unsafe
/// surfaces. Its atomics are the subject of `atomics-audit`.
pub const ALLOC_MODULE: &str = "crates/omnc-telemetry/src/alloc.rs";

/// The `std::arch` body of the `gf256::wide` kernel, the other sanctioned
/// unsafe surface.
pub const SIMD_MODULE: &str = "crates/gf256/src/avx2.rs";

/// The only modules allowed to contain `unsafe`: anywhere else the
/// `unsafe-audit` rule denies the keyword even with a `SAFETY:` comment.
pub const UNSAFE_SURFACES: [&str; 2] = [ALLOC_MODULE, SIMD_MODULE];

/// A registered hot-path entry point for obligation propagation: any
/// function reachable from one of these in the approximate call graph
/// inherits the propagating rules' bars (see [`Rule::propagates`]).
#[derive(Debug, Clone, Copy)]
pub struct HotEntry {
    /// Workspace-relative path prefix the entry's defining file must match.
    pub path_prefix: &'static str,
    /// The `impl` owner type, or `None` for free functions.
    pub owner: Option<&'static str>,
    /// The function name.
    pub name: &'static str,
}

const fn entry(
    path_prefix: &'static str,
    owner: Option<&'static str>,
    name: &'static str,
) -> HotEntry {
    HotEntry {
        path_prefix,
        owner,
        name,
    }
}

/// The hot-path entry-point registry (DESIGN.md §6c): the per-packet
/// coding operations, the GF(2^8) slice kernels, the simulator event
/// dispatch loop and its event-queue/arena engine, the multi-session
/// dispatch, the LP pivot engine, and the rate-control iteration.
pub const HOT_ENTRIES: [HotEntry; 21] = [
    // rlnc: encode / recode / decode.
    entry("crates/rlnc/src/encoder.rs", Some("Encoder"), "emit"),
    entry(
        "crates/rlnc/src/encoder.rs",
        Some("Encoder"),
        "emit_with_coefficients",
    ),
    entry("crates/rlnc/src/recoder.rs", Some("Recoder"), "absorb"),
    entry("crates/rlnc/src/recoder.rs", Some("Recoder"), "emit"),
    entry("crates/rlnc/src/decoder.rs", Some("Decoder"), "absorb"),
    // gf256: the slice kernels every coding op bottoms out in.
    entry("crates/gf256/src/", None, "mul_add_assign"),
    entry("crates/gf256/src/", None, "mul_assign"),
    entry("crates/gf256/src/", None, "div_assign"),
    entry("crates/gf256/src/", None, "add_assign"),
    entry("crates/gf256/src/", None, "dot"),
    // drift: the event dispatch loop and the engine beneath it — the
    // indexed event queue's pop/schedule and the packet arena's
    // alloc/free run once per simulated event/packet.
    entry("crates/drift/src/sim.rs", Some("Simulator"), "run_until"),
    entry("crates/drift/src/core.rs", Some("EventQueue"), "pop"),
    entry("crates/drift/src/core.rs", Some("EventQueue"), "schedule"),
    entry("crates/drift/src/arena.rs", Some("Arena"), "alloc"),
    entry("crates/drift/src/arena.rs", Some("Arena"), "free"),
    // omnc: the runner's execution core — every entry point, single
    // session or N coupled ones, drives its one simulator, so everything
    // it reaches is per-packet hot.
    entry("crates/omnc/src/runner.rs", None, "execute"),
    // simplex-lp: the pivot engine.
    entry("crates/simplex-lp/src/solver.rs", Some("Tableau"), "pivot"),
    entry("crates/simplex-lp/src/solver.rs", None, "solve"),
    // omnc-opt: the subgradient iteration.
    entry(
        "crates/omnc-opt/src/algorithm.rs",
        Some("RateControl"),
        "iterate",
    ),
    entry(
        "crates/omnc-opt/src/algorithm.rs",
        Some("RateControl"),
        "run",
    ),
    entry("crates/omnc-opt/src/algorithm.rs", None, "run_best"),
];

impl Default for RuleTable {
    fn default() -> Self {
        let sim: Vec<String> = SIM_CRATES
            .iter()
            .map(|s| (*s).to_owned())
            .chain(std::iter::once(TIMESERIES_MODULE.to_owned()))
            .collect();
        let hot: Vec<String> = HOT_PATH_MODULES.iter().map(|s| (*s).to_owned()).collect();
        let hot_alloc: Vec<String> = HOT_PATH_MODULES
            .iter()
            .map(|s| (*s).to_owned())
            .chain(std::iter::once(TIMESERIES_MODULE.to_owned()))
            .collect();
        let float: Vec<String> = FLOAT_CRATES.iter().map(|s| (*s).to_owned()).collect();
        let concurrency: Vec<String> = SIM_CRATES
            .iter()
            .map(|s| (*s).to_owned())
            .chain([
                "crates/omnc-campaign/".to_owned(),
                "crates/omnc-telemetry/".to_owned(),
            ])
            .collect();
        let wire_kernel: Vec<String> = WIRE_KERNEL_MODULES
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let alloc: Vec<String> = vec![ALLOC_MODULE.to_owned()];
        let cfg = |severity, include: &Vec<String>, exclude: Vec<&str>| RuleConfig {
            enabled: true,
            severity,
            include: include.clone(),
            exclude: exclude.into_iter().map(str::to_owned).collect(),
        };
        RuleTable {
            configs: vec![
                (Rule::WallClock, cfg(Severity::Deny, &sim, vec![])),
                (Rule::NondetRng, cfg(Severity::Deny, &sim, vec![])),
                // Binaries legitimately parse argv; the library core must not.
                (Rule::EnvDep, cfg(Severity::Deny, &sim, vec!["/src/bin/"])),
                (Rule::HashIter, cfg(Severity::Deny, &sim, vec![])),
                (Rule::Unwrap, cfg(Severity::Deny, &hot, vec![])),
                (Rule::UnsafeAudit, cfg(Severity::Deny, &Vec::new(), vec![])),
                (Rule::FloatEq, cfg(Severity::Deny, &float, vec![])),
                // Two sanctioned concurrency surfaces: the campaign
                // executor (cells run on worker threads *around* the
                // simulation, never inside it) and the telemetry observer
                // (a read-only TcpListener thread serving /metrics).
                (
                    Rule::Concurrency,
                    cfg(
                        Severity::Deny,
                        &concurrency,
                        vec![
                            "crates/omnc-campaign/src/executor.rs",
                            "crates/omnc-telemetry/src/export.rs",
                        ],
                    ),
                ),
                // The allocation-observability arc: hot paths must stay
                // allocation-free, so direct heap constructs need a
                // `// lint: allow(hot-alloc)` escape hatch.
                (Rule::HotAlloc, cfg(Severity::Deny, &hot_alloc, vec![])),
                // The SIMD/perf arc (kernel hygiene).
                (Rule::LossyCast, cfg(Severity::Deny, &wire_kernel, vec![])),
                (Rule::UncheckedArith, cfg(Severity::Deny, &hot, vec![])),
                (Rule::AtomicsAudit, cfg(Severity::Deny, &alloc, vec![])),
                (Rule::CloneInHotLoop, cfg(Severity::Deny, &hot, vec![])),
            ],
        }
    }
}

impl RuleTable {
    /// The configuration for `rule`.
    ///
    /// # Panics
    ///
    /// Panics if `rule` is missing from the table (impossible for tables
    /// built by [`RuleTable::default`]).
    pub fn config(&self, rule: Rule) -> &RuleConfig {
        self.configs
            .iter()
            .find(|(r, _)| *r == rule)
            .map(|(_, c)| c)
            .unwrap_or_else(|| panic!("rule {} missing from table", rule.name()))
    }

    /// Iterates `(rule, config)` pairs in reporting order.
    pub fn iter(&self) -> impl Iterator<Item = (Rule, &RuleConfig)> {
        self.configs.iter().map(|(r, c)| (*r, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_table_scopes_rules_as_documented() {
        let t = RuleTable::default();
        assert!(t
            .config(Rule::WallClock)
            .applies_to("crates/drift/src/sim.rs"));
        assert!(!t
            .config(Rule::WallClock)
            .applies_to("crates/omnc-telemetry/src/timer.rs"));
        // The time-series recorder is the telemetry crate's one module
        // held to the determinism and hot-alloc bars: it feeds
        // byte-compared artifacts and sits on the per-event record path.
        assert!(t.config(Rule::WallClock).applies_to(TIMESERIES_MODULE));
        assert!(t.config(Rule::NondetRng).applies_to(TIMESERIES_MODULE));
        assert!(t.config(Rule::HashIter).applies_to(TIMESERIES_MODULE));
        assert!(t.config(Rule::HotAlloc).applies_to(TIMESERIES_MODULE));
        assert!(!t.config(Rule::Unwrap).applies_to(TIMESERIES_MODULE));
        assert!(!t
            .config(Rule::EnvDep)
            .applies_to("crates/omnc/src/bin/omnc-sim.rs"));
        assert!(t.config(Rule::EnvDep).applies_to("crates/omnc/src/lib.rs"));
        assert!(t
            .config(Rule::Unwrap)
            .applies_to("crates/gf256/src/wide.rs"));
        assert!(!t
            .config(Rule::Unwrap)
            .applies_to("crates/omnc/src/runner.rs"));
        assert!(t
            .config(Rule::FloatEq)
            .applies_to("crates/simplex-lp/src/solver.rs"));
        assert!(t.config(Rule::UnsafeAudit).applies_to("anything"));
        assert!(t
            .config(Rule::HotAlloc)
            .applies_to("crates/rlnc/src/decoder.rs"));
        assert!(t
            .config(Rule::HotAlloc)
            .applies_to("crates/gf256/src/wide.rs"));
        assert!(!t
            .config(Rule::HotAlloc)
            .applies_to("crates/omnc/src/runner.rs"));
        assert!(t
            .config(Rule::Concurrency)
            .applies_to("crates/drift/src/sim.rs"));
        assert!(t
            .config(Rule::Concurrency)
            .applies_to("crates/omnc-campaign/src/lib.rs"));
        assert!(!t
            .config(Rule::Concurrency)
            .applies_to("crates/omnc-campaign/src/executor.rs"));
        // The telemetry crate is in scope (a rogue listener in the sink
        // would be a finding) with the observer module sanctioned.
        assert!(t
            .config(Rule::Concurrency)
            .applies_to("crates/omnc-telemetry/src/registry.rs"));
        assert!(!t
            .config(Rule::Concurrency)
            .applies_to("crates/omnc-telemetry/src/export.rs"));
    }

    #[test]
    fn kernel_hygiene_rules_scope_as_documented() {
        let t = RuleTable::default();
        // lossy-cast covers wire layouts and the kernels, nothing else.
        assert!(t
            .config(Rule::LossyCast)
            .applies_to("crates/omnc/src/wire.rs"));
        assert!(t
            .config(Rule::LossyCast)
            .applies_to("crates/rlnc/src/packet.rs"));
        assert!(t
            .config(Rule::LossyCast)
            .applies_to("crates/gf256/src/wide.rs"));
        assert!(!t
            .config(Rule::LossyCast)
            .applies_to("crates/omnc-opt/src/algorithm.rs"));
        // unchecked-arith and clone-in-hot-loop share the hot-path scope
        // (and additionally propagate through the call graph).
        assert!(t
            .config(Rule::UncheckedArith)
            .applies_to("crates/drift/src/event.rs"));
        assert!(!t
            .config(Rule::UncheckedArith)
            .applies_to("crates/omnc/src/runner.rs"));
        assert!(t
            .config(Rule::CloneInHotLoop)
            .applies_to("crates/rlnc/src/decoder.rs"));
        // atomics-audit is pinned to the one sanctioned unsafe surface.
        assert!(t.config(Rule::AtomicsAudit).applies_to(ALLOC_MODULE));
        assert!(!t
            .config(Rule::AtomicsAudit)
            .applies_to("crates/omnc-telemetry/src/sink.rs"));
    }

    #[test]
    fn propagating_rules_are_the_hot_path_obligations() {
        for rule in [
            Rule::Unwrap,
            Rule::HotAlloc,
            Rule::WallClock,
            Rule::NondetRng,
            Rule::UncheckedArith,
            Rule::CloneInHotLoop,
        ] {
            assert!(rule.propagates(), "{} should propagate", rule.name());
        }
        for rule in [
            Rule::UnsafeAudit,
            Rule::FloatEq,
            Rule::Concurrency,
            Rule::LossyCast,
            Rule::AtomicsAudit,
        ] {
            assert!(!rule.propagates(), "{} should not propagate", rule.name());
        }
    }

    #[test]
    fn hot_entries_live_in_sim_crates() {
        for e in HOT_ENTRIES {
            assert!(
                SIM_CRATES.iter().any(|c| e.path_prefix.starts_with(c)),
                "entry {} is outside the sim crates",
                e.name
            );
        }
    }

    #[test]
    fn rule_names_are_stable_and_unique() {
        let mut names: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Rule::ALL.len());
    }
}
