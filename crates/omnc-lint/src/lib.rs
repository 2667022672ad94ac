//! Workspace static analysis for the OMNC reproduction.
//!
//! The repro's headline claim is that a seeded run is *bit-reproducible*:
//! the perf-regression gate and the paper-figure comparisons are meaningless
//! if wall clocks, entropy-seeded RNGs or hash-order iteration leak into the
//! simulation core. This crate enforces that policy — plus panic-freedom on
//! hot paths, an unsafe-code audit and float-comparison hygiene — with a
//! hand-rolled lexer/line analyzer (the vendored dependency tree has no
//! `syn`), and statically validates scenario inputs against the paper's
//! model invariants before any simulation runs.
//!
//! Five code-rule families (see [`rules`]):
//!
//! * **(D) determinism** — no `Instant::now`/`SystemTime`, no entropy-seeded
//!   RNGs, no environment reads, no `HashMap`/`HashSet` iteration in the sim
//!   crates;
//! * **(P) panic-freedom** — no `.unwrap()` and no direct heap
//!   allocation in designated hot-path modules;
//! * **(U) unsafe audit** — every crate root carries
//!   `#![forbid(unsafe_code)]` or SAFETY-documents each allow;
//! * **(F) float hygiene** — no `==`/`!=` against float literals in the
//!   optimizer/LP crates;
//! * **(K) kernel/wire hygiene** — no narrowing `as` casts in wire/kernel
//!   code, no bare arithmetic on seq/rank/index values, audited atomic
//!   orderings, no per-iteration clones in hot loops.
//!
//! Analysis is workspace-aware: [`symbols`] extracts declarations and call
//! sites from each file, [`callgraph`] resolves an approximate cross-crate
//! call graph, and the propagating obligations (determinism, panic-freedom,
//! hot-alloc, unchecked-arith, clone-in-hot-loop) apply transitively to
//! everything reachable from the registered hot entry points
//! ([`rules::HOT_ENTRIES`]), with a blame chain rendered on each finding.
//! Findings export as JSONL or SARIF 2.1.0 ([`sarif`], `--format sarif` /
//! `--sarif PATH`).
//!
//! The semantic half, [`scenario`], checks scenario/topology inputs:
//! reception probabilities in `[0, 1]`, connectivity, interference-clique
//! well-formedness, feasibility of the broadcast capacity condition (paper
//! eq. (4)) and the LP solution's flow-conservation residuals (eq. (2)).
//!
//! Findings are emitted as human-readable text and as JSONL via the
//! `omnc-telemetry` sink conventions; `deny`-level findings fail the run.

#![forbid(unsafe_code)]

pub mod analyzer;
pub mod callgraph;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod scenario;
pub mod symbols;

pub use analyzer::{
    analyze_file, analyze_source, check_workspace, find_workspace_root, FileAnalysis,
};
pub use findings::{Finding, Report};
pub use rules::{Rule, RuleTable, Severity, HOT_ENTRIES};
pub use scenario::{check_scenario_file, check_scenario_str, ScenarioSpec};
