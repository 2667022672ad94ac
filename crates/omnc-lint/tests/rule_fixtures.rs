//! Every rule exercised against the fixture files: positive hits fire,
//! `// lint: allow(...)`-annotated occurrences stay quiet.

use std::path::Path;

use omnc_lint::analyzer::audit_crate_root;
use omnc_lint::rules::SIMD_MODULE;
use omnc_lint::{analyze_source, Finding, RuleTable, Severity};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/rules")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn lint_as(fake_path: &str, fixture_name: &str) -> Vec<Finding> {
    analyze_source(fake_path, &fixture(fixture_name), &RuleTable::default())
}

fn count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn determinism_rules_fire_and_respect_allows() {
    let fs = lint_as("crates/drift/src/model.rs", "determinism.rs");
    assert_eq!(count(&fs, "wall-clock"), 2, "{fs:#?}");
    assert_eq!(count(&fs, "nondet-rng"), 2, "{fs:#?}");
    assert_eq!(count(&fs, "env-dep"), 1, "{fs:#?}");
    assert!(fs.iter().all(|f| f.severity == Severity::Deny));
}

#[test]
fn determinism_rules_are_scoped_to_sim_crates() {
    // The same source under the telemetry crate (allowlisted: clocks are
    // its job) produces nothing.
    let fs = lint_as("crates/omnc-telemetry/src/timer.rs", "determinism.rs");
    assert!(fs.is_empty(), "{fs:#?}");
}

#[test]
fn hash_iteration_fires_and_respects_allows() {
    let fs = lint_as("crates/omnc/src/runner.rs", "hash_iter.rs");
    assert_eq!(count(&fs, "hash-iter"), 2, "{fs:#?}");
}

#[test]
fn panic_freedom_fires_in_hot_path_only() {
    let fs = lint_as("crates/rlnc/src/decoder.rs", "panic_freedom.rs");
    // One denied `.unwrap()`; reasoned `.expect(`, `panic!` and
    // bounds-checked indexing are not findings.
    assert_eq!(fs.len(), 1, "{fs:#?}");
    assert_eq!(count(&fs, "unwrap"), 1, "{fs:#?}");
    assert_eq!(fs[0].severity, Severity::Deny);

    // Outside the designated hot-path modules the rules are silent.
    let cold = lint_as("crates/omnc/src/runner.rs", "panic_freedom.rs");
    assert!(cold.is_empty(), "{cold:#?}");
}

#[test]
fn float_eq_fires_in_optimizer_crates_only() {
    let fs = lint_as("crates/omnc-opt/src/flow.rs", "float_eq.rs");
    assert_eq!(count(&fs, "float-eq"), 2, "{fs:#?}");
    let elsewhere = lint_as("crates/drift/src/sim.rs", "float_eq.rs");
    assert_eq!(count(&elsewhere, "float-eq"), 0, "{elsewhere:#?}");
}

#[test]
fn concurrency_fires_everywhere_but_the_sanctioned_modules() {
    // Denied in the simulation core (threads, channels, and a rogue
    // TcpListener are all findings)...
    let fs = lint_as("crates/drift/src/sim.rs", "concurrency.rs");
    assert_eq!(count(&fs, "concurrency"), 5, "{fs:#?}");
    assert!(fs.iter().all(|f| f.severity == Severity::Deny));
    // ...and in the campaign crate at large (spec parsing, merge, CLI)...
    let fs = lint_as("crates/omnc-campaign/src/journal.rs", "concurrency.rs");
    assert_eq!(count(&fs, "concurrency"), 5, "{fs:#?}");
    // ...and in the telemetry crate at large...
    let fs = lint_as("crates/omnc-telemetry/src/sink.rs", "concurrency.rs");
    assert_eq!(count(&fs, "concurrency"), 5, "{fs:#?}");
    // ...but the executor and the observer are the sanctioned surfaces.
    let fs = lint_as("crates/omnc-campaign/src/executor.rs", "concurrency.rs");
    assert_eq!(count(&fs, "concurrency"), 0, "{fs:#?}");
    let fs = lint_as("crates/omnc-telemetry/src/export.rs", "concurrency.rs");
    assert_eq!(count(&fs, "concurrency"), 0, "{fs:#?}");
    // Crates outside the scope (e.g. the reporting tool, whose `live`
    // command is a TcpStream *client*) are untouched.
    let fs = lint_as("crates/omnc-report/src/main.rs", "concurrency.rs");
    assert_eq!(count(&fs, "concurrency"), 0, "{fs:#?}");
}

#[test]
fn unsafe_audit_fires_on_blocks_and_crate_roots() {
    let source = fixture("unsafe_audit.rs");
    let table = RuleTable::default();
    // Inside a sanctioned surface only the undocumented block is flagged;
    // anywhere else both are.
    let fs = analyze_source(SIMD_MODULE, &source, &table);
    assert_eq!(count(&fs, "unsafe-audit"), 1, "{fs:#?}");
    let fs = analyze_source("crates/demo/src/lib.rs", &source, &table);
    assert_eq!(count(&fs, "unsafe-audit"), 2, "{fs:#?}");

    let root = audit_crate_root("crates/demo/src/lib.rs", &source, &table);
    assert!(root.is_some(), "crate root without forbid must be denied");

    let clean_root = "#![forbid(unsafe_code)]\npub fn ok() {}\n";
    assert!(audit_crate_root("crates/demo/src/lib.rs", clean_root, &table).is_none());
}

#[test]
fn unsafe_audit_accepts_the_counting_allocator_pattern() {
    let source = fixture("unsafe_audit_alloc.rs");
    let table = RuleTable::default();
    // Every unsafe item is SAFETY-documented within the audit window.
    let fs = analyze_source("crates/omnc-telemetry/src/alloc.rs", &source, &table);
    assert_eq!(count(&fs, "unsafe-audit"), 0, "{fs:#?}");
    // As a crate root, a SAFETY-paired `#![allow(unsafe_code)]` passes...
    assert!(audit_crate_root("crates/demo/src/lib.rs", &source, &table).is_none());
    // ...and so does the deny-at-root flavor omnc-telemetry itself uses
    // (deny, unlike forbid, can be overridden by the one audited module).
    let deny_root =
        "// SAFETY documented per module; see alloc.rs.\n#![deny(unsafe_code)]\nmod alloc;\n";
    assert!(audit_crate_root("crates/demo/src/lib.rs", deny_root, &table).is_none());
    let bare_deny = "#![deny(unsafe_code)]\nmod alloc;\n";
    assert!(audit_crate_root("crates/demo/src/lib.rs", bare_deny, &table).is_some());
}

#[test]
fn unsafe_audit_accepts_the_runtime_detected_simd_pattern() {
    // The gf256 kernel's `std::arch` body: a feature-gated call and
    // unaligned block loads/stores, each SAFETY-documented. The module is
    // also a kernel module, so the hygiene rules apply to it and stay quiet.
    let fs = lint_as(SIMD_MODULE, "unsafe_audit_simd.rs");
    assert!(fs.is_empty(), "{fs:#?}");
    // The same code in any other gf256 file is outside the surface.
    let fs = lint_as("crates/gf256/src/wide.rs", "unsafe_audit_simd.rs");
    assert_eq!(count(&fs, "unsafe-audit"), 2, "{fs:#?}");
}

#[test]
fn hot_alloc_fires_in_hot_path_modules_only() {
    let fs = lint_as("crates/rlnc/src/kernel.rs", "hot_alloc.rs");
    assert_eq!(count(&fs, "hot-alloc"), 2, "{fs:#?}");
    assert!(fs
        .iter()
        .filter(|f| f.rule == "hot-alloc")
        .all(|f| f.severity == Severity::Deny));
    // Outside the designated hot-path modules the rule is silent.
    let cold = lint_as("crates/omnc/src/runner.rs", "hot_alloc.rs");
    assert_eq!(count(&cold, "hot-alloc"), 0, "{cold:#?}");
}

#[test]
fn lossy_cast_fires_in_wire_and_kernel_code_only() {
    let fs = lint_as("crates/omnc/src/wire.rs", "lossy_cast.rs");
    assert_eq!(count(&fs, "lossy-cast"), 2, "{fs:#?}");
    assert!(fs
        .iter()
        .filter(|f| f.rule == "lossy-cast")
        .all(|f| f.severity == Severity::Deny));
    // The gf256 kernel surface is covered too...
    let kernel = lint_as("crates/gf256/src/arith.rs", "lossy_cast.rs");
    assert_eq!(count(&kernel, "lossy-cast"), 2, "{kernel:#?}");
    // ...but code outside the wire/kernel scope is not.
    let cold = lint_as("crates/omnc-opt/src/flow.rs", "lossy_cast.rs");
    assert_eq!(count(&cold, "lossy-cast"), 0, "{cold:#?}");
}

#[test]
fn unchecked_arith_fires_in_hot_paths_only() {
    let fs = lint_as("crates/drift/src/event.rs", "unchecked_arith.rs");
    assert_eq!(count(&fs, "unchecked-arith"), 2, "{fs:#?}");
    assert!(fs
        .iter()
        .filter(|f| f.rule == "unchecked-arith")
        .all(|f| f.severity == Severity::Deny));
    let cold = lint_as("crates/omnc/src/runner.rs", "unchecked_arith.rs");
    assert_eq!(count(&cold, "unchecked-arith"), 0, "{cold:#?}");
}

#[test]
fn atomics_audit_fires_in_the_alloc_module_only() {
    let fs = lint_as("crates/omnc-telemetry/src/alloc.rs", "atomics_audit.rs");
    assert_eq!(count(&fs, "atomics-audit"), 1, "{fs:#?}");
    assert!(fs
        .iter()
        .filter(|f| f.rule == "atomics-audit")
        .all(|f| f.severity == Severity::Deny));
    let cold = lint_as("crates/omnc-telemetry/src/sink.rs", "atomics_audit.rs");
    assert_eq!(count(&cold, "atomics-audit"), 0, "{cold:#?}");
}

#[test]
fn clone_in_hot_loop_fires_in_hot_paths_only() {
    let fs = lint_as("crates/rlnc/src/kernel.rs", "clone_in_hot_loop.rs");
    assert_eq!(count(&fs, "clone-in-hot-loop"), 2, "{fs:#?}");
    assert!(fs
        .iter()
        .filter(|f| f.rule == "clone-in-hot-loop")
        .all(|f| f.severity == Severity::Deny));
    let cold = lint_as("crates/omnc/src/runner.rs", "clone_in_hot_loop.rs");
    assert_eq!(count(&cold, "clone-in-hot-loop"), 0, "{cold:#?}");
}

#[test]
fn timeseries_recorder_is_held_to_determinism_and_hot_alloc_bars() {
    // Linted under its real path, a wall-clock-sampled series is denied
    // even though the telemetry crate is otherwise exempt from the
    // determinism rules.
    let fs = lint_as(
        "crates/omnc-telemetry/src/timeseries.rs",
        "timeseries_wall_clock.rs",
    );
    assert_eq!(count(&fs, "wall-clock"), 2, "{fs:#?}");
    assert_eq!(count(&fs, "hot-alloc"), 1, "{fs:#?}");
    assert!(fs.iter().all(|f| f.severity == Severity::Deny));

    // The rest of the telemetry crate keeps its exemption: clocks are
    // its job (timer.rs wraps the wall clock deliberately).
    let exempt = lint_as(
        "crates/omnc-telemetry/src/timer.rs",
        "timeseries_wall_clock.rs",
    );
    assert!(exempt.is_empty(), "{exempt:#?}");
}
