//! The former `omnc-lint` rules, now stock clippy configuration (DESIGN.md
//! §6c), each checked two ways: clippy reports it on the `clippy-bites`
//! fixture and accepts the sanctioned patterns there, and its scope in the
//! workspace is the documented one.

mod support;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use support::lints_in;

const METHODS: &str = "clippy::disallowed_methods";
const UNSAFE_CODE: &str = "unsafe_code";

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if !path.ends_with("crates/omnc-lint") && !path.ends_with("target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `crates/` files with `needle` on a line that is not a comment, as
/// workspace-relative paths. `omnc-lint`, whose tests and fixtures name
/// every rule, is left out.
fn files_with(needle: &str) -> BTreeSet<String> {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    assert!(files.len() > 50, "walked {} files", files.len());
    files
        .into_iter()
        .filter(|path| {
            std::fs::read_to_string(path)
                .expect("readable source")
                .lines()
                .any(|l| !l.trim_start().starts_with("//") && l.contains(needle))
        })
        .map(|path| {
            let rel = path.strip_prefix(root).expect("under the root");
            rel.to_string_lossy().replace('\\', "/")
        })
        .collect()
}

fn paths(list: &[&str]) -> BTreeSet<String> {
    list.iter().map(|p| (*p).to_owned()).collect()
}

#[test]
fn determinism_rules_fire_and_respect_allows() {
    for item in [
        "fn wall_clock(",
        "fn system_clock(",
        "fn seed_from_env(",
        "fn whole_env(",
        "fn argv(",
    ] {
        assert_eq!(lints_in(item), [METHODS], "{item}");
    }
    assert!(lints_in("fn sanctioned_argv(").is_empty());
}

#[test]
fn concurrency_fires_everywhere_but_the_sanctioned_modules() {
    for item in [
        "fn spawn_thread(",
        "fn scoped_threads(",
        "fn built_thread(",
        "fn open_channel(",
    ] {
        assert_eq!(lints_in(item), [METHODS], "{item}");
    }
    assert_eq!(lints_in("fn socket("), ["clippy::disallowed_types"]);
    assert!(lints_in("fn worker_pool(").is_empty());
    // Only the campaign executor, under an `#[expect]`, uses threads or
    // channels; nothing serves a socket.
    let users: BTreeSet<String> = [
        "thread::spawn",
        "thread::scope",
        "thread::Builder",
        "mpsc::channel",
        "TcpListener",
    ]
    .into_iter()
    .flat_map(files_with)
    .collect();
    assert_eq!(users, paths(&["crates/omnc-campaign/src/executor.rs"]));
}

#[test]
fn hash_iteration_fires_and_respects_allows() {
    for item in [
        "fn iterate_field(",
        "fn iterate_constructed(",
        "fn iterate_binding(",
    ] {
        assert_eq!(lints_in(item), ["clippy::iter_over_hash_type"], "{item}");
    }
    assert!(lints_in("fn order_free_total(").is_empty());
    // No site in the workspace is exempt.
    assert!(files_with("iter_over_hash_type").is_empty());
}

#[test]
fn float_eq_fires_in_optimizer_crates_only() {
    assert_eq!(lints_in("fn same_cost("), ["clippy::float_cmp"]);
    assert!(lints_in("fn tie(").is_empty());
    assert!(lints_in("fn same_cost_elsewhere(").is_empty());
    assert_eq!(
        files_with("deny(clippy::float_cmp)"),
        paths(&["crates/omnc-opt/src/lib.rs", "crates/simplex-lp/src/lib.rs"])
    );
}

#[test]
fn lossy_cast_fires_in_wire_and_kernel_code_only() {
    assert_eq!(lints_in("fn narrow("), ["clippy::cast_possible_truncation"]);
    assert!(lints_in("fn narrow_elsewhere(").is_empty());
    assert_eq!(
        files_with("deny(clippy::cast_possible_truncation)"),
        paths(&[
            "crates/gf256/src/lib.rs",
            "crates/omnc/src/msg.rs",
            "crates/omnc/src/wire.rs",
            "crates/rlnc/src/kernel.rs",
            "crates/rlnc/src/packet.rs",
        ])
    );
}

#[test]
fn unsafe_audit_fires_on_blocks_and_crate_roots() {
    assert_eq!(
        lints_in("fn read_undocumented("),
        ["clippy::undocumented_unsafe_blocks", UNSAFE_CODE]
    );
    assert_eq!(lints_in("fn read_documented("), [UNSAFE_CODE]);
    assert_eq!(lints_in("unsafe impl Sync for Token"), [UNSAFE_CODE]);
    // The crate-root deny is lifted in exactly the two audited modules.
    assert_eq!(
        files_with("allow(unsafe_code)"),
        paths(&[
            "crates/gf256/src/avx2.rs",
            "crates/omnc-telemetry/src/alloc.rs",
        ])
    );
}

#[test]
fn unsafe_audit_accepts_the_counting_allocator_pattern() {
    assert!(lints_in("pub mod counting {").is_empty());
}

#[test]
fn unsafe_audit_accepts_the_runtime_detected_simd_pattern() {
    assert!(lints_in("pub mod simd {").is_empty());
}
