//! Tests of the workspace's source rules.
//!
//! The determinism and hygiene rules are clippy configuration
//! (`crates/clippy.toml`, the workspace lint table and module-level denies;
//! DESIGN.md §6c). This crate has no code of its own: its tests run clippy
//! with that configuration over the `clippy-bites` fixture and check, item
//! by item, that each rule still fires where it should and stays quiet
//! where it should not.

#![forbid(unsafe_code)]

#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;

/// Tests of the source rules, whose analyzer is stock clippy: each runs
/// clippy with the workspace configuration over the `clippy-bites` fixture
/// and checks what it reports on the items that case covers.
#[cfg(test)]
mod analyzer {
    mod tests {
        use crate::support::lints_in;

        const HASH_ITER: &str = "clippy::iter_over_hash_type";
        const UNSAFE_CODE: &str = "unsafe_code";
        const UNDOCUMENTED: &str = "clippy::undocumented_unsafe_blocks";

        #[test]
        fn allow_directive_suppresses() {
            // The escape hatch is an item-level `#[expect]`...
            assert!(lints_in("fn sanctioned_argv(").is_empty());
            assert!(lints_in("fn worker_pool(").is_empty());
            // ...and one that stops being needed is a finding itself.
            assert_eq!(
                lints_in("fn stale_exemption("),
                ["unfulfilled_lint_expectations"]
            );
        }

        #[test]
        fn test_regions_are_exempt() {
            // `unwrap_used` fires in every crate (`.expect` states its
            // reason and is fine)...
            assert_eq!(lints_in("fn first("), ["clippy::unwrap_used"]);
            assert!(lints_in("fn first_with_reason(").is_empty());
            // ...but not in tests (`allow-unwrap-in-tests`), and `float_cmp`
            // is denied under `cfg(not(test))` only.
            assert!(lints_in("fn unwrap_is_fine_in_tests(").is_empty());
            assert!(lints_in("fn oracle_is_bit_exact(").is_empty());
        }

        #[test]
        fn hash_iteration_found_via_annotation_and_constructor() {
            assert_eq!(lints_in("fn iterate_field("), [HASH_ITER]);
            assert_eq!(lints_in("fn iterate_constructed("), [HASH_ITER]);
        }

        #[test]
        fn hash_lookup_without_iteration_is_clean() {
            assert!(lints_in("fn look_up(").is_empty());
        }

        #[test]
        fn for_loop_over_hash_binding_is_flagged() {
            assert_eq!(lints_in("fn iterate_binding("), [HASH_ITER]);
        }

        #[test]
        fn btree_map_is_clean() {
            assert!(lints_in("fn iterate_btree(").is_empty());
        }

        #[test]
        fn float_eq_flagged_in_opt_crates() {
            assert_eq!(lints_in("fn same_cost("), ["clippy::float_cmp"]);
            // A guard against exactly zero and an integer comparison are fine.
            assert!(lints_in("fn unused_link(").is_empty());
            // Out of scope elsewhere.
            assert!(lints_in("fn same_cost_elsewhere(").is_empty());
        }

        #[test]
        fn unsafe_requires_safety_comment() {
            assert_eq!(
                lints_in("fn read_undocumented("),
                [UNDOCUMENTED, UNSAFE_CODE]
            );
            // Documented inside a sanctioned module, it passes.
            assert!(lints_in("pub mod counting {").is_empty());
            // Outside the sanctioned modules no comment redeems it.
            assert_eq!(lints_in("fn read_documented("), [UNSAFE_CODE]);
        }

        #[test]
        fn crate_root_audit() {
            // Every crate root denies `unsafe_code`: the workspace lint
            // table does, and every crate under `crates/` opts into it.
            let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("workspace root");
            let workspace =
                std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
            let table = workspace
                .split("[workspace.lints.rust]")
                .nth(1)
                .expect("a [workspace.lints.rust] table");
            let table = table.split("\n[").next().unwrap_or(table);
            assert!(table.contains("unsafe_code = \"deny\""), "{table}");
            let mut crates = 0;
            for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
                let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
                let Ok(text) = std::fs::read_to_string(&manifest) else {
                    continue;
                };
                crates += 1;
                assert!(
                    text.contains("[lints]\nworkspace = true"),
                    "{} does not opt into [workspace.lints]",
                    manifest.display()
                );
            }
            assert!(crates >= 10, "found {crates} crates");
            // An unsafe item anywhere in a crate is a finding.
            assert_eq!(lints_in("unsafe impl Sync for Token"), [UNSAFE_CODE]);
        }

        #[test]
        fn strings_and_comments_do_not_trip_rules() {
            assert!(lints_in("fn names_in_text(").is_empty());
        }

        #[test]
        fn lossy_cast_fires_in_wire_and_kernel_code() {
            assert_eq!(lints_in("fn narrow("), ["clippy::cast_possible_truncation"]);
            // Widening and checked conversions are fine...
            assert!(lints_in("fn widen(").is_empty());
            assert!(lints_in("fn block_dst(").is_empty());
            // ...as is a sanctioned site, and out-of-scope code is silent.
            assert!(lints_in("fn log_table(").is_empty());
            assert!(lints_in("fn narrow_elsewhere(").is_empty());
        }
    }
}
