//! What clippy reports on the `clippy-bites` fixture, item by item. Shared
//! by the `analyzer` unit tests in `src/lib.rs` and `tests/rule_fixtures.rs`.
//!
//! Clippy runs once per test binary, over all targets with `-D warnings`
//! as in `scripts/lint.sh`, into `<target>/clippy-bites` (where that script
//! builds the fixture too). It needs the clippy component installed.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/clippy-bites");
const FIXTURE_SOURCE: &str = include_str!("../fixtures/clippy-bites/src/lib.rs");

/// The lints clippy reports inside the fixture item whose header line
/// contains `header` (say `fn first(`), sorted. The item spans from the
/// first line of its attributes and docs to its closing brace.
pub fn lints_in(header: &str) -> Vec<String> {
    let lines: Vec<&str> = FIXTURE_SOURCE.lines().collect();
    let found: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].contains(header))
        .collect();
    assert_eq!(found.len(), 1, "`{header}` must name one fixture item");
    let at = found[0];
    let start = (0..at)
        .rev()
        .take_while(|&i| !lines[i].trim().is_empty())
        .last()
        .unwrap_or(at);
    let end = if lines[at].ends_with('{') {
        let indent = &lines[at][..lines[at].len() - lines[at].trim_start().len()];
        let close = format!("{indent}}}");
        (at..lines.len())
            .find(|&i| lines[i] == close)
            .expect("item closes at its own indent")
    } else {
        at
    };
    // Diagnostic lines are 1-based.
    let mut lints: Vec<String> = diagnostics()
        .iter()
        .filter(|(line, _)| (start + 1..=end + 1).contains(line))
        .map(|(_, lint)| lint.clone())
        .collect();
    lints.sort();
    lints
}

/// Every `(line, lint code)` clippy reports on the fixture, across its lib
/// and test targets.
fn diagnostics() -> &'static BTreeSet<(usize, String)> {
    static DIAGNOSTICS: OnceLock<BTreeSet<(usize, String)>> = OnceLock::new();
    DIAGNOSTICS.get_or_init(|| {
        // `<target>/<profile>/deps/<test binary>`
        let exe = std::env::current_exe().expect("test binary path");
        let target = exe.ancestors().nth(3).expect("target directory");
        let out = Command::new(env!("CARGO"))
            .args([
                "clippy",
                "--offline",
                "--all-targets",
                "--message-format=json",
            ])
            .arg("--manifest-path")
            .arg(Path::new(FIXTURE).join("Cargo.toml"))
            .arg("--target-dir")
            .arg(target.join("clippy-bites"))
            .args(["--", "-D", "warnings"])
            .output()
            .expect("run cargo clippy");
        let found: BTreeSet<(usize, String)> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(parse_diagnostic)
            .collect();
        assert!(
            !out.status.success() && !found.is_empty(),
            "clippy accepted the fixture:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        found
    })
}

/// The primary line and code of one `compiler-message` in cargo's JSON
/// output; `None` for other messages and for errors without a code.
fn parse_diagnostic(json: &str) -> Option<(usize, String)> {
    let value: serde_json::Value = serde_json::from_str(json).ok()?;
    if value.get("reason")?.as_str()? != "compiler-message" {
        return None;
    }
    let message = value.get("message")?;
    let code = message.get("code")?.get("code")?.as_str()?;
    let primary =
        message.get("spans")?.as_array()?.iter().find(|span| {
            span.get("is_primary").and_then(serde_json::Value::as_bool) == Some(true)
        })?;
    let line = usize::try_from(primary.get("line_start")?.as_u64()?).ok()?;
    Some((line, code.to_owned()))
}
