//! Bad input to a figure binary exits 2 with one error line, before any
//! work and without a panic.

use std::process::Command;

#[test]
fn bad_input_exits_2_with_one_line() {
    for args in [
        &["--sesions", "100"][..],
        &["--sessions", "1OO"],
        &["--quality", "medium"],
        &["--nodes", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig3_queue"))
            .args(args)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("level=error"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
