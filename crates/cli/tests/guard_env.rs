//! The `isax` binary rejects a malformed governance variable before it
//! does any work.

use std::process::Command;

#[test]
fn malformed_guard_env_exits_2_with_a_one_line_diagnostic() {
    let out = Command::new(env!("CARGO_BIN_EXE_isax"))
        .args(["explore", "no-such-kernel.isax"])
        .env("ISAX_FAULT", "explore:panc:0")
        .output()
        .expect("isax runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("ISAX_FAULT"), "{stderr}");
    assert!(out.stdout.is_empty());
}
