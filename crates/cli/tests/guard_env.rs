//! The `isax` binary rejects a malformed configuration variable before
//! it does any work, and runs normally under well-formed ones.

use std::process::{Command, Output};

fn isax(vars: &[(&str, &str)], args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_isax"))
        .args(args)
        .envs(vars.iter().copied())
        .output()
        .expect("isax runs")
}

#[test]
fn malformed_config_env_exits_2_with_a_one_line_diagnostic() {
    for (name, value) in [
        ("ISAX_FAULT", "explore:panc:0"),
        ("ISAX_BEAM", "garbage"),
        ("ISAX_WIDTH", "maybe"),
        ("ISAX_CHECK", "treu"),
    ] {
        let out = isax(&[(name, value)], &["explore", "no-such-kernel.isax"]);
        assert_eq!(out.status.code(), Some(2), "{name}={value}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.contains(name) && stderr.contains(value), "{stderr}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn well_formed_config_env_still_runs() {
    let kernel = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels/crc.isax");
    let out = isax(
        &[
            ("ISAX_CHECK", "1"),
            ("ISAX_BEAM", "0"),
            ("ISAX_WIDTH", " off "),
            ("ISAX_BUDGET", ""),
            ("ISAX_PROV", "no"),
        ],
        &["explore", kernel],
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("CFU candidates"), "{stdout}");
}
