//! The `isax` command line as its users drive it.
//!
//! * `isax explain` over the blessed `tests/golden/prov_crc.json` report
//!   is pinned byte for byte in `tests/golden/explain_crc.txt`: the
//!   overview, one CFU's lifecycle, two candidates by fingerprint prefix
//!   and the per-kernel view. Rerun with `ISAX_BLESS=1` to bless an
//!   intended change. A malformed report is refused, naming the field.
//! * Flags are read by one strict reader: a bad value, a missing value,
//!   an unknown or repeated flag and a stray argument are each a usage
//!   error (`main` exits 2) that names the culprit, and the server
//!   refuses the budgets the command line refuses.
//! * `isax compile` refuses an MDES it cannot honour, naming the field.

mod common;

/// Runs one `isax` command line through the library, as `main` does.
fn isax(args: &[&str]) -> Result<String, String> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let cmd = isax_cli::parse_args(&args).map_err(|e| e.0)?;
    let mut out = Vec::new();
    isax_cli::execute(&cmd, &mut out)?;
    Ok(String::from_utf8(out).expect("isax writes UTF-8"))
}

/// The usage error `args` is refused with; panics if they parse.
fn usage(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    match isax_cli::parse_args(&args) {
        Ok(cmd) => panic!("{args:?} parsed as {cmd:?}"),
        Err(e) => e.0,
    }
}

#[test]
fn explain_renders_the_crc_golden_report() {
    let report = common::golden_path("prov_crc.json");
    let report = report.to_str().expect("UTF-8 path");
    let mut rendered = String::new();
    for query in [
        &[][..],
        &["--cfu", "0"],
        &["--candidate", "5cca"],
        &["--candidate", "699E"],
        &["--kernel", "crc_table_gen", "--top", "3"],
    ] {
        let mut args = vec!["explain", report];
        args.extend_from_slice(query);
        rendered.push_str(&format!(
            "$ isax explain prov_crc.json {}\n",
            query.join(" ")
        ));
        rendered.push_str(&isax(&args).unwrap_or_else(|e| panic!("{query:?}: {e}")));
        rendered.push('\n');
    }
    common::check_golden("explain_crc.txt", &rendered);
}

/// A beam of width 1 drops directions that scored above threshold; the
/// narrative says so instead of calling them below threshold.
#[test]
fn explain_narrates_beam_cuts_as_beam_cuts() {
    let dir = std::env::temp_dir().join(format!("isax-cli-beam-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("bf.json").to_string_lossy().into_owned();
    let mdes = dir.join("bf-mdes.json").to_string_lossy().into_owned();
    let kernel = format!("{}/kernels/blowfish.isax", env!("CARGO_MANIFEST_DIR"));
    isax(&[
        "customize",
        &kernel,
        "--beam-width",
        "1",
        "--prov-out",
        &report,
        "--out",
        &mdes,
    ])
    .unwrap();
    let text = isax(&["explain", &report, "--candidate", "4ff9b460d764c034"]).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        text.contains("pruned in dfg 1 — scored above threshold but fell outside the beam width"),
        "{text}"
    );
    assert!(!text.contains("below threshold"), "{text}");
}

#[test]
fn explain_refuses_a_malformed_report_naming_the_field() {
    let golden = std::fs::read_to_string(common::golden_path("prov_crc.json")).unwrap();
    let dir = std::env::temp_dir().join(format!("isax-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json").to_string_lossy().into_owned();
    for (from, to, names) in [
        (
            "\"9a65a657f87ab0b5\"",
            "\"zz\"",
            "candidate 0: bad `fingerprint` field",
        ),
        ("\"summary\"", "\"summery\"", "missing `summary` field"),
        (
            "\"cycles_before\": 196608",
            "\"cycles_before\": \"lots\"",
            "bad `cycles_before` field",
        ),
        (
            "\"event\": \"replaced\"",
            "\"event\": \"teleported\"",
            "`teleported`",
        ),
        ("\"version\": 1", "\"version\": 2", "version 2"),
    ] {
        assert!(golden.contains(from), "{from}");
        std::fs::write(&path, golden.replacen(from, to, 1)).unwrap();
        let err = isax(&["explain", &path]).unwrap_err();
        assert!(err.contains(names), "{to}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every numeric flag of every command, with a value its rule refuses.
/// An MDES whose CFU ids are not their positions is refused naming the
/// field, even when provenance (which indexes CFUs by id) is recorded.
#[test]
fn compile_refuses_an_mdes_whose_cfu_ids_are_not_positions() {
    let dir = std::env::temp_dir().join(format!("isax-cli-ids-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |f: &str| dir.join(f).to_string_lossy().into_owned();
    let kernel = format!("{}/kernels/crc.isax", env!("CARGO_MANIFEST_DIR"));
    isax(&["customize", &kernel, "--out", &path("m.json")]).unwrap();
    let mut mdes =
        isax::Mdes::from_json(&std::fs::read_to_string(path("m.json")).unwrap()).unwrap();
    assert!(!mdes.cfus.is_empty());
    for cfu in &mut mdes.cfus {
        cfu.id += 7;
    }
    std::fs::write(path("m7.json"), mdes.to_json().unwrap()).unwrap();
    let err = isax(&[
        "compile",
        &kernel,
        "--mdes",
        &path("m7.json"),
        "--prov-out",
        &path("p.json"),
    ])
    .unwrap_err();
    std::fs::remove_dir_all(&dir).ok();
    assert!(err.contains("bad `cfus[0].id` field"), "{err}");
}

#[test]
fn every_numeric_flag_refuses_a_bad_value() {
    let commands: [(&[&str], &str); 12] = [
        (&["customize", "k.isax"], "--budget"),
        (&["explore", "k.isax"], "--work-budget"),
        (&["compile", "k.isax", "--mdes", "m.json"], "--beam-width"),
        (&["explain", "r.json"], "--top"),
        (&["explain", "r.json"], "--cfu"),
        (&["run", "k.isax", "--entry", "f"], "--fuel"),
        (&["dot", "k.isax"], "--block"),
        (&["gen"], "--seed"),
        (&["gen"], "--blocks"),
        (&["serve"], "--workers"),
        (&["serve"], "--queue-cap"),
        (&["serve"], "--admission-budget"),
    ];
    for (cmd, flag) in commands {
        // Integers also refuse a fraction and a value past `u64`.
        let integer = ["1.5", "99999999999999999999999"];
        let extra: &[&str] = if flag == "--budget" {
            &["NaN"]
        } else {
            &integer
        };
        for &bad in ["nope", "-1", "inf"].iter().chain(extra) {
            let mut args = cmd.to_vec();
            args.extend([flag, bad]);
            let err = usage(&args);
            assert!(
                err.starts_with(&format!("bad {flag} `{bad}`")),
                "{args:?}: {err}"
            );
        }
        let mut args = cmd.to_vec();
        args.push(flag);
        assert_eq!(usage(&args), format!("{flag} needs a value"), "{args:?}");
    }
}

#[test]
fn flags_are_read_once_and_strangers_are_refused() {
    for (args, want) in [
        (
            &["customize", "k.isax", "--budgt", "3"][..],
            "unknown flag --budgt",
        ),
        (
            &["customize", "k.isax", "--budget"],
            "--budget needs a value",
        ),
        (
            &["customize", "k.isax", "--budget", "--out", "m.json"],
            "--budget needs a value",
        ),
        (
            &["customize", "k.isax", "--out", "a", "--out", "b"],
            "repeated flag --out",
        ),
        (
            &["explore", "k.isax", "--check", "--check"],
            "repeated flag --check",
        ),
        (
            &["explore", "k.isax", "extra.isax"],
            "unexpected argument `extra.isax`",
        ),
        (&["lint", "k.isax", "--check"], "unknown flag --check"),
        (
            &["serve", "127.0.0.1:0"],
            "unexpected argument `127.0.0.1:0`",
        ),
        (&["gen", "--list", "yes"], "unexpected argument `yes`"),
        (&["run", "k.isax"], "run: --entry is required"),
    ] {
        assert_eq!(usage(args), want, "{args:?}");
    }
}

/// The command line and the serve protocol refuse the same area and work
/// budgets, each naming its flag or field. JSON has no NaN or infinity:
/// the wire spells them as a string and as an overflowing literal.
#[test]
fn server_and_cli_refuse_the_same_budgets() {
    for (flag, field, cli, wire) in [
        ("--budget", "budget", "-1", "-1"),
        ("--budget", "budget", "-0.5", "-0.5"),
        ("--budget", "budget", "NaN", "\"NaN\""),
        ("--budget", "budget", "inf", "1e999"),
        ("--budget", "budget", "-inf", "-1e999"),
        ("--work-budget", "work_budget", "-1", "-1"),
        ("--work-budget", "work_budget", "1.5", "1.5"),
    ] {
        let err = isax_cli::parse_args(&["customize", "k.isax", flag, cli].map(String::from))
            .unwrap_err();
        assert!(err.0.contains(flag), "{flag} {cli}: {err}");
        let frame =
            format!(r#"{{"req":"customize","id":1,"kernel":"","name":"k","{field}":{wire}}}"#);
        let err = isax_serve::decode_request(&frame).unwrap_err();
        assert_eq!(err.code, isax_serve::ErrorCode::BadRequest, "{frame}");
        assert!(
            err.message.contains(&format!("`{field}`")),
            "{frame}: {err:?}"
        );
    }
}
