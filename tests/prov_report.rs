//! Schema validation for provenance reports (`--prov-out` / `ISAX_PROV`).
//!
//! A report is a contract with external tooling, so its shape is pinned
//! by a pure-Rust validator (no JSON-schema engine exists in this tree):
//! required fields, value types, the closed event-kind and fate
//! vocabularies, kind/stage pairing, and summary-vs-body consistency.
//!
//! Two consumers:
//! * an in-process report for the `crc` kernel, also byte-compared
//!   against `tests/golden/prov_crc.json` (rerun with `ISAX_BLESS=1` to
//!   bless intentional changes);
//! * every `*.json` under `ISAX_PROV_REPORT_DIR`, when set — the CI
//!   `prov` job points this at reports the release CLI generated for
//!   the whole benchmark suite.

use isax::{Customizer, MatchOptions};
use std::path::PathBuf;

fn ty(v: &isax_json::Value) -> &'static str {
    match v {
        isax_json::Value::Null => "null",
        isax_json::Value::Bool(_) => "bool",
        isax_json::Value::Int(_) | isax_json::Value::UInt(_) => "int",
        isax_json::Value::Float(_) => "float",
        isax_json::Value::Str(_) => "string",
        isax_json::Value::Array(_) => "array",
        isax_json::Value::Object(_) => "object",
    }
}

/// Checks `v[key]` exists and satisfies `ok`; records a problem if not.
fn field(
    problems: &mut Vec<String>,
    at: &str,
    v: &isax_json::Value,
    key: &str,
    kind: &str,
    ok: impl Fn(&isax_json::Value) -> bool,
) {
    match v.get(key) {
        None => problems.push(format!("{at}: missing `{key}`")),
        Some(x) if !ok(x) => {
            problems.push(format!("{at}: `{key}` should be {kind}, got {}", ty(x)))
        }
        Some(_) => {}
    }
}

fn is_u(v: &isax_json::Value) -> bool {
    v.as_u64().is_some()
}

fn is_f(v: &isax_json::Value) -> bool {
    v.as_f64().is_some()
}

fn is_s(v: &isax_json::Value) -> bool {
    v.as_str().is_some()
}

fn check_score(problems: &mut Vec<String>, at: &str, s: &isax_json::Value) {
    for axis in ["criticality", "latency", "area", "io", "total"] {
        field(problems, at, s, axis, "a number", is_f);
    }
}

/// Validates one parsed provenance report against the version-1 schema.
/// Returns every problem found (empty = valid).
fn validate_report(doc: &isax_json::Value) -> Vec<String> {
    let mut problems = Vec::new();
    let p = &mut problems;
    field(p, "report", doc, "version", "an integer", is_u);
    if let Some(v) = doc.get("version").and_then(|v| v.as_u64()) {
        if v != isax_prov::REPORT_VERSION {
            p.push(format!("report: unknown version {v}"));
        }
    }
    field(p, "report", doc, "app", "a string", is_s);
    field(p, "report", doc, "summary", "an object", |v| {
        v.as_object().is_some()
    });
    if let Some(s) = doc.get("summary") {
        field(p, "summary", s, "candidates", "an integer", is_u);
        field(p, "summary", s, "events", "an integer", is_u);
        for (group, keys) in [
            ("fates", ["selected", "not_selected", "pruned"]),
            ("stages", ["explore", "select", "compile"]),
        ] {
            match s.get(group) {
                None => p.push(format!("summary: missing `{group}`")),
                Some(g) => {
                    for k in keys {
                        field(p, &format!("summary.{group}"), g, k, "an integer", is_u);
                    }
                }
            }
        }
    }
    let Some(cands) = doc.get("candidates").and_then(|v| v.as_array()) else {
        problems.push("report: missing `candidates` array".into());
        return problems;
    };
    let mut fate_counts = (0u64, 0u64, 0u64);
    for (i, c) in cands.iter().enumerate() {
        let at = format!("candidate[{i}]");
        field(p, &at, c, "fingerprint", "a 16-digit hex string", |v| {
            v.as_str().is_some_and(|s| {
                s.len() == 16
                    && s.bytes()
                        .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
            })
        });
        field(p, &at, c, "fate", "selected|not_selected|pruned", |v| {
            matches!(v.as_str(), Some("selected" | "not_selected" | "pruned"))
        });
        match c.get("fate").and_then(|v| v.as_str()) {
            Some("selected") => fate_counts.0 += 1,
            Some("not_selected") => fate_counts.1 += 1,
            Some("pruned") => fate_counts.2 += 1,
            _ => {}
        }
        for opt in ["cfu", "matches", "cycles_saved"] {
            if let Some(v) = c.get(opt) {
                if !is_u(v) {
                    p.push(format!("{at}: `{opt}` should be an integer, got {}", ty(v)));
                }
            }
        }
        let Some(events) = c.get("events").and_then(|v| v.as_array()) else {
            p.push(format!("{at}: missing `events` array"));
            continue;
        };
        if events.is_empty() {
            p.push(format!("{at}: empty `events` array"));
        }
        for (j, e) in events.iter().enumerate() {
            let at = format!("{at}.events[{j}]");
            let kind = e.get("event").and_then(|v| v.as_str()).unwrap_or("");
            let expected_stage = match kind {
                "discovered" | "pruned" => "explore",
                "subsumed_by" | "wildcarded" | "selected_as_cfu" => "select",
                "matched" | "replaced" => "compile",
                other => {
                    p.push(format!("{at}: unknown event kind `{other}`"));
                    continue;
                }
            };
            if e.get("stage").and_then(|v| v.as_str()) != Some(expected_stage) {
                p.push(format!(
                    "{at}: `{kind}` must carry stage `{expected_stage}`"
                ));
            }
            match kind {
                "discovered" => {
                    for k in ["dfg", "size", "inputs", "outputs"] {
                        field(p, &at, e, k, "an integer", is_u);
                    }
                    for k in ["delay", "area"] {
                        field(p, &at, e, k, "a number", is_f);
                    }
                    if let Some(s) = e.get("score") {
                        check_score(p, &at, s);
                    }
                }
                "pruned" => {
                    field(p, &at, e, "dfg", "an integer", is_u);
                    field(p, &at, e, "threshold", "a number", is_f);
                    field(
                        p,
                        &at,
                        e,
                        "reason",
                        "below_threshold|fanout_cap|beam_dropped",
                        |v| {
                            matches!(
                                v.as_str(),
                                Some("below_threshold" | "fanout_cap" | "beam_dropped")
                            )
                        },
                    );
                    match e.get("score") {
                        None => p.push(format!("{at}: missing `score`")),
                        Some(s) => check_score(p, &at, s),
                    }
                }
                "subsumed_by" => field(p, &at, e, "cfu", "an integer", is_u),
                "wildcarded" => field(p, &at, e, "partner", "an integer", is_u),
                "selected_as_cfu" => {
                    field(p, &at, e, "cfu", "an integer", is_u);
                    field(p, &at, e, "estimated_value", "an integer", is_u);
                    for k in ["area", "delay"] {
                        field(p, &at, e, k, "a number", is_f);
                    }
                }
                "matched" => {
                    field(p, &at, e, "function", "a string", is_s);
                    for k in ["block", "count"] {
                        field(p, &at, e, k, "an integer", is_u);
                    }
                }
                "replaced" => {
                    field(p, &at, e, "function", "a string", is_s);
                    for k in ["block", "cycles_before", "cycles_after"] {
                        field(p, &at, e, k, "an integer", is_u);
                    }
                }
                _ => unreachable!(),
            }
        }
    }
    // The summary must agree with the body it summarizes.
    if let Some(s) = doc.get("summary") {
        let expect = [
            ("candidates", cands.len() as u64),
            ("fates.selected", fate_counts.0),
            ("fates.not_selected", fate_counts.1),
            ("fates.pruned", fate_counts.2),
        ];
        for (path, want) in expect {
            let got = match path.split_once('.') {
                Some((g, k)) => s.get(g).and_then(|g| g.get(k)).and_then(|v| v.as_u64()),
                None => s.get(path).and_then(|v| v.as_u64()),
            };
            if got != Some(want) {
                problems.push(format!("summary.{path}: {got:?} != body count {want}"));
            }
        }
    }
    problems
}

/// The CLI's `customize --prov-out` log assembly, in process.
fn crc_report() -> isax_json::Value {
    let _on = isax_prov::enable();
    let cz = Customizer::new();
    let w = isax_workloads::by_name("crc").unwrap();
    let analysis = cz.analyze(&w.program);
    let (mdes, sel) = cz.select("crc", &analysis, 6.0);
    let ev = cz.evaluate(&w.program, &mdes, MatchOptions::with_subsumed());
    let mut log = analysis.report.prov.clone();
    log.merge(sel.report.prov.clone());
    log.merge(ev.compiled.report.prov.clone());
    isax::build_report("crc", &log)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Byte-for-byte comparison against `tests/golden/<name>`, or a
/// regeneration pass when `ISAX_BLESS=1`.
fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var("ISAX_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun with ISAX_BLESS=1 to generate the snapshot",
            path.display()
        )
    });
    assert!(
        expected == rendered,
        "{name} drifted from its golden snapshot.\n\
         If the change is intentional, rerun with ISAX_BLESS=1 and commit \
         the new snapshot.\n--- golden ---\n{expected}\n--- rendered ---\n{rendered}",
    );
}

#[test]
fn crc_report_is_valid_and_stable() {
    let doc = crc_report();
    let problems = validate_report(&doc);
    assert!(
        problems.is_empty(),
        "schema violations:\n{}",
        problems.join("\n")
    );
    let mut text = doc.to_string_pretty();
    text.push('\n');
    check_golden("prov_crc.json", &text);
}

#[test]
fn validator_rejects_malformed_reports() {
    let doc = crc_report();
    let text = doc.to_string_pretty();
    for (needle, replacement) in [
        ("\"version\": 1", "\"version\": 99"),
        ("\"fate\": \"selected\"", "\"fate\": \"blessed\""),
        ("\"event\": \"discovered\"", "\"event\": \"imagined\""),
        ("\"stage\": \"select\"", "\"stage\": \"compile\""),
    ] {
        let corrupted = text.replacen(needle, replacement, 1);
        assert_ne!(corrupted, text, "corruption `{needle}` did not apply");
        let doc = isax_json::parse(&corrupted).unwrap();
        assert!(
            !validate_report(&doc).is_empty(),
            "validator accepted a report corrupted via `{needle}`"
        );
    }
}

/// CI hook: validate every CLI-generated report in `ISAX_PROV_REPORT_DIR`.
#[test]
fn all_cli_generated_reports_validate() {
    let Ok(dir) = std::env::var("ISAX_PROV_REPORT_DIR") else {
        eprintln!("ISAX_PROV_REPORT_DIR not set — skipping CLI-report sweep");
        return;
    };
    let mut seen = 0usize;
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = isax_json::parse(&text)
            .unwrap_or_else(|e| panic!("{}: parse error {e}", path.display()));
        let problems = validate_report(&doc);
        assert!(
            problems.is_empty(),
            "{}: schema violations:\n{}",
            path.display(),
            problems.join("\n")
        );
        seen += 1;
    }
    assert!(seen > 0, "{dir}: no *.json reports found");
    eprintln!("validated {seen} provenance report(s) from {dir}");
}
