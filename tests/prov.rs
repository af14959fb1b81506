//! Tentpole guarantees of the `isax-prov` decision-provenance layer:
//!
//! 1. **Determinism safety** — enabling provenance recording must not
//!    change a single byte of any compared artifact (MDES JSON,
//!    customized program text, cycle counts, matcher work). Events ride
//!    in per-stage return values and are merged at parallel join points
//!    in input order, so recording can never influence a decision.
//! 2. **Thread-count invariance** — the fully merged log, and the JSON
//!    report built from it, are byte-identical at any thread count.
//! 3. **Lifecycle invariants** — every candidate fingerprint reaches
//!    exactly one terminal fate; a `Matched` event implies the candidate
//!    was selected; a pruned candidate's pattern never reaches the MDES.
//! 4. **Env-form agreement** — `ISAX_PROV` and `ISAX_TRACE` parse their
//!    values with the same three-way table (`isax-trace` is
//!    dependency-free, so the table is duplicated; this test is what
//!    keeps the copies honest).
//! 5. **One codec** — `isax_prov::parse_report` inverts `build_report`
//!    on reports from real runs, from generated event streams and from
//!    the release CLI (`ISAX_PROV_REPORT_DIR`), and every field of a
//!    real report is checked: deleting or retyping any one of them is
//!    refused with a message that names it.
//!
//! The recording flag is process-global, so every test here serializes
//! on one lock (the same discipline as `tests/trace.rs`).

use isax::{Customizer, MatchOptions, ProvEvent, ProvLog};
use isax_graph::par::set_thread_override;
use isax_json::Value;
use isax_prov::{build_report, parse_report, PruneReason, ScoreBreakdown};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Small enough for debug-mode CI; together they exercise multi-function
/// programs and single hot loops.
const KERNELS: [&str; 3] = ["crc", "rawcaudio", "rawdaudio"];

/// Everything a run produces that other tooling diffs byte-for-byte.
#[derive(PartialEq, Debug)]
struct Artifacts {
    mdes_json: String,
    program_text: String,
    baseline_cycles: u64,
    custom_cycles: u64,
    vf2_calls: u64,
}

struct ProvRun {
    artifacts: Artifacts,
    /// explore + select + compile logs merged in pipeline order — the
    /// same assembly the CLI performs for `--prov-out`.
    log: ProvLog,
    mdes: isax::Mdes,
}

fn run_pipeline(name: &str, budget: f64) -> ProvRun {
    let cz = Customizer::new();
    let w = isax_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let analysis = cz.analyze(&w.program);
    let (mdes, sel) = cz.select(name, &analysis, budget);
    let ev = cz.evaluate(&w.program, &mdes, MatchOptions::with_subsumed());
    let mut log = analysis.report.prov.clone();
    log.merge(sel.report.prov.clone());
    log.merge(ev.compiled.report.prov.clone());
    ProvRun {
        artifacts: Artifacts {
            mdes_json: mdes.to_json().expect("mdes serializes"),
            program_text: ev.compiled.program.functions_text(),
            baseline_cycles: ev.baseline_cycles,
            custom_cycles: ev.custom_cycles,
            vf2_calls: ev.compiled.match_stats.vf2_calls,
        },
        log,
        mdes,
    }
}

#[test]
fn recording_is_invisible_in_every_compared_artifact() {
    let _guard = TEST_LOCK.lock().unwrap();
    for name in KERNELS {
        let disabled = run_pipeline(name, 6.0);
        assert!(
            disabled.log.is_empty(),
            "{name}: a disabled run must record nothing"
        );

        let enabled = {
            let _on = isax_prov::enable();
            run_pipeline(name, 6.0)
        };
        assert_eq!(
            disabled.artifacts, enabled.artifacts,
            "{name}: enabling provenance changed a compared artifact"
        );
        assert!(
            !enabled.log.is_empty(),
            "{name}: the enabled run recorded nothing — the pipeline is not wired"
        );
        // The stage wiring is complete: discovery, selection and
        // replacement all left events.
        let kinds: BTreeSet<&str> = enabled.log.events().iter().map(|(_, e)| e.kind()).collect();
        for kind in ["discovered", "selected_as_cfu", "replaced"] {
            assert!(kinds.contains(kind), "{name}: no `{kind}` event recorded");
        }
    }
}

#[test]
fn report_is_byte_identical_at_any_thread_count() {
    let _guard = TEST_LOCK.lock().unwrap();
    let _on = isax_prov::enable();
    let mut reports = Vec::new();
    for threads in [1, 4] {
        set_thread_override(Some(threads));
        let run = run_pipeline("crc", 6.0);
        reports.push(isax::build_report("crc", &run.log).to_string_pretty());
    }
    set_thread_override(None);
    assert_eq!(
        reports[0], reports[1],
        "provenance report diverged between 1 and 4 threads"
    );
}

/// Groups a merged log by fingerprint, preserving event order.
fn by_candidate(log: &ProvLog) -> BTreeMap<u64, Vec<&ProvEvent>> {
    let mut m: BTreeMap<u64, Vec<&ProvEvent>> = BTreeMap::new();
    for (fp, ev) in log.events() {
        m.entry(*fp).or_default().push(ev);
    }
    m
}

fn check_lifecycle_invariants(run: &ProvRun) -> Result<(), proptest::test_runner::TestCaseError> {
    let mdes_fps: BTreeSet<u64> = run
        .mdes
        .cfus
        .iter()
        .map(|c| isax_select::pattern_fingerprint(&c.pattern).0)
        .collect();
    for (fp, events) in by_candidate(&run.log) {
        let fate = isax::Fate::of(&events);
        let matched = events
            .iter()
            .any(|e| matches!(e, ProvEvent::Matched { .. }));
        let selected = events
            .iter()
            .any(|e| matches!(e, ProvEvent::SelectedAsCfu { .. }));
        // `Matched` implies the candidate became a CFU in this same run.
        prop_assert!(
            !matched || selected,
            "candidate {fp:016x} matched without being selected"
        );
        // A pruned candidate's pattern must never reach the MDES.
        if fate == isax::Fate::Pruned {
            prop_assert!(
                !mdes_fps.contains(&fp),
                "pruned candidate {fp:016x} appears in the MDES"
            );
        }
        // Every referenced CFU id exists.
        for e in &events {
            if let ProvEvent::SelectedAsCfu { cfu, .. } = e {
                prop_assert!(
                    (*cfu as usize) < run.mdes.cfus.len(),
                    "selected cfu id {cfu} out of range"
                );
            }
        }
    }
    // Every MDES CFU has a selection event on the record.
    let selected_fps: BTreeSet<u64> = run
        .log
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, ProvEvent::SelectedAsCfu { .. }))
        .map(|(fp, _)| *fp)
        .collect();
    for fp in &mdes_fps {
        prop_assert!(
            selected_fps.contains(fp),
            "MDES pattern {fp:016x} has no SelectedAsCfu event"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(8))]

    #[test]
    fn lifecycle_invariants_hold(kernel in 0usize..KERNELS.len(), budget in 2.0f64..12.0) {
        let _guard = TEST_LOCK.lock().unwrap();
        let _on = isax_prov::enable();
        let run = run_pipeline(KERNELS[kernel], budget);
        check_lifecycle_invariants(&run)?;
        check_round_trip(&build_report(KERNELS[kernel], &run.log))?;
    }

    #[test]
    fn generated_logs_round_trip_through_the_report(
        seed in any::<u64>(),
        events in proptest::collection::vec(
            (
                0usize..7,
                0u64..6,
                any::<u64>(),
                any::<u64>(),
                [-1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6],
            ),
            1..40,
        ),
    ) {
        let mut log = ProvLog::default();
        for &(kind, who, a, b, x) in &events {
            log.record(who.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed, event(kind, a, b, x));
        }
        check_round_trip(&build_report("gen", &log))?;
    }
}

/// One event of kind `kind` (0..7, pipeline order) from raw draws.
fn event(kind: usize, a: u64, b: u64, x: [f64; 4]) -> ProvEvent {
    let score = ScoreBreakdown {
        criticality: x[0],
        latency: x[1],
        area: x[2],
        io: x[3],
    };
    let function = format!("f{}", a % 3);
    match kind {
        0 => ProvEvent::Discovered {
            dfg: (a % 64) as usize,
            size: (b % 5) as usize,
            delay: x[0],
            area: x[1],
            inputs: (a >> 8) as usize % 5,
            outputs: (b >> 8) as usize % 3,
            // Only single-operation seeds are unscored.
            score: (b % 5 > 1).then_some(score),
        },
        1 => ProvEvent::Pruned {
            dfg: (b % 64) as usize,
            threshold: x[3],
            score,
            reason: [
                PruneReason::BelowThreshold,
                PruneReason::FanoutCap,
                PruneReason::BeamDropped,
            ][(a % 3) as usize],
        },
        2 => ProvEvent::SubsumedBy { cfu: a as u16 },
        3 => ProvEvent::Wildcarded { partner: b as u16 },
        4 => ProvEvent::SelectedAsCfu {
            cfu: a as u16,
            area: x[1],
            delay: x[2],
            estimated_value: b,
        },
        5 => ProvEvent::Matched {
            function,
            block: (b % 9) as usize,
            count: a >> 32,
        },
        _ => ProvEvent::Replaced {
            function,
            block: (b % 9) as usize,
            cycles_before: a,
            cycles_after: b,
        },
    }
}

/// `parse_report` then `build_report` gives back `doc`, as a value and
/// as pretty-printed text.
fn check_round_trip(doc: &Value) -> Result<(), proptest::test_runner::TestCaseError> {
    let (app, log) = parse_report(doc).map_err(proptest::test_runner::TestCaseError::fail)?;
    prop_assert_eq!(&build_report(&app, &log), doc);
    let text = doc.to_string_pretty();
    let reparsed = isax_json::parse(&text).expect("a report parses");
    let (app, log) = parse_report(&reparsed).map_err(proptest::test_runner::TestCaseError::fail)?;
    prop_assert_eq!(build_report(&app, &log).to_string_pretty(), text);
    Ok(())
}

/// Every report under `ISAX_PROV_REPORT_DIR` (the CI `prov` job points
/// it at what the release CLI wrote) decodes, and rebuilding it
/// reproduces the file byte for byte. Skipped when the variable is unset.
#[test]
fn reports_on_disk_rebuild_byte_for_byte() {
    let Ok(dir) = std::env::var("ISAX_PROV_REPORT_DIR") else {
        return;
    };
    let mut n = 0;
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir}: {e}")) {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = isax_json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let (app, log) = parse_report(&doc).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rebuilt = build_report(&app, &log).to_string_pretty() + "\n";
        assert!(
            rebuilt == text,
            "{}: rebuilt report differs",
            path.display()
        );
        n += 1;
    }
    assert!(n > 0, "{dir}: no reports");
}

/// Every object field of `v`: the index path to its parent object, its
/// position there, and its dotted path (`candidates[3].events[0].dfg`).
fn object_fields(
    v: &Value,
    at: &mut Vec<usize>,
    name: &str,
    out: &mut Vec<(Vec<usize>, usize, String)>,
) {
    match v {
        Value::Object(fields) => {
            for (i, (key, child)) in fields.iter().enumerate() {
                let name = if name.is_empty() {
                    key.clone()
                } else {
                    format!("{name}.{key}")
                };
                out.push((at.clone(), i, name.clone()));
                at.push(i);
                object_fields(child, at, &name, out);
                at.pop();
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                at.push(i);
                object_fields(child, at, &format!("{name}[{i}]"), out);
                at.pop();
            }
        }
        _ => {}
    }
}

fn fields_at<'a>(v: &'a mut Value, at: &[usize]) -> &'a mut Vec<(String, Value)> {
    let mut v = v;
    for &i in at {
        v = match v {
            Value::Object(fields) => &mut fields[i].1,
            Value::Array(items) => &mut items[i],
            _ => unreachable!("paths only pass through objects and arrays"),
        };
    }
    match v {
        Value::Object(fields) => fields,
        _ => unreachable!("a field's parent is an object"),
    }
}

/// Deleting or retyping any field of a real report is refused, by the
/// decoder or (for the derived fields a report may omit) by the IC0700
/// re-encode check, with a message naming the field and where it sits.
#[test]
fn every_field_of_a_real_report_is_checked() {
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/prov_crc.json");
    let doc = isax_json::parse(&std::fs::read_to_string(golden).unwrap()).unwrap();
    check_round_trip(&doc).unwrap();
    let mut fields = Vec::new();
    object_fields(&doc, &mut Vec::new(), "", &mut fields);
    assert!(fields.len() > 500, "{} fields", fields.len());
    for (at, i, name) in &fields {
        for delete in [true, false] {
            let mut bad = doc.clone();
            let parent = fields_at(&mut bad, at);
            if delete {
                parent.remove(*i);
            } else {
                let wrong = match parent[*i].1 {
                    Value::Str(_) => Value::Int(7),
                    _ => Value::Str("7".into()),
                };
                parent[*i].1 = wrong;
            }
            let msg = match parse_report(&bad) {
                Err(e) => e,
                Ok(_) => isax::check_provenance(&bad, None, None).to_string(),
            };
            let what = if delete { "deleting" } else { "retyping" };
            let key = name.rsplit('.').next().unwrap();
            assert!(msg.contains(key), "{what} {name}: {msg:?}");
            // `candidates[3].events[0]` is named `candidate 3` / `event 0`
            // by the decoder and by its path in the re-encode check.
            for (list, one) in [("candidates[", "candidate "), ("events[", "event ")] {
                if let Some(rest) = name.split(list).nth(1) {
                    let index = &rest[..rest.find(']').unwrap()];
                    assert!(
                        msg.contains(&format!("{one}{index}"))
                            || msg.contains(&format!("{list}{index}]")),
                        "{what} {name}: {msg:?}"
                    );
                }
            }
        }
    }
}

/// `ISAX_TRACE`, `ISAX_PROV` and `ISAX_SERVE_STATS` all parse through
/// the one shared helper in `isax-trace` (the observability variables
/// through `isax_trace::env_mode`); this is its direct unit test.
/// `isax_prov::parse_env_value` is a re-export of the same item, so
/// type identity makes divergence impossible.
#[test]
fn env_value_grammar() {
    use isax_trace::{parse_env_value, EnvMode};
    for v in ["", "  ", "0", "off", "OFF", "FALSE", "No"] {
        assert_eq!(parse_env_value(v), EnvMode::Off, "{v:?}");
    }
    for v in ["1", " 1 ", "on", "TRUE", " yes "] {
        assert_eq!(parse_env_value(v), EnvMode::Summary, "{v:?}");
    }
    assert_eq!(
        parse_env_value("report.json"),
        EnvMode::Path("report.json".into())
    );
    assert_eq!(parse_env_value("./off"), EnvMode::Path("./off".into()));
    assert_eq!(parse_env_value(" a b "), EnvMode::Path("a b".into()));
    // The re-exports are the same items, not copies: a trace-typed
    // binding holds a prov-parsed value with no conversion.
    let same: EnvMode = isax_prov::parse_env_value("x.json");
    assert_eq!(same, EnvMode::Path("x.json".into()));
}
