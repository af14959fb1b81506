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
//!
//! The recording flag is process-global, so every test here serializes
//! on one lock (the same discipline as `tests/trace.rs`).

use isax::{Customizer, MatchOptions, ProvEvent, ProvLog};
use isax_graph::par::set_thread_override;
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
