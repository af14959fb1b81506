//! Tentpole guarantees of the `isax-trace` observability layer:
//!
//! 1. **Determinism safety** — enabling tracing must not change a single
//!    byte of any compared artifact (MDES JSON, customized program text,
//!    cycle counts). Counters are fed from statistics aggregated at
//!    parallel join points in input order, and wall-clock timing never
//!    enters an artifact, so enabled-vs-disabled runs must be identical.
//! 2. **Structural validity** — the Chrome `trace_event` export must be
//!    well-formed JSON of the shape chrome://tracing and Perfetto load:
//!    a `traceEvents` array of `X` (complete span), `C` (counter) and
//!    `M` (thread-name metadata) events with the required fields.
//! 3. **CLI plumbing** — `isax customize --trace-out t.json` writes such
//!    a file next to its normal outputs.
//!
//! The trace sink is process-global, so every test here serializes on
//! one lock; artifact byte-comparison is unaffected either way (that is
//! the point of guarantee 1), but "recorder saw my events" assertions
//! would race without it.

use isax::{Customizer, MatchOptions};
use isax_trace::Recorder;
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// The three kernels of the differential: small enough for debug-mode
/// CI, and together they exercise both parallel fan-out shapes (multi-
/// function programs and single hot loops).
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

fn run_pipeline(name: &str) -> Artifacts {
    let cz = Customizer::new();
    let w = isax_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let analysis = cz.analyze(&w.program);
    let (mdes, _) = cz.select(name, &analysis, 6.0);
    let ev = cz.evaluate(&w.program, &mdes, MatchOptions::with_subsumed());
    Artifacts {
        mdes_json: mdes.to_json().expect("mdes serializes"),
        program_text: ev.compiled.program.functions_text(),
        baseline_cycles: ev.baseline_cycles,
        custom_cycles: ev.custom_cycles,
        vf2_calls: ev.compiled.match_stats.vf2_calls,
    }
}

#[test]
fn tracing_is_invisible_in_every_compared_artifact() {
    let _guard = TEST_LOCK.lock().unwrap();
    for name in KERNELS {
        let disabled = run_pipeline(name);

        let rec = Recorder::install();
        let enabled = run_pipeline(name);
        isax_trace::uninstall();

        assert_eq!(
            disabled, enabled,
            "{name}: enabling tracing changed a compared artifact"
        );
        let events = rec.events();
        assert!(
            !events.is_empty(),
            "{name}: the enabled run recorded nothing — the pipeline is not wired"
        );
        // The recorder's own counter sums must agree with the pipeline's
        // deterministic statistics: the trace reports real work, it does
        // not sample it.
        assert_eq!(
            rec.counter_total("match.vf2_calls"),
            enabled.vf2_calls,
            "{name}: trace counter diverges from the matcher's own stats"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                isax_trace::Event::Span { name, .. } if *name == "pipeline.analyze"
            )),
            "{name}: no pipeline.analyze span"
        );
        // Deriving the latency histogram and the folded stacks from
        // the recorded events is read-only and deterministic — the
        // artifact comparison above already proved recording them
        // changed nothing.
        let mut h = isax_trace::Hist::new();
        let mut spans = 0u64;
        for e in &events {
            if let isax_trace::Event::Span { dur_us, .. } = e {
                h.record(*dur_us);
                spans += 1;
            }
        }
        assert_eq!(h.count(), spans, "{name}: histogram loses span samples");
        assert!(spans > 0 && h.quantile(0.5) <= h.max());
        let folded = rec.folded_stacks();
        assert!(!folded.is_empty(), "{name}: no folded stacks");
        assert_eq!(
            folded,
            rec.folded_stacks(),
            "{name}: folded export not deterministic"
        );
    }
}

/// Folded-stack export: any traced run yields inferno-compatible
/// `path value` lines, rooted at thread tracks, with one aggregated
/// line per distinct stack.
#[test]
fn folded_stacks_export_is_inferno_compatible() {
    let _guard = TEST_LOCK.lock().unwrap();
    let rec = Recorder::install();
    let _ = run_pipeline("crc");
    isax_trace::uninstall();
    let folded = rec.folded_stacks();
    assert!(!folded.is_empty(), "traced run must yield folded stacks");
    let mut seen = std::collections::HashSet::new();
    for line in folded.lines() {
        let (path, value) = line.rsplit_once(' ').expect("`path value` line shape");
        assert!(!path.is_empty(), "empty stack path");
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("value must be integer microseconds: {line}"));
        let root = path.split(';').next().unwrap();
        assert!(
            root == "main" || root.starts_with("worker-"),
            "stack must be rooted at a thread track: {root}"
        );
        assert!(
            seen.insert(path.to_string()),
            "stacks must be aggregated; duplicate path {path}"
        );
    }
    assert!(
        folded.lines().any(|l| l.contains("pipeline.analyze")),
        "pipeline spans must appear in the stacks"
    );
}

/// Walks a parsed Chrome trace and asserts the invariants every
/// trace_event consumer relies on.
fn assert_valid_chrome_trace(doc: &isax_json::Value) {
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms"),
        "displayTimeUnit must be present"
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "empty traceEvents");
    let (mut spans, mut counters, mut metas) = (0usize, 0usize, 0usize);
    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph field");
        assert!(e.get("pid").and_then(|v| v.as_u64()).is_some(), "pid");
        match ph {
            "X" => {
                spans += 1;
                for field in ["name", "ts", "dur", "tid"] {
                    assert!(e.get(field).is_some(), "X event missing {field}");
                }
            }
            "C" => {
                counters += 1;
                assert!(e.get("name").is_some(), "C event missing name");
                assert!(
                    e.get("args").and_then(|a| a.as_object()).is_some(),
                    "C event needs an args object with the running total"
                );
            }
            "M" => {
                metas += 1;
                assert_eq!(
                    e.get("name").and_then(|v| v.as_str()),
                    Some("thread_name"),
                    "only thread_name metadata is emitted"
                );
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(spans > 0, "no X span events");
    assert!(counters > 0, "no C counter events");
    assert!(metas > 0, "no M thread_name events");
}

#[test]
fn chrome_export_is_structurally_valid() {
    let _guard = TEST_LOCK.lock().unwrap();
    let rec = Recorder::install();
    let _ = run_pipeline("crc");
    isax_trace::uninstall();
    let text = rec.chrome_trace();
    let doc = isax_json::parse(&text).expect("chrome trace parses as JSON");
    assert_valid_chrome_trace(&doc);
}

#[test]
fn cli_trace_out_writes_a_valid_chrome_trace() {
    let _guard = TEST_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("isax-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = dir.join("crc.isax");
    let mdes_out = dir.join("mdes.json");
    let trace_out = dir.join("trace.json");
    let w = isax_workloads::by_name("crc").unwrap();
    std::fs::write(&kernel, w.program.functions_text()).unwrap();

    let cmd = isax_cli::Command::Customize {
        file: kernel.display().to_string(),
        budget: 6.0,
        name: "crc".into(),
        out: Some(mdes_out.display().to_string()),
        multifunction: false,
        flags: isax_cli::PipelineFlags {
            trace_out: Some(trace_out.display().to_string()),
            ..Default::default()
        },
    };
    let mut out = Vec::new();
    isax_cli::execute(&cmd, &mut out).expect("customize succeeds");
    let stdout = String::from_utf8(out).unwrap();
    assert!(
        stdout.contains("chrome trace written to"),
        "CLI should announce the trace file: {stdout}"
    );

    let text = std::fs::read_to_string(&trace_out).expect("trace file written");
    let doc = isax_json::parse(&text).expect("trace file parses as JSON");
    assert_valid_chrome_trace(&doc);
    assert!(mdes_out.exists(), "normal output still written");
    let _ = std::fs::remove_dir_all(&dir);
}
