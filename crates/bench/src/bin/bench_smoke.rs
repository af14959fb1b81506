//! CI performance smoke: a three-kernel slice of the timing benchmark
//! with a committed baseline.
//!
//! Runs the full pipeline over `blowfish`, `crc`, and `mpeg2dec` twice —
//! serial and at four threads — and enforces, in order:
//!
//! 1. **identity**: both runs produce bit-identical customized cycle
//!    counts, per-kernel candidate counts, degradation records, and
//!    provenance logs (the `isax_graph::par` contract, in miniature);
//! 2. **no silent regression**: the deterministic candidates-examined
//!    count must stay within ±20% of the blessed baseline in
//!    `results/bench_smoke_baseline.json`, and the serial analyze wall
//!    clock must not exceed 1.2× the blessed time.
//!
//! Re-bless an intentional change with `ISAX_BLESS=1 bench_smoke` and
//! commit the new baseline. Exit status is the CI gate.

#![forbid(unsafe_code)]

use isax::{Customizer, MatchOptions};
use isax_bench::{analyze_subset, HEADLINE_BUDGET};
use isax_graph::par::set_thread_override;
use std::collections::BTreeMap;
use std::time::Instant;

const KERNELS: [&str; 3] = ["blowfish", "crc", "mpeg2dec"];
const BASELINE: &str = "results/bench_smoke_baseline.json";
/// Allowed drift before the gate trips: candidate counts are exact, so
/// any >20% move means exploration behaviour changed; wall clock gets
/// the same headroom to absorb CI scheduling noise.
const TOLERANCE: f64 = 0.20;
/// Absolute wall-clock slack on top of the relative gate: the blessed
/// analyze time is milliseconds, where a single scheduler preemption
/// exceeds 20%. A real regression (the memoized-metrics work this guards
/// was a >5× win) dwarfs this.
const TIME_SLACK_S: f64 = 0.25;

struct SmokeRun {
    analyze_s: f64,
    examined: u64,
    per_kernel: BTreeMap<&'static str, (u64, u64)>,
    cycles: BTreeMap<&'static str, u64>,
    report: isax::StageReport,
}

fn run_once(cz: &Customizer) -> SmokeRun {
    let t0 = Instant::now();
    let apps = analyze_subset(cz, &KERNELS);
    let analyze_s = t0.elapsed().as_secs_f64();

    let mut examined = 0u64;
    let mut per_kernel = BTreeMap::new();
    let mut report = isax::StageReport::default();
    for (&name, app) in &apps {
        let s = &app.analysis.stats;
        examined += s.examined;
        per_kernel.insert(name, (s.examined, s.recorded));
        report.merge(app.analysis.report.clone());
    }

    let cycles = apps
        .iter()
        .map(|(&name, app)| {
            let (mdes, sel) = cz.select(name, &app.analysis, HEADLINE_BUDGET);
            report.merge(sel.report);
            let ev = cz.evaluate(&app.workload.program, &mdes, MatchOptions::with_subsumed());
            report.merge(ev.compiled.report);
            (name, ev.custom_cycles)
        })
        .collect();

    SmokeRun {
        analyze_s,
        examined,
        per_kernel,
        cycles,
        report,
    }
}

fn main() {
    let _prov = isax_prov::enable();
    let cz = Customizer::new();

    // Warm-up so the measured serial run pays no first-touch costs.
    set_thread_override(Some(1));
    let _ = analyze_subset(&cz, &KERNELS);

    set_thread_override(Some(1));
    let serial = run_once(&cz);
    set_thread_override(Some(4));
    let parallel = run_once(&cz);
    set_thread_override(None);

    // Gate 1: serial-vs-parallel identity.
    assert_eq!(
        serial.cycles, parallel.cycles,
        "customized cycle counts diverged between 1 and 4 threads"
    );
    assert_eq!(
        serial.per_kernel, parallel.per_kernel,
        "per-kernel candidate counts diverged between 1 and 4 threads"
    );
    assert_eq!(
        serial.report, parallel.report,
        "degradation records or provenance logs diverged between 1 and 4 threads"
    );
    let outputs_identical = true;

    let doc = isax_json::object([
        (
            "kernels",
            isax_json::array(KERNELS.map(isax_json::Value::from)),
        ),
        ("budget", HEADLINE_BUDGET.into()),
        ("outputs_identical", outputs_identical.into()),
        ("candidates_examined", serial.examined.into()),
        ("analyze_s", serial.analyze_s.into()),
    ]);
    let rendered = {
        let mut s = doc.to_string_pretty();
        s.push('\n');
        s
    };
    println!("{rendered}");

    // Gate 2: the committed baseline.
    if std::env::var("ISAX_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(BASELINE, &rendered).expect("write baseline");
        eprintln!("blessed {BASELINE}");
        return;
    }
    let text = std::fs::read_to_string(BASELINE).unwrap_or_else(|e| {
        panic!("{BASELINE}: {e}\nrun with ISAX_BLESS=1 to generate the baseline")
    });
    let base = isax_json::parse(&text).expect("baseline parses");
    let base_examined = base
        .get("candidates_examined")
        .and_then(|v| v.as_u64())
        .expect("baseline candidates_examined");
    let base_analyze_s = base
        .get("analyze_s")
        .and_then(|v| v.as_f64())
        .expect("baseline analyze_s");

    let drift =
        (serial.examined as f64 - base_examined as f64).abs() / (base_examined as f64).max(1.0);
    assert!(
        drift <= TOLERANCE,
        "candidates_examined drifted {:.1}% from baseline ({} vs {base_examined}) — \
         exploration behaviour changed; re-bless with ISAX_BLESS=1 if intentional",
        drift * 100.0,
        serial.examined,
    );
    let time_cap = base_analyze_s * (1.0 + TOLERANCE) + TIME_SLACK_S;
    assert!(
        serial.analyze_s <= time_cap,
        "serial analyze regressed: {:.3}s vs blessed {:.3}s (cap {time_cap:.3}s) — \
         re-bless with ISAX_BLESS=1 if intentional",
        serial.analyze_s,
        base_analyze_s,
    );
    eprintln!(
        "bench smoke OK: {} candidates (baseline {base_examined}), \
         analyze {:.3}s (blessed {base_analyze_s:.3}s)",
        serial.examined, serial.analyze_s,
    );
}
