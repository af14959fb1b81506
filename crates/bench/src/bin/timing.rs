//! Pipeline timing: serial vs parallel wall clock per stage.
//!
//! Runs the full customization pipeline over the extended corpus —
//! the 13 paper workloads plus the stress, curated graph/dsp, and
//! seeded generator kernels, each tagged with its domain — twice: once
//! pinned to one thread, once at the configured parallel width
//! (`ISAX_THREADS` or every available core). Writes
//! `BENCH_pipeline.json` with per-stage wall-clock times, the thread
//! count, the speedups, and per-domain speedup aggregates. It also
//! cross-checks that both runs produce bit-identical cycle counts,
//! which is the `isax_graph::par` contract.

#![forbid(unsafe_code)]

use isax::MatchOptions;
use isax_bench::{extended_corpus, geomean, BenchKernel, DOMAINS, HEADLINE_BUDGET};
use isax_graph::par::{par_map, set_thread_override, thread_count};
use std::collections::BTreeMap;
use std::time::Instant;

/// Wall-clock seconds per pipeline stage for one run.
struct StageTimes {
    analyze_s: f64,
    select_s: f64,
    evaluate_s: f64,
    /// Per-app analyze wall clock (seconds), measured inside the worker.
    kernel_analyze_s: BTreeMap<String, f64>,
    /// Per-app customized cycle counts, for the identity cross-check.
    cycles: BTreeMap<String, u64>,
    /// Per-app native speedups at the headline budget (deterministic).
    speedups: BTreeMap<String, f64>,
}

/// Summed per-stage pipeline counters across the suite. All values are
/// deterministic (aggregated at parallel join points in input order) —
/// unlike the wall-clock stage times, they are safe to diff between
/// runs and record *why* the timing numbers move.
#[derive(Default)]
struct Counters {
    // dataflow analysis (solver effort + lints), summed across the suite
    analysis: isax::AnalysisStats,
    // analyze
    candidates_examined: u64,
    candidates_recorded: u64,
    memo_hits: u64,
    memo_misses: u64,
    cfu_candidates: u64,
    // select
    cfus_selected: u64,
    // evaluate (matcher work)
    vf2_calls: u64,
    prefilter_skips: u64,
    matches_found: u64,
    replacements: u64,
    // every stage's degradation records and provenance log, merged in
    // pipeline order; part of the serial-vs-parallel identity contract.
    // The stress corpus runs under a work-unit budget by construction, so
    // the degradations are non-empty on every run.
    report: isax::StageReport,
    // per-kernel attribution: (candidates examined, candidates recorded)
    // during analyze, so a timing regression names its workload.
    per_kernel: BTreeMap<String, (u64, u64)>,
}

fn run_once(corpus: &[BenchKernel]) -> (StageTimes, Counters) {
    let mut counters = Counters::default();
    let t0 = Instant::now();
    let analyses = par_map(corpus, |k| {
        let cz = k.customizer();
        let t = Instant::now();
        let analysis = cz.analyze(&k.program);
        (analysis, t.elapsed().as_secs_f64())
    });
    let analyze_s = t0.elapsed().as_secs_f64();
    let mut kernel_analyze_s = BTreeMap::new();
    for (k, (analysis, seconds)) in corpus.iter().zip(&analyses) {
        kernel_analyze_s.insert(k.name.clone(), *seconds);
        let a = &analysis.analysis_stats;
        counters.analysis.blocks_solved += a.blocks_solved;
        counters.analysis.iterations += a.iterations;
        counters.analysis.widenings += a.widenings;
        counters.analysis.lints += a.lints;
        let s = &analysis.stats;
        counters.candidates_examined += s.examined;
        counters.candidates_recorded += s.recorded;
        counters.memo_hits += s.memo_hits;
        counters.memo_misses += s.memo_misses;
        counters.cfu_candidates += analysis.cfus.len() as u64;
        counters
            .per_kernel
            .insert(k.name.clone(), (s.examined, s.recorded));
        counters.report.merge(analysis.report.clone());
    }

    let t1 = Instant::now();
    let selected: Vec<isax_compiler::Mdes> = corpus
        .iter()
        .zip(&analyses)
        .map(|(k, (analysis, _))| {
            let cz = k.customizer();
            let (mdes, sel) = cz.select(&k.name, analysis, HEADLINE_BUDGET);
            counters.report.merge(sel.report);
            mdes
        })
        .collect();
    let select_s = t1.elapsed().as_secs_f64();
    counters.cfus_selected = selected.iter().map(|m| m.cfus.len() as u64).sum();

    let t2 = Instant::now();
    let mut cycles = BTreeMap::new();
    let mut speedups = BTreeMap::new();
    for (k, mdes) in corpus.iter().zip(&selected) {
        let cz = k.customizer();
        let ev = cz.evaluate(&k.program, mdes, MatchOptions::with_subsumed());
        let m = &ev.compiled.match_stats;
        counters.vf2_calls += m.vf2_calls;
        counters.prefilter_skips += m.prefilter_skips;
        counters.matches_found += m.matches_found;
        counters.replacements += ev.compiled.applied.len() as u64;
        counters.report.merge(ev.compiled.report);
        cycles.insert(k.name.clone(), ev.custom_cycles);
        speedups.insert(k.name.clone(), ev.speedup);
    }
    let evaluate_s = t2.elapsed().as_secs_f64();

    (
        StageTimes {
            analyze_s,
            select_s,
            evaluate_s,
            kernel_analyze_s,
            cycles,
            speedups,
        },
        counters,
    )
}

fn stage_entry(name: &str, serial_s: f64, parallel_s: f64) -> isax_json::Value {
    isax_json::object([
        ("stage", isax_json::Value::from(name)),
        ("serial_s", serial_s.into()),
        ("parallel_s", parallel_s.into()),
        ("speedup", (serial_s / parallel_s.max(1e-9)).into()),
    ])
}

fn main() {
    let _trace = isax_trace::init_from_env();
    // Provenance recording stays on for both measured runs: the merged
    // logs join the serial-vs-parallel identity cross-check below, and
    // their aggregate becomes the report's `provenance` section.
    let _prov = isax_prov::enable();
    let parallel_threads = thread_count();
    eprintln!("timing the pipeline: 1 thread vs {parallel_threads} threads");

    let corpus = extended_corpus();
    // Warm-up run so neither measured run pays first-touch costs.
    set_thread_override(Some(1));
    let _ = par_map(&corpus, |k| k.customizer().analyze(&k.program));

    set_thread_override(Some(1));
    let (serial, counters) = run_once(&corpus);
    set_thread_override(Some(parallel_threads));
    let (parallel, parallel_counters) = run_once(&corpus);
    set_thread_override(None);

    assert_eq!(
        counters.vf2_calls, parallel_counters.vf2_calls,
        "matcher work diverged between serial and parallel runs"
    );

    assert_eq!(
        counters.per_kernel, parallel_counters.per_kernel,
        "per-kernel candidate counts diverged between serial and parallel runs"
    );

    assert_eq!(
        counters.analysis, parallel_counters.analysis,
        "dataflow-analysis counters diverged between serial and parallel runs — \
         the solver's determinism contract is broken"
    );

    assert_eq!(
        serial.cycles, parallel.cycles,
        "parallel pipeline diverged from serial — determinism contract broken"
    );

    assert_eq!(
        serial.speedups, parallel.speedups,
        "speedup estimates diverged between serial and parallel runs"
    );

    assert_eq!(
        counters.report, parallel_counters.report,
        "degradation records or provenance logs diverged between serial and \
         parallel runs — the join-point merge discipline is broken"
    );

    let domain_of: BTreeMap<&str, &'static str> =
        corpus.iter().map(|k| (k.name.as_str(), k.domain)).collect();

    let serial_total = serial.analyze_s + serial.select_s + serial.evaluate_s;
    let parallel_total = parallel.analyze_s + parallel.select_s + parallel.evaluate_s;
    let host_cpus = isax_bench::host_cpus();
    let oversubscribed = isax_bench::oversubscribed(parallel_threads, host_cpus);
    let mut doc = isax_json::object([
        ("threads_serial", isax_json::Value::from(1u32)),
        ("threads_parallel", parallel_threads.into()),
        // Physical parallelism of the measuring host: with one CPU the
        // parallel run can only demonstrate determinism, not speedup.
        ("host_cpus", host_cpus.into()),
        ("oversubscribed", oversubscribed.into()),
        ("budget", HEADLINE_BUDGET.into()),
        (
            "stages",
            isax_json::array([
                stage_entry("analyze", serial.analyze_s, parallel.analyze_s),
                stage_entry("select", serial.select_s, parallel.select_s),
                stage_entry("evaluate", serial.evaluate_s, parallel.evaluate_s),
                stage_entry("total", serial_total, parallel_total),
            ]),
        ),
        ("outputs_identical", true.into()),
        // Deterministic per-stage counter snapshot: records *why* the
        // stage times move between revisions (more candidates, fewer
        // VF2 calls, ...), not just that they did.
        (
            "counters",
            isax_json::object([
                (
                    "analysis",
                    isax_json::object([
                        (
                            "blocks_solved",
                            isax_json::Value::from(counters.analysis.blocks_solved),
                        ),
                        ("iterations", counters.analysis.iterations.into()),
                        ("widenings", counters.analysis.widenings.into()),
                        ("lints", counters.analysis.lints.into()),
                    ]),
                ),
                (
                    "analyze",
                    isax_json::object([
                        (
                            "candidates_examined",
                            isax_json::Value::from(counters.candidates_examined),
                        ),
                        ("candidates_recorded", counters.candidates_recorded.into()),
                        ("cfu_candidates", counters.cfu_candidates.into()),
                        ("memo_hits", counters.memo_hits.into()),
                        ("memo_misses", counters.memo_misses.into()),
                        (
                            "memo_hit_rate",
                            (counters.memo_hits as f64
                                / (counters.memo_hits + counters.memo_misses).max(1) as f64)
                                .into(),
                        ),
                    ]),
                ),
                (
                    "select",
                    isax_json::object([(
                        "cfus_selected",
                        isax_json::Value::from(counters.cfus_selected),
                    )]),
                ),
                (
                    "evaluate",
                    isax_json::object([
                        ("vf2_calls", isax_json::Value::from(counters.vf2_calls)),
                        ("prefilter_skips", counters.prefilter_skips.into()),
                        (
                            "prefilter_skip_rate",
                            (counters.prefilter_skips as f64
                                / (counters.prefilter_skips + counters.vf2_calls).max(1) as f64)
                                .into(),
                        ),
                        ("matches_found", counters.matches_found.into()),
                        ("replacements", counters.replacements.into()),
                    ]),
                ),
            ]),
        ),
        // Per-kernel attribution from the serial run: domain tag, analyze
        // wall clock, deterministic candidate counts, and the native
        // speedup at the headline budget, so a regression (or a win)
        // names the workload responsible.
        (
            "per_kernel",
            isax_json::Value::Object(
                counters
                    .per_kernel
                    .iter()
                    .map(|(name, &(examined, recorded))| {
                        (
                            name.clone(),
                            isax_json::object([
                                ("domain", isax_json::Value::from(domain_of[name.as_str()])),
                                ("analyze_s", serial.kernel_analyze_s[name].into()),
                                ("candidates_examined", examined.into()),
                                ("candidates_recorded", recorded.into()),
                                ("speedup", serial.speedups[name].into()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        // Per-domain speedup aggregates (geometric mean over each
        // domain's kernels at the headline budget), in corpus order.
        (
            "domains",
            isax_json::Value::Object(
                DOMAINS
                    .iter()
                    .filter_map(|&d| {
                        let speedups: Vec<f64> = corpus
                            .iter()
                            .filter(|k| k.domain == d)
                            .map(|k| serial.speedups[&k.name])
                            .collect();
                        if speedups.is_empty() {
                            return None;
                        }
                        Some((
                            d.to_string(),
                            isax_json::object([
                                ("kernels", isax_json::Value::from(speedups.len() as u64)),
                                ("geomean_speedup", geomean(&speedups).into()),
                            ]),
                        ))
                    })
                    .collect(),
            ),
        ),
        // Aggregate decision provenance (identical between the serial
        // and parallel runs by the assert above).
        (
            "provenance",
            isax_prov::summarize(&counters.report.prov).to_json(),
        ),
        (
            "custom_cycles",
            isax_json::Value::Object(
                serial
                    .cycles
                    .iter()
                    .map(|(name, &c)| (name.clone(), isax_json::Value::from(c)))
                    .collect(),
            ),
        ),
    ]);

    // The guard section appears when governance is configured (env) or
    // actually fired; the stress corpus's work-unit budget means it is
    // present on every extended-corpus run.
    let guard_active = isax::Customizer::new().guard.is_active();
    if guard_active || !counters.report.degradations.is_empty() {
        if let isax_json::Value::Object(fields) = &mut doc {
            fields.push((
                "guard".into(),
                isax_json::object([
                    ("active", isax_json::Value::from(guard_active)),
                    (
                        "degradations",
                        isax_json::array(
                            counters
                                .report
                                .degradations
                                .iter()
                                .map(|d| isax_json::Value::from(d.to_string())),
                        ),
                    ),
                ]),
            ));
        }
    }

    let out = doc.to_string_pretty();
    std::fs::write("BENCH_pipeline.json", &out).expect("write BENCH_pipeline.json");
    println!("{out}");
    if oversubscribed {
        eprintln!(
            "total: {serial_total:.2}s serial vs {parallel_total:.2}s with {parallel_threads} \
             threads on {host_cpus} CPU(s) — oversubscribed, so the parallel run demonstrates \
             determinism, not speedup"
        );
    } else {
        eprintln!(
            "total: {serial_total:.2}s serial vs {parallel_total:.2}s on {parallel_threads} \
             threads ({:.2}x)",
            serial_total / parallel_total.max(1e-9)
        );
    }
}
