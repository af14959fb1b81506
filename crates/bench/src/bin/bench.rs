//! The measurement harness: one binary, three modes over one run loop.
//!
//! ```text
//! bench pipeline   # extended corpus, serial vs 4 threads -> BENCH_pipeline.json
//! bench serve      # 4 clients x 2 rounds x 6 kernels     -> BENCH_serve.json
//! bench gate       # CI check: blowfish/crc/mpeg2dec vs results/bench_gate_baseline.json
//! ```
//!
//! `pipeline` and `gate` share [`run_once`]: analyze, select at the
//! headline budget, then evaluate with subsumed matching. Each runs it
//! once pinned to one thread and once at four, and the two runs must
//! leave the same deterministic [`Record`] — every `isax_trace` counter
//! outside the thread-dependent `par.*` group (suite totals and per
//! kernel), each kernel's customized cycles and speedup, and the merged
//! degradation records and provenance logs. The counter names are the
//! ones `ISAX_TRACE=1` and serve's `trace_counters` print.
//!
//! `gate` then compares the serial counter totals exactly against the
//! blessed baseline, naming the first counter that differs, and caps
//! the serial analyze wall clock at the blessed time × 1.2 + 0.25 s.
//! Re-bless an intentional change with `ISAX_BLESS=1 bench gate`.
//!
//! `serve` drives an in-process `isax serve` with concurrent clients;
//! every round after a kernel's first service is a cache hit. It fails
//! on any request error, on a request the server did not count, on a
//! histogram quantile outside its documented error bound, or on a hit
//! rate below `(requests - kernels) / requests - 0.05`.
//!
//! On a host with fewer CPUs than threads the parallel numbers show
//! determinism and caching, not speedup; both BENCH files carry an
//! `oversubscribed` flag that says so.

#![forbid(unsafe_code)]

use isax::{MatchOptions, StageReport};
use isax_bench::{extended_corpus, geomean, BenchKernel, DOMAINS, HEADLINE_BUDGET};
use isax_graph::par::{par_map_indexed, set_thread_override, thread_count};
use isax_json::Value;
use isax_serve::{Client, EnvMode, Request, ServeConfig, Server};
use isax_trace::hist::{ABS_ERR_SLACK, REL_ERR_BOUND_E9};
use isax_trace::{Event, Hist, Recorder};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Thread count of the parallel side of every identity check.
const PARALLEL_THREADS: usize = 4;
/// The `gate` slice of the corpus.
const GATE_KERNELS: [&str; 3] = ["blowfish", "crc", "mpeg2dec"];
const GATE_BASELINE: &str = "results/bench_gate_baseline.json";
/// Relative and absolute headroom on the gate's wall-clock ceiling: the
/// blessed analyze time is milliseconds, where one scheduler preemption
/// exceeds 20%.
const TIME_TOLERANCE: f64 = 0.20;
const TIME_SLACK_S: f64 = 0.25;
/// `serve` traffic: concurrent clients, corpus replays per client, and
/// the corpus prefix they replay.
const CLIENTS: usize = 4;
const ROUNDS: usize = 2;
const SERVE_KERNELS: usize = 6;
/// Concurrent cold misses on one key can each count as a miss, so the
/// hit-rate floor keeps this margin.
const HIT_RATE_SLACK: f64 = 0.05;
/// Latency quantiles `serve` reports and checks against exact sort.
const QUANTILES: [f64; 4] = [0.50, 0.90, 0.99, 0.999];

/// Trace counter totals by name.
type Ledger = BTreeMap<String, u64>;

/// What one run must reproduce at any thread count.
#[derive(PartialEq)]
struct Record {
    /// Suite totals.
    counters: Ledger,
    kernels: BTreeMap<String, KernelRecord>,
    /// Every stage's degradation records and provenance log, merged in
    /// pipeline order.
    report: StageReport,
}

#[derive(PartialEq)]
struct KernelRecord {
    /// The counters this kernel's stages published.
    counters: Ledger,
    cycles: u64,
    speedup: f64,
}

struct Run {
    /// Wall-clock seconds of analyze, select and evaluate.
    stage_s: [f64; 3],
    /// Per-kernel analyze seconds, measured inside the worker.
    analyze_s: Vec<f64>,
    record: Record,
}

/// Runs `f` with its trace events tagged as request `i + 1`, so the
/// ledger attributes every counter to kernel `i`.
fn tagged<T>(i: usize, f: impl FnOnce() -> T) -> T {
    isax_trace::set_request(i as u64 + 1);
    let out = f();
    isax_trace::set_request(0);
    out
}

/// Analyzes, selects and evaluates `kernels` under a fresh trace
/// recorder.
fn run_once(kernels: &[BenchKernel]) -> Run {
    let rec = Recorder::install();
    let t0 = Instant::now();
    let analyses = par_map_indexed(kernels.len(), |i| {
        let (k, t) = (&kernels[i], Instant::now());
        let analysis = tagged(i, || k.customizer().analyze(&k.program));
        (analysis, t.elapsed().as_secs_f64())
    });
    let t1 = Instant::now();
    let mut report = StageReport::default();
    let mut mdes = Vec::new();
    for (i, (k, (analysis, _))) in kernels.iter().zip(&analyses).enumerate() {
        report.merge(analysis.report.clone());
        let (m, sel) = tagged(i, || {
            k.customizer().select(&k.name, analysis, HEADLINE_BUDGET)
        });
        report.merge(sel.report);
        mdes.push(m);
    }
    let t2 = Instant::now();
    let mut evaluations = Vec::new();
    for (i, (k, m)) in kernels.iter().zip(&mdes).enumerate() {
        let ev = tagged(i, || {
            k.customizer()
                .evaluate(&k.program, m, MatchOptions::with_subsumed())
        });
        report.merge(ev.compiled.report);
        evaluations.push((ev.custom_cycles, ev.speedup));
    }
    let t3 = Instant::now();
    isax_trace::uninstall();

    let mut by_request: BTreeMap<u64, Ledger> = BTreeMap::new();
    for e in rec.events() {
        if let Event::Counter {
            name, value, req, ..
        } = e
        {
            if !name.starts_with("par.") {
                *by_request
                    .entry(req)
                    .or_default()
                    .entry(name.to_string())
                    .or_default() += value;
            }
        }
    }
    let mut counters = Ledger::new();
    for (name, v) in by_request.values().flatten() {
        *counters.entry(name.clone()).or_default() += v;
    }
    let kernels = kernels
        .iter()
        .zip(evaluations)
        .enumerate()
        .map(|(i, (k, (cycles, speedup)))| {
            let counters = by_request.remove(&(i as u64 + 1)).unwrap_or_default();
            let record = KernelRecord {
                counters,
                cycles,
                speedup,
            };
            (k.name.clone(), record)
        })
        .collect();
    Run {
        stage_s: [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_secs_f64()),
        analyze_s: analyses.iter().map(|(_, s)| *s).collect(),
        record: Record {
            counters,
            kernels,
            report,
        },
    }
}

/// A warm-up run, then one serial and one [`PARALLEL_THREADS`] run,
/// which must leave the same [`Record`].
fn measure(kernels: &[BenchKernel]) -> (Run, Run) {
    // Provenance stays on so the merged logs join the identity check.
    let _prov = isax_prov::enable();
    set_thread_override(Some(1));
    run_once(kernels);
    let serial = run_once(kernels);
    set_thread_override(Some(PARALLEL_THREADS));
    let parallel = run_once(kernels);
    set_thread_override(None);
    assert!(
        serial.record == parallel.record,
        "serial vs {PARALLEL_THREADS}-thread runs diverged: {} — the isax_graph::par \
         determinism contract is broken",
        first_difference(&serial.record, &parallel.record)
    );
    (serial, parallel)
}

fn first_difference(a: &Record, b: &Record) -> String {
    if let Err(e) = diff_ledger(&a.counters, &b.counters) {
        return e;
    }
    match a.kernels.iter().find(|(k, r)| b.kernels.get(*k) != Some(r)) {
        Some((k, _)) => format!("kernel `{k}`"),
        None => "degradation records or provenance logs".into(),
    }
}

/// Ok when both ledgers hold the same counters with the same values;
/// otherwise names the first counter that differs.
fn diff_ledger(blessed: &Ledger, measured: &Ledger) -> Result<(), String> {
    let names: BTreeSet<&String> = blessed.keys().chain(measured.keys()).collect();
    let show = |v: Option<&u64>| v.map_or("absent".to_string(), u64::to_string);
    match names
        .into_iter()
        .find(|n| blessed.get(*n) != measured.get(*n))
    {
        None => Ok(()),
        Some(n) => Err(format!(
            "counter `{n}`: {} vs {}",
            show(blessed.get(n)),
            show(measured.get(n))
        )),
    }
}

/// The lowest cache hit rate a healthy `serve` run can show: every
/// request after a kernel's first service is a hit, less
/// [`HIT_RATE_SLACK`].
fn hit_rate_floor(requests: u64, kernels: u64) -> f64 {
    requests.saturating_sub(kernels) as f64 / requests.max(1) as f64 - HIT_RATE_SLACK
}

fn ledger_json(l: &Ledger) -> Value {
    Value::Object(l.iter().map(|(k, &v)| (k.clone(), v.into())).collect())
}

/// Writes `doc` to `path`, pretty-printed, and echoes it to stdout.
fn write_json(path: &str, doc: &Value) {
    let mut s = doc.to_string_pretty();
    s.push('\n');
    std::fs::write(path, &s).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{s}");
}

/// The blessed document at `path`, or `None` after writing `doc` there
/// when `ISAX_BLESS=1`.
fn blessed(path: &str, doc: &Value) -> Option<Value> {
    if std::env::var("ISAX_BLESS").is_ok_and(|v| v == "1") {
        write_json(path, doc);
        eprintln!("blessed {path}");
        return None;
    }
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e}\nrun with ISAX_BLESS=1 to generate the baseline"));
    Some(isax_json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}")))
}

/// The host's CPU count and whether `threads` oversubscribe it (fewer
/// than two CPUs, or more threads than CPUs), said on stderr when they
/// do: wall clock then measures contention, not scaling.
fn host(threads: usize) -> (usize, bool) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let oversub = cpus < 2 || threads > cpus;
    if oversub {
        eprintln!(
            "{threads} threads on {cpus} CPU(s): oversubscribed, so the parallel numbers show \
             determinism and caching, not speedup"
        );
    }
    (cpus, oversub)
}

/// Analyze, select, evaluate and total wall-clock seconds.
fn stage_totals(r: &Run) -> [f64; 4] {
    let [a, s, e] = r.stage_s;
    [a, s, e, a + s + e]
}

fn pipeline() {
    let corpus = extended_corpus();
    let (serial, parallel) = measure(&corpus);
    let (cpus, oversub) = host(PARALLEL_THREADS);
    let record = &serial.record;
    let stages = ["analyze", "select", "evaluate", "total"]
        .into_iter()
        .enumerate()
        .map(|(i, stage)| {
            let (s, p) = (stage_totals(&serial)[i], stage_totals(&parallel)[i]);
            isax_json::object([
                ("stage", Value::from(stage)),
                ("serial_s", s.into()),
                ("parallel_s", p.into()),
                ("speedup", (s / p.max(1e-9)).into()),
            ])
        });
    let per_kernel = corpus.iter().zip(&serial.analyze_s).map(|(k, &s)| {
        let r = &record.kernels[&k.name];
        let fields = isax_json::object([
            ("domain", Value::from(k.domain)),
            ("analyze_s", s.into()),
            ("custom_cycles", r.cycles.into()),
            ("speedup", r.speedup.into()),
            ("counters", ledger_json(&r.counters)),
        ]);
        (k.name.clone(), fields)
    });
    let domains = DOMAINS.iter().filter_map(|&d| {
        let speedups: Vec<f64> = corpus
            .iter()
            .filter(|k| k.domain == d)
            .map(|k| record.kernels[&k.name].speedup)
            .collect();
        let fields = isax_json::object([
            ("kernels", Value::from(speedups.len() as u64)),
            ("geomean_speedup", geomean(&speedups).into()),
        ]);
        (!speedups.is_empty()).then(|| (d.to_string(), fields))
    });
    let degradations = record.report.degradations.iter().map(|d| d.to_string());
    let doc = isax_json::object([
        ("threads_serial", Value::from(1u32)),
        ("threads_parallel", (PARALLEL_THREADS as u64).into()),
        ("host_cpus", (cpus as u64).into()),
        ("oversubscribed", oversub.into()),
        ("budget", HEADLINE_BUDGET.into()),
        ("stages", isax_json::array(stages)),
        ("outputs_identical", true.into()),
        ("counters", ledger_json(&record.counters)),
        ("per_kernel", Value::Object(per_kernel.collect())),
        ("domains", Value::Object(domains.collect())),
        (
            "provenance",
            isax_prov::summarize(&record.report.prov).to_json(),
        ),
        (
            "degradations",
            isax_json::array(degradations.map(Value::from)),
        ),
    ]);
    write_json("BENCH_pipeline.json", &doc);
    eprintln!(
        "pipeline: {:.2}s serial vs {:.2}s at {PARALLEL_THREADS} threads, outputs identical",
        stage_totals(&serial)[3],
        stage_totals(&parallel)[3]
    );
}

fn gate() {
    let slice: Vec<BenchKernel> = extended_corpus()
        .into_iter()
        .filter(|k| GATE_KERNELS.contains(&k.name.as_str()))
        .collect();
    assert_eq!(slice.len(), GATE_KERNELS.len(), "gate kernels missing");
    let (serial, _) = measure(&slice);
    let analyze_s = serial.stage_s[0];
    let doc = isax_json::object([
        ("kernels", isax_json::array(GATE_KERNELS.map(Value::from))),
        ("budget", HEADLINE_BUDGET.into()),
        ("analyze_s", analyze_s.into()),
        ("counters", ledger_json(&serial.record.counters)),
    ]);
    let Some(base) = blessed(GATE_BASELINE, &doc) else {
        return;
    };
    let base_counters: Ledger = match base.get("counters") {
        Some(Value::Object(pairs)) => pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.as_u64().expect("counter values are integers")))
            .collect(),
        _ => panic!("{GATE_BASELINE}: no counters object"),
    };
    if let Err(e) = diff_ledger(&base_counters, &serial.record.counters) {
        panic!(
            "gate: blessed vs measured {e} — pipeline work changed; re-bless with \
             ISAX_BLESS=1 if intentional"
        );
    }
    let base_s = base
        .get("analyze_s")
        .and_then(Value::as_f64)
        .expect("baseline analyze_s");
    let cap = base_s * (1.0 + TIME_TOLERANCE) + TIME_SLACK_S;
    assert!(
        analyze_s <= cap,
        "gate: serial analyze regressed: {analyze_s:.3}s vs blessed {base_s:.3}s \
         (cap {cap:.3}s) — re-bless with ISAX_BLESS=1 if intentional"
    );
    eprintln!(
        "gate OK: {} counters match, analyze {analyze_s:.3}s (blessed {base_s:.3}s)",
        base_counters.len()
    );
}

/// A histogram as JSON: exact aggregates plus the non-empty buckets as
/// `{lo, hi, count}` (`hi` is the exclusive upper boundary).
fn hist_json(h: &Hist) -> Value {
    let buckets = h.nonzero_buckets().map(|(idx, count)| {
        isax_json::object([
            ("lo", Value::from(isax_trace::hist::bucket_lower(idx))),
            ("hi", isax_trace::hist::bucket_upper(idx).into()),
            ("count", count.into()),
        ])
    });
    isax_json::object([
        ("count", Value::from(h.count())),
        ("sum", h.sum().into()),
        ("min", h.min().into()),
        ("max", h.max().into()),
        ("buckets", isax_json::array(buckets)),
    ])
}

/// Asserts the histogram estimate for quantile `q` agrees with the
/// exact sorted value to within the documented bound — the same pure
/// integer inequality `tests/hist.rs` proves by property testing.
fn assert_quantile_bound(h: &Hist, sorted_us: &[u64], q: f64) {
    let rank = isax_trace::hist::quantile_rank(q, sorted_us.len() as u64) as usize;
    let exact = sorted_us[rank - 1];
    let est = h.quantile(q);
    assert!(
        est <= exact,
        "hist q{q}: estimate {est} exceeds exact {exact}"
    );
    let gap = u128::from(exact - est) * 1_000_000_000;
    let allowed = u128::from(est) * REL_ERR_BOUND_E9 + ABS_ERR_SLACK * 1_000_000_000;
    assert!(
        gap <= allowed,
        "hist q{q}: exact={exact} est={est} violates the relative-error bound"
    );
}

fn serve() {
    let requests: Vec<(String, String, Option<u64>)> = extended_corpus()
        .into_iter()
        .take(SERVE_KERNELS)
        .map(|k| {
            let text: Vec<String> = k.program.functions.iter().map(|f| f.to_string()).collect();
            (k.name, text.join("\n"), k.work_budget)
        })
        .collect();
    let workers = thread_count();
    let server = Server::spawn(ServeConfig {
        workers,
        stats: EnvMode::Off,
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr();
    eprintln!(
        "serve: {CLIENTS} clients x {ROUNDS} rounds x {SERVE_KERNELS} kernels, {workers} worker(s)"
    );

    let t0 = Instant::now();
    let per_client: Vec<(Vec<u64>, u64)> = std::thread::scope(|scope| {
        let requests = &requests;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let mut latencies_us = Vec::new();
                    let mut errors = 0u64;
                    for _ in 0..ROUNDS {
                        // Offset each client's walk so cold misses spread
                        // across the corpus instead of piling on one key.
                        for i in 0..requests.len() {
                            let (name, text, work) = &requests[(i + c) % requests.len()];
                            let t = Instant::now();
                            let outcome = client.artifacts(Request::Customize {
                                kernel: text.clone(),
                                name: name.clone(),
                                budget: HEADLINE_BUDGET,
                                multifunction: false,
                                work_budget: *work,
                            });
                            latencies_us.push(t.elapsed().as_micros() as u64);
                            match outcome {
                                Ok((_, art)) => assert!(art.mdes.is_some()),
                                Err(e) => {
                                    eprintln!("serve: {name}: {e}");
                                    errors += 1;
                                }
                            }
                        }
                    }
                    (latencies_us, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    // Merge per-client histograms exactly as a sharded collector would;
    // the merge algebra makes this equal to one big histogram.
    let mut latency_hist = Hist::new();
    let mut latencies = Vec::new();
    for (client_lat, _) in &per_client {
        let mut shard = Hist::new();
        client_lat.iter().for_each(|&us| shard.record(us));
        latency_hist.merge(&shard);
        latencies.extend_from_slice(client_lat);
    }
    latencies.sort_unstable();
    let errors: u64 = per_client.iter().map(|(_, e)| e).sum();
    let total = latencies.len() as u64;

    let stats = server.stats_value();
    let server_hists = server.hists();
    server.shutdown();
    let stat = |section: &str, key: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(key))
            .unwrap_or_else(|| panic!("stats.{section}.{key} missing"))
            .clone()
    };
    let count = |section: &str, key: &str| stat(section, key).as_u64().unwrap_or(0);
    let hit_rate = stat("cache", "hit_rate").as_f64().unwrap_or(0.0);
    let entries = count("cache", "entries");
    let (cpus, oversub) = host(workers.max(CLIENTS));
    let quantiles = QUANTILES.map(|q| latency_hist.quantile(q));
    let doc = isax_json::object([
        ("clients", Value::from(CLIENTS as u64)),
        ("rounds", (ROUNDS as u64).into()),
        ("kernels", (SERVE_KERNELS as u64).into()),
        ("workers", (workers as u64).into()),
        ("budget", HEADLINE_BUDGET.into()),
        ("host_cpus", (cpus as u64).into()),
        ("oversubscribed", oversub.into()),
        ("requests", total.into()),
        ("errors", errors.into()),
        ("wall_s", wall_s.into()),
        ("throughput_rps", (total as f64 / wall_s.max(1e-9)).into()),
        ("p50_us", quantiles[0].into()),
        ("p90_us", quantiles[1].into()),
        ("p99_us", quantiles[2].into()),
        ("p999_us", quantiles[3].into()),
        ("latency_hist", hist_json(&latency_hist)),
        ("queue_wait_hist", hist_json(&server_hists.queue_wait_us)),
        (
            "cache",
            isax_json::object([
                ("entries", Value::from(entries)),
                ("hits", count("cache", "hits").into()),
                ("misses", count("cache", "misses").into()),
                ("hit_rate", hit_rate.into()),
            ]),
        ),
    ]);
    write_json("BENCH_serve.json", &doc);
    eprintln!(
        "serve: {total} requests in {wall_s:.2}s ({:.1} req/s, p50 {}us, p99 {}us)",
        total as f64 / wall_s.max(1e-9),
        quantiles[0],
        quantiles[2],
    );

    assert_eq!(errors, 0, "serve saw {errors} request error(s)");
    // Everything the server received is either completed or attributed
    // to exactly one error code.
    let (received, completed) = (
        count("requests", "received"),
        count("requests", "completed"),
    );
    let by_code: u64 = match stat("requests", "by_code") {
        Value::Object(pairs) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        _ => panic!("stats.requests.by_code is not an object"),
    };
    assert_eq!(
        received,
        completed + by_code,
        "uncounted requests: received {received} != completed {completed} + errors {by_code}"
    );
    for q in QUANTILES {
        assert_quantile_bound(&latency_hist, &latencies, q);
    }
    assert_eq!(
        entries, SERVE_KERNELS as u64,
        "one cache entry per distinct kernel"
    );
    let floor = hit_rate_floor(total, SERVE_KERNELS as u64);
    assert!(
        hit_rate >= floor,
        "cache hit rate {hit_rate:.3} below {floor:.3} — content addressing is broken"
    );
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("pipeline") => pipeline(),
        Some("serve") => serve(),
        Some("gate") => gate(),
        _ => {
            eprintln!("usage: bench pipeline|serve|gate");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(pairs: &[(&str, u64)]) -> Ledger {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn hit_rate_floor_at_the_fixed_shape() {
        let requests = (CLIENTS * ROUNDS * SERVE_KERNELS) as u64;
        let floor = hit_rate_floor(requests, SERVE_KERNELS as u64);
        assert!((floor - (0.875 - HIT_RATE_SLACK)).abs() < 1e-12);
        assert!(hit_rate_floor(0, 0) < 0.0, "no requests, no floor");
    }

    #[test]
    fn ledger_diff_names_the_first_changed_counter() {
        let blessed = ledger(&[("explore.examined", 445), ("match.vf2_calls", 30)]);
        assert_eq!(diff_ledger(&blessed, &blessed.clone()), Ok(()));
        let mut edited = blessed.clone();
        *edited.get_mut("match.vf2_calls").unwrap() += 1;
        let err = diff_ledger(&edited, &blessed).unwrap_err();
        assert!(err.contains("`match.vf2_calls`"), "{err}");
        assert!(err.contains("31 vs 30"), "{err}");
        let missing = ledger(&[("explore.examined", 445)]);
        let err = diff_ledger(&missing, &blessed).unwrap_err();
        assert!(err.contains("`match.vf2_calls`: absent vs 30"), "{err}");
    }
}
