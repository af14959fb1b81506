//! The repository benchmark: end-to-end and per-layer metrics of the
//! isax customization pipeline and service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_cross --seed 1 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries every end-to-end
//! metric; with `--trace 1` every per-layer metric, from a separate
//! traced run. The line before it is a diagnostic (host reference loop,
//! passes, sample counts, failure notes). See `perfbench/README.md` for
//! the workloads and the noise findings behind the estimators.

#![forbid(unsafe_code)]

mod inputs;
mod layers;
mod pipeline;
mod serve_mix;
mod stats;

use inputs::Workload;
use std::collections::BTreeMap;

/// End-to-end metrics: name and unit, as declared in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("customize_s", "s"),
    ("compile_s", "s"),
    ("speedup_geomean", "x"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "1/s"),
];

/// Per-layer metrics: name and unit, as declared in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("ir.parse_s", "s"),
    ("ir.dfgs_s", "s"),
    ("ir.dataflow_s", "s"),
    ("ir.blocks_solved", "count"),
    ("explore.s", "s"),
    ("explore.examined", "count"),
    ("explore.recorded", "count"),
    ("explore.ns_per_examined", "ns"),
    ("explore.memo_hit_rate", "ratio"),
    ("explore.degradations", "count"),
    ("select.combine_s", "s"),
    ("select.subsume_s", "s"),
    ("select.wildcard_s", "s"),
    ("select.greedy_s", "s"),
    ("select.cfu_candidates", "count"),
    ("select.cfus_selected", "count"),
    ("compiler.mdes_s", "s"),
    ("compiler.baseline_s", "s"),
    ("compiler.compile_s", "s"),
    ("compiler.vf2_calls", "count"),
    ("compiler.prefilter_skip_rate", "ratio"),
    ("compiler.match_yield", "ratio"),
    ("compiler.replacements", "count"),
    ("serve.spawn_s", "s"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("core.residual_s", "s"),
    ("trace.overhead", "ratio"),
    ("check.differential_s", "s"),
];

/// Operations attempted and failed, with the first few failure notes.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: divergences, checker errors, serve error
    /// replies, contained panics and outputs that changed between passes.
    pub failed: u64,
    /// The first failure notes.
    pub notes: Vec<String>,
}

impl Tally {
    const MAX_NOTES: usize = 8;

    /// Counts one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.note(why);
    }

    /// Keeps a note (up to a few).
    pub fn note(&mut self, why: impl Into<String>) {
        if self.notes.len() < Self::MAX_NOTES {
            self.notes.push(why.into());
        }
    }

    /// Adds another tally's counts and notes.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            self.note(n);
        }
    }
}

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a metric. Names must come from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// The result of one run.
pub struct Outcome {
    /// Operations and failures.
    pub tally: Tally,
    /// The metrics.
    pub metrics: Metrics,
    /// Diagnostic fields printed beside the metrics.
    pub diagnostic: Vec<(String, isax_json::Value)>,
    /// `VmHWM` once the workload's measured traffic has run, in MiB.
    pub peak_rss_mb: Option<f64>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: isax-perfbench --workload <paper_cross|explore_stress|select_large|serve_mix> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload and collects its metrics.
fn run(args: &Args) -> Outcome {
    let mut metrics = Metrics::default();
    let mut diagnostic: Vec<(String, isax_json::Value)> = Vec::new();
    let (tally, peak_rss_mb) = if args.workload == Workload::ServeMix {
        // A traced run splits its time between the serve passes and the
        // traced pipeline run over the same kernels.
        let serve_seconds = if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        };
        let mut run = serve_mix::measure(args.seed, serve_seconds);
        diagnostic.push(("passes".into(), (run.passes() as u64).into()));
        diagnostic.push(("cold_bursts".into(), (run.bursts() as u64).into()));
        for (k, n) in run.sample_counts() {
            diagnostic.push((format!("samples.{k}"), (n as u64).into()));
        }
        if args.trace {
            serve_mix::per_layer(&mut run, args.seconds / 2.0, &mut metrics);
        } else {
            serve_mix::end_to_end(&run, &mut metrics);
        }
        (run.tally, run.peak_rss_mb)
    } else {
        let (inputs, ctx, mut setup) = pipeline::setup(args.workload, args.seed);
        let run = pipeline::measure(&inputs, &ctx, args.seconds, args.trace, &mut || {
            for _ in 0..pipeline::SETUP_REPS_PER_PASS {
                setup.push(pipeline::time_setup(args.workload, args.seed));
            }
        });
        let peak_rss_mb = stats::peak_rss_mb();
        diagnostic.push(("passes".into(), (run.passes as u64).into()));
        diagnostic.push((
            "samples.kernels".into(),
            (run.customize.items() as u64).into(),
        ));
        diagnostic.push((
            "samples.compiles".into(),
            (run.compile.items() as u64).into(),
        ));
        if args.trace {
            pipeline::per_layer(&run, &mut metrics);
            if let Some((t, _, _)) = &run.traced {
                let path = format!(".perfbench/spans-{}.jsonl", args.workload.name());
                if let Err(e) = t.write_jsonl(std::path::Path::new(&path)) {
                    eprintln!("perfbench: could not write {path}: {e}");
                }
            }
            // The serve layer is not exercised by a pipeline workload.
            for name in [
                "serve.spawn_s",
                "serve.queue_wait_p50_ms",
                "serve.hit_p50_ms",
                "serve.miss_p50_ms",
                "serve.cache_hit_rate",
            ] {
                metrics.set(name, 0.0);
            }
        } else {
            pipeline::end_to_end(&run, &setup, &mut metrics);
        }
        (run.tally, peak_rss_mb)
    };
    Outcome {
        tally,
        metrics,
        diagnostic,
        peak_rss_mb,
    }
}

/// Renders the result line, checking that exactly the declared metrics
/// are present and finite.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let got: Vec<&str> = outcome.metrics.0.keys().copied().collect();
    let mut want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "metric set {got:?} differs from the declared {want:?}"
        ));
    }
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let v = outcome.metrics.0[name];
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        fields.push((
            name.to_string(),
            isax_json::object([
                ("value", isax_json::Value::Float(v)),
                ("unit", isax_json::Value::from(*unit)),
            ]),
        ));
    }
    let t = &outcome.tally;
    Ok(isax_json::object([
        ("correct", isax_json::Value::Bool(t.failed == 0)),
        ("attempted", t.attempted.into()),
        ("failed", t.failed.into()),
        ("metrics", isax_json::Value::Object(fields)),
    ])
    .to_string_compact())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The inputs alone configure the program: no `ISAX_*` variable from
    // the caller's environment may change what is measured.
    let inherited: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("ISAX_"))
        .collect();
    for k in inherited {
        std::env::remove_var(k);
    }
    // Serial pipeline: wall time on a shared host is only comparable at a
    // fixed thread count.
    isax_graph::par::set_thread_override(Some(1));

    let ref_start = stats::reference_loop_ms();
    let chase_start = stats::reference_chase_ms();
    let mut outcome = run(&args);
    let ref_end = stats::reference_loop_ms();
    let chase_end = stats::reference_chase_ms();
    if !args.trace {
        match outcome.peak_rss_mb {
            Some(mb) => outcome.metrics.set("peak_rss_mb", mb),
            None => outcome.tally.fail("VmHWM unavailable"),
        }
        let t = &outcome.tally;
        outcome.metrics.set(
            "success_rate",
            t.attempted.saturating_sub(t.failed) as f64 / t.attempted.max(1) as f64,
        );
    }
    if outcome.tally.attempted == 0 {
        outcome.tally.attempted = 1;
        outcome.tally.fail("no operation was attempted");
    }

    let mut diag = vec![
        (
            "workload".to_string(),
            isax_json::Value::from(args.workload.name()),
        ),
        ("seed".into(), args.seed.into()),
        (
            "host_ref_ms_start".into(),
            isax_json::Value::Float(ref_start),
        ),
        ("host_ref_ms_end".into(), isax_json::Value::Float(ref_end)),
        (
            "host_chase_ms_start".into(),
            isax_json::Value::Float(chase_start),
        ),
        (
            "host_chase_ms_end".into(),
            isax_json::Value::Float(chase_end),
        ),
    ];
    diag.append(&mut outcome.diagnostic);
    diag.push((
        "failures".into(),
        isax_json::array(
            outcome
                .tally
                .notes
                .iter()
                .map(|n| isax_json::Value::from(n.as_str())),
        ),
    ));
    println!(
        "{}",
        isax_json::object([("diagnostic", isax_json::Value::Object(diag))]).to_string_compact()
    );
    match result_line(&outcome, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc = isax_json::parse(text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(|v| v.as_array())
            .expect("section is an array")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn printed(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_equal_benchmark_json() {
        assert_eq!(printed(&END_TO_END), declared("end_to_end"));
        assert_eq!(printed(&PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn workloads_equal_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = isax_json::parse(text).expect("BENCHMARK.json parses");
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_rejects_missing_or_extra_metrics() {
        let mut outcome = Outcome {
            tally: Tally {
                attempted: 1,
                ..Tally::default()
            },
            metrics: Metrics::default(),
            diagnostic: Vec::new(),
            peak_rss_mb: None,
        };
        for (n, _) in END_TO_END {
            outcome.metrics.set(n, 1.5);
        }
        let line = result_line(&outcome, false).expect("complete metric set");
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        assert!(result_line(&outcome, true).is_err());
        outcome.metrics.set("explore.s", 1.0);
        assert!(result_line(&outcome, false).is_err());
    }

    #[test]
    fn args_are_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload paper_cross --seed 3 --seconds 10 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload serve_mix --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload serve_mix --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload serve_mix --seed 1 --seconds 10").is_err());
    }
}
