//! Shared plumbing for the figure-regeneration binaries and the `bench`
//! measurement harness.
//!
//! Every figure binary in `src/bin/` regenerates one evaluation artifact
//! of the paper (see `DESIGN.md`'s experiment index); `bench` writes the
//! `BENCH_*.json` files and runs the CI gate. This library holds the
//! pieces they share: an analysis cache (exploration is budget-independent
//! and expensive), the budget axis, the extended corpus, and small
//! table-printing helpers.

#![forbid(unsafe_code)]

pub mod figures;

use isax::{Customizer, Guard, MatchOptions};
use isax_workloads::{all, by_name, Workload};
use std::collections::BTreeMap;

/// The paper's area-budget axis: one through fifteen adders.
pub const BUDGETS: [f64; 15] = [
    1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
];

/// The headline cost point used by Figures 8/9 and the summary numbers.
pub const HEADLINE_BUDGET: f64 = 15.0;

/// A workload together with its (cached) budget-independent analysis.
pub struct AnalyzedApp {
    /// The benchmark.
    pub workload: Workload,
    /// Its exploration/combination result.
    pub analysis: isax::Analysis,
}

/// Analyzes every benchmark once.
///
/// Benchmarks are independent, so the expensive analyses fan out across
/// threads (see [`isax_graph::par`]); collecting into a `BTreeMap` keyed
/// by name makes the result order-independent anyway.
pub fn analyze_suite(cz: &Customizer) -> BTreeMap<&'static str, AnalyzedApp> {
    analyze_workloads(cz, all())
}

/// Analyzes a named subset of the suite (for tests that cannot afford
/// all thirteen benchmarks). Unknown names panic.
pub fn analyze_subset(cz: &Customizer, names: &[&str]) -> BTreeMap<&'static str, AnalyzedApp> {
    let workloads = names
        .iter()
        .map(|n| by_name(n).unwrap_or_else(|| panic!("unknown workload `{n}`")))
        .collect();
    analyze_workloads(cz, workloads)
}

fn analyze_workloads(
    cz: &Customizer,
    workloads: Vec<Workload>,
) -> BTreeMap<&'static str, AnalyzedApp> {
    let analyses = isax_graph::par::par_map(&workloads, |w| cz.analyze(&w.program));
    workloads
        .into_iter()
        .zip(analyses)
        .map(|(w, analysis)| {
            (
                w.name,
                AnalyzedApp {
                    workload: w,
                    analysis,
                },
            )
        })
        .collect()
}

/// One member of the extended corpus: a program plus the domain
/// tag it carries into `BENCH_pipeline.json` and, for the pathological
/// stress kernels, the work-unit budget that keeps their analysis
/// bounded.
pub struct BenchKernel {
    /// Kernel (entry function) name.
    pub name: String,
    /// Corpus domain: `paper`, `stress`, `graph`, `dsp` or `gen`.
    pub domain: &'static str,
    /// The parsed program.
    pub program: isax_ir::Program,
    /// Work-unit budget for governed stages (stress corpus only; the
    /// other domains run ungoverned).
    pub work_budget: Option<u64>,
}

impl BenchKernel {
    /// The customizer this kernel's pipeline stages run under.
    pub fn customizer(&self) -> Customizer {
        let mut cz = Customizer::new();
        if let Some(units) = self.work_budget {
            cz.guard = Guard::unlimited().with_units(units);
        }
        cz
    }
}

/// Work-unit budget for the stress corpus inside the bench runs — the
/// same bound the provenance CI lane uses, so the analysis terminates
/// in seconds instead of hours while still exercising governed paths.
pub const STRESS_TIMING_BUDGET: u64 = 100_000;

/// Display/report order of the corpus domains.
pub const DOMAINS: [&str; 5] = ["paper", "stress", "graph", "dsp", "gen"];

/// The extended corpus: the 13 paper workloads, the governed stress
/// corpus, the curated graph/dsp kernels, and every seeded generator
/// kernel recorded in `kernels/gen/MANIFEST.json` (regenerated
/// in-process from its recipe, so this needs no file besides the
/// manifest itself).
pub fn extended_corpus() -> Vec<BenchKernel> {
    let mut corpus: Vec<BenchKernel> = all()
        .into_iter()
        .map(|w| BenchKernel {
            name: w.name.to_string(),
            domain: "paper",
            program: w.program,
            work_budget: None,
        })
        .collect();
    for (name, gen) in isax_gen::STRESS {
        corpus.push(BenchKernel {
            name: name.to_string(),
            domain: "stress",
            program: isax_ir::parse_program(&gen()).expect("stress kernels parse"),
            work_budget: Some(STRESS_TIMING_BUDGET),
        });
    }
    for k in isax_gen::curated() {
        corpus.push(BenchKernel {
            name: k.name.to_string(),
            domain: k.domain,
            program: isax_ir::parse_program(&(k.text)()).expect("curated kernels parse"),
            work_budget: None,
        });
    }
    let manifest_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../kernels/gen/MANIFEST.json"
    );
    let manifest = std::fs::read_to_string(manifest_path).expect("read kernels/gen/MANIFEST.json");
    let doc = isax_json::parse(&manifest).expect("parse kernels/gen/MANIFEST.json");
    for entry in doc
        .get("kernels")
        .and_then(|v| v.as_array())
        .expect("manifest has a kernels array")
    {
        let cfg = isax_gen::GenConfig {
            seed: entry.get("seed").and_then(|v| v.as_u64()).expect("seed"),
            domain: isax_gen::GenDomain::parse(
                entry
                    .get("domain")
                    .and_then(|v| v.as_str())
                    .expect("domain"),
            )
            .expect("known domain"),
            blocks: entry
                .get("blocks")
                .and_then(|v| v.as_u64())
                .expect("blocks") as usize,
        };
        corpus.push(BenchKernel {
            name: cfg.entry_name(),
            domain: "gen",
            program: isax_ir::parse_program(&isax_gen::generate(&cfg))
                .expect("generated kernels parse"),
            work_budget: None,
        });
    }
    corpus
}

/// Geometric mean, the conventional aggregate for speedup ratios.
/// Returns 1.0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Native speedup of `app` at `budget`.
pub fn native(cz: &Customizer, app: &AnalyzedApp, budget: f64) -> f64 {
    let (mdes, _) = cz.select(app.workload.name, &app.analysis, budget);
    cz.evaluate(&app.workload.program, &mdes, MatchOptions::exact())
        .speedup
}

/// Speedup of `app` on `src`'s CFUs at `budget` with the given matching.
pub fn cross(
    cz: &Customizer,
    src: &AnalyzedApp,
    app: &AnalyzedApp,
    budget: f64,
    matching: MatchOptions,
) -> f64 {
    let (mdes, _) = cz.select(src.workload.name, &src.analysis, budget);
    cz.evaluate(&app.workload.program, &mdes, matching).speedup
}

/// Prints a speedup table: one row per series, one column per budget.
pub fn print_series(title: &str, rows: &[(String, Vec<f64>)]) {
    print!("{}", figures::render_series(title, &BUDGETS, rows));
}
