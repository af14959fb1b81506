//! The pipeline workloads (`paper_cross`, `explore_stress`,
//! `select_large`): customize every kernel, then compile, in interleaved
//! passes until the run's time is up.

use crate::inputs::{self, Inputs, Kernel, AREA_BUDGET};
use crate::layers::{self, CustomizeCounts, Tracer, COMPILE_LAYERS, CUSTOMIZE_LAYERS};
use crate::stats::{self, Samples};
use crate::{Metrics, Tally};
use isax::{Customizer, Guard, MatchOptions, SharedContext};
use isax_compiler::Mdes;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every run makes at least this many passes, however long they take.
pub const MIN_PASSES: usize = 3;

/// Interpreter fuel for one differential-check execution.
pub const CHECK_FUEL: u64 = 50_000_000;

/// Timed repetitions of the set-up step before the first pass.
pub const SETUP_REPS: usize = 3;

/// Timed repetitions of the set-up step before every pass. Spreading the
/// repetitions over the run keeps `setup_s` from resting on the first
/// few milliseconds of the process, when the host may be in either
/// regime and every allocation faults in fresh pages.
pub const SETUP_REPS_PER_PASS: usize = 2;

/// One compile of the workload: `kernel` against `mdes_of`'s MDES.
#[derive(Debug, Clone, Copy)]
pub struct Compile {
    /// Index of the compiled kernel.
    pub kernel: usize,
    /// Index of the kernel whose MDES is used.
    pub mdes_of: usize,
    /// Matching mode (subsumed, or wildcard with subsumed).
    pub matching: MatchOptions,
}

/// The compiles of a workload: every kernel against every MDES when
/// `cross` (Figures 8/9), else each kernel against its own; each under
/// subsumed and under wildcard matching.
pub fn compiles(inputs: &Inputs) -> Vec<Compile> {
    let n = inputs.kernels.len();
    let mut out = Vec::new();
    for kernel in 0..n {
        let sources: Vec<usize> = if inputs.cross {
            (0..n).collect()
        } else {
            vec![kernel]
        };
        for mdes_of in sources {
            for matching in [MatchOptions::with_subsumed(), MatchOptions::generalized()] {
                out.push(Compile {
                    kernel,
                    mdes_of,
                    matching,
                });
            }
        }
    }
    out
}

/// The customizer a kernel runs under: shared context, checker off,
/// governed only when the kernel carries a work budget.
pub fn customizer(ctx: &Arc<SharedContext>, k: &Kernel) -> Customizer {
    let mut cz = Customizer::with_context(ctx.clone());
    cz.check = false;
    cz.guard = match k.work_budget {
        Some(units) => Guard::unlimited().with_units(units),
        None => Guard::unlimited(),
    };
    cz
}

/// Deterministic matcher work summed over a pass's compiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileCounts {
    vf2_calls: u64,
    prefilter_skips: u64,
    matches_found: u64,
    replacements: u64,
}

impl CompileCounts {
    fn add(&mut self, c: &isax_compiler::CompiledProgram) {
        self.vf2_calls += c.match_stats.vf2_calls;
        self.prefilter_skips += c.match_stats.prefilter_skips;
        self.matches_found += c.match_stats.matches_found;
        self.replacements += c.applied.len() as u64;
    }
}

/// Runs the differential check of one compiled program, returning a
/// failure description when it diverges or errors.
pub fn differential(original: &Kernel, compiled: &isax_ir::Program) -> Option<String> {
    let c = &original.check;
    let report = isax_check::check_differential(
        &original.program,
        compiled,
        &c.entry,
        &c.args,
        &c.memory,
        CHECK_FUEL,
    );
    (!report.is_clean()).then(|| format!("{}: {report}", original.name))
}

/// Everything one measurement of a pipeline workload produced.
pub struct PipelineRun {
    /// Untraced customize (analyze + select) time per kernel.
    pub customize: Samples,
    /// Untraced evaluate time per compile.
    pub compile: Samples,
    /// `baseline / custom` cycles of every compile (first pass).
    pub speedups: Vec<f64>,
    /// Operations and failures.
    pub tally: Tally,
    /// Seconds spent in differential checks (never inside a timing).
    pub check_s: f64,
    /// Passes made.
    pub passes: usize,
    /// Each kernel's MDES bytes (empty when its customize failed).
    pub mdes_json: Vec<String>,
    /// The layered run's spans and counts, when traced.
    pub traced: Option<(Tracer, Vec<CustomizeCounts>, CompileCounts)>,
}

/// Records `value` for `slot` on the first pass, and on later passes
/// counts a failure when it differs.
fn same_across_passes<T: PartialEq>(slot: &mut Option<T>, value: T, tally: &mut Tally, what: &str) {
    match slot {
        None => *slot = Some(value),
        Some(first) if *first != value => tally.fail(format!("{what} changed between passes")),
        Some(_) => {}
    }
}

/// Customizes and compiles every kernel in interleaved passes for
/// `seconds` (at least [`MIN_PASSES`] passes). With `traced`, each pass
/// also re-runs every operation through the layer functions under
/// spans, alternating which of the two goes first (a second run of the
/// same work is faster), and reconciles the layered outputs with
/// `Customizer`'s.
pub fn measure(
    inputs: &Inputs,
    ctx: &Arc<SharedContext>,
    seconds: f64,
    traced: bool,
    before_pass: &mut dyn FnMut(),
) -> PipelineRun {
    let kernels = &inputs.kernels;
    let czs: Vec<Customizer> = kernels.iter().map(|k| customizer(ctx, k)).collect();
    let plan = compiles(inputs);
    let mut run = PipelineRun {
        customize: Samples::default(),
        compile: Samples::default(),
        speedups: Vec::new(),
        tally: Tally::default(),
        check_s: 0.0,
        passes: 0,
        mdes_json: Vec::new(),
        traced: None,
    };
    let mut tracer = Tracer::new();
    let mut mdes: Vec<Option<Mdes>> = vec![None; kernels.len()];
    let mut mdes_json: Vec<Option<String>> = vec![None; kernels.len()];
    let mut cycles: Vec<Option<(u64, u64)>> = vec![None; plan.len()];
    let mut counts: Vec<Option<CustomizeCounts>> = vec![None; kernels.len()];
    let mut compile_counts: Option<CompileCounts> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pass = 0;
    // A traced run makes an even number of passes, so the layered and
    // the untraced call go first equally often.
    while pass < MIN_PASSES || Instant::now() < deadline || (traced && pass % 2 == 1) {
        before_pass();
        tracer.pass = pass;
        let layered_first = pass % 2 == 1;
        for ki in inputs::pass_order(kernels.len(), inputs.order_seed, pass) {
            let (k, cz) = (&kernels[ki], &czs[ki]);
            let mut layered = |run: &mut PipelineRun, tracer: &mut Tracer| {
                run.tally.attempted += 1;
                match catch_unwind(AssertUnwindSafe(|| {
                    layers::customize(tracer, cz, k, ki, AREA_BUDGET)
                })) {
                    Ok((m, c)) => {
                        let json = m.to_json().expect("MDES serializes");
                        same_across_passes(&mut counts[ki], c, &mut run.tally, "layer counts");
                        Some(json)
                    }
                    Err(_) => {
                        run.tally
                            .fail(format!("{}: layered customize panicked", k.name));
                        None
                    }
                }
            };
            let mut layered_json = None;
            if traced && layered_first {
                layered_json = layered(&mut run, &mut tracer);
            }
            run.tally.attempted += 1;
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                cz.customize(&k.name, &k.program, AREA_BUDGET)
            }));
            let dt = t.elapsed().as_secs_f64();
            if traced && !layered_first {
                layered_json = layered(&mut run, &mut tracer);
            }
            let Ok((m, _)) = out else {
                run.tally.fail(format!("{}: customize panicked", k.name));
                continue;
            };
            run.customize.add(ki, dt);
            let json = m.to_json().expect("MDES serializes");
            if traced && layered_json.as_deref() != Some(json.as_str()) {
                run.tally.fail(format!(
                    "{}: layered MDES differs from Customizer's",
                    k.name
                ));
            }
            same_across_passes(&mut mdes_json[ki], json, &mut run.tally, "MDES bytes");
            mdes[ki].get_or_insert(m);
        }
        let mut pass_counts = CompileCounts::default();
        for ci in inputs::pass_order(plan.len(), inputs.order_seed ^ 1, pass) {
            let c = plan[ci];
            let (k, cz) = (&kernels[c.kernel], &czs[c.kernel]);
            let Some(m) = &mdes[c.mdes_of] else {
                run.tally.attempted += 1;
                run.tally
                    .fail(format!("{}: no MDES to compile against", k.name));
                continue;
            };
            let layered = |run: &mut PipelineRun, tracer: &mut Tracer| {
                run.tally.attempted += 1;
                match catch_unwind(AssertUnwindSafe(|| {
                    layers::compile(tracer, cz, &k.program, m, c.matching, ci)
                })) {
                    Ok((base, compiled)) => Some((base, compiled.cycles)),
                    Err(_) => {
                        run.tally
                            .fail(format!("{}: layered compile panicked", k.name));
                        None
                    }
                }
            };
            let mut layered_cycles = None;
            if traced && layered_first {
                layered_cycles = layered(&mut run, &mut tracer);
            }
            run.tally.attempted += 1;
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| cz.evaluate(&k.program, m, c.matching)));
            let dt = t.elapsed().as_secs_f64();
            if traced && !layered_first {
                layered_cycles = layered(&mut run, &mut tracer);
            }
            let Ok(ev) = out else {
                run.tally.fail(format!("{}: evaluate panicked", k.name));
                continue;
            };
            run.compile.add(ci, dt);
            let got = (ev.baseline_cycles, ev.custom_cycles);
            if traced && layered_cycles != Some(got) {
                run.tally.fail(format!(
                    "{}: layered cycles differ from Customizer's",
                    k.name
                ));
            }
            same_across_passes(&mut cycles[ci], got, &mut run.tally, "cycle counts");
            pass_counts.add(&ev.compiled);
            if pass == 0 {
                run.speedups.push(ev.speedup);
                let t = Instant::now();
                if let Some(why) = differential(k, &ev.compiled.program) {
                    run.tally.fail(why);
                }
                run.check_s += t.elapsed().as_secs_f64();
            }
        }
        same_across_passes(
            &mut compile_counts,
            pass_counts,
            &mut run.tally,
            "matcher counts",
        );
        pass += 1;
    }
    run.passes = pass;
    run.mdes_json = mdes_json
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    if traced {
        for missing in tracer
            .skipped_layers("customize", &CUSTOMIZE_LAYERS[1..])
            .into_iter()
            .chain(tracer.skipped_layers("compile", &COMPILE_LAYERS))
        {
            run.tally.fail(format!("layer skipped: {missing}"));
        }
        let counts = counts.into_iter().flatten().collect();
        run.traced = Some((tracer, counts, compile_counts.unwrap_or_default()));
    }
    run
}

/// One repetition of the set-up step: generate the inputs, build the
/// shared context and one customizer per kernel. Returns its seconds.
fn setup_once(w: inputs::Workload, seed: u64) -> (f64, Inputs, Arc<SharedContext>) {
    let t = Instant::now();
    let inputs = inputs::generate(w, seed);
    let ctx = Arc::new(SharedContext::new());
    let czs: Vec<Customizer> = inputs.kernels.iter().map(|k| customizer(&ctx, k)).collect();
    let dt = t.elapsed().as_secs_f64();
    drop(czs);
    (dt, inputs, ctx)
}

/// Seconds of one repetition of the set-up step, whose outputs are
/// dropped untimed.
pub fn time_setup(w: inputs::Workload, seed: u64) -> f64 {
    setup_once(w, seed).0
}

/// Times [`SETUP_REPS`] repetitions of the set-up step and returns the
/// last repetition's inputs and context with the per-repetition times.
pub fn setup(w: inputs::Workload, seed: u64) -> (Inputs, Arc<SharedContext>, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (dt, inputs, ctx) = setup_once(w, seed);
        times.push(dt);
        last = Some((inputs, ctx));
    }
    let (inputs, ctx) = last.expect("at least one set-up repetition");
    (inputs, ctx, times)
}

/// End-to-end metrics of an untraced pipeline run.
pub fn end_to_end(run: &PipelineRun, setup_times: &[f64], m: &mut Metrics) {
    let customize_s = run.customize.min_sum();
    let compile_s = run.compile.min_sum();
    let per_kernel = run.customize.item_mins();
    m.set("setup_s", stats::median(setup_times));
    m.set("customize_s", customize_s);
    m.set("compile_s", compile_s);
    m.set("speedup_geomean", stats::geomean(&run.speedups));
    m.set("latency_p50_ms", stats::percentile(&per_kernel, 0.50) * 1e3);
    m.set("latency_p99_ms", stats::percentile(&per_kernel, 0.99) * 1e3);
    let ops = (run.customize.items() + run.compile.items()) as f64;
    m.set("throughput_rps", ops / (customize_s + compile_s));
}

/// Per-layer metrics of a traced pipeline run.
pub fn per_layer(run: &PipelineRun, m: &mut Metrics) {
    let Some((tracer, counts, cc)) = &run.traced else {
        return;
    };
    let secs = tracer.layer_seconds();
    let s = |name: &str| secs.get(name).copied().unwrap_or(0.0);
    let sum = |f: fn(&CustomizeCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    m.set("ir.parse_s", s("ir.parse"));
    m.set("ir.dfgs_s", s("ir.dfgs"));
    m.set("ir.dataflow_s", s("ir.dataflow"));
    m.set("ir.blocks_solved", sum(|c| c.blocks_solved));
    let examined = sum(|c| c.examined);
    m.set("explore.s", s("explore"));
    m.set("explore.examined", examined);
    m.set("explore.recorded", sum(|c| c.recorded));
    m.set(
        "explore.ns_per_examined",
        s("explore") * 1e9 / examined.max(1.0),
    );
    let (hits, misses) = (sum(|c| c.memo_hits), sum(|c| c.memo_misses));
    m.set("explore.memo_hit_rate", hits / (hits + misses).max(1.0));
    m.set("explore.degradations", sum(|c| c.degradations));
    m.set("select.combine_s", s("select.combine"));
    m.set("select.subsume_s", s("select.subsume"));
    m.set("select.wildcard_s", s("select.wildcard"));
    m.set("select.greedy_s", s("select.greedy"));
    m.set("select.cfu_candidates", sum(|c| c.cfu_candidates));
    m.set("select.cfus_selected", sum(|c| c.cfus_selected));
    m.set("compiler.mdes_s", s("compiler.mdes"));
    m.set("compiler.baseline_s", s("compiler.baseline"));
    m.set("compiler.compile_s", s("compiler.compile"));
    m.set("compiler.vf2_calls", cc.vf2_calls as f64);
    m.set(
        "compiler.prefilter_skip_rate",
        cc.prefilter_skips as f64 / (cc.prefilter_skips + cc.vf2_calls).max(1) as f64,
    );
    m.set(
        "compiler.match_yield",
        cc.matches_found as f64 / cc.vf2_calls.max(1) as f64,
    );
    m.set("compiler.replacements", cc.replacements as f64);
    let customize_s = run.customize.min_sum();
    let layer_sum: f64 = CUSTOMIZE_LAYERS[1..].iter().map(|l| s(l)).sum();
    m.set("core.residual_s", customize_s - layer_sum);
    m.set("trace.overhead", s("customize") / customize_s);
    m.set("check.differential_s", run.check_s);
}
