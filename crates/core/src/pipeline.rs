//! The end-to-end customization pipeline (Figure 1 + Figure 5).
//!
//! [`Customizer`] wires the stages together:
//!
//! 1. **analyze** — build per-block DFGs for the whole application, run
//!    the guided design-space explorer, group candidates into CFU
//!    candidates, mark subsumption and wildcard structure;
//! 2. **select** — run the greedy knapsack at an area budget and emit the
//!    machine description;
//! 3. **evaluate** — compile the application against an MDES (its own or
//!    another application's) and compare cycle estimates against the
//!    baseline.
//!
//! Analysis is budget-independent and by far the most expensive stage, so
//! it is separated from selection: a budget sweep (Figure 7) analyzes once
//! and selects fifteen times.
//!
//! When [`Customizer::check`] is set (the `--check` CLI flag or the
//! `ISAX_CHECK` environment variable, see [`RunConfig`]), the pipeline
//! runs the [`isax_check`] invariant passes at a checkpoint after every
//! stage — IR/CFG verification and DFG structure after analysis,
//! candidate/CFU legality after combination, MDES and selection
//! consistency after selection, and replacement/schedule soundness
//! after evaluation — and aborts with structured `IC0xxx` diagnostics
//! on the first violation.

use crate::RunConfig;
use isax_compiler::{
    baseline_cycles, compile_guarded, speedup, CompileOptions, CompiledProgram, MatchOptions, Mdes,
    VliwModel,
};
use isax_explore::{explore_app_guarded, Candidate, ExploreConfig, ExploreStats};
use isax_guard::{Budget, FaultPlan, Guard, Meter, Stage, StageReport};
use isax_hwlib::HwLibrary;
use isax_ir::dataflow::SolveStats;
use isax_ir::{function_dfgs, Dfg, Program};
use isax_select::{
    combine, find_wildcard_partners, mark_subsumptions, select_greedy_metered,
    select_multifunction_metered, selection_prov, CfuCandidate, SelectConfig, Selection,
};
use std::sync::Arc;
use std::time::Duration;

/// The immutable half of the pipeline configuration: everything that is
/// identical for every request a long-running service handles. One
/// `Arc<SharedContext>` is built at startup and shared (read-only) by
/// every concurrent request; per-request state lives on [`Customizer`],
/// starting from the defaults kept here.
#[derive(Debug, Clone)]
pub struct SharedContext {
    /// Hardware timing/area library; `width_aware` comes from
    /// [`RunConfig::width_aware`].
    pub hw: HwLibrary,
    /// Exploration constraints (ports, area caps, guide tuning);
    /// `beam_width` comes from [`RunConfig::beam_width`].
    pub explore: ExploreConfig,
    /// Cap on each CFU's contraction closure.
    pub closure_cap: usize,
    /// Baseline machine shape.
    pub model: VliwModel,
    /// Default for each request's [`Customizer::check`].
    pub check: bool,
    /// Default budget of each request's [`Customizer::guard`].
    pub budget: Budget,
    /// Default fault plan of each request's [`Customizer::guard`].
    pub fault: Option<FaultPlan>,
}

impl SharedContext {
    /// The paper's defaults (0.18 µ library, 5-in/3-out ports,
    /// ten-point guide categories, 4-wide VLIW) under the environment's
    /// [`RunConfig`].
    ///
    /// # Panics
    ///
    /// On a malformed `ISAX_*` configuration value, with the
    /// [`RunConfig::from_env`] diagnostic.
    pub fn new() -> Self {
        SharedContext::from_config(&RunConfig::from_env().unwrap_or_else(|e| panic!("{e}")))
    }

    /// The paper's defaults under an explicit run configuration.
    pub fn from_config(run: &RunConfig) -> Self {
        SharedContext {
            hw: HwLibrary::micron_018().with_width_aware(run.width_aware),
            explore: ExploreConfig {
                beam_width: (run.beam_width > 0).then_some(run.beam_width),
                ..ExploreConfig::default()
            },
            closure_cap: isax_select::DEFAULT_CLOSURE_CAP,
            model: VliwModel::default(),
            check: run.check,
            budget: Budget {
                units: run.work_budget,
                deadline: run.deadline_ms.map(Duration::from_millis),
            },
            fault: run.fault,
        }
    }
}

impl Default for SharedContext {
    fn default() -> Self {
        SharedContext::new()
    }
}

/// Pipeline configuration: an immutable [`SharedContext`] (shared across
/// concurrent requests via `Arc`) plus the per-request state — the
/// checker switch and the resource-governance [`Guard`].
///
/// The shared fields read through `Deref`, so `cz.hw` / `cz.explore`
/// work as before; setup-time mutation goes through
/// [`Customizer::ctx_mut`] (copy-on-write, so a customizer whose context
/// is already shared with a server never mutates it in place).
#[derive(Debug, Clone)]
pub struct Customizer {
    /// The immutable shared half (hw library, exploration config,
    /// closure cap, machine model).
    pub ctx: Arc<SharedContext>,
    /// Run the `isax-check` invariant passes at every stage checkpoint
    /// and abort on violations. Defaults to [`SharedContext::check`].
    pub check: bool,
    /// Resource governance: deterministic work-unit budgets, optional
    /// wall-clock deadline, panic containment and fault injection.
    /// Defaults to a guard over [`SharedContext::budget`] and
    /// [`SharedContext::fault`]. With neither set the guard is
    /// unlimited: no meter stops, but worker panics are still contained
    /// and reported as `panicked` degradations.
    pub guard: Guard,
}

impl std::ops::Deref for Customizer {
    type Target = SharedContext;

    fn deref(&self) -> &SharedContext {
        &self.ctx
    }
}

impl Default for Customizer {
    fn default() -> Self {
        Customizer::new()
    }
}

/// Work counters from the dataflow-analysis stage: solver effort for
/// both abstract domains plus the number of lint findings. Aggregated
/// over functions in program order, so identical run-to-run regardless
/// of thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Reachable blocks solved across both domains and all functions.
    pub blocks_solved: u64,
    /// Block transfer evaluations across all fixpoint rounds.
    pub iterations: u64,
    /// Per-register widening applications.
    pub widenings: u64,
    /// `IC08xx` lint diagnostics produced over the whole program.
    pub lints: u64,
}

impl AnalysisStats {
    fn absorb(&mut self, s: &SolveStats) {
        self.blocks_solved += s.blocks_solved;
        self.iterations += s.iterations;
        self.widenings += s.widenings;
    }
}

/// Budget-independent result of the hardware compiler's front half.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All per-block DFGs of the application, in function-then-block
    /// order (candidate/occurrence indices refer into this).
    pub dfgs: Vec<Dfg>,
    /// Raw candidates from exploration.
    pub raw_candidates: Vec<Candidate>,
    /// Combined CFU candidates with subsumption/wildcard annotations.
    pub cfus: Vec<CfuCandidate>,
    /// Exploration statistics (Figure 3 material).
    pub stats: ExploreStats,
    /// Exploration's per-DFG budget exhaustions and contained worker
    /// panics, and its `Discovered`/`Pruned` provenance events.
    pub report: StageReport,
    /// Dataflow solver and lint counters from the analysis stage.
    pub analysis_stats: AnalysisStats,
    /// Lint findings (`IC08xx` warnings) over the whole program.
    pub lint_report: isax_check::Report,
}

/// Result of compiling an application against a CFU set.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Cycle estimate on the baseline machine.
    pub baseline_cycles: u64,
    /// Cycle estimate with custom instructions.
    pub custom_cycles: u64,
    /// `baseline / custom`.
    pub speedup: f64,
    /// The compiled program (customized code, semantics, statistics).
    pub compiled: CompiledProgram,
}

impl Customizer {
    /// Creates a pipeline over [`SharedContext::new`]: the paper's
    /// defaults under the environment's [`RunConfig`].
    ///
    /// # Panics
    ///
    /// On a malformed `ISAX_*` configuration value.
    pub fn new() -> Self {
        Customizer::with_context(Arc::new(SharedContext::new()))
    }

    /// Creates a pipeline over an existing shared context, with
    /// per-request state defaulted from it. This is how a long-running
    /// server hands each request the same (never-cloned) hardware
    /// library and exploration config. Reads no environment; the guard
    /// is new, so its deadline clock starts now.
    pub fn with_context(ctx: Arc<SharedContext>) -> Self {
        let mut guard = Guard::new(ctx.budget);
        if let Some(fault) = ctx.fault {
            guard = guard.with_fault(fault);
        }
        Customizer {
            check: ctx.check,
            guard,
            ctx,
        }
    }

    /// A pipeline with the §6 memory relaxation enabled: loads may join
    /// custom function units (priced as deterministic SRAM accesses that
    /// reserve the machine's cache port). Everything else matches
    /// [`Customizer::new`].
    pub fn with_memory_cfus() -> Self {
        let mut cz = Customizer::new();
        cz.ctx_mut().hw = HwLibrary::micron_018_with_memory().with_width_aware(cz.hw.width_aware);
        cz
    }

    /// Mutable access to the shared context for setup-time configuration
    /// (width-aware costing, beam width, guide weights). Copy-on-write:
    /// if the `Arc` is shared with anyone else, the context is cloned
    /// first, so concurrent readers are never affected.
    pub fn ctx_mut(&mut self) -> &mut SharedContext {
        Arc::make_mut(&mut self.ctx)
    }

    /// Runs exploration + combination + subsumption + wildcard analyses.
    ///
    /// # Example
    ///
    /// ```
    /// use isax::Customizer;
    /// use isax_ir::{FunctionBuilder, Program};
    ///
    /// let mut fb = FunctionBuilder::new("f", 2);
    /// fb.set_entry_weight(1_000);
    /// let (a, b) = (fb.param(0), fb.param(1));
    /// let t = fb.xor(a, b);
    /// let u = fb.shl(t, 3i64);
    /// let v = fb.add(u, b);
    /// fb.ret(&[v.into()]);
    /// let p = Program::new(vec![fb.finish()]);
    ///
    /// let analysis = Customizer::new().analyze(&p);
    /// assert!(!analysis.cfus.is_empty());
    /// ```
    pub fn analyze(&self, program: &Program) -> Analysis {
        let _stage = isax_trace::span("pipeline.analyze");
        let mut dfgs = Vec::new();
        {
            let _s = isax_trace::span("analyze.dfgs");
            for f in &program.functions {
                dfgs.extend(function_dfgs(f));
            }
        }
        let mut analysis_stats = AnalysisStats::default();
        let mut lint_report = isax_check::Report::new();
        {
            let _s = isax_trace::span("analyze.dataflow");
            let mut offset = 0;
            for f in &program.functions {
                let facts = isax_ir::analyze_function(f);
                analysis_stats.absorb(&facts.stats());
                lint_report.merge(isax_check::lint_function(f, &facts));
                if self.hw.width_aware {
                    for (bi, w) in isax_ir::effective_widths_from(f, &facts).iter().enumerate() {
                        dfgs[offset + bi].set_widths(w);
                    }
                }
                offset += f.blocks.len();
            }
            analysis_stats.lints = lint_report.diagnostics().len() as u64;
        }
        isax_trace::counter("analysis.blocks_solved", analysis_stats.blocks_solved);
        isax_trace::counter("analysis.iterations", analysis_stats.iterations);
        isax_trace::counter("analysis.widenings", analysis_stats.widenings);
        isax_trace::counter("analysis.lints", analysis_stats.lints);
        let (result, degradations) = {
            let _s = isax_trace::span("analyze.explore");
            explore_app_guarded(&dfgs, &self.hw, &self.explore, &self.guard)
        };
        let report = StageReport {
            degradations,
            prov: result.prov,
        };
        self.count_degradations("guard.explore_degradations", &report);
        // Exploration statistics are merged across DFGs in input order
        // (see `ExploreStats::merge`), so these counters are identical
        // run-to-run regardless of thread count.
        isax_trace::counter("explore.examined", result.stats.examined);
        isax_trace::counter("explore.recorded", result.stats.recorded);
        isax_trace::counter("explore.directions_pruned", result.stats.directions_pruned);
        isax_trace::counter("explore.memo_hits", result.stats.memo_hits);
        isax_trace::counter("explore.memo_misses", result.stats.memo_misses);
        let mut cfus = {
            let _s = isax_trace::span("analyze.combine");
            combine(&dfgs, &result.candidates, &self.hw)
        };
        {
            let _s = isax_trace::span("analyze.subsume");
            mark_subsumptions(&mut cfus, self.closure_cap);
        }
        {
            let _s = isax_trace::span("analyze.wildcards");
            find_wildcard_partners(&mut cfus);
        }
        isax_trace::counter("analyze.cfu_candidates", cfus.len() as u64);
        let analysis = Analysis {
            dfgs,
            raw_candidates: result.candidates,
            cfus,
            stats: result.stats,
            report,
            analysis_stats,
            lint_report,
        };
        if self.check {
            let _s = isax_trace::span("analyze.check");
            let mut report = isax_check::check_program(program);
            // Lint findings are warnings: carried in the report for
            // visibility, never fatal at the checkpoint.
            report.merge(analysis.lint_report.clone());
            report.merge(isax_check::check_dfgs(program, &analysis.dfgs, &self.hw));
            report.merge(isax_check::check_candidates(
                &analysis.dfgs,
                &analysis.raw_candidates,
                &self.explore,
                &self.hw,
            ));
            report.merge(isax_check::check_cfus(
                &analysis.dfgs,
                &analysis.cfus,
                &self.explore,
                &self.hw,
            ));
            isax_check::enforce("analyze", &report);
        }
        analysis
    }

    /// Selects CFUs for an area budget (greedy, the paper's default) and
    /// emits the machine description.
    ///
    /// The greedy scan runs under a work-unit meter (one unit per
    /// candidate evaluation) and inside a panic trap: exhaustion keeps the
    /// CFUs chosen so far (a sound prefix of the unlimited order), a
    /// contained panic yields an empty selection. Both are recorded in
    /// [`Selection::report`].
    pub fn select(&self, app_name: &str, analysis: &Analysis, budget: f64) -> (Mdes, Selection) {
        let scan = select_greedy_metered;
        self.select_governed("select.greedy", scan, app_name, analysis, budget)
    }

    /// Selection with multifunction CFUs: wildcard-partner families are
    /// offered as merged units at shared-hardware cost (the paper's §6
    /// future-work item, implemented). Governed exactly like
    /// [`Customizer::select`], one unit per unit evaluation.
    pub fn select_multifunction(
        &self,
        app_name: &str,
        analysis: &Analysis,
        budget: f64,
    ) -> (Mdes, Selection) {
        let scan = select_multifunction_metered;
        self.select_governed("select.multifunction", scan, app_name, analysis, budget)
    }

    /// The body both selection variants share: runs `scan` as a one-item
    /// governed fan-out (inline, in the panic trap every stage uses), then
    /// derives the select-stage provenance, emits the MDES and, at the
    /// checkpoint, checks the MDES and the selection against the analysis.
    fn select_governed(
        &self,
        span: &'static str,
        scan: fn(&[CfuCandidate], &SelectConfig, &mut Meter) -> Selection,
        app_name: &str,
        analysis: &Analysis,
        budget: f64,
    ) -> (Mdes, Selection) {
        let _stage = isax_trace::span("pipeline.select");
        let mut sel = {
            let _s = isax_trace::span(span);
            let cfg = SelectConfig::with_budget(budget);
            let (mut trapped, degradations) = self.guard.fan_out(
                Stage::Select,
                1,
                |_, meter| scan(&analysis.cfus, &cfg, meter),
                |_, sel| {
                    format!(
                        "kept {} CFUs chosen before the greedy scan stopped",
                        sel.chosen.len()
                    )
                },
            );
            let mut sel = trapped.pop().flatten().unwrap_or_default();
            sel.report.degradations = degradations;
            sel
        };
        self.count_degradations("guard.select_degradations", &sel.report);
        sel.report.prov = selection_prov(&analysis.cfus, &sel);
        let mdes = Mdes::from_selection(app_name, &analysis.cfus, &sel, &self.hw, self.closure_cap);
        isax_trace::counter("select.cfus_selected", mdes.cfus.len() as u64);
        if self.check {
            let mut report = isax_check::check_mdes(&mdes, &self.hw);
            report.merge(isax_check::check_selection(&analysis.cfus, &sel));
            isax_check::enforce("select", &report);
        }
        (mdes, sel)
    }

    /// Publishes one stage's `guard.<stage>_degradations` trace counter.
    /// Only an active guard emits it, so default-run traces are unchanged.
    fn count_degradations(&self, counter: &'static str, report: &StageReport) {
        if self.guard.is_active() {
            isax_trace::counter(counter, report.degradations.len() as u64);
        }
    }

    /// One-shot: analyze + plain greedy select at a budget. The returned
    /// selection's report holds the analysis stage's records, then the
    /// select stage's.
    pub fn customize(&self, app_name: &str, program: &Program, budget: f64) -> (Mdes, Selection) {
        self.customize_analysis(app_name, self.analyze(program), budget, false)
    }

    /// The select half of customization, shared by [`Customizer::customize`],
    /// `isax customize` and `isax serve`: [`Customizer::select_multifunction`]
    /// when `multifunction` is set, else [`Customizer::select`]. The
    /// returned selection's report holds the analysis stage's records,
    /// then the select stage's.
    pub fn customize_analysis(
        &self,
        app_name: &str,
        analysis: Analysis,
        budget: f64,
        multifunction: bool,
    ) -> (Mdes, Selection) {
        let (mdes, sel) = if multifunction {
            self.select_multifunction(app_name, &analysis, budget)
        } else {
            self.select(app_name, &analysis, budget)
        };
        let mut report = analysis.report;
        report.merge(sel.report);
        (mdes, Selection { report, ..sel })
    }

    /// The provenance report of a run as the CLI's `--prov-out` file and
    /// the server's `prov` artifact carry it: the pretty-printed
    /// [`isax_prov::build_report`] document plus a trailing newline.
    /// With [`Customizer::check`] set, the document is first
    /// cross-checked against `mdes` and `compiled` (IC07xx).
    pub fn provenance_report(
        &self,
        app_name: &str,
        log: &isax_prov::ProvLog,
        mdes: Option<&Mdes>,
        compiled: Option<&CompiledProgram>,
    ) -> String {
        let doc = isax_prov::build_report(app_name, log);
        if self.check {
            isax_check::enforce(
                "provenance",
                &isax_check::check_provenance(&doc, mdes, compiled),
            );
        }
        let mut text = doc.to_string_pretty();
        text.push('\n');
        text
    }

    /// Compiles `program` against `mdes` and reports cycles/speedup.
    ///
    /// `matching` controls generality: exact, exact+subsumed, or
    /// wildcarded (Figures 8/9 compare these).
    pub fn evaluate(&self, program: &Program, mdes: &Mdes, matching: MatchOptions) -> Evaluation {
        let _stage = isax_trace::span("pipeline.evaluate");
        let base = {
            let _s = isax_trace::span("evaluate.baseline");
            baseline_cycles(program, &self.hw, &self.model)
        };
        let compiled = {
            let _s = isax_trace::span("evaluate.compile");
            compile_guarded(
                program,
                mdes,
                &self.hw,
                &CompileOptions {
                    matching,
                    model: self.model,
                },
                &self.guard,
            )
        };
        isax_trace::counter("compile.replacements", compiled.applied.len() as u64);
        self.count_degradations("guard.compile_degradations", &compiled.report);
        if self.check {
            let _s = isax_trace::span("evaluate.check");
            let report =
                isax_check::check_compiled(program, &compiled, mdes, &self.hw, &self.model);
            isax_check::enforce("evaluate", &report);
        }
        Evaluation {
            baseline_cycles: base,
            custom_cycles: compiled.cycles,
            speedup: speedup(base, compiled.cycles),
            compiled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_ir::FunctionBuilder;

    fn crypto_kernel() -> Program {
        let mut fb = FunctionBuilder::new("kern", 3);
        fb.set_entry_weight(50_000);
        let (a, b, k) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.xor(a, k);
        let l = fb.shl(t, 5i64);
        let r = fb.shr(t, 27i64);
        let rot = fb.or(l, r);
        let m = fb.and(rot, b);
        let s = fb.add(m, k);
        let u = fb.xor(s, b);
        fb.ret(&[u.into()]);
        Program::new(vec![fb.finish()])
    }

    #[test]
    fn end_to_end_native_speedup() {
        let p = crypto_kernel();
        let cz = Customizer::new();
        let (mdes, sel) = cz.customize("kern", &p, 15.0);
        assert!(!mdes.cfus.is_empty());
        assert!(sel.total_value > 0);
        let ev = cz.evaluate(&p, &mdes, MatchOptions::exact());
        assert!(ev.speedup > 1.2, "speedup {:.3}", ev.speedup);
        assert!(isax_ir::verify_program(&ev.compiled.program).is_ok());
    }

    #[test]
    fn analysis_is_budget_independent_and_reusable() {
        let p = crypto_kernel();
        let cz = Customizer::new();
        let analysis = cz.analyze(&p);
        let (m1, _) = cz.select("kern", &analysis, 2.0);
        let (m15, _) = cz.select("kern", &analysis, 15.0);
        assert!(m15.cfus.len() >= m1.cfus.len());
        assert!(m15.total_area() >= m1.total_area());
    }

    #[test]
    fn checked_pipeline_accepts_its_own_output() {
        let p = crypto_kernel();
        let mut cz = Customizer::new();
        cz.check = true;
        let analysis = cz.analyze(&p);
        let (mdes, _) = cz.select("kern", &analysis, 15.0);
        let ev = cz.evaluate(&p, &mdes, MatchOptions::exact());
        assert!(ev.speedup > 1.0);
    }

    #[test]
    fn governed_pipeline_with_tight_budget_degrades_but_stays_check_clean() {
        let p = crypto_kernel();
        let mut cz = Customizer::new();
        cz.check = true;
        cz.guard = Guard::unlimited().with_units(10);
        let analysis = cz.analyze(&p);
        assert!(
            !analysis.report.degradations.is_empty(),
            "10 units cannot finish exploration of the kernel"
        );
        let (mdes, _sel) = cz.select("kern", &analysis, 15.0);
        let ev = cz.evaluate(&p, &mdes, MatchOptions::exact());
        assert!(isax_ir::verify_program(&ev.compiled.program).is_ok());
        assert!(
            ev.speedup >= 0.99,
            "partial results never corrupt, {}",
            ev.speedup
        );
    }

    #[test]
    fn injected_select_panic_is_contained_as_empty_selection() {
        use isax_guard::{DegradationKind, FaultKind, FaultPlan};
        let p = crypto_kernel();
        let mut cz = Customizer::new();
        cz.guard = Guard::unlimited().with_fault(FaultPlan {
            stage: Stage::Select,
            kind: FaultKind::Panic,
            nth: 0,
        });
        let analysis = cz.analyze(&p);
        assert!(
            analysis.report.degradations.is_empty(),
            "fault targets select only"
        );
        let (mdes, sel) = cz.select("kern", &analysis, 15.0);
        assert!(sel.chosen.is_empty());
        assert_eq!(sel.report.degradations.len(), 1);
        assert_eq!(sel.report.degradations[0].kind, DegradationKind::Panicked);
        assert!(mdes.cfus.is_empty());
        // Downstream still produces a valid (baseline-equal) program.
        let ev = cz.evaluate(&p, &mdes, MatchOptions::exact());
        assert_eq!(ev.baseline_cycles, ev.custom_cycles);
    }

    #[test]
    fn injected_multifunction_panic_is_contained_as_empty_selection() {
        use isax_guard::{DegradationKind, FaultPlan};
        let p = crypto_kernel();
        let mut cz = Customizer::new();
        cz.guard = Guard::unlimited().with_fault(FaultPlan::parse("select:panic:0").unwrap());
        let analysis = cz.analyze(&p);
        let (mdes, sel) = cz.select_multifunction("kern", &analysis, 15.0);
        assert!(sel.chosen.is_empty());
        assert_eq!(sel.report.degradations.len(), 1);
        assert_eq!(sel.report.degradations[0].kind, DegradationKind::Panicked);
        assert!(mdes.cfus.is_empty());
    }

    #[test]
    fn customize_keeps_the_analysis_records_ahead_of_the_select_records() {
        use isax_guard::{DegradationKind, FaultPlan};
        let p = crypto_kernel();
        let mut cz = Customizer::new();
        cz.guard = Guard::unlimited().with_fault(FaultPlan::parse("explore:panic:0").unwrap());
        let (_, sel) = cz.customize("kern", &p, 15.0);
        let first = sel
            .report
            .degradations
            .first()
            .expect("the explore panic is reported");
        assert_eq!(first.stage, Stage::Explore);
        assert_eq!(first.kind, DegradationKind::Panicked);
        // A truncated exploration and a forced select exhaustion: both
        // stages report, in pipeline order.
        cz.guard = Guard::unlimited()
            .with_units(10)
            .with_fault(FaultPlan::parse("select:exhaust:0").unwrap());
        let (_, sel) = cz.customize("kern", &p, 15.0);
        let stages: Vec<Stage> = sel.report.degradations.iter().map(|d| d.stage).collect();
        assert!(
            stages.contains(&Stage::Explore) && stages.contains(&Stage::Select),
            "{stages:?}"
        );
        assert!(stages.windows(2).all(|w| w[0] <= w[1]), "{stages:?}");
    }

    #[test]
    fn analysis_stats_and_lints_are_populated() {
        let p = crypto_kernel();
        let analysis = Customizer::new().analyze(&p);
        assert!(
            analysis.analysis_stats.blocks_solved >= 2,
            "both domains, one block"
        );
        assert!(analysis.analysis_stats.iterations >= 2);
        assert_eq!(
            analysis.analysis_stats.lints,
            analysis.lint_report.diagnostics().len() as u64
        );
        assert!(analysis.lint_report.is_clean(), "lints are warnings only");
    }

    /// A kernel whose values are provably narrow: width-aware costing
    /// must price its subgraphs below the full 32-bit quotes while the
    /// default mode reproduces them exactly.
    fn byte_kernel() -> Program {
        let mut fb = FunctionBuilder::new("bytes", 2);
        fb.set_entry_weight(50_000);
        let (a, b) = (fb.param(0), fb.param(1));
        let x = fb.zxtb(a);
        let y = fb.zxtb(b);
        let s = fb.add(x, y);
        let m = fb.and(s, 0xFFi64);
        let t = fb.xor(m, y);
        fb.ret(&[t.into()]);
        Program::new(vec![fb.finish()])
    }

    #[test]
    fn width_aware_mode_reduces_area_accounting() {
        let p = byte_kernel();
        let plain = Customizer::new();
        let mut wide = Customizer::new();
        wide.ctx_mut().hw = wide.hw.clone().with_width_aware(true);
        let (m0, _) = plain.select("bytes", &plain.analyze(&p), 15.0);
        let (m1, _) = wide.select("bytes", &wide.analyze(&p), 15.0);
        assert!(!m0.cfus.is_empty() && !m1.cfus.is_empty());
        assert!(
            m1.total_area() < m0.total_area(),
            "narrow datapaths must be cheaper: {} vs {}",
            m1.total_area(),
            m0.total_area()
        );
    }

    #[test]
    fn default_mode_is_unaffected_by_width_machinery() {
        // Two independently built default customizers agree bit-for-bit.
        let p = byte_kernel();
        let a = Customizer::new().analyze(&p);
        let b = Customizer::new().analyze(&p);
        assert_eq!(a.cfus.len(), b.cfus.len());
        for (x, y) in a.cfus.iter().zip(b.cfus.iter()) {
            assert_eq!(x.delay.to_bits(), y.delay.to_bits());
            assert_eq!(x.area.to_bits(), y.area.to_bits());
        }
    }

    #[test]
    fn empty_budget_means_baseline_performance() {
        let p = crypto_kernel();
        let cz = Customizer::new();
        let (mdes, _) = cz.customize("kern", &p, 0.0);
        assert!(mdes.cfus.is_empty());
        let ev = cz.evaluate(&p, &mdes, MatchOptions::exact());
        assert_eq!(ev.baseline_cycles, ev.custom_cycles);
        assert_eq!(ev.speedup, 1.0);
    }
}
