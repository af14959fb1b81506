//! The end-to-end compiler driver (Figure 5).
//!
//! "Given the assembly code and MDES, the compiler performs dataflow
//! analysis to generate a DFG, discovers all subgraphs in the DFG that
//! match available CFUs, prioritizes these matches, replaces the matches
//! with custom instructions, and finally performs the typical tasks of
//! register allocation and scheduling."

use crate::matching::{find_matches_guarded_with_stats, MatchOptions, MatchStats};
use crate::mdes::Mdes;
use crate::prioritize::prioritize;
use crate::regalloc::allocate_registers;
use crate::replace::{apply_matches, AppliedMatch};
use crate::schedule::{
    function_cycles_metered, sequential_function_cycles, CustomInfo, CustomOpInfo, VliwModel,
};
use isax_graph::par::par_map;
use isax_guard::{DegradationKind, Guard, Meter, Stage, StageReport};
use isax_hwlib::HwLibrary;
use isax_ir::{function_dfgs, Program};

/// Compiler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileOptions {
    /// Matching generality (exact / subsumed / wildcard).
    pub matching: MatchOptions,
    /// Baseline machine shape.
    pub model: VliwModel,
}

/// A fully compiled program with its performance estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The program after replacement (original program when compiled for
    /// the baseline). Custom-instruction semantics are registered inside.
    pub program: Program,
    /// Estimated cycles, Σ over blocks (schedule length × weight).
    pub cycles: u64,
    /// Per-function, per-block schedule lengths.
    pub block_cycles: Vec<Vec<u32>>,
    /// Scheduling facts (latency, cache-port reads) for the emitted
    /// custom opcodes.
    pub custom_info: CustomInfo,
    /// Every replacement performed.
    pub applied: Vec<AppliedMatch>,
    /// Registers spilled by the allocator (expected empty for the
    /// benchmark kernels; reported for honesty).
    pub spills: usize,
    /// Matcher work statistics, summed over all functions in input
    /// order (deterministic; see [`MatchStats`]).
    pub match_stats: MatchStats,
    /// Match and schedule degradations (a truncated-but-sound match
    /// set, or a function rescheduled sequentially) and the `Matched`/
    /// `Replaced` provenance events keyed by the CFU pattern's canonical
    /// fingerprint. Collected per function in input order, so the report
    /// is thread-count-invariant.
    pub report: StageReport,
}

impl CompiledProgram {
    /// Replacements that used exact pattern matches.
    pub fn exact_matches(&self) -> usize {
        self.applied.iter().filter(|a| !a.via_subsumption).count()
    }

    /// Replacements that mapped subsumed (contracted) shapes.
    pub fn subsumed_matches(&self) -> usize {
        self.applied.iter().filter(|a| a.via_subsumption).count()
    }
}

/// Compiles a program against a machine description.
///
/// Passing [`Mdes::baseline`] yields the baseline measurement (no
/// replacement, same scheduler) — the denominator of every speedup in the
/// paper.
///
/// # Example
///
/// ```
/// use isax_compiler::{compile, CompileOptions, Mdes};
/// use isax_hwlib::HwLibrary;
/// use isax_ir::{FunctionBuilder, Program};
///
/// let mut fb = FunctionBuilder::new("f", 2);
/// let (a, b) = (fb.param(0), fb.param(1));
/// let t = fb.add(a, b);
/// fb.ret(&[t.into()]);
/// let p = Program::new(vec![fb.finish()]);
///
/// let hw = HwLibrary::micron_018();
/// let out = compile(&p, &Mdes::baseline(), &hw, &CompileOptions::default());
/// assert!(out.cycles >= 1);
/// assert!(out.applied.is_empty());
/// ```
pub fn compile(
    program: &Program,
    mdes: &Mdes,
    hw: &HwLibrary,
    opts: &CompileOptions,
) -> CompiledProgram {
    compile_guarded(program, mdes, hw, opts, &Guard::unlimited())
}

/// [`compile`] under a resource [`Guard`].
///
/// Matching and scheduling run under per-item work meters (which never
/// stop under the [`Guard::unlimited`] that [`compile`] passes) and
/// worker panics are contained:
///
/// * **match** exhaustion truncates a job's embedding enumeration; the
///   matches found so far are kept (fewer replacements, never wrong ones);
/// * **schedule** exhaustion or a panic falls back to the deterministic
///   [`sequential_function_cycles`] schedule for the whole function;
///
/// each event is recorded in [`CompiledProgram::report`].
pub fn compile_guarded(
    program: &Program,
    mdes: &Mdes,
    hw: &HwLibrary,
    opts: &CompileOptions,
    guard: &Guard,
) -> CompiledProgram {
    let mut out_program = Program::new(Vec::with_capacity(program.functions.len()));
    let mut custom_info: CustomInfo = CustomInfo::new();
    let mut applied = Vec::new();
    let mut sem_base: u16 = 0;
    let mut match_stats = MatchStats::default();
    let mut report = StageReport::default();
    let prov_on = isax_prov::enabled();
    // Provenance keys CFUs by the canonical fingerprint of their pattern
    // — the same identity exploration and combination used — so a
    // report's explore/select/compile events line up per candidate.
    let cfu_fps: Vec<u64> = if prov_on {
        mdes.cfus
            .iter()
            .map(|c| isax_select::pattern_fingerprint(&c.pattern).0)
            .collect()
    } else {
        Vec::new()
    };
    for f in &program.functions {
        let dfgs = function_dfgs(f);
        let (matches, f_stats, f_degr) =
            find_matches_guarded_with_stats(&dfgs, mdes, hw, &opts.matching, guard);
        match_stats.merge(&f_stats);
        report.degradations.extend(f_degr.into_iter().map(|mut d| {
            d.detail = format!("fn {}: {}", f.name, d.detail);
            d
        }));
        if prov_on {
            // One `Matched` event per (cfu, block): the count of legal
            // pre-prioritization matches the VF2 pass found there.
            let mut counts: std::collections::BTreeMap<(u16, usize), u64> =
                std::collections::BTreeMap::new();
            for m in &matches {
                *counts.entry((m.cfu, m.block)).or_insert(0) += 1;
            }
            for ((cfu, block), count) in counts {
                report.prov.record(
                    cfu_fps[cfu as usize],
                    isax_prov::ProvEvent::Matched {
                        function: f.name.clone(),
                        block,
                        count,
                    },
                );
            }
        }
        let accepted = {
            let _s = isax_trace::span("compile.prioritize");
            prioritize(matches, &dfgs)
        };
        let _s = isax_trace::span("compile.replace");
        let mut cf = apply_matches(f, &dfgs, &accepted, mdes, sem_base);
        if prov_on {
            for a in &cf.applied {
                // `savings` is weight × (sw_latency − cfu_latency), so
                // before = after + savings reconstructs the weighted
                // software cost of the replaced operations.
                let latency = u64::from(mdes.cfus[usize::from(a.cfu)].latency);
                let cycles_after = dfgs[a.block].weight() * latency;
                report.prov.record(
                    cfu_fps[a.cfu as usize],
                    isax_prov::ProvEvent::Replaced {
                        function: f.name.clone(),
                        block: a.block,
                        cycles_before: cycles_after + a.savings,
                        cycles_after,
                    },
                );
            }
        }
        sem_base = sem_base.max(
            cf.semantics
                .keys()
                .next_back()
                .map(|&k| k + 1)
                .unwrap_or(sem_base),
        );
        for (&id, sem) in &cf.semantics {
            custom_info.insert(
                id,
                CustomOpInfo {
                    latency: cf.sem_latency.get(&id).copied().unwrap_or(1),
                    mem_reads: sem.load_count(),
                },
            );
        }
        out_program
            .cfu_semantics
            .append(&mut std::mem::take(&mut cf.semantics));
        applied.extend(cf.applied);
        out_program.functions.push(cf.function);
    }
    // Schedule + allocate. Functions are independent once replacement
    // has run, so they are processed in parallel and the per-function
    // results folded in input order (identical to the serial loop). Each
    // function has its own meter (item = function index, so accounting is
    // identical at any thread count) and its own panic trap: a function
    // whose meter exhausts, or whose worker panics, is rescheduled with
    // the sequential fallback.
    let _sched = isax_trace::span("compile.schedule");
    let functions = &out_program.functions;
    let (per_function, records) = guard.fan_out(
        Stage::Schedule,
        functions.len(),
        |fi, meter| {
            let f = &functions[fi];
            let (c, per_block) = function_cycles_metered(f, hw, &custom_info, &opts.model, meter);
            (c, per_block, allocate_registers(f).spilled.len())
        },
        |fi, _| {
            format!(
                "fn {}: list scheduler stopped; whole function rescheduled sequentially",
                functions[fi].name
            )
        },
    );
    // A contained fault's record carries the panic text alone; name the
    // function, as the stop records do.
    report.degradations.extend(records.into_iter().map(|mut d| {
        if matches!(
            d.kind,
            DegradationKind::Panicked | DegradationKind::Cancelled
        ) {
            d.detail = format!("fn {}: {}", functions[d.item as usize].name, d.detail);
        }
        d
    }));
    let mut cycles = 0u64;
    let mut block_cycles = Vec::new();
    let mut spills = 0usize;
    for (f, r) in functions.iter().zip(per_function) {
        let (c, per_block, spilled) = r.unwrap_or_else(|| {
            let (c, per_block) = sequential_function_cycles(f, hw, &custom_info);
            (c, per_block, allocate_registers(f).spilled.len())
        });
        cycles += c;
        block_cycles.push(per_block);
        spills += spilled;
    }
    CompiledProgram {
        program: out_program,
        cycles,
        block_cycles,
        custom_info,
        applied,
        spills,
        match_stats,
        report,
    }
}

/// Baseline cycle count of a program: what [`compile`] against
/// [`Mdes::baseline`] reports, without matching, replacement or
/// register allocation. Each function is list-scheduled unchanged under
/// an unlimited meter, in parallel and summed in input order. A
/// scheduler panic propagates: a sequential-fallback count would
/// silently inflate every speedup measured against it.
pub fn baseline_cycles(program: &Program, hw: &HwLibrary, model: &VliwModel) -> u64 {
    let no_custom = CustomInfo::new();
    par_map(&program.functions, |f| {
        let mut meter = Meter::unlimited(Stage::Schedule, 0);
        function_cycles_metered(f, hw, &no_custom, model, &mut meter).0
    })
    .into_iter()
    .sum()
}

/// Speedup of `custom` relative to `baseline` cycle counts: 1 when
/// `custom` is 0.
pub fn speedup(baseline: u64, custom: u64) -> f64 {
    if custom == 0 {
        1.0
    } else {
        baseline as f64 / custom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_explore::{explore_app, ExploreConfig};
    use isax_guard::DegradationKind;
    use isax_ir::{verify_program, FunctionBuilder};
    use isax_select::{combine, select_greedy, SelectConfig};

    fn hw() -> HwLibrary {
        HwLibrary::micron_018()
    }

    /// Build an app + its own MDES at the given budget.
    fn app_and_mdes(budget: f64) -> (Program, Mdes) {
        let mut fb = FunctionBuilder::new("kern", 3);
        fb.set_entry_weight(10_000);
        let (a, b, k) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.xor(a, k);
        let l = fb.shl(t, 5i64);
        let r = fb.shr(t, 27i64);
        let rot = fb.or(l, r);
        let s = fb.add(rot, b);
        let u = fb.and(s, 0xFFFFi64);
        fb.ret(&[u.into()]);
        let p = Program::new(vec![fb.finish()]);
        let dfgs = function_dfgs(&p.functions[0]);
        let found = explore_app(&dfgs, &hw(), &ExploreConfig::default());
        let cfus = combine(&dfgs, &found.candidates, &hw());
        let sel = select_greedy(&cfus, &SelectConfig::with_budget(budget));
        let mdes = Mdes::from_selection("kern", &cfus, &sel, &hw(), 64);
        (p, mdes)
    }

    #[test]
    fn customization_accelerates_the_kernel() {
        let (p, mdes) = app_and_mdes(15.0);
        let base = baseline_cycles(&p, &hw(), &VliwModel::default());
        let custom = compile(&p, &mdes, &hw(), &CompileOptions::default());
        assert!(verify_program(&custom.program).is_ok());
        assert!(
            custom.cycles < base,
            "custom {} must beat baseline {}",
            custom.cycles,
            base
        );
        let s = speedup(base, custom.cycles);
        assert!(s > 1.3, "expected a solid speedup, got {s:.2}");
        assert!(!custom.applied.is_empty());
        assert_eq!(custom.spills, 0);
    }

    #[test]
    fn baseline_cycles_equal_a_compile_against_the_baseline_mdes() {
        let (f, _) = app_and_mdes(15.0);
        let mut g = f.functions[0].clone();
        g.name = "g".into();
        let p = Program::new(vec![f.functions[0].clone(), g]);
        let model = VliwModel::default();
        let opts = CompileOptions {
            matching: MatchOptions::exact(),
            model,
        };
        let compiled = compile(&p, &Mdes::baseline(), &hw(), &opts);
        assert_eq!(baseline_cycles(&p, &hw(), &model), compiled.cycles);
    }

    #[test]
    fn baseline_compile_is_identity_on_code() {
        let (p, _) = app_and_mdes(15.0);
        let out = compile(&p, &Mdes::baseline(), &hw(), &CompileOptions::default());
        assert_eq!(out.program.functions[0].blocks, p.functions[0].blocks);
        assert!(out.applied.is_empty());
    }

    #[test]
    fn bigger_budget_never_slows_the_program() {
        let budgets = [1.0, 2.0, 4.0, 8.0, 15.0];
        let mut last = u64::MAX;
        for &b in &budgets {
            let (p, mdes) = app_and_mdes(b);
            let out = compile(&p, &mdes, &hw(), &CompileOptions::default());
            assert!(
                out.cycles <= last || out.cycles.abs_diff(last) <= 1,
                "budget {b}: {} vs previous {}",
                out.cycles,
                last
            );
            last = last.min(out.cycles);
        }
    }

    #[test]
    fn inactive_guard_compiles_identically() {
        let (p, mdes) = app_and_mdes(15.0);
        let plain = compile(&p, &mdes, &hw(), &CompileOptions::default());
        let guarded = compile_guarded(
            &p,
            &mdes,
            &hw(),
            &CompileOptions::default(),
            &Guard::unlimited(),
        );
        assert_eq!(plain, guarded);
        assert!(plain.report.degradations.is_empty());
    }

    #[test]
    fn schedule_budget_exhaustion_degrades_to_sequential_and_is_recorded() {
        let (p, mdes) = app_and_mdes(15.0);
        let out = compile_guarded(
            &p,
            &mdes,
            &hw(),
            &CompileOptions::default(),
            &Guard::unlimited().with_units(2),
        );
        let sched: Vec<_> = out
            .report
            .degradations
            .iter()
            .filter(|d| d.stage == Stage::Schedule)
            .collect();
        assert_eq!(sched.len(), 1, "one function, one schedule degradation");
        assert_eq!(sched[0].item, 0);
        // The emitted cycle estimate is the deterministic sequential one.
        let (seq, _) =
            sequential_function_cycles(&out.program.functions[0], &hw(), &out.custom_info);
        assert_eq!(out.cycles, seq);
        assert!(verify_program(&out.program).is_ok());
    }

    #[test]
    fn injected_schedule_panic_is_contained_with_sequential_fallback() {
        use isax_guard::{DegradationKind, FaultKind, FaultPlan};
        let (p, mdes) = app_and_mdes(15.0);
        let guard = Guard::unlimited().with_fault(FaultPlan {
            stage: Stage::Schedule,
            kind: FaultKind::Panic,
            nth: 0,
        });
        let out = compile_guarded(&p, &mdes, &hw(), &CompileOptions::default(), &guard);
        assert_eq!(out.report.degradations.len(), 1);
        let d = &out.report.degradations[0];
        assert_eq!(d.stage, Stage::Schedule);
        assert_eq!(d.kind, DegradationKind::Panicked);
        assert!(d.detail.contains("injected panic"), "detail: {}", d.detail);
        let (seq, _) =
            sequential_function_cycles(&out.program.functions[0], &hw(), &out.custom_info);
        assert_eq!(out.cycles, seq);
    }

    #[test]
    fn match_budget_exhaustion_keeps_sound_prefix_of_matches() {
        let (p, mdes) = app_and_mdes(15.0);
        let full = compile(&p, &mdes, &hw(), &CompileOptions::default());
        // 1 VF2 state is never enough to finish any job: every job
        // degrades, zero matches survive, and the program compiles as if
        // for the baseline — sound, merely incomplete.
        let out = compile_guarded(
            &p,
            &mdes,
            &hw(),
            &CompileOptions::default(),
            &Guard::unlimited().with_units(1),
        );
        assert!(out
            .report
            .degradations
            .iter()
            .any(|d| d.stage == Stage::Match && d.kind == DegradationKind::BudgetExhausted));
        assert!(out.applied.len() <= full.applied.len());
        assert!(verify_program(&out.program).is_ok());
        assert!(
            out.cycles >= full.cycles,
            "fewer replacements never speed it up"
        );
    }

    #[test]
    fn semantic_ids_are_unique_across_functions() {
        let mk = |name: &str| {
            let mut fb = FunctionBuilder::new(name, 3);
            fb.set_entry_weight(100);
            let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
            let t = fb.and(a, b);
            let u = fb.add(t, c);
            fb.ret(&[u.into()]);
            fb.finish()
        };
        let p = Program::new(vec![mk("f"), mk("g")]);
        let dfgs = function_dfgs(&p.functions[0]);
        let found = explore_app(&dfgs, &hw(), &ExploreConfig::default());
        let cfus = combine(&dfgs, &found.candidates, &hw());
        let sel = select_greedy(&cfus, &SelectConfig::with_budget(4.0));
        let mdes = Mdes::from_selection("f", &cfus, &sel, &hw(), 16);
        let out = compile(&p, &mdes, &hw(), &CompileOptions::default());
        assert!(verify_program(&out.program).is_ok());
        assert!(out.applied.len() >= 2, "both functions got replacements");
    }
}
