//! Fault-injection suite: every `ISAX_FAULT` target point, exercised
//! programmatically.
//!
//! The guard compiles the fault hook in unconditionally (it is inert
//! unless configured), and these tests configure it through
//! [`Guard::with_fault`] rather than the environment so the suite is
//! free of env-var races under the parallel test runner. For each of
//! the four governed stages we inject both fault kinds:
//!
//! * `panic` — the stage's worker panics mid-item. The panic must be
//!   contained at the fan-out join, converted to a structured
//!   [`Degradation`], and the pipeline must finish with sound output.
//! * `exhaust` — the item's meter is forced to an immediate budget
//!   exhaustion. The stage must keep the sound prefix of its work and
//!   report what was cut.
//!
//! Every case runs with `cz.check = true`, so any unsound partial
//! artifact panics inside the pipeline and fails the test.

use isax::{
    Customizer, Degradation, DegradationKind, FaultKind, FaultPlan, Guard, MatchOptions, Stage,
};
use isax_ir::parse_program;

/// A small rotate-diamond kernel: enough structure that all four
/// governed stages (explore, select, match, schedule) do real work.
fn kernel() -> isax_ir::Program {
    let mut src = String::from("func fi_kernel(v0, v1)\nb0:  ; weight 100000\n");
    let mut acc = 0u32; // v0
    let mut next = 2u32;
    for _ in 0..12 {
        let (t, l, r, o) = (next, next + 1, next + 2, next + 3);
        src.push_str(&format!("    xor v{t}, v{acc}, v1\n"));
        src.push_str(&format!("    shl v{l}, v{t}, #5\n"));
        src.push_str(&format!("    shr v{r}, v{t}, #27\n"));
        src.push_str(&format!("    or v{o}, v{l}, v{r}\n"));
        acc = o;
        next += 4;
    }
    src.push_str(&format!("    ret v{acc}\n"));
    parse_program(&src).expect("fault kernel parses")
}

struct Run {
    analysis_degradations: Vec<Degradation>,
    select_degradations: Vec<Degradation>,
    compile_degradations: Vec<Degradation>,
    chosen: usize,
    custom_cycles: u64,
    baseline_cycles: u64,
}

/// Full governed pipeline under one injected fault, checkpoints armed.
fn run_with_fault(stage: Stage, kind: FaultKind) -> Run {
    let program = kernel();
    let mut cz = Customizer::new();
    cz.check = true;
    cz.guard = Guard::unlimited().with_fault(FaultPlan {
        stage,
        kind,
        nth: 0,
    });

    let analysis = cz.analyze(&program);
    let (mdes, sel) = cz.select("fi_kernel", &analysis, 15.0);
    let ev = cz.evaluate(&program, &mdes, MatchOptions::exact());
    Run {
        analysis_degradations: analysis.report.degradations,
        select_degradations: sel.report.degradations,
        compile_degradations: ev.compiled.report.degradations,
        chosen: sel.chosen.len(),
        custom_cycles: ev.custom_cycles,
        baseline_cycles: ev.baseline_cycles,
    }
}

fn assert_has(degradations: &[Degradation], stage: Stage, kind: DegradationKind) {
    assert!(
        degradations
            .iter()
            .any(|d| d.stage == stage && d.kind == kind),
        "expected a {kind:?} degradation at stage {stage}, got: {degradations:?}",
    );
}

#[test]
fn explore_panic_is_contained() {
    let r = run_with_fault(Stage::Explore, FaultKind::Panic);
    assert_has(
        &r.analysis_degradations,
        Stage::Explore,
        DegradationKind::Panicked,
    );
    // The single DFG's worker died, so analysis is empty — but the
    // pipeline still runs to completion on the baseline ISA.
    assert_eq!(r.chosen, 0);
    assert_eq!(r.custom_cycles, r.baseline_cycles);
}

#[test]
fn explore_exhaust_degrades_to_empty_analysis() {
    let r = run_with_fault(Stage::Explore, FaultKind::Exhaust);
    assert_has(
        &r.analysis_degradations,
        Stage::Explore,
        DegradationKind::BudgetExhausted,
    );
    let d = &r.analysis_degradations[0];
    assert!(
        d.detail.contains("fault-injected exhaustion"),
        "detail should mark the injection: {d}"
    );
    assert_eq!(d.units_spent, 0, "a forced exhaustion spends nothing");
}

#[test]
fn select_panic_falls_back_to_baseline_isa() {
    let r = run_with_fault(Stage::Select, FaultKind::Panic);
    assert_has(
        &r.select_degradations,
        Stage::Select,
        DegradationKind::Panicked,
    );
    assert_eq!(
        r.chosen, 0,
        "a panicked selection must yield the empty selection"
    );
    assert_eq!(r.custom_cycles, r.baseline_cycles);
}

#[test]
fn select_exhaust_keeps_empty_prefix() {
    let r = run_with_fault(Stage::Select, FaultKind::Exhaust);
    assert_has(
        &r.select_degradations,
        Stage::Select,
        DegradationKind::BudgetExhausted,
    );
    assert!(
        r.select_degradations[0]
            .detail
            .contains("fault-injected exhaustion"),
        "detail should mark the injection: {:?}",
        r.select_degradations
    );
    assert_eq!(
        r.chosen, 0,
        "exhaustion before the first candidate keeps none"
    );
}

#[test]
fn match_panic_is_contained_and_output_stays_sound() {
    let r = run_with_fault(Stage::Match, FaultKind::Panic);
    assert!(
        r.chosen > 0,
        "precondition: selection must feed the matcher"
    );
    assert_has(
        &r.compile_degradations,
        Stage::Match,
        DegradationKind::Panicked,
    );
    assert!(r.custom_cycles <= r.baseline_cycles);
}

#[test]
fn match_exhaust_keeps_sound_match_prefix() {
    let r = run_with_fault(Stage::Match, FaultKind::Exhaust);
    assert!(
        r.chosen > 0,
        "precondition: selection must feed the matcher"
    );
    assert_has(
        &r.compile_degradations,
        Stage::Match,
        DegradationKind::BudgetExhausted,
    );
    assert!(
        r.compile_degradations
            .iter()
            .any(|d| d.detail.contains("fault-injected exhaustion")),
        "detail should mark the injection: {:?}",
        r.compile_degradations
    );
    assert!(r.custom_cycles <= r.baseline_cycles);
}

#[test]
fn schedule_panic_reschedules_the_function_sequentially() {
    let r = run_with_fault(Stage::Schedule, FaultKind::Panic);
    assert_has(
        &r.compile_degradations,
        Stage::Schedule,
        DegradationKind::Panicked,
    );
    // check = true already validated the sequential fallback schedule;
    // the cycle estimate may be worse than the list schedule but must
    // still be finite and the run must have completed.
    assert!(r.custom_cycles > 0);
}

#[test]
fn schedule_exhaust_reschedules_the_function_sequentially() {
    let r = run_with_fault(Stage::Schedule, FaultKind::Exhaust);
    assert_has(
        &r.compile_degradations,
        Stage::Schedule,
        DegradationKind::BudgetExhausted,
    );
    assert!(
        r.compile_degradations
            .iter()
            .any(|d| d.detail.contains("fault-injected exhaustion")),
        "detail should mark the injection: {:?}",
        r.compile_degradations
    );
    assert!(r.custom_cycles > 0);
}

/// The fault hook is present in every build but must be inert when no
/// plan is configured: a guard with no fault and no budget reports
/// nothing.
#[test]
fn unconfigured_fault_hook_is_inert() {
    let program = kernel();
    let mut cz = Customizer::new();
    cz.check = true;
    assert!(!cz.guard.is_active(), "default guard must be inactive");
    let analysis = cz.analyze(&program);
    let (mdes, sel) = cz.select("fi_kernel", &analysis, 15.0);
    let ev = cz.evaluate(&program, &mdes, MatchOptions::exact());
    assert!(analysis.report.degradations.is_empty());
    assert!(sel.report.degradations.is_empty());
    assert!(ev.compiled.report.degradations.is_empty());
}
