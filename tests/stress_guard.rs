//! Pathological-input stress suite for `isax-guard`.
//!
//! Each kernel in `kernels/stress/` is constructed so the explorer's
//! candidate space dwarfs any reasonable budget (see `isax_gen::stress`,
//! which regenerates them byte-identically). Ungoverned, these inputs run for
//! minutes to hours; under a work-unit budget every one of them must
//!
//!   1. terminate,
//!   2. report a structured [`isax::Degradation`] saying what was cut,
//!   3. still produce *sound* partial output: every checker checkpoint
//!      stays clean (`cz.check = true` panics on any violation), and the
//!      customized program executes bit-identically to the original.
//!
//! The budget is deliberately small so the suite is fast in debug CI
//! runs; the `stress` CI job re-runs the corpus at the acceptance-level
//! 10^6-unit budget in release mode via `ISAX_STRESS_BUDGET`.

use isax::{Customizer, DegradationKind, Guard, MatchOptions, Stage};
use isax_check::check_differential;
use isax_ir::parse_program;
use isax_machine::Memory;

const STRESS_KERNELS: [&str; 4] = [
    "deep_chain",
    "wide_fanout",
    "dense_clique",
    "mem_alu_ladder",
];

/// Work-unit budget per (stage, item). Overridable so the release-mode
/// CI stress job can run the full 10^6-unit acceptance configuration.
fn stress_budget() -> u64 {
    std::env::var("ISAX_STRESS_BUDGET")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000)
}

fn load(kernel: &str) -> isax_ir::Program {
    let path = format!(
        "{}/kernels/stress/{kernel}.isax",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_program(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Runs one stress kernel through the governed pipeline with every
/// checker checkpoint armed, returning the degradation records from all
/// three stages in pipeline order.
fn run_governed(kernel: &str, budget: u64) -> Vec<isax::Degradation> {
    let program = load(kernel);
    let mut cz = Customizer::new();
    cz.check = true;
    cz.guard = Guard::unlimited().with_units(budget);

    let analysis = cz.analyze(&program);
    let (mdes, sel) = cz.select(kernel, &analysis, 15.0);
    let ev = cz.evaluate(&program, &mdes, MatchOptions::exact());

    assert!(
        ev.custom_cycles <= ev.baseline_cycles,
        "{kernel}: partial customization made the estimate worse"
    );

    // The governed output must stay *sound*, not just check-clean:
    // interpret both programs on concrete inputs and compare.
    let entry = &program.functions[0].name;
    let report = check_differential(
        &program,
        &ev.compiled.program,
        entry,
        &[0x1000, 0x0f0f_3c5a],
        &Memory::new(),
        50_000_000,
    );
    assert!(
        report.is_clean(),
        "{kernel}: governed output diverges from the original:\n{report}"
    );

    let mut degradations = analysis.report.degradations.clone();
    degradations.extend(sel.report.degradations.iter().cloned());
    degradations.extend(ev.compiled.report.degradations.iter().cloned());
    degradations
}

/// Every stress kernel terminates under the budget, reports an explore
/// budget-exhaustion degradation, and keeps all checkpoints clean.
#[test]
fn stress_corpus_terminates_with_sound_partial_results() {
    let budget = stress_budget();
    for kernel in STRESS_KERNELS {
        let degradations = run_governed(kernel, budget);
        assert!(
            degradations
                .iter()
                .any(|d| d.stage == Stage::Explore && d.kind == DegradationKind::BudgetExhausted),
            "{kernel}: candidate space should exceed the {budget}-unit budget, \
             got degradations: {degradations:?}"
        );
        for d in &degradations {
            assert!(
                d.kind.reproducible(),
                "{kernel}: work-unit governance produced a non-reproducible record: {d}"
            );
        }
    }
}

/// The degradation records themselves are part of the deterministic
/// output: running the same kernel under the same budget twice yields
/// identical reports.
#[test]
fn stress_degradations_are_stable_across_runs() {
    let budget = stress_budget().min(5_000);
    let a = run_governed("deep_chain", budget);
    let b = run_governed("deep_chain", budget);
    assert_eq!(
        a.iter().map(|d| d.to_string()).collect::<Vec<_>>(),
        b.iter().map(|d| d.to_string()).collect::<Vec<_>>(),
        "same kernel + same budget must reproduce the same degradations"
    );
    assert!(
        !a.is_empty(),
        "deep_chain must exhaust a {budget}-unit budget"
    );
}

/// An *unlimited* governed run of a stress kernel head must match the
/// ungoverned pipeline exactly — governance is observability plus
/// budgets, never a behaviour change. Uses a truncated kernel (first
/// 120 instructions) so the ungoverned run stays fast.
#[test]
fn unlimited_guard_matches_ungoverned_on_stress_head() {
    let path = format!(
        "{}/kernels/stress/deep_chain.isax",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).expect("read deep_chain");
    // Header (2 lines) + first 120 instructions, then return the last
    // destination register so the head is a well-formed function.
    let mut head: Vec<String> = text.lines().take(122).map(str::to_string).collect();
    let last_dest = head
        .last()
        .and_then(|l| l.split_whitespace().nth(1))
        .map(|d| d.trim_end_matches(',').to_string())
        .expect("last instruction has a destination");
    head.push(format!("    ret {last_dest}"));
    let program = parse_program(&format!("{}\n", head.join("\n"))).expect("head parses");

    let ungoverned = Customizer::new();
    let mut governed = Customizer::new();
    governed.guard = Guard::unlimited();

    let a = ungoverned.analyze(&program);
    let b = governed.analyze(&program);
    assert_eq!(a.stats.examined, b.stats.examined);
    assert_eq!(a.cfus.len(), b.cfus.len());
    assert!(b.report.degradations.is_empty());
}
