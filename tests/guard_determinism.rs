//! The guard's headline contract: a work-unit budget truncates the SAME
//! work at any thread count.
//!
//! Budgets are counted (candidates examined, VF2 states visited,
//! scheduler steps), never timed, and every parallel work item carries
//! its own meter — so where a budget lands is a pure function of the
//! input and the budget, not of scheduling. This test runs three stress
//! kernels under a tight budget serially and at four threads and
//! requires byte-identical MDES JSON, byte-identical emitted assembly,
//! identical cycle estimates, and identical degradation reports.
//!
//! Single `#[test]` on purpose: `set_thread_override` is process-global,
//! so the serial and parallel runs must not interleave with each other
//! (or with another test doing the same).

use isax::{Customizer, Guard, MatchOptions};
use isax_graph::par;
use isax_ir::parse_program;

const BUDGET: u64 = 15_000;
const KERNELS: [&str; 3] = ["deep_chain", "dense_clique", "mem_alu_ladder"];

/// Every deterministic artifact of one governed pipeline run, rendered
/// to bytes for exact comparison.
struct Artifacts {
    mdes_json: String,
    assembly: String,
    custom_cycles: u64,
    degradations: Vec<String>,
}

fn run(kernel: &str) -> Artifacts {
    let path = format!(
        "{}/kernels/stress/{kernel}.isax",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let program = parse_program(&text).unwrap_or_else(|e| panic!("{path}: {e}"));

    let mut cz = Customizer::new();
    cz.guard = Guard::unlimited().with_units(BUDGET);
    let analysis = cz.analyze(&program);
    let (mdes, sel) = cz.select(kernel, &analysis, 15.0);
    let ev = cz.evaluate(&program, &mdes, MatchOptions::exact());

    let mut degradations: Vec<String> = analysis
        .report
        .degradations
        .iter()
        .map(|d| d.to_string())
        .collect();
    degradations.extend(sel.report.degradations.iter().map(|d| d.to_string()));
    degradations.extend(
        ev.compiled
            .report
            .degradations
            .iter()
            .map(|d| d.to_string()),
    );

    Artifacts {
        mdes_json: mdes.to_json().expect("mdes serializes"),
        assembly: ev.compiled.program.functions_text(),
        custom_cycles: ev.custom_cycles,
        degradations,
    }
}

#[test]
fn budget_truncation_is_identical_across_thread_counts() {
    for kernel in KERNELS {
        par::set_thread_override(Some(1));
        let serial = run(kernel);
        par::set_thread_override(Some(4));
        let parallel = run(kernel);
        par::set_thread_override(None);

        assert!(
            !serial.degradations.is_empty(),
            "{kernel}: the {BUDGET}-unit budget must bite for this test to mean anything"
        );
        assert_eq!(
            serial.degradations, parallel.degradations,
            "{kernel}: degradation records diverged between 1 and 4 threads"
        );
        assert_eq!(
            serial.mdes_json, parallel.mdes_json,
            "{kernel}: MDES JSON diverged between 1 and 4 threads"
        );
        assert_eq!(
            serial.assembly, parallel.assembly,
            "{kernel}: emitted assembly diverged between 1 and 4 threads"
        );
        assert_eq!(
            serial.custom_cycles, parallel.custom_cycles,
            "{kernel}: cycle estimate diverged between 1 and 4 threads"
        );
    }
}
