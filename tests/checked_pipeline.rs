//! The acceptance gate for the invariant checker: every benchmark runs
//! through the full pipeline with checking enabled at every checkpoint,
//! and must produce **zero** diagnostics — the checker validates the
//! pipeline, and the pipeline's thirteen kernels validate the checker's
//! clean path. Each kernel is additionally verified differentially: the
//! original and customized programs are interpreted on real workload
//! inputs and must agree bit-for-bit.

use isax::{Customizer, MatchOptions};
use isax_check::check_differential;
use isax_graph::par;
use isax_machine::Memory;
use isax_workloads::{all, by_name, Workload};

const FUEL: u64 = 50_000_000;

/// Runs one workload through analyze/select/evaluate with every
/// checkpoint armed (any violation panics inside the pipeline), then
/// differentially executes every entry point on the given seeds.
fn run_checked(w: &Workload, seeds: &[u64]) {
    let mut cz = Customizer::new();
    cz.check = true;
    let analysis = cz.analyze(&w.program);
    let (mdes, sel) = cz.select(w.name, &analysis, 15.0);
    let ev = cz.evaluate(&w.program, &mdes, MatchOptions::exact());
    // Checkpoints accept a fallback result; an internal panic behind it
    // must still fail.
    isax::reraise_contained(
        &[
            &analysis.report.degradations[..],
            &sel.report.degradations,
            &ev.compiled.report.degradations,
        ]
        .concat(),
    );
    assert!(
        ev.custom_cycles <= ev.baseline_cycles,
        "{}: customization made the estimate worse",
        w.name
    );

    for &seed in seeds {
        for (entry, args_fn) in w.entries() {
            let mut mem = Memory::new();
            (w.init_memory)(&mut mem, seed);
            let report = check_differential(
                &w.program,
                &ev.compiled.program,
                entry,
                &args_fn(seed),
                &mem,
                FUEL,
            );
            assert!(
                report.is_clean(),
                "{}::{entry} seed {seed} diverges:\n{report}",
                w.name
            );
        }
    }
}

#[test]
fn all_benchmarks_pass_every_checkpoint() {
    for w in all() {
        run_checked(&w, &[1, 2]);
    }
}

/// The checkpoints must hold identically under serial and parallel
/// execution — the deterministic fan-out must not change any artifact
/// the checker looks at.
#[test]
fn checkpoints_hold_across_thread_counts() {
    let kernels = ["blowfish", "sha", "gsmdecode"];
    for threads in [1usize, 4] {
        par::set_thread_override(Some(threads));
        for name in kernels {
            let w = by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
            run_checked(&w, &[3]);
        }
    }
    par::set_thread_override(None);
}
