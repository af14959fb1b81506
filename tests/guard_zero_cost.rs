//! Zero-cost-by-default: the default guard (no budget, no deadline, no
//! fault plan) is unlimited, so every pipeline artifact must equal the
//! one a governed run with an ample budget produces, with no
//! degradation records. Each stage has one metered implementation;
//! this suite pins that an unlimited meter never changes its output on
//! real benchmark kernels.

use isax::{Customizer, Guard, MatchOptions};
use isax_workloads::by_name;

/// Artifacts worth diffing between an explicitly-defaulted run and one
/// carrying an explicit (but inactive) unlimited guard.
fn run(cz: &Customizer, name: &str) -> (String, String, u64, usize) {
    let w = by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let analysis = cz.analyze(&w.program);
    assert!(
        analysis.report.degradations.is_empty(),
        "{name}: inactive guard produced analysis degradations"
    );
    let (mdes, sel) = cz.select(name, &analysis, 15.0);
    assert!(
        sel.report.degradations.is_empty(),
        "{name}: inactive guard produced selection degradations"
    );
    let ev = cz.evaluate(&w.program, &mdes, MatchOptions::exact());
    assert!(
        ev.compiled.report.degradations.is_empty(),
        "{name}: inactive guard produced compile degradations"
    );
    let assembly = ev.compiled.program.functions_text();
    (
        mdes.to_json().expect("mdes serializes"),
        assembly,
        ev.custom_cycles,
        analysis.cfus.len(),
    )
}

/// `Guard::unlimited()` is indistinguishable from the default
/// environment-derived guard when no governance env vars are set.
#[test]
fn unlimited_guard_is_byte_identical_to_default() {
    for name in ["crc", "sha"] {
        let default_cz = Customizer::new();
        assert!(
            !default_cz.guard.is_active(),
            "test environment unexpectedly configures governance \
             (ISAX_BUDGET / ISAX_DEADLINE_MS / ISAX_FAULT set?)"
        );
        let mut explicit_cz = Customizer::new();
        explicit_cz.guard = Guard::unlimited();
        assert_eq!(run(&default_cz, name), run(&explicit_cz, name), "{name}");
    }
}

/// An *active* guard whose budget is far larger than the actual work
/// must also change nothing except being observable: same artifacts,
/// zero degradations. This pins the limit checks against the
/// unlimited meter.
#[test]
fn huge_budget_matches_ungoverned_artifacts() {
    let name = "crc";
    let ungoverned = Customizer::new();
    let mut governed = Customizer::new();
    governed.guard = Guard::unlimited().with_units(u64::MAX / 2);
    assert!(governed.guard.is_active());
    assert_eq!(run(&ungoverned, name), run(&governed, name), "{name}");
}
