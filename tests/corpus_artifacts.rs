//! Artifact-identity golden over the extended corpus.
//!
//! Every kernel of `isax_bench::extended_corpus` (paper, stress, curated
//! and generated) is customized at a 15-unit area budget and compiled
//! against its own MDES with wildcard + subsumed matching, with
//! provenance recording on. One line per kernel records a hash of each
//! artifact a user can see: the MDES JSON, the compiled assembly, the
//! provenance report and the degradation lines. The lines must equal
//! `tests/golden/corpus_artifacts.txt` at one thread and at four.
//!
//! The stress kernels and `crc_brev` run under a 5,000-unit work
//! budget, so the truncation path is pinned too and the debug-build run
//! stays short (ungoverned, `crc_brev` alone takes 20 s there); every
//! other kernel runs ungoverned.
//!
//! Thread count and provenance are process-global switches, so this
//! binary holds a single test. To bless an intentional change, rerun
//! with `ISAX_BLESS=1` and commit the regenerated snapshot.

mod common;

use common::check_golden;
use isax::{Customizer, Guard, MatchOptions};
use isax_bench::extended_corpus;
use isax_serve::fnv64;

/// Per-meter work budget of the governed kernels.
const STRESS_BUDGET: u64 = 5_000;
/// Area budget of every customization.
const AREA_BUDGET: f64 = 15.0;

fn corpus_lines() -> String {
    let _prov = isax_prov::enable();
    let mut out = String::new();
    for k in extended_corpus() {
        let mut cz = Customizer::new();
        cz.guard = if k.work_budget.is_some() || k.name == "crc_brev" {
            Guard::unlimited().with_units(STRESS_BUDGET)
        } else {
            Guard::unlimited()
        };
        let analysis = cz.analyze(&k.program);
        let (mdes, sel) = cz.select(&k.name, &analysis, AREA_BUDGET);
        let ev = cz.evaluate(&k.program, &mdes, MatchOptions::generalized());
        let asm: String = ev
            .compiled
            .program
            .functions
            .iter()
            .map(|f| f.to_string())
            .collect();
        let mut plog = analysis.report.prov.clone();
        plog.merge(sel.report.prov.clone());
        plog.merge(ev.compiled.report.prov.clone());
        let prov = isax::build_report(&k.name, &plog).to_string_pretty();
        let degradations: Vec<String> = analysis
            .report
            .degradations
            .iter()
            .chain(&sel.report.degradations)
            .chain(&ev.compiled.report.degradations)
            .map(|d| d.to_string())
            .collect();
        let mdes = mdes.to_json().expect("mdes serializes");
        out.push_str(&format!(
            "{:<24} {:<6} cycles={:<10} mdes={:016x} asm={:016x} prov={:016x} degr={}:{:016x}\n",
            k.name,
            k.domain,
            ev.custom_cycles,
            fnv64(mdes.as_bytes()),
            fnv64(asm.as_bytes()),
            fnv64(prov.as_bytes()),
            degradations.len(),
            fnv64(degradations.join("\n").as_bytes()),
        ));
    }
    out
}

#[test]
fn corpus_artifacts_are_stable_at_one_and_four_threads() {
    isax_graph::par::set_thread_override(Some(1));
    let serial = corpus_lines();
    isax_graph::par::set_thread_override(Some(4));
    let parallel = corpus_lines();
    isax_graph::par::set_thread_override(None);
    assert_eq!(serial, parallel, "artifacts differ between 1 and 4 threads");
    check_golden("corpus_artifacts.txt", &serial);
}
