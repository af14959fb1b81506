//! Thread-count determinism: the parallel pipeline must produce results
//! byte-identical to the serial one.
//!
//! The `isax_graph::par` layer promises that `ISAX_THREADS=N` only
//! changes wall-clock time, never output (every result is collected at
//! its input index). This test pins the thread count to 1 and then to 4
//! via the in-process override and compares the *entire* Analysis
//! (candidates, combined CFUs, statistics), the serialized MDES, and
//! the Evaluation (cycle counts and compiled code) on multiple kernels.
//!
//! This file intentionally holds a single `#[test]`: the override is
//! process-global, so the comparison must not race with other tests in
//! the same binary. Each integration-test file is its own process, so
//! the rest of the suite is unaffected.

use isax::{Customizer, MatchOptions};
use isax_graph::par::set_thread_override;

/// Everything the pipeline produces for one kernel at one budget,
/// captured in directly comparable form.
struct PipelineOutput {
    raw_candidates: Vec<isax_explore::Candidate>,
    cfus: Vec<isax_select::CfuCandidate>,
    examined: u64,
    recorded: u64,
    mdes_json: String,
    baseline_cycles: u64,
    custom_cycles: u64,
    compiled_blocks: Vec<Vec<isax_ir::BasicBlock>>,
}

fn run_pipeline(name: &str, budget: f64) -> PipelineOutput {
    let w = isax_workloads::by_name(name).unwrap();
    let cz = Customizer::new();
    let analysis = cz.analyze(&w.program);
    let (mdes, sel) = cz.select(w.name, &analysis, budget);
    let ev = cz.evaluate(&w.program, &mdes, MatchOptions::with_subsumed());
    // A contained worker panic would make both sides agree on a
    // fallback; it must fail the comparison instead.
    isax::reraise_contained(
        &[
            &analysis.report.degradations[..],
            &sel.report.degradations,
            &ev.compiled.report.degradations,
        ]
        .concat(),
    );
    PipelineOutput {
        raw_candidates: analysis.raw_candidates,
        cfus: analysis.cfus,
        examined: analysis.stats.examined,
        recorded: analysis.stats.recorded,
        mdes_json: mdes.to_json().unwrap(),
        baseline_cycles: ev.baseline_cycles,
        custom_cycles: ev.custom_cycles,
        compiled_blocks: ev
            .compiled
            .program
            .functions
            .iter()
            .map(|f| f.blocks.clone())
            .collect(),
    }
}

#[test]
fn parallel_pipeline_is_bit_identical_to_serial() {
    for name in ["blowfish", "crc", "mpeg2dec"] {
        set_thread_override(Some(1));
        let serial = run_pipeline(name, 15.0);
        set_thread_override(Some(4));
        let parallel = run_pipeline(name, 15.0);
        set_thread_override(None);

        assert_eq!(
            serial.raw_candidates, parallel.raw_candidates,
            "{name}: exploration candidates differ between 1 and 4 threads"
        );
        assert_eq!(
            serial.cfus, parallel.cfus,
            "{name}: combined CFU candidates (incl. subsumption/wildcard \
             annotations) differ"
        );
        assert_eq!(serial.examined, parallel.examined, "{name}: examined");
        assert_eq!(serial.recorded, parallel.recorded, "{name}: recorded");
        assert_eq!(
            serial.mdes_json, parallel.mdes_json,
            "{name}: serialized MDES differs"
        );
        assert_eq!(
            serial.baseline_cycles, parallel.baseline_cycles,
            "{name}: baseline cycles"
        );
        assert_eq!(
            serial.custom_cycles, parallel.custom_cycles,
            "{name}: customized cycles"
        );
        assert_eq!(
            serial.compiled_blocks, parallel.compiled_blocks,
            "{name}: compiled code differs"
        );
    }
}
