//! Selection-identity golden over the extended corpus.
//!
//! Every kernel of `isax_bench::extended_corpus` is analyzed once, then
//! selected at area budgets 2, 15, 60 and unbounded by each selector:
//! greedy (`Customizer::select`), multifunction
//! (`Customizer::select_multifunction`) and the dynamic-programming
//! knapsack (`select_knapsack`, its budget capped at 400 adders: its
//! table holds a row per candidate and a column per quarter adder up to
//! the pool's total area, too large to build for the biggest pools
//! unbounded). One line per (kernel,
//! budget) records, per selector, a hash of the MDES JSON, every chosen
//! `(candidate, priority, estimated_value, charged_area bits)` and the
//! selection totals. The lines must equal `tests/golden/select_variants.txt`
//! at one thread and at four.
//!
//! The stress kernels and `crc_brev` are analyzed under a 5,000-unit work
//! budget, as in `tests/corpus_artifacts.rs`; every selection runs
//! ungoverned, so the snapshot pins the selectors themselves.
//!
//! Thread count is a process-global switch, so this binary holds a
//! single test. To bless an intentional change, rerun with
//! `ISAX_BLESS=1` and commit the regenerated snapshot.

mod common;

use common::check_golden;
use isax::{Customizer, Guard, Mdes};
use isax_bench::extended_corpus;
use isax_select::{select_knapsack, SelectConfig, Selection};
use isax_serve::fnv64;

/// Per-meter work budget of the governed analyses.
const STRESS_BUDGET: u64 = 5_000;
/// Area budgets every selector runs at.
const AREA_BUDGETS: [f64; 4] = [2.0, 15.0, 60.0, f64::INFINITY];
/// Largest area budget handed to the knapsack.
const DP_BUDGET_CAP: f64 = 400.0;

fn digest(mdes: &Mdes, sel: &Selection) -> u64 {
    let mut text = mdes.to_json().expect("mdes serializes");
    for c in &sel.chosen {
        text.push_str(&format!(
            "\n{} {} {} {:016x}",
            c.candidate,
            c.priority,
            c.estimated_value,
            c.charged_area.to_bits()
        ));
    }
    text.push_str(&format!(
        "\ntotal {:016x} {}",
        sel.total_area.to_bits(),
        sel.total_value
    ));
    fnv64(text.as_bytes())
}

fn selection_lines() -> String {
    let mut out = String::new();
    for k in extended_corpus() {
        let mut cz = Customizer::new();
        if k.work_budget.is_some() || k.name == "crc_brev" {
            cz.guard = Guard::unlimited().with_units(STRESS_BUDGET);
        }
        let analysis = cz.analyze(&k.program);
        cz.guard = Guard::unlimited();
        for budget in AREA_BUDGETS {
            let (greedy_mdes, greedy) = cz.select(&k.name, &analysis, budget);
            let (multi_mdes, multi) = cz.select_multifunction(&k.name, &analysis, budget);
            let dp = select_knapsack(
                &analysis.cfus,
                &SelectConfig::with_budget(budget.min(DP_BUDGET_CAP)),
            );
            let dp_mdes =
                Mdes::from_selection(&k.name, &analysis.cfus, &dp, &cz.hw, cz.closure_cap);
            out.push_str(&format!(
                "{:<24} budget={:<4} greedy={}:{:016x} multi={}:{:016x} dp={}:{:016x}\n",
                k.name,
                budget,
                greedy.chosen.len(),
                digest(&greedy_mdes, &greedy),
                multi.chosen.len(),
                digest(&multi_mdes, &multi),
                dp.chosen.len(),
                digest(&dp_mdes, &dp),
            ));
        }
    }
    out
}

#[test]
fn every_selector_is_stable_at_one_and_four_threads() {
    isax_graph::par::set_thread_override(Some(1));
    let serial = selection_lines();
    isax_graph::par::set_thread_override(Some(4));
    let parallel = selection_lines();
    isax_graph::par::set_thread_override(None);
    assert_eq!(
        serial, parallel,
        "selections differ between 1 and 4 threads"
    );
    check_golden("select_variants.txt", &serial);
}
