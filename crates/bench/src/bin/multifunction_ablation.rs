//! Ablation for the §6 future-work item implemented in this repository:
//! multifunction CFU selection (wildcard families offered to the selector
//! as merged units at shared-hardware cost) versus the paper's plain
//! greedy.
//!
//! ```sh
//! cargo run --release -p isax-bench --bin multifunction_ablation
//! ```
//!
//! Reported per benchmark at a low and a high budget: the plain greedy
//! speedup, the multifunction speedup with exact matching, and the
//! multifunction speedup when the compiler also uses opcode-class
//! matching (the hardware is multifunctional, so class matches are the
//! honest way to drive it — and here, unlike Figures 8/9, its cost *is*
//! charged).

#![forbid(unsafe_code)]

use isax::{Customizer, MatchOptions};
use isax_bench::analyze_suite;

fn main() {
    let _trace = isax_trace::init_from_env();
    let cz = Customizer::new();
    eprintln!("analyzing the thirteen benchmarks ...");
    let suite = analyze_suite(&cz);
    for budget in [4.0, 15.0] {
        println!("\n=== budget {budget} adders ===");
        println!(
            "{:<11} {:>8} {:>10} {:>12}",
            "app", "greedy", "multi", "multi+class"
        );
        let mut sums = [0.0f64; 3];
        for (name, app) in &suite {
            let (plain_mdes, _) = cz.select(name, &app.analysis, budget);
            let plain = cz
                .evaluate(&app.workload.program, &plain_mdes, MatchOptions::exact())
                .speedup;
            let (multi_mdes, _) = cz.select_multifunction(name, &app.analysis, budget);
            let multi = cz
                .evaluate(&app.workload.program, &multi_mdes, MatchOptions::exact())
                .speedup;
            let multi_class = cz
                .evaluate(
                    &app.workload.program,
                    &multi_mdes,
                    MatchOptions::generalized(),
                )
                .speedup;
            println!("{name:<11} {plain:>7.2}x {multi:>9.2}x {multi_class:>11.2}x");
            sums[0] += plain;
            sums[1] += multi;
            sums[2] += multi_class;
        }
        let n = suite.len() as f64;
        println!(
            "{:<11} {:>7.2}x {:>9.2}x {:>11.2}x   (averages)",
            "--",
            sums[0] / n,
            sums[1] / n,
            sums[2] / n
        );
    }
}
