//! The in-text limit study (§5): speedup attainable with infinite
//! register-file ports and an infinite area budget, against the realized
//! 15-adder point.
//!
//! ```sh
//! cargo run --release -p isax-bench --bin limit_study
//! ```
//!
//! The paper's finding: the constrained system "realizes speedups very
//! close to the ideal case", except for cjpeg/djpeg whose ideal CFUs are
//! enormous (a djpeg CFU wanted 24 read ports and more area than eight
//! multipliers).

#![forbid(unsafe_code)]

use isax::Customizer;
use isax_bench::{analyze_suite, limit, native, HEADLINE_BUDGET};

fn main() {
    let _trace = isax_trace::init_from_env();
    let cz = Customizer::new();
    eprintln!("analyzing the thirteen benchmarks ...");
    let suite = analyze_suite(&cz);
    println!(
        "{:<11} {:>12} {:>9} {:>10}",
        "app", "@15 adders", "limit", "gap"
    );
    for (name, app) in &suite {
        let constrained = native(&cz, app, HEADLINE_BUDGET);
        let limit = limit(&cz, name, &app.workload.program);
        println!(
            "{:<11} {:>11.2}x {:>8.2}x {:>9.1}%",
            name,
            constrained,
            limit,
            (limit / constrained - 1.0) * 100.0
        );
    }
    println!("\n(gap = ideal headroom left by the 5-in/3-out, 15-adder constraints)");
}
