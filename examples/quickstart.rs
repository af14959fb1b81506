//! Quickstart: customize a small kernel end to end.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Builds a toy hot loop, discovers custom-function-unit candidates,
//! selects a CFU set for a 10-adder budget, compiles the kernel against
//! it and reports the estimated speedup — the whole pipeline of the
//! MICRO-2003 system in a dozen lines.

use isax::{Customizer, MatchOptions};
use isax_ir::{FunctionBuilder, Program};

fn main() {
    // A hot kernel: one round of a toy cipher, executed 100k times.
    //   t = (x ^ k) <<< 7;  y = (t + b) & 0xFFFF
    let mut fb = FunctionBuilder::new("toy_round", 3);
    fb.set_entry_weight(100_000);
    let (x, b, k) = (fb.param(0), fb.param(1), fb.param(2));
    let t = fb.xor(x, k);
    let hi = fb.shl(t, 7i64);
    let lo = fb.shr(t, 25i64);
    let rot = fb.or(hi, lo);
    let s = fb.add(rot, b);
    let y = fb.and(s, 0xFFFFi64);
    fb.ret(&[y.into()]);
    let program = Program::new(vec![fb.finish()]);

    // The hardware compiler: explore the dataflow graph, group candidate
    // subgraphs, select CFUs for a 10-adder die budget.
    let cz = Customizer::new();
    let analysis = cz.analyze(&program);
    println!(
        "explored {} candidate subgraphs -> {} CFU candidates",
        analysis.stats.examined,
        analysis.cfus.len()
    );
    let (mdes, selection) = cz.select("toy", &analysis, 10.0);
    println!("\nselected CFUs (priority order):");
    for (i, cfu) in mdes.cfus.iter().enumerate() {
        println!(
            "  cfu{:<2} {:<24} {} ops, {:.2} adders, {} cycle(s), est. value {}",
            i,
            cfu.name,
            cfu.pattern.node_count(),
            cfu.area,
            cfu.latency,
            cfu.estimated_value
        );
    }
    println!(
        "total charged area: {:.2} adders (budget 10.0)",
        selection.total_area
    );

    // The retargetable compiler: match, replace, schedule, measure.
    let ev = cz.evaluate(&program, &mdes, MatchOptions::exact());
    println!(
        "\nbaseline {} cycles -> customized {} cycles  (speedup {:.2}x)",
        ev.baseline_cycles, ev.custom_cycles, ev.speedup
    );
    println!(
        "{} custom instruction(s) inserted",
        ev.compiled.applied.len()
    );

    // Prove nothing broke: run both programs on concrete inputs.
    let args = [0x1234_5678, 42, 0xDEAD_BEEF];
    let mut m1 = isax_machine::Memory::new();
    let mut m2 = isax_machine::Memory::new();
    let before = isax_machine::run(&program, "toy_round", &args, &mut m1, 10_000).unwrap();
    let after =
        isax_machine::run(&ev.compiled.program, "toy_round", &args, &mut m2, 10_000).unwrap();
    assert_eq!(before.ret, after.ret);
    println!(
        "\ninterpreter check: both programs compute {:#010x} — identical ✓",
        before.ret[0]
    );
}
