//! The §6 memory relaxation in action: let S-box loads join blowfish's
//! custom function units and watch the whole Feistel F-function collapse
//! into accelerator-style instructions.
//!
//! ```sh
//! cargo run --release --example memory_cfus
//! ```

use isax::{Customizer, MatchOptions, Mdes};
use isax_machine::{run, Memory};
use isax_select::{select_greedy, Objective, SelectConfig};

fn main() {
    let w = isax_workloads::by_name("blowfish").unwrap();

    println!("== the paper's system (no memory in CFUs) ==");
    let plain = Customizer::new();
    let (m1, _) = plain.customize(w.name, &w.program, 15.0);
    let e1 = plain.evaluate(&w.program, &m1, MatchOptions::exact());
    println!("  {} CFUs, speedup {:.2}x", m1.cfus.len(), e1.speedup);

    println!("\n== with loads allowed inside units (value-objective selection) ==");
    let relaxed = Customizer::with_memory_cfus();
    let analysis = relaxed.analyze(&w.program);
    let sel = select_greedy(
        &analysis.cfus,
        &SelectConfig {
            objective: Objective::Value,
            ..SelectConfig::with_budget(15.0)
        },
    );
    let m2 = Mdes::from_selection(w.name, &analysis.cfus, &sel, &relaxed.hw, 64);
    let e2 = relaxed.evaluate(&w.program, &m2, MatchOptions::exact());
    for (i, c) in m2.cfus.iter().enumerate() {
        let loads = c
            .pattern
            .node_ids()
            .filter(|&n| c.pattern[n].opcode.is_load())
            .count();
        if loads > 0 {
            println!(
                "  cfu{:<2} {:<30} {} ops incl. {} S-box load(s), {} cycle(s)",
                i,
                c.name,
                c.pattern.node_count(),
                loads,
                c.latency
            );
        }
    }
    println!(
        "  {} CFUs, speedup {:.2}x  (was {:.2}x)",
        m2.cfus.len(),
        e2.speedup,
        e1.speedup
    );

    // Prove the load-bearing rewrite computes the same cipher.
    let mut mem_a = Memory::new();
    (w.init_memory)(&mut mem_a, 1);
    let mut mem_b = mem_a.clone();
    let args = (w.args)(1);
    let a = run(&w.program, w.entry, &args, &mut mem_a, 1_000_000).unwrap();
    let b = run(&e2.compiled.program, w.entry, &args, &mut mem_b, 1_000_000).unwrap();
    assert_eq!(a.ret, b.ret);
    println!(
        "\ninterpreter check: both versions encrypt to {:08x}:{:08x} — identical ✓",
        a.ret[0], a.ret[1]
    );
    println!("(the default ratio-greedy selector cannot exploit the relaxation —");
    println!(" see `cargo run -p isax-bench --bin memory_cfu_ablation`)");
}
