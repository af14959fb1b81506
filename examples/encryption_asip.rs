//! Design an encryption-domain ASIP: generate CFUs for one cipher, then
//! see how well the rest of the domain runs on them.
//!
//! ```sh
//! cargo run --release --example encryption_asip
//! ```
//!
//! Reproduces the paper's cross-compilation methodology (right side of
//! Figure 7 and the generalization study of Figure 8) on the encryption
//! benchmarks: blowfish-generated hardware evaluated on rijndael and sha,
//! with exact, subsumed and wildcard matching.

use isax::{Customizer, MatchOptions};
use isax_workloads::{by_name, domain_members, Domain};

fn main() {
    let cz = Customizer::new();
    let budget = 15.0;
    let source = by_name("blowfish").unwrap();

    println!(
        "== hardware compiler: CFUs for {} @ {budget} adders ==",
        source.name
    );
    let analysis = cz.analyze(&source.program);
    let (mdes, _) = cz.select(source.name, &analysis, budget);
    for (i, cfu) in mdes.cfus.iter().enumerate() {
        println!(
            "  cfu{:<2} {:<28} {:2} ops  {:5.2} adders  {} subsumed shapes",
            i,
            cfu.name,
            cfu.pattern.node_count(),
            cfu.area,
            cfu.subsumed_patterns.len()
        );
    }

    println!(
        "\n== compiling the encryption domain on {}'s CFUs ==",
        source.name
    );
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10}",
        "app", "native", "exact", "+subsumed", "+wildcard"
    );
    for name in domain_members(Domain::Encryption) {
        let app = by_name(name).unwrap();
        let (own_mdes, _) = cz.customize(app.name, &app.program, budget);
        let native = cz
            .evaluate(&app.program, &own_mdes, MatchOptions::exact())
            .speedup;
        let exact = cz
            .evaluate(&app.program, &mdes, MatchOptions::exact())
            .speedup;
        let subsumed = cz
            .evaluate(&app.program, &mdes, MatchOptions::with_subsumed())
            .speedup;
        let wild = cz
            .evaluate(&app.program, &mdes, MatchOptions::generalized())
            .speedup;
        println!(
            "{:<10} {:>7.2}x {:>9.2}x {:>9.2}x {:>9.2}x",
            name, native, exact, subsumed, wild
        );
    }
    println!(
        "\n(native = the app's own CFUs; the other columns run on {}'s\n\
         hardware with increasingly general matching — the paper's\n\
         observation is that subsumed subgraphs and wildcards recover much\n\
         of the cross-compilation loss.)",
        source.name
    );
}
