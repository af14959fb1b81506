//! System-level behaviours across the whole workspace: budget
//! monotonicity, MDES portability, selection ablations, domain character.

use isax::{Customizer, MatchOptions, Mdes};
use isax_select::{select_greedy, select_knapsack, SelectConfig};
use isax_workloads::{all, by_name, Domain};

#[test]
fn speedup_is_monotone_enough_in_budget() {
    // Greedy dips are expected (the paper discusses them for rawdaudio and
    // djpeg); what must hold is that the best speedup seen so far never
    // collapses: every budget's speedup stays within 25% of the running
    // maximum, and the curve ends at its top.
    let cz = Customizer::new();
    for name in ["blowfish", "crc", "rawdaudio"] {
        let w = by_name(name).unwrap();
        let analysis = cz.analyze(&w.program);
        let mut best: f64 = 1.0;
        let mut last = 1.0;
        for budget in 1..=15 {
            let (mdes, _) = cz.select(w.name, &analysis, budget as f64);
            let ev = cz.evaluate(&w.program, &mdes, MatchOptions::exact());
            assert!(
                ev.speedup >= best * 0.75,
                "{name}: budget {budget} collapsed to {:.3} (best {:.3})",
                ev.speedup,
                best
            );
            best = best.max(ev.speedup);
            last = ev.speedup;
        }
        assert!(
            last >= best * 0.95,
            "{name}: final point {:.3} well below best {:.3}",
            last,
            best
        );
    }
}

#[test]
fn mdes_round_trips_through_json_and_still_compiles() {
    let cz = Customizer::new();
    let w = by_name("blowfish").unwrap();
    let (mdes, _) = cz.customize(w.name, &w.program, 10.0);
    let json = mdes.to_json().unwrap();
    let back = Mdes::from_json(&json).unwrap();
    let ev1 = cz.evaluate(&w.program, &mdes, MatchOptions::exact());
    let ev2 = cz.evaluate(&w.program, &back, MatchOptions::exact());
    assert_eq!(ev1.custom_cycles, ev2.custom_cycles);
}

#[test]
fn encryption_beats_control_heavy_codes() {
    // The paper's central domain observation: encryption kernels gain far
    // more than branch/memory-bound ones.
    let cz = Customizer::new();
    let speed = |name: &str| {
        let w = by_name(name).unwrap();
        let (mdes, _) = cz.customize(w.name, &w.program, 15.0);
        cz.evaluate(&w.program, &mdes, MatchOptions::exact())
            .speedup
    };
    let blowfish = speed("blowfish");
    let ipchains = speed("ipchains");
    let mpeg2 = speed("mpeg2dec");
    assert!(
        blowfish > ipchains + 0.2,
        "blowfish {blowfish:.2} vs ipchains {ipchains:.2}"
    );
    assert!(
        blowfish > mpeg2,
        "blowfish {blowfish:.2} vs mpeg2 {mpeg2:.2}"
    );
}

#[test]
fn rawdaudio_is_the_suite_peak() {
    // Paper: "as much as 1.94 for rawdaudio".
    let cz = Customizer::new();
    let mut best_name = String::new();
    let mut best = 0.0f64;
    for w in all() {
        let (mdes, _) = cz.customize(w.name, &w.program, 15.0);
        let s = cz
            .evaluate(&w.program, &mdes, MatchOptions::exact())
            .speedup;
        if s > best {
            best = s;
            best_name = w.name.to_string();
        }
    }
    assert!(
        best_name == "rawdaudio" || best_name == "rawcaudio",
        "suite peak is {best_name} ({best:.2}); expected the ADPCM codecs"
    );
    assert!(best > 1.7 && best < 2.6, "peak speedup {best:.2} in range");
}

#[test]
fn native_cfus_beat_cross_compiled_ones() {
    // "no application does quite as well on hardware designed for another
    // application as it does for its own."
    let cz = Customizer::new();
    let ws = all();
    for d in [Domain::Encryption, Domain::Audio] {
        let members: Vec<_> = ws.iter().filter(|w| w.domain == d).collect();
        for app in &members {
            let (own, _) = cz.customize(app.name, &app.program, 15.0);
            let native = cz
                .evaluate(&app.program, &own, MatchOptions::exact())
                .speedup;
            for src in &members {
                if src.name == app.name {
                    continue;
                }
                let (other, _) = cz.customize(src.name, &src.program, 15.0);
                let cross = cz
                    .evaluate(&app.program, &other, MatchOptions::exact())
                    .speedup;
                assert!(
                    cross <= native + 1e-9,
                    "{} does better on {}'s CFUs ({:.3}) than its own ({:.3})",
                    app.name,
                    src.name,
                    cross,
                    native
                );
            }
        }
    }
}

#[test]
fn generalization_only_helps() {
    // Subsumed matching and wildcards may only add speedup, never remove
    // it — on native and cross compiles alike.
    let cz = Customizer::new();
    let ws = all();
    let enc: Vec<_> = ws
        .iter()
        .filter(|w| w.domain == Domain::Encryption || w.domain == Domain::Audio)
        .collect();
    for src in &enc {
        let (mdes, _) = cz.customize(src.name, &src.program, 15.0);
        for app in &enc {
            let exact = cz
                .evaluate(&app.program, &mdes, MatchOptions::exact())
                .speedup;
            let subsumed = cz
                .evaluate(&app.program, &mdes, MatchOptions::with_subsumed())
                .speedup;
            let wild = cz
                .evaluate(&app.program, &mdes, MatchOptions::generalized())
                .speedup;
            assert!(subsumed >= exact - 1e-9, "{} on {}", app.name, src.name);
            assert!(wild >= subsumed - 1e-9, "{} on {}", app.name, src.name);
        }
    }
}

#[test]
fn dp_and_greedy_are_both_credible() {
    // The §3.4 ablation: DP is sometimes better, at much higher cost;
    // both must produce valid selections within budget.
    let cz = Customizer::new();
    for name in ["rijndael", "sha", "crc"] {
        let w = by_name(name).unwrap();
        let analysis = cz.analyze(&w.program);
        let g = select_greedy(&analysis.cfus, &SelectConfig::with_budget(15.0));
        let d = select_knapsack(&analysis.cfus, &SelectConfig::with_budget(15.0));
        assert!(g.total_area <= 15.0 + 1e-9);
        assert!(d.total_area <= 15.0 + 1e-9);
        assert!(g.total_value > 0);
        assert!(d.total_value > 0);
    }
}

#[test]
fn limit_study_bounds_constrained_results() {
    let cz = Customizer::new();
    for (name, app) in isax_bench::analyze_subset(&cz, &["blowfish", "rawdaudio", "url"]) {
        let constrained = isax_bench::native(&cz, &app, 15.0);
        let limit = isax_bench::limit(&cz, name, &app.workload.program);
        assert!(
            limit >= constrained - 1e-9,
            "{name}: limit {limit:.3} < constrained {constrained:.3}"
        );
    }
}
