//! Differential-oracle sweep over the generator-scale corpora.
//!
//! The headline consumer of `isax-gen`: every seeded program goes
//! through the whole pipeline with the checkpoint checker armed, and
//! the interpreter is the oracle — the customized/compiled result must
//! return the same values, leave the same memory, and never take more
//! dynamic steps than the original, on deterministic seeded inputs.
//! `check_differential` cross-validates the same runs (IC05xx plus the
//! IC0810/IC0811 observed-value-range facts).
//!
//! Lanes:
//! * **fast** (default) — 32 seeds per domain at small block counts,
//!   inside the CI `test-fast` budget;
//! * **deep** (`ISAX_GEN_DEEP=1`) — fewer seeds at 64/192/512 blocks,
//!   its own CI lane.
//!
//! The corpora themselves are byte-pinned here: `kernels/stress/*` (the
//! Python generator's historical output), `kernels/graph|dsp/*` (the
//! curated oracles) and every `kernels/gen/*` entry recorded in
//! `MANIFEST.json` must regenerate exactly from their recipes.
//!
//! Doctored-fault tests prove the oracle has teeth: a flipped return, a
//! redirected store and a stripped CFU semantics entry must surface as
//! IC0501, IC0502 and IC0503 respectively.

use isax::{Customizer, MatchOptions};
use isax_check::check_differential;
use isax_gen::{curated, generate, seeded_args, seeded_memory, GenConfig, GenDomain};
use isax_ir::{Opcode, Operand, Program, Terminator};
use isax_machine::{run, Memory};

const FUEL: u64 = 50_000_000;
const BUDGET: f64 = 15.0;

/// Seeds per domain in the fast lane: the full 32-seed set in release
/// (what the `gen-sweep-fast` CI lane runs), a smoke subset under debug
/// builds, where the interpreter is an order of magnitude slower and
/// the full sweep would blow the `cargo test -q` budget.
const FAST_SEEDS: u64 = if cfg!(debug_assertions) { 6 } else { 32 };

fn deep() -> bool {
    std::env::var("ISAX_GEN_DEEP").is_ok_and(|v| v == "1")
}

/// The per-domain sweep plan: `(seed, blocks)` pairs.
fn plan() -> Vec<(u64, usize)> {
    if deep() {
        (0..4u64)
            .flat_map(|s| [(s, 64), (s, 192)])
            .chain([(0, 512), (1, 512)])
            .collect()
    } else {
        (0..FAST_SEEDS).map(|s| (s, 3 + (s as usize % 8))).collect()
    }
}

/// Runs one program through customize + compile with the checker armed
/// and validates it against the interpreter oracle on seeded inputs.
fn differential_pipeline(p: &Program, entry: &str, seed: u64, label: &str) {
    let mut cz = Customizer::new();
    cz.check = true;
    let analysis = cz.analyze(p);
    let (mdes, sel) = cz.select(entry, &analysis, BUDGET);
    let ev = cz.evaluate(p, &mdes, MatchOptions::with_subsumed());
    // An internal panic, contained as a degradation, still fails the
    // sweep.
    isax::reraise_contained(
        &[
            &analysis.report.degradations[..],
            &sel.report.degradations,
            &ev.compiled.report.degradations,
        ]
        .concat(),
    );

    // Cycle accounting: customization must never cost cycles, and the
    // reported speedup must be exactly the ratio of the two estimates.
    assert!(
        ev.custom_cycles <= ev.baseline_cycles,
        "{label}: customized estimate regressed ({} > {})",
        ev.custom_cycles,
        ev.baseline_cycles
    );
    if ev.custom_cycles > 0 {
        let ratio = ev.baseline_cycles as f64 / ev.custom_cycles as f64;
        assert!(
            (ev.speedup - ratio).abs() < 1e-9,
            "{label}: speedup {} disagrees with cycle ratio {ratio}",
            ev.speedup
        );
    }

    for arg_seed in [seed, seed.wrapping_add(0x1000), seed.wrapping_add(0x2000)] {
        let args = seeded_args(arg_seed);
        let mem0 = seeded_memory(arg_seed);

        let mut mem_a = mem0.clone();
        let a = run(p, entry, &args, &mut mem_a, FUEL)
            .unwrap_or_else(|e| panic!("{label}: original failed: {e}"));
        let mut mem_b = mem0.clone();
        let b = run(&ev.compiled.program, entry, &args, &mut mem_b, FUEL)
            .unwrap_or_else(|e| panic!("{label}: compiled failed: {e}"));

        assert_eq!(a.ret, b.ret, "{label}: return values diverged");
        assert_eq!(mem_a, mem_b, "{label}: final memory diverged");
        assert!(
            b.steps <= a.steps,
            "{label}: compiled program took more dynamic steps ({} > {})",
            b.steps,
            a.steps
        );

        let report = check_differential(p, &ev.compiled.program, entry, &args, &mem0, FUEL);
        assert!(report.is_clean(), "{label}: differential checker: {report}");
    }
}

fn sweep_domain(domain: GenDomain) {
    for (seed, blocks) in plan() {
        let cfg = GenConfig {
            seed,
            domain,
            blocks,
        };
        let entry = cfg.entry_name();
        let text = generate(&cfg);
        let p = isax_ir::parse_program(&text).unwrap_or_else(|e| panic!("{entry}: {e}"));
        assert_eq!(p.functions[0].to_string(), text, "{entry}: round trip");
        let lint = isax::lint_program(&p);
        assert!(
            lint.diagnostics().is_empty(),
            "{entry}: lint findings: {lint}"
        );
        differential_pipeline(&p, &entry, seed, &entry);
    }
}

#[test]
fn gen_sweep_graph() {
    sweep_domain(GenDomain::Graph);
}

#[test]
fn gen_sweep_dsp() {
    sweep_domain(GenDomain::Dsp);
}

#[test]
fn gen_sweep_mixed() {
    sweep_domain(GenDomain::Mixed);
}

/// The curated corpus additionally has independent Rust oracles: the
/// original program, the compiled rewrite, and the hand-written oracle
/// must agree three ways (returns and final memory).
#[test]
fn curated_kernels_match_their_oracles_through_the_pipeline() {
    for k in curated() {
        let text = (k.text)();
        let p = isax_ir::parse_program(&text).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let mut cz = Customizer::new();
        cz.check = true;
        let analysis = cz.analyze(&p);
        let (mdes, _) = cz.select(k.name, &analysis, BUDGET);
        let ev = cz.evaluate(&p, &mdes, MatchOptions::with_subsumed());
        for seed in [3u64, 17, 91] {
            let args = (k.args)(seed);
            let mut mem_oracle = Memory::new();
            (k.init_memory)(&mut mem_oracle, seed);
            let mem0 = mem_oracle.clone();
            let expect = (k.oracle)(&args, &mut mem_oracle);

            let mut mem_run = mem0.clone();
            let out = run(&ev.compiled.program, k.name, &args, &mut mem_run, FUEL)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", k.name));
            assert_eq!(out.ret, expect, "{} seed {seed}: oracle disagrees", k.name);
            assert_eq!(mem_run, mem_oracle, "{} seed {seed}: memory", k.name);

            let report = check_differential(&p, &ev.compiled.program, k.name, &args, &mem0, FUEL);
            assert!(report.is_clean(), "{} seed {seed}: {report}", k.name);
        }
    }
}

// ---- corpus byte-pinning --------------------------------------------------

#[test]
fn stress_corpus_regenerates_byte_identically() {
    for (name, gen) in isax_gen::STRESS {
        let want = std::fs::read_to_string(format!("kernels/stress/{name}.isax")).unwrap();
        assert_eq!(gen(), want, "kernels/stress/{name}.isax drifted");
    }
}

#[test]
fn curated_corpus_regenerates_byte_identically() {
    for k in curated() {
        let path = format!("kernels/{}/{}.isax", k.domain, k.name);
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!((k.text)(), want, "{path} drifted");
    }
}

#[test]
fn gen_manifest_regenerates_byte_identically() {
    let text = std::fs::read_to_string("kernels/gen/MANIFEST.json").unwrap();
    let doc = isax_json::parse(&text).unwrap();
    let entries = doc.get("kernels").and_then(|v| v.as_array()).unwrap();
    assert!(!entries.is_empty());
    for e in entries {
        let file = e.get("file").and_then(|v| v.as_str()).unwrap();
        let cfg = GenConfig {
            seed: e.get("seed").and_then(|v| v.as_u64()).unwrap(),
            domain: GenDomain::parse(e.get("domain").and_then(|v| v.as_str()).unwrap()).unwrap(),
            blocks: e.get("blocks").and_then(|v| v.as_u64()).unwrap() as usize,
        };
        let want = std::fs::read_to_string(format!("kernels/gen/{file}")).unwrap();
        assert_eq!(generate(&cfg), want, "kernels/gen/{file} drifted");
        assert_eq!(
            format!("{}.isax", cfg.entry_name()),
            file,
            "manifest file name must encode its own recipe"
        );
    }
}

// ---- doctored faults: the oracle must catch a wrong rewrite ---------------

fn doctored_base() -> (Program, String) {
    let cfg = GenConfig {
        seed: 0,
        domain: GenDomain::Mixed,
        blocks: 6,
    };
    (
        isax_ir::parse_program(&generate(&cfg)).unwrap(),
        cfg.entry_name(),
    )
}

#[test]
fn doctored_return_is_caught_as_ic0501() {
    let (p, entry) = doctored_base();
    let mut q = p.clone();
    let last = q.functions[0].blocks.len() - 1;
    let Terminator::Ret(vals) = &mut q.functions[0].blocks[last].term else {
        panic!("generated kernels end in ret");
    };
    vals[0] = Operand::Imm(0x1234_5678);
    let report = check_differential(&p, &q, &entry, &seeded_args(0), &seeded_memory(0), FUEL);
    assert!(report.has_code("IC0501"), "{report}");
}

#[test]
fn doctored_store_is_caught_as_ic0502() {
    let k = isax_gen::curated_by_name("dijkstra_relax").unwrap();
    let p = isax_ir::parse_program(&(k.text)()).unwrap();
    let mut q = p.clone();
    let st = q.functions[0].blocks[0]
        .insts
        .iter_mut()
        .find(|i| i.opcode == Opcode::StW)
        .expect("dijkstra_relax stores every relaxed distance");
    st.srcs[0] = Operand::Imm(0x300);
    let args = (k.args)(5);
    let mut mem = Memory::new();
    (k.init_memory)(&mut mem, 5);
    let report = check_differential(&p, &q, k.name, &args, &mem, FUEL);
    assert!(report.has_code("IC0502"), "{report}");
}

#[test]
fn stripped_cfu_semantics_are_caught_as_ic0503() {
    let text = isax_gen::stress_kernel("deep_chain").unwrap();
    let p = isax_ir::parse_program(&text).unwrap();
    let cz = Customizer::new();
    let (mdes, _) = cz.customize("deep_chain", &p, BUDGET);
    let ev = cz.evaluate(&p, &mdes, MatchOptions::with_subsumed());
    let mut q = ev.compiled.program.clone();
    let id = *q
        .cfu_semantics
        .keys()
        .next()
        .expect("deep_chain always earns at least one CFU");
    q.cfu_semantics.remove(&id);
    let report = check_differential(&p, &q, "deep_chain", &[7, 9], &Memory::new(), FUEL);
    assert!(report.has_code("IC0503"), "{report}");
}

// ---- thread-count identity ------------------------------------------------

/// One seeded program per domain, compiled at 1 and at 4 threads: the
/// emitted assembly, the serialized MDES and the provenance report must
/// be byte-identical. (The override is process-global; this is the only
/// test in this binary that touches it, and it restores `None`.)
#[test]
fn artifacts_are_byte_identical_across_thread_counts() {
    fn artifacts(p: &Program, entry: &str) -> (String, String, String) {
        let _guard = isax_prov::enable();
        let cz = Customizer::new();
        let analysis = cz.analyze(p);
        let (mdes, sel) = cz.select(entry, &analysis, BUDGET);
        let ev = cz.evaluate(p, &mdes, MatchOptions::with_subsumed());
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
        let prov = isax::build_report(entry, &plog).to_string_pretty();
        (asm, mdes.to_json().unwrap(), prov)
    }

    for domain in GenDomain::ALL {
        let cfg = GenConfig {
            seed: 11,
            domain,
            blocks: 10,
        };
        let entry = cfg.entry_name();
        let p = isax_ir::parse_program(&generate(&cfg)).unwrap();
        isax_graph::par::set_thread_override(Some(1));
        let serial = artifacts(&p, &entry);
        isax_graph::par::set_thread_override(Some(4));
        let parallel = artifacts(&p, &entry);
        isax_graph::par::set_thread_override(None);
        assert_eq!(serial.0, parallel.0, "{entry}: compiled assembly");
        assert_eq!(serial.1, parallel.1, "{entry}: MDES JSON");
        assert_eq!(serial.2, parallel.2, "{entry}: provenance report");
    }
}
