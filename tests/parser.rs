//! Parser round-trip across the whole benchmark suite plus randomized
//! programs: `parse(display(f)) == f`, and parsed kernels still execute
//! identically.

use isax_ir::{parse_function, parse_program, Program};
use isax_machine::{run, Memory};
use proptest::prelude::*;

#[test]
fn all_benchmark_kernels_round_trip() {
    for w in isax_workloads::all() {
        for f in &w.program.functions {
            let text = f.to_string();
            let back = parse_function(&text)
                .unwrap_or_else(|e| panic!("{} fails to re-parse: {e}\n{text}", w.name));
            assert_eq!(back.name, f.name, "{}", w.name);
            assert_eq!(back.params, f.params, "{}", w.name);
            assert_eq!(back.blocks, f.blocks, "{}", w.name);
        }
    }
}

#[test]
fn parsed_kernels_execute_identically() {
    for w in isax_workloads::all() {
        let text = w.program.functions_text();
        let parsed: Program = parse_program(&text).expect("parses");
        let mut mem_a = Memory::new();
        (w.init_memory)(&mut mem_a, 5);
        let mut mem_b = mem_a.clone();
        let args = (w.args)(5);
        let a = run(&w.program, w.entry, &args, &mut mem_a, 50_000_000).unwrap();
        let b = run(&parsed, w.entry, &args, &mut mem_b, 50_000_000).unwrap();
        assert_eq!(a.ret, b.ret, "{}", w.name);
        assert_eq!(mem_a, mem_b, "{}", w.name);
    }
}

#[test]
fn customized_programs_round_trip_modulo_semantics() {
    // Programs containing custom instructions print/parse too (the
    // semantics table itself travels via the MDES, not the text).
    let cz = isax::Customizer::new();
    let w = isax_workloads::by_name("blowfish").unwrap();
    let (mdes, _) = cz.customize(w.name, &w.program, 10.0);
    let ev = cz.evaluate(&w.program, &mdes, isax::MatchOptions::exact());
    for f in &ev.compiled.program.functions {
        let text = f.to_string();
        let back = parse_function(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back.blocks, f.blocks);
    }
}

/// Reconstruction of the recorded regression
/// (`parser.proptest-regressions`, case 18a38cfa): `nparams = 1`,
/// `weights = [1, 1, 1]`, `ops = [(0, 0, 0)]` — a three-block chain
/// whose last two blocks are empty except for their jumps, with a
/// single `add v1 = v0, #0`. Kept as a deterministic unit test because
/// the vendored proptest cannot replay upstream seeds.
#[test]
fn recorded_regression_empty_tail_blocks_round_trip() {
    let mut fb = isax_ir::FunctionBuilder::new("rand", 1);
    fb.set_entry_weight(1);
    let b1 = fb.new_block(1);
    let b2 = fb.new_block(1);
    let p0 = fb.param(0);
    let d = fb.add(p0, 0i64);
    fb.jump(b1);
    fb.switch_to(b1);
    fb.jump(b2);
    fb.switch_to(b2);
    fb.ret(&[d.into()]);
    let f = fb.finish();
    let text = f.to_string();
    let back = parse_function(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(back.to_string(), text);
    assert_eq!(back.blocks, f.blocks);
    assert_eq!(back.params, f.params);
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(64))]

    #[test]
    fn random_functions_round_trip(
        nparams in 1u32..5,
        weights in proptest::collection::vec(1u64..1_000_000, 1..4),
        ops in proptest::collection::vec((0usize..8, 0usize..6, -100i64..100), 1..30),
    ) {
        // Build a small CFG: entry plus `weights.len() - 1` extra blocks
        // joined linearly, instructions drawn from a fixed op menu.
        let mut fb = isax_ir::FunctionBuilder::new("rand", nparams);
        fb.set_entry_weight(weights[0]);
        let extra: Vec<_> = weights[1..].iter().map(|&w| fb.new_block(w)).collect();
        let mut pool: Vec<isax_ir::VReg> = (0..nparams).map(|i| fb.param(i as usize)).collect();
        let per_block = ops.len().div_ceil(weights.len()).max(1);
        let chunks: Vec<_> = ops.chunks(per_block).collect();
        for bi in 0..weights.len() {
            if let Some(chunk) = chunks.get(bi) {
                for &(which, pick, imm) in *chunk {
                    let r = pool[pick % pool.len()];
                    let d = match which {
                        0 => fb.add(r, imm),
                        1 => fb.xor(r, pool[(pick + 1) % pool.len()]),
                        2 => fb.shl(r, (imm & 31).abs()),
                        3 => fb.sub(r, imm),
                        4 => fb.not_(r),
                        5 => fb.ldw(r),
                        6 => fb.select(r, pool[(pick + 1) % pool.len()], imm),
                        _ => fb.mov(imm),
                    };
                    pool.push(d);
                }
            }
            if bi < extra.len() {
                fb.jump(extra[bi]);
                fb.switch_to(extra[bi]);
            }
        }
        let last = *pool.last().unwrap();
        fb.ret(&[last.into()]);
        let f = fb.finish();
        let text = f.to_string();
        let back = parse_function(&text).unwrap();
        prop_assert_eq!(back.to_string(), text);
        prop_assert_eq!(back.blocks, f.blocks);
        prop_assert_eq!(back.params, f.params);
    }
}
