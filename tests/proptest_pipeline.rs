//! Property-based fuzzing of the entire customization pipeline.
//!
//! Random programs (arbitrary opcode mixes, shared registers,
//! immediates, loads/stores with conservative ordering, loops) are
//! customized at random budgets; the rewritten program must verify and
//! must compute exactly what the original computes on random inputs.

use isax::{Customizer, MatchOptions};
use isax_ir::{FunctionBuilder, Opcode, Program, VReg};
use isax_machine::{run, Memory};
use proptest::prelude::*;

/// Opcodes the generator draws from (everything the interpreter defines,
/// minus custom).
const OPS: [Opcode; 24] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::AndN,
    Opcode::Not,
    Opcode::Shl,
    Opcode::Shr,
    Opcode::Sar,
    Opcode::Ror,
    Opcode::Eq,
    Opcode::Ne,
    Opcode::Lt,
    Opcode::Ltu,
    Opcode::Ge,
    Opcode::Geu,
    Opcode::Select,
    Opcode::Mov,
    Opcode::SxtB,
    Opcode::ZxtH,
    Opcode::LdW,
    Opcode::StW,
];

#[derive(Debug, Clone)]
struct GenInst {
    op_idx: usize,
    src_picks: [usize; 3],
    imm: i64,
    use_imm: bool,
}

fn gen_inst() -> impl Strategy<Value = GenInst> {
    (
        0..OPS.len(),
        [0..64usize, 0..64usize, 0..64usize],
        -64i64..64i64,
        any::<bool>(),
    )
        .prop_map(|(op_idx, src_picks, imm, use_imm)| GenInst {
            op_idx,
            src_picks,
            imm,
            use_imm,
        })
}

/// Builds a one-block program from the generated instruction recipe.
/// Register operands are drawn from the pool of previously defined
/// registers (so dataflow chains form), plus the four parameters.
fn build_program(insts: &[GenInst]) -> Program {
    let mut fb = FunctionBuilder::new("fuzz", 4);
    fb.set_entry_weight(1_000);
    let mut pool: Vec<VReg> = (0..4).map(|i| fb.param(i)).collect();
    for g in insts {
        let op = OPS[g.op_idx];
        let pick = |k: usize, pool: &[VReg]| pool[g.src_picks[k] % pool.len()];
        let r0 = pick(0, &pool);
        let r1 = pick(1, &pool);
        let r2 = pick(2, &pool);
        let d = match op {
            Opcode::Select => Some(fb.select(r0, r1, r2)),
            Opcode::StW => {
                // Keep stores in a small window so loads can observe them.
                let addr = fb.and(r0, 0xFCi64);
                fb.stw(addr, r1);
                Some(addr)
            }
            Opcode::LdW => {
                let addr = fb.and(r0, 0xFCi64);
                Some(fb.ldw(addr))
            }
            op if op.arity() == 1 => Some(match op {
                Opcode::Not => fb.not_(r0),
                Opcode::Mov => fb.mov(r0),
                Opcode::SxtB => fb.sxtb(r0),
                Opcode::ZxtH => fb.zxth(r0),
                _ => unreachable!(),
            }),
            _ => {
                // Binary op, optionally with an immediate second operand.
                let second: isax_ir::Operand = if g.use_imm { g.imm.into() } else { r1.into() };
                Some(match op {
                    Opcode::Add => fb.add(r0, second),
                    Opcode::Sub => fb.sub(r0, second),
                    Opcode::Mul => fb.mul(r0, second),
                    Opcode::And => fb.and(r0, second),
                    Opcode::Or => fb.or(r0, second),
                    Opcode::Xor => fb.xor(r0, second),
                    Opcode::AndN => fb.andn(r0, second),
                    Opcode::Shl => fb.shl(r0, second),
                    Opcode::Shr => fb.shr(r0, second),
                    Opcode::Sar => fb.sar(r0, second),
                    Opcode::Ror => fb.ror(r0, second),
                    Opcode::Eq => fb.eq(r0, second),
                    Opcode::Ne => fb.ne(r0, second),
                    Opcode::Lt => fb.lt(r0, second),
                    Opcode::Ltu => fb.ltu(r0, second),
                    Opcode::Ge => fb.ge(r0, second),
                    Opcode::Geu => fb.geu(r0, second),
                    _ => unreachable!(),
                })
            }
        };
        if let Some(d) = d {
            pool.push(d);
        }
    }
    // Return the last four defined values: plenty of live-outs.
    let rets: Vec<isax_ir::Operand> = pool.iter().rev().take(4).map(|&r| r.into()).collect();
    fb.ret(&rets);
    Program::new(vec![fb.finish()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(96))]

    #[test]
    fn customization_preserves_semantics(
        insts in proptest::collection::vec(gen_inst(), 3..40),
        budget in 0.5f64..20.0,
        args in proptest::array::uniform4(any::<u32>()),
        subsumed in any::<bool>(),
        wildcard in any::<bool>(),
    ) {
        let p = build_program(&insts);
        prop_assert!(isax_ir::verify_program(&p).is_ok());
        let cz = Customizer::new();
        let analysis = cz.analyze(&p);
        let (mdes, sel) = cz.select("fuzz", &analysis, budget);
        let matching = MatchOptions {
            mode: if wildcard { isax::MatchMode::Wildcard } else { isax::MatchMode::Exact },
            allow_subsumed: subsumed,
        };
        let ev = cz.evaluate(&p, &mdes, matching);
        // The stages contain worker panics; an internal bug must still
        // fail the fuzzer rather than hide behind a fallback result.
        isax::reraise_contained(
            &[&analysis.report.degradations[..], &sel.report.degradations, &ev.compiled.report.degradations].concat(),
        );
        prop_assert!(isax_ir::verify_program(&ev.compiled.program).is_ok());
        prop_assert!(ev.custom_cycles <= ev.baseline_cycles,
            "custom instructions never slow the estimate");

        let mut mem_a = Memory::new();
        let mut mem_b = Memory::new();
        let a = run(&p, "fuzz", &args, &mut mem_a, 1_000_000).unwrap();
        let b = run(&ev.compiled.program, "fuzz", &args, &mut mem_b, 1_000_000).unwrap();
        prop_assert_eq!(a.ret, b.ret, "outputs must not change");
        prop_assert_eq!(mem_a, mem_b, "memory must not change");
    }

    #[test]
    fn exploration_is_deterministic(
        insts in proptest::collection::vec(gen_inst(), 3..25),
    ) {
        let p = build_program(&insts);
        let cz = Customizer::new();
        let a1 = cz.analyze(&p);
        let a2 = cz.analyze(&p);
        prop_assert_eq!(a1.stats.examined, a2.stats.examined);
        prop_assert_eq!(a1.cfus.len(), a2.cfus.len());
        let (m1, s1) = cz.select("fuzz", &a1, 10.0);
        let (m2, _) = cz.select("fuzz", &a2, 10.0);
        isax::reraise_contained(&[&a1.report.degradations[..], &s1.report.degradations].concat());
        prop_assert_eq!(m1.to_json().unwrap(), m2.to_json().unwrap());
    }
}
