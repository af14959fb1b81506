//! Dataflow-driven lints (`IC08xx`) and value-fact soundness checking.
//!
//! The lints consume the interval and known-bits fixpoints from
//! [`isax_ir::dataflow`] and flag code that is *suspicious but legal*:
//! shifts whose amount is provably out of the architectural range,
//! compares with a statically known outcome, definitions nothing reads,
//! operations that fold to a constant, and blocks no path reaches. All
//! lints are [`Severity::Warning`](crate::Severity::Warning)s — they never fail a checkpoint — so
//! `isax lint` can run over arbitrary kernels without gating the
//! pipeline.
//!
//! [`check_value_facts`] is the other direction: it *distrusts the
//! analysis* instead of the program. It replays an instrumented
//! interpreter run and demands that every concrete register definition
//! lie inside the statically computed interval and agree with the known
//! bits. A violation means the dataflow solver itself is unsound, which
//! is an [`Severity::Error`](crate::Severity::Error) (`IC0810`/`IC0811`).
//!
//! # Example
//!
//! ```
//! use isax_check::lint::lint_function;
//! use isax_ir::{analyze_function, FunctionBuilder};
//!
//! let mut fb = FunctionBuilder::new("f", 1);
//! let x = fb.param(0);
//! let b = fb.zxtb(x);          // b ∈ [0, 255]
//! let c = fb.ltu(b, 256i64);   // always true
//! fb.ret(&[c.into()]);
//! let f = fb.finish();
//!
//! let report = lint_function(&f, &analyze_function(&f));
//! assert!(report.has_code("IC0802"));
//! ```

use crate::diag::{Diagnostic, Location, Report};
use isax_ir::dataflow::{transfer_inst, Domain, Facts, Interval, KnownBits};
use isax_ir::{Function, Opcode, Operand, Program, VReg};
use isax_machine::{run_observed, Memory, Observation};
use std::collections::BTreeSet;

/// Opcodes whose second operand is a shift amount masked to 5 bits at
/// evaluation time.
fn is_shift(op: Opcode) -> bool {
    use Opcode::*;
    matches!(op, Shl | Shr | Sar | Ror)
}

/// Opcodes producing a 0/1 comparison result.
fn is_compare(op: Opcode) -> bool {
    use Opcode::*;
    matches!(op, Eq | Ne | Lt | Le | Gt | Ge | Ltu | Leu | Gtu | Geu)
}

fn code_loc(f: &Function, block: usize, inst: usize) -> Location {
    Location::Code {
        function: f.name.clone(),
        block: Some(block),
        inst: Some(inst),
    }
}

/// Abstract interval of one operand under `env`.
fn operand_interval(o: &Operand, env: &[Interval]) -> Interval {
    match o {
        Operand::Reg(r) => env[r.index()],
        Operand::Imm(v) => Interval::constant(*v as u32),
    }
}

/// `Some(c)` when the operand is provably the constant `c` under `env`.
fn operand_constant(o: &Operand, env: &[Interval]) -> Option<u32> {
    operand_interval(o, env).as_constant()
}

/// Registers read anywhere in the function: instruction source operands
/// plus terminator uses (branch conditions and return operands).
fn used_registers(f: &Function) -> BTreeSet<VReg> {
    let mut used = BTreeSet::new();
    for b in &f.blocks {
        for inst in &b.insts {
            for (_, r) in inst.reg_srcs() {
                used.insert(r);
            }
        }
        for r in b.term.uses() {
            used.insert(r);
        }
    }
    used
}

/// Lints one function against its dataflow fixpoints. Every finding is
/// a warning; the report is deterministic (blocks and instructions in
/// index order, one pass).
pub fn lint_function(f: &Function, facts: &Facts) -> Report {
    let mut report = Report::new();
    let used = used_registers(f);
    for (bi, b) in f.blocks.iter().enumerate() {
        let Some(entry_iv) = facts.intervals.entry[bi].as_ref() else {
            report.push(Diagnostic::warning(
                "IC0805",
                Location::Code {
                    function: f.name.clone(),
                    block: Some(bi),
                    inst: None,
                },
                format!("block b{bi} is unreachable from the entry"),
            ));
            continue;
        };
        let mut iv = entry_iv.clone();
        for (ii, inst) in b.insts.iter().enumerate() {
            let op = inst.opcode;
            if !op.is_memory() && !op.is_custom() {
                lint_inst(f, bi, ii, inst, &iv, &used, &mut report);
            } else if op.is_load() && dead_def(inst, &used) {
                report.push(Diagnostic::warning(
                    "IC0803",
                    code_loc(f, bi, ii),
                    format!("loaded value {} is never read", inst.dsts[0]),
                ));
            }
            transfer_inst(inst, &mut iv);
        }
    }
    report
}

/// True when every destination of a defining instruction is unread.
fn dead_def(inst: &isax_ir::Inst, used: &BTreeSet<VReg>) -> bool {
    !inst.dsts.is_empty() && inst.dsts.iter().all(|d| !used.contains(d))
}

/// The per-instruction lints for pure (non-memory, non-custom) ops.
fn lint_inst(
    f: &Function,
    bi: usize,
    ii: usize,
    inst: &isax_ir::Inst,
    iv: &[Interval],
    used: &BTreeSet<VReg>,
    report: &mut Report,
) {
    let op = inst.opcode;
    let all_const = inst.srcs.iter().all(|o| operand_constant(o, iv).is_some());
    if is_shift(op) {
        let amt = operand_interval(&inst.srcs[1], iv);
        if amt.lo >= 32 {
            report.push(Diagnostic::warning(
                "IC0801",
                code_loc(f, bi, ii),
                format!(
                    "shift amount is provably in [{}, {}]; hardware masks it to 5 bits",
                    amt.lo, amt.hi
                ),
            ));
        }
    }
    if is_compare(op) && !all_const {
        let args: Vec<Interval> = inst.srcs.iter().map(|o| operand_interval(o, iv)).collect();
        if let Some(c) = Interval::transfer(op, &args).as_constant() {
            let outcome = if c == 1 { "true" } else { "false" };
            report.push(Diagnostic::warning(
                "IC0802",
                code_loc(f, bi, ii),
                format!("comparison is always {outcome}"),
            ));
        }
    }
    if all_const && op != Opcode::Mov {
        report.push(Diagnostic::warning(
            "IC0804",
            code_loc(f, bi, ii),
            format!("{op} has all-constant operands and folds to a constant"),
        ));
    }
    if dead_def(inst, used) {
        report.push(Diagnostic::warning(
            "IC0803",
            code_loc(f, bi, ii),
            format!("definition of {} is never read", inst.dsts[0]),
        ));
    }
}

/// Lints every function of `p`, solving the dataflow analyses per
/// function and merging the per-function reports in program order.
pub fn lint_program(p: &Program) -> Report {
    let mut report = Report::new();
    for f in &p.functions {
        let facts = isax_ir::analyze_function(f);
        report.merge(lint_function(f, &facts));
    }
    report
}

/// Statically computed facts for one register definition site.
type SiteFacts = Vec<Vec<Vec<(VReg, Interval, KnownBits)>>>;

/// Post-state facts for every `(block, inst, dst)` of `f`, replayed from
/// the solved entry environments. Unreachable blocks get empty rows.
fn definition_facts(f: &Function, facts: &Facts) -> SiteFacts {
    f.blocks
        .iter()
        .enumerate()
        .map(|(bi, b)| {
            let (Some(iv0), Some(kb0)) = (
                facts.intervals.entry[bi].as_ref(),
                facts.bits.entry[bi].as_ref(),
            ) else {
                return vec![Vec::new(); b.insts.len()];
            };
            let mut iv = iv0.clone();
            let mut kb = kb0.clone();
            b.insts
                .iter()
                .map(|inst| {
                    transfer_inst(inst, &mut iv);
                    transfer_inst(inst, &mut kb);
                    inst.dsts
                        .iter()
                        .map(|d| (*d, iv[d.index()], kb[d.index()]))
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Runs `entry` under the instrumented interpreter and checks every
/// observed register definition against the static dataflow facts:
/// the concrete value must lie in the computed interval (`IC0810`) and
/// agree with the known bits (`IC0811`). Violations are errors — they
/// mean the analysis itself is unsound. Each `(block, inst, reg)` site
/// is reported at most once per code so loops cannot flood the report.
///
/// Execution failures are not this check's concern (the differential
/// checker owns them): a run that errors out yields a clean report for
/// the definitions observed up to the failure point.
pub fn check_value_facts(
    program: &Program,
    entry: &str,
    args: &[u32],
    mem: &Memory,
    fuel: u64,
) -> Report {
    let Some(f) = program.function(entry) else {
        return Report::new();
    };
    let facts = isax_ir::analyze_function(f);
    check_value_facts_with(program, entry, args, mem, fuel, &facts)
}

/// [`check_value_facts`] against externally supplied [`Facts`] — the
/// seam the tests use to prove the detector actually fires on unsound
/// fixpoints (the real solver never produces one).
pub fn check_value_facts_with(
    program: &Program,
    entry: &str,
    args: &[u32],
    mem: &Memory,
    fuel: u64,
    facts: &Facts,
) -> Report {
    let mut report = Report::new();
    let Some(f) = program.function(entry) else {
        return report;
    };
    let sites = definition_facts(f, facts);
    let reachable: Vec<bool> = facts.intervals.entry.iter().map(Option::is_some).collect();
    let mut seen: BTreeSet<(usize, usize, u32, u8)> = BTreeSet::new();
    let mut mem = mem.clone();
    let mut violations: Vec<Diagnostic> = Vec::new();
    let _ = run_observed(program, entry, args, &mut mem, fuel, |obs: Observation| {
        if !reachable[obs.block] {
            if seen.insert((obs.block, obs.inst, obs.reg.index() as u32, 0)) {
                violations.push(Diagnostic::error(
                    "IC0810",
                    Location::Code {
                        function: entry.to_string(),
                        block: Some(obs.block),
                        inst: Some(obs.inst),
                    },
                    format!(
                        "block b{} executed but the analysis marked it unreachable",
                        obs.block
                    ),
                ));
            }
            return;
        }
        let Some((_, iv, kb)) = sites[obs.block][obs.inst]
            .iter()
            .find(|(d, _, _)| *d == obs.reg)
        else {
            return;
        };
        if !iv.contains(obs.value) && seen.insert((obs.block, obs.inst, obs.reg.index() as u32, 1))
        {
            violations.push(Diagnostic::error(
                "IC0810",
                Location::Code {
                    function: entry.to_string(),
                    block: Some(obs.block),
                    inst: Some(obs.inst),
                },
                format!(
                    "observed {} = {} outside computed interval [{}, {}]",
                    obs.reg, obs.value, iv.lo, iv.hi
                ),
            ));
        }
        if !kb.contains(obs.value) && seen.insert((obs.block, obs.inst, obs.reg.index() as u32, 2))
        {
            violations.push(Diagnostic::error(
                "IC0811",
                Location::Code {
                    function: entry.to_string(),
                    block: Some(obs.block),
                    inst: Some(obs.inst),
                },
                format!(
                    "observed {} = {:#010x} contradicts known bits (known {:#010x}, value {:#010x})",
                    obs.reg, obs.value, kb.known, kb.value
                ),
            ));
        }
    });
    for d in violations {
        report.push(d);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_ir::{analyze_function, FunctionBuilder};

    fn lint(f: &Function) -> Report {
        lint_function(f, &analyze_function(f))
    }

    #[test]
    fn clean_kernel_lints_clean() {
        let mut fb = FunctionBuilder::new("clean", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let x = fb.xor(a, b);
        let y = fb.and(x, 0xFFi64);
        fb.ret(&[y.into()]);
        let f = fb.finish();
        let r = lint(&f);
        assert!(r.is_clean() && r.diagnostics().is_empty(), "{r}");
    }

    #[test]
    fn oversized_shift_amount_fires_ic0801() {
        let mut fb = FunctionBuilder::new("s", 1);
        let a = fb.param(0);
        let k = fb.or(a, 32i64); // provably ≥ 32
        let x = fb.shl(1i64, k);
        fb.ret(&[x.into()]);
        let f = fb.finish();
        assert!(lint(&f).has_code("IC0801"));
    }

    #[test]
    fn always_true_compare_fires_ic0802() {
        let mut fb = FunctionBuilder::new("c", 1);
        let a = fb.param(0);
        let b = fb.zxtb(a);
        let c = fb.ltu(b, 300i64);
        fb.ret(&[c.into()]);
        let f = fb.finish();
        assert!(lint(&f).has_code("IC0802"));
    }

    #[test]
    fn dead_definition_fires_ic0803() {
        let mut fb = FunctionBuilder::new("d", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let _dead = fb.add(a, b);
        fb.ret(&[a.into()]);
        let f = fb.finish();
        assert!(lint(&f).has_code("IC0803"));
    }

    #[test]
    fn constant_foldable_fires_ic0804_but_not_for_mov() {
        let mut fb = FunctionBuilder::new("k", 0);
        let x = fb.mov(6i64);
        let y = fb.mul(x, 7i64);
        fb.ret(&[y.into()]);
        let f = fb.finish();
        let r = lint(&f);
        assert!(r.has_code("IC0804"));
        // The mov itself is how constants are materialized — one finding.
        let folds = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == "IC0804")
            .count();
        assert_eq!(folds, 1);
    }

    #[test]
    fn unreachable_block_fires_ic0805() {
        let mut fb = FunctionBuilder::new("u", 1);
        let x = fb.param(0);
        let dead = fb.new_block(1);
        let live = fb.new_block(1);
        fb.jump(live);
        fb.switch_to(dead);
        fb.ret(&[]);
        fb.switch_to(live);
        fb.ret(&[x.into()]);
        let f = fb.finish();
        let r = lint(&f);
        assert!(r.has_code("IC0805"));
        let _ = dead;
    }

    #[test]
    fn lints_are_warnings_and_never_fail_enforce() {
        let mut fb = FunctionBuilder::new("w", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let _dead = fb.add(a, b);
        fb.ret(&[a.into()]);
        let f = fb.finish();
        let r = lint(&f);
        assert!(!r.diagnostics().is_empty());
        assert!(r.is_clean(), "warnings must not fail checkpoints");
        crate::enforce("lint-test", &r);
    }

    #[test]
    fn value_facts_hold_on_a_looping_kernel() {
        let mut fb = FunctionBuilder::new("loop", 1);
        let n = fb.param(0);
        let body = fb.new_block(10);
        let exit = fb.new_block(1);
        let i = fb.mov(0i64);
        let acc = fb.mov(0i64);
        fb.jump(body);
        fb.switch_to(body);
        let m = fb.and(i, 0xFi64);
        let acc2 = fb.add(acc, m);
        fb.copy_to(acc, acc2);
        let i2 = fb.add(i, 1i64);
        fb.copy_to(i, i2);
        let c = fb.ne(i, n);
        fb.branch(c, body, exit);
        fb.switch_to(exit);
        fb.ret(&[acc.into()]);
        let p = Program::new(vec![fb.finish()]);
        let r = check_value_facts(&p, "loop", &[9], &Memory::new(), 10_000);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn doctored_facts_trip_the_soundness_detector() {
        // `ret v0 + 1` with facts falsely claiming every register is the
        // constant 0: the observed sum must land outside [0, 0] (IC0810)
        // and contradict all-bits-known-zero (IC0811).
        let mut fb = FunctionBuilder::new("f", 1);
        let x = fb.param(0);
        let y = fb.add(x, 1i64);
        fb.ret(&[y.into()]);
        let p = Program::new(vec![fb.finish()]);
        let mut facts = analyze_function(&p.functions[0]);
        for env in facts.intervals.entry.iter_mut().flatten() {
            env.fill(Interval::constant(0));
        }
        for env in facts.bits.entry.iter_mut().flatten() {
            env.fill(KnownBits::constant(0));
        }
        let r = check_value_facts_with(&p, "f", &[41], &Memory::new(), 100, &facts);
        assert!(r.has_code("IC0810"), "{r}");
        assert!(r.has_code("IC0811"), "{r}");
        assert!(!r.is_clean(), "soundness violations are errors");
    }

    #[test]
    fn unknown_entry_is_not_this_checks_concern() {
        let p = Program::new(vec![]);
        let r = check_value_facts(&p, "missing", &[], &Memory::new(), 100);
        assert!(r.is_clean() && r.diagnostics().is_empty());
    }
}
