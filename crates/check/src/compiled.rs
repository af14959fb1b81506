//! Checkpoint 4: post-replacement and schedule soundness (`IC04xx`).
//!
//! After pattern matching rewrites blocks around `cfu` opcodes, the
//! customized program must still be the same computation, and its cycle
//! estimate must come from a legal schedule. This pass checks:
//!
//! * `IC01xx` — the customized program still passes the full IR
//!   verifier (re-run here; replacement is the stage most likely to
//!   break flow-sensitive definedness);
//! * `IC0401` — **no dropped definitions**: every register that was
//!   live out of a block and defined inside it in the original program
//!   is still defined in the corresponding customized block;
//! * `IC0402` — every applied match names a CFU present in the MDES;
//! * `IC0403` — every `cfu` opcode in the customized code has latency
//!   and memory-access metadata in the compiler's `CustomInfo`;
//! * `IC0404` / `IC0405` — the recomputed block schedules are **legal**:
//!   per-cycle functional-unit capacity and cache-port reservations are
//!   respected (`IC0404`), and every dependence edge's latency is
//!   honoured (`IC0405`);
//! * `IC0406` — the recomputed per-block cycle counts equal the ones
//!   the compiler reported (the numbers behind every speedup claim);
//! * `IC0601` — every schedule-stage degradation record names a function
//!   that exists.
//!
//! Degraded-but-sound results stay clean: when the resource guard cut a
//! function's list scheduling short, the compiler falls back to the
//! deterministic sequential schedule, and this pass recomputes *that*
//! schedule for the function a degradation record names — schedule
//! legality (`IC0404`/`IC0405`) and cycle-count agreement (`IC0406`) are
//! enforced either way. Governance may make results incomplete, never
//! unsound.

use isax_compiler::{
    schedule_block, sequential_schedule_block, CompiledProgram, CustomInfo, Mdes, VliwModel,
};
use isax_guard::Stage;
use isax_hwlib::HwLibrary;
use isax_ir::{function_dfgs, FuKind, Function, Opcode, Program};

use crate::diag::{Diagnostic, Location, Report};
use crate::program::check_program;

/// Checks a compiled (customized) program against the original it was
/// derived from and the machine description it was compiled for.
pub fn check_compiled(
    original: &Program,
    compiled: &CompiledProgram,
    mdes: &Mdes,
    hw: &HwLibrary,
    model: &VliwModel,
) -> Report {
    let mut report = check_program(&compiled.program);

    for m in &compiled.applied {
        if mdes.cfu(m.cfu).is_none() {
            report.push(Diagnostic::error(
                "IC0402",
                Location::Cfu { id: m.cfu },
                format!(
                    "applied match in block {} names a CFU absent from the MDES",
                    m.block
                ),
            ));
        }
    }

    for d in &compiled.report.degradations {
        if d.stage == Stage::Schedule && d.item as usize >= compiled.program.functions.len() {
            report.push(Diagnostic::error(
                "IC0601",
                Location::Whole,
                format!(
                    "schedule degradation names function {} but the program has {}",
                    d.item,
                    compiled.program.functions.len()
                ),
            ));
        }
    }

    if original.functions.len() != compiled.program.functions.len() {
        report.push(Diagnostic::error(
            "IC0401",
            Location::Whole,
            format!(
                "customization changed the function count from {} to {}",
                original.functions.len(),
                compiled.program.functions.len()
            ),
        ));
        return report;
    }

    for (orig, new) in original.functions.iter().zip(&compiled.program.functions) {
        check_function(orig, new, compiled, hw, model, &mut report);
    }

    if compiled.program.functions.len() != compiled.block_cycles.len() {
        report.push(Diagnostic::error(
            "IC0406",
            Location::Whole,
            format!(
                "block_cycles covers {} functions, program has {}",
                compiled.block_cycles.len(),
                compiled.program.functions.len()
            ),
        ));
    }
    report
}

fn check_function(
    orig: &Function,
    new: &Function,
    compiled: &CompiledProgram,
    hw: &HwLibrary,
    model: &VliwModel,
    report: &mut Report,
) {
    if orig.blocks.len() != new.blocks.len() {
        report.push(Diagnostic::error(
            "IC0401",
            Location::Code {
                function: new.name.clone(),
                block: None,
                inst: None,
            },
            format!(
                "customization changed the block count from {} to {}",
                orig.blocks.len(),
                new.blocks.len()
            ),
        ));
        return;
    }

    // Escaping definitions must survive replacement: a register live out
    // of block b and defined in the original block b must still be
    // defined in the customized block b. (Values absorbed *inside* a
    // pattern legitimately disappear — they are not live out.)
    let live = orig.liveness();
    for (bi, (ob, nb)) in orig.blocks.iter().zip(&new.blocks).enumerate() {
        let new_defs: std::collections::BTreeSet<_> = nb.defs().collect();
        for r in ob.defs() {
            if live.live_out[bi].contains(&r) && !new_defs.contains(&r) {
                report.push(Diagnostic::error(
                    "IC0401",
                    Location::Code {
                        function: new.name.clone(),
                        block: Some(bi),
                        inst: None,
                    },
                    format!("live-out register {r} lost its definition during replacement"),
                ));
            }
        }
        for inst in &nb.insts {
            if let Opcode::Custom(id) = inst.opcode {
                if !compiled.custom_info.contains_key(&id) {
                    report.push(Diagnostic::error(
                        "IC0403",
                        Location::Code {
                            function: new.name.clone(),
                            block: Some(bi),
                            inst: None,
                        },
                        format!("cfu{id} has no latency/memory metadata in CustomInfo"),
                    ));
                }
            }
        }
    }

    check_schedules(new, compiled, hw, model, report);
}

/// Recomputes each block's schedule and validates it independently.
fn check_schedules(
    f: &Function,
    compiled: &CompiledProgram,
    hw: &HwLibrary,
    model: &VliwModel,
    report: &mut Report,
) {
    let fi = match compiled
        .program
        .functions
        .iter()
        .position(|g| g.name == f.name)
    {
        Some(fi) => fi,
        None => return,
    };
    // A function that a schedule-stage degradation record names was
    // emitted with the deterministic sequential fallback; recompute that
    // instead of the list schedule so IC0406 compares like with like.
    let degraded = compiled
        .report
        .degradations
        .iter()
        .any(|d| d.stage == Stage::Schedule && d.item as usize == fi);
    let dfgs = function_dfgs(f);
    for (bi, dfg) in dfgs.iter().enumerate() {
        let sched = if degraded {
            sequential_schedule_block(dfg, &f.blocks[bi].term, hw, &compiled.custom_info)
        } else {
            schedule_block(dfg, &f.blocks[bi].term, hw, &compiled.custom_info, model)
        };
        validate_schedule(
            f,
            bi,
            dfg,
            &sched.issue,
            sched.cycles,
            hw,
            &compiled.custom_info,
            model,
            report,
        );
        let reported = compiled
            .block_cycles
            .get(fi)
            .and_then(|blocks| blocks.get(bi))
            .copied();
        if reported != Some(sched.cycles) {
            report.push(Diagnostic::error(
                "IC0406",
                Location::Code {
                    function: f.name.clone(),
                    block: Some(bi),
                    inst: None,
                },
                format!(
                    "compiler reported {reported:?} cycles, rescheduling gives {}",
                    sched.cycles
                ),
            ));
        }
    }
}

fn slots(model: &VliwModel, fu: FuKind) -> u32 {
    match fu {
        FuKind::Int => model.int_slots as u32,
        FuKind::Float => model.float_slots as u32,
        FuKind::Mem => model.mem_slots as u32,
        FuKind::Branch => model.branch_slots as u32,
    }
}

fn mem_reads(op: Opcode, custom: &CustomInfo) -> u32 {
    match op {
        Opcode::Custom(id) => custom.get(&id).map_or(0, |i| i.mem_reads),
        _ => {
            if op.is_memory() {
                1
            } else {
                0
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn validate_schedule(
    f: &Function,
    bi: usize,
    dfg: &isax_ir::Dfg,
    issue: &[u32],
    cycles: u32,
    hw: &HwLibrary,
    custom: &CustomInfo,
    model: &VliwModel,
    report: &mut Report,
) {
    let n = dfg.len();
    let loc = |inst: Option<usize>| Location::Code {
        function: f.name.clone(),
        block: Some(bi),
        inst,
    };
    let lat: Vec<u32> = (0..n)
        .map(|v| isax_compiler::inst_latency(dfg.inst(v).opcode, hw, custom))
        .collect();

    // Dependence legality.
    for v in 0..n {
        for &(u, _) in dfg.data_preds(v) {
            if issue[v] < issue[u] + lat[u] {
                report.push(Diagnostic::error(
                    "IC0405",
                    loc(Some(v)),
                    format!(
                        "issued at cycle {} but data predecessor {u} finishes at {}",
                        issue[v],
                        issue[u] + lat[u]
                    ),
                ));
            }
        }
        for &u in dfg.order_preds(v) {
            if issue[v] < issue[u] + lat[u] {
                report.push(Diagnostic::error(
                    "IC0405",
                    loc(Some(v)),
                    format!(
                        "issued at cycle {} but memory predecessor {u} finishes at {}",
                        issue[v],
                        issue[u] + lat[u]
                    ),
                ));
            }
        }
        for &u in dfg.anti_preds(v) {
            if issue[v] < issue[u] {
                report.push(Diagnostic::error(
                    "IC0405",
                    loc(Some(v)),
                    format!(
                        "issued at cycle {} before anti-dependence predecessor {u} at {}",
                        issue[v], issue[u]
                    ),
                ));
            }
        }
        if issue[v] + lat[v] > cycles {
            report.push(Diagnostic::error(
                "IC0405",
                loc(Some(v)),
                format!(
                    "finishes at cycle {} past the block's {} cycles",
                    issue[v] + lat[v],
                    cycles
                ),
            ));
        }
    }

    // Per-cycle capacity per functional-unit kind.
    let mut per_cycle: std::collections::BTreeMap<(u32, FuKind), u32> = Default::default();
    for (v, &cycle) in issue.iter().enumerate() {
        let fu = dfg.inst(v).opcode.fu();
        *per_cycle.entry((cycle, fu)).or_insert(0) += 1;
    }
    for (&(cycle, fu), &count) in &per_cycle {
        if count > slots(model, fu) {
            report.push(Diagnostic::error(
                "IC0404",
                loc(None),
                format!(
                    "cycle {cycle} issues {count} {fu:?} operations but the machine has {}",
                    slots(model, fu)
                ),
            ));
        }
    }

    // Cache-port reservation of memory-bearing custom units (§6): after
    // such a unit issues, no memory operation may issue strictly inside
    // its read window.
    for v in 0..n {
        let op = dfg.inst(v).opcode;
        let reads = mem_reads(op, custom);
        if op.fu() == FuKind::Mem || reads == 0 {
            continue;
        }
        for m in 0..n {
            let mop = dfg.inst(m).opcode;
            let mem_fu = mop.fu() == FuKind::Mem;
            let mem_custom = m != v && mop.fu() != FuKind::Mem && mem_reads(mop, custom) > 0;
            if (mem_fu || mem_custom) && issue[m] > issue[v] && issue[m] < issue[v] + reads {
                report.push(Diagnostic::error(
                    "IC0404",
                    loc(Some(m)),
                    format!(
                        "memory access at cycle {} inside cfu cache-port reservation [{}, {})",
                        issue[m],
                        issue[v],
                        issue[v] + reads
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_compiler::{baseline_cycles, compile, CompileOptions, MatchOptions};
    use isax_ir::FunctionBuilder;

    fn kernel() -> Program {
        let mut fb = FunctionBuilder::new("kern", 3);
        fb.set_entry_weight(50_000);
        let (a, b, k) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.xor(a, k);
        let l = fb.shl(t, 5i64);
        let r = fb.shr(t, 27i64);
        let rot = fb.or(l, r);
        let m = fb.and(rot, b);
        let s = fb.add(m, k);
        let u = fb.xor(s, b);
        fb.ret(&[u.into()]);
        Program::new(vec![fb.finish()])
    }

    fn compile_kernel() -> (Program, CompiledProgram, Mdes, HwLibrary, VliwModel) {
        let p = kernel();
        let hw = HwLibrary::micron_018();
        let model = VliwModel::default();
        let dfgs: Vec<isax_ir::Dfg> = p.functions.iter().flat_map(function_dfgs).collect();
        let result = isax_explore::explore_app(&dfgs, &hw, &Default::default());
        let mut cfus = isax_select::combine(&dfgs, &result.candidates, &hw);
        isax_select::mark_subsumptions(&mut cfus, 64);
        let sel = isax_select::select_greedy(&cfus, &isax_select::SelectConfig::with_budget(15.0));
        let mdes = Mdes::from_selection("kern", &cfus, &sel, &hw, 64);
        let compiled = compile(
            &p,
            &mdes,
            &hw,
            &CompileOptions {
                matching: MatchOptions::exact(),
                model,
            },
        );
        (p, compiled, mdes, hw, model)
    }

    #[test]
    fn compiled_kernel_is_sound() {
        let (p, compiled, mdes, hw, model) = compile_kernel();
        assert!(!compiled.applied.is_empty(), "expected at least one match");
        let baseline = baseline_cycles(&p, &hw, &model);
        assert!(compiled.cycles < baseline);
        let report = check_compiled(&p, &compiled, &mdes, &hw, &model);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn unknown_applied_cfu_is_rejected() {
        let (p, mut compiled, mdes, hw, model) = compile_kernel();
        if let Some(m) = compiled.applied.first_mut() {
            m.cfu = 999;
        }
        let report = check_compiled(&p, &compiled, &mdes, &hw, &model);
        assert!(report.has_code("IC0402"), "{report}");
    }

    #[test]
    fn dropped_live_out_definition_is_rejected() {
        let (p, mut compiled, mdes, hw, model) = compile_kernel();
        // Force a live-out mismatch: add a loop so the entry block has a
        // live-out def, then drop that def from the "customized" copy.
        let _ = &mut compiled;
        // Simpler: truncate the customized return block's instructions so
        // the value feeding `ret` loses its definition.
        let f = &mut compiled.program.functions[0];
        let last = f.blocks[0].insts.len() - 1;
        f.blocks[0].insts.remove(last);
        let report = check_compiled(&p, &compiled, &mdes, &hw, &model);
        assert!(!report.is_clean());
    }

    #[test]
    fn stale_cycle_counts_are_rejected() {
        let (p, mut compiled, mdes, hw, model) = compile_kernel();
        compiled.block_cycles[0][0] += 1;
        let report = check_compiled(&p, &compiled, &mdes, &hw, &model);
        assert!(report.has_code("IC0406"), "{report}");
    }

    #[test]
    fn budget_degraded_schedule_is_accepted() {
        use isax_compiler::compile_guarded;
        use isax_guard::Guard;
        let p = kernel();
        let hw = HwLibrary::micron_018();
        let model = VliwModel::default();
        // A 2-unit schedule budget forces the sequential fallback.
        let compiled = compile_guarded(
            &p,
            &Mdes::baseline(),
            &hw,
            &CompileOptions {
                matching: MatchOptions::exact(),
                model,
            },
            &Guard::unlimited().with_units(2),
        );
        assert!(compiled
            .report
            .degradations
            .iter()
            .any(|d| d.stage == Stage::Schedule && d.item == 0));
        let report = check_compiled(&p, &compiled, &Mdes::baseline(), &hw, &model);
        assert!(report.is_clean(), "sound-but-degraded must pass: {report}");
    }

    #[test]
    fn degradation_naming_a_missing_function_is_rejected() {
        let (p, mut compiled, mdes, hw, model) = compile_kernel();
        compiled.report.degradations.push(isax_guard::Degradation {
            stage: Stage::Schedule,
            item: 7,
            kind: isax_guard::DegradationKind::Panicked,
            units_spent: 0,
            limit: None,
            detail: "phantom".into(),
        });
        let report = check_compiled(&p, &compiled, &mdes, &hw, &model);
        assert!(report.has_code("IC0601"), "{report}");
    }

    #[test]
    fn tampered_degraded_cycles_are_still_rejected() {
        use isax_compiler::compile_guarded;
        use isax_guard::Guard;
        let p = kernel();
        let hw = HwLibrary::micron_018();
        let model = VliwModel::default();
        let mut compiled = compile_guarded(
            &p,
            &Mdes::baseline(),
            &hw,
            &CompileOptions {
                matching: MatchOptions::exact(),
                model,
            },
            &Guard::unlimited().with_units(2),
        );
        compiled.block_cycles[0][0] += 1;
        let report = check_compiled(&p, &compiled, &Mdes::baseline(), &hw, &model);
        assert!(report.has_code("IC0406"), "{report}");
    }

    #[test]
    fn missing_custom_info_is_rejected() {
        let (p, mut compiled, mdes, hw, model) = compile_kernel();
        if compiled.applied.is_empty() {
            return;
        }
        compiled.custom_info.clear();
        let report = check_compiled(&p, &compiled, &mdes, &hw, &model);
        assert!(report.has_code("IC0403"), "{report}");
    }
}
