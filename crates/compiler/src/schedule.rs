//! Operation list scheduling for the baseline VLIW.
//!
//! The evaluation machine is "a four-wide VLIW that can issue one integer,
//! one floating-point, one memory, and one branch instruction each cycle"
//! (§5). Custom function units "require an integer issue slot to execute,
//! thus an integer operation and a CFU cannot execute in the same cycle" —
//! this is what makes measured speedups attributable to the custom
//! instructions rather than to extra issue width. Multi-cycle CFUs are
//! pipelined (they hold the slot for one cycle; results arrive after their
//! latency).
//!
//! The scheduler is a classic cycle-driven list scheduler with
//! critical-path (height) priority, honouring data edges (producer
//! latency), memory ordering edges, and zero-latency anti/output edges.

use isax_guard::{Meter, Stage};
use isax_hwlib::HwLibrary;
use isax_ir::{Dfg, FuKind, Opcode, Terminator};
use std::collections::BTreeMap;

/// Issue-width description of the VLIW.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VliwModel {
    /// Integer ALU slots (shared by custom function units).
    pub int_slots: u8,
    /// Floating-point slots.
    pub float_slots: u8,
    /// Memory slots.
    pub mem_slots: u8,
    /// Branch slots.
    pub branch_slots: u8,
}

impl Default for VliwModel {
    fn default() -> Self {
        VliwModel {
            int_slots: 1,
            float_slots: 1,
            mem_slots: 1,
            branch_slots: 1,
        }
    }
}

impl VliwModel {
    fn slots(&self, fu: FuKind) -> u32 {
        match fu {
            FuKind::Int => self.int_slots as u32,
            FuKind::Float => self.float_slots as u32,
            FuKind::Mem => self.mem_slots as u32,
            FuKind::Branch => self.branch_slots as u32,
        }
    }
}

/// A scheduled basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSchedule {
    /// Issue cycle of each instruction (indexed like the block).
    pub issue: Vec<u32>,
    /// Total cycles the block occupies (including the terminator).
    pub cycles: u32,
}

/// Scheduling-relevant facts about one emitted custom opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustomOpInfo {
    /// Pipelined result latency in cycles (from the executing CFU).
    pub latency: u32,
    /// Loads inside the unit: the unit reserves the machine's single
    /// cache port for this many cycles from issue (§6 memory relaxation;
    /// zero for pure units).
    pub mem_reads: u32,
}

impl Default for CustomOpInfo {
    fn default() -> Self {
        CustomOpInfo {
            latency: 1,
            mem_reads: 0,
        }
    }
}

/// Scheduling facts for every custom opcode in a program.
pub type CustomInfo = BTreeMap<u16, CustomOpInfo>;

/// Latency of one instruction: custom latencies come from the machine
/// description via the semantic-id table, everything else from the
/// baseline ISA.
pub fn inst_latency(op: Opcode, hw: &HwLibrary, custom: &CustomInfo) -> u32 {
    match op {
        Opcode::Custom(id) => custom.get(&id).copied().unwrap_or_default().latency,
        _ => hw.sw_latency(op),
    }
}

/// Cache-port cycles an instruction reserves at issue.
fn mem_reads(op: Opcode, custom: &CustomInfo) -> u32 {
    match op {
        Opcode::Custom(id) => custom.get(&id).copied().unwrap_or_default().mem_reads,
        op if op.is_memory() => 1,
        _ => 0,
    }
}

/// Schedules one block's DFG onto the VLIW.
///
/// # Example
///
/// ```
/// use isax_compiler::{schedule_block, VliwModel};
/// use isax_hwlib::HwLibrary;
/// use isax_ir::{function_dfgs, FunctionBuilder};
///
/// // Three independent adds still take three cycles: one integer slot.
/// let mut fb = FunctionBuilder::new("f", 2);
/// let (a, b) = (fb.param(0), fb.param(1));
/// let x = fb.add(a, b);
/// let y = fb.add(a, b);
/// let z = fb.add(a, b);
/// fb.ret(&[x.into(), y.into(), z.into()]);
/// let f = fb.finish();
/// let dfgs = function_dfgs(&f);
///
/// let s = schedule_block(&dfgs[0], &f.blocks[0].term, &HwLibrary::micron_018(),
///                        &Default::default(), &VliwModel::default());
/// assert_eq!(s.cycles, 3);
/// ```
pub fn schedule_block(
    dfg: &Dfg,
    term: &Terminator,
    hw: &HwLibrary,
    custom: &CustomInfo,
    model: &VliwModel,
) -> BlockSchedule {
    let mut meter = Meter::unlimited(Stage::Schedule, 0);
    schedule_block_metered(dfg, term, hw, custom, model, &mut meter)
        .expect("an unlimited meter never stops")
}

/// [`schedule_block`] under a work-unit [`Meter`]: one unit per cycle the
/// list scheduler advances plus one per instruction issued. Returns `None`
/// when the meter refuses a charge — the partial schedule is discarded so
/// callers fall back to [`sequential_schedule_block`], which is cheap and
/// deterministic.
pub fn schedule_block_metered(
    dfg: &Dfg,
    term: &Terminator,
    hw: &HwLibrary,
    custom: &CustomInfo,
    model: &VliwModel,
    meter: &mut Meter,
) -> Option<BlockSchedule> {
    let n = dfg.len();
    let lat: Vec<u32> = (0..n)
        .map(|v| inst_latency(dfg.inst(v).opcode, hw, custom))
        .collect();
    // Height priority: longest path to any sink.
    let mut height = vec![0u32; n];
    for v in (0..n).rev() {
        let mut h = lat[v];
        for &(d, _) in dfg.data_succs(v) {
            h = h.max(lat[v] + height[d]);
        }
        for &d in dfg.order_succs(v) {
            h = h.max(lat[v] + height[d]);
        }
        for &d in dfg.anti_succs(v) {
            h = h.max(height[d]);
        }
        height[v] = h;
    }
    let mut issue = vec![u32::MAX; n];
    let mut scheduled = 0usize;
    let mut cycle = 0u32;
    let mut max_finish = 0u32;
    // Memory-bearing custom units reserve the cache port past their issue
    // cycle (§6 relaxation): nothing may use the Mem slot before this.
    let mut mem_reserved_until = 0u32;
    while scheduled < n {
        // One work unit per cycle the scheduler considers.
        if !meter.charge(1) {
            return None;
        }
        // Capacity per FU kind this cycle.
        let mut free: BTreeMap<FuKind, u32> = BTreeMap::new();
        for fu in [FuKind::Int, FuKind::Float, FuKind::Mem, FuKind::Branch] {
            free.insert(fu, model.slots(fu));
        }
        if cycle < mem_reserved_until {
            free.insert(FuKind::Mem, 0);
        }
        // Ready ops, best height first (stable on index). Issuing an op
        // can make an anti-dependent op ready *in the same cycle*
        // (read-before-write), so iterate to a fixpoint within the cycle.
        loop {
            let mut ready: Vec<usize> = (0..n)
                .filter(|&v| issue[v] == u32::MAX && ready_at(dfg, v, &issue, &lat) <= cycle)
                .collect();
            ready.sort_by_key(|&v| (std::cmp::Reverse(height[v]), v));
            let mut progressed = false;
            for v in ready {
                let op = dfg.inst(v).opcode;
                let fu = op.fu();
                let reads = mem_reads(op, custom);
                // A memory-bearing custom needs its Int slot *and* the
                // cache port.
                let needs_mem = fu != FuKind::Mem && reads > 0;
                if needs_mem && *free.get(&FuKind::Mem).unwrap() == 0 {
                    continue;
                }
                let slots = free.get_mut(&fu).expect("all kinds present");
                if *slots > 0 {
                    // One work unit per instruction issued.
                    if !meter.charge(1) {
                        return None;
                    }
                    *slots -= 1;
                    issue[v] = cycle;
                    max_finish = max_finish.max(cycle + lat[v]);
                    scheduled += 1;
                    progressed = true;
                    if needs_mem {
                        *free.get_mut(&FuKind::Mem).unwrap() = 0;
                        mem_reserved_until = mem_reserved_until.max(cycle + reads);
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        cycle += 1;
        // Safety: cycle can never exceed serial issue plus max latency.
        debug_assert!(
            cycle as usize <= n * 12 + 16,
            "scheduler failed to progress"
        );
    }
    // The block ends when every result has landed, every operation has
    // issued, and — for conditional branches — the branch has issued a
    // cycle after its condition became available. Jumps and returns ride
    // in the final bundle's branch slot for free.
    let last_issue = issue.iter().copied().max().unwrap_or(0);
    let term_ready = term_ready_at(dfg, term, &issue, &lat);
    let cycles = if n == 0 {
        1
    } else {
        max_finish.max(last_issue + 1).max(term_ready + 1)
    };
    Some(BlockSchedule { issue, cycles })
}

/// Cycle by which the terminator's condition (if any) has landed: the last
/// in-block definition of the branch register, plus its latency.
fn term_ready_at(dfg: &Dfg, term: &Terminator, issue: &[u32], lat: &[u32]) -> u32 {
    match term {
        Terminator::Branch { cond, .. } => {
            // Last definition of the condition register in this block.
            (0..dfg.len())
                .rev()
                .find(|&v| dfg.inst(v).dsts.contains(cond))
                .map(|v| issue[v] + lat[v])
                .unwrap_or(0)
        }
        Terminator::Jump(_) | Terminator::Ret(_) => 0,
    }
}

/// Degradation fallback: a purely sequential schedule that issues one
/// instruction per cycle in program order, leaving full latency (and cache
/// port reservation) gaps between consecutive issues.
///
/// It is legal by construction — program order respects every data, memory
/// ordering, and anti edge inside a block, each bundle holds one
/// instruction, and memory-port windows cannot overlap because the issue
/// pointer advances by at least `mem_reads` each step. Crucially it needs
/// no search, so it is computed in O(n) with **zero** work units, and it is
/// a pure function of the block — `isax-check` recomputes it exactly when
/// a schedule-stage degradation names the enclosing function.
pub fn sequential_schedule_block(
    dfg: &Dfg,
    term: &Terminator,
    hw: &HwLibrary,
    custom: &CustomInfo,
) -> BlockSchedule {
    let n = dfg.len();
    let lat: Vec<u32> = (0..n)
        .map(|v| inst_latency(dfg.inst(v).opcode, hw, custom))
        .collect();
    let mut issue = vec![0u32; n];
    let mut t = 0u32;
    let mut max_finish = 0u32;
    for v in 0..n {
        issue[v] = t;
        max_finish = max_finish.max(t + lat[v]);
        let op = dfg.inst(v).opcode;
        t += lat[v].max(1).max(mem_reads(op, custom));
    }
    let last_issue = issue.last().copied().unwrap_or(0);
    let term_ready = term_ready_at(dfg, term, &issue, &lat);
    let cycles = if n == 0 {
        1
    } else {
        max_finish.max(last_issue + 1).max(term_ready + 1)
    };
    BlockSchedule { issue, cycles }
}

fn ready_at(dfg: &Dfg, v: usize, issue: &[u32], lat: &[u32]) -> u32 {
    let mut t = 0;
    for &(u, _) in dfg.data_preds(v) {
        if issue[u] == u32::MAX {
            return u32::MAX;
        }
        t = t.max(issue[u] + lat[u]);
    }
    for &u in dfg.order_preds(v) {
        if issue[u] == u32::MAX {
            return u32::MAX;
        }
        t = t.max(issue[u] + lat[u]);
    }
    for &u in dfg.anti_preds(v) {
        if issue[u] == u32::MAX {
            return u32::MAX;
        }
        t = t.max(issue[u]);
    }
    t
}

/// [`function_cycles_metered`] computed entirely with
/// [`sequential_schedule_block`]: the deterministic degradation fallback
/// used when the list scheduler's work budget runs out mid-function.
pub fn sequential_function_cycles(
    f: &isax_ir::Function,
    hw: &HwLibrary,
    custom: &CustomInfo,
) -> (u64, Vec<u32>) {
    let dfgs = isax_ir::function_dfgs(f);
    let mut total = 0u64;
    let mut per_block = Vec::with_capacity(dfgs.len());
    for (bi, dfg) in dfgs.iter().enumerate() {
        let s = sequential_schedule_block(dfg, &f.blocks[bi].term, hw, custom);
        per_block.push(s.cycles);
        total += s.cycles as u64 * f.blocks[bi].weight;
    }
    (total, per_block)
}

/// Estimated cycle count of a whole function under a work-unit
/// [`Meter`]: Σ blocks (schedule length × profile weight). This is the
/// paper's performance metric; speedup is the ratio of two estimates.
///
/// Degradation is at **function granularity**: if the meter stops —
/// in any block, or already on entry (an injected exhaustion) — the
/// whole function is recomputed with [`sequential_function_cycles`], so
/// `meter.exhausted()` tells the caller which estimate it got. This keeps the degraded output a pure function of the IR (independent
/// of *where* in the function the budget ran dry mid-schedule), which is
/// what lets `isax-check` verify it by exact recomputation.
pub fn function_cycles_metered(
    f: &isax_ir::Function,
    hw: &HwLibrary,
    custom: &CustomInfo,
    model: &VliwModel,
    meter: &mut Meter,
) -> (u64, Vec<u32>) {
    meter.touch();
    let dfgs = isax_ir::function_dfgs(f);
    let mut total = 0u64;
    let mut per_block = Vec::with_capacity(dfgs.len());
    for (bi, dfg) in dfgs.iter().enumerate() {
        let Some(s) = schedule_block_metered(dfg, &f.blocks[bi].term, hw, custom, model, meter)
        else {
            break;
        };
        per_block.push(s.cycles);
        total += s.cycles as u64 * f.blocks[bi].weight;
    }
    if meter.exhausted() {
        return sequential_function_cycles(f, hw, custom);
    }
    (total, per_block)
}

/// The terminator is not represented in the DFG; re-export of the type for
/// downstream convenience.
pub type BlockTerminator = Terminator;

#[cfg(test)]
mod tests {
    use super::*;
    use isax_ir::{function_dfgs, FunctionBuilder};

    fn hw() -> HwLibrary {
        HwLibrary::micron_018()
    }

    fn none() -> CustomInfo {
        CustomInfo::new()
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut fb = FunctionBuilder::new("f", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let x = fb.add(a, b);
        let y = fb.add(x, b);
        let z = fb.add(y, b);
        fb.ret(&[z.into()]);
        let f = fb.finish();
        let dfgs = function_dfgs(&f);
        let s = schedule_block(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &none(),
            &VliwModel::default(),
        );
        assert_eq!(s.cycles, 3);
        assert_eq!(s.issue, vec![0, 1, 2]);
    }

    #[test]
    fn memory_overlaps_with_integer() {
        // load (2 cycles) in the mem slot while adds use the int slot.
        let mut fb = FunctionBuilder::new("f", 2);
        let (p, b) = (fb.param(0), fb.param(1));
        let v = fb.ldw(p); // mem slot, 2 cycles
        let x = fb.add(b, b); // int slot, independent
        let y = fb.add(x, b);
        let z = fb.add(v, y);
        fb.ret(&[z.into()]);
        let f = fb.finish();
        let dfgs = function_dfgs(&f);
        let s = schedule_block(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &none(),
            &VliwModel::default(),
        );
        // ld@0 (done at 2), add@0, add@1, add@2 -> ends at 3.
        assert_eq!(s.cycles, 3);
        assert_eq!(s.issue[0], 0);
        assert_eq!(s.issue[1], 0, "int op issues alongside the load");
    }

    #[test]
    fn custom_op_occupies_int_slot() {
        let mut fb = FunctionBuilder::new("f", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        // Hand-place a custom op and an add: they cannot dual-issue.
        fb.push(isax_ir::Inst::new(
            Opcode::Custom(0),
            vec![isax_ir::VReg(2)],
            vec![a.into(), b.into()],
        ));
        let x = fb.add(a, b);
        fb.ret(&[x.into(), isax_ir::VReg(2).into()]);
        let f = fb.finish();
        let dfgs = function_dfgs(&f);
        let mut lat = CustomInfo::new();
        lat.insert(
            0u16,
            CustomOpInfo {
                latency: 1,
                mem_reads: 0,
            },
        );
        let s = schedule_block(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &lat,
            &VliwModel::default(),
        );
        assert_ne!(s.issue[0], s.issue[1], "one integer slot only");
        assert_eq!(s.cycles, 2);
    }

    #[test]
    fn pipelined_custom_latency_is_respected() {
        let mut fb = FunctionBuilder::new("f", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        fb.push(isax_ir::Inst::new(
            Opcode::Custom(0),
            vec![isax_ir::VReg(2)],
            vec![a.into(), b.into()],
        ));
        let y = fb.add(isax_ir::VReg(2), b); // depends on the custom op
        fb.ret(&[y.into()]);
        let f = fb.finish();
        let dfgs = function_dfgs(&f);
        let mut lat = CustomInfo::new();
        lat.insert(
            0u16,
            CustomOpInfo {
                latency: 3,
                mem_reads: 0,
            },
        );
        let s = schedule_block(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &lat,
            &VliwModel::default(),
        );
        assert_eq!(s.issue[1], 3, "consumer waits for the 3-cycle CFU");
        assert_eq!(s.cycles, 4);
    }

    #[test]
    fn memory_bearing_custom_reserves_the_cache_port() {
        // cfu0 contains two loads; an independent ldw cannot issue until
        // the unit releases the port.
        let mut fb = FunctionBuilder::new("f", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        fb.push(isax_ir::Inst::new(
            Opcode::Custom(0),
            vec![isax_ir::VReg(2)],
            vec![a.into(), b.into()],
        ));
        let _x = fb.ldw(b);
        fb.ret(&[isax_ir::VReg(2).into()]);
        let f = fb.finish();
        let dfgs = function_dfgs(&f);
        let mut info = CustomInfo::new();
        info.insert(
            0u16,
            CustomOpInfo {
                latency: 2,
                mem_reads: 2,
            },
        );
        let s = schedule_block(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &info,
            &VliwModel::default(),
        );
        assert_eq!(s.issue[0], 0, "custom issues first");
        assert!(
            s.issue[1] >= 2,
            "the load waits for the reserved port, issued at {}",
            s.issue[1]
        );
        // A pure custom releases the port immediately.
        let mut pure = CustomInfo::new();
        pure.insert(
            0u16,
            CustomOpInfo {
                latency: 2,
                mem_reads: 0,
            },
        );
        let s2 = schedule_block(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &pure,
            &VliwModel::default(),
        );
        assert_eq!(s2.issue[1], 0, "load dual-issues with the pure custom");
    }

    #[test]
    fn anti_dependence_allows_same_cycle_but_not_earlier() {
        let mut fb = FunctionBuilder::new("f", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let _x = fb.ldw(a); // 0: mem slot, reads a
        fb.copy_to(a, b); // 1: int slot, redefines a (anti 0 -> 1)
        fb.ret(&[a.into()]);
        let f = fb.finish();
        let dfgs = function_dfgs(&f);
        let s = schedule_block(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &none(),
            &VliwModel::default(),
        );
        // Different slots: both can go in cycle 0 (read-before-write).
        assert_eq!(s.issue[0], 0);
        assert_eq!(s.issue[1], 0);
    }

    #[test]
    fn empty_block_takes_one_cycle() {
        let mut fb = FunctionBuilder::new("f", 0);
        fb.ret(&[]);
        let f = fb.finish();
        let dfgs = function_dfgs(&f);
        let s = schedule_block(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &none(),
            &VliwModel::default(),
        );
        assert_eq!(s.cycles, 1);
    }

    #[test]
    fn function_cycles_weights_blocks() {
        let mut fb = FunctionBuilder::new("f", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let heavy = fb.new_block(100);
        let exit = fb.new_block(1);
        let x = fb.add(a, b); // entry: 1 inst
        fb.jump(heavy);
        fb.switch_to(heavy);
        let y = fb.add(x, b);
        let z = fb.add(y, b);
        fb.jump(exit);
        fb.switch_to(exit);
        fb.ret(&[z.into()]);
        let f = fb.finish();
        let mut meter = Meter::unlimited(Stage::Schedule, 0);
        let (total, per_block) =
            function_cycles_metered(&f, &hw(), &none(), &VliwModel::default(), &mut meter);
        assert!(!meter.exhausted());
        assert_eq!(per_block.len(), 3);
        assert_eq!(
            total,
            (per_block[0] as u64) + per_block[1] as u64 * 100 + per_block[2] as u64
        );
    }

    #[test]
    fn metered_schedule_matches_unmetered_when_budget_suffices() {
        let mut fb = FunctionBuilder::new("f", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let x = fb.add(a, b);
        let y = fb.add(x, b);
        let z = fb.add(y, b);
        fb.ret(&[z.into()]);
        let f = fb.finish();
        let dfgs = function_dfgs(&f);
        let plain = schedule_block(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &none(),
            &VliwModel::default(),
        );
        let mut meter = Meter::with_limit(Stage::Schedule, 0, 1_000);
        let metered = schedule_block_metered(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &none(),
            &VliwModel::default(),
            &mut meter,
        )
        .expect("budget suffices");
        assert_eq!(plain, metered);
        // 3 cycles advanced + 3 instructions issued.
        assert_eq!(meter.spent(), 6);
    }

    #[test]
    fn metered_schedule_exhausts_and_sequential_fallback_is_legal() {
        let mut fb = FunctionBuilder::new("f", 2);
        let (p, b) = (fb.param(0), fb.param(1));
        let v = fb.ldw(p);
        let x = fb.add(b, b);
        let y = fb.add(x, v);
        fb.ret(&[y.into()]);
        let f = fb.finish();
        let dfgs = function_dfgs(&f);
        let mut meter = Meter::with_limit(Stage::Schedule, 0, 2);
        assert!(schedule_block_metered(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &none(),
            &VliwModel::default(),
            &mut meter,
        )
        .is_none());
        assert!(meter.exhausted());
        let s = sequential_schedule_block(&dfgs[0], &f.blocks[0].term, &hw(), &none());
        // One instruction per cycle, in program order, with latency gaps:
        // every consumer issues at or after its producer's finish time.
        for v in 0..dfgs[0].len() {
            for &(u, _) in dfgs[0].data_preds(v) {
                let lat_u = inst_latency(dfgs[0].inst(u).opcode, &hw(), &none());
                assert!(s.issue[v] >= s.issue[u] + lat_u);
            }
        }
        let list = schedule_block(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &none(),
            &VliwModel::default(),
        );
        assert!(
            s.cycles >= list.cycles,
            "fallback never beats the list scheduler"
        );
    }

    #[test]
    fn function_cycles_metered_degrades_to_sequential_whole_function() {
        let mut fb = FunctionBuilder::new("f", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let exit = fb.new_block(1);
        let x = fb.add(a, b);
        let y = fb.add(x, b);
        fb.jump(exit);
        fb.switch_to(exit);
        let z = fb.add(y, b);
        fb.ret(&[z.into()]);
        let f = fb.finish();
        let mut meter = Meter::with_limit(Stage::Schedule, 0, 3);
        let (total, per_block) =
            function_cycles_metered(&f, &hw(), &none(), &VliwModel::default(), &mut meter);
        assert!(meter.exhausted());
        let (seq_total, seq_pb) = sequential_function_cycles(&f, &hw(), &none());
        assert_eq!((total, per_block), (seq_total, seq_pb));
        // Ample budget reproduces the unmetered result exactly.
        let mut wide = Meter::with_limit(Stage::Schedule, 0, 10_000);
        let (t2, pb2) =
            function_cycles_metered(&f, &hw(), &none(), &VliwModel::default(), &mut wide);
        let mut unlimited = Meter::unlimited(Stage::Schedule, 0);
        let (t0, pb0) =
            function_cycles_metered(&f, &hw(), &none(), &VliwModel::default(), &mut unlimited);
        assert!(!wide.exhausted() && !unlimited.exhausted());
        assert_eq!((t2, pb2), (t0, pb0));
    }

    #[test]
    fn wider_machine_exploits_parallelism() {
        let mut fb = FunctionBuilder::new("f", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let x = fb.add(a, b);
        let y = fb.sub(a, b);
        let z = fb.xor(a, b);
        fb.ret(&[x.into(), y.into(), z.into()]);
        let f = fb.finish();
        let dfgs = function_dfgs(&f);
        let narrow = schedule_block(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &none(),
            &VliwModel::default(),
        );
        let wide = schedule_block(
            &dfgs[0],
            &f.blocks[0].term,
            &hw(),
            &none(),
            &VliwModel {
                int_slots: 3,
                ..VliwModel::default()
            },
        );
        assert_eq!(narrow.cycles, 3);
        assert_eq!(wide.cycles, 1);
    }
}
