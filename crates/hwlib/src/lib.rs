//! Hardware timing and area library for custom-function-unit synthesis.
//!
//! The paper's DFG space explorer consults "a hardware library \[that\]
//! provides timing and area numbers ... so that it can accurately gauge
//! the cycle time and area requirements of combined primitive operations"
//! (Fig. 1). The original numbers came from Synopsys characterization of a
//! 0.18 µ standard-cell library at a 300 MHz system clock; this crate
//! substitutes a static table calibrated to the values the paper quotes
//! (delays are **fractions of one clock cycle**, areas are **multiples of
//! one 32-bit ripple-carry adder**):
//!
//! | operation              | delay (cycles) | area (adders) |
//! |------------------------|----------------|---------------|
//! | add / sub              | 0.30           | 1.00          |
//! | compare                | 0.32           | 1.10          |
//! | and / or / xor / andn  | 0.05           | 0.12          |
//! | not                    | 0.02           | 0.06          |
//! | shift by constant      | 0.00           | 0.02          |
//! | shift by register      | 0.25           | 1.60          |
//! | multiply               | 1.80           | 17.00         |
//! | select (mux)           | 0.10           | 0.25          |
//! | move / extend          | 0.00–0.01      | 0.00–0.02     |
//!
//! Loads, stores, divides and custom operations report no cost: they are
//! not implementable inside a CFU (memory by the paper's stated
//! assumption; division because an iterative divider would dominate any
//! budget the study considers).
//!
//! The crate also carries the **baseline ISA latencies** ("similar to
//! those of the ARM-7") used for software-side cycle estimates, and
//! aggregate helpers that compute the latency/area of a whole candidate
//! subgraph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use isax_graph::DiGraph;
use isax_ir::{DfgLabel, Inst, Opcode};
/// Hardware cost of one primitive operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Propagation delay as a fraction of the 300 MHz clock cycle.
    pub delay: f64,
    /// Die area in units of one 32-bit ripple-carry adder.
    pub area: f64,
}

/// Timing/area library plus baseline ISA latencies.
///
/// # Example
///
/// ```
/// use isax_hwlib::HwLibrary;
/// use isax_ir::Opcode;
///
/// let hw = HwLibrary::micron_018();
/// let add = hw.cost(Opcode::Add, &[]).unwrap();
/// assert_eq!(add.area, 1.0);
/// // A shift by a constant is just wiring:
/// let shl = hw.cost(Opcode::Shl, &[(1, 4)]).unwrap();
/// assert_eq!(shl.delay, 0.0);
/// // Loads can never join a CFU:
/// assert!(hw.cost(Opcode::LdW, &[]).is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HwLibrary {
    /// Clock frequency the delays are normalized to, in MHz (informative).
    pub clock_mhz: u32,
    /// Cost of a load executed *inside* a custom function unit, when the
    /// §6 memory relaxation is enabled (`None` = loads are ineligible, the
    /// paper's evaluation setting). The delay models a deterministic
    /// on-chip data-SRAM hit; the area covers the unit's address
    /// generation and alignment muxing (the cache port itself is a shared
    /// machine resource, not CFU area).
    pub cfu_load: Option<OpCost>,
    /// Width-aware costing: when set, [`HwLibrary::cost_scaled`] shrinks
    /// an operation's delay/area by the inferred effective width of its
    /// operands (an 8-bit add is a quarter of a 32-bit ripple-carry
    /// chain). Off by default so every cost query reproduces the paper's
    /// full-width table bit-for-bit.
    pub width_aware: bool,
}

impl Default for HwLibrary {
    fn default() -> Self {
        Self::micron_018()
    }
}

impl HwLibrary {
    /// The 0.18 µ / 300 MHz library used throughout the evaluation.
    pub fn micron_018() -> Self {
        HwLibrary {
            clock_mhz: 300,
            cfu_load: None,
            width_aware: false,
        }
    }

    /// Returns the same library with width-aware costing switched on or
    /// off (builder style).
    pub fn with_width_aware(mut self, on: bool) -> Self {
        self.width_aware = on;
        self
    }

    /// The same library with the paper's §6 future-work relaxation: loads
    /// may join custom function units, costed as deterministic one-cycle
    /// SRAM accesses. Loads inside one unit share a single cache port, so
    /// the unit's latency is at least `load_count × delay` (see
    /// [`HwLibrary::subgraph_delay`]).
    pub fn micron_018_with_memory() -> Self {
        HwLibrary {
            clock_mhz: 300,
            cfu_load: Some(OpCost {
                delay: 1.0,
                area: 0.35,
            }),
            width_aware: false,
        }
    }

    /// Hardware cost of `op`, given the `(port, value)` immediates
    /// hardwired into the node (shifts by a constant are wiring).
    ///
    /// Returns `None` when the operation cannot be implemented inside a
    /// custom function unit (memory, division, custom).
    pub fn cost(&self, op: Opcode, imms: &[(u8, i64)]) -> Option<OpCost> {
        use Opcode::*;
        let c = |delay: f64, area: f64| Some(OpCost { delay, area });
        match op {
            Add | Sub => c(0.30, 1.00),
            Eq | Ne | Lt | Le | Gt | Ge | Ltu | Leu | Gtu | Geu => c(0.32, 1.10),
            And | Or | Xor | AndN => c(0.05, 0.12),
            Not => c(0.02, 0.06),
            Shl | Shr | Sar | Ror => {
                // Port 1 is the shift amount; a constant amount is wiring.
                if imms.iter().any(|&(p, _)| p == 1) {
                    c(0.00, 0.02)
                } else {
                    c(0.25, 1.60)
                }
            }
            Mul => c(1.80, 17.00),
            Select => c(0.10, 0.25),
            Mov => c(0.00, 0.00),
            SxtB | SxtH | ZxtB | ZxtH => c(0.01, 0.02),
            Div | Rem => None,
            LdB | LdBu | LdH | LdHu | LdW => self.cfu_load,
            StB | StH | StW => None,
            Custom(_) => None,
        }
    }

    /// Width-scaled hardware cost of `op`: like [`HwLibrary::cost`], but
    /// when [`HwLibrary::width_aware`] is set and the inferred effective
    /// operand width is below 32 bits, the cost shrinks with the width.
    ///
    /// The scaling model follows each primitive's dominant structure,
    /// with `f = width / 32`:
    ///
    /// * **carry chains** (add/sub, compares): delay ×f, area ×f — a
    ///   ripple-carry chain is linear in width in both dimensions;
    /// * **bitwise** (and/or/xor/andn/not, select, mov, extends): area
    ///   ×f, delay unchanged — per-bit cells in parallel;
    /// * **shifts**: area ×f, delay unchanged — fewer mux rows, same
    ///   logarithmic depth;
    /// * **multiply**: delay ×f, area ×f² — a partial-product array is
    ///   quadratic in width;
    /// * **loads** (memory relaxation): unchanged — the SRAM access time
    ///   does not depend on how many result bits the unit keeps.
    ///
    /// When width-aware mode is off, or `width >= 32`, this returns
    /// exactly [`HwLibrary::cost`] — the default pipeline never sees a
    /// scaled number.
    ///
    /// # Example
    ///
    /// ```
    /// use isax_hwlib::HwLibrary;
    /// use isax_ir::Opcode;
    ///
    /// let hw = HwLibrary::micron_018().with_width_aware(true);
    /// let full = hw.cost_scaled(Opcode::Add, &[], 32).unwrap();
    /// let byte = hw.cost_scaled(Opcode::Add, &[], 8).unwrap();
    /// assert_eq!(full.area, 1.0);
    /// assert_eq!(byte.area, 0.25);
    /// ```
    pub fn cost_scaled(&self, op: Opcode, imms: &[(u8, i64)], width: u8) -> Option<OpCost> {
        let base = self.cost(op, imms)?;
        if !self.width_aware || width >= 32 {
            return Some(base);
        }
        let f = f64::from(width.max(1)) / 32.0;
        use Opcode::*;
        let scaled = match op {
            Add | Sub | Eq | Ne | Lt | Le | Gt | Ge | Ltu | Leu | Gtu | Geu => OpCost {
                delay: base.delay * f,
                area: base.area * f,
            },
            And | Or | Xor | AndN | Not | Select | Mov | SxtB | SxtH | ZxtB | ZxtH => OpCost {
                delay: base.delay,
                area: base.area * f,
            },
            Shl | Shr | Sar | Ror => OpCost {
                delay: base.delay,
                area: base.area * f,
            },
            Mul => OpCost {
                delay: base.delay * f,
                area: base.area * f * f,
            },
            _ => base,
        };
        Some(scaled)
    }

    /// Width-scaled cost of a DFG node label (see
    /// [`HwLibrary::cost_scaled`]).
    pub fn cost_of_label_scaled(&self, label: &DfgLabel, width: u8) -> Option<OpCost> {
        self.cost_scaled(label.opcode, &label.imms, width)
    }

    /// Cost of a concrete instruction.
    pub fn cost_of_inst(&self, inst: &Inst) -> Option<OpCost> {
        let imms: Vec<(u8, i64)> = inst.imm_srcs().collect();
        self.cost(inst.opcode, &imms)
    }

    /// True if the operation may be included in a custom function unit.
    pub fn cfu_eligible(&self, op: Opcode) -> bool {
        self.cost(op, &[(1, 0)]).is_some() || self.cost(op, &[]).is_some()
    }

    /// Baseline (software) latency of an operation on the core processor,
    /// in cycles — "similar to those of the ARM-7".
    pub fn sw_latency(&self, op: Opcode) -> u32 {
        use Opcode::*;
        match op {
            Mul => 3,
            Div | Rem => 10,
            LdB | LdBu | LdH | LdHu | LdW => 2,
            Custom(_) => 1, // real latency comes from the machine description
            _ => 1,
        }
    }

    /// Baseline latency of a concrete instruction.
    pub fn sw_latency_of(&self, inst: &Inst) -> u32 {
        self.sw_latency(inst.opcode)
    }

    /// Aggregate fractional delay of a candidate subgraph: the longest
    /// data-dependence path through it, summing per-node delays.
    ///
    /// Returns `None` if any node is not implementable or the graph is
    /// cyclic.
    pub fn subgraph_delay(&self, g: &DiGraph<DfgLabel>) -> Option<f64> {
        self.subgraph_delay_widths(g, &[])
    }

    /// [`HwLibrary::subgraph_delay`] with per-node effective widths:
    /// `widths[i]` is the inferred width of pattern node `i` (nodes past
    /// the end of the slice count as full 32-bit). The plain variant
    /// passes an empty slice, so both run the identical code path and
    /// agree bit-for-bit when width-aware mode is off.
    pub fn subgraph_delay_widths(&self, g: &DiGraph<DfgLabel>, widths: &[u8]) -> Option<f64> {
        let order = g.topo_order()?;
        let costs: Vec<f64> = g
            .node_ids()
            .map(|n| {
                let w = widths.get(n.index()).copied().unwrap_or(32);
                self.cost_of_label_scaled(&g[n], w).map(|c| c.delay)
            })
            .collect::<Option<Vec<_>>>()?;
        let mut finish = vec![0.0f64; g.node_count()];
        let mut longest = 0.0f64;
        for n in order {
            let start = g
                .preds(n)
                .map(|e| finish[e.src.index()])
                .fold(0.0f64, f64::max);
            finish[n.index()] = start + costs[n.index()];
            longest = longest.max(finish[n.index()]);
        }
        // Loads inside a unit serialize through the single cache port.
        if let Some(load) = self.cfu_load {
            let loads = g.node_ids().filter(|&n| g[n].opcode.is_load()).count() as f64;
            longest = longest.max(loads * load.delay);
        }
        Some(longest)
    }

    /// Aggregate area of a candidate subgraph: the sum of node areas
    /// ("register file ports are a design constraint, thus they do not
    /// factor into the area").
    ///
    /// Returns `None` if any node is not implementable.
    pub fn subgraph_area(&self, g: &DiGraph<DfgLabel>) -> Option<f64> {
        self.subgraph_area_widths(g, &[])
    }

    /// [`HwLibrary::subgraph_area`] with per-node effective widths (see
    /// [`HwLibrary::subgraph_delay_widths`] for the slice convention).
    pub fn subgraph_area_widths(&self, g: &DiGraph<DfgLabel>, widths: &[u8]) -> Option<f64> {
        g.node_ids()
            .map(|n| {
                let w = widths.get(n.index()).copied().unwrap_or(32);
                self.cost_of_label_scaled(&g[n], w).map(|c| c.area)
            })
            .sum()
    }

    /// Number of execution cycles a pipelined CFU with the given
    /// fractional delay needs (at least one).
    pub fn cfu_cycles(&self, delay: f64) -> u32 {
        (delay.ceil() as u32).max(1)
    }
}

/// Rounds an area up to the nearest half adder, as the guide function's
/// area category requires ("a cost of 0.49 or 0.01 adders becomes 0.5"),
/// so tiny seeds are not penalized unfairly.
///
/// # Example
///
/// ```
/// use isax_hwlib::round_up_half_adder;
/// assert_eq!(round_up_half_adder(0.01), 0.5);
/// assert_eq!(round_up_half_adder(0.5), 0.5);
/// assert_eq!(round_up_half_adder(1.2), 1.5);
/// ```
pub fn round_up_half_adder(area: f64) -> f64 {
    let steps = (area / 0.5).ceil();
    (steps * 0.5).max(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_graph::DiGraph;

    fn hw() -> HwLibrary {
        HwLibrary::micron_018()
    }

    #[test]
    fn logicals_are_cheap_adders_are_not() {
        let and = hw().cost(Opcode::And, &[]).unwrap();
        let add = hw().cost(Opcode::Add, &[]).unwrap();
        assert!(and.delay < add.delay);
        assert!(and.area < add.area);
        // Roughly 6 logicals fit in one add's delay, per the paper's
        // observation that "many \[logicals\] can be executed in a single
        // cycle".
        assert!(3.0 * (1.0 / add.delay) < 1.0 / and.delay);
    }

    #[test]
    fn shift_cost_depends_on_operand_shape() {
        let wire = hw().cost(Opcode::Shl, &[(1, 7)]).unwrap();
        let barrel = hw().cost(Opcode::Shl, &[]).unwrap();
        assert_eq!(wire.delay, 0.0);
        assert!(barrel.delay > 0.0);
        assert!(barrel.area > wire.area);
        // A constant on port 0 (value shifted) does not make it wiring.
        let partial = hw().cost(Opcode::Shr, &[(0, 1)]).unwrap();
        assert_eq!(partial.delay, barrel.delay);
    }

    #[test]
    fn memory_and_division_are_ineligible() {
        assert!(hw().cost(Opcode::LdW, &[]).is_none());
        assert!(hw().cost(Opcode::StB, &[]).is_none());
        assert!(hw().cost(Opcode::Div, &[]).is_none());
        assert!(!hw().cfu_eligible(Opcode::LdW));
        assert!(!hw().cfu_eligible(Opcode::Div));
        assert!(hw().cfu_eligible(Opcode::Add));
        assert!(hw().cfu_eligible(Opcode::Shl));
    }

    #[test]
    fn sw_latencies_follow_arm7() {
        assert_eq!(hw().sw_latency(Opcode::Add), 1);
        assert_eq!(hw().sw_latency(Opcode::Mul), 3);
        assert_eq!(hw().sw_latency(Opcode::LdW), 2);
        assert_eq!(hw().sw_latency(Opcode::Div), 10);
    }

    fn label(op: Opcode, imms: &[(u8, i64)]) -> DfgLabel {
        DfgLabel {
            opcode: op,
            imms: imms.to_vec(),
        }
    }

    #[test]
    fn subgraph_delay_takes_critical_path() {
        // xor (0.05) -> shl#3 (0.0) -> or (0.05), with a parallel shr#29
        // branch. Critical path = 0.05 + 0.0 + 0.05 = 0.10.
        let mut g = DiGraph::new();
        let x = g.add_node(label(Opcode::Xor, &[]));
        let s1 = g.add_node(label(Opcode::Shl, &[(1, 3)]));
        let s2 = g.add_node(label(Opcode::Shr, &[(1, 29)]));
        let o = g.add_node(label(Opcode::Or, &[]));
        g.add_edge(x, s1, 0);
        g.add_edge(x, s2, 0);
        g.add_edge(s1, o, 0);
        g.add_edge(s2, o, 1);
        let d = hw().subgraph_delay(&g).unwrap();
        assert!((d - 0.10).abs() < 1e-9, "got {d}");
        let a = hw().subgraph_area(&g).unwrap();
        assert!((a - (0.12 + 0.02 + 0.02 + 0.12)).abs() < 1e-9);
        assert_eq!(hw().cfu_cycles(d), 1);
    }

    #[test]
    fn subgraph_with_memory_is_unimplementable() {
        let mut g = DiGraph::new();
        let l = g.add_node(label(Opcode::LdW, &[]));
        let a = g.add_node(label(Opcode::Add, &[]));
        g.add_edge(l, a, 0);
        assert!(hw().subgraph_delay(&g).is_none());
        assert!(hw().subgraph_area(&g).is_none());
    }

    #[test]
    fn cfu_cycles_rounds_up_and_is_at_least_one() {
        assert_eq!(hw().cfu_cycles(0.0), 1);
        assert_eq!(hw().cfu_cycles(0.9), 1);
        assert_eq!(hw().cfu_cycles(1.0), 1);
        assert_eq!(hw().cfu_cycles(1.01), 2);
        assert_eq!(hw().cfu_cycles(3.5), 4);
    }

    #[test]
    fn half_adder_rounding() {
        assert_eq!(round_up_half_adder(0.0), 0.5);
        assert_eq!(round_up_half_adder(0.49), 0.5);
        assert_eq!(round_up_half_adder(0.51), 1.0);
        assert_eq!(round_up_half_adder(2.0), 2.0);
    }

    #[test]
    fn memory_relaxation_prices_loads() {
        let hw = HwLibrary::micron_018_with_memory();
        let ld = hw.cost(Opcode::LdW, &[]).expect("loads priced");
        assert_eq!(ld.delay, 1.0);
        assert!(hw.cfu_eligible(Opcode::LdW));
        assert!(!hw.cfu_eligible(Opcode::StW), "stores stay excluded");
        // blowfish-style unit: extract chain -> load -> add.
        let mut g = DiGraph::new();
        let sh = g.add_node(label(Opcode::Shr, &[(1, 24)]));
        let sl = g.add_node(label(Opcode::Shl, &[(1, 2)]));
        let ad = g.add_node(label(Opcode::Add, &[(1, 0x2000)]));
        let ld = g.add_node(label(Opcode::LdW, &[]));
        let s0 = g.add_node(label(Opcode::Add, &[]));
        g.add_edge(sh, sl, 0);
        g.add_edge(sl, ad, 0);
        g.add_edge(ad, ld, 0);
        g.add_edge(ld, s0, 0);
        let d = hw.subgraph_delay(&g).unwrap();
        assert!((d - 1.6).abs() < 1e-9, "0.0 + 0.0 + 0.3 + 1.0 + 0.3 = {d}");
        assert_eq!(hw.cfu_cycles(d), 2);
        // The default library still refuses the same unit.
        assert!(HwLibrary::micron_018().subgraph_delay(&g).is_none());
    }

    #[test]
    fn cache_port_serializes_in_unit_loads() {
        let hw = HwLibrary::micron_018_with_memory();
        // Four parallel loads feeding a xor tree: path delay ~1.1 cycles
        // but four loads on one port take at least 4.
        let mut g = DiGraph::new();
        let lds: Vec<_> = (0..4)
            .map(|_| g.add_node(label(Opcode::LdW, &[])))
            .collect();
        let x0 = g.add_node(label(Opcode::Xor, &[]));
        let x1 = g.add_node(label(Opcode::Xor, &[]));
        let x2 = g.add_node(label(Opcode::Xor, &[]));
        g.add_edge(lds[0], x0, 0);
        g.add_edge(lds[1], x0, 1);
        g.add_edge(lds[2], x1, 0);
        g.add_edge(lds[3], x1, 1);
        g.add_edge(x0, x2, 0);
        g.add_edge(x1, x2, 1);
        let d = hw.subgraph_delay(&g).unwrap();
        assert!(d >= 4.0, "port serialization dominates: {d}");
    }

    #[test]
    fn width_scaling_shrinks_costs_only_when_enabled() {
        let off = hw();
        assert_eq!(
            off.cost_scaled(Opcode::Add, &[], 8),
            off.cost(Opcode::Add, &[]),
            "width-aware off: scaled cost is the plain cost"
        );
        let on = hw().with_width_aware(true);
        let byte = on.cost_scaled(Opcode::Add, &[], 8).unwrap();
        assert_eq!(byte.area, 0.25, "8-bit adder is a quarter carry chain");
        assert!((byte.delay - 0.30 * 0.25).abs() < 1e-12);
        // Bitwise ops: area scales, depth does not.
        let x = on.cost_scaled(Opcode::Xor, &[], 8).unwrap();
        assert_eq!(x.delay, 0.05);
        assert!((x.area - 0.12 * 0.25).abs() < 1e-12);
        // Multiplier area is quadratic in width.
        let m = on.cost_scaled(Opcode::Mul, &[], 16).unwrap();
        assert!((m.area - 17.0 * 0.25).abs() < 1e-12);
        assert!((m.delay - 1.80 * 0.5).abs() < 1e-12);
        // Full width stays exactly the table value even when enabled.
        assert_eq!(
            on.cost_scaled(Opcode::Add, &[], 32),
            on.cost(Opcode::Add, &[])
        );
        // Loads are width-independent (SRAM access time).
        let hwm = HwLibrary::micron_018_with_memory().with_width_aware(true);
        assert_eq!(hwm.cost_scaled(Opcode::LdW, &[], 8), hwm.cfu_load);
    }

    #[test]
    fn subgraph_widths_default_to_full_width() {
        let on = hw().with_width_aware(true);
        let mut g = DiGraph::new();
        let a = g.add_node(label(Opcode::Add, &[]));
        let b = g.add_node(label(Opcode::Add, &[]));
        g.add_edge(a, b, 0);
        // Empty slice = all 32-bit: identical to the plain query.
        assert_eq!(on.subgraph_delay_widths(&g, &[]), on.subgraph_delay(&g));
        assert_eq!(on.subgraph_area_widths(&g, &[]), Some(2.0));
        // One 8-bit node shrinks the totals; the missing entry is 32.
        let d = on.subgraph_delay_widths(&g, &[8]).unwrap();
        assert!((d - (0.30 * 0.25 + 0.30)).abs() < 1e-12);
        let ar = on.subgraph_area_widths(&g, &[8]).unwrap();
        assert!((ar - 1.25).abs() < 1e-12);
    }

    #[test]
    fn multiply_dominates_budgets() {
        let mul = hw().cost(Opcode::Mul, &[]).unwrap();
        assert!(mul.area > 15.0, "a 32-bit multiplier is worth many adders");
        assert!(mul.delay > 1.0, "and is pipelined over multiple cycles");
        assert_eq!(hw().cfu_cycles(mul.delay), 2);
    }
}
