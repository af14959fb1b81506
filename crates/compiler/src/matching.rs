//! CFU pattern matching in application dataflow graphs.
//!
//! "Discovering the subgraphs in the DFG can be viewed as the subgraph
//! isomorphism problem ... To perform subgraph identification, the vflib
//! graph matching library is employed" (§4.1). Here the `isax-graph` VF2
//! engine plays vflib's role. Matching runs in three generality levels:
//!
//! * **exact** — node labels (opcode + hardwired immediates) must agree;
//! * **subsumed** — the contraction closure of each CFU is matched too and
//!   mapped onto the subsuming hardware (identity inputs);
//! * **wildcard** — node compatibility relaxes to opcode *classes*,
//!   modelling multifunction CFUs (Figures 8 and 9).
//!
//! Every reported match is convex (replaceable), within the machine's
//! port limits, and annotated with its estimated cycle savings.

use crate::mdes::Mdes;
use isax_graph::{canon, vf2, BitSet, DiGraph};
use isax_guard::{Degradation, Guard, Meter, Stage};
use isax_hwlib::HwLibrary;
use isax_ir::{Dfg, DfgLabel};
use std::collections::HashMap;
/// Node-compatibility level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// Opcode and immediates must match exactly.
    #[default]
    Exact,
    /// Opcode classes match (multifunction hardware); immediates
    /// generalize.
    Wildcard,
}

/// Matching configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchOptions {
    /// Node-compatibility level.
    pub mode: MatchMode,
    /// Also match each CFU's contraction closure (subsumed subgraphs).
    pub allow_subsumed: bool,
}

impl MatchOptions {
    /// Exact matching only — the baseline compiler configuration.
    pub fn exact() -> Self {
        MatchOptions::default()
    }

    /// Exact plus subsumed-subgraph matching.
    pub fn with_subsumed() -> Self {
        MatchOptions::from_flags(true, false)
    }

    /// Opcode-class wildcards plus subsumed matching — the most general
    /// configuration in Figures 8/9.
    pub fn generalized() -> Self {
        MatchOptions::from_flags(true, true)
    }

    /// The options the `--subsumed` and `--wildcard` switches (and the
    /// wire request's `subsumed`/`wildcard` fields) select.
    pub fn from_flags(subsumed: bool, wildcard: bool) -> Self {
        MatchOptions {
            mode: if wildcard {
                MatchMode::Wildcard
            } else {
                MatchMode::Exact
            },
            allow_subsumed: subsumed,
        }
    }
}

/// One legal occurrence of a CFU in a block's dataflow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternMatch {
    /// The CFU this subgraph executes on.
    pub cfu: u16,
    /// Block index (within the function's DFG list).
    pub block: usize,
    /// Covered instruction indices.
    pub nodes: BitSet,
    /// `mapping[p]` = DFG node matched to pattern node `p`.
    pub mapping: Vec<usize>,
    /// The concrete pattern that matched (the CFU's own pattern or one of
    /// its contractions).
    pub pattern: DiGraph<DfgLabel>,
    /// True when the match came from the contraction closure.
    pub via_subsumption: bool,
    /// True when every matched node's label equals the pattern's exactly
    /// (a wildcard-mode match may happen to be exact; exact matches are
    /// preferred during prioritization so generalization never displaces
    /// a perfect fit).
    pub is_exact: bool,
    /// Estimated cycles saved: block weight × (software cycles − CFU
    /// latency).
    pub savings: u64,
}

/// Cap on matches enumerated per (pattern, block); prevents pathological
/// blow-ups on highly regular blocks.
const MATCH_CAP: usize = 512;

/// Matcher work statistics: how often the VF2 engine actually ran versus
/// how often the compat-key prefilter proved no embedding could exist.
///
/// Per-job statistics are summed at the parallel join point in input
/// order, so the totals are identical run-to-run regardless of thread
/// count — safe to include in compared artifacts such as
/// `BENCH_pipeline.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// VF2 searches actually performed.
    pub vf2_calls: u64,
    /// (pattern, block) pairs skipped by the multiset prefilter.
    pub prefilter_skips: u64,
    /// Pairs skipped because the pattern was larger than the block.
    pub size_skips: u64,
    /// Legal matches reported (after convexity/port/savings filters).
    pub matches_found: u64,
}

impl MatchStats {
    /// Accumulates another job's statistics.
    pub fn merge(&mut self, other: &MatchStats) {
        self.vf2_calls += other.vf2_calls;
        self.prefilter_skips += other.prefilter_skips;
        self.size_skips += other.size_skips;
        self.matches_found += other.matches_found;
    }
}

/// The compat-key multiset prefilter, exposed for soundness testing: true
/// when `pattern`'s key multiset is contained in `target`'s, i.e. when a
/// VF2 embedding *may* exist. [`find_matches`] skips the VF2 call exactly
/// when this returns false, so this returning false for any pattern VF2
/// would have matched is a matcher bug (see
/// `crates/compiler/tests/proptest_matching.rs`).
pub fn prefilter_admits(
    mode: MatchMode,
    pattern: &DiGraph<DfgLabel>,
    target: &DiGraph<DfgLabel>,
) -> bool {
    let pattern_counts = key_counts(mode, pattern.node_ids().map(|n| &pattern[n]));
    let target_counts = key_counts(
        mode,
        target
            .node_ids()
            .map(|n| &target[n])
            .filter(|l| !l.opcode.is_custom() && !l.opcode.is_store()),
    );
    could_embed(&pattern_counts, &target_counts)
}

/// Coarse label key such that `compatible(mode, p, t)` implies
/// `compat_key(mode, p) == compat_key(mode, t)`. Used by the multiset
/// prefilter: a pattern whose key multiset is not contained in the
/// block's cannot match, so its VF2 call is skipped entirely.
fn compat_key(mode: MatchMode, l: &DfgLabel) -> u64 {
    // Memory nodes require exact opcode equality in every mode.
    if l.opcode.is_memory() {
        return canon::hash_str(&format!("mem:{}", l.opcode.mnemonic()));
    }
    match mode {
        MatchMode::Exact => l.key(),
        MatchMode::Wildcard => {
            // Mirrors `DfgLabel::matches_class`: opcode class plus the
            // immediate *ports* (values generalize away).
            let mut s = format!("cls:{:?}", l.opcode.class());
            for (p, _) in &l.imms {
                s.push('#');
                s.push_str(&p.to_string());
            }
            canon::hash_str(&s)
        }
    }
}

/// Counts compatibility keys over a set of labels.
fn key_counts<'a>(
    mode: MatchMode,
    labels: impl Iterator<Item = &'a DfgLabel>,
) -> HashMap<u64, usize> {
    let mut m = HashMap::new();
    for l in labels {
        *m.entry(compat_key(mode, l)).or_insert(0) += 1;
    }
    m
}

/// True when every pattern key occurs in the target at least as often —
/// a necessary condition for any VF2 embedding to exist.
fn could_embed(pattern: &HashMap<u64, usize>, target: &HashMap<u64, usize>) -> bool {
    pattern
        .iter()
        .all(|(k, &c)| target.get(k).copied().unwrap_or(0) >= c)
}

fn compatible(mode: MatchMode, p: &DfgLabel, t: &DfgLabel) -> bool {
    if t.opcode.is_custom() || t.opcode.is_store() {
        return false;
    }
    // Loads appear in patterns only when the hardware library enables the
    // §6 memory relaxation; they never generalize (an `ldb` unit cannot
    // service an `ldw`), so memory nodes require exact equality in every
    // mode.
    if p.opcode.is_memory() || t.opcode.is_memory() {
        return p.opcode == t.opcode;
    }
    match mode {
        MatchMode::Exact => p.matches_exact(t),
        MatchMode::Wildcard => p.matches_class(t),
    }
}

/// One matchable pattern of a CFU: the graph, whether it comes from the
/// contraction closure (a subsumed shape), and its label-key multiset
/// for the [`could_embed`] prefilter.
type PreparedPattern<'a> = (&'a DiGraph<DfgLabel>, bool, HashMap<u64, usize>);

/// Finds every legal match of every CFU in the given function DFGs.
///
/// Matches are returned grouped by CFU number (the MDES order), ready
/// for [`crate::prioritize::prioritize`]. Ungoverned; a contained worker
/// panic is re-raised, since the result has no degradation records.
///
/// # Example
///
/// ```
/// use isax_compiler::{find_matches, MatchOptions, Mdes};
/// use isax_hwlib::HwLibrary;
/// use isax_ir::function_dfgs;
/// # use isax_explore::{explore_app, ExploreConfig};
/// # use isax_select::{combine, select_greedy, SelectConfig};
/// # let mut fb = isax_ir::FunctionBuilder::new("k", 2);
/// # fb.set_entry_weight(100);
/// # let (a, b) = (fb.param(0), fb.param(1));
/// # let t = fb.xor(a, b);
/// # let u = fb.add(t, b);
/// # fb.ret(&[u.into()]);
/// # let f = fb.finish();
/// # let dfgs = function_dfgs(&f);
/// # let hw = HwLibrary::micron_018();
/// # let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
/// # let cfus = combine(&dfgs, &found.candidates, &hw);
/// # let sel = select_greedy(&cfus, &SelectConfig::with_budget(4.0));
/// # let mdes = Mdes::from_selection("k", &cfus, &sel, &hw, 16);
/// let matches = find_matches(&dfgs, &mdes, &hw, &MatchOptions::exact());
/// assert!(!matches.is_empty());
/// ```
pub fn find_matches(
    dfgs: &[Dfg],
    mdes: &Mdes,
    hw: &HwLibrary,
    opts: &MatchOptions,
) -> Vec<PatternMatch> {
    let (matches, _, degradations) =
        find_matches_guarded_with_stats(dfgs, mdes, hw, opts, &Guard::unlimited());
    isax_guard::reraise_contained(&degradations);
    matches
}

/// Finds every legal match under a [`Guard`], with the deterministic
/// [`MatchStats`] for the run.
///
/// Each (CFU, block) job gets its own meter (item ordinal = job index in
/// CFU-major order) charging one unit per VF2 state-space node visited;
/// worker panics are contained per job. Truncations and contained
/// faults come back as [`Degradation`] records aggregated in job order.
/// Under [`Guard::unlimited`] no meter ever stops, so the only
/// degradations are contained panics.
pub fn find_matches_guarded_with_stats(
    dfgs: &[Dfg],
    mdes: &Mdes,
    hw: &HwLibrary,
    opts: &MatchOptions,
    guard: &Guard,
) -> (Vec<PatternMatch>, MatchStats, Vec<Degradation>) {
    let _span = isax_trace::span("compile.match");
    let ctx = MatchCtx::new(dfgs, mdes, hw, opts);
    let (per_job, degradations) = guard.fan_out(
        Stage::Match,
        ctx.jobs.len(),
        |ji, meter| {
            let (ci, block) = ctx.jobs[ji];
            meter.touch();
            ctx.run_job(ci, block, meter)
        },
        |ji, (out, _)| {
            let (ci, block) = ctx.jobs[ji];
            format!(
                "cfu {ci} in block {block}: kept {} matches, then stopped enumerating embeddings",
                out.len(),
            )
        },
    );
    // Join point: fold per-job results in input order (jobs is already
    // CFU-major serial order), keeping the totals deterministic.
    let mut stats = MatchStats::default();
    let mut matches = Vec::new();
    for (out, job_stats) in per_job.into_iter().flatten() {
        stats.merge(&job_stats);
        matches.extend(out);
    }
    isax_trace::counter("match.vf2_calls", stats.vf2_calls);
    isax_trace::counter("match.prefilter_skips", stats.prefilter_skips);
    isax_trace::counter("match.found", stats.matches_found);
    (matches, stats, degradations)
}

/// Shared preparation for one matching run: prebuilt targets, prefilter
/// multisets, per-CFU pattern lists and the CFU-major job list.
struct MatchCtx<'a> {
    dfgs: &'a [Dfg],
    mdes: &'a Mdes,
    hw: &'a HwLibrary,
    opts: &'a MatchOptions,
    targets: Vec<DiGraph<DfgLabel>>,
    target_counts: Vec<HashMap<u64, usize>>,
    cfu_patterns: Vec<Vec<PreparedPattern<'a>>>,
    /// Every (CFU, block) pair in CFU-major order — exactly the serial
    /// nesting order, and the deterministic job ordinal space for
    /// matching meters.
    jobs: Vec<(usize, usize)>,
}

impl<'a> MatchCtx<'a> {
    fn new(dfgs: &'a [Dfg], mdes: &'a Mdes, hw: &'a HwLibrary, opts: &'a MatchOptions) -> Self {
        let targets: Vec<DiGraph<DfgLabel>> = dfgs.iter().map(Dfg::to_digraph).collect();
        // Per-block label-key multisets for the prefilter; nodes that can
        // never be matched (custom instructions, stores) are left out.
        let target_counts: Vec<HashMap<u64, usize>> = targets
            .iter()
            .map(|t| {
                key_counts(
                    opts.mode,
                    t.node_ids()
                        .map(|n| &t[n])
                        .filter(|l| !l.opcode.is_custom() && !l.opcode.is_store()),
                )
            })
            .collect();
        // Patterns (own + contraction closure) per CFU, each with its key
        // multiset.
        let cfu_patterns: Vec<Vec<PreparedPattern<'a>>> = mdes
            .cfus
            .iter()
            .map(|cfu| {
                let mut patterns: Vec<(&DiGraph<DfgLabel>, bool)> = vec![(&cfu.pattern, false)];
                if opts.allow_subsumed {
                    patterns.extend(cfu.subsumed_patterns.iter().map(|p| (p, true)));
                }
                patterns
                    .into_iter()
                    .map(|(p, via)| {
                        let counts = key_counts(opts.mode, p.node_ids().map(|n| &p[n]));
                        (p, via, counts)
                    })
                    .collect()
            })
            .collect();
        let jobs: Vec<(usize, usize)> = (0..mdes.cfus.len())
            .flat_map(|c| (0..dfgs.len()).map(move |b| (c, b)))
            .collect();
        MatchCtx {
            dfgs,
            mdes,
            hw,
            opts,
            targets,
            target_counts,
            cfu_patterns,
            jobs,
        }
    }

    /// One (CFU, block) matching job. Each VF2 search is capped at the
    /// meter's remaining units and its visited states are charged back,
    /// so the matches found are a deterministic prefix of the unlimited
    /// enumeration.
    fn run_job(
        &self,
        ci: usize,
        block: usize,
        meter: &mut Meter,
    ) -> (Vec<PatternMatch>, MatchStats) {
        let cfu = &self.mdes.cfus[ci];
        let dfg = &self.dfgs[block];
        let target = &self.targets[block];
        let mut out = Vec::new();
        let mut stats = MatchStats::default();
        // One node set may match several patterns (or the same pattern
        // with permuted commutative ports): keep the best description
        // (exact before subsumed, then first found).
        let mut seen: std::collections::HashSet<BitSet> = std::collections::HashSet::new();
        for (pattern, via_subsumption, pattern_counts) in &self.cfu_patterns[ci] {
            let (pattern, via_subsumption) = (*pattern, *via_subsumption);
            if pattern.node_count() > dfg.len() {
                stats.size_skips += 1;
                continue;
            }
            if !could_embed(pattern_counts, &self.target_counts[block]) {
                stats.prefilter_skips += 1;
                continue; // no embedding can exist: skip the VF2 call
            }
            if meter.remaining() == 0 {
                break; // budget gone: skip the remaining patterns
            }
            stats.vf2_calls += 1;
            let (found, search) = vf2::Matcher::new(pattern, target)
                .node_compat(|p, t| compatible(self.opts.mode, p, t))
                .commutative(|p| p.opcode.is_commutative())
                .max_matches(MATCH_CAP)
                .max_states(meter.remaining())
                .find_all_with_stats();
            let _ = meter.charge(search.states);
            if search.truncated {
                // The search hit the remaining-budget cap; push the meter
                // past its limit so exhaustion is recorded.
                let _ = meter.charge(1);
            }
            for mapping in found {
                let nodes: BitSet = mapping.iter().map(|n| n.index()).collect();
                if seen.contains(&nodes) {
                    continue;
                }
                if !dfg.is_convex(&nodes) {
                    continue;
                }
                if dfg.input_count(&nodes) > self.mdes.max_inputs as usize
                    || dfg.output_count(&nodes) > self.mdes.max_outputs as usize
                    || dfg.output_count(&nodes) == 0
                {
                    continue;
                }
                // Loads contribute nothing: the baseline issues them
                // on the parallel memory slot, and a load-bearing
                // unit reserves the same port for as many cycles (see
                // `Candidate::sw_cycles`).
                let sw: u64 = nodes
                    .iter()
                    .map(|v| {
                        let inst = dfg.inst(v);
                        if inst.opcode.is_load() {
                            0
                        } else {
                            self.hw.sw_latency_of(inst) as u64
                        }
                    })
                    .sum();
                let savings = dfg.weight() * sw.saturating_sub(cfu.latency as u64);
                if savings == 0 {
                    continue;
                }
                seen.insert(nodes.clone());
                let is_exact = mapping
                    .iter()
                    .zip(pattern.node_ids())
                    .all(|(&t, p)| pattern[p].matches_exact(&target[t]));
                out.push(PatternMatch {
                    cfu: ci as u16,
                    block,
                    nodes,
                    mapping: mapping.iter().map(|n| n.index()).collect(),
                    pattern: pattern.clone(),
                    via_subsumption,
                    is_exact,
                    savings,
                });
            }
        }
        stats.matches_found = out.len() as u64;
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdes::CfuSpec;
    use isax_ir::{function_dfgs, FunctionBuilder, Opcode};
    use isax_select::contraction_closure;

    fn hw() -> HwLibrary {
        HwLibrary::micron_018()
    }

    fn lab(op: Opcode) -> DfgLabel {
        DfgLabel {
            opcode: op,
            imms: vec![],
        }
    }

    /// Hand-written MDES with a single and→add CFU.
    fn mdes_and_add(subsumed: bool) -> Mdes {
        let mut pattern = DiGraph::new();
        let a = pattern.add_node(lab(Opcode::And));
        let b = pattern.add_node(lab(Opcode::Add));
        pattern.add_edge(a, b, 0);
        let subsumed_patterns = if subsumed {
            contraction_closure(&pattern, 32)
        } else {
            Vec::new()
        };
        Mdes {
            cfus: vec![CfuSpec {
                name: "add-and".into(),
                pattern,
                latency: 1,
                area: 1.12,
                inputs: 3,
                outputs: 1,
                estimated_value: 0,
                subsumed_patterns,
            }],
            max_inputs: 5,
            max_outputs: 3,
            source_app: "test".into(),
        }
    }

    #[test]
    fn exact_match_found_with_savings() {
        let mut fb = FunctionBuilder::new("f", 3);
        fb.set_entry_weight(50);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.and(a, b);
        let u = fb.add(t, c);
        fb.ret(&[u.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let m = find_matches(&dfgs, &mdes_and_add(false), &hw(), &MatchOptions::exact());
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].savings, 50);
        assert!(!m[0].via_subsumption);
    }

    #[test]
    fn subsumed_match_maps_smaller_shape() {
        // Program has a lone and: only matchable via the closure.
        let mut fb = FunctionBuilder::new("f", 2);
        fb.set_entry_weight(10);
        let (a, b) = (fb.param(0), fb.param(1));
        let t = fb.and(a, b);
        let u = fb.xor(t, b); // consumer so `and` escapes realistically
        fb.ret(&[u.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let exact = find_matches(&dfgs, &mdes_and_add(true), &hw(), &MatchOptions::exact());
        assert!(exact.is_empty(), "no and->add shape in the program");
        let gen = find_matches(
            &dfgs,
            &mdes_and_add(true),
            &hw(),
            &MatchOptions::with_subsumed(),
        );
        // A lone `and` saves 0 cycles (1 sw vs 1 hw) so it is dropped; but
        // nothing else matches either. Use a two-op contraction instead:
        assert!(gen.iter().all(|m| !m.nodes.is_empty()));
    }

    #[test]
    fn subsumed_two_op_contraction_matches() {
        // CFU is and->add->shl(var); program has and->shl: the closure
        // member matches and runs on the big CFU.
        let mut pattern = DiGraph::new();
        let a = pattern.add_node(lab(Opcode::And));
        let b = pattern.add_node(lab(Opcode::Add));
        let c = pattern.add_node(lab(Opcode::Shl));
        pattern.add_edge(a, b, 0);
        pattern.add_edge(b, c, 0);
        let mdes = Mdes {
            cfus: vec![CfuSpec {
                name: "and-add-shl".into(),
                pattern: pattern.clone(),
                latency: 1,
                area: 2.7,
                inputs: 4,
                outputs: 1,
                estimated_value: 0,
                subsumed_patterns: contraction_closure(&pattern, 32),
            }],
            max_inputs: 5,
            max_outputs: 3,
            source_app: "test".into(),
        };
        let mut fb = FunctionBuilder::new("f", 3);
        fb.set_entry_weight(10);
        let (a, b, s) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.and(a, b);
        let u = fb.shl(t, s);
        fb.ret(&[u.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let m = find_matches(&dfgs, &mdes, &hw(), &MatchOptions::with_subsumed());
        assert_eq!(m.len(), 1);
        assert!(m[0].via_subsumption);
        assert_eq!(m[0].nodes.len(), 2);
    }

    #[test]
    fn wildcard_mode_matches_opcode_classes() {
        // CFU built for and->add also covers or->sub under opcode classes.
        let mut fb = FunctionBuilder::new("f", 3);
        fb.set_entry_weight(10);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.or(a, b);
        let u = fb.sub(t, c);
        fb.ret(&[u.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let exact = find_matches(&dfgs, &mdes_and_add(false), &hw(), &MatchOptions::exact());
        assert!(exact.is_empty());
        let wild = find_matches(
            &dfgs,
            &mdes_and_add(false),
            &hw(),
            &MatchOptions {
                mode: MatchMode::Wildcard,
                allow_subsumed: false,
            },
        );
        assert_eq!(wild.len(), 1);
    }

    #[test]
    fn nonconvex_occurrences_are_rejected() {
        // and -> xor -> add where the CFU covers {and, add}: the value
        // passes through the external xor, so replacement is illegal.
        let mut fb = FunctionBuilder::new("f", 2);
        fb.set_entry_weight(10);
        let (a, b) = (fb.param(0), fb.param(1));
        let t = fb.and(a, b);
        let x = fb.xor(t, b);
        let u = fb.add(x, t); // add reads both xor and the and directly
        fb.ret(&[u.into()]);
        let dfgs = function_dfgs(&fb.finish());
        // Pattern: and feeding add directly (port 1).
        let mut pattern = DiGraph::new();
        let pa = pattern.add_node(lab(Opcode::And));
        let pb = pattern.add_node(lab(Opcode::Add));
        pattern.add_edge(pa, pb, 1);
        let mdes = Mdes {
            cfus: vec![CfuSpec {
                name: "x".into(),
                pattern,
                latency: 1,
                area: 1.0,
                inputs: 3,
                outputs: 1,
                estimated_value: 0,
                subsumed_patterns: vec![],
            }],
            max_inputs: 5,
            max_outputs: 3,
            source_app: "t".into(),
        };
        let m = find_matches(&dfgs, &mdes, &hw(), &MatchOptions::exact());
        assert!(m.is_empty(), "non-convex match must be rejected");
    }

    #[test]
    fn port_limits_are_enforced() {
        let mut fb = FunctionBuilder::new("f", 6);
        fb.set_entry_weight(10);
        // add with 2 external + and with 2 more = 3 inputs; set limit 2.
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.and(a, b);
        let u = fb.add(t, c);
        fb.ret(&[u.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let mut mdes = mdes_and_add(false);
        mdes.max_inputs = 2;
        let m = find_matches(&dfgs, &mdes, &hw(), &MatchOptions::exact());
        assert!(m.is_empty());
    }

    #[test]
    fn matches_never_cover_custom_or_memory_nodes() {
        let mut fb = FunctionBuilder::new("f", 2);
        fb.set_entry_weight(10);
        let (p, b) = (fb.param(0), fb.param(1));
        let t = fb.ldw(p); // memory
        let u = fb.add(t, b);
        fb.ret(&[u.into()]);
        let dfgs = function_dfgs(&fb.finish());
        // Wildcard pattern of class Move would otherwise class-match; make
        // sure loads are refused even in wildcard mode.
        let m = find_matches(
            &dfgs,
            &mdes_and_add(true),
            &hw(),
            &MatchOptions::generalized(),
        );
        for mm in &m {
            assert!(!mm.nodes.contains(0), "load must never be matched");
        }
    }
}
