//! The traced run: the pipeline re-driven layer by layer, in
//! `Customizer`'s order, with a span around every call into a layer.
//!
//! Spans are recorded by the benchmark, around the public functions of
//! each layer crate, so the program under test carries no benchmark
//! instrumentation. They are kept in memory and written out when the run
//! ends.

use crate::inputs::Kernel;
use isax::{Customizer, MatchOptions};
use isax_compiler::{baseline_cycles, compile_guarded, CompileOptions, CompiledProgram, Mdes};
use isax_guard::Stage;
use isax_select::{
    combine, find_wildcard_partners, mark_subsumptions, select_greedy, select_greedy_metered,
    SelectConfig,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Span names of one customization, in call order. `select.greedy`
/// stands for `select_greedy` or, when governed, `select_greedy_metered`.
pub const CUSTOMIZE_LAYERS: [&str; 9] = [
    "ir.parse",
    "ir.dfgs",
    "ir.dataflow",
    "explore",
    "select.combine",
    "select.subsume",
    "select.wildcard",
    "select.greedy",
    "compiler.mdes",
];

/// Span names of one compile, in call order.
pub const COMPILE_LAYERS: [&str; 2] = ["compiler.baseline", "compiler.compile"];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Kernel index (customize spans) or compile index (compile spans).
    pub item: usize,
    /// Measurement pass.
    pub pass: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Current pass, stamped on every new span.
    pub pass: usize,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, item: usize) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            item,
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            dur_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (spans close innermost first).
    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].dur_ns = self.now_ns() - self.spans[id].start_ns;
    }

    /// Times `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, item: usize, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, item);
        let out = f();
        self.end(id);
        out
    }

    /// Per layer name: the sum over items of the item's fastest pass,
    /// in seconds (each pass summing that item's spans of the name).
    pub fn layer_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut per: BTreeMap<(&'static str, usize, usize), u64> = BTreeMap::new();
        for s in &self.spans {
            *per.entry((s.name, s.item, s.pass)).or_default() += s.dur_ns;
        }
        let mut best: BTreeMap<(&'static str, usize), u64> = BTreeMap::new();
        for ((name, item, _), ns) in per {
            let b = best.entry((name, item)).or_insert(u64::MAX);
            *b = (*b).min(ns);
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for ((name, _), ns) in best {
            *out.entry(name).or_default() += ns as f64 * 1e-9;
        }
        out
    }

    /// Layer names missing from some item's spans in some pass: the
    /// reconciliation fails if any layer was skipped.
    pub fn skipped_layers(&self, parent: &'static str, layers: &[&'static str]) -> Vec<String> {
        let mut children: BTreeMap<usize, Vec<&'static str>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p].name == parent {
                    children.entry(p).or_default().push(s.name);
                }
            }
        }
        let mut missing = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != parent {
                continue;
            }
            let got = children.get(&i).map(Vec::as_slice).unwrap_or(&[]);
            for l in layers {
                if !got.contains(l) {
                    missing.push(format!("{parent} item {} pass {}: {l}", s.item, s.pass));
                }
            }
        }
        missing
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"item\":{},\"pass\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name,
                s.item,
                s.pass,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.dur_ns
            )?;
        }
        f.flush()
    }
}

/// Deterministic work counts of one layered customization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CustomizeCounts {
    /// Dataflow blocks solved (both domains).
    pub blocks_solved: u64,
    /// Candidate subgraphs examined by the explorer.
    pub examined: u64,
    /// Candidates recorded.
    pub recorded: u64,
    /// Fingerprint-memo hits and misses.
    pub memo_hits: u64,
    /// See `memo_hits`.
    pub memo_misses: u64,
    /// Governance degradations (explore and select).
    pub degradations: u64,
    /// CFU candidates after combination.
    pub cfu_candidates: u64,
    /// CFUs in the emitted MDES.
    pub cfus_selected: u64,
}

/// Parses the kernel text (span `ir.parse`), then runs analyze + select
/// through the layer functions, one span per call, under span
/// `customize` for kernel `item` — the work `Customizer::customize`
/// does on a parsed program. Returns the MDES.
pub fn customize(
    tr: &mut Tracer,
    cz: &Customizer,
    k: &Kernel,
    item: usize,
    budget: f64,
) -> (Mdes, CustomizeCounts) {
    let program = tr.span("ir.parse", item, || {
        isax_ir::parse_program(&k.text).expect("benchmark kernels parse")
    });
    let root = tr.begin("customize", item);
    let mut dfgs = tr.span("ir.dfgs", item, || {
        program
            .functions
            .iter()
            .flat_map(isax_ir::function_dfgs)
            .collect::<Vec<_>>()
    });
    let mut counts = CustomizeCounts::default();
    tr.span("ir.dataflow", item, || {
        let mut offset = 0;
        for f in &program.functions {
            let facts = isax_ir::analyze_function(f);
            counts.blocks_solved += facts.stats().blocks_solved;
            std::hint::black_box(isax_check::lint_function(f, &facts));
            if cz.hw.width_aware {
                for (bi, w) in isax_ir::effective_widths_from(f, &facts).iter().enumerate() {
                    dfgs[offset + bi].set_widths(w);
                }
            }
            offset += f.blocks.len();
        }
    });
    let (result, explore_degr) = tr.span("explore", item, || {
        isax_explore::explore_app_guarded(&dfgs, &cz.hw, &cz.explore, &cz.guard)
    });
    let mut cfus = tr.span("select.combine", item, || {
        combine(&dfgs, &result.candidates, &cz.hw)
    });
    tr.span("select.subsume", item, || {
        mark_subsumptions(&mut cfus, cz.closure_cap)
    });
    tr.span("select.wildcard", item, || {
        find_wildcard_partners(&mut cfus)
    });
    let cfg = SelectConfig::with_budget(budget);
    let (sel, select_degr) = tr.span("select.greedy", item, || {
        if cz.guard.is_active() {
            let mut meter = cz.guard.meter(Stage::Select, 0);
            let sel = select_greedy_metered(&cfus, &cfg, &mut meter);
            let degr = u64::from(meter.degradation("").is_some());
            (sel, degr)
        } else {
            (select_greedy(&cfus, &cfg), 0)
        }
    });
    let mdes = tr.span("compiler.mdes", item, || {
        Mdes::from_selection(&k.name, &cfus, &sel, &cz.hw, cz.closure_cap)
    });
    counts.examined = result.stats.examined;
    counts.recorded = result.stats.recorded;
    counts.memo_hits = result.stats.memo_hits;
    counts.memo_misses = result.stats.memo_misses;
    counts.degradations = explore_degr.len() as u64 + select_degr;
    counts.cfu_candidates = cfus.len() as u64;
    counts.cfus_selected = mdes.cfus.len() as u64;
    // `Customizer::customize` frees its analysis before returning, so the
    // layered run frees the same structures inside the root span: that
    // time belongs to no layer and shows up in `core.residual_s`.
    drop((dfgs, result, cfus, sel));
    tr.end(root);
    (mdes, counts)
}

/// Runs one compile (baseline estimate + customized compile) through
/// the compiler layer, under span `compile` for compile `item`.
pub fn compile(
    tr: &mut Tracer,
    cz: &Customizer,
    program: &isax_ir::Program,
    mdes: &Mdes,
    matching: MatchOptions,
    item: usize,
) -> (u64, CompiledProgram) {
    let root = tr.begin("compile", item);
    let base = tr.span("compiler.baseline", item, || {
        baseline_cycles(program, &cz.hw, &cz.model)
    });
    let compiled = tr.span("compiler.compile", item, || {
        compile_guarded(
            program,
            mdes,
            &cz.hw,
            &CompileOptions {
                matching,
                model: cz.model,
            },
            &cz.guard,
        )
    });
    tr.end(root);
    (base, compiled)
}
