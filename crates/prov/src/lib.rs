//! Decision provenance for the isax pipeline.
//!
//! The customization pipeline makes thousands of micro-decisions — the
//! guide function prunes a growth direction, subsumption folds one CFU
//! candidate into another, greedy selection charges area for a unit, the
//! matcher replaces a subgraph and banks the cycles — and by the time an
//! MDES or a speedup number comes out, the *why* has been discarded at
//! every stage boundary. This crate keeps it: each candidate subgraph is
//! identified by its canonical fingerprint (`isax_graph::canon`) and
//! accumulates a small stream of [`ProvEvent`]s as it flows through
//! explore → subsume/wildcard → select → match → replace.
//!
//! # Determinism contract
//!
//! Recording follows the same discipline as `MatchStats` and the trace
//! counters: events are collected *per work item* in thread-local return
//! values ([`ProvLog`]s riding on `ExploreResult`, `Selection`,
//! `CompiledProgram`) and merged at the existing parallel join points in
//! input order. There is no global sink, so a report built from a merged
//! log is byte-identical at any thread count.
//!
//! # Zero-cost contract
//!
//! Recording is off by default behind one relaxed atomic
//! ([`enabled`]), mirroring `isax-trace`: a disabled run pays a single
//! relaxed load per potential event site and allocates nothing. Callers
//! must never let recording influence results — enforced by the
//! enabled-vs-disabled differential in `tests/prov.rs`.
//!
//! # Report
//!
//! [`build_report`] turns a merged log into a versioned JSON document
//! (via `isax-json`): per-candidate event streams grouped by fingerprint
//! in first-appearance order, each with a computed terminal [`Fate`],
//! plus an aggregate summary (counts per fate and per stage). The
//! `isax explain` subcommand renders it for humans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Report format version stamped into every emitted document.
pub const REPORT_VERSION: u64 = 1;

/// Number of live [`EnableGuard`]s.
static ENABLED: AtomicUsize = AtomicUsize::new(0);

/// Is provenance recording enabled? One relaxed load — callers on hot
/// paths should hoist this into a local before a loop.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) > 0
}

/// Enables recording for the lifetime of the returned guard.
///
/// The switch is global and counted: recording stays on while any
/// guard is alive, so two servers (or two CLI runs) in one process do
/// not turn each other's recording off.
#[must_use = "recording stops when the guard is dropped"]
pub fn enable() -> EnableGuard {
    ENABLED.fetch_add(1, Ordering::SeqCst);
    EnableGuard(())
}

/// RAII guard from [`enable`]; releases its share of the switch on drop.
pub struct EnableGuard(());

impl Drop for EnableGuard {
    fn drop(&mut self) {
        ENABLED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The shared observability env-var grammar (`ISAX_PROV`, `ISAX_TRACE`
/// and `ISAX_SERVE_STATS`), re-exported from its one canonical home in
/// `isax-trace`.
///
/// ```
/// use isax_prov::{parse_env_value, EnvMode};
/// assert_eq!(parse_env_value(" off "), EnvMode::Off);
/// assert_eq!(parse_env_value("1"), EnvMode::Summary);
/// assert_eq!(parse_env_value("report.json"), EnvMode::Path("report.json".into()));
/// ```
pub use isax_trace::{parse_env_value, EnvMode};

/// The four-axis guide-function score of §3.2, one point total per axis
/// group: criticality, latency gain, area cost, I/O feasibility.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScoreBreakdown {
    /// Criticality points: `10 / (slack + 1)`.
    pub criticality: f64,
    /// Latency points: `old_delay / new_delay × 10`.
    pub latency: f64,
    /// Area points: `old_area / new_area × 10`.
    pub area: f64,
    /// I/O points: `min(old_ports / new_ports × 10, 10)`.
    pub io: f64,
}

impl ScoreBreakdown {
    /// Sum over the four axes — what the half-of-total threshold tests.
    pub fn total(&self) -> f64 {
        self.criticality + self.latency + self.area + self.io
    }

    /// Name of the lowest-scoring axis — "which axis killed it".
    pub fn weakest_axis(&self) -> &'static str {
        let axes = [
            ("criticality", self.criticality),
            ("latency", self.latency),
            ("area", self.area),
            ("io", self.io),
        ];
        let mut weakest = axes[0];
        for a in &axes[1..] {
            if a.1 < weakest.1 {
                weakest = *a;
            }
        }
        weakest.0
    }

    fn to_json(self) -> isax_json::Value {
        isax_json::object([
            ("criticality", isax_json::Value::from(self.criticality)),
            ("latency", self.latency.into()),
            ("area", self.area.into()),
            ("io", self.io.into()),
            ("total", self.total().into()),
        ])
    }
}

/// Why exploration dropped a grown subgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// Guide score fell below the half-of-total threshold.
    BelowThreshold,
    /// Direction scored above threshold but lost the fanout/taper cut.
    FanoutCap,
    /// Direction scored above threshold but fell outside the beam width
    /// when the frontier of a beam-ordered walk was truncated.
    BeamDropped,
}

impl PruneReason {
    /// Stable identifier used in the JSON report.
    pub fn as_str(&self) -> &'static str {
        match self {
            PruneReason::BelowThreshold => "below_threshold",
            PruneReason::FanoutCap => "fanout_cap",
            PruneReason::BeamDropped => "beam_dropped",
        }
    }
}

/// One decision about one candidate, in pipeline order.
#[derive(Debug, Clone, PartialEq)]
pub enum ProvEvent {
    /// Exploration recorded this subgraph as a candidate.
    Discovered {
        /// Index of the DFG (basic block) it was found in.
        dfg: usize,
        /// Operation count.
        size: usize,
        /// Combinational delay in cycles.
        delay: f64,
        /// Area in adder units.
        area: f64,
        /// Live-in count.
        inputs: usize,
        /// Live-out count.
        outputs: usize,
        /// Guide score of the growth direction that produced it; `None`
        /// for single-operation seeds, which are admitted unscored.
        score: Option<ScoreBreakdown>,
    },
    /// Exploration scored this subgraph and dropped the direction.
    Pruned {
        /// Index of the DFG it would have been grown in.
        dfg: usize,
        /// The half-of-total threshold in force.
        threshold: f64,
        /// The score that lost.
        score: ScoreBreakdown,
        /// Which cut dropped it.
        reason: PruneReason,
    },
    /// A selected CFU's pattern contains this candidate's pattern.
    SubsumedBy {
        /// MDES id of the subsuming CFU.
        cfu: u16,
    },
    /// A selected CFU is this candidate's wildcard partner (same shape,
    /// one opcode apart).
    Wildcarded {
        /// MDES id of the partner CFU.
        partner: u16,
    },
    /// Selection chose this candidate as a custom function unit.
    SelectedAsCfu {
        /// MDES id (== replacement priority).
        cfu: u16,
        /// Area charged against the budget (discounted if subsumed or
        /// wildcarded by an earlier pick).
        area: f64,
        /// Pattern delay in cycles.
        delay: f64,
        /// Interaction-aware cycles-saved estimate at selection time.
        estimated_value: u64,
    },
    /// The matcher found legal occurrences of this CFU's pattern.
    Matched {
        /// Function the matches were found in.
        function: String,
        /// Basic-block index within the function.
        block: usize,
        /// Number of legal (pre-prioritization) matches in that block.
        count: u64,
    },
    /// Replacement rewrote a subgraph with this CFU and banked cycles.
    Replaced {
        /// Function the replacement happened in.
        function: String,
        /// Basic-block index within the function.
        block: usize,
        /// Weighted cycles the replaced operations cost in software.
        cycles_before: u64,
        /// Weighted cycles the CFU costs for the same work.
        cycles_after: u64,
    },
}

impl ProvEvent {
    /// Pipeline stage that produced the event.
    pub fn stage(&self) -> &'static str {
        match self {
            ProvEvent::Discovered { .. } | ProvEvent::Pruned { .. } => "explore",
            ProvEvent::SubsumedBy { .. }
            | ProvEvent::Wildcarded { .. }
            | ProvEvent::SelectedAsCfu { .. } => "select",
            ProvEvent::Matched { .. } | ProvEvent::Replaced { .. } => "compile",
        }
    }

    /// Stable event-kind identifier used in the JSON report.
    pub fn kind(&self) -> &'static str {
        match self {
            ProvEvent::Discovered { .. } => "discovered",
            ProvEvent::Pruned { .. } => "pruned",
            ProvEvent::SubsumedBy { .. } => "subsumed_by",
            ProvEvent::Wildcarded { .. } => "wildcarded",
            ProvEvent::SelectedAsCfu { .. } => "selected_as_cfu",
            ProvEvent::Matched { .. } => "matched",
            ProvEvent::Replaced { .. } => "replaced",
        }
    }

    fn to_json(&self) -> isax_json::Value {
        let mut fields: Vec<(String, isax_json::Value)> = vec![
            ("event".into(), self.kind().into()),
            ("stage".into(), self.stage().into()),
        ];
        match self {
            ProvEvent::Discovered {
                dfg,
                size,
                delay,
                area,
                inputs,
                outputs,
                score,
            } => {
                fields.push(("dfg".into(), (*dfg as u64).into()));
                fields.push(("size".into(), (*size as u64).into()));
                fields.push(("delay".into(), (*delay).into()));
                fields.push(("area".into(), (*area).into()));
                fields.push(("inputs".into(), (*inputs as u64).into()));
                fields.push(("outputs".into(), (*outputs as u64).into()));
                if let Some(s) = score {
                    fields.push(("score".into(), s.to_json()));
                }
            }
            ProvEvent::Pruned {
                dfg,
                threshold,
                score,
                reason,
            } => {
                fields.push(("dfg".into(), (*dfg as u64).into()));
                fields.push(("threshold".into(), (*threshold).into()));
                fields.push(("score".into(), score.to_json()));
                fields.push(("reason".into(), reason.as_str().into()));
            }
            ProvEvent::SubsumedBy { cfu } => {
                fields.push(("cfu".into(), (*cfu as u64).into()));
            }
            ProvEvent::Wildcarded { partner } => {
                fields.push(("partner".into(), (*partner as u64).into()));
            }
            ProvEvent::SelectedAsCfu {
                cfu,
                area,
                delay,
                estimated_value,
            } => {
                fields.push(("cfu".into(), (*cfu as u64).into()));
                fields.push(("area".into(), (*area).into()));
                fields.push(("delay".into(), (*delay).into()));
                fields.push(("estimated_value".into(), (*estimated_value).into()));
            }
            ProvEvent::Matched {
                function,
                block,
                count,
            } => {
                fields.push(("function".into(), function.as_str().into()));
                fields.push(("block".into(), (*block as u64).into()));
                fields.push(("count".into(), (*count).into()));
            }
            ProvEvent::Replaced {
                function,
                block,
                cycles_before,
                cycles_after,
            } => {
                fields.push(("function".into(), function.as_str().into()));
                fields.push(("block".into(), (*block as u64).into()));
                fields.push(("cycles_before".into(), (*cycles_before).into()));
                fields.push(("cycles_after".into(), (*cycles_after).into()));
            }
        }
        isax_json::Value::Object(fields)
    }
}

/// An ordered stream of `(fingerprint, event)` pairs.
///
/// Logs ride in per-stage return values and are merged at parallel join
/// points in input order — never through shared state — so a fully
/// merged log (and anything derived from it) is thread-count-invariant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProvLog {
    events: Vec<(u64, ProvEvent)>,
}

impl ProvLog {
    /// Appends one event for the candidate with the given canonical
    /// fingerprint. Callers gate on [`enabled`] *before* constructing
    /// the event, so a disabled run allocates nothing.
    pub fn record(&mut self, fingerprint: u64, event: ProvEvent) {
        self.events.push((fingerprint, event));
    }

    /// Appends all of `other`'s events after this log's — the join-point
    /// merge, called in input order.
    pub fn merge(&mut self, mut other: ProvLog) {
        self.events.append(&mut other.events);
    }

    /// The events, in pipeline arrival order.
    pub fn events(&self) -> &[(u64, ProvEvent)] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Re-stamps the DFG index on every explore-stage event. Exploration
    /// walks one DFG at a time and records index 0; the fan-out caller
    /// knows the real index and stamps it at the join point (mirroring
    /// how `Candidate::dfg` is stamped).
    pub fn set_dfg(&mut self, dfg: usize) {
        for (_, ev) in &mut self.events {
            match ev {
                ProvEvent::Discovered { dfg: d, .. } | ProvEvent::Pruned { dfg: d, .. } => {
                    *d = dfg;
                }
                _ => {}
            }
        }
    }
}

/// A candidate's terminal fate, computed from its event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Became (part of) a custom function unit: has a `SelectedAsCfu`,
    /// `Matched` or `Replaced` event.
    Selected,
    /// Survived exploration but lost selection: `Discovered` only
    /// (possibly annotated `SubsumedBy`/`Wildcarded`).
    NotSelected,
    /// Never became a candidate: `Pruned` events only.
    Pruned,
}

impl Fate {
    /// Stable identifier used in the JSON report.
    pub fn as_str(&self) -> &'static str {
        match self {
            Fate::Selected => "selected",
            Fate::NotSelected => "not_selected",
            Fate::Pruned => "pruned",
        }
    }

    /// Computes the fate from a candidate's events. Precedence: any
    /// select/compile success event wins, then discovery, then pruning —
    /// so every candidate has exactly one terminal fate.
    pub fn of(events: &[&ProvEvent]) -> Fate {
        if events.iter().any(|e| {
            matches!(
                e,
                ProvEvent::SelectedAsCfu { .. }
                    | ProvEvent::Matched { .. }
                    | ProvEvent::Replaced { .. }
            )
        }) {
            Fate::Selected
        } else if events
            .iter()
            .any(|e| matches!(e, ProvEvent::Discovered { .. }))
        {
            Fate::NotSelected
        } else {
            Fate::Pruned
        }
    }
}

/// Aggregate counts over a merged log: the `provenance` section of
/// `BENCH_pipeline.json` and the `ISAX_PROV=1` summary line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Distinct candidate fingerprints.
    pub candidates: u64,
    /// Total events.
    pub events: u64,
    /// Candidates whose fate is [`Fate::Selected`].
    pub selected: u64,
    /// Candidates whose fate is [`Fate::NotSelected`].
    pub not_selected: u64,
    /// Candidates whose fate is [`Fate::Pruned`].
    pub pruned: u64,
    /// Events recorded by the explore stage.
    pub explore_events: u64,
    /// Events recorded by the select stage.
    pub select_events: u64,
    /// Events recorded by the compile stage.
    pub compile_events: u64,
}

impl Summary {
    /// One-line human rendering for stderr summaries.
    pub fn one_line(&self) -> String {
        format!(
            "{} candidates ({} selected, {} not selected, {} pruned), \
             {} events (explore {}, select {}, compile {})",
            self.candidates,
            self.selected,
            self.not_selected,
            self.pruned,
            self.events,
            self.explore_events,
            self.select_events,
            self.compile_events
        )
    }

    /// JSON rendering: the report's `summary` object.
    pub fn to_json(&self) -> isax_json::Value {
        isax_json::object([
            ("candidates", isax_json::Value::from(self.candidates)),
            ("events", self.events.into()),
            (
                "fates",
                isax_json::object([
                    ("selected", isax_json::Value::from(self.selected)),
                    ("not_selected", self.not_selected.into()),
                    ("pruned", self.pruned.into()),
                ]),
            ),
            (
                "stages",
                isax_json::object([
                    ("explore", isax_json::Value::from(self.explore_events)),
                    ("select", self.select_events.into()),
                    ("compile", self.compile_events.into()),
                ]),
            ),
        ])
    }
}

/// Renders a fingerprint the way reports and `explain` queries spell it.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Groups a merged log by fingerprint in first-appearance order.
fn group(log: &ProvLog) -> Vec<(u64, Vec<&ProvEvent>)> {
    let mut order: Vec<(u64, Vec<&ProvEvent>)> = Vec::new();
    let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (fp, ev) in log.events() {
        match index.get(fp) {
            Some(&i) => order[i].1.push(ev),
            None => {
                index.insert(*fp, order.len());
                order.push((*fp, vec![ev]));
            }
        }
    }
    order
}

/// Computes aggregate counts from a merged log.
pub fn summarize(log: &ProvLog) -> Summary {
    let mut s = Summary::default();
    for (_, ev) in log.events() {
        s.events += 1;
        match ev.stage() {
            "explore" => s.explore_events += 1,
            "select" => s.select_events += 1,
            _ => s.compile_events += 1,
        }
    }
    for (_, events) in group(log) {
        s.candidates += 1;
        match Fate::of(&events) {
            Fate::Selected => s.selected += 1,
            Fate::NotSelected => s.not_selected += 1,
            Fate::Pruned => s.pruned += 1,
        }
    }
    s
}

/// Builds the versioned provenance report for one application run.
///
/// Candidates appear in first-appearance order (which is pipeline
/// order, hence deterministic); each carries its fingerprint, computed
/// fate, convenience aggregates (`cfu` id when selected, total matches,
/// total cycles saved) and its full event stream.
pub fn build_report(app: &str, log: &ProvLog) -> isax_json::Value {
    let candidates: Vec<isax_json::Value> = group(log)
        .into_iter()
        .map(|(fp, events)| {
            let fate = Fate::of(&events);
            let mut fields: Vec<(String, isax_json::Value)> = vec![
                ("fingerprint".into(), fingerprint_hex(fp).into()),
                ("fate".into(), fate.as_str().into()),
            ];
            let cfu = events.iter().find_map(|e| match e {
                ProvEvent::SelectedAsCfu { cfu, .. } => Some(*cfu),
                _ => None,
            });
            if let Some(id) = cfu {
                fields.push(("cfu".into(), (id as u64).into()));
            }
            let matches: u64 = events
                .iter()
                .filter_map(|e| match e {
                    ProvEvent::Matched { count, .. } => Some(*count),
                    _ => None,
                })
                .sum();
            let cycles_saved: u64 = events
                .iter()
                .filter_map(|e| match e {
                    ProvEvent::Replaced {
                        cycles_before,
                        cycles_after,
                        ..
                    } => Some(cycles_before.saturating_sub(*cycles_after)),
                    _ => None,
                })
                .sum();
            if matches > 0 {
                fields.push(("matches".into(), matches.into()));
            }
            if cycles_saved > 0 {
                fields.push(("cycles_saved".into(), cycles_saved.into()));
            }
            fields.push((
                "events".into(),
                isax_json::array(events.iter().map(|e| e.to_json())),
            ));
            isax_json::Value::Object(fields)
        })
        .collect();
    isax_json::object([
        ("version", isax_json::Value::from(REPORT_VERSION)),
        ("app", app.into()),
        ("summary", summarize(log).to_json()),
        ("candidates", isax_json::array(candidates)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn discovered(dfg: usize) -> ProvEvent {
        ProvEvent::Discovered {
            dfg,
            size: 2,
            delay: 0.5,
            area: 1.0,
            inputs: 2,
            outputs: 1,
            score: Some(ScoreBreakdown {
                criticality: 10.0,
                latency: 8.0,
                area: 5.0,
                io: 10.0,
            }),
        }
    }

    /// The recording switch is process-global: tests that read or flip
    /// it hold this lock.
    static SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_by_default() {
        let _lock = SWITCH.lock().unwrap();
        assert!(!enabled());
    }

    #[test]
    fn enable_guard_restores() {
        let _lock = SWITCH.lock().unwrap();
        {
            let _g = enable();
            assert!(enabled());
        }
        assert!(!enabled());
    }

    #[test]
    fn overlapping_guards_keep_recording_on_until_the_last_drops() {
        let _lock = SWITCH.lock().unwrap();
        let first = enable();
        let second = enable();
        drop(first);
        assert!(enabled(), "dropping one guard must not stop the other");
        drop(second);
        assert!(!enabled());
    }

    #[test]
    fn env_value_forms() {
        for v in ["", " ", "0", "off", "OFF", "false", "no", " Off "] {
            assert_eq!(parse_env_value(v), EnvMode::Off, "{v:?}");
        }
        for v in ["1", "on", "ON", "true", "yes", " yes "] {
            assert_eq!(parse_env_value(v), EnvMode::Summary, "{v:?}");
        }
        assert_eq!(
            parse_env_value("out/report.json"),
            EnvMode::Path("out/report.json".into())
        );
        // A path that happens to be named like a keyword with extra
        // context is still a path.
        assert_eq!(parse_env_value("./on"), EnvMode::Path("./on".into()));
    }

    #[test]
    fn merge_preserves_input_order() {
        let mut a = ProvLog::default();
        a.record(1, discovered(0));
        let mut b = ProvLog::default();
        b.record(2, discovered(0));
        let mut c = a.clone();
        c.merge(b.clone());
        assert_eq!(c.events()[0].0, 1);
        assert_eq!(c.events()[1].0, 2);
        // Merge is order-sensitive by design.
        b.merge(a);
        assert_eq!(b.events()[0].0, 2);
    }

    #[test]
    fn set_dfg_touches_only_explore_events() {
        let mut log = ProvLog::default();
        log.record(1, discovered(0));
        log.record(
            1,
            ProvEvent::Pruned {
                dfg: 0,
                threshold: 20.0,
                score: ScoreBreakdown::default(),
                reason: PruneReason::BelowThreshold,
            },
        );
        log.record(1, ProvEvent::SubsumedBy { cfu: 3 });
        log.set_dfg(7);
        match &log.events()[0].1 {
            ProvEvent::Discovered { dfg, .. } => assert_eq!(*dfg, 7),
            other => panic!("unexpected {other:?}"),
        }
        match &log.events()[1].1 {
            ProvEvent::Pruned { dfg, .. } => assert_eq!(*dfg, 7),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(log.events()[2].1, ProvEvent::SubsumedBy { cfu: 3 });
    }

    #[test]
    fn fate_precedence() {
        let d = discovered(0);
        let p = ProvEvent::Pruned {
            dfg: 0,
            threshold: 20.0,
            score: ScoreBreakdown::default(),
            reason: PruneReason::FanoutCap,
        };
        let sel = ProvEvent::SelectedAsCfu {
            cfu: 0,
            area: 1.0,
            delay: 0.5,
            estimated_value: 100,
        };
        assert_eq!(Fate::of(&[&p]), Fate::Pruned);
        assert_eq!(Fate::of(&[&d]), Fate::NotSelected);
        assert_eq!(Fate::of(&[&d, &p]), Fate::NotSelected);
        assert_eq!(Fate::of(&[&d, &sel]), Fate::Selected);
        assert_eq!(
            Fate::of(&[&d, &ProvEvent::SubsumedBy { cfu: 1 }]),
            Fate::NotSelected,
            "annotation events do not promote a candidate"
        );
    }

    #[test]
    fn weakest_axis() {
        let s = ScoreBreakdown {
            criticality: 10.0,
            latency: 1.0,
            area: 5.0,
            io: 10.0,
        };
        assert_eq!(s.weakest_axis(), "latency");
        assert!((s.total() - 26.0).abs() < 1e-12);
    }

    #[test]
    fn report_shape_and_first_appearance_order() {
        let mut log = ProvLog::default();
        log.record(0xbeef, discovered(1));
        log.record(0xcafe, discovered(2));
        log.record(
            0xbeef,
            ProvEvent::SelectedAsCfu {
                cfu: 0,
                area: 1.0,
                delay: 0.5,
                estimated_value: 100,
            },
        );
        log.record(
            0xbeef,
            ProvEvent::Replaced {
                function: "f".into(),
                block: 0,
                cycles_before: 300,
                cycles_after: 100,
            },
        );
        let report = build_report("demo", &log);
        assert_eq!(report.get("version").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(report.get("app").and_then(|v| v.as_str()), Some("demo"));
        let cands = report
            .get("candidates")
            .and_then(|v| v.as_array())
            .expect("candidates array");
        assert_eq!(cands.len(), 2);
        assert_eq!(
            cands[0].get("fingerprint").and_then(|v| v.as_str()),
            Some("000000000000beef")
        );
        assert_eq!(
            cands[0].get("fate").and_then(|v| v.as_str()),
            Some("selected")
        );
        assert_eq!(cands[0].get("cfu").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(
            cands[0].get("cycles_saved").and_then(|v| v.as_u64()),
            Some(200)
        );
        assert_eq!(
            cands[1].get("fate").and_then(|v| v.as_str()),
            Some("not_selected")
        );
        let summary = report.get("summary").expect("summary");
        assert_eq!(
            summary
                .get("fates")
                .and_then(|f| f.get("selected"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        // Round-trips through the parser.
        let text = report.to_string_pretty();
        let reparsed = isax_json::parse(&text).expect("report parses");
        assert_eq!(reparsed.to_string_pretty(), text);
    }

    #[test]
    fn summary_line_counts() {
        let mut log = ProvLog::default();
        log.record(1, discovered(0));
        log.record(
            2,
            ProvEvent::Pruned {
                dfg: 0,
                threshold: 20.0,
                score: ScoreBreakdown::default(),
                reason: PruneReason::BelowThreshold,
            },
        );
        let s = summarize(&log);
        assert_eq!(s.candidates, 2);
        assert_eq!(s.events, 2);
        assert_eq!(s.explore_events, 2);
        assert_eq!((s.selected, s.not_selected, s.pruned), (0, 1, 1));
        assert!(s.one_line().contains("2 candidates"));
    }
}
