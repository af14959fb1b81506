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
//! The report format lives here and nowhere else. [`candidates`] groups
//! a merged log by fingerprint in first-appearance order and folds each
//! candidate's terminal [`Fate`] and aggregates; [`build_report`] turns
//! that view into a versioned JSON document (via `isax-json`) with an
//! aggregate summary (counts per fate and per stage); [`parse_report`]
//! decodes a document back into its log by one typed rule per field, so
//! `build_report` of the result rebuilds any report it wrote. The `isax
//! explain` subcommand and the `IC07xx` checks in `isax-check` read
//! reports through [`parse_report`] and [`candidates`].

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

    /// Decodes a score object; `total` must be a number and is rebuilt
    /// from the axes.
    fn from_json(v: &isax_json::Value) -> Result<ScoreBreakdown, String> {
        let mut f = isax_json::Fields::of(v)?;
        let mut axis = |key| f.req(key, NUMBER, isax_json::Value::as_f64);
        let score = ScoreBreakdown {
            criticality: axis("criticality")?,
            latency: axis("latency")?,
            area: axis("area")?,
            io: axis("io")?,
        };
        f.req("total", NUMBER, isax_json::Value::as_f64)?;
        f.finish()?;
        Ok(score)
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

    fn parse(s: &str) -> Option<PruneReason> {
        [
            PruneReason::BelowThreshold,
            PruneReason::FanoutCap,
            PruneReason::BeamDropped,
        ]
        .into_iter()
        .find(|r| r.as_str() == s)
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
        /// exactly for single-operation seeds, which are admitted
        /// unscored.
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

/// A typed event field as the report writes and reads it.
trait Field: Sized {
    /// The JSON value, or `None` to leave the field out.
    fn write(&self) -> Option<isax_json::Value>;
    /// The field `key` of `f`, by this type's rule.
    fn read(f: &mut isax_json::Fields<'_>, key: &'static str) -> Result<Self, String>;
}

impl Field for usize {
    fn write(&self) -> Option<isax_json::Value> {
        Some((*self).into())
    }
    fn read(f: &mut isax_json::Fields<'_>, key: &'static str) -> Result<Self, String> {
        f.req(key, INTEGER, |v| {
            v.as_u64().and_then(|n| usize::try_from(n).ok())
        })
    }
}

impl Field for u64 {
    fn write(&self) -> Option<isax_json::Value> {
        Some((*self).into())
    }
    fn read(f: &mut isax_json::Fields<'_>, key: &'static str) -> Result<Self, String> {
        f.req(key, INTEGER, isax_json::Value::as_u64)
    }
}

impl Field for u16 {
    fn write(&self) -> Option<isax_json::Value> {
        Some(u64::from(*self).into())
    }
    fn read(f: &mut isax_json::Fields<'_>, key: &'static str) -> Result<Self, String> {
        f.req(key, CFU_ID, as_cfu)
    }
}

impl Field for f64 {
    fn write(&self) -> Option<isax_json::Value> {
        Some((*self).into())
    }
    fn read(f: &mut isax_json::Fields<'_>, key: &'static str) -> Result<Self, String> {
        f.req(key, "a number", isax_json::Value::as_f64)
    }
}

impl Field for String {
    fn write(&self) -> Option<isax_json::Value> {
        Some(self.as_str().into())
    }
    fn read(f: &mut isax_json::Fields<'_>, key: &'static str) -> Result<Self, String> {
        f.req(key, "a string", isax_json::Value::as_str)
            .map(str::to_string)
    }
}

impl Field for PruneReason {
    fn write(&self) -> Option<isax_json::Value> {
        Some(self.as_str().into())
    }
    fn read(f: &mut isax_json::Fields<'_>, key: &'static str) -> Result<Self, String> {
        f.req(key, "below_threshold, fanout_cap or beam_dropped", |v| {
            v.as_str().and_then(PruneReason::parse)
        })
    }
}

impl Field for ScoreBreakdown {
    fn write(&self) -> Option<isax_json::Value> {
        Some(self.to_json())
    }
    fn read(f: &mut isax_json::Fields<'_>, key: &'static str) -> Result<Self, String> {
        ScoreBreakdown::from_json(f.req(key, "an object", Some)?).map_err(|e| format!("{key}: {e}"))
    }
}

/// An absent score is a left-out field.
impl Field for Option<ScoreBreakdown> {
    fn write(&self) -> Option<isax_json::Value> {
        self.as_ref().and_then(Field::write)
    }
    fn read(f: &mut isax_json::Fields<'_>, key: &'static str) -> Result<Self, String> {
        f.opt(key, "an object", Some)?
            .map(|v| ScoreBreakdown::from_json(v).map_err(|e| format!("{key}: {e}")))
            .transpose()
    }
}

/// Implements [`ProvEvent::kind`], [`ProvEvent::stage`] and the event
/// codec from one table: each kind's variant, its `event` name, its
/// stage and its fields in report order.
macro_rules! event_kinds {
    ($($variant:ident $kind:literal $stage:literal [$($field:ident),*],)*) => {
        impl ProvEvent {
            /// Pipeline stage that produced the event.
            pub fn stage(&self) -> &'static str {
                match self {
                    $(ProvEvent::$variant { .. } => $stage,)*
                }
            }

            /// Stable event-kind identifier used in the JSON report.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(ProvEvent::$variant { .. } => $kind,)*
                }
            }

            fn to_json(&self) -> isax_json::Value {
                let mut fields = vec![("event", self.kind().into()), ("stage", self.stage().into())];
                match self {
                    $(ProvEvent::$variant { $($field),* } => {
                        $(fields.extend(Field::write($field).map(|v| (stringify!($field), v)));)*
                    })*
                }
                isax_json::object(fields)
            }

            /// Decodes one report event: its kind, a stage that matches
            /// the kind, and exactly that kind's fields.
            fn from_json(v: &isax_json::Value) -> Result<ProvEvent, String> {
                let mut f = isax_json::Fields::of(v)?;
                let kind = f.req("event", "an event kind", isax_json::Value::as_str)?;
                let stage = f.req("stage", "a stage name", isax_json::Value::as_str)?;
                let event = match kind {
                    $($kind => ProvEvent::$variant {
                        $($field: Field::read(&mut f, stringify!($field))?,)*
                    },)*
                    other => return Err(format!("bad `event` field (unknown event kind `{other}`)")),
                };
                if stage != event.stage() {
                    return Err(format!(
                        "bad `stage` field (want `{}` for a `{kind}` event)",
                        event.stage()
                    ));
                }
                // Only a single-operation seed is admitted unscored.
                if let ProvEvent::Discovered { size, score, .. } = &event {
                    if score.is_some() != (*size > 1) {
                        return Err(if *size > 1 {
                            "missing `score` field (a grown subgraph is scored)".to_string()
                        } else {
                            "bad `score` field (want none for a single-operation seed)".to_string()
                        });
                    }
                }
                f.finish()?;
                Ok(event)
            }
        }
    };
}

event_kinds! {
    Discovered "discovered" "explore" [dfg, size, delay, area, inputs, outputs, score],
    Pruned "pruned" "explore" [dfg, threshold, score, reason],
    SubsumedBy "subsumed_by" "select" [cfu],
    Wildcarded "wildcarded" "select" [partner],
    SelectedAsCfu "selected_as_cfu" "select" [cfu, area, delay, estimated_value],
    Matched "matched" "compile" [function, block, count],
    Replaced "replaced" "compile" [function, block, cycles_before, cycles_after],
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

    fn parse(s: &str) -> Option<Fate> {
        [Fate::Selected, Fate::NotSelected, Fate::Pruned]
            .into_iter()
            .find(|f| f.as_str() == s)
    }

    /// The fate after one more event. Precedence: any select/compile
    /// success event wins, then discovery, then pruning — so every
    /// candidate has exactly one terminal fate.
    fn then(self, event: &ProvEvent) -> Fate {
        match event {
            ProvEvent::SelectedAsCfu { .. }
            | ProvEvent::Matched { .. }
            | ProvEvent::Replaced { .. } => Fate::Selected,
            ProvEvent::Discovered { .. } if self == Fate::Pruned => Fate::NotSelected,
            _ => self,
        }
    }

    /// Computes the fate from a candidate's events.
    pub fn of(events: &[&ProvEvent]) -> Fate {
        events.iter().fold(Fate::Pruned, |f, e| f.then(e))
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
    /// Counts over the candidates of one log.
    fn of(candidates: &[Candidate<'_>]) -> Summary {
        let mut s = Summary::default();
        for c in candidates {
            s.candidates += 1;
            match c.fate {
                Fate::Selected => s.selected += 1,
                Fate::NotSelected => s.not_selected += 1,
                Fate::Pruned => s.pruned += 1,
            }
            for e in &c.events {
                s.events += 1;
                match e.stage() {
                    "explore" => s.explore_events += 1,
                    "select" => s.select_events += 1,
                    _ => s.compile_events += 1,
                }
            }
        }
        s
    }

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

    /// Checks the types of a report's `summary` object; its counts are
    /// derived data, rebuilt by [`build_report`].
    fn check_json(v: &isax_json::Value) -> Result<(), String> {
        let mut f = isax_json::Fields::of(v)?;
        for key in ["candidates", "events"] {
            f.req(key, INTEGER, isax_json::Value::as_u64)?;
        }
        for (group, keys) in [
            ("fates", ["selected", "not_selected", "pruned"]),
            ("stages", ["explore", "select", "compile"]),
        ] {
            let mut g = isax_json::Fields::of(f.req(group, "an object", Some)?)
                .map_err(|e| format!("{group}: {e}"))?;
            for key in keys {
                g.req(key, INTEGER, isax_json::Value::as_u64)
                    .map_err(|e| format!("{group}: {e}"))?;
            }
            g.finish().map_err(|e| format!("{group}: {e}"))?;
        }
        f.finish()
    }
}

/// Renders a fingerprint the way reports and `explain` queries spell it.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Reads a fingerprint spelled by [`fingerprint_hex`]: exactly sixteen
/// lowercase hex digits.
fn parse_fingerprint(s: &str) -> Option<u64> {
    let canonical = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    canonical.then(|| u64::from_str_radix(s, 16).ok()).flatten()
}

/// One candidate of a merged log: its events in arrival order and what a
/// report states about it. [`build_report`] serializes these, `isax
/// explain` renders them and the IC07xx checks walk them.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate<'a> {
    /// Canonical pattern fingerprint.
    pub fingerprint: u64,
    /// Terminal fate ([`Fate::of`] the events).
    pub fate: Fate,
    /// MDES id of its first `SelectedAsCfu` event.
    pub cfu: Option<u16>,
    /// Legal matches over its `Matched` events.
    pub matches: u64,
    /// Weighted cycles saved over its `Replaced` events.
    pub cycles_saved: u64,
    /// The events, in arrival order.
    pub events: Vec<&'a ProvEvent>,
}

impl<'a> Candidate<'a> {
    fn push(&mut self, event: &'a ProvEvent) {
        self.fate = self.fate.then(event);
        match event {
            ProvEvent::SelectedAsCfu { cfu, .. } => {
                self.cfu.get_or_insert(*cfu);
            }
            ProvEvent::Matched { count, .. } => self.matches = self.matches.saturating_add(*count),
            ProvEvent::Replaced {
                cycles_before,
                cycles_after,
                ..
            } => {
                self.cycles_saved = self
                    .cycles_saved
                    .saturating_add(cycles_before.saturating_sub(*cycles_after));
            }
            _ => {}
        }
        self.events.push(event);
    }

    fn to_json(&self) -> isax_json::Value {
        let mut fields: Vec<(&str, isax_json::Value)> = vec![
            ("fingerprint", fingerprint_hex(self.fingerprint).into()),
            ("fate", self.fate.as_str().into()),
        ];
        if let Some(id) = self.cfu {
            fields.push(("cfu", u64::from(id).into()));
        }
        if self.matches > 0 {
            fields.push(("matches", self.matches.into()));
        }
        if self.cycles_saved > 0 {
            fields.push(("cycles_saved", self.cycles_saved.into()));
        }
        fields.push((
            "events",
            isax_json::array(self.events.iter().map(|e| e.to_json())),
        ));
        isax_json::object(fields)
    }

    /// Decodes one report candidate into its fingerprint and events. The
    /// stored fate and aggregates are type-checked only: they are derived
    /// data, rebuilt by [`build_report`].
    fn from_json(v: &isax_json::Value) -> Result<(u64, Vec<ProvEvent>), String> {
        let mut f = isax_json::Fields::of(v)?;
        let fingerprint = f.req("fingerprint", "16 lowercase hex digits", |v| {
            v.as_str().and_then(parse_fingerprint)
        })?;
        f.req("fate", "selected, not_selected or pruned", |v| {
            v.as_str().and_then(Fate::parse)
        })?;
        f.opt("cfu", CFU_ID, as_cfu)?;
        f.opt("matches", INTEGER, isax_json::Value::as_u64)?;
        f.opt("cycles_saved", INTEGER, isax_json::Value::as_u64)?;
        let events = f.req("events", "a non-empty array", |v| {
            v.as_array().filter(|a| !a.is_empty())
        })?;
        f.finish()?;
        let events = events
            .iter()
            .enumerate()
            .map(|(i, e)| ProvEvent::from_json(e).map_err(|e| format!("event {i}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok((fingerprint, events))
    }
}

/// Groups a merged log by fingerprint in first-appearance order, folding
/// each candidate's fate and aggregates in the same single pass.
pub fn candidates(log: &ProvLog) -> Vec<Candidate<'_>> {
    let mut order: Vec<Candidate<'_>> = Vec::new();
    let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (fp, ev) in log.events() {
        let i = *index.entry(*fp).or_insert_with(|| {
            order.push(Candidate {
                fingerprint: *fp,
                fate: Fate::Pruned,
                cfu: None,
                matches: 0,
                cycles_saved: 0,
                events: Vec::new(),
            });
            order.len() - 1
        });
        order[i].push(ev);
    }
    order
}

/// Computes aggregate counts from a merged log.
pub fn summarize(log: &ProvLog) -> Summary {
    Summary::of(&candidates(log))
}

/// Builds the versioned provenance report for one application run.
///
/// Candidates appear in first-appearance order (which is pipeline
/// order, hence deterministic); each carries its fingerprint, computed
/// fate, convenience aggregates (`cfu` id when selected, total matches,
/// total cycles saved) and its full event stream.
pub fn build_report(app: &str, log: &ProvLog) -> isax_json::Value {
    let candidates = candidates(log);
    isax_json::object([
        ("version", isax_json::Value::from(REPORT_VERSION)),
        ("app", app.into()),
        ("summary", Summary::of(&candidates).to_json()),
        (
            "candidates",
            isax_json::array(candidates.iter().map(Candidate::to_json)),
        ),
    ])
}

/// Decodes a report back into the application name and log it was
/// built from: the inverse of [`build_report`].
///
/// Every field is read by one typed rule: the version, 16-digit
/// lowercase-hex fingerprints, each event's kind, its stage and that
/// kind's fields. Events come back grouped by candidate, in report
/// order, so `build_report(app, &log)` rebuilds any report
/// `build_report` wrote. The stored fates, aggregates and summary are
/// type-checked but not compared with the events; rebuild the report
/// and compare to check them.
///
/// # Errors
///
/// A missing, mistyped, unknown or repeated field, named with the index
/// of its candidate and event; a fingerprint given to two candidates;
/// a version other than [`REPORT_VERSION`].
pub fn parse_report(doc: &isax_json::Value) -> Result<(String, ProvLog), String> {
    let mut f = isax_json::Fields::of(doc)?;
    let version = f.req("version", INTEGER, isax_json::Value::as_u64)?;
    if version != REPORT_VERSION {
        return Err(format!(
            "provenance report version {version}, this isax understands {REPORT_VERSION}"
        ));
    }
    let app = f.req("app", "a string", isax_json::Value::as_str)?;
    Summary::check_json(f.req("summary", "an object", Some)?)
        .map_err(|e| format!("summary: {e}"))?;
    let candidates = f.req("candidates", "an array", isax_json::Value::as_array)?;
    f.finish()?;
    let mut log = ProvLog::default();
    let mut seen = std::collections::HashSet::new();
    for (i, c) in candidates.iter().enumerate() {
        let (fp, events) = Candidate::from_json(c).map_err(|e| format!("candidate {i}: {e}"))?;
        if !seen.insert(fp) {
            return Err(format!(
                "candidate {i}: fingerprint {} repeats an earlier candidate's",
                fingerprint_hex(fp)
            ));
        }
        for event in events {
            log.record(fp, event);
        }
    }
    Ok((app.to_string(), log))
}

const INTEGER: &str = "a non-negative integer";
const NUMBER: &str = "a number";
const CFU_ID: &str = "a CFU id, 0 to 65535";

fn as_cfu(v: &isax_json::Value) -> Option<u16> {
    v.as_u64().and_then(|n| u16::try_from(n).ok())
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
