//! Deterministic resource governance for the customization pipeline.
//!
//! The discovery pipeline is worst-case exponential: full subgraph
//! enumeration is infeasible (paper §3.1) and even the guided walker can
//! be stalled by pathological DFGs — deep dependence chains, dense
//! commutative cliques, wide fanout. This crate provides the budget
//! machinery every stage shares:
//!
//! * A [`Budget`] is a **work-unit** meter, not a wall clock. Work units
//!   are things the pipeline counts anyway — explorer candidates
//!   examined, VF2 state-space nodes visited, scheduler list steps — so
//!   a budgeted run produces byte-identical results regardless of thread
//!   count or machine speed. An optional wall-clock deadline exists as an
//!   off-by-default safety net; tripping it marks the run
//!   non-reproducible in its [`Degradation`] record.
//! * A [`Guard`] hands out one [`Meter`] per *deterministic work item*
//!   (a DFG, a matcher job, a function to schedule). Meters are
//!   per-item, never shared across threads, which is what keeps the
//!   accounting independent of scheduling order.
//! * On exhaustion a stage returns its best-so-far result tagged with a
//!   structured [`Degradation`] record: which stage, how many units were
//!   spent, and what was truncated. Partial results stay *sound* — they
//!   are smaller, never wrong — so `isax-check` accepts them.
//! * A [`FaultPlan`] (`ISAX_FAULT=stage:panic|exhaust:nth`) is a
//!   compiled-in, inert-unless-set fault-injection hook that lets tests
//!   drive every degradation path end to end.
//!
//! * Every stage runs its items through [`Guard::fan_out`], which
//!   meters each item, contains worker panics and returns the records in
//!   item order; a stage result carries them in a [`StageReport`].
//!
//! Each stage has one implementation, the metered one. With no budget,
//! no deadline, and no fault configured the [`Guard`] is unlimited: its
//! meters never stop, so the artifacts are those of an ungoverned run,
//! and a worker panic is still contained and reported as a `panicked`
//! [`Degradation`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use isax_graph::par::par_try_map_indexed;
use isax_prov::ProvLog;
use std::fmt;
use std::time::{Duration, Instant};

/// Pipeline stages that accept a work-unit budget.
///
/// The stage names are stable: they appear in `ISAX_FAULT` specs, in
/// [`Degradation`] reports printed by the CLI, and in
/// `BENCH_pipeline.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Candidate discovery (`isax_explore`): one unit per candidate
    /// subgraph examined.
    Explore,
    /// Pattern matching (`isax_compiler::find_matches`): one unit per
    /// VF2 state-space node visited.
    Match,
    /// List scheduling (`isax_compiler::schedule`): one unit per
    /// instruction issued and per cycle advanced.
    Schedule,
    /// CFU selection (`isax_select`): one unit per candidate evaluated
    /// by the greedy scan.
    Select,
}

impl Stage {
    /// Stable lowercase name used in env specs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Explore => "explore",
            Stage::Match => "match",
            Stage::Schedule => "schedule",
            Stage::Select => "select",
        }
    }

    /// Parses a stable stage name (case-sensitive, lowercase).
    pub fn parse(s: &str) -> Option<Stage> {
        match s {
            "explore" => Some(Stage::Explore),
            "match" => Some(Stage::Match),
            "schedule" => Some(Stage::Schedule),
            "select" => Some(Stage::Select),
            _ => None,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What kind of fault to inject at a [`FaultPlan`]'s target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the stage's worker, exercising containment.
    Panic,
    /// Force the target item's meter to an immediate budget exhaustion,
    /// exercising graceful degradation.
    Exhaust,
}

/// A fault-injection target: `stage:kind:nth`.
///
/// `nth` is the deterministic ordinal of the work item within the stage
/// (DFG index for explore, job index for match, function index for
/// schedule, always 0 for select), so injection hits the same item
/// regardless of thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Stage whose meter the fault is attached to.
    pub stage: Stage,
    /// Panic or forced exhaustion.
    pub kind: FaultKind,
    /// Deterministic item ordinal the fault fires on.
    pub nth: u64,
}

impl FaultPlan {
    /// Parses a spec of the form `stage:panic:nth` or
    /// `stage:exhaust:nth`, e.g. `explore:panic:0` or `match:exhaust:3`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut parts = spec.split(':');
        let (stage, kind, nth) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(s), Some(k), Some(n), None) => (s, k, n),
            _ => {
                return Err(format!(
                    "fault spec `{spec}` is not of the form stage:panic|exhaust:nth"
                ))
            }
        };
        let stage = Stage::parse(stage)
            .ok_or_else(|| format!("unknown fault stage `{stage}` in `{spec}`"))?;
        let kind = match kind {
            "panic" => FaultKind::Panic,
            "exhaust" => FaultKind::Exhaust,
            other => return Err(format!("unknown fault kind `{other}` in `{spec}`")),
        };
        let nth: u64 = nth
            .parse()
            .map_err(|_| format!("fault ordinal `{nth}` in `{spec}` is not a number"))?;
        Ok(FaultPlan { stage, kind, nth })
    }
}

/// The resource limits a [`Guard`] enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Work-unit limit applied to *each* (stage, item) meter. `None`
    /// means unlimited. Deterministic: identical across thread counts.
    pub units: Option<u64>,
    /// Optional wall-clock safety net. Off by default because tripping
    /// it makes the result depend on machine speed; a deadline
    /// degradation is marked non-reproducible.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// A budget with no limits at all.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A pure work-unit budget of `units` per (stage, item) meter.
    pub fn with_units(units: u64) -> Budget {
        Budget {
            units: Some(units),
            deadline: None,
        }
    }

    /// True when neither a unit limit nor a deadline is set.
    pub fn is_unlimited(&self) -> bool {
        self.units.is_none() && self.deadline.is_none()
    }
}

/// Why a [`Meter`] stopped accepting work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StopReason {
    Budget,
    Deadline,
}

/// A pipeline-wide governance handle, threaded by reference through
/// `Customizer` into every stage. Cloning is cheap; clones share the
/// same start instant (for the optional deadline) but meters are always
/// independent per work item.
#[derive(Debug, Clone)]
pub struct Guard {
    budget: Budget,
    fault: Option<FaultPlan>,
    started: Instant,
}

impl Default for Guard {
    fn default() -> Guard {
        Guard::unlimited()
    }
}

impl Guard {
    /// A guard that never limits anything: its meters never stop, and
    /// [`Guard::is_active`] is false. Stages still run metered and still
    /// contain worker panics.
    pub fn unlimited() -> Guard {
        Guard::new(Budget::unlimited())
    }

    /// A guard enforcing `budget`, with no fault plan.
    pub fn new(budget: Budget) -> Guard {
        Guard {
            budget,
            fault: None,
            started: Instant::now(),
        }
    }

    /// Replaces the per-meter work-unit limit.
    pub fn with_units(mut self, units: u64) -> Guard {
        self.budget.units = Some(units);
        self
    }

    /// Attaches a fault-injection plan (tests; `ISAX_FAULT` in prod).
    pub fn with_fault(mut self, fault: FaultPlan) -> Guard {
        self.fault = Some(fault);
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The configured fault plan, if any.
    pub fn fault(&self) -> Option<FaultPlan> {
        self.fault
    }

    /// True when any governance is configured — a unit budget, a
    /// deadline, or a fault plan. Stages do not branch on it; it gates
    /// only the `guard.*` trace counters and reports.
    pub fn is_active(&self) -> bool {
        !self.budget.is_unlimited() || self.fault.is_some()
    }

    /// Creates the meter for one deterministic work item. `item` is the
    /// item's stable ordinal within the stage (input order, never
    /// scheduling order).
    pub fn meter(&self, stage: Stage, item: u64) -> Meter {
        let mut limit = self.budget.units.unwrap_or(u64::MAX);
        let mut inject_panic = false;
        let mut injected_exhaust = false;
        if let Some(f) = self.fault {
            if f.stage == stage && f.nth == item {
                match f.kind {
                    FaultKind::Panic => inject_panic = true,
                    FaultKind::Exhaust => {
                        limit = 0;
                        injected_exhaust = true;
                    }
                }
            }
        }
        Meter {
            stage,
            item,
            limit,
            spent: 0,
            calls: 0,
            // An injected exhaustion starts the meter already stopped:
            // stages that pre-check `remaining()` before charging must
            // still see (and report) the forced truncation.
            stop: injected_exhaust.then_some(StopReason::Budget),
            inject_panic,
            injected_exhaust,
            deadline_at: self.budget.deadline.map(|d| self.started + d),
        }
    }

    /// Runs `work` over items `0..n` of `stage` in parallel
    /// ([`par_try_map_indexed`]), each under its own meter. Returns each
    /// item's value — `None` where its worker panicked or was cancelled —
    /// and the stage's records in item order: a stop record, detailed by
    /// `stopped`, per item whose meter stopped, and a `panicked` or
    /// `cancelled` record per contained fault. This is the only place a
    /// contained fault becomes a [`Degradation`].
    pub fn fan_out<T: Send>(
        &self,
        stage: Stage,
        n: usize,
        work: impl Fn(usize, &mut Meter) -> T + Sync,
        stopped: impl Fn(usize, &T) -> String + Sync,
    ) -> (Vec<Option<T>>, Vec<Degradation>) {
        let results = par_try_map_indexed(n, |i| {
            let mut meter = self.meter(stage, i as u64);
            let value = work(i, &mut meter);
            // The detail string is built only for a meter that stopped.
            let stop = meter
                .exhausted()
                .then(|| meter.degradation(stopped(i, &value)));
            (value, stop.flatten())
        });
        let mut records = Vec::new();
        let values = results
            .into_iter()
            .map(|r| match r {
                Ok((value, stop)) => {
                    records.extend(stop);
                    Some(value)
                }
                Err(e) if e.cancelled => {
                    records.push(Degradation::cancelled(stage, e.index as u64, e.message));
                    None
                }
                Err(e) => {
                    records.push(Degradation::panicked(stage, e.index as u64, e.message));
                    None
                }
            })
            .collect();
        (values, records)
    }
}

/// A work-unit meter for one (stage, item) pair.
///
/// Meters are self-contained (no borrow of the [`Guard`]) so they can
/// move into parallel workers; each worker item gets its own meter and
/// the accounting is aggregated at the join point in input order.
#[derive(Debug)]
pub struct Meter {
    stage: Stage,
    item: u64,
    limit: u64,
    spent: u64,
    calls: u64,
    stop: Option<StopReason>,
    inject_panic: bool,
    injected_exhaust: bool,
    deadline_at: Option<Instant>,
}

impl Meter {
    /// A free-standing meter with no limit, for the ungoverned
    /// convenience entry points that wrap a metered stage.
    pub fn unlimited(stage: Stage, item: u64) -> Meter {
        Meter::with_limit(stage, item, u64::MAX)
    }

    /// A free-standing meter with an explicit unit limit.
    pub fn with_limit(stage: Stage, item: u64, limit: u64) -> Meter {
        Meter {
            stage,
            item,
            limit,
            spent: 0,
            calls: 0,
            stop: None,
            inject_panic: false,
            injected_exhaust: false,
            deadline_at: None,
        }
    }

    /// Accounts `units` of work. Returns `true` and records the units
    /// iff the whole charge fits under the limit; the first refused
    /// charge marks the meter exhausted and every later charge returns
    /// `false` immediately. A budget of `B` therefore admits exactly `B`
    /// unit charges — "stop after `B` candidates examined", not `B + 1`.
    #[inline]
    pub fn charge(&mut self, units: u64) -> bool {
        if self.stop.is_some() {
            return false;
        }
        if self.inject_panic {
            self.inject_panic = false;
            panic!(
                "isax-guard: injected panic (stage {}, item {})",
                self.stage.name(),
                self.item
            );
        }
        if let Some(at) = self.deadline_at {
            // Poll the clock every 1024 charge calls (and on the first),
            // keeping the syscall off the per-unit fast path.
            if self.calls & 0x3ff == 0 && Instant::now() >= at {
                self.stop = Some(StopReason::Deadline);
                return false;
            }
        }
        self.calls += 1;
        let next = self.spent.saturating_add(units);
        if next > self.limit {
            self.stop = Some(StopReason::Budget);
            return false;
        }
        self.spent = next;
        true
    }

    /// Runs the fault/deadline checkpoints without spending any units.
    /// Stages call this once on item entry so an injected panic fires
    /// even when the item would do no chargeable work.
    pub fn touch(&mut self) {
        let _ = self.charge(0);
    }

    /// Units accounted so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Units still available, zero once stopped.
    pub fn remaining(&self) -> u64 {
        if self.stop.is_some() {
            0
        } else {
            self.limit - self.spent
        }
    }

    /// The configured limit, `None` when unlimited.
    pub fn limit(&self) -> Option<u64> {
        (self.limit != u64::MAX).then_some(self.limit)
    }

    /// True once a charge has been refused.
    pub fn exhausted(&self) -> bool {
        self.stop.is_some()
    }

    /// The stage this meter governs.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The deterministic item ordinal this meter governs.
    pub fn item(&self) -> u64 {
        self.item
    }

    /// Builds the degradation record for this meter: `Some` iff the
    /// meter stopped. `detail` describes what was truncated — the
    /// caller knows ("kept 120 of an unknown number of candidates").
    pub fn degradation(&self, detail: impl Into<String>) -> Option<Degradation> {
        let reason = self.stop?;
        let kind = match reason {
            StopReason::Budget => DegradationKind::BudgetExhausted,
            StopReason::Deadline => DegradationKind::DeadlineExpired,
        };
        let mut detail = detail.into();
        if self.injected_exhaust {
            detail = format!("fault-injected exhaustion: {detail}");
        }
        Some(Degradation {
            stage: self.stage,
            item: self.item,
            kind,
            units_spent: self.spent,
            limit: self.limit(),
            detail,
        })
    }
}

/// Why a stage degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationKind {
    /// The deterministic work-unit budget ran out. Reproducible: the
    /// same budget yields the same truncation on any machine at any
    /// thread count.
    BudgetExhausted,
    /// The wall-clock deadline expired. **Non-reproducible** — where the
    /// truncation lands depends on machine speed.
    DeadlineExpired,
    /// A worker panicked; the item's result was dropped and the panic
    /// converted to this record at the join point.
    Panicked,
    /// The item never ran: the fan-out was cooperatively cancelled after
    /// a sibling panicked. Non-reproducible across thread counts — which
    /// items were still queued depends on scheduling.
    Cancelled,
}

impl DegradationKind {
    /// Whether a run carrying this degradation is still byte-for-byte
    /// reproducible at any thread count. A contained panic is itself
    /// deterministic (it fires on a fixed item ordinal); only the
    /// `Cancelled` records around it and wall-clock deadlines depend on
    /// scheduling or machine speed.
    pub fn reproducible(self) -> bool {
        matches!(
            self,
            DegradationKind::BudgetExhausted | DegradationKind::Panicked
        )
    }

    /// Whether a result carrying this degradation may be cached and
    /// served again as the answer to the same request: it must be
    /// [reproducible](Self::reproducible) and must not be a contained
    /// panic, which is a fault (injected or a bug), not an answer.
    pub fn replayable(self) -> bool {
        self.reproducible() && self != DegradationKind::Panicked
    }

    /// Stable lowercase name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            DegradationKind::BudgetExhausted => "budget-exhausted",
            DegradationKind::DeadlineExpired => "deadline-expired",
            DegradationKind::Panicked => "panicked",
            DegradationKind::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for DegradationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured record of one stage returning less than it was asked
/// for. Degradations ride in each stage result's [`StageReport`],
/// surface in `BENCH_pipeline.json`, and are printed by the CLI. They
/// trip `isax-check` only if the partial result is *unsound* — never
/// merely incomplete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Stage that degraded.
    pub stage: Stage,
    /// Deterministic item ordinal within the stage.
    pub item: u64,
    /// Why the stage degraded.
    pub kind: DegradationKind,
    /// Work units the item had spent when it stopped.
    pub units_spent: u64,
    /// The unit limit in force, if any.
    pub limit: Option<u64>,
    /// What was truncated, in the stage's own vocabulary.
    pub detail: String,
}

impl Degradation {
    /// Record for a contained worker panic.
    pub(crate) fn panicked(stage: Stage, item: u64, message: impl Into<String>) -> Degradation {
        Degradation {
            stage,
            item,
            kind: DegradationKind::Panicked,
            units_spent: 0,
            limit: None,
            detail: message.into(),
        }
    }

    /// Record for an item cancelled after a sibling's panic.
    pub(crate) fn cancelled(stage: Stage, item: u64, message: impl Into<String>) -> Degradation {
        Degradation {
            stage,
            item,
            kind: DegradationKind::Cancelled,
            units_spent: 0,
            limit: None,
            detail: message.into(),
        }
    }
}

/// What a stage result reports besides the result itself, in item
/// order. `Analysis`, `Selection` and `CompiledProgram` each carry one;
/// callers merge several stages' reports in pipeline order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageReport {
    /// Truncations and contained faults; empty when neither happened.
    pub degradations: Vec<Degradation>,
    /// Provenance events, recorded only when [`isax_prov::enabled`].
    pub prov: ProvLog,
}

impl StageReport {
    /// Appends `other`'s records and events after this report's.
    pub fn merge(&mut self, other: StageReport) {
        self.degradations.extend(other.degradations);
        self.prov.merge(other.prov);
    }
}

/// Re-raises the first contained fault in `degradations` (a `panicked`
/// record, else a `cancelled` one) as a panic on the calling thread.
///
/// Wrappers that return a stage's result without its degradation
/// records call this, so a worker panic they cannot report still
/// aborts them, as it does in `par_map_indexed`, instead of passing off
/// a fallback result as the real one.
pub fn reraise_contained(degradations: &[Degradation]) {
    let first = |kind| degradations.iter().find(|d| d.kind == kind);
    if let Some(d) = first(DegradationKind::Panicked).or_else(|| first(DegradationKind::Cancelled))
    {
        std::panic::resume_unwind(Box::new(d.to_string()));
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[item {}]: {} after {} units",
            self.stage, self.item, self.kind, self.units_spent
        )?;
        if let Some(limit) = self.limit {
            write!(f, " (limit {limit})")?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        if !self.kind.reproducible() {
            write!(f, " [non-reproducible]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_admits_exactly_limit_unit_charges() {
        let mut m = Meter::with_limit(Stage::Explore, 0, 5);
        for _ in 0..5 {
            assert!(m.charge(1));
        }
        assert!(!m.exhausted());
        assert!(!m.charge(1), "sixth unit must be refused");
        assert!(m.exhausted());
        assert_eq!(m.spent(), 5, "refused charge is not accounted");
        assert!(!m.charge(1), "meter stays exhausted");
        assert_eq!(m.remaining(), 0);
    }

    #[test]
    fn bulk_charge_that_does_not_fit_is_refused_whole() {
        let mut m = Meter::with_limit(Stage::Match, 3, 10);
        assert!(m.charge(7));
        assert!(!m.charge(4), "7 + 4 > 10");
        assert_eq!(m.spent(), 7);
        let d = m.degradation("stopped early").unwrap();
        assert_eq!(d.kind, DegradationKind::BudgetExhausted);
        assert_eq!(d.stage, Stage::Match);
        assert_eq!(d.item, 3);
        assert_eq!(d.units_spent, 7);
        assert_eq!(d.limit, Some(10));
    }

    #[test]
    fn unlimited_meter_never_stops_and_yields_no_degradation() {
        let mut m = Meter::unlimited(Stage::Select, 0);
        for _ in 0..10_000 {
            assert!(m.charge(3));
        }
        assert_eq!(m.spent(), 30_000);
        assert!(m.degradation("n/a").is_none());
        assert_eq!(m.limit(), None);
    }

    #[test]
    fn touch_cannot_exhaust_a_zero_limit_meter() {
        let mut m = Meter::with_limit(Stage::Explore, 2, 0);
        m.touch();
        assert!(!m.exhausted(), "touch spends nothing");
        assert!(!m.charge(1), "zero-limit meter refuses real work");
        let d = m.degradation("no candidates kept").unwrap();
        assert_eq!(d.kind, DegradationKind::BudgetExhausted);
        assert_eq!(d.units_spent, 0);
    }

    #[test]
    fn injected_exhaustion_starts_the_meter_stopped() {
        let g = Guard::unlimited().with_fault(FaultPlan {
            stage: Stage::Explore,
            kind: FaultKind::Exhaust,
            nth: 2,
        });
        let mut m = g.meter(Stage::Explore, 2);
        // Born stopped: stages that pre-check `remaining()` and never
        // issue a charge must still observe and report the truncation.
        assert!(m.exhausted());
        assert_eq!(m.remaining(), 0);
        assert!(!m.charge(1), "fault-exhausted meter refuses real work");
        let d = m.degradation("no candidates kept").unwrap();
        assert!(d.detail.starts_with("fault-injected exhaustion:"));
        assert_eq!(d.units_spent, 0);
    }

    #[test]
    fn fault_panic_fires_on_first_checkpoint_of_the_matching_item_only() {
        let g = Guard::unlimited().with_fault(FaultPlan::parse("select:panic:0").unwrap());
        assert!(g.is_active());
        let mut other = g.meter(Stage::Select, 1);
        other.touch();
        let mut wrong_stage = g.meter(Stage::Explore, 0);
        wrong_stage.touch();
        let result = std::panic::catch_unwind(move || {
            let mut m = g.meter(Stage::Select, 0);
            m.touch();
        });
        let payload = result.expect_err("fault must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the injected panic carries a formatted message");
        assert!(msg.contains("injected panic"), "got: {msg}");
        assert!(msg.contains("stage select"), "got: {msg}");
    }

    #[test]
    fn fault_plan_parsing_round_trips_and_rejects_garbage() {
        assert_eq!(
            FaultPlan::parse("match:exhaust:7"),
            Ok(FaultPlan {
                stage: Stage::Match,
                kind: FaultKind::Exhaust,
                nth: 7
            })
        );
        assert_eq!(
            FaultPlan::parse("schedule:panic:0"),
            Ok(FaultPlan {
                stage: Stage::Schedule,
                kind: FaultKind::Panic,
                nth: 0
            })
        );
        assert!(FaultPlan::parse("explore:panic").is_err());
        assert!(FaultPlan::parse("frobnicate:panic:0").is_err());
        assert!(FaultPlan::parse("explore:abort:0").is_err());
        assert!(FaultPlan::parse("explore:panic:many").is_err());
        assert!(FaultPlan::parse("explore:panic:0:extra").is_err());
    }

    #[test]
    fn inactive_guard_is_the_default_and_active_states_are_detected() {
        assert!(!Guard::unlimited().is_active());
        assert!(Guard::unlimited().with_units(100).is_active());
        assert!(Guard::new(Budget {
            units: None,
            deadline: Some(Duration::from_secs(1)),
        })
        .is_active());
        assert!(Guard::unlimited()
            .with_fault(FaultPlan::parse("explore:exhaust:0").unwrap())
            .is_active());
    }

    #[test]
    fn reraise_contained_panics_on_faults_only() {
        let mut m = Meter::with_limit(Stage::Match, 0, 0);
        assert!(!m.charge(1));
        let budget = m.degradation("truncated").unwrap();
        reraise_contained(std::slice::from_ref(&budget));
        let records = [
            budget,
            Degradation::cancelled(Stage::Explore, 2, "cancelled"),
            Degradation::panicked(Stage::Explore, 1, "boom"),
        ];
        let payload = std::panic::catch_unwind(|| reraise_contained(&records)).unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.starts_with("explore[item 1]: panicked"), "got: {msg}");
        assert!(msg.ends_with(": boom"), "got: {msg}");
    }

    /// Item `i` charges `i` units one at a time, so under a 2-unit
    /// budget items 3 and up stop; the value is the units spent.
    fn charge_index(i: usize, meter: &mut Meter) -> u64 {
        for _ in 0..i {
            if !meter.charge(1) {
                break;
            }
        }
        meter.spent()
    }

    #[test]
    fn fan_out_records_come_back_in_item_order_at_any_thread_count() {
        let guard = Guard::unlimited()
            .with_units(2)
            .with_fault(FaultPlan::parse("match:panic:5").unwrap());
        let run = |threads| {
            isax_graph::par::set_thread_override(Some(threads));
            let out = guard.fan_out(Stage::Match, 6, charge_index, |i, spent| {
                format!("item {i} kept {spent} units")
            });
            isax_graph::par::set_thread_override(None);
            out
        };
        let (values, records) = run(1);
        assert_eq!(
            values,
            vec![Some(0), Some(1), Some(2), Some(2), Some(2), None]
        );
        let summary: Vec<_> = records.iter().map(|d| (d.item, d.kind)).collect();
        assert_eq!(
            summary,
            [
                (3, DegradationKind::BudgetExhausted),
                (4, DegradationKind::BudgetExhausted),
                (5, DegradationKind::Panicked),
            ]
        );
        assert_eq!(records[0].detail, "item 3 kept 2 units");
        assert!(records[2].detail.contains("injected panic"));
        // The panic hits the last item, so no item is left to cancel and
        // every record is deterministic.
        assert_eq!(run(4), (values, records));
    }

    #[test]
    fn fan_out_cancels_the_items_queued_after_a_panic() {
        let guard = Guard::unlimited().with_fault(FaultPlan::parse("explore:panic:1").unwrap());
        for threads in [1, 4] {
            isax_graph::par::set_thread_override(Some(threads));
            let (values, records) =
                guard.fan_out(Stage::Explore, 8, charge_index, |_, _| unreachable!());
            isax_graph::par::set_thread_override(None);
            // Item 0 is claimed before the panicking item 1, so it always
            // finishes; which later items were still queued depends on
            // scheduling, but each one is either a value or a cancellation.
            assert_eq!(values[0], Some(0));
            assert_eq!(values[1], None);
            assert_eq!(
                (records[0].item, records[0].kind),
                (1, DegradationKind::Panicked)
            );
            assert!(records.windows(2).all(|w| w[0].item < w[1].item));
            for d in &records[1..] {
                assert_eq!(d.kind, DegradationKind::Cancelled);
                assert_eq!(values[d.item as usize], None);
            }
            let dropped = values.iter().filter(|v| v.is_none()).count();
            assert_eq!(dropped, records.len(), "one record per dropped item");
            if threads == 1 {
                assert_eq!(records.len(), 7, "serially, every later item is cancelled");
            }
        }
    }

    #[test]
    fn stage_reports_merge_in_order() {
        let mut a = StageReport::default();
        a.degradations
            .push(Degradation::panicked(Stage::Explore, 0, "a"));
        a.prov
            .record(1, isax_prov::ProvEvent::Wildcarded { partner: 0 });
        let mut b = StageReport::default();
        b.degradations
            .push(Degradation::panicked(Stage::Select, 0, "b"));
        b.prov
            .record(2, isax_prov::ProvEvent::Wildcarded { partner: 1 });
        a.merge(b);
        let stages: Vec<_> = a.degradations.iter().map(|d| d.stage).collect();
        assert_eq!(stages, [Stage::Explore, Stage::Select]);
        let fps: Vec<_> = a.prov.events().iter().map(|(fp, _)| *fp).collect();
        assert_eq!(fps, [1, 2]);
    }

    #[test]
    fn deadline_in_the_past_stops_on_the_first_charge() {
        let g = Guard::new(Budget {
            units: None,
            deadline: Some(Duration::ZERO),
        });
        let mut m = g.meter(Stage::Schedule, 0);
        assert!(!m.charge(1));
        let d = m.degradation("one block scheduled").unwrap();
        assert_eq!(d.kind, DegradationKind::DeadlineExpired);
        assert!(!d.kind.reproducible());
        assert!(d.to_string().contains("[non-reproducible]"));
    }

    #[test]
    fn only_budget_truncations_are_replayable() {
        use DegradationKind::*;
        assert!(BudgetExhausted.replayable());
        for kind in [DeadlineExpired, Panicked, Cancelled] {
            assert!(!kind.replayable(), "{kind}");
        }
    }

    #[test]
    fn degradation_display_is_stable() {
        let d = Degradation {
            stage: Stage::Explore,
            item: 2,
            kind: DegradationKind::BudgetExhausted,
            units_spent: 500,
            limit: Some(500),
            detail: "kept 41 candidates".into(),
        };
        assert_eq!(
            d.to_string(),
            "explore[item 2]: budget-exhausted after 500 units (limit 500): kept 41 candidates"
        );
        let p = Degradation::panicked(Stage::Match, 1, "boom");
        assert_eq!(p.to_string(), "match[item 1]: panicked after 0 units: boom");
    }

    #[test]
    fn stage_names_round_trip() {
        for s in [Stage::Explore, Stage::Match, Stage::Schedule, Stage::Select] {
            assert_eq!(Stage::parse(s.name()), Some(s));
        }
        assert_eq!(Stage::parse("Explore"), None);
    }
}
