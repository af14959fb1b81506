//! Zero-dependency structured observability for the customization
//! pipeline: hierarchical spans, named counters, and two sinks — a
//! human-readable stage summary and a Chrome `trace_event` JSON export
//! viewable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! # Design
//!
//! Instrumentation sites call the free functions [`span`] and
//! [`counter`]; events flow to a process-wide [`TraceSink`] installed
//! with [`install`]. The default sink is a no-op and the hot-path check
//! is a single relaxed atomic load, so a disabled pipeline pays nothing
//! measurable. The [`Recorder`] sink collects events in memory and can
//! render either output format after the run.
//!
//! Parallel stages (see `isax_graph::par`) tag their events with a
//! per-worker **track** id via [`set_track`]; the Chrome export maps
//! tracks to `tid`s so each worker gets its own swim lane.
//!
//! # Determinism safety
//!
//! Instrumentation must never change pipeline *output*. Two rules keep
//! that true and are enforced by the `tests/trace.rs` differential test
//! (enabled vs. disabled tracing must produce byte-identical MDES /
//! compiled-program artifacts):
//!
//! 1. **Observation only.** Sinks receive copies of values the pipeline
//!    already computed; no instrumentation site feeds data back.
//! 2. **Counters are aggregated at join points in input order.** A
//!    parallel stage sums its per-item statistics after the fan-in, in
//!    the order the items were submitted, and records one counter value
//!    on the calling thread — never racing increments from workers.
//!    Wall-clock timing is inherently nondeterministic and is therefore
//!    excluded from every compared artifact (`BENCH_pipeline.json`
//!    carries counters, never span durations, in its compared fields).
//!    The `par.*` group is the one exception: `par.workers_spawned`
//!    counts threads, so the `bench` harness leaves that group out when
//!    it compares a serial run's counter ledger with a 4-thread run's.
//!
//! The `guard.*` counter group (`guard.explore_degradations`,
//! `guard.select_degradations`, `guard.compile_degradations`) follows
//! both rules: each counts the degradation records in one stage's
//! `StageReport` after its fan-out has joined, and one `Customizer`
//! helper publishes all three, only when the resource guard is active,
//! so default-run traces are unchanged. Work-unit budgets are
//! deterministic, which keeps these counters diffable across thread
//! counts like every other counter.
//!
//! # Example
//!
//! ```
//! let rec = isax_trace::Recorder::install();
//! {
//!     let _outer = isax_trace::span("analyze");
//!     let _inner = isax_trace::span("analyze.explore");
//!     isax_trace::counter("explore.candidates", 42);
//! }
//! isax_trace::uninstall();
//! let chrome = rec.chrome_trace();
//! assert!(chrome.contains("\"traceEvents\""));
//! assert!(rec.summary().contains("explore.candidates"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flame;
pub mod hist;
pub mod metrics;

pub use flame::folded_stacks;
pub use hist::Hist;
pub use metrics::{deterministic_section, Expo, Section, WALL_MARKER};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// One recorded observation.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A completed span: a named region of wall-clock time on a track.
    Span {
        /// Span name (static site label, e.g. `"pipeline.analyze"`).
        name: &'static str,
        /// Track (worker lane) the span ran on; 0 is the calling thread.
        track: u32,
        /// Start, in microseconds since the process trace epoch.
        start_us: u64,
        /// Duration in microseconds.
        dur_us: u64,
        /// Request id the span is attributed to (0 = none). Set via
        /// [`set_request`] by services that process tagged work.
        req: u64,
    },
    /// An additive counter contribution (a delta, not an absolute).
    Counter {
        /// Counter name, e.g. `"match.vf2_calls"`.
        name: &'static str,
        /// Track that recorded the value.
        track: u32,
        /// Record time, in microseconds since the trace epoch.
        ts_us: u64,
        /// The contribution. Summed per name by the summary; the Chrome
        /// export emits running totals.
        value: u64,
        /// Request id the counter is attributed to (0 = none).
        req: u64,
    },
}

/// Receives events from the instrumentation free functions.
///
/// Implementations must be cheap and must never panic: they run inside
/// pipeline hot paths.
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn record(&self, event: Event);
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn TraceSink>>> = RwLock::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// The track id events from this thread are tagged with.
    static TRACK: Cell<u32> = const { Cell::new(0) };
    /// The request id events from this thread are tagged with.
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// Installs a sink process-wide and enables instrumentation.
pub fn install(sink: Arc<dyn TraceSink>) {
    *SINK.write().expect("trace sink lock") = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Removes the current sink; instrumentation returns to no-ops.
pub fn uninstall() {
    ENABLED.store(false, Ordering::SeqCst);
    *SINK.write().expect("trace sink lock") = None;
}

/// True when a sink is installed. The disabled fast path of every
/// instrumentation site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags this thread's subsequent events with track `t` (0 = main lane).
/// Parallel workers call this once with their worker index.
pub fn set_track(t: u32) {
    TRACK.with(|c| c.set(t));
}

/// The current thread's track id.
pub fn current_track() -> u32 {
    TRACK.with(Cell::get)
}

/// Tags this thread's subsequent events with request id `r` (0 = none).
/// `isax serve` workers set the deterministic per-request sequence
/// number here before running the pipeline, and `isax_graph::par`
/// propagates the calling thread's tag into its workers, so every span
/// and counter a request produces is attributable to it.
pub fn set_request(r: u64) {
    REQUEST.with(|c| c.set(r));
}

/// The current thread's request id (0 = none).
pub fn current_request() -> u64 {
    REQUEST.with(Cell::get)
}

fn now_us() -> u64 {
    EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_micros()
        .min(u64::MAX as u128) as u64
}

fn with_sink(f: impl FnOnce(&Arc<dyn TraceSink>)) {
    if let Ok(guard) = SINK.read() {
        if let Some(sink) = guard.as_ref() {
            f(sink);
        }
    }
}

/// Opens a span; the region ends (and the event is recorded) when the
/// returned guard drops. Free when no sink is installed.
#[must_use = "a span measures until the guard drops; binding it to _ ends it immediately"]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    Span(Some(SpanInner {
        name,
        track: current_track(),
        req: current_request(),
        start_us: now_us(),
    }))
}

/// Records an additive counter contribution. Free when no sink is
/// installed. Call from the thread that owns the aggregated value — at
/// a parallel join point, not from inside workers (see the determinism
/// rules in the crate docs).
pub fn counter(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let ev = Event::Counter {
        name,
        track: current_track(),
        ts_us: now_us(),
        value,
        req: current_request(),
    };
    with_sink(|s| s.record(ev.clone()));
}

struct SpanInner {
    name: &'static str,
    track: u32,
    req: u64,
    start_us: u64,
}

/// RAII guard returned by [`span`]; records the span on drop.
pub struct Span(Option<SpanInner>);

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else { return };
        if !enabled() {
            return; // sink removed while the span was open
        }
        let ev = Event::Span {
            name: inner.name,
            track: inner.track,
            start_us: inner.start_us,
            dur_us: now_us().saturating_sub(inner.start_us),
            req: inner.req,
        };
        with_sink(|s| s.record(ev.clone()));
    }
}

/// An in-memory sink: collects events and renders them as a Chrome
/// `trace_event` JSON document or a human-readable stage summary.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl TraceSink for Recorder {
    fn record(&self, event: Event) {
        self.events.lock().expect("recorder lock").push(event);
    }
}

impl Recorder {
    /// Creates a recorder and [`install`]s it in one step.
    pub fn install() -> Arc<Recorder> {
        let rec = Arc::new(Recorder::default());
        install(rec.clone());
        rec
    }

    /// A copy of everything recorded so far, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("recorder lock").clone()
    }

    /// Sum of every contribution to the named counter.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events()
            .iter()
            .map(|e| match e {
                Event::Counter { name: n, value, .. } if *n == name => *value,
                _ => 0,
            })
            .sum()
    }

    /// Renders the Chrome `trace_event` document: an object with a
    /// `traceEvents` array of `"X"` (complete span), `"C"` (counter,
    /// as a running total per name) and `"M"` (thread-name metadata)
    /// events. Loads directly in `chrome://tracing` and Perfetto.
    pub fn chrome_trace(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 96 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };
        // Thread-name metadata first: one lane per track seen.
        let mut tracks: Vec<u32> = events
            .iter()
            .map(|e| match e {
                Event::Span { track, .. } | Event::Counter { track, .. } => *track,
            })
            .collect();
        tracks.sort_unstable();
        tracks.dedup();
        for t in tracks {
            let label = if t == 0 {
                "main".to_string()
            } else {
                format!("worker-{t}")
            };
            push(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\
                     \"args\":{{\"name\":{}}}}}",
                    json_str(&label)
                ),
                &mut first,
            );
        }
        let mut totals: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for e in &events {
            match e {
                Event::Span {
                    name,
                    track,
                    start_us,
                    dur_us,
                    req,
                } => {
                    let args = if *req == 0 {
                        String::new()
                    } else {
                        format!(",\"args\":{{\"req\":{req}}}")
                    };
                    push(
                        format!(
                            "{{\"name\":{},\"cat\":\"isax\",\"ph\":\"X\",\"ts\":{start_us},\
                             \"dur\":{dur_us},\"pid\":1,\"tid\":{track}{args}}}",
                            json_str(name)
                        ),
                        &mut first,
                    );
                }
                Event::Counter {
                    name,
                    ts_us,
                    value,
                    req,
                    ..
                } => {
                    let total = totals.entry(name).or_insert(0);
                    *total += value;
                    let req_arg = if *req == 0 {
                        String::new()
                    } else {
                        format!(",\"req\":{req}")
                    };
                    push(
                        format!(
                            "{{\"name\":{},\"ph\":\"C\",\"ts\":{ts_us},\"pid\":1,\"tid\":0,\
                             \"args\":{{\"value\":{total}{req_arg}}}}}",
                            json_str(name)
                        ),
                        &mut first,
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Renders recorded spans as folded stacks (inferno/FlameGraph
    /// input) — see [`crate::flame::folded_stacks`].
    pub fn folded_stacks(&self) -> String {
        crate::flame::folded_stacks(&self.events())
    }

    /// Renders the human-readable stage summary: per span name the call
    /// count, total and maximum wall-clock time; then every counter's
    /// summed total. Span timing appears here (a diagnostic surface),
    /// never in compared artifacts.
    pub fn summary(&self) -> String {
        use std::collections::BTreeMap;
        let events = self.events();
        let mut spans: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in &events {
            match e {
                Event::Span { name, dur_us, .. } => {
                    let s = spans.entry(name).or_insert((0, 0, 0));
                    s.0 += 1;
                    s.1 += dur_us;
                    s.2 = s.2.max(*dur_us);
                }
                Event::Counter { name, value, .. } => {
                    *counters.entry(name).or_insert(0) += value;
                }
            }
        }
        let mut out = String::new();
        out.push_str("=== isax trace summary ===\n");
        if !spans.is_empty() {
            out.push_str(&format!(
                "{:<28} {:>8} {:>12} {:>12}\n",
                "span", "calls", "total ms", "max ms"
            ));
            for (name, (calls, total, max)) in &spans {
                out.push_str(&format!(
                    "{:<28} {:>8} {:>12.3} {:>12.3}\n",
                    name,
                    calls,
                    *total as f64 / 1e3,
                    *max as f64 / 1e3
                ));
            }
        }
        if !counters.is_empty() {
            out.push_str(&format!("{:<28} {:>12}\n", "counter", "total"));
            for (name, total) in &counters {
                out.push_str(&format!("{name:<28} {total:>12}\n"));
            }
        }
        out
    }
}

/// Minimal JSON string escaping (quotes, backslash, control bytes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// How an observability environment variable was set. This is the one
/// canonical three-way table for every `ISAX_*` observability variable:
/// `isax-trace` applies it to `ISAX_TRACE`, `isax::RunConfig` to
/// `ISAX_PROV` (and, rejecting the path form, to its on/off
/// variables), and `isax-serve` re-exports it for `ISAX_SERVE_STATS`
/// (`isax-trace` is dependency-free, so it is the natural home).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum EnvMode {
    /// Explicitly or implicitly disabled: empty, `0`, `off`, `false`,
    /// `no` (ASCII case-insensitive, after trimming).
    #[default]
    Off,
    /// Enabled without a destination (`1`, `on`, `true`, `yes`): record
    /// and print the stage summary, write no file.
    Summary,
    /// Any other value is a file path to write the full artifact to.
    Path(String),
}

/// Parses one observability env-var value into an [`EnvMode`].
pub fn parse_env_value(v: &str) -> EnvMode {
    let v = v.trim();
    if v.is_empty()
        || v.eq_ignore_ascii_case("0")
        || v.eq_ignore_ascii_case("off")
        || v.eq_ignore_ascii_case("false")
        || v.eq_ignore_ascii_case("no")
    {
        EnvMode::Off
    } else if v == "1"
        || v.eq_ignore_ascii_case("on")
        || v.eq_ignore_ascii_case("true")
        || v.eq_ignore_ascii_case("yes")
    {
        EnvMode::Summary
    } else {
        EnvMode::Path(v.to_string())
    }
}

/// Reads the observability variable `name` now and parses it with
/// [`parse_env_value`]; unset (or not Unicode) is [`EnvMode::Off`].
pub fn env_mode(name: &str) -> EnvMode {
    std::env::var(name).map_or(EnvMode::Off, |v| parse_env_value(&v))
}

/// A trace session configured from the `ISAX_TRACE` and `ISAX_FLAME`
/// environment variables, used by binaries: `ISAX_TRACE=1` (or
/// `on`/`true`/`yes`) prints the stage summary to stderr on
/// [`EnvTrace::finish`]; any other non-disabling value is treated as a
/// path to write the Chrome trace to (the summary still goes to
/// stderr). `ISAX_FLAME` uses the same grammar for the folded-stack
/// flamegraph export: `1` prints folded stacks to stderr, a path
/// writes them to that file. Either variable alone activates the
/// recorder.
pub struct EnvTrace {
    recorder: Arc<Recorder>,
    summary: bool,
    out: Option<String>,
    flame: EnvMode,
}

/// Starts tracing if `ISAX_TRACE` or `ISAX_FLAME` requests it
/// ([`parse_env_value`] on each; unset, `0`, `off`, `false`, `no` and
/// empty all mean disabled). Binaries call this first thing and
/// [`EnvTrace::finish`] last thing.
pub fn init_from_env() -> Option<EnvTrace> {
    let trace = env_mode("ISAX_TRACE");
    let flame = env_mode("ISAX_FLAME");
    if trace == EnvMode::Off && flame == EnvMode::Off {
        return None;
    }
    let out = match trace {
        EnvMode::Path(ref p) => Some(p.clone()),
        _ => None,
    };
    Some(EnvTrace {
        recorder: Recorder::install(),
        summary: trace != EnvMode::Off,
        out,
        flame,
    })
}

impl EnvTrace {
    /// The live recorder, for callers that want the raw events.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// Uninstalls the sink, prints the summary to stderr, and writes
    /// the Chrome trace if a path was configured. Dropping the guard
    /// does the same, so `let _trace = init_from_env();` at the top of
    /// `main` is a complete integration.
    pub fn finish(self) {}
}

impl Drop for EnvTrace {
    fn drop(&mut self) {
        uninstall();
        if self.summary {
            eprint!("{}", self.recorder.summary());
        }
        if let Some(path) = &self.out {
            match std::fs::write(path, self.recorder.chrome_trace()) {
                Ok(()) => eprintln!("chrome trace written to {path} (open in Perfetto)"),
                Err(e) => eprintln!("failed to write trace {path}: {e}"),
            }
        }
        match &self.flame {
            EnvMode::Off => {}
            EnvMode::Summary => eprint!("{}", self.recorder.folded_stacks()),
            EnvMode::Path(path) => match std::fs::write(path, self.recorder.folded_stacks()) {
                Ok(()) => eprintln!("folded stacks written to {path} (inferno/FlameGraph input)"),
                Err(e) => eprintln!("failed to write folded stacks {path}: {e}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global sink is process-wide; tests that install one take
    /// this lock so they do not observe each other's events.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn env_value_forms() {
        for v in ["", "  ", "0", "off", "OFF", "false", "No", " off "] {
            assert_eq!(parse_env_value(v), EnvMode::Off, "{v:?}");
        }
        for v in ["1", "on", "ON", "true", "YES", " 1 "] {
            assert_eq!(parse_env_value(v), EnvMode::Summary, "{v:?}");
        }
        assert_eq!(
            parse_env_value("trace.json"),
            EnvMode::Path("trace.json".into())
        );
        assert_eq!(parse_env_value("./off"), EnvMode::Path("./off".into()));
    }

    #[test]
    fn disabled_by_default_and_spans_are_free() {
        let _guard = TEST_LOCK.lock().unwrap();
        uninstall();
        assert!(!enabled());
        let _s = span("never.recorded");
        counter("never.counted", 7);
        // Nothing to assert against: the point is no panic, no sink.
    }

    #[test]
    fn spans_and_counters_reach_the_recorder() {
        let _guard = TEST_LOCK.lock().unwrap();
        let rec = Recorder::install();
        {
            let _outer = span("outer");
            let _inner = span("inner");
            counter("hits", 3);
            counter("hits", 4);
        }
        uninstall();
        let events = rec.events();
        // Counters arrive first (recorded inline), then inner closes
        // before outer (drop order).
        assert_eq!(rec.counter_total("hits"), 7);
        let span_names: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert_eq!(span_names, vec!["inner", "outer"]);
    }

    #[test]
    fn chrome_trace_shape_is_wellformed() {
        let _guard = TEST_LOCK.lock().unwrap();
        let rec = Recorder::install();
        set_track(2);
        {
            let _s = span("stage");
            counter("c", 1);
            counter("c", 2);
        }
        set_track(0);
        uninstall();
        let doc = rec.chrome_trace();
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("\"tid\":2"));
        assert!(doc.contains("worker-2"));
        // Counter events carry the running total: 1 then 3.
        let last_counter = doc.rfind("\"value\":3").expect("running total");
        let first_counter = doc.find("\"value\":1").expect("first delta");
        assert!(first_counter < last_counter);
    }

    #[test]
    fn summary_aggregates_per_name() {
        let _guard = TEST_LOCK.lock().unwrap();
        let rec = Recorder::install();
        for _ in 0..3 {
            let _s = span("stage.a");
        }
        counter("n", 5);
        counter("n", 6);
        uninstall();
        let text = rec.summary();
        assert!(text.contains("stage.a"));
        assert!(text.contains("3"), "call count shown");
        assert!(text.contains("11"), "counter summed");
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn request_tag_lands_on_spans_and_counters() {
        let _guard = TEST_LOCK.lock().unwrap();
        let rec = Recorder::install();
        set_request(42);
        {
            let _s = span("tagged");
            counter("tagged.count", 1);
        }
        set_request(0);
        {
            let _s = span("untagged");
        }
        uninstall();
        let reqs: Vec<u64> = rec
            .events()
            .iter()
            .map(|e| match e {
                Event::Span { req, .. } | Event::Counter { req, .. } => *req,
            })
            .collect();
        assert_eq!(reqs, vec![42, 42, 0]);
        let doc = rec.chrome_trace();
        assert!(doc.contains("\"req\":42"));
        std::thread::spawn(|| assert_eq!(current_request(), 0))
            .join()
            .unwrap();
    }

    #[test]
    fn track_is_thread_local() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_track(7);
        assert_eq!(current_track(), 7);
        std::thread::spawn(|| assert_eq!(current_track(), 0))
            .join()
            .unwrap();
        set_track(0);
    }
}
