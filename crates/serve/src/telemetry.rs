//! Per-request telemetry: deterministic request ids, the structured
//! newline-JSON access log, and the server metrics registry.
//!
//! # Request ids
//!
//! Every frame the server reads gets an id derived only from its
//! arrival sequence number and a fingerprint of its bytes —
//! `<seq>-<fnv64(frame) as hex>` — never from wall-clock time or
//! randomness, so the same request script produces the same ids at any
//! worker count. The sequence number is also pushed into
//! `isax_trace::set_request` while the request runs, tagging every
//! span and counter the pipeline emits (and, via `isax_graph::par`,
//! everything its nested workers emit) with the request.
//!
//! # Access log
//!
//! One compact-JSON line per request — accepted, busy-rejected, or
//! malformed — written exactly once, by whichever thread finished the
//! request (workers for queued work, connection threads for control
//! requests and protocol errors). Configured by `--access-log` /
//! `ISAX_SERVE_LOG` with the shared `0`/`off`/`1`/path grammar
//! ([`isax_trace::parse_env_value`]); the summary form writes to
//! stderr.
//!
//! # Metrics registry
//!
//! [`ServeMetrics`] holds what the `stats` document alone could not
//! say: gauges (inflight, queue high-water, uptime), per-error-code
//! counters, and the latency [`Hist`]s (queue wait, per-stage service
//! time, end-to-end) behind the `metrics` exposition.

use crate::protocol::ErrorCode;
use isax_json::{object, Value};
use isax_trace::{EnvMode, Hist};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The deterministic request id: arrival sequence plus a content
/// fingerprint of the frame bytes. No clock, no randomness.
#[must_use]
pub fn request_id(seq: u64, content_fp: u64) -> String {
    format!("{seq}-{content_fp:016x}")
}

/// One finished request, as recorded in the access log.
#[derive(Debug, Clone, Default)]
pub struct AccessRecord {
    /// Arrival sequence number (1-based, equals the `received` counter
    /// at read time).
    pub seq: u64,
    /// Deterministic request id ([`request_id`]).
    pub id: String,
    /// Request kind: `customize`, `compile`, `stats`, `metrics`,
    /// `shutdown`, or `frame` for bytes that never decoded.
    pub kind: &'static str,
    /// Application name for work requests.
    pub name: Option<String>,
    /// `ok`, or the wire error code.
    pub outcome: &'static str,
    /// Served from the artifact cache?
    pub cached: bool,
    /// Admitted work-unit budget (after clamping), when governed.
    pub admitted: Option<u64>,
    /// Number of degradation records in the response.
    pub degraded: u64,
    /// Time spent queued, in microseconds (0 for inline requests).
    pub queue_us: u64,
    /// Per-stage service time, in stage execution order.
    pub stages: Vec<(&'static str, u64)>,
    /// Receipt-to-response-ready latency in microseconds.
    pub total_us: u64,
}

impl AccessRecord {
    /// Renders the record as one compact JSON line (no newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut fields: Vec<(&'static str, Value)> = vec![
            ("seq", Value::from(self.seq)),
            ("id", Value::from(self.id.clone())),
            ("req", Value::from(self.kind)),
        ];
        if let Some(name) = &self.name {
            fields.push(("name", Value::from(name.clone())));
        }
        fields.push(("outcome", Value::from(self.outcome)));
        if self.cached {
            fields.push(("cached", Value::Bool(true)));
        }
        if let Some(u) = self.admitted {
            fields.push(("admitted", Value::from(u)));
        }
        if self.degraded > 0 {
            fields.push(("degraded", Value::from(self.degraded)));
        }
        fields.push(("queue_us", Value::from(self.queue_us)));
        if !self.stages.is_empty() {
            fields.push((
                "stages_us",
                object(
                    self.stages
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::from(*v))),
                ),
            ));
        }
        fields.push(("total_us", Value::from(self.total_us)));
        object(fields).to_string_compact()
    }
}

enum AccessSink {
    Stderr,
    File(std::io::BufWriter<std::fs::File>),
}

/// The access-log writer: serialized, line-buffered, exactly one line
/// per finished request.
pub struct AccessLog {
    sink: Mutex<AccessSink>,
    lines: AtomicU64,
}

impl AccessLog {
    /// Opens the sink for `mode`; `None` when the log is off.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures for the path form.
    pub fn open(mode: &EnvMode) -> std::io::Result<Option<AccessLog>> {
        let sink = match mode {
            EnvMode::Off => return Ok(None),
            EnvMode::Summary => AccessSink::Stderr,
            EnvMode::Path(p) => {
                AccessSink::File(std::io::BufWriter::new(std::fs::File::create(p)?))
            }
        };
        Ok(Some(AccessLog {
            sink: Mutex::new(sink),
            lines: AtomicU64::new(0),
        }))
    }

    /// Appends one record. Never panics; write errors are swallowed
    /// (telemetry must not take down request processing).
    pub fn write(&self, rec: &AccessRecord) {
        let line = rec.to_line();
        self.lines.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut sink) = self.sink.lock() {
            match &mut *sink {
                AccessSink::Stderr => eprintln!("{line}"),
                AccessSink::File(f) => {
                    let _ = writeln!(f, "{line}");
                    let _ = f.flush();
                }
            }
        }
    }

    /// Number of records written so far.
    pub fn lines(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }
}

/// The latency histograms behind the exposition, all in microseconds
/// except `admitted_units` (work units — request-derived, so it lands
/// in the deterministic exposition section).
#[derive(Debug, Default, Clone)]
pub struct HistSet {
    /// Time jobs spent in the bounded queue.
    pub queue_wait_us: Hist,
    /// Receipt-to-response-ready latency of queued work.
    pub e2e_us: Hist,
    /// Admitted (post-clamp) work-unit budgets; 0 for ungoverned.
    pub admitted_units: Hist,
    /// Per-stage service time.
    pub stages: BTreeMap<&'static str, Hist>,
}

/// Gauges, per-error-code counters and histograms for one server.
pub struct ServeMetrics {
    started: Instant,
    inflight: AtomicU64,
    queue_high_water: AtomicU64,
    by_code: [AtomicU64; ErrorCode::ALL.len()],
    hists: Mutex<HistSet>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics {
            started: Instant::now(),
            inflight: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            by_code: Default::default(),
            hists: Mutex::new(HistSet::default()),
        }
    }
}

impl ServeMetrics {
    /// Seconds since the server started.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Work requests currently being processed by workers.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Marks a work request entering processing.
    pub fn enter(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a work request leaving processing.
    pub fn leave(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Raises the queue-depth high-water mark to at least `depth`.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// The queue-depth high-water mark.
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high_water.load(Ordering::Relaxed)
    }

    /// Counts one error of the given code.
    pub fn count_error(&self, code: ErrorCode) {
        self.by_code[code.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Errors counted so far with the given code.
    pub fn errors(&self, code: ErrorCode) -> u64 {
        self.by_code[code.index()].load(Ordering::Relaxed)
    }

    /// The per-code error counters, in [`ErrorCode::ALL`] order.
    pub fn by_code(&self) -> Vec<(ErrorCode, u64)> {
        ErrorCode::ALL
            .iter()
            .map(|c| (*c, self.errors(*c)))
            .collect()
    }

    /// Sum of every per-code error counter.
    pub fn errors_total(&self) -> u64 {
        self.by_code.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Runs `f` with the histogram set locked.
    pub fn with_hists<T>(&self, f: impl FnOnce(&mut HistSet) -> T) -> T {
        let mut guard = self.hists.lock().expect("hist lock");
        f(&mut guard)
    }

    /// A snapshot of the histogram set.
    pub fn hists(&self) -> HistSet {
        self.with_hists(|h| h.clone())
    }
}
