//! The threaded job server.
//!
//! One accept thread hands each connection to a connection thread; work
//! requests (`customize`/`compile`) flow through a **bounded queue**
//! onto a fixed pool of worker threads, while control requests
//! (`stats`/`shutdown`) are answered inline on the connection thread so
//! a saturated server stays observable and stoppable. A full queue is
//! backpressure: the request is rejected immediately with a `busy`
//! error rather than buffered without bound.
//!
//! **Admission control** is an isax-guard budget: when
//! [`ServeConfig::max_work_units`] is set, every admitted request runs
//! under `Guard::with_units(min(requested, cap))` — no single request
//! can exceed the server's per-request compute allowance; it degrades
//! gracefully (sound prefix + `Degradation` records in the response)
//! instead of monopolizing a worker.
//!
//! **Determinism**: each worker calls the same [`isax::Customizer`]
//! entry points the CLI calls (`analyze` + `customize_analysis`,
//! `evaluate`, `provenance_report`), over the same shared context;
//! inner pipeline stages still fan out through `isax_graph::par`
//! exactly as in the one-shot CLI, so every artifact byte matches the
//! serial CLI output (`tests/serve.rs` proves this). Provenance
//! recording is enabled for the server's whole lifetime — per-request
//! logs ride on stage return values, so concurrent requests never
//! interleave.

use crate::cache::{fnv64, request_key, ArtifactCache};
use crate::protocol::{
    decode_request, encode_response, frame_id, Artifacts, ErrorCode, Frame, Reply, Request,
    Response, WireError, MAX_FRAME_BYTES,
};
use crate::telemetry::{request_id, AccessLog, AccessRecord, HistSet, ServeMetrics};
use isax::{Customizer, MatchOptions, Mdes, SharedContext, StageReport};
use isax_json::{object, Value};
use isax_trace::{env_mode, EnvMode, Expo, Section};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker threads draining the queue. Defaults to
    /// `isax_graph::par::thread_count()` (the `ISAX_THREADS` pool
    /// width).
    pub workers: usize,
    /// Bounded-queue capacity; a full queue rejects with `busy`.
    pub queue_cap: usize,
    /// Per-request admission cap in isax-guard work units: requests run
    /// under `min(requested, cap)`; `None` admits ungoverned requests
    /// as-is.
    pub max_work_units: Option<u64>,
    /// Per-frame byte cap (requests over this get `oversized-frame`).
    pub max_frame_bytes: usize,
    /// What to do with final stats at shutdown (`ISAX_SERVE_STATS`, in
    /// the shared observability grammar): off, one summary line on
    /// stderr, or the final stats JSON written to a path.
    pub stats: EnvMode,
    /// Access-log destination (`--access-log` / `ISAX_SERVE_LOG`): one
    /// JSON line per request, exactly once.
    pub access_log: EnvMode,
    /// Path the Prometheus metrics snapshot is written to at shutdown
    /// (`--metrics-out`).
    pub metrics_out: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: isax_graph::par::thread_count(),
            queue_cap: 64,
            max_work_units: None,
            max_frame_bytes: MAX_FRAME_BYTES,
            stats: env_mode("ISAX_SERVE_STATS"),
            access_log: env_mode("ISAX_SERVE_LOG"),
            metrics_out: None,
        }
    }
}

/// A frame's identity from the moment it was read off the socket.
#[derive(Clone)]
struct Arrival {
    /// Arrival sequence number (doubles as the trace request tag).
    seq: u64,
    /// Deterministic request id for the access log.
    rid: String,
    /// When the frame was read (end-to-end latency base).
    at: Instant,
}

struct Job {
    frame: Frame,
    reply: mpsc::Sender<String>,
    arrival: Arrival,
    /// When the job entered the queue (queue-wait base).
    enqueued_at: Instant,
}

/// Per-request work telemetry, filled while the request runs.
#[derive(Debug, Default)]
struct WorkInfo {
    stages: Vec<(&'static str, u64)>,
    admitted: Option<u64>,
}

struct Shared {
    ctx: Arc<SharedContext>,
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    cache: ArtifactCache,
    received: AtomicU64,
    completed: AtomicU64,
    clamped: AtomicU64,
    recorder: Option<Arc<isax_trace::Recorder>>,
    metrics: ServeMetrics,
    access: Option<AccessLog>,
}

impl Shared {
    /// Runs `f` as the request's `stage`, recording its service time.
    fn timed<T>(&self, info: &mut WorkInfo, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let us = t.elapsed().as_micros() as u64;
        self.metrics
            .with_hists(|h| h.stages.entry(stage).or_default().record(us));
        info.stages.push((stage, us));
        out
    }

    /// Numbers a frame just read: `content_fp` fingerprints its bytes
    /// (0 when there are none to trust).
    fn arrive(&self, content_fp: u64) -> Arrival {
        let at = Instant::now();
        let seq = self.received.fetch_add(1, Ordering::Relaxed) + 1;
        Arrival {
            seq,
            rid: request_id(seq, content_fp),
            at,
        }
    }

    /// Writes one access-log record (no-op when the log is off).
    fn log_access(&self, rec: &AccessRecord) {
        if let Some(log) = &self.access {
            log.write(rec);
        }
    }

    /// Writes the access-log record of a request the connection thread
    /// finished itself (control requests and refusals).
    fn log_inline(&self, arrival: &Arrival, kind: &'static str, outcome: &'static str) {
        self.log_access(&AccessRecord {
            seq: arrival.seq,
            id: arrival.rid.clone(),
            kind,
            outcome,
            total_us: arrival.at.elapsed().as_micros() as u64,
            ..AccessRecord::default()
        });
    }

    /// The live statistics snapshot the `stats` request returns.
    fn stats_value(&self) -> Value {
        let queue_depth = self.queue.lock().expect("queue lock").len();
        let latency: Vec<(String, Value)> = self.metrics.with_hists(|h| {
            h.stages
                .iter()
                .map(|(k, h)| {
                    let agg = object([
                        ("sum_us", Value::from(h.sum())),
                        ("count", Value::from(h.count())),
                        ("max_us", Value::from(h.max())),
                    ]);
                    ((*k).to_string(), agg)
                })
                .collect()
        });
        let by_code = object(
            self.metrics
                .by_code()
                .into_iter()
                .map(|(c, n)| (c.as_str().to_string(), Value::from(n))),
        );
        let mut fields = vec![
            ("uptime_s", Value::Float(self.metrics.uptime_s())),
            (
                "queue",
                object([
                    ("depth", Value::from(queue_depth as u64)),
                    ("capacity", Value::from(self.cfg.queue_cap as u64)),
                    ("workers", Value::from(self.cfg.workers as u64)),
                    ("high_water", Value::from(self.metrics.queue_high_water())),
                ]),
            ),
            (
                "requests",
                object([
                    (
                        "received",
                        Value::from(self.received.load(Ordering::Relaxed)),
                    ),
                    (
                        "completed",
                        Value::from(self.completed.load(Ordering::Relaxed)),
                    ),
                    ("errors", Value::from(self.metrics.errors_total())),
                    (
                        "busy_rejected",
                        Value::from(self.metrics.errors(ErrorCode::Busy)),
                    ),
                    ("inflight", Value::from(self.metrics.inflight())),
                    ("by_code", by_code),
                ]),
            ),
            (
                "cache",
                object([
                    ("entries", Value::from(self.cache.len() as u64)),
                    ("hits", Value::from(self.cache.hits())),
                    ("misses", Value::from(self.cache.misses())),
                    ("hit_rate", Value::Float(self.cache.hit_rate())),
                ]),
            ),
            (
                "admission",
                object([
                    (
                        "max_work_units",
                        match self.cfg.max_work_units {
                            Some(u) => Value::from(u),
                            None => Value::Null,
                        },
                    ),
                    (
                        "clamped_requests",
                        Value::from(self.clamped.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            ("latency_us", object(latency)),
        ];
        if let Some(rec) = &self.recorder {
            let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
            for e in rec.events() {
                if let isax_trace::Event::Counter { name, value, .. } = e {
                    *totals.entry(name).or_default() += value;
                }
            }
            fields.push((
                "trace_counters",
                object(
                    totals
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Value::from(v))),
                ),
            ));
        }
        object(fields)
    }

    /// The Prometheus text exposition. Metric families are emitted in
    /// a fixed (alphabetical) order within each section; everything
    /// before [`isax_trace::WALL_MARKER`] is fed only from
    /// request-derived values, so for the same request stream it is
    /// byte-identical at any worker count (`tests/serve.rs` asserts
    /// this serial-vs-4-workers).
    fn metrics_text(&self) -> String {
        let hists = self.metrics.hists();
        let mut e = Expo::new();
        let det = Section::Deterministic;
        let wall = Section::WallClock;
        e.counter(
            det,
            "isax_serve_admission_clamped_total",
            "Requests whose work budget was clamped to the admission cap",
            self.clamped.load(Ordering::Relaxed),
        );
        e.hist(
            det,
            "isax_serve_admitted_units",
            "Admitted (post-clamp) per-request work-unit budgets (0 = ungoverned)",
            &hists.admitted_units,
        );
        e.gauge(
            det,
            "isax_serve_cache_entries",
            "Artifact-cache entries",
            self.cache.len() as u64,
        );
        e.counter(
            det,
            "isax_serve_cache_hits_total",
            "Artifact-cache hits",
            self.cache.hits(),
        );
        e.counter(
            det,
            "isax_serve_cache_misses_total",
            "Artifact-cache misses",
            self.cache.misses(),
        );
        let by_code = self.metrics.by_code();
        let pairs: Vec<(&str, u64)> = by_code.iter().map(|(c, n)| (c.as_str(), *n)).collect();
        e.counter_by_label(
            det,
            "isax_serve_errors_total",
            "Failed requests by wire error code",
            "code",
            &pairs,
        );
        e.counter(
            det,
            "isax_serve_requests_completed_total",
            "Successfully answered requests (work and control)",
            self.completed.load(Ordering::Relaxed),
        );
        e.counter(
            det,
            "isax_serve_requests_received_total",
            "Frames read off client sockets",
            self.received.load(Ordering::Relaxed),
        );
        e.hist(
            wall,
            "isax_serve_e2e_us",
            "Receipt-to-response-ready latency of queued work, microseconds",
            &hists.e2e_us,
        );
        e.gauge(
            wall,
            "isax_serve_inflight",
            "Work requests currently being processed",
            self.metrics.inflight(),
        );
        e.gauge(
            wall,
            "isax_serve_queue_capacity",
            "Bounded-queue capacity",
            self.cfg.queue_cap as u64,
        );
        e.gauge(
            wall,
            "isax_serve_queue_depth",
            "Jobs currently queued",
            self.queue.lock().expect("queue lock").len() as u64,
        );
        e.gauge(
            wall,
            "isax_serve_queue_high_water",
            "Highest observed queue depth",
            self.metrics.queue_high_water(),
        );
        e.hist(
            wall,
            "isax_serve_queue_wait_us",
            "Time jobs spent queued, microseconds",
            &hists.queue_wait_us,
        );
        for (stage, h) in &hists.stages {
            let name = format!("isax_serve_stage_{stage}_us");
            let help = format!("Service time of the {stage} stage, microseconds");
            e.hist(wall, &name, &help, h);
        }
        e.gauge_f64(
            wall,
            "isax_serve_uptime_seconds",
            "Seconds since the server started",
            self.metrics.uptime_s(),
        );
        e.gauge(
            wall,
            "isax_serve_workers",
            "Worker threads draining the queue",
            self.cfg.workers as u64,
        );
        e.render()
    }

    /// Clamps a requested work budget to the admission cap. The
    /// admitted value is request-derived (no clocks), so its histogram
    /// lands in the deterministic exposition section.
    fn admit(&self, requested: Option<u64>) -> Option<u64> {
        let admitted = match (requested, self.cfg.max_work_units) {
            (Some(r), Some(cap)) => {
                if r > cap {
                    self.clamped.fetch_add(1, Ordering::Relaxed);
                }
                Some(r.min(cap))
            }
            (Some(r), None) => Some(r),
            (None, Some(cap)) => Some(cap),
            (None, None) => None,
        };
        self.metrics
            .with_hists(|h| h.admitted_units.record(admitted.unwrap_or(0)));
        admitted
    }

    /// The pipeline one work request runs: the shared context, the
    /// per-request defaults `Customizer::with_context` takes from it,
    /// and the admitted work units.
    fn customizer(&self, work_budget: Option<u64>, info: &mut WorkInfo) -> Customizer {
        let admitted = self.admit(work_budget);
        info.admitted = admitted;
        let mut cz = Customizer::with_context(self.ctx.clone());
        if let Some(u) = admitted {
            cz.guard = cz.guard.clone().with_units(u);
        }
        cz
    }

    /// Completes `artifacts` with the `degraded` lines of the run's stage
    /// `report`, then caches them under `key` and returns them, unless
    /// one of its degradations is not
    /// [replayable](isax::DegradationKind::replayable)
    /// (a deadline, a contained panic or a cancellation): such results
    /// are served but never cached.
    fn store(&self, key: u64, report: &StageReport, artifacts: Artifacts) -> Artifacts {
        let artifacts = Artifacts {
            degraded: report
                .degradations
                .iter()
                .map(ToString::to_string)
                .collect(),
            ..artifacts
        };
        if report.degradations.iter().all(|d| d.kind.replayable()) {
            (*self.cache.insert(key, artifacts)).clone()
        } else {
            artifacts
        }
    }

    /// Runs one admitted work request.
    fn process(&self, frame: Frame, info: &mut WorkInfo) -> Response {
        let id = frame.id;
        match self.try_process(frame, info) {
            Ok((cached, artifacts)) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                Response {
                    id,
                    reply: Reply::Artifacts { cached, artifacts },
                }
            }
            Err(e) => {
                self.metrics.count_error(e.code);
                Response {
                    id,
                    reply: Reply::Error(e),
                }
            }
        }
    }

    /// The server's share of a work request: wire error codes, the cache
    /// key and lookup, stage timing and the replayable-store rule. The
    /// artifacts come from the `Customizer` entry points `isax
    /// customize` and `isax compile` call. A compile's MDES is parsed
    /// only on a miss: the key covers its text, and a text that did not
    /// parse was never stored.
    fn try_process(
        &self,
        frame: Frame,
        info: &mut WorkInfo,
    ) -> Result<(bool, Artifacts), WireError> {
        // Control requests never reach the queue.
        let control = || WireError::new(ErrorCode::BadRequest, "control request on the work queue");
        let (kernel, work_budget) = match &frame.request {
            Request::Customize {
                kernel,
                work_budget,
                ..
            }
            | Request::Compile {
                kernel,
                work_budget,
                ..
            } => (kernel, *work_budget),
            Request::Stats | Request::Metrics | Request::Shutdown => return Err(control()),
        };
        let program = self.timed(info, "parse", || {
            isax_ir::parse_program(kernel)
                .map_err(|e| WireError::new(ErrorCode::ParseError, e.to_string()))
        })?;
        let cz = self.customizer(work_budget, info);
        let key = request_key(&frame, &program, cz.guard.budget().units);
        if let Some(hit) = self.cache.lookup(key) {
            return Ok((true, (*hit).clone()));
        }
        match frame.request {
            Request::Customize {
                name,
                budget,
                multifunction,
                ..
            } => {
                let analysis = self.timed(info, "analyze", || cz.analyze(&program));
                let (mdes, sel) = self.timed(info, "select", || {
                    cz.customize_analysis(&name, analysis, budget, multifunction)
                });
                let mdes_json = mdes
                    .to_json()
                    .map_err(|e| WireError::new(ErrorCode::BadRequest, e.to_string()))?;
                let artifacts = Artifacts {
                    mdes: Some(mdes_json),
                    prov: Some(cz.provenance_report(&name, &sel.report.prov, Some(&mdes), None)),
                    ..Artifacts::default()
                };
                Ok((false, self.store(key, &sel.report, artifacts)))
            }
            Request::Compile {
                name,
                mdes,
                subsumed,
                wildcard,
                ..
            } => {
                let mdes = Mdes::from_json(&mdes)
                    .map_err(|e| WireError::new(ErrorCode::BadMdes, e.to_string()))?;
                let matching = MatchOptions::from_flags(subsumed, wildcard);
                let ev = self.timed(info, "evaluate", || cz.evaluate(&program, &mdes, matching));
                let prov = cz.provenance_report(
                    &name,
                    &ev.compiled.report.prov,
                    Some(&mdes),
                    Some(&ev.compiled),
                );
                let artifacts = Artifacts {
                    assembly: Some(ev.compiled.program.functions_text()),
                    prov: Some(prov),
                    baseline_cycles: Some(ev.baseline_cycles),
                    custom_cycles: Some(ev.custom_cycles),
                    ..Artifacts::default()
                };
                Ok((false, self.store(key, &ev.compiled.report, artifacts)))
            }
            Request::Stats | Request::Metrics | Request::Shutdown => Err(control()),
        }
    }
}

/// A running server. Dropping it initiates shutdown and joins every
/// thread the server owns.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    // Provenance recording stays on for the server's lifetime so worker
    // threads never race an enable/disable edge mid-request.
    _prov: isax_prov::EnableGuard,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn spawn(cfg: ServeConfig) -> std::io::Result<Server> {
        Server::spawn_with_context(cfg, Arc::new(SharedContext::new()))
    }

    /// [`Server::spawn`] over a caller-built shared context.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn spawn_with_context(
        cfg: ServeConfig,
        ctx: Arc<SharedContext>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let recorder = match cfg.stats {
            EnvMode::Off => None,
            _ => Some(isax_trace::Recorder::install()),
        };
        let workers_n = cfg.workers.max(1);
        let access = AccessLog::open(&cfg.access_log)?;
        let shared = Arc::new(Shared {
            ctx,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache: ArtifactCache::new(),
            received: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            clamped: AtomicU64::new(0),
            recorder,
            metrics: ServeMetrics::default(),
            access,
        });
        let workers = (0..workers_n)
            .map(|_| {
                let sh = shared.clone();
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        let accept = {
            let sh = shared.clone();
            std::thread::spawn(move || accept_loop(&listener, &sh))
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
            _prov: isax_prov::enable(),
        })
    }

    /// The bound address (read the port from here when binding to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A host-side statistics snapshot (same document the `stats`
    /// request returns).
    pub fn stats_value(&self) -> Value {
        self.shared.stats_value()
    }

    /// A host-side metrics snapshot (same text the `metrics` request
    /// returns): Prometheus text exposition, deterministic section
    /// first.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// A host-side snapshot of the latency histograms (queue wait,
    /// end-to-end, per-stage, admitted units).
    pub fn hists(&self) -> HistSet {
        self.shared.metrics.hists()
    }

    /// Access-log records written so far (0 when the log is off).
    pub fn access_log_lines(&self) -> u64 {
        self.shared.access.as_ref().map_or(0, AccessLog::lines)
    }

    /// Asks the server to stop: no new work is admitted, queued work
    /// drains, the accept loop wakes and exits.
    pub fn initiate_shutdown(&self) {
        initiate_shutdown(&self.shared, self.addr);
    }

    /// Blocks until the server has fully stopped (accept loop and every
    /// worker joined), then delivers the final stats per
    /// [`ServeConfig::stats`].
    pub fn join(mut self) {
        self.join_inner();
    }

    /// Initiates shutdown and waits for it to complete.
    pub fn shutdown(self) {
        self.initiate_shutdown();
        self.join();
    }

    fn join_inner(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
            // Accept loop exit implies the shutdown flag is set; wake
            // and join the workers, then deliver final stats.
            self.shared.queue_cv.notify_all();
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
            let shared = &self.shared;
            match &shared.cfg.stats {
                EnvMode::Off => {}
                EnvMode::Summary => eprintln!(
                    "isax serve: {} completed, {} errors, cache hit rate {:.2}",
                    shared.completed.load(Ordering::Relaxed),
                    shared.metrics.errors_total(),
                    shared.cache.hit_rate(),
                ),
                EnvMode::Path(p) => {
                    let mut text = shared.stats_value().to_string_pretty();
                    text.push('\n');
                    if let Err(e) = std::fs::write(p, text) {
                        eprintln!("isax serve: could not write stats to {p}: {e}");
                    }
                }
            }
            if let Some(path) = &self.shared.cfg.metrics_out {
                if let Err(e) = std::fs::write(path, self.shared.metrics_text()) {
                    eprintln!("isax serve: could not write metrics to {path}: {e}");
                }
            }
            if let Some(rec) = &self.shared.recorder {
                // Read at shutdown: a path here gets the folded-stack
                // flamegraph of the server's whole life.
                match env_mode("ISAX_FLAME") {
                    EnvMode::Off => {}
                    EnvMode::Summary => eprint!("{}", rec.folded_stacks()),
                    EnvMode::Path(p) => {
                        if let Err(e) = std::fs::write(&p, rec.folded_stacks()) {
                            eprintln!("isax serve: could not write folded stacks to {p}: {e}");
                        }
                    }
                }
                isax_trace::uninstall();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.initiate_shutdown();
        self.join_inner();
    }
}

fn initiate_shutdown(shared: &Arc<Shared>, addr: SocketAddr) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.queue_cv.notify_all();
    // Wake the accept loop: it checks the flag after every accept, so a
    // throwaway local connection gets it to exit.
    let _ = TcpStream::connect(addr);
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.queue_cv.wait(q).expect("queue wait");
            }
        };
        let Some(job) = job else { return };
        let queue_us = job.enqueued_at.elapsed().as_micros() as u64;
        let kind = job.frame.request.kind();
        let name = match &job.frame.request {
            Request::Customize { name, .. } | Request::Compile { name, .. } => Some(name.clone()),
            _ => None,
        };
        shared.metrics.enter();
        // Tag every span/counter the pipeline emits with this request.
        isax_trace::set_request(job.arrival.seq);
        let mut info = WorkInfo::default();
        let resp = shared.process(job.frame, &mut info);
        isax_trace::set_request(0);
        shared.metrics.leave();
        let total_us = job.arrival.at.elapsed().as_micros() as u64;
        shared.metrics.with_hists(|h| {
            h.queue_wait_us.record(queue_us);
            h.e2e_us.record(total_us);
        });
        let (outcome, cached, degraded) = match &resp.reply {
            Reply::Artifacts { cached, artifacts } => ("ok", *cached, artifacts.degraded.len()),
            Reply::Error(e) => (e.code.as_str(), false, 0),
            _ => ("ok", false, 0),
        };
        shared.log_access(&AccessRecord {
            seq: job.arrival.seq,
            id: job.arrival.rid,
            kind,
            name,
            outcome,
            cached,
            admitted: info.admitted,
            degraded: degraded as u64,
            queue_us,
            stages: info.stages,
            total_us,
        });
        // A closed reply channel means the client hung up; the work
        // (and its cache entry) is still done.
        let _ = job.reply.send(encode_response(&resp));
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let sh = shared.clone();
                std::thread::spawn(move || connection_loop(stream, &sh));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// What reading one frame produced.
enum FrameRead {
    /// A complete line (without the `\n`).
    Line(String),
    /// The line exceeded the frame cap; the rest was discarded.
    Oversized,
    /// The stream ended mid-line.
    Truncated,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated frame with a byte cap. On overflow the
/// remainder of the line is discarded so the connection can keep
/// serving subsequent frames.
fn read_frame(reader: &mut BufReader<TcpStream>, cap: usize) -> std::io::Result<FrameRead> {
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if oversized {
                FrameRead::Oversized
            } else if line.is_empty() {
                FrameRead::Eof
            } else {
                FrameRead::Truncated
            });
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |i| i + 1);
        if !oversized {
            let body = newline.map_or(take, |i| i);
            if line.len() + body > cap {
                oversized = true;
                line.clear();
            } else {
                line.extend_from_slice(&buf[..body]);
            }
        }
        reader.consume(take);
        if newline.is_some() {
            return Ok(if oversized {
                FrameRead::Oversized
            } else {
                FrameRead::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        // Every non-empty frame gets an arrival sequence number (the
        // `received` counter) and a deterministic request id derived
        // from that sequence plus a content fingerprint — no clocks,
        // no randomness, so a request script replays to the same ids.
        // A frame that never decodes is refused with the id it carried,
        // if any. After a truncated frame the next read is the end of
        // the stream, which closes the connection.
        let (arrival, decoded) = match read_frame(&mut reader, shared.cfg.max_frame_bytes) {
            Ok(FrameRead::Line(line)) if line.trim().is_empty() => continue,
            Ok(FrameRead::Line(line)) => (
                shared.arrive(fnv64(line.as_bytes())),
                decode_request(&line).map_err(|e| (frame_id(&line), e)),
            ),
            Ok(FrameRead::Oversized) => {
                let cap = shared.cfg.max_frame_bytes;
                let e = WireError::new(
                    ErrorCode::OversizedFrame,
                    format!("frame exceeds {cap} bytes"),
                );
                (shared.arrive(0), Err((0, e)))
            }
            Ok(FrameRead::Truncated) => {
                let e = WireError::new(ErrorCode::TruncatedFrame, "stream ended mid-frame");
                (shared.arrive(0), Err((0, e)))
            }
            Ok(FrameRead::Eof) | Err(_) => return,
        };
        let frame = match decoded {
            Ok(frame) => frame,
            Err((id, e)) => {
                if refuse(&mut writer, shared, &arrival, "frame", id, e).is_err() {
                    return;
                }
                continue;
            }
        };
        let kind = frame.request.kind();
        if let Request::Customize { .. } | Request::Compile { .. } = frame.request {
            if !dispatch(&mut writer, shared, frame, arrival) {
                return;
            }
            continue;
        }
        // Control requests are answered here, counted before the
        // snapshot so it includes them.
        shared.completed.fetch_add(1, Ordering::Relaxed);
        shared.log_inline(&arrival, kind, "ok");
        let reply = match frame.request {
            Request::Stats => Reply::Stats(shared.stats_value()),
            Request::Metrics => Reply::Metrics(shared.metrics_text()),
            _ => Reply::Shutdown,
        };
        let sent = respond(&mut writer, frame.id, reply);
        if kind == "shutdown" {
            // The accepted socket's local address is the listener's
            // address, which the shutdown self-connect needs.
            let addr = writer
                .local_addr()
                .unwrap_or_else(|_| SocketAddr::from(([127, 0, 0, 1], 0)));
            initiate_shutdown(shared, addr);
            return;
        }
        if sent.is_err() {
            return;
        }
    }
}

/// Queues one work frame and relays its answer. Returns whether the
/// connection stays open.
fn dispatch(writer: &mut TcpStream, shared: &Arc<Shared>, frame: Frame, arrival: Arrival) -> bool {
    let (id, kind) = (frame.id, frame.request.kind());
    if shared.shutdown.load(Ordering::SeqCst) {
        let e = WireError::new(ErrorCode::ShuttingDown, "server is shutting down");
        return refuse(writer, shared, &arrival, kind, id, e).is_ok();
    }
    let (tx, rx) = mpsc::channel();
    {
        let mut q = shared.queue.lock().expect("queue lock");
        if q.len() >= shared.cfg.queue_cap {
            drop(q);
            let e = WireError::new(ErrorCode::Busy, "work queue is full");
            return refuse(writer, shared, &arrival, kind, id, e).is_ok();
        }
        q.push_back(Job {
            frame,
            reply: tx,
            arrival: arrival.clone(),
            enqueued_at: Instant::now(),
        });
        shared.metrics.observe_queue_depth(q.len() as u64);
    }
    shared.queue_cv.notify_one();
    match rx.recv() {
        Ok(line) => write_line(writer, &line).is_ok(),
        // Worker pool went away mid-request (shutdown race): the job was
        // dropped unprocessed, so the worker never logged it — account
        // for it here.
        Err(_) => {
            let e = WireError::new(ErrorCode::ShuttingDown, "server stopped");
            let _ = refuse(writer, shared, &arrival, kind, id, e);
            false
        }
    }
}

/// Refuses a frame on the connection thread: counts the error under
/// its code, writes the frame's one access-log line and sends the
/// error reply.
fn refuse(
    writer: &mut TcpStream,
    shared: &Shared,
    arrival: &Arrival,
    kind: &'static str,
    id: u64,
    e: WireError,
) -> std::io::Result<()> {
    shared.metrics.count_error(e.code);
    shared.log_inline(arrival, kind, e.code.as_str());
    respond(writer, id, Reply::Error(e))
}

fn respond(writer: &mut TcpStream, id: u64, reply: Reply) -> std::io::Result<()> {
    write_line(writer, &encode_response(&Response { id, reply }))
}

fn write_line(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}
