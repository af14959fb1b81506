//! The `serve_mix` workload: an in-process `isax serve` with one worker,
//! driven by closed-loop clients replaying a seeded request script.
//!
//! Each pass spawns a fresh server (so the cache starts cold), replays
//! the whole script and shuts the server down. About 90% of requests
//! repeat a request the same client already made, so they are cache
//! hits; the rest are cold customize requests for distinct small
//! generated kernels and cold compiles against the returned MDESes.
//!
//! After the passes, cold bursts replay only the cold requests, each on
//! a fresh server. They add samples of the server's customize and
//! compile times (a pass is ~20 s of mostly cache hits, so two passes
//! give each cold request only two samples, too few for the fastest-pass
//! estimator to find a fast window on a noisy host) and take no part in
//! the latency and throughput metrics.

use crate::inputs::{self, Inputs, Kernel, AREA_BUDGET, SERVE_CLIENTS, SERVE_REQUESTS_PER_CLIENT};
use crate::pipeline;
use crate::stats::{self, median, percentile, Samples};
use crate::{Metrics, Tally};
use isax::{MatchOptions, Mdes, SharedContext};
use isax_gen::{mix, Rng};
use isax_serve::protocol::MAX_FRAME_BYTES;
use isax_serve::{Client, EnvMode, Request, ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed repetitions of the set-up step (inputs, context, spawn,
/// connect) before the first pass and before every pass.
const SETUP_REPS: usize = 3;

/// Every run replays the whole script at least twice, so each cold
/// request has a second sample and the run has at least 1000 requests
/// (ten samples beyond the p99).
const MIN_PASSES: usize = 2;

/// Cold bursts after the passes.
const COLD_BURSTS: usize = 4;

/// Where each pass's access log is written (inside the checkout) and
/// read back for exact queue-wait samples.
const ACCESS_LOG: &str = ".perfbench/serve-access.log";

/// One scripted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Customize kernel `i`.
    Customize(usize),
    /// Compile kernel `i` against its own MDES, with wildcard matching
    /// when the flag is set (subsumed matching always).
    Compile(usize, bool),
}

/// The request script of client `client`: it owns every kernel whose
/// index is congruent to it, introduces each owned kernel with a cold
/// customize and two cold compiles spread evenly over the script, and
/// fills every other slot with a seeded repeat of a request it already
/// made (a cache hit).
pub fn script(n_kernels: usize, client: usize, order_seed: u64) -> Vec<Op> {
    let mut r = Rng::new(mix(&[order_seed, 0xC11E, client as u64]));
    let mut owned: Vec<usize> = (client..n_kernels).step_by(SERVE_CLIENTS).collect();
    for i in (1..owned.len()).rev() {
        owned.swap(i, r.below(i as u64 + 1) as usize);
    }
    let cold: Vec<Op> = owned
        .iter()
        .flat_map(|&i| {
            [
                Op::Customize(i),
                Op::Compile(i, false),
                Op::Compile(i, true),
            ]
        })
        .collect();
    let total = SERVE_REQUESTS_PER_CLIENT.max(cold.len());
    let mut made: Vec<Op> = Vec::new();
    let mut next_cold = 0;
    (0..total)
        .map(|slot| {
            if next_cold < cold.len() && slot >= next_cold * total / cold.len() {
                made.push(cold[next_cold]);
                next_cold += 1;
                cold[next_cold - 1]
            } else {
                *r.pick(&made)
            }
        })
        .collect()
}

/// The cold requests of a script, in order: the script without its
/// repeats.
fn cold_only(script: &[Op]) -> Vec<Op> {
    let mut cold: Vec<Op> = Vec::new();
    for &op in script {
        if !cold.contains(&op) {
            cold.push(op);
        }
    }
    cold
}

/// One request as the client saw it.
struct Sample {
    rtt_s: f64,
    cached: bool,
}

/// What one client's replay produced.
#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    /// Customize replies: kernel -> MDES text.
    mdes: BTreeMap<usize, String>,
    /// Compile replies: (kernel, wildcard) -> (assembly, baseline, custom).
    compiled: BTreeMap<(usize, bool), (String, u64, u64)>,
    tally: Tally,
}

fn replay(addr: std::net::SocketAddr, kernels: &[Kernel], ops: &[Op]) -> ClientRun {
    let mut out = ClientRun::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.tally.attempted += ops.len() as u64;
            out.tally.failed += ops.len() as u64;
            out.tally.note(format!("client could not connect: {e}"));
            return out;
        }
    };
    for &op in ops {
        let request = match op {
            Op::Customize(i) => Request::Customize {
                kernel: kernels[i].text.clone(),
                name: kernels[i].name.clone(),
                budget: AREA_BUDGET,
                multifunction: false,
                work_budget: None,
            },
            Op::Compile(i, wildcard) => Request::Compile {
                kernel: kernels[i].text.clone(),
                name: kernels[i].name.clone(),
                mdes: out.mdes.get(&i).cloned().unwrap_or_default(),
                subsumed: true,
                wildcard,
                work_budget: None,
            },
        };
        out.tally.attempted += 1;
        let t = Instant::now();
        let reply = client.artifacts(request);
        let rtt_s = t.elapsed().as_secs_f64();
        let (cached, art) = match reply {
            Ok(r) => r,
            Err(e) => {
                out.tally.fail(format!("{op:?}: {e}"));
                continue;
            }
        };
        out.samples.push(Sample { rtt_s, cached });
        match op {
            Op::Customize(i) => {
                let Some(m) = art.mdes else {
                    out.tally.fail(format!("{op:?}: reply without MDES"));
                    continue;
                };
                if out.mdes.get(&i).is_some_and(|first| *first != m) {
                    out.tally
                        .fail(format!("{op:?}: repeat differs from first reply"));
                }
                out.mdes.entry(i).or_insert(m);
            }
            Op::Compile(i, wildcard) => {
                let (Some(asm), Some(base), Some(custom)) =
                    (art.assembly, art.baseline_cycles, art.custom_cycles)
                else {
                    out.tally
                        .fail(format!("{op:?}: reply without assembly or cycles"));
                    continue;
                };
                let got = (asm, base, custom);
                if out
                    .compiled
                    .get(&(i, wildcard))
                    .is_some_and(|first| *first != got)
                {
                    out.tally
                        .fail(format!("{op:?}: repeat differs from first reply"));
                }
                out.compiled.entry((i, wildcard)).or_insert(got);
            }
        }
    }
    out
}

fn server_config(access_log: Option<&Path>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 64,
        max_work_units: None,
        max_frame_bytes: MAX_FRAME_BYTES,
        stats: EnvMode::Off,
        access_log: access_log.map_or(EnvMode::Off, |p| {
            EnvMode::Path(p.to_string_lossy().into_owned())
        }),
        metrics_out: None,
    }
}

/// One pass's measurements.
struct Pass {
    wall_s: f64,
    rtt: Vec<f64>,
    hit_rtt: Vec<f64>,
    miss_rtt: Vec<f64>,
    log: AccessLog,
    hit_rate: f64,
    mdes: BTreeMap<usize, String>,
    compiled: BTreeMap<(usize, bool), (String, u64, u64)>,
}

/// Spawns a fresh server, replays every client's script and shuts the
/// server down.
fn run_pass(
    ctx: &Arc<SharedContext>,
    inputs: &Inputs,
    scripts: &[Vec<Op>],
    tally: &mut Tally,
) -> Option<Pass> {
    let log = PathBuf::from(ACCESS_LOG);
    if let Some(dir) = log.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let server = match Server::spawn_with_context(server_config(Some(&log)), ctx.clone()) {
        Ok(s) => s,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(format!("server did not spawn: {e}"));
            return None;
        }
    };
    let addr = server.addr();
    let t = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|ops| scope.spawn(move || replay(addr, &inputs.kernels, ops)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let wall_s = t.elapsed().as_secs_f64();
    let hit_rate = server
        .stats_value()
        .get("cache")
        .and_then(|c| c.get("hit_rate"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    server.shutdown();
    let access = read_access_log(&log, &inputs.kernels);
    let _ = std::fs::remove_file(&log);
    let mut pass = Pass {
        wall_s,
        rtt: Vec::new(),
        hit_rtt: Vec::new(),
        miss_rtt: Vec::new(),
        log: access,
        hit_rate,
        mdes: BTreeMap::new(),
        compiled: BTreeMap::new(),
    };
    for run in runs {
        tally.absorb(run.tally);
        for s in run.samples {
            pass.rtt.push(s.rtt_s);
            if s.cached {
                pass.hit_rtt.push(s.rtt_s);
            } else {
                pass.miss_rtt.push(s.rtt_s);
            }
        }
        pass.mdes.extend(run.mdes);
        pass.compiled.extend(run.compiled);
    }
    Some(pass)
}

/// What the server's access log says about one pass, in exact
/// microseconds per request.
#[derive(Default)]
struct AccessLog {
    /// Queue wait of every queued work request, in seconds.
    queue_wait: Vec<f64>,
    /// Server-side analyze + select seconds of each cold customize, by
    /// kernel index.
    customize: BTreeMap<usize, f64>,
    /// Server-side evaluate seconds of each cold compile, by kernel index
    /// and the compile's position among that kernel's cold compiles.
    compile: BTreeMap<(usize, usize), f64>,
}

fn read_access_log(path: &Path, kernels: &[Kernel]) -> AccessLog {
    let index: BTreeMap<&str, usize> = kernels
        .iter()
        .enumerate()
        .map(|(i, k)| (k.name.as_str(), i))
        .collect();
    let mut out = AccessLog::default();
    let text = std::fs::read_to_string(path).unwrap_or_default();
    for rec in text.lines().filter_map(|l| isax_json::parse(l).ok()) {
        let kind = rec.get("req").and_then(|r| r.as_str()).unwrap_or("");
        if !matches!(kind, "customize" | "compile") {
            continue;
        }
        let us = |key: &str| rec.get(key).and_then(|q| q.as_u64()).unwrap_or(0) as f64 * 1e-6;
        out.queue_wait.push(us("queue_us"));
        let cached = rec.get("cached").and_then(|c| c.as_bool()).unwrap_or(false);
        let name = rec.get("name").and_then(|n| n.as_str()).unwrap_or("");
        let (Some(&i), false) = (index.get(name), cached) else {
            continue;
        };
        let stages = rec.get("stages_us");
        let stage = |key: &str| {
            stages
                .and_then(|s| s.get(key))
                .and_then(|v| v.as_u64())
                .unwrap_or(0) as f64
                * 1e-6
        };
        if kind == "customize" {
            out.customize.insert(i, stage("analyze") + stage("select"));
        } else {
            let nth = out.compile.range((i, 0)..(i + 1, 0)).count();
            out.compile.insert((i, nth), stage("evaluate"));
        }
    }
    out
}

/// Everything a `serve_mix` run produced.
pub struct ServeRun {
    setup: Vec<f64>,
    spawn: Vec<f64>,
    passes: Vec<Pass>,
    bursts: Vec<Pass>,
    speedups: Vec<f64>,
    check_s: f64,
    /// Operations and failures.
    pub tally: Tally,
    /// `VmHWM` after the passes, in MiB. The cold bursts that follow
    /// spawn four more servers and raise the process peak further, with
    /// their number rather than with the served traffic.
    pub peak_rss_mb: Option<f64>,
    inputs: Inputs,
    ctx: Arc<SharedContext>,
}

impl ServeRun {
    /// Passes made.
    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Cold bursts made.
    pub fn bursts(&self) -> usize {
        self.bursts.len()
    }

    /// Sample counts behind each percentile, for the diagnostic line.
    pub fn sample_counts(&self) -> Vec<(String, usize)> {
        let n = |f: fn(&Pass) -> usize| self.passes.iter().map(f).sum();
        vec![
            ("latency".into(), n(|p| p.rtt.len())),
            ("hit".into(), n(|p| p.hit_rtt.len())),
            ("miss".into(), n(|p| p.miss_rtt.len())),
            ("queue_wait".into(), n(|p| p.log.queue_wait.len())),
        ]
    }

    /// Every pass's values of `f`, pooled.
    fn pooled(&self, f: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| f(p).iter().copied())
            .collect()
    }
}

/// Per-repetition seconds of the set-up step, and of its spawn-and-
/// connect part.
#[derive(Default)]
struct SetupTimes {
    setup: Vec<f64>,
    spawn: Vec<f64>,
}

/// Times one set-up repetition: generate the inputs, build the shared
/// context, spawn the server and connect every client.
fn setup_once(
    seed: u64,
    times: &mut SetupTimes,
    tally: &mut Tally,
) -> (Inputs, Arc<SharedContext>) {
    let t = Instant::now();
    let inputs = inputs::generate(inputs::Workload::ServeMix, seed);
    let ctx = Arc::new(SharedContext::new());
    let ts = Instant::now();
    tally.attempted += 1;
    match Server::spawn_with_context(server_config(None), ctx.clone()) {
        Ok(server) => {
            let clients: Vec<_> = (0..SERVE_CLIENTS)
                .map(|_| Client::connect(server.addr()))
                .collect();
            times.spawn.push(ts.elapsed().as_secs_f64());
            times.setup.push(t.elapsed().as_secs_f64());
            if clients.iter().any(Result::is_err) {
                tally.fail("client could not connect during set-up");
            }
            drop(clients);
            server.shutdown();
        }
        Err(e) => tally.fail(format!("server did not spawn: {e}")),
    }
    (inputs, ctx)
}

/// Runs the serve passes for `seconds` (at least [`MIN_PASSES`]) and
/// then [`COLD_BURSTS`] cold bursts, and checks every compiled program
/// against its original.
pub fn measure(seed: u64, seconds: f64) -> ServeRun {
    let mut tally = Tally::default();
    let mut times = SetupTimes::default();
    for _ in 1..SETUP_REPS {
        setup_once(seed, &mut times, &mut tally);
    }
    let (inputs, ctx) = setup_once(seed, &mut times, &mut tally);
    let scripts: Vec<Vec<Op>> = (0..SERVE_CLIENTS)
        .map(|c| script(inputs.kernels.len(), c, inputs.order_seed))
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        for _ in 0..SETUP_REPS {
            setup_once(seed, &mut times, &mut tally);
        }
        let Some(p) = run_pass(&ctx, &inputs, &scripts, &mut tally) else {
            break;
        };
        if let Some(first) = passes.first() {
            if first.mdes != p.mdes || first.compiled != p.compiled {
                tally.fail("served artifacts changed between passes");
            }
            if first.hit_rate != p.hit_rate {
                tally.fail("cache hit rate changed between passes");
            }
        }
        passes.push(p);
    }
    let peak_rss_mb = stats::peak_rss_mb();
    let cold_scripts: Vec<Vec<Op>> = scripts.iter().map(|s| cold_only(s)).collect();
    let mut bursts: Vec<Pass> = Vec::new();
    while !passes.is_empty() && bursts.len() < COLD_BURSTS {
        for _ in 0..SETUP_REPS {
            setup_once(seed, &mut times, &mut tally);
        }
        let Some(b) = run_pass(&ctx, &inputs, &cold_scripts, &mut tally) else {
            break;
        };
        if passes[0].mdes != b.mdes || passes[0].compiled != b.compiled {
            tally.fail("cold-burst artifacts differ from the passes'");
        }
        bursts.push(b);
    }
    // The served assembly carries no CFU semantics, so the check
    // recompiles each served (kernel, MDES) in process, requires the same
    // assembly bytes and cycles, and runs the differential check on that.
    let t = Instant::now();
    let mut speedups = Vec::new();
    if let Some(first) = passes.first() {
        for (&(i, wildcard), (asm, base, custom)) in &first.compiled {
            speedups.push(*base as f64 / (*custom).max(1) as f64);
            let k = &inputs.kernels[i];
            let Some(mdes) = first.mdes.get(&i).and_then(|m| Mdes::from_json(m).ok()) else {
                tally.fail(format!("{}: served MDES does not parse", k.name));
                continue;
            };
            let matching = if wildcard {
                MatchOptions::generalized()
            } else {
                MatchOptions::with_subsumed()
            };
            let ev = pipeline::customizer(&ctx, k).evaluate(&k.program, &mdes, matching);
            if inputs::program_text(&ev.compiled.program) != *asm
                || (ev.baseline_cycles, ev.custom_cycles) != (*base, *custom)
            {
                tally.fail(format!(
                    "{}: served compile differs from in-process compile",
                    k.name
                ));
            }
            if let Some(why) = pipeline::differential(k, &ev.compiled.program) {
                tally.fail(why);
            }
        }
    }
    let check_s = t.elapsed().as_secs_f64();
    ServeRun {
        setup: times.setup,
        spawn: times.spawn,
        passes,
        bursts,
        speedups,
        check_s,
        tally,
        peak_rss_mb,
        inputs,
        ctx,
    }
}

/// End-to-end metrics of a `serve_mix` run. Server-side stage times
/// are summed over kernels of each kernel's fastest pass or burst;
/// percentiles and throughput come from the passes' client samples,
/// percentiles by exact sort.
pub fn end_to_end(run: &ServeRun, m: &mut Metrics) {
    let mut customize = Samples::default();
    let mut compile = Samples::default();
    for p in run.passes.iter().chain(&run.bursts) {
        for (&i, &s) in &p.log.customize {
            customize.add(i, s);
        }
        for (&(i, nth), &s) in &p.log.compile {
            compile.add(2 * i + nth, s);
        }
    }
    let rtt = run.pooled(|p| &p.rtt);
    let wall: f64 = run.passes.iter().map(|p| p.wall_s).sum();
    m.set("setup_s", median(&run.setup));
    m.set("customize_s", customize.min_sum());
    m.set("compile_s", compile.min_sum());
    m.set("speedup_geomean", stats::geomean(&run.speedups));
    m.set("latency_p50_ms", percentile(&rtt, 0.50) * 1e3);
    m.set("latency_p99_ms", percentile(&rtt, 0.99) * 1e3);
    m.set("throughput_rps", rtt.len() as f64 / wall);
}

/// Per-layer metrics of a traced `serve_mix` run: the serve layer from
/// the serve passes, every pipeline layer from a traced pipeline
/// measurement over the same kernels, whose MDES bytes must also equal
/// the served ones.
pub fn per_layer(run: &mut ServeRun, seconds: f64, m: &mut Metrics) {
    let p50_ms = |v: Vec<f64>| percentile(&v, 0.50) * 1e3;
    m.set("serve.spawn_s", median(&run.spawn));
    m.set(
        "serve.queue_wait_p50_ms",
        p50_ms(run.pooled(|p| &p.log.queue_wait)),
    );
    m.set("serve.hit_p50_ms", p50_ms(run.pooled(|p| &p.hit_rtt)));
    m.set("serve.miss_p50_ms", p50_ms(run.pooled(|p| &p.miss_rtt)));
    let p = &run.passes;
    m.set(
        "serve.cache_hit_rate",
        p.first().map_or(0.0, |p| p.hit_rate),
    );
    let layered = pipeline::measure(&run.inputs, &run.ctx, seconds, true, &mut || {});
    pipeline::per_layer(&layered, m);
    m.set("check.differential_s", run.check_s + layered.check_s);
    if let Some(first) = p.first() {
        for (i, k) in run.inputs.kernels.iter().enumerate() {
            if first.mdes.get(&i) != layered.mdes_json.get(i) {
                run.tally
                    .fail(format!("{}: served MDES differs from Customizer's", k.name));
            }
        }
    }
    run.tally.absorb(layered.tally);
}
