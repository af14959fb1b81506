//! The serve-vs-CLI differential suite.
//!
//! `isax serve` claims that a concurrent, cached, long-running server
//! returns **byte-identical artifacts** to the one-shot serial CLI.
//! This suite is that claim's proof:
//!
//! * for every paper workload and every curated kernel, the MDES,
//!   provenance report and customized assembly served by a 4-client
//!   concurrent server equal the bytes `isax customize` / `isax
//!   compile` write for the same request;
//! * a cold miss and the warm hit that follows return identical bytes
//!   (and the hit is actually served from cache);
//! * a kernel re-sent with only layout changes is served from cache;
//! * malformed, oversized and truncated frames, and an MDES the compiler
//!   cannot honour, produce structured errors and never kill the server;
//! * budget-exhausted requests degrade exactly like the governed CLI —
//!   sound artifacts plus intact `Degradation` records.
//!
//! Tests share one process, and the server enables the global
//! provenance flag for its lifetime, so every test serializes on
//! `TEST_LOCK` (the same discipline as `tests/trace.rs`).

use isax_serve::{Client, EnvMode, ErrorCode, Reply, Request, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Every paper workload plus every curated kernel, as (name, source).
fn corpus() -> Vec<(String, String)> {
    let mut kernels: Vec<(String, String)> = isax_workloads::all()
        .into_iter()
        .map(|w| (w.name.to_string(), w.program.functions_text()))
        .collect();
    for k in isax_gen::curated() {
        kernels.push((k.name.to_string(), (k.text)()));
    }
    kernels
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isax-serve-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// What the serial CLI produces for one kernel at one configuration.
struct CliRef {
    mdes: String,
    customize_prov: String,
    assembly: String,
    compile_prov: String,
}

/// Runs `isax customize` then `isax compile --emit` through the CLI
/// library (the exact code path of the binary) and collects the four
/// artifacts' bytes.
fn cli_reference(
    dir: &Path,
    name: &str,
    text: &str,
    budget: f64,
    multifunction: bool,
    work: Option<u64>,
) -> CliRef {
    let kernel = dir.join(format!("{name}.isax"));
    let mdes_path = dir.join(format!("{name}.mdes.json"));
    let cprov_path = dir.join(format!("{name}.customize.prov.json"));
    let asm_path = dir.join(format!("{name}.out.isax"));
    let kprov_path = dir.join(format!("{name}.compile.prov.json"));
    std::fs::write(&kernel, text).unwrap();
    let mut out = Vec::new();
    isax_cli::execute(
        &isax_cli::Command::Customize {
            file: kernel.display().to_string(),
            budget,
            name: name.into(),
            out: Some(mdes_path.display().to_string()),
            multifunction,
            flags: isax_cli::PipelineFlags {
                work_budget: work,
                prov_out: Some(cprov_path.display().to_string()),
                ..Default::default()
            },
        },
        &mut out,
    )
    .expect("CLI customize succeeds");
    isax_cli::execute(
        &isax_cli::Command::Compile {
            file: kernel.display().to_string(),
            mdes: mdes_path.display().to_string(),
            subsumed: false,
            wildcard: false,
            emit: Some(asm_path.display().to_string()),
            flags: isax_cli::PipelineFlags {
                work_budget: work,
                prov_out: Some(kprov_path.display().to_string()),
                ..Default::default()
            },
        },
        &mut out,
    )
    .expect("CLI compile succeeds");
    CliRef {
        mdes: std::fs::read_to_string(&mdes_path).unwrap(),
        customize_prov: std::fs::read_to_string(&cprov_path).unwrap(),
        assembly: std::fs::read_to_string(&asm_path).unwrap(),
        compile_prov: std::fs::read_to_string(&kprov_path).unwrap(),
    }
}

fn customize_request(name: &str, text: &str, multifunction: bool, work: Option<u64>) -> Request {
    Request::Customize {
        kernel: text.to_string(),
        name: name.to_string(),
        budget: 15.0,
        multifunction,
        work_budget: work,
    }
}

fn compile_request(name: &str, text: &str, mdes: &str, work: Option<u64>) -> Request {
    Request::Compile {
        kernel: text.to_string(),
        name: name.to_string(),
        mdes: mdes.to_string(),
        subsumed: false,
        wildcard: false,
        work_budget: work,
    }
}

/// The headline test: 4 concurrent clients sweep every paper + curated
/// kernel through a shared server; every artifact byte must equal the
/// serial CLI's, cold misses must fill the cache, and warm hits (served
/// to *different* clients) must be byte-identical to the cold copies.
#[test]
fn concurrent_server_matches_serial_cli_on_all_kernels() {
    let _guard = TEST_LOCK.lock().unwrap();
    let dir = scratch_dir("diff");
    let kernels = corpus();
    assert!(kernels.len() >= 19, "13 paper + 6 curated kernels");

    // Phase 1: serial CLI references (the provenance enable guard
    // inside the CLI must not overlap the server's, so all CLI work
    // happens before the server starts).
    let refs: Vec<CliRef> = kernels
        .iter()
        .map(|(name, text)| cli_reference(&dir, name, text, 15.0, false, None))
        .collect();

    // Phase 2: one server, 4 concurrent clients, each client owns a
    // quarter of the corpus (cold), then re-requests a *different*
    // client's quarter (warm).
    let server = Server::spawn(ServeConfig {
        workers: 4,
        stats: EnvMode::Off,
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr();
    let n_clients = 4;
    std::thread::scope(|scope| {
        let kernels = &kernels;
        let refs = &refs;
        let handles: Vec<_> = (0..n_clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    // Cold pass over this client's quarter.
                    for i in (c..kernels.len()).step_by(n_clients) {
                        let (name, text) = &kernels[i];
                        let (cached, art) = client
                            .artifacts(customize_request(name, text, false, None))
                            .unwrap_or_else(|e| panic!("{name}: customize failed: {e}"));
                        assert!(!cached, "{name}: first customize must be a cold miss");
                        assert_eq!(
                            art.mdes.as_deref(),
                            Some(refs[i].mdes.as_str()),
                            "{name}: MDES differs from CLI"
                        );
                        assert_eq!(
                            art.prov.as_deref(),
                            Some(refs[i].customize_prov.as_str()),
                            "{name}: customize prov report differs from CLI"
                        );
                        assert!(art.degraded.is_empty(), "{name}: ungoverned run degraded");
                        let (cached, art) = client
                            .artifacts(compile_request(name, text, &refs[i].mdes, None))
                            .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
                        assert!(!cached, "{name}: first compile must be a cold miss");
                        assert_eq!(
                            art.assembly.as_deref(),
                            Some(refs[i].assembly.as_str()),
                            "{name}: assembly differs from CLI"
                        );
                        assert_eq!(
                            art.prov.as_deref(),
                            Some(refs[i].compile_prov.as_str()),
                            "{name}: compile prov report differs from CLI"
                        );
                        assert!(art.baseline_cycles.is_some() && art.custom_cycles.is_some());
                    }
                    (c, client)
                })
            })
            .collect();
        let mut clients: Vec<(usize, Client)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Warm pass: each client replays the next client's quarter.
        for (c, client) in clients.iter_mut() {
            let c = (*c + 1) % n_clients;
            for i in (c..kernels.len()).step_by(n_clients) {
                let (name, text) = &kernels[i];
                let (cached, art) = client
                    .artifacts(customize_request(name, text, false, None))
                    .unwrap_or_else(|e| panic!("{name}: warm customize failed: {e}"));
                assert!(cached, "{name}: repeat customize must hit the cache");
                assert_eq!(
                    art.mdes.as_deref(),
                    Some(refs[i].mdes.as_str()),
                    "{name}: warm MDES differs from cold/CLI"
                );
                assert_eq!(art.prov.as_deref(), Some(refs[i].customize_prov.as_str()));
            }
        }
    });

    // Phase 3: stats reflect the workload, then graceful shutdown.
    let mut client = Client::connect(addr).expect("stats client connects");
    let resp = client.request(Request::Stats).expect("stats succeeds");
    let Reply::Stats(stats) = resp.reply else {
        panic!("expected stats reply, got {:?}", resp.reply);
    };
    let cache = stats.get("cache").expect("stats.cache");
    assert_eq!(
        cache.get("entries").and_then(|v| v.as_u64()),
        Some(2 * kernels.len() as u64),
        "one customize + one compile entry per kernel"
    );
    let hits = cache.get("hits").and_then(|v| v.as_u64()).unwrap();
    assert_eq!(hits, kernels.len() as u64, "one warm hit per kernel");
    assert!(cache.get("hit_rate").and_then(|v| v.as_f64()).unwrap() > 0.0);
    let requests = stats.get("requests").expect("stats.requests");
    assert_eq!(requests.get("errors").and_then(|v| v.as_u64()), Some(0));
    assert!(stats.get("queue").and_then(|q| q.get("depth")).is_some());
    assert!(
        stats
            .get("latency_us")
            .and_then(|l| l.get("analyze"))
            .and_then(|a| a.get("count"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            >= kernels.len() as u64,
        "per-stage latency must cover every cold analyze"
    );
    let resp = client.request(Request::Shutdown).expect("shutdown ack");
    assert_eq!(resp.reply, Reply::Shutdown);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed, unknown, oversized and truncated frames each produce a
/// structured error — and the server keeps serving real work after
/// every one of them.
#[test]
fn protocol_errors_are_structured_and_nonfatal() {
    let _guard = TEST_LOCK.lock().unwrap();
    let server = Server::spawn(ServeConfig {
        workers: 1,
        max_frame_bytes: 64 * 1024,
        stats: EnvMode::Off,
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    let expect_error = |resp: Result<isax_serve::Response, isax_serve::WireError>,
                        code: ErrorCode| {
        let resp = resp.expect("transport survives");
        match resp.reply {
            Reply::Error(e) => assert_eq!(e.code, code, "unexpected error: {e}"),
            other => panic!("expected {code:?} error, got {other:?}"),
        }
    };

    // Not JSON at all.
    expect_error(
        client.send_raw("this is not json"),
        ErrorCode::MalformedFrame,
    );
    // JSON, but not a request object.
    expect_error(client.send_raw("[1,2,3]"), ErrorCode::BadRequest);
    expect_error(client.send_raw("{\"id\":9}"), ErrorCode::BadRequest);
    // Unknown request kind; the id still echoes back.
    let resp = client
        .send_raw("{\"req\":\"frobnicate\",\"id\":7}")
        .expect("transport survives");
    assert_eq!(resp.id, 7);
    assert!(matches!(resp.reply, Reply::Error(ref e) if e.code == ErrorCode::BadRequest));
    // Missing required fields.
    expect_error(
        client.send_raw("{\"req\":\"customize\",\"id\":1}"),
        ErrorCode::BadRequest,
    );
    // Kernel text that is not IR.
    expect_error(
        client.request(Request::Customize {
            kernel: "function { nope".into(),
            name: "x".into(),
            budget: 15.0,
            multifunction: false,
            work_budget: None,
        }),
        ErrorCode::ParseError,
    );
    // An MDES that is not an MDES.
    expect_error(
        client.request(Request::Compile {
            kernel: corpus()[0].1.clone(),
            name: "x".into(),
            mdes: "{\"not\":\"an mdes\"}".into(),
            subsumed: false,
            wildcard: false,
            work_budget: None,
        }),
        ErrorCode::BadMdes,
    );
    // A frame over the size cap (the connection keeps working after).
    let huge = format!(
        "{{\"req\":\"stats\",\"pad\":\"{}\"}}",
        "x".repeat(80 * 1024)
    );
    expect_error(client.send_raw(&huge), ErrorCode::OversizedFrame);

    // The same connection still serves real work after all that.
    let (name, text) = &corpus()[0];
    let (cached, art) = client
        .artifacts(customize_request(name, text, false, None))
        .expect("server still serves after protocol abuse");
    assert!(!cached);
    assert!(art.mdes.is_some() && art.prov.is_some());

    // A truncated frame: bytes, then EOF with no newline.
    let mut trunc = Client::connect(addr).unwrap();
    trunc.write_bytes(b"{\"req\":\"stats\",\"id\":3").unwrap();
    trunc.shutdown_write().unwrap();
    let resp = trunc.read_response().expect("truncation error is sent");
    assert!(matches!(resp.reply, Reply::Error(ref e) if e.code == ErrorCode::TruncatedFrame));

    // And the server is *still* alive for other connections.
    let mut last = Client::connect(addr).unwrap();
    let resp = last.request(Request::Stats).expect("stats after abuse");
    let Reply::Stats(stats) = resp.reply else {
        panic!("expected stats");
    };
    let errors = stats
        .get("requests")
        .and_then(|r| r.get("errors"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(errors >= 8, "every abuse above is counted, got {errors}");
    server.shutdown();
}

/// Budget-exhausted requests return sound degraded artifacts with the
/// `Degradation` records intact — byte-identical to the governed CLI —
/// whether the budget came from the client or from the server's
/// admission cap, and with plain or multifunction selection (both run
/// the governed greedy scan).
#[test]
fn budget_exhausted_requests_degrade_like_the_cli() {
    let _guard = TEST_LOCK.lock().unwrap();
    degrade_like_the_cli(false);
    degrade_like_the_cli(true);
}

fn degrade_like_the_cli(multifunction: bool) {
    let dir = scratch_dir(if multifunction {
        "degrade_mf"
    } else {
        "degrade"
    });
    // A paper kernel, governed so tightly the greedy scan cannot finish.
    let w = isax_workloads::by_name("crc").unwrap();
    let text = w.program.functions_text();
    let tight: u64 = 50;
    let cli = cli_reference(&dir, "crc", &text, 15.0, multifunction, Some(tight));

    // Client-requested budget.
    let server = Server::spawn(ServeConfig {
        workers: 2,
        stats: EnvMode::Off,
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let mut client = Client::connect(server.addr()).unwrap();
    let (_, art) = client
        .artifacts(customize_request("crc", &text, multifunction, Some(tight)))
        .expect("governed customize succeeds");
    assert_eq!(art.mdes.as_deref(), Some(cli.mdes.as_str()));
    assert_eq!(art.prov.as_deref(), Some(cli.customize_prov.as_str()));
    assert!(
        !art.degraded.is_empty(),
        "50 units cannot finish the greedy scan; Degradation records must survive"
    );
    for d in &art.degraded {
        assert!(
            d.contains("work budget") || d.contains("exhausted") || d.contains("budget"),
            "degradation record should describe the truncation: {d}"
        );
    }
    let (_, art) = client
        .artifacts(compile_request("crc", &text, &cli.mdes, Some(tight)))
        .expect("governed compile succeeds");
    assert_eq!(art.assembly.as_deref(), Some(cli.assembly.as_str()));
    assert_eq!(art.prov.as_deref(), Some(cli.compile_prov.as_str()));
    server.shutdown();

    // Server-side admission cap: an *unbudgeted* request is clamped to
    // the cap and produces the same bytes as the capped CLI run.
    let server = Server::spawn(ServeConfig {
        workers: 2,
        max_work_units: Some(tight),
        stats: EnvMode::Off,
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let mut client = Client::connect(server.addr()).unwrap();
    let (_, art) = client
        .artifacts(customize_request("crc", &text, multifunction, None))
        .expect("admission-capped customize succeeds");
    assert_eq!(
        art.mdes.as_deref(),
        Some(cli.mdes.as_str()),
        "admission cap must equal an explicit client budget"
    );
    assert!(!art.degraded.is_empty());
    // A request asking for *more* than the cap is clamped down to it.
    let (cached, art) = client
        .artifacts(customize_request(
            "crc",
            &text,
            multifunction,
            Some(tight * 1000),
        ))
        .expect("over-cap request is admitted clamped");
    assert!(cached, "clamped request shares the capped cache entry");
    assert_eq!(art.mdes.as_deref(), Some(cli.mdes.as_str()));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache keys on the guard a request actually runs under, which
/// includes the budget and deadline of the server's shared context, and
/// never replays a deadline-shaped result.
#[test]
fn env_governed_results_are_keyed_by_their_guard_and_deadlines_never_cached() {
    let _guard = TEST_LOCK.lock().unwrap();
    let w = isax_workloads::by_name("crc").unwrap();
    let text = w.program.functions_text();
    let spawn = |run: isax::RunConfig| {
        let cfg = ServeConfig {
            workers: 1,
            stats: EnvMode::Off,
            ..ServeConfig::default()
        };
        let ctx = std::sync::Arc::new(isax::SharedContext::from_config(&run));
        let server = Server::spawn_with_context(cfg, ctx).expect("server spawns");
        let client = Client::connect(server.addr()).unwrap();
        (server, client)
    };

    let (server, mut client) = spawn(isax::RunConfig {
        work_budget: Some(50),
        ..Default::default()
    });
    let (_, governed) = client
        .artifacts(customize_request("crc", &text, false, None))
        .expect("context-governed customize succeeds");
    assert!(!governed.degraded.is_empty(), "50 units cannot finish");
    let (cached, explicit) = client
        .artifacts(customize_request("crc", &text, false, Some(50)))
        .expect("explicitly budgeted customize succeeds");
    assert!(cached, "the same effective guard must hit the same entry");
    assert_eq!(explicit.mdes, governed.mdes);
    let (cached, full) = client
        .artifacts(customize_request("crc", &text, false, Some(1 << 40)))
        .expect("generously budgeted customize succeeds");
    assert!(!cached, "a 2^40-unit run must not hit the 50-unit entry");
    assert!(full.degraded.is_empty(), "{:?}", full.degraded);
    server.shutdown();

    let (server, mut client) = spawn(isax::RunConfig {
        deadline_ms: Some(0),
        ..Default::default()
    });
    for i in 0..2 {
        let (cached, art) = client
            .artifacts(customize_request("crc", &text, false, Some(1 << 40)))
            .expect("deadline-governed customize succeeds");
        assert!(!cached, "request {i}: a deadline result was replayed");
        assert!(
            art.degraded.iter().any(|d| d.contains("deadline-expired")),
            "request {i}: {:?}",
            art.degraded
        );
    }
    server.shutdown();
}

/// The cache keys a kernel by its parsed program: the same kernel
/// re-sent under a new id with blank lines and indentation added is a
/// hit, with byte-identical artifacts.
#[test]
fn reformatted_kernels_hit_the_same_entry() {
    let _guard = TEST_LOCK.lock().unwrap();
    let server = Server::spawn(ServeConfig {
        workers: 1,
        stats: EnvMode::Off,
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let mut client = Client::connect(server.addr()).unwrap();
    let text = isax_workloads::by_name("crc")
        .unwrap()
        .program
        .functions_text();
    let noisy: String = text.lines().map(|l| format!("\n   {l}\n")).collect();
    assert_ne!(noisy, text);

    let (cached, cold) = client
        .artifacts(customize_request("crc", &text, false, None))
        .expect("customize succeeds");
    assert!(!cached);
    let (cached, warm) = client
        .artifacts(customize_request("crc", &noisy, false, None))
        .expect("reformatted customize succeeds");
    assert!(cached, "a reformatted kernel must hit the cache");
    assert_eq!(warm, cold);

    let mdes = cold.mdes.expect("customize returns an MDES");
    let (cached, cold) = client
        .artifacts(compile_request("crc", &text, &mdes, None))
        .expect("compile succeeds");
    assert!(!cached);
    let (cached, warm) = client
        .artifacts(compile_request("crc", &noisy, &mdes, None))
        .expect("reformatted compile succeeds");
    assert!(cached, "a reformatted kernel must hit the cache");
    assert_eq!(warm, cold);
    server.shutdown();
}

/// An MDES whose CFU ids are not their positions is `bad-mdes`, not a
/// worker panic: the next request on the same one-worker server still
/// gets its artifacts.
#[test]
fn misnumbered_mdes_is_refused_and_the_worker_survives() {
    let _guard = TEST_LOCK.lock().unwrap();
    let server = Server::spawn(ServeConfig {
        workers: 1,
        stats: EnvMode::Off,
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let mut client = Client::connect(server.addr()).unwrap();
    let text = isax_workloads::by_name("crc")
        .unwrap()
        .program
        .functions_text();
    let (_, art) = client
        .artifacts(customize_request("crc", &text, false, None))
        .expect("customize succeeds");
    let good = art.mdes.expect("customize returns an MDES");
    let mut mdes = isax::Mdes::from_json(&good).unwrap();
    assert!(!mdes.cfus.is_empty());
    for cfu in &mut mdes.cfus {
        cfu.id += 7;
    }
    let resp = client
        .request(compile_request(
            "crc",
            &text,
            &mdes.to_json().unwrap(),
            None,
        ))
        .expect("transport survives");
    match resp.reply {
        Reply::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadMdes, "{e}");
            assert!(e.message.contains("`cfus[0].id`"), "{e}");
        }
        other => panic!("expected bad-mdes, got {other:?}"),
    }
    let (cached, art) = client
        .artifacts(compile_request("crc", &text, &good, None))
        .expect("the worker still serves");
    assert!(!cached);
    assert!(art.assembly.is_some());
    server.shutdown();
}

/// A zero-capacity queue rejects work with `busy` (backpressure is an
/// explicit structured error, not a hang), while control requests keep
/// flowing; and `ISAX_SERVE_STATS=PATH` semantics write the final stats
/// document at shutdown.
#[test]
fn backpressure_and_stats_sink() {
    let _guard = TEST_LOCK.lock().unwrap();
    let dir = scratch_dir("stats");
    let stats_path = dir.join("serve_stats.json");
    let server = Server::spawn(ServeConfig {
        workers: 1,
        queue_cap: 0,
        stats: EnvMode::Path(stats_path.display().to_string()),
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let mut client = Client::connect(server.addr()).unwrap();
    let (name, text) = &corpus()[0];
    let err = client
        .artifacts(customize_request(name, text, false, None))
        .expect_err("zero-capacity queue must reject work");
    assert_eq!(err.code, ErrorCode::Busy);
    // Control plane still answers while the data plane is saturated.
    let resp = client.request(Request::Stats).expect("stats still served");
    let Reply::Stats(stats) = resp.reply else {
        panic!("expected stats");
    };
    assert_eq!(
        stats
            .get("requests")
            .and_then(|r| r.get("busy_rejected"))
            .and_then(|v| v.as_u64()),
        Some(1)
    );
    server.shutdown();
    let text = std::fs::read_to_string(&stats_path).expect("final stats written at shutdown");
    let doc = isax_json::parse(&text).expect("stats file is valid JSON");
    assert!(
        doc.get("trace_counters").is_some(),
        "recorder was installed"
    );
    assert!(doc.get("cache").is_some() && doc.get("queue").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one fixed request script against a server and returns the
/// metrics exposition it reports at the end, plus the final
/// (received, completed, per-code-sum) counters from `stats`.
fn run_metrics_script(server: &Server, kernels: &[(String, String)]) -> (String, u64, u64, u64) {
    let mut client = Client::connect(server.addr()).expect("client connects");
    // Two cold customizes, then a repeat (a cache hit).
    for (name, text) in &kernels[..2] {
        let (cached, art) = client
            .artifacts(customize_request(name, text, false, None))
            .unwrap_or_else(|e| panic!("{name}: customize failed: {e}"));
        assert!(!cached);
        assert!(art.mdes.is_some());
    }
    let (name, text) = &kernels[0];
    let (cached, _) = client
        .artifacts(customize_request(name, text, false, None))
        .expect("warm customize succeeds");
    assert!(cached);
    // One malformed frame and one parse error, so per-code counters
    // have something to count.
    let resp = client.send_raw("this is not json").expect("transport ok");
    assert!(matches!(resp.reply, Reply::Error(ref e) if e.code == ErrorCode::MalformedFrame));
    let resp = client
        .request(Request::Customize {
            kernel: "function { nope".into(),
            name: "x".into(),
            budget: 15.0,
            multifunction: false,
            work_budget: None,
        })
        .expect("transport ok");
    assert!(matches!(resp.reply, Reply::Error(ref e) if e.code == ErrorCode::ParseError));
    let metrics = client.metrics().expect("metrics reply");
    let resp = client.request(Request::Stats).expect("stats reply");
    let Reply::Stats(stats) = resp.reply else {
        panic!("expected stats");
    };
    let req = stats.get("requests").expect("stats.requests");
    let received = req.get("received").and_then(|v| v.as_u64()).unwrap();
    let completed = req.get("completed").and_then(|v| v.as_u64()).unwrap();
    let by_code_sum = match req.get("by_code") {
        Some(isax_json::Value::Object(pairs)) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        _ => panic!("stats.requests.by_code missing"),
    };
    (metrics, received, completed, by_code_sum)
}

/// The tentpole determinism claim: for the same request script, the
/// deterministic section of the metrics exposition is byte-identical
/// whether the server runs 1 worker or 4 — only lines below the
/// wall-clock marker (latency histograms, uptime, worker config) may
/// differ. Also proves the counting invariant `received == completed +
/// Σ per-code errors` on both servers.
#[test]
fn metrics_deterministic_section_is_worker_count_invariant() {
    let _guard = TEST_LOCK.lock().unwrap();
    let kernels = corpus();

    let run = |workers: usize| {
        let server = Server::spawn(ServeConfig {
            workers,
            stats: EnvMode::Off,
            ..ServeConfig::default()
        })
        .expect("server spawns");
        let out = run_metrics_script(&server, &kernels);
        server.shutdown();
        out
    };
    let (serial, r1, c1, e1) = run(1);
    let (concurrent, r4, c4, e4) = run(4);

    assert_eq!(r1, c1 + e1, "1-worker: uncounted requests");
    assert_eq!(r4, c4 + e4, "4-worker: uncounted requests");

    let det1 = isax_trace::deterministic_section(&serial);
    let det4 = isax_trace::deterministic_section(&concurrent);
    assert!(!det1.is_empty(), "deterministic section must be non-empty");
    assert_eq!(
        det1, det4,
        "deterministic exposition section must be byte-identical at any worker count"
    );
    // The wall-clock section exists and is where the timing lives.
    assert!(serial.contains(isax_trace::WALL_MARKER));
    assert!(serial.contains("isax_serve_e2e_us_bucket"));
    assert!(det1.contains("isax_serve_requests_received_total"));
    assert!(det1.contains("isax_serve_errors_total{code=\"malformed-frame\"} 1"));
    assert!(det1.contains("isax_serve_errors_total{code=\"parse-error\"} 1"));
    assert!(det1.contains("isax_serve_cache_hits_total 1"));
}

/// Asserts a server's refusal bookkeeping: `by_code` holds exactly
/// `codes` (one count each, every other code zero), and every received
/// frame was either completed or counted under a code.
fn assert_refusals_counted(server: &Server, codes: &[&str]) {
    let stats = server.stats_value();
    let requests = stats.get("requests").expect("stats.requests");
    let count = |k: &str| requests.get(k).and_then(|v| v.as_u64()).unwrap();
    let by_code = requests
        .get("by_code")
        .and_then(|v| v.as_object())
        .expect("stats.requests.by_code");
    for (code, n) in by_code {
        let want = codes.iter().filter(|c| **c == code).count() as u64;
        assert_eq!(n.as_u64(), Some(want), "by_code[{code}]");
    }
    let refused: u64 = by_code.iter().filter_map(|(_, v)| v.as_u64()).sum();
    assert_eq!(count("received"), count("completed") + refused);
}

/// The access log's outcomes, one per line, sorted.
fn logged_outcomes(path: &Path) -> Vec<String> {
    let log = std::fs::read_to_string(path).expect("access log written");
    let mut outcomes: Vec<String> = log
        .lines()
        .map(|l| {
            let rec = isax_json::parse(l).expect("access-log line is valid JSON");
            rec.get("outcome")
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string()
        })
        .collect();
    outcomes.sort();
    outcomes
}

/// Every request the server receives — accepted work, cache hits,
/// control requests and every kind of refusal (malformed, busy,
/// oversized, truncated, shutting down) — produces exactly one
/// access-log line, with the outcome and deterministic request id on
/// it, and each refusal counts once under its code.
#[test]
fn access_log_records_every_request_exactly_once() {
    let _guard = TEST_LOCK.lock().unwrap();
    let dir = scratch_dir("access");
    let log_path = dir.join("access.jsonl");
    let server = Server::spawn(ServeConfig {
        workers: 2,
        access_log: EnvMode::Path(log_path.display().to_string()),
        stats: EnvMode::Off,
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let mut client = Client::connect(server.addr()).unwrap();
    let (name, text) = &corpus()[0];
    client
        .artifacts(customize_request(name, text, false, None))
        .expect("cold customize");
    let (cached, _) = client
        .artifacts(customize_request(name, text, false, None))
        .expect("warm customize");
    assert!(cached);
    let _ = client.send_raw("not json").expect("transport ok");
    let resp = client.request(Request::Stats).expect("stats reply");
    let Reply::Stats(stats) = resp.reply else {
        panic!("expected stats");
    };
    let received = stats
        .get("requests")
        .and_then(|r| r.get("received"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert_eq!(received, 4, "4 frames sent");
    assert_eq!(server.access_log_lines(), received);
    assert_refusals_counted(&server, &["malformed-frame"]);
    server.shutdown();

    let log = std::fs::read_to_string(&log_path).expect("access log written");
    let lines: Vec<isax_json::Value> = log
        .lines()
        .map(|l| isax_json::parse(l).expect("access-log line is valid JSON"))
        .collect();
    assert_eq!(lines.len(), 4, "one line per received frame");
    let mut seqs: Vec<u64> = lines
        .iter()
        .map(|l| l.get("seq").and_then(|v| v.as_u64()).unwrap())
        .collect();
    seqs.sort_unstable();
    assert_eq!(
        seqs,
        vec![1, 2, 3, 4],
        "sequence numbers are dense and unique"
    );
    for l in &lines {
        let seq = l.get("seq").and_then(|v| v.as_u64()).unwrap();
        let id = l.get("id").and_then(|v| v.as_str()).unwrap();
        assert!(
            id.starts_with(&format!("{seq}-")),
            "request id embeds the sequence number: {id}"
        );
        assert!(l.get("outcome").is_some() && l.get("total_us").is_some());
    }
    let outcomes: Vec<&str> = lines
        .iter()
        .map(|l| l.get("outcome").and_then(|v| v.as_str()).unwrap())
        .collect();
    assert_eq!(outcomes.iter().filter(|o| **o == "ok").count(), 3);
    assert_eq!(
        outcomes.iter().filter(|o| **o == "malformed-frame").count(),
        1
    );
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.get("cached") == Some(&isax_json::Value::Bool(true)))
            .count(),
        1,
        "exactly one request was served from cache"
    );
    assert!(
        lines
            .iter()
            .filter(|l| l.get("outcome").and_then(|v| v.as_str()) == Some("ok")
                && l.get("req").and_then(|v| v.as_str()) == Some("customize"))
            .all(|l| l.get("stages_us").is_some()),
        "worker-served requests carry per-stage latencies"
    );

    // Busy rejections are logged too: a zero-capacity queue.
    let log2 = dir.join("access2.jsonl");
    let server = Server::spawn(ServeConfig {
        workers: 1,
        queue_cap: 0,
        access_log: EnvMode::Path(log2.display().to_string()),
        stats: EnvMode::Off,
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client
        .artifacts(customize_request(name, text, false, None))
        .expect_err("zero-capacity queue rejects");
    assert_eq!(err.code, ErrorCode::Busy);
    assert_eq!(server.access_log_lines(), 1);
    assert_refusals_counted(&server, &["busy"]);
    server.shutdown();
    assert_eq!(logged_outcomes(&log2), ["busy"]);

    // Oversized and truncated frames, and work sent after shutdown
    // began (both connections are opened first: the accept loop stops
    // at shutdown).
    let log3 = dir.join("access3.jsonl");
    let server = Server::spawn(ServeConfig {
        workers: 1,
        max_frame_bytes: 64 * 1024,
        access_log: EnvMode::Path(log3.display().to_string()),
        stats: EnvMode::Off,
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let mut client = Client::connect(server.addr()).unwrap();
    let mut trunc = Client::connect(server.addr()).unwrap();
    let huge = format!(
        "{{\"req\":\"stats\",\"pad\":\"{}\"}}",
        "x".repeat(80 * 1024)
    );
    let resp = client.send_raw(&huge).expect("transport ok");
    assert!(matches!(resp.reply, Reply::Error(ref e) if e.code == ErrorCode::OversizedFrame));
    trunc.write_bytes(b"{\"req\":\"stats\"").unwrap();
    trunc.shutdown_write().unwrap();
    let resp = trunc.read_response().expect("truncation error is sent");
    assert!(matches!(resp.reply, Reply::Error(ref e) if e.code == ErrorCode::TruncatedFrame));
    server.initiate_shutdown();
    let err = client
        .artifacts(customize_request(name, text, false, None))
        .expect_err("no work is admitted after shutdown begins");
    assert_eq!(err.code, ErrorCode::ShuttingDown);
    assert_eq!(server.access_log_lines(), 3);
    assert_refusals_counted(
        &server,
        &["oversized-frame", "truncated-frame", "shutting-down"],
    );
    server.join();
    assert_eq!(
        logged_outcomes(&log3),
        ["oversized-frame", "shutting-down", "truncated-frame"]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Telemetry must be invisible to the artifact plane: the same request
/// returns byte-identical artifacts with the access log and metrics
/// sink on or off. `--metrics-out` writes a final parseable exposition
/// at shutdown.
#[test]
fn telemetry_never_changes_artifacts_and_metrics_out_is_written() {
    let _guard = TEST_LOCK.lock().unwrap();
    let dir = scratch_dir("telemetry");
    let (name, text) = &corpus()[0];

    // Telemetry fully off.
    let server = Server::spawn(ServeConfig {
        workers: 1,
        stats: EnvMode::Off,
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let mut client = Client::connect(server.addr()).unwrap();
    let (_, plain) = client
        .artifacts(customize_request(name, text, false, None))
        .expect("customize without telemetry");
    server.shutdown();

    // Access log + metrics sink on.
    let metrics_path = dir.join("metrics.prom");
    let server = Server::spawn(ServeConfig {
        workers: 1,
        stats: EnvMode::Off,
        access_log: EnvMode::Path(dir.join("access.jsonl").display().to_string()),
        metrics_out: Some(metrics_path.display().to_string()),
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let mut client = Client::connect(server.addr()).unwrap();
    let (_, traced) = client
        .artifacts(customize_request(name, text, false, None))
        .expect("customize with telemetry");
    server.shutdown();

    assert_eq!(plain.mdes, traced.mdes, "telemetry changed the MDES bytes");
    assert_eq!(plain.prov, traced.prov, "telemetry changed the prov bytes");

    let expo = std::fs::read_to_string(&metrics_path).expect("metrics-out written at shutdown");
    assert!(expo.contains(isax_trace::WALL_MARKER));
    assert!(!isax_trace::deterministic_section(&expo).is_empty());
    assert!(expo.contains("isax_serve_requests_received_total 1"));
    for line in expo.lines() {
        assert!(
            line.starts_with('#')
                || line
                    .split_once(' ')
                    .is_some_and(|(name, v)| !name.is_empty() && !v.is_empty()),
            "exposition line must be `name value` or a comment: {line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
