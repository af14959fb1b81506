//! Implementation of the `isax` command-line tool.
//!
//! The binary drives the whole toolflow over textual IR files (the
//! `Display`/[`isax_ir::parse`] assembly format):
//!
//! ```text
//! isax explore  kernel.isax                      # exploration stats + top CFU candidates
//! isax customize kernel.isax --budget 15 -o m.json   # generate a machine description
//! isax compile  kernel.isax --mdes m.json [--subsumed] [--wildcard] [--emit out.isax]
//! isax lint     kernel.isax                      # IC08xx dataflow lints
//! isax run      kernel.isax --entry f --args 1,2,3
//! isax simulate kernel.isax --entry f --args 1,2,3    # with VLIW cycle counts
//! isax dot      kernel.isax --function f --block 1    # Graphviz dump of one DFG
//! ```
//!
//! The library half exists so the argument parsing and command logic are
//! unit-testable; `main.rs` is a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use isax::{Customizer, MatchMode, MatchOptions, Mdes, RunConfig, SharedContext};
use isax_ir::{parse_program, Program};
use isax_machine::Memory;
use isax_prov::EnvMode;
use std::sync::Arc;

/// The flags `explore`, `customize` and `compile` share. Each flag that
/// is given overrides the environment's value of the same
/// [`RunConfig`] field: flag > environment > default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineFlags {
    /// `--check`: run the stage-checkpoint invariant checker.
    pub check: bool,
    /// `--trace-out PATH`: write a Chrome trace_event JSON file of the run.
    pub trace_out: Option<String>,
    /// `--work-budget N`: deterministic work units per governed (stage, item).
    pub work_budget: Option<u64>,
    /// `--prov-out PATH`: write a decision-provenance JSON report of the run.
    pub prov_out: Option<String>,
    /// `--beam-width N`: explorer beam width (`0` = exhaustive).
    pub beam_width: Option<usize>,
    /// `--width-aware`: price primitives at their analyzed effective
    /// operand widths.
    pub width_aware: bool,
}

impl PipelineFlags {
    fn parse(args: &[String]) -> Result<PipelineFlags, UsageError> {
        Ok(PipelineFlags {
            check: has_flag(args, "--check"),
            trace_out: flag_value(args, "--trace-out").map(str::to_string),
            work_budget: number_flag(args, "--work-budget")?,
            prov_out: flag_value(args, "--prov-out").map(str::to_string),
            beam_width: number_flag(args, "--beam-width")?,
            width_aware: has_flag(args, "--width-aware"),
        })
    }

    /// `run` with every given flag applied over it.
    fn apply(&self, mut run: RunConfig) -> RunConfig {
        run.check |= self.check;
        run.width_aware |= self.width_aware;
        if let Some(w) = self.beam_width {
            run.beam_width = w;
        }
        if self.work_budget.is_some() {
            run.work_budget = self.work_budget;
        }
        if let Some(path) = &self.prov_out {
            run.prov = EnvMode::Path(path.clone());
        }
        run
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `explore <file> [pipeline flags]`
    Explore {
        /// IR file.
        file: String,
        /// The shared pipeline flags.
        flags: PipelineFlags,
    },
    /// `customize <file> [--budget B] [--name N] [--out PATH] [--multifunction] [pipeline flags]`
    Customize {
        /// IR file.
        file: String,
        /// Area budget (adders).
        budget: f64,
        /// Application name recorded in the MDES.
        name: String,
        /// Where to write the MDES JSON (stdout when `None`).
        out: Option<String>,
        /// Use multifunction-family selection.
        multifunction: bool,
        /// The shared pipeline flags.
        flags: PipelineFlags,
    },
    /// `lint <file>` — run the `IC08xx` dataflow lints over every
    /// function and print the findings (warnings; never an error exit).
    Lint {
        /// IR file.
        file: String,
    },
    /// `compile <file> --mdes PATH [--subsumed] [--wildcard] [--emit PATH] [pipeline flags]`
    Compile {
        /// IR file.
        file: String,
        /// MDES JSON path.
        mdes: String,
        /// Enable subsumed-subgraph matching.
        subsumed: bool,
        /// Enable opcode-class wildcard matching.
        wildcard: bool,
        /// Optional path for the customized assembly.
        emit: Option<String>,
        /// The shared pipeline flags.
        flags: PipelineFlags,
    },
    /// `explain <report.json> [--cfu N | --candidate FP | --kernel F] [--top N]`
    Explain {
        /// Provenance report path (from `--prov-out` / `ISAX_PROV`).
        file: String,
        /// Narrate the candidate that became this CFU id.
        cfu: Option<u16>,
        /// Narrate the candidate with this canonical fingerprint (a
        /// unique hex prefix is accepted).
        candidate: Option<String>,
        /// Restrict the attribution table to one function.
        kernel: Option<String>,
        /// How many candidates the overview/attribution tables list.
        top: usize,
    },
    /// `simulate <file> --entry NAME [--args a,b,c] [--fuel N]`
    Simulate {
        /// IR file.
        file: String,
        /// Entry function.
        entry: String,
        /// Arguments.
        args: Vec<u32>,
        /// Instruction budget.
        fuel: u64,
    },
    /// `run <file> --entry NAME [--args a,b,c] [--fuel N]`
    Run {
        /// IR file.
        file: String,
        /// Entry function.
        entry: String,
        /// Arguments.
        args: Vec<u32>,
        /// Instruction budget.
        fuel: u64,
    },
    /// `dot <file> [--function NAME] [--block N]`
    Dot {
        /// IR file.
        file: String,
        /// Function name (first function when `None`).
        function: Option<String>,
        /// Block index.
        block: usize,
    },
    /// `serve [--addr A] [--workers N] [--queue-cap N]
    /// [--admission-budget N] [--access-log V] [--metrics-out PATH]` —
    /// run the customization job server until a client sends
    /// `shutdown`.
    Serve {
        /// Bind address (default `127.0.0.1:0`; port 0 picks a free
        /// port, printed on startup).
        addr: String,
        /// Worker threads (default: the `ISAX_THREADS` pool width).
        workers: Option<usize>,
        /// Bounded work-queue capacity (default 64).
        queue_cap: Option<usize>,
        /// Per-request admission cap in isax-guard work units.
        admission_budget: Option<u64>,
        /// Access-log destination (`0`/`off`, `1` for stderr, or a
        /// path; default: the `ISAX_SERVE_LOG` environment variable).
        access_log: Option<String>,
        /// Write the final Prometheus-text metrics exposition here at
        /// shutdown.
        metrics_out: Option<String>,
    },
    /// `gen [--seed N] [--domain D] [--blocks B] [--out PATH]`, or
    /// `gen --stress NAME | --curated NAME | --list` — emit a kernel
    /// from the seeded generator or one of the built-in corpora.
    Gen {
        /// PRNG seed (`--seed`, default 0).
        seed: u64,
        /// Domain profile (`--domain graph|dsp|mixed`, default mixed).
        domain: isax_gen::GenDomain,
        /// Requested block count (`--blocks`, default 8).
        blocks: usize,
        /// Regenerate a named stress-corpus kernel instead.
        stress: Option<String>,
        /// Regenerate a named curated-corpus kernel instead.
        curated: Option<String>,
        /// List every named kernel the command can regenerate.
        list: bool,
        /// Where to write the kernel (stdout when `None`).
        out: Option<String>,
    },
}

/// A usage/argument error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// The help text.
pub const USAGE: &str = "\
isax — automated instruction-set customization (MICRO-36 2003 reproduction)

USAGE:
    isax explore   <file.isax> [PIPELINE FLAGS]
    isax customize <file.isax> [--budget N] [--name APP] [--out mdes.json] [--multifunction] [PIPELINE FLAGS]
    isax lint      <file.isax>
    isax compile   <file.isax> --mdes mdes.json [--subsumed] [--wildcard] [--emit out.isax] [PIPELINE FLAGS]
    isax explain   <report.json> [--cfu N | --candidate FINGERPRINT | --kernel FUNC] [--top N]
    isax run       <file.isax> --entry FUNC [--args 1,2,3] [--fuel N]
    isax simulate  <file.isax> --entry FUNC [--args 1,2,3] [--fuel N]
    isax dot       <file.isax> [--function FUNC] [--block N]
    isax gen       [--seed N] [--domain graph|dsp|mixed] [--blocks B] [--out out.isax]
    isax gen       --stress NAME | --curated NAME | --list  [--out out.isax]
    isax serve     [--addr HOST:PORT] [--workers N] [--queue-cap N] [--admission-budget N] [--access-log V] [--metrics-out PATH]

PIPELINE FLAGS: [--check] [--beam-width N] [--width-aware] [--work-budget N]
[--prov-out report.json] [--trace-out trace.json]

CONFIGURATION: each pipeline flag overrides its variable (flag > variable
> default). A blank variable is unset; a malformed one makes `isax` exit
with status 2 before doing any work. On/off means 1/on/true/yes or
0/off/false/no; an on/off flag can only switch its knob on.

  variable          flag             grammar                  default    changes artifacts?
  ISAX_CHECK        --check          on/off                   off        no (aborts on IC0xxx)
  ISAX_BEAM         --beam-width N   integer, 0 = exhaustive  0          yes
  ISAX_WIDTH        --width-aware    on/off                   off        yes
  ISAX_BUDGET       --work-budget N  integer work units       unlimited  yes, when it truncates
  ISAX_DEADLINE_MS  -                integer milliseconds     none       yes, non-reproducibly
  ISAX_FAULT        -                stage:panic|exhaust:nth  none       yes (fault testing)
  ISAX_PROV         --prov-out PATH  on/off or a report path  off        no (adds a report)

`--check` runs the isax-check invariant passes at every pipeline
checkpoint. `--beam-width N` keeps the N best-scored frontier candidates
per exploration level. `--width-aware` prices each primitive at the
operand width the dataflow analyses prove instead of 32 bits.
`--work-budget N` bounds every governed stage to N deterministic work
units per item and prints one `degraded:` line per truncation (`--budget`
is the CFU *area* budget in adders). `--prov-out PATH` writes the
decision-provenance report — why every candidate subgraph was
discovered, pruned, subsumed, selected, matched or replaced — to PATH;
ISAX_PROV=1 prints a one-line summary instead. Query a report with
`isax explain`.

`--trace-out PATH` writes a Chrome trace_event JSON file of the run
(open in chrome://tracing or https://ui.perfetto.dev). Setting
ISAX_TRACE=1 instead prints a stage summary to stderr; ISAX_TRACE=PATH
does both.

`isax lint` solves the value-range and known-bits dataflow analyses for
every function and prints IC08xx findings: shift amounts provably >= 32
(IC0801), always-true/false compares (IC0802), dead definitions
(IC0803), constant-foldable operations (IC0804) and unreachable blocks
(IC0805). Findings are warnings; the command only fails on I/O or parse
errors.

`isax gen` emits a verifier-clean, lint-clean kernel deterministically
derived from `--seed`/`--domain`/`--blocks` (the kernels under
`kernels/gen/` record their recipe in MANIFEST.json). `--stress NAME`
regenerates a kernels/stress corpus file byte-identically; `--curated
NAME` regenerates a kernels/graph or kernels/dsp corpus file; `--list`
names them all.

`isax serve` runs the pipeline as a long-running job server: clients
send newline-delimited JSON `customize`/`compile`/`stats`/`shutdown`
requests over TCP and receive the same artifact bytes the one-shot
commands write. Repeated kernels are answered from a content-addressed
cache; `--admission-budget N` caps every request at N work units;
ISAX_SERVE_STATS=1 prints a summary at shutdown, ISAX_SERVE_STATS=PATH
writes the final stats JSON there (`0`/`off` disable — the same value
grammar as ISAX_TRACE/ISAX_PROV).

Serve telemetry: `--access-log V` (or ISAX_SERVE_LOG=V) writes one
compact-JSON line per request — accepted, busy-rejected or malformed —
with a deterministic request id, stage latencies, cache and admission
outcome (`1` = stderr, PATH = file). Clients can send a `metrics`
request at any time for a Prometheus-text exposition (counters, gauges
and log-bucketed latency histograms); `--metrics-out PATH` writes the
final exposition at shutdown. ISAX_FLAME=1 prints inferno-compatible
folded stacks for any traced command to stderr at exit (ISAX_FLAME=PATH
writes them to PATH); feed them to `inferno-flamegraph` or any
flamegraph renderer.
";

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// A flag overriding an integer [`RunConfig`] field, parsed by the
/// same grammar as its environment variable.
fn number_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, UsageError> {
    flag_value(args, flag)
        .map(|v| {
            isax::config::parse_number(v).map_err(|e| UsageError(format!("bad {flag} `{v}` ({e})")))
        })
        .transpose()
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns a [`UsageError`] describing the first problem.
pub fn parse_args(args: &[String]) -> Result<Command, UsageError> {
    let Some(cmd) = args.first() else {
        return Err(UsageError(USAGE.into()));
    };
    // `gen` synthesizes its kernel — it is the one command with no
    // input file, so it parses before the generic file extraction.
    if cmd == "gen" {
        let rest = &args[1..];
        let seed = match flag_value(rest, "--seed") {
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| UsageError(format!("bad --seed `{v}`")))?,
            None => 0,
        };
        let domain = match flag_value(rest, "--domain") {
            Some(v) => isax_gen::GenDomain::parse(v).ok_or_else(|| {
                UsageError(format!("bad --domain `{v}` (want graph, dsp or mixed)"))
            })?,
            None => isax_gen::GenDomain::Mixed,
        };
        let blocks = match flag_value(rest, "--blocks") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| UsageError(format!("bad --blocks `{v}`")))?,
            None => 8,
        };
        return Ok(Command::Gen {
            seed,
            domain,
            blocks,
            stress: flag_value(rest, "--stress").map(str::to_string),
            curated: flag_value(rest, "--curated").map(str::to_string),
            list: has_flag(rest, "--list"),
            out: flag_value(rest, "--out").map(str::to_string),
        });
    }
    // `serve` runs a server, not a file — it also parses before the
    // generic file extraction.
    if cmd == "serve" {
        let rest = &args[1..];
        let parse_usize = |flag: &str| -> Result<Option<usize>, UsageError> {
            match flag_value(rest, flag) {
                Some(v) => v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .map(Some)
                    .ok_or_else(|| {
                        UsageError(format!("bad {flag} `{v}` (want a positive integer)"))
                    }),
                None => Ok(None),
            }
        };
        let admission_budget = match flag_value(rest, "--admission-budget") {
            Some(v) => Some(
                v.parse::<u64>()
                    .map_err(|_| UsageError(format!("bad --admission-budget `{v}`")))?,
            ),
            None => None,
        };
        return Ok(Command::Serve {
            addr: flag_value(rest, "--addr")
                .unwrap_or("127.0.0.1:0")
                .to_string(),
            workers: parse_usize("--workers")?,
            queue_cap: parse_usize("--queue-cap")?,
            admission_budget,
            access_log: flag_value(rest, "--access-log").map(str::to_string),
            metrics_out: flag_value(rest, "--metrics-out").map(str::to_string),
        });
    }
    let file = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .ok_or_else(|| UsageError(format!("{cmd}: missing input file\n\n{USAGE}")))?;
    let rest = &args[2..];
    match cmd.as_str() {
        "explore" => Ok(Command::Explore {
            file,
            flags: PipelineFlags::parse(rest)?,
        }),
        "lint" => Ok(Command::Lint { file }),
        "customize" => {
            let budget = match flag_value(rest, "--budget") {
                Some(b) => isax::config::parse_area_budget(b)
                    .map_err(|e| UsageError(format!("bad --budget `{b}` ({e})")))?,
                None => 15.0,
            };
            let name = flag_value(rest, "--name")
                .map(str::to_string)
                .unwrap_or_else(|| {
                    std::path::Path::new(&file)
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_else(|| "app".into())
                });
            Ok(Command::Customize {
                file,
                budget,
                name,
                out: flag_value(rest, "--out").map(str::to_string),
                multifunction: has_flag(rest, "--multifunction"),
                flags: PipelineFlags::parse(rest)?,
            })
        }
        "compile" => {
            let mdes = flag_value(rest, "--mdes")
                .ok_or_else(|| UsageError("compile: --mdes is required".into()))?
                .to_string();
            Ok(Command::Compile {
                file,
                mdes,
                subsumed: has_flag(rest, "--subsumed"),
                wildcard: has_flag(rest, "--wildcard"),
                emit: flag_value(rest, "--emit").map(str::to_string),
                flags: PipelineFlags::parse(rest)?,
            })
        }
        "explain" => {
            let cfu = match flag_value(rest, "--cfu") {
                Some(v) => Some(
                    v.parse::<u16>()
                        .map_err(|_| UsageError(format!("bad --cfu `{v}`")))?,
                ),
                None => None,
            };
            let top = match flag_value(rest, "--top") {
                Some(v) => v
                    .parse::<usize>()
                    .map_err(|_| UsageError(format!("bad --top `{v}`")))?,
                None => 10,
            };
            Ok(Command::Explain {
                file,
                cfu,
                candidate: flag_value(rest, "--candidate").map(str::to_string),
                kernel: flag_value(rest, "--kernel").map(str::to_string),
                top,
            })
        }
        "run" | "simulate" => {
            let entry = flag_value(rest, "--entry")
                .ok_or_else(|| UsageError("run: --entry is required".into()))?
                .to_string();
            let args_list = match flag_value(rest, "--args") {
                Some(list) => list
                    .split(',')
                    .filter(|t| !t.is_empty())
                    .map(|t| {
                        let t = t.trim();
                        if let Some(hex) = t.strip_prefix("0x") {
                            u32::from_str_radix(hex, 16)
                        } else {
                            t.parse::<u32>()
                        }
                        .map_err(|_| UsageError(format!("bad argument `{t}`")))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                None => Vec::new(),
            };
            let fuel = match flag_value(rest, "--fuel") {
                Some(f) => f
                    .parse::<u64>()
                    .map_err(|_| UsageError(format!("bad --fuel `{f}`")))?,
                None => 10_000_000,
            };
            if cmd == "simulate" {
                Ok(Command::Simulate {
                    file,
                    entry,
                    args: args_list,
                    fuel,
                })
            } else {
                Ok(Command::Run {
                    file,
                    entry,
                    args: args_list,
                    fuel,
                })
            }
        }
        "dot" => Ok(Command::Dot {
            file,
            function: flag_value(rest, "--function").map(str::to_string),
            block: match flag_value(rest, "--block") {
                Some(b) => b
                    .parse::<usize>()
                    .map_err(|_| UsageError(format!("bad --block `{b}`")))?,
                None => 0,
            },
        }),
        other => Err(UsageError(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

fn load_program(path: &str) -> Result<Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_program(&text).map_err(|e| format!("{path}:{e}"))
}

impl Command {
    /// The shared pipeline flags, for the commands that take them.
    fn flags(&self) -> Option<&PipelineFlags> {
        match self {
            Command::Explore { flags, .. }
            | Command::Customize { flags, .. }
            | Command::Compile { flags, .. } => Some(flags),
            _ => None,
        }
    }
}

/// The pipeline a command runs: the environment's [`RunConfig`] with
/// `flags` applied. Also returns where provenance goes and, unless that
/// is nowhere, the guard keeping recording on for the run.
fn pipeline(
    flags: &PipelineFlags,
) -> Result<(Customizer, EnvMode, Option<isax_prov::EnableGuard>), String> {
    let run = flags.apply(RunConfig::from_env()?);
    let cz = Customizer::with_context(Arc::new(SharedContext::from_config(&run)));
    let recording = (run.prov != EnvMode::Off).then(isax_prov::enable);
    Ok((cz, run.prov, recording))
}

/// Builds the provenance report from a merged log and delivers it to
/// `sink` (a one-line summary on the command output, or a JSON report
/// file); with `check` set, cross-validates it first (IC07xx).
fn emit_prov(
    out: &mut dyn std::io::Write,
    sink: &EnvMode,
    app: &str,
    log: &isax::ProvLog,
    check: bool,
    mdes: Option<&Mdes>,
    compiled: Option<&isax_compiler::CompiledProgram>,
) -> Result<(), String> {
    if *sink == EnvMode::Off {
        return Ok(());
    }
    let doc = isax::build_report(app, log);
    if check {
        isax::enforce("provenance", &isax::check_provenance(&doc, mdes, compiled));
    }
    let summary = isax_prov::summarize(log).one_line();
    match sink {
        EnvMode::Off => unreachable!(),
        EnvMode::Summary => writeln!(out, "provenance: {summary}").map_err(|e| e.to_string()),
        EnvMode::Path(path) => {
            let mut text = doc.to_string_pretty();
            text.push('\n');
            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
            writeln!(out, "provenance report ({summary}) written to {path}")
                .map_err(|e| e.to_string())
        }
    }
}

/// The application name stamped into provenance reports when the command
/// has no `--name`: the input file's stem.
fn app_name(file: &str) -> String {
    std::path::Path::new(file)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "app".into())
}

// ---- `isax explain`: render a provenance report for humans ----------------

fn ju(v: &isax_json::Value, k: &str) -> u64 {
    v.get(k).and_then(|x| x.as_u64()).unwrap_or(0)
}

fn jf(v: &isax_json::Value, k: &str) -> f64 {
    v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0)
}

fn js<'a>(v: &'a isax_json::Value, k: &str) -> &'a str {
    v.get(k).and_then(|x| x.as_str()).unwrap_or("")
}

/// `score 31.2 = criticality 10.0 + latency 8.1 + area 3.1 + io 10.0`.
fn score_line(s: &isax_json::Value) -> String {
    format!(
        "score {:.1} = criticality {:.1} + latency {:.1} + area {:.1} + io {:.1}",
        jf(s, "total"),
        jf(s, "criticality"),
        jf(s, "latency"),
        jf(s, "area"),
        jf(s, "io")
    )
}

/// Recomputes the lowest axis from a serialized score object.
fn weakest_axis_of(s: &isax_json::Value) -> &'static str {
    let mut weakest = ("criticality", jf(s, "criticality"));
    for axis in ["latency", "area", "io"] {
        let v = jf(s, axis);
        if v < weakest.1 {
            weakest = (
                match axis {
                    "latency" => "latency",
                    "area" => "area",
                    _ => "io",
                },
                v,
            );
        }
    }
    weakest.0
}

/// One narrative line (occasionally two) per provenance event.
fn render_event(e: &isax_json::Value) -> String {
    match js(e, "event") {
        "discovered" => {
            let mut line = format!(
                "[explore] discovered in dfg {}: {} op(s), {} in / {} out, {:.2} adders, delay {:.2} cycle(s)",
                ju(e, "dfg"),
                ju(e, "size"),
                ju(e, "inputs"),
                ju(e, "outputs"),
                jf(e, "area"),
                jf(e, "delay")
            );
            match e.get("score") {
                Some(s) => line.push_str(&format!("\n              via growth {}", score_line(s))),
                None => line.push_str(" (seed operation, admitted unscored)"),
            }
            line
        }
        "pruned" => {
            let why = match js(e, "reason") {
                "fanout_cap" => "scored above threshold but lost the fanout cut",
                _ => "guide score below threshold",
            };
            match e.get("score") {
                Some(s) => format!(
                    "[explore] pruned in dfg {} — {}: {} vs threshold {:.1}; weakest axis: {}",
                    ju(e, "dfg"),
                    why,
                    score_line(s),
                    jf(e, "threshold"),
                    weakest_axis_of(s)
                ),
                None => format!("[explore] pruned in dfg {} — {}", ju(e, "dfg"), why),
            }
        }
        "subsumed_by" => format!(
            "[select]  pattern subsumed by cfu {} — matchable inside the larger unit",
            ju(e, "cfu")
        ),
        "wildcarded" => format!(
            "[select]  wildcard partner of cfu {} — same shape, one opcode apart",
            ju(e, "partner")
        ),
        "selected_as_cfu" => format!(
            "[select]  selected as cfu {}: charged {:.2} adders, delay {:.2} cycle(s), estimated value {} cycles",
            ju(e, "cfu"),
            jf(e, "area"),
            jf(e, "delay"),
            ju(e, "estimated_value")
        ),
        "matched" => format!(
            "[compile] {} legal match(es) in {} block {}",
            ju(e, "count"),
            js(e, "function"),
            ju(e, "block")
        ),
        "replaced" => {
            let before = ju(e, "cycles_before");
            let after = ju(e, "cycles_after");
            format!(
                "[compile] replaced in {} block {}: {} -> {} weighted cycles (saved {})",
                js(e, "function"),
                ju(e, "block"),
                before,
                after,
                before.saturating_sub(after)
            )
        }
        other => format!("[?]       unknown event `{other}`"),
    }
}

/// `candidate <fp> — fate: selected, cfu 3, 4 match(es), 8200 cycles saved`.
fn candidate_header(c: &isax_json::Value) -> String {
    let mut h = format!(
        "candidate {} — fate: {}",
        js(c, "fingerprint"),
        js(c, "fate")
    );
    if let Some(id) = c.get("cfu").and_then(|v| v.as_u64()) {
        h.push_str(&format!(", cfu {id}"));
    }
    if let Some(m) = c.get("matches").and_then(|v| v.as_u64()) {
        h.push_str(&format!(", {m} match(es)"));
    }
    if let Some(cy) = c.get("cycles_saved").and_then(|v| v.as_u64()) {
        h.push_str(&format!(", {cy} cycles saved"));
    }
    h
}

/// Full narrative for one candidate: header plus one line per event.
fn render_candidate(out: &mut dyn std::io::Write, c: &isax_json::Value) -> Result<(), String> {
    writeln!(out, "{}", candidate_header(c)).map_err(|e| e.to_string())?;
    for e in c.get("events").and_then(|v| v.as_array()).unwrap_or(&[]) {
        writeln!(out, "  {}", render_event(e)).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Per-function totals over `matched`/`replaced` events:
/// `(function, matches, replacements, cycles_saved)` rows.
fn attribution(cands: &[isax_json::Value], kernel: Option<&str>) -> Vec<(String, u64, u64, u64)> {
    let mut rows: std::collections::BTreeMap<String, (u64, u64, u64)> = Default::default();
    for c in cands {
        for e in c.get("events").and_then(|v| v.as_array()).unwrap_or(&[]) {
            let f = js(e, "function");
            if f.is_empty() || kernel.is_some_and(|k| k != f) {
                continue;
            }
            let row = rows.entry(f.to_string()).or_default();
            match js(e, "event") {
                "matched" => row.0 += ju(e, "count"),
                "replaced" => {
                    row.1 += 1;
                    row.2 += ju(e, "cycles_before").saturating_sub(ju(e, "cycles_after"));
                }
                _ => {}
            }
        }
    }
    rows.into_iter()
        .map(|(f, (m, r, cy))| (f, m, r, cy))
        .collect()
}

fn write_attribution(
    out: &mut dyn std::io::Write,
    rows: &[(String, u64, u64, u64)],
) -> Result<(), String> {
    let w =
        |out: &mut dyn std::io::Write, s: String| writeln!(out, "{s}").map_err(|e| e.to_string());
    if rows.is_empty() {
        return w(out, "  (no matches recorded)".into());
    }
    w(
        out,
        format!(
            "  {:<24} {:>8} {:>13} {:>13}",
            "function", "matches", "replacements", "cycles saved"
        ),
    )?;
    for (f, m, r, cy) in rows {
        w(out, format!("  {f:<24} {m:>8} {r:>13} {cy:>13}"))?;
    }
    Ok(())
}

/// The `isax explain` command: load a provenance report and answer "why
/// did this happen" queries over it.
fn explain(
    out: &mut dyn std::io::Write,
    file: &str,
    cfu: Option<u16>,
    candidate: Option<&str>,
    kernel: Option<&str>,
    top: usize,
) -> Result<(), String> {
    let w =
        |out: &mut dyn std::io::Write, s: String| writeln!(out, "{s}").map_err(|e| e.to_string());
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let doc = isax_json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
    let version = ju(&doc, "version");
    if version != isax_prov::REPORT_VERSION {
        return Err(format!(
            "{file}: provenance report version {version}, this isax understands {}",
            isax_prov::REPORT_VERSION
        ));
    }
    let cands = doc
        .get("candidates")
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("{file}: not a provenance report (no `candidates` array)"))?;

    // One candidate, narrated end to end.
    if let Some(id) = cfu {
        let c = cands
            .iter()
            .find(|c| c.get("cfu").and_then(|v| v.as_u64()) == Some(u64::from(id)))
            .ok_or_else(|| format!("no candidate became cfu {id} in this report"))?;
        render_candidate(out, c)?;
        let rows = attribution(std::slice::from_ref(c), None);
        if !rows.is_empty() {
            w(out, "per-kernel attribution:".into())?;
            write_attribution(out, &rows)?;
        }
        return Ok(());
    }
    if let Some(q) = candidate {
        let q = q.to_ascii_lowercase();
        let hits: Vec<&isax_json::Value> = cands
            .iter()
            .filter(|c| js(c, "fingerprint").starts_with(&q))
            .collect();
        return match hits.len() {
            0 => Err(format!("no candidate with fingerprint prefix `{q}`")),
            1 => render_candidate(out, hits[0]),
            n => Err(format!(
                "fingerprint prefix `{q}` is ambiguous ({n} candidates)"
            )),
        };
    }

    // Overview (optionally restricted to one kernel function).
    let scoped: Vec<&isax_json::Value> = match kernel {
        Some(k) => cands
            .iter()
            .filter(|c| {
                c.get("events")
                    .and_then(|v| v.as_array())
                    .unwrap_or(&[])
                    .iter()
                    .any(|e| js(e, "function") == k)
            })
            .collect(),
        None => cands.iter().collect(),
    };
    let summary = doc.get("summary");
    let fates = summary.and_then(|s| s.get("fates"));
    let stages = summary.and_then(|s| s.get("stages"));
    w(
        out,
        format!(
            "provenance report for `{}`: {} candidates ({} selected, {} not selected, {} pruned), {} events (explore {}, select {}, compile {})",
            js(&doc, "app"),
            summary.map_or(0, |s| ju(s, "candidates")),
            fates.map_or(0, |f| ju(f, "selected")),
            fates.map_or(0, |f| ju(f, "not_selected")),
            fates.map_or(0, |f| ju(f, "pruned")),
            summary.map_or(0, |s| ju(s, "events")),
            stages.map_or(0, |s| ju(s, "explore")),
            stages.map_or(0, |s| ju(s, "select")),
            stages.map_or(0, |s| ju(s, "compile")),
        ),
    )?;
    if let Some(k) = kernel {
        w(
            out,
            format!("{} candidate(s) touch kernel `{k}`", scoped.len()),
        )?;
    }
    let mut ranked: Vec<&isax_json::Value> = scoped.clone();
    ranked.sort_by_key(|c| {
        std::cmp::Reverse((
            c.get("cycles_saved").and_then(|v| v.as_u64()).unwrap_or(0),
            c.get("matches").and_then(|v| v.as_u64()).unwrap_or(0),
            c.get("cfu").and_then(|v| v.as_u64()).is_some(),
        ))
    });
    w(
        out,
        format!("top {} candidates by cycles saved:", top.min(ranked.len())),
    )?;
    w(
        out,
        format!(
            "  {:>4}  {:<16}  {:<12}  {:>7}  {:>12}",
            "cfu", "fingerprint", "fate", "matches", "cycles saved"
        ),
    )?;
    for c in ranked.iter().take(top) {
        let cfu_cell = c
            .get("cfu")
            .and_then(|v| v.as_u64())
            .map_or_else(|| "-".into(), |id| id.to_string());
        w(
            out,
            format!(
                "  {:>4}  {:<16}  {:<12}  {:>7}  {:>12}",
                cfu_cell,
                js(c, "fingerprint"),
                js(c, "fate"),
                c.get("matches").and_then(|v| v.as_u64()).unwrap_or(0),
                c.get("cycles_saved").and_then(|v| v.as_u64()).unwrap_or(0)
            ),
        )?;
    }
    let rows = attribution(cands, kernel);
    w(out, "per-kernel attribution:".into())?;
    write_attribution(out, &rows)?;
    w(
        out,
        "query one lifecycle with --cfu N or --candidate FINGERPRINT".into(),
    )?;
    Ok(())
}

/// Executes a command, writing human output to `out`.
///
/// When the command carries `--trace-out PATH`, the pipeline runs under
/// an [`isax_trace::Recorder`] and the Chrome trace_event document is
/// written to PATH afterwards.
///
/// # Errors
///
/// Returns a description of the failure (file, parse, or execution).
pub fn execute(cmd: &Command, out: &mut dyn std::io::Write) -> Result<(), String> {
    let Some(path) = cmd.flags().and_then(|f| f.trace_out.as_deref()) else {
        return execute_inner(cmd, out);
    };
    let rec = isax_trace::Recorder::install();
    let result = execute_inner(cmd, out);
    isax_trace::uninstall();
    std::fs::write(path, rec.chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
    writeln!(out, "chrome trace written to {path}").map_err(|e| e.to_string())?;
    result
}

fn execute_inner(cmd: &Command, out: &mut dyn std::io::Write) -> Result<(), String> {
    let w =
        |out: &mut dyn std::io::Write, s: String| writeln!(out, "{s}").map_err(|e| e.to_string());
    // One `degraded:` line per governance event, so truncated results are
    // never silently presented as complete.
    fn report_degradations(
        out: &mut dyn std::io::Write,
        degradations: &[isax::Degradation],
    ) -> Result<(), String> {
        for d in degradations {
            writeln!(out, "degraded: {d}").map_err(|e| e.to_string())?;
        }
        Ok(())
    }
    match cmd {
        Command::Explore { file, flags } => {
            let p = load_program(file)?;
            let (cz, sink, _recording) = pipeline(flags)?;
            let analysis = cz.analyze(&p);
            report_degradations(out, &analysis.report.degradations)?;
            w(
                out,
                format!(
                    "{}: {} instructions, {} blocks",
                    file,
                    p.inst_count(),
                    analysis.dfgs.len()
                ),
            )?;
            w(
                out,
                format!(
                    "explored {} candidate subgraphs ({} directions pruned) -> {} CFU candidates",
                    analysis.stats.examined,
                    analysis.stats.directions_pruned,
                    analysis.cfus.len()
                ),
            )?;
            let mut ranked: Vec<_> = analysis.cfus.iter().collect();
            ranked.sort_by_key(|c| std::cmp::Reverse(c.estimated_value()));
            w(out, "top candidates by estimated value:".into())?;
            for c in ranked.iter().take(10) {
                w(
                    out,
                    format!(
                        "  {:<28} {:2} ops  {:6.2} adders  {:2} occurrence(s)  value {}",
                        c.describe(),
                        c.size(),
                        c.area,
                        c.occurrences.len(),
                        c.estimated_value()
                    ),
                )?;
            }
            emit_prov(
                out,
                &sink,
                &app_name(file),
                &analysis.report.prov,
                cz.check,
                None,
                None,
            )?;
            Ok(())
        }
        Command::Customize {
            file,
            budget,
            name,
            out: out_path,
            multifunction,
            flags,
        } => {
            let p = load_program(file)?;
            let (cz, sink, _recording) = pipeline(flags)?;
            let analysis = cz.analyze(&p);
            let (mdes, sel) = if *multifunction {
                cz.select_multifunction(name, &analysis, *budget)
            } else {
                cz.select(name, &analysis, *budget)
            };
            let mut report = analysis.report;
            report.merge(sel.report);
            report_degradations(out, &report.degradations)?;
            let json = mdes.to_json().map_err(|e| e.to_string())?;
            match out_path {
                Some(path) => {
                    std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
                    w(
                        out,
                        format!(
                            "wrote {} CFUs ({:.2} adders charged) to {path}",
                            mdes.cfus.len(),
                            sel.total_area
                        ),
                    )?;
                }
                None => w(out, json)?,
            }
            emit_prov(out, &sink, name, &report.prov, cz.check, Some(&mdes), None)?;
            Ok(())
        }
        Command::Lint { file } => {
            let p = load_program(file)?;
            let report = isax::lint_program(&p);
            for d in report.diagnostics() {
                w(out, d.to_string())?;
            }
            let funcs = p.functions.len();
            let n = report.diagnostics().len();
            if n == 0 {
                w(out, format!("{file}: clean ({funcs} function(s) linted)"))?;
            } else {
                w(
                    out,
                    format!("{file}: {n} finding(s) in {funcs} function(s)"),
                )?;
            }
            Ok(())
        }
        Command::Compile {
            file,
            mdes,
            subsumed,
            wildcard,
            emit,
            flags,
        } => {
            let p = load_program(file)?;
            let (cz, sink, _recording) = pipeline(flags)?;
            let text = std::fs::read_to_string(mdes).map_err(|e| format!("{mdes}: {e}"))?;
            let mdes = Mdes::from_json(&text).map_err(|e| format!("{mdes}: {e}"))?;
            let matching = MatchOptions {
                mode: if *wildcard {
                    MatchMode::Wildcard
                } else {
                    MatchMode::Exact
                },
                allow_subsumed: *subsumed,
            };
            let ev = cz.evaluate(&p, &mdes, matching);
            report_degradations(out, &ev.compiled.report.degradations)?;
            w(
                out,
                format!(
                    "baseline {} cycles -> customized {} cycles  (speedup {:.3}x)",
                    ev.baseline_cycles, ev.custom_cycles, ev.speedup
                ),
            )?;
            w(
                out,
                format!(
                    "{} replacement(s): {} exact, {} subsumed",
                    ev.compiled.applied.len(),
                    ev.compiled.exact_matches(),
                    ev.compiled.subsumed_matches()
                ),
            )?;
            if let Some(path) = emit {
                let text: String = ev
                    .compiled
                    .program
                    .functions
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("\n");
                std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
                w(out, format!("customized assembly written to {path}"))?;
            }
            emit_prov(
                out,
                &sink,
                &app_name(file),
                &ev.compiled.report.prov,
                cz.check,
                Some(&mdes),
                Some(&ev.compiled),
            )?;
            Ok(())
        }
        Command::Explain {
            file,
            cfu,
            candidate,
            kernel,
            top,
        } => explain(
            out,
            file,
            *cfu,
            candidate.as_deref(),
            kernel.as_deref(),
            *top,
        ),
        Command::Run {
            file,
            entry,
            args,
            fuel,
        } => {
            let p = load_program(file)?;
            let mut mem = Memory::new();
            let r =
                isax_machine::run(&p, entry, args, &mut mem, *fuel).map_err(|e| e.to_string())?;
            w(
                out,
                format!(
                    "{entry}({}) = {:?}   [{} dynamic instructions]",
                    args.iter()
                        .map(u32::to_string)
                        .collect::<Vec<_>>()
                        .join(", "),
                    r.ret,
                    r.steps
                ),
            )?;
            Ok(())
        }
        Command::Simulate {
            file,
            entry,
            args,
            fuel,
        } => {
            let p = load_program(file)?;
            let mut mem = Memory::new();
            let r = isax_machine::simulate(
                &p,
                entry,
                args,
                &mut mem,
                &isax_compiler::CustomInfo::new(),
                &isax_hwlib::HwLibrary::micron_018(),
                &isax_compiler::VliwModel::default(),
                *fuel,
            )
            .map_err(|e| e.to_string())?;
            w(
                out,
                format!(
                    "{entry}({}) = {:?}   [{} cycles, {} dynamic instructions]",
                    args.iter()
                        .map(u32::to_string)
                        .collect::<Vec<_>>()
                        .join(", "),
                    r.outcome.ret,
                    r.cycles,
                    r.outcome.steps
                ),
            )?;
            Ok(())
        }
        Command::Dot {
            file,
            function,
            block,
        } => {
            let p = load_program(file)?;
            let f = match function {
                Some(name) => p
                    .function(name)
                    .ok_or_else(|| format!("no function `{name}`"))?,
                None => &p.functions[0],
            };
            let dfgs = isax_ir::function_dfgs(f);
            let dfg = dfgs
                .get(*block)
                .ok_or_else(|| format!("{} has no block {block}", f.name))?;
            w(out, dfg.to_dot(&format!("{}_b{block}", f.name)))?;
            Ok(())
        }
        Command::Serve {
            addr,
            workers,
            queue_cap,
            admission_budget,
            access_log,
            metrics_out,
        } => {
            let mut cfg = isax_serve::ServeConfig {
                addr: addr.clone(),
                ..isax_serve::ServeConfig::default()
            };
            if let Some(n) = workers {
                cfg.workers = *n;
            }
            if let Some(n) = queue_cap {
                cfg.queue_cap = *n;
            }
            if admission_budget.is_some() {
                cfg.max_work_units = *admission_budget;
            }
            if let Some(v) = access_log {
                cfg.access_log = isax_serve::parse_env_value(v);
            }
            if metrics_out.is_some() {
                cfg.metrics_out = metrics_out.clone();
            }
            let workers = cfg.workers;
            let queue_cap = cfg.queue_cap;
            let server = isax_serve::Server::spawn(cfg).map_err(|e| format!("{addr}: {e}"))?;
            w(
                out,
                format!(
                    "serving on {} ({} worker(s), queue cap {})",
                    server.addr(),
                    workers,
                    queue_cap
                ),
            )?;
            out.flush().map_err(|e| e.to_string())?;
            // Blocks until a client sends `shutdown`.
            server.join();
            w(out, "server stopped".into())?;
            Ok(())
        }
        Command::Gen {
            seed,
            domain,
            blocks,
            stress,
            curated,
            list,
            out: out_path,
        } => {
            if *list {
                w(out, "stress corpus (kernels/stress/, byte-pinned):".into())?;
                for (name, _) in isax_gen::STRESS {
                    w(out, format!("  {name}"))?;
                }
                w(out, "curated corpus (kernels/graph/, kernels/dsp/):".into())?;
                for k in isax_gen::curated() {
                    w(out, format!("  {} ({})", k.name, k.domain))?;
                }
                w(
                    out,
                    "generator domains (--domain): graph, dsp, mixed".into(),
                )?;
                return Ok(());
            }
            let (name, text) = if let Some(name) = stress {
                let text = isax_gen::stress_kernel(name)
                    .ok_or_else(|| format!("no stress kernel `{name}` (try --list)"))?;
                (name.clone(), text)
            } else if let Some(name) = curated {
                let k = isax_gen::curated_by_name(name)
                    .ok_or_else(|| format!("no curated kernel `{name}` (try --list)"))?;
                (name.clone(), (k.text)())
            } else {
                let cfg = isax_gen::GenConfig {
                    seed: *seed,
                    domain: *domain,
                    blocks: *blocks,
                };
                (cfg.entry_name(), isax_gen::generate(&cfg))
            };
            match out_path {
                Some(path) => {
                    std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
                    w(
                        out,
                        format!("wrote {name} ({} bytes) to {path}", text.len()),
                    )?;
                }
                None => write!(out, "{text}").map_err(|e| e.to_string())?,
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn flags(cmd: &str) -> PipelineFlags {
        parse_args(&argv(cmd)).unwrap().flags().unwrap().clone()
    }

    #[test]
    fn parse_all_commands() {
        assert!(matches!(
            parse_args(&argv("explore k.isax")).unwrap(),
            Command::Explore { .. }
        ));
        let c = parse_args(&argv(
            "customize k.isax --budget 7.5 --name bf --out m.json",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Customize {
                file: "k.isax".into(),
                budget: 7.5,
                name: "bf".into(),
                out: Some("m.json".into()),
                multifunction: false,
                flags: PipelineFlags::default(),
            }
        );
        assert_eq!(
            parse_args(&argv("lint k.isax")).unwrap(),
            Command::Lint {
                file: "k.isax".into()
            }
        );
        assert!(flags("explore k.isax --width-aware").width_aware);
        assert!(flags("customize k.isax --width-aware").width_aware);
        assert_eq!(flags("explore k.isax --beam-width 64").beam_width, Some(64));
        assert_eq!(flags("customize k.isax --beam-width 8").beam_width, Some(8));
        // 0 is the exhaustive walk, as for ISAX_BEAM=0.
        assert_eq!(flags("explore k.isax --beam-width 0").beam_width, Some(0));
        assert!(parse_args(&argv("explore k.isax --beam-width nope")).is_err());
        assert_eq!(
            flags("explore k.isax --work-budget 5000").work_budget,
            Some(5000)
        );
        assert!(parse_args(&argv("explore k.isax --work-budget nope")).is_err());
        for bad in ["nan", "-1", "inf", "1e999", "abc"] {
            let err = parse_args(&argv(&format!("customize k.isax --budget {bad}"))).unwrap_err();
            assert!(err.0.contains("--budget"), "{bad}: {}", err.0);
        }
        for (ok, want) in [("0", 0.0), ("15", 15.0)] {
            let c = parse_args(&argv(&format!("customize k.isax --budget {ok}"))).unwrap();
            assert!(matches!(c, Command::Customize { budget, .. } if budget == want));
        }
        assert_eq!(
            flags("compile k.isax --mdes m.json --work-budget 12").work_budget,
            Some(12)
        );
        assert_eq!(
            flags("explore k.isax --trace-out t.json")
                .trace_out
                .as_deref(),
            Some("t.json")
        );
        assert_eq!(
            flags("compile k.isax --mdes m.json --trace-out t.json")
                .trace_out
                .as_deref(),
            Some("t.json")
        );
        assert_eq!(
            parse_args(&argv("run k.isax --entry f")).unwrap().flags(),
            None
        );
        assert!(flags("explore k.isax --check").check);
        assert!(flags("compile k.isax --mdes m.json --check").check);
        let c = parse_args(&argv("compile k.isax --mdes m.json --subsumed --wildcard")).unwrap();
        assert!(matches!(
            c,
            Command::Compile {
                subsumed: true,
                wildcard: true,
                ..
            }
        ));
        let c = parse_args(&argv("run k.isax --entry f --args 1,0x10,3")).unwrap();
        match c {
            Command::Run { args, .. } => assert_eq!(args, vec![1, 16, 3]),
            _ => panic!(),
        }
        assert!(matches!(
            parse_args(&argv("dot k.isax --block 1")).unwrap(),
            Command::Dot { block: 1, .. }
        ));
        for cmd in [
            "customize k.isax --prov-out p.json",
            "explore k.isax --prov-out p.json",
            "compile k.isax --mdes m.json --prov-out p.json",
        ] {
            assert_eq!(flags(cmd).prov_out.as_deref(), Some("p.json"), "{cmd}");
        }
        let c = parse_args(&argv(
            "explain report.json --cfu 3 --kernel rijndael --top 5",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Explain {
                file: "report.json".into(),
                cfu: Some(3),
                candidate: None,
                kernel: Some("rijndael".into()),
                top: 5,
            }
        );
        let c = parse_args(&argv("explain report.json --candidate 03fa")).unwrap();
        assert!(matches!(
            c,
            Command::Explain {
                cfu: None,
                top: 10,
                ..
            }
        ));
        assert!(parse_args(&argv("explain report.json --cfu nope")).is_err());
        assert!(parse_args(&argv("explain report.json --top nope")).is_err());
    }

    #[test]
    fn flags_override_the_environment_field_by_field() {
        let env = RunConfig {
            check: false,
            beam_width: 8,
            width_aware: false,
            work_budget: Some(100),
            deadline_ms: Some(5),
            fault: None,
            prov: EnvMode::Summary,
        };
        // No flag given: the environment's values stand.
        assert_eq!(PipelineFlags::default().apply(env.clone()), env);
        let given = flags(
            "customize k.isax --check --width-aware --beam-width 0 --work-budget 7 --prov-out p.json",
        );
        let expect = RunConfig {
            check: true,
            beam_width: 0,
            width_aware: true,
            work_budget: Some(7),
            deadline_ms: Some(5),
            fault: None,
            prov: EnvMode::Path("p.json".into()),
        };
        assert_eq!(given.apply(env), expect, "flag > env");
        assert_eq!(
            given.apply(RunConfig::default()),
            RunConfig {
                deadline_ms: None,
                ..expect
            },
            "flag > default"
        );
        // An on/off flag can only switch its knob on.
        let on = RunConfig {
            check: true,
            width_aware: true,
            ..RunConfig::default()
        };
        assert_eq!(flags("explore k.isax").apply(on.clone()), on);
    }

    #[test]
    fn parse_serve() {
        assert_eq!(
            parse_args(&argv("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: None,
                queue_cap: None,
                admission_budget: None,
                access_log: None,
                metrics_out: None,
            }
        );
        assert_eq!(
            parse_args(&argv(
                "serve --addr 127.0.0.1:7777 --workers 4 --queue-cap 16 --admission-budget 100000 \
                 --access-log access.jsonl --metrics-out metrics.prom"
            ))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7777".into(),
                workers: Some(4),
                queue_cap: Some(16),
                admission_budget: Some(100_000),
                access_log: Some("access.jsonl".into()),
                metrics_out: Some("metrics.prom".into()),
            }
        );
        assert!(parse_args(&argv("serve --workers 0")).is_err());
        assert!(parse_args(&argv("serve --workers nope")).is_err());
        assert!(parse_args(&argv("serve --queue-cap 0")).is_err());
        assert!(parse_args(&argv("serve --admission-budget nope")).is_err());
    }

    #[test]
    fn parse_and_execute_gen() {
        // Defaults.
        let c = parse_args(&argv("gen")).unwrap();
        assert_eq!(
            c,
            Command::Gen {
                seed: 0,
                domain: isax_gen::GenDomain::Mixed,
                blocks: 8,
                stress: None,
                curated: None,
                list: false,
                out: None,
            }
        );
        assert!(matches!(
            parse_args(&argv("gen --seed 7 --domain graph --blocks 24")).unwrap(),
            Command::Gen {
                seed: 7,
                domain: isax_gen::GenDomain::Graph,
                blocks: 24,
                ..
            }
        ));
        assert!(parse_args(&argv("gen --domain audio")).is_err());
        assert!(parse_args(&argv("gen --seed nope")).is_err());
        assert!(parse_args(&argv("gen --blocks nope")).is_err());

        // Stdout output is exactly the generator's text, and is stable
        // across invocations (the CLI reproducibility contract).
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv("gen --seed 3 --domain dsp --blocks 5")).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let cfg = isax_gen::GenConfig {
            seed: 3,
            domain: isax_gen::GenDomain::Dsp,
            blocks: 5,
        };
        assert_eq!(text, isax_gen::generate(&cfg));
        assert!(isax_ir::parse_program(&text).is_ok());

        // Named corpora and the listing.
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv("gen --stress deep_chain")).unwrap(),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf)
            .unwrap()
            .starts_with("func deep_chain"));
        let mut buf = Vec::new();
        execute(&parse_args(&argv("gen --curated sad16")).unwrap(), &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().starts_with("func sad16"));
        let mut buf = Vec::new();
        execute(&parse_args(&argv("gen --list")).unwrap(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("mem_alu_ladder"), "{text}");
        assert!(text.contains("crc_brev (dsp)"), "{text}");
        let mut buf = Vec::new();
        assert!(execute(&parse_args(&argv("gen --stress nope")).unwrap(), &mut buf).is_err());
        assert!(execute(&parse_args(&argv("gen --curated nope")).unwrap(), &mut buf).is_err());

        // --out writes the file and confirms on stdout.
        let dir = std::env::temp_dir().join(format!("isax-gen-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.isax").to_string_lossy().into_owned();
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!(
                "gen --seed 3 --domain dsp --blocks 5 --out {path}"
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("wrote gen_dsp_s3_n5"));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            isax_gen::generate(&cfg)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_defaults_and_name_from_filename() {
        let c = parse_args(&argv("customize path/to/blowfish.isax")).unwrap();
        match c {
            Command::Customize { budget, name, .. } => {
                assert_eq!(budget, 15.0);
                assert_eq!(name, "blowfish");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn missing_pieces_are_usage_errors() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&argv("explore")).is_err());
        assert!(parse_args(&argv("compile k.isax")).is_err());
        assert!(parse_args(&argv("run k.isax")).is_err());
        assert!(parse_args(&argv("frobnicate k.isax")).is_err());
        assert!(parse_args(&argv("customize k.isax --budget nope")).is_err());
    }

    #[test]
    fn end_to_end_through_temp_files() {
        let dir = std::env::temp_dir().join(format!("isax-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("kern.isax");
        std::fs::write(
            &src,
            "func kern(v0, v1)\n\
             b0:  ; weight 10000\n\
             \txor v2, v0, v1\n\
             \tshl v3, v2, #5\n\
             \tadd v4, v3, v1\n\
             \tret v4\n",
        )
        .unwrap();
        let src_s = src.to_string_lossy().into_owned();
        let mdes_path = dir.join("m.json").to_string_lossy().into_owned();

        // explore
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!("explore {src_s}"))).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("CFU candidates"), "{text}");

        // customize -> mdes file
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!(
                "customize {src_s} --budget 4 --name kern --out {mdes_path}"
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        assert!(std::path::Path::new(&mdes_path).exists());

        // compile against it
        let emit = dir.join("out.isax").to_string_lossy().into_owned();
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!(
                "compile {src_s} --mdes {mdes_path} --emit {emit}"
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("speedup"), "{text}");
        let emitted = std::fs::read_to_string(&emit).unwrap();
        assert!(
            emitted.contains("cfu"),
            "custom instruction emitted:\n{emitted}"
        );

        // provenance: record a report, then explain it
        let prov_path = dir.join("prov.json").to_string_lossy().into_owned();
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!(
                "customize {src_s} --budget 4 --name kern --out {mdes_path} --prov-out {prov_path} --check"
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("provenance report ("), "{text}");
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!("explain {prov_path}"))).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("per-kernel attribution"), "{text}");
        assert!(text.contains("provenance report for `kern`"), "{text}");
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!("explain {prov_path} --cfu 0"))).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("selected as cfu 0"), "{text}");
        assert!(text.contains("discovered in dfg"), "{text}");

        // a starved work budget degrades loudly but still succeeds
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!("explore {src_s} --work-budget 2"))).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("degraded: explore"), "{text}");
        assert!(text.contains("budget-exhausted"), "{text}");

        // lint: the kernel is clean
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!("lint {src_s}"))).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("clean (1 function(s) linted)"), "{text}");

        // lint: a kernel with a dead definition gets an IC0803 warning
        let dirty = dir.join("dirty.isax");
        std::fs::write(
            &dirty,
            "func dirty(v0, v1)\n\
             b0:  ; weight 10\n\
             \tadd v2, v0, v1\n\
             \tret v0\n",
        )
        .unwrap();
        let dirty_s = dirty.to_string_lossy().into_owned();
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!("lint {dirty_s}"))).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("warning[IC0803]"), "{text}");
        assert!(text.contains("1 finding(s)"), "{text}");

        // width-aware customize still produces a valid MDES
        let wmdes_path = dir.join("mw.json").to_string_lossy().into_owned();
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!(
                "customize {src_s} --budget 4 --name kern --out {wmdes_path} --width-aware --check"
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        assert!(std::path::Path::new(&wmdes_path).exists());

        // run the original
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!("run {src_s} --entry kern --args 3,4"))).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let expect = ((3u32 ^ 4) << 5).wrapping_add(4);
        assert!(text.contains(&format!("[{expect}]")), "{text}");

        // simulate
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!("simulate {src_s} --entry kern --args 3,4"))).unwrap(),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("cycles"));

        // dot
        let mut buf = Vec::new();
        execute(
            &parse_args(&argv(&format!("dot {src_s} --function kern --block 0"))).unwrap(),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("digraph kern_b0"));

        std::fs::remove_dir_all(&dir).ok();
    }
}
