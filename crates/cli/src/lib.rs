//! Implementation of the `isax` command-line tool.
//!
//! The binary drives the whole toolflow over textual IR files (the
//! `Display`/[`isax_ir::parse`] assembly format):
//!
//! ```text
//! isax explore  kernel.isax                      # exploration stats + top CFU candidates
//! isax customize kernel.isax --budget 15 --out m.json  # generate a machine description
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

use isax::{Customizer, MatchOptions, Mdes, RunConfig, SharedContext};
use isax_ir::{parse_program, Program};
use isax_machine::Memory;
use isax_prov::{Candidate, EnvMode, ProvEvent, PruneReason, ScoreBreakdown};
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
    /// Reads the pipeline flags; the integer ones by the grammar of
    /// their environment variables.
    fn parse(f: &mut Flags<'_>) -> Result<PipelineFlags, UsageError> {
        Ok(PipelineFlags {
            check: f.switch("--check")?,
            trace_out: f.value("--trace-out")?.map(str::to_string),
            work_budget: f.parsed("--work-budget", isax::config::parse_number)?,
            prov_out: f.value("--prov-out")?.map(str::to_string),
            beam_width: f.parsed("--beam-width", isax::config::parse_number)?,
            width_aware: f.switch("--width-aware")?,
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

Each flag may be given once. A refused value, a flag with no value, an
unknown or repeated flag and a stray argument exit with status 2.

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

/// A command line's arguments, read one flag at a time. Every flag a
/// rule asks for is remembered, so [`Flags::finish`] can refuse what no
/// rule read — the argv counterpart of the serve protocol's field
/// reader.
struct Flags<'a> {
    args: &'a [String],
    /// Leading arguments taken as the input file.
    positional: usize,
    /// The flags read so far, each with whether it takes a value.
    read: Vec<(&'static str, bool)>,
}

impl<'a> Flags<'a> {
    /// The input file: the first argument, when it is not a flag.
    fn file(&mut self, cmd: &str) -> Result<String, UsageError> {
        self.positional = 1;
        self.args
            .first()
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .ok_or_else(|| UsageError(format!("{cmd}: missing input file\n\n{USAGE}")))
    }

    /// Where `flag` is given; refuses it given twice.
    fn find(&mut self, flag: &'static str, takes_value: bool) -> Result<Option<usize>, UsageError> {
        self.read.push((flag, takes_value));
        let mut at = (0..self.args.len()).filter(|&i| self.args[i] == flag);
        match (at.next(), at.next()) {
            (_, Some(_)) => Err(UsageError(format!("repeated flag {flag}"))),
            (i, None) => Ok(i),
        }
    }

    /// An on/off flag: given or not.
    fn switch(&mut self, flag: &'static str) -> Result<bool, UsageError> {
        Ok(self.find(flag, false)?.is_some())
    }

    /// A flag's value: the next argument, which must not be a flag.
    fn value(&mut self, flag: &'static str) -> Result<Option<&'a str>, UsageError> {
        let Some(i) = self.find(flag, true)? else {
            return Ok(None);
        };
        match self.args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(UsageError(format!("{flag} needs a value"))),
        }
    }

    /// A flag's value under `rule`; a refusal names the flag and value.
    fn parsed<T>(
        &mut self,
        flag: &'static str,
        rule: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, UsageError> {
        self.value(flag)?
            .map(|v| rule(v).map_err(|e| UsageError(format!("bad {flag} `{v}` ({e})"))))
            .transpose()
    }

    /// Refuses a flag no rule read and an argument no flag took.
    fn finish(self) -> Result<(), UsageError> {
        let mut i = self.positional;
        while let Some(a) = self.args.get(i) {
            match self.read.iter().find(|(flag, _)| flag == a) {
                Some((_, takes_value)) => i += 1 + usize::from(*takes_value),
                None if a.starts_with("--") => return Err(UsageError(format!("unknown flag {a}"))),
                None => return Err(UsageError(format!("unexpected argument `{a}`"))),
            }
        }
        Ok(())
    }
}

fn positive(v: &str) -> Result<usize, String> {
    v.parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| "want a positive integer".to_string())
}

/// `--args 1,0x10,3`: decimal or `0x` hex words.
fn word_list(list: &str) -> Result<Vec<u32>, String> {
    list.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| {
            let t = t.trim();
            match t.strip_prefix("0x") {
                Some(hex) => u32::from_str_radix(hex, 16),
                None => t.parse::<u32>(),
            }
            .map_err(|_| format!("bad argument `{t}`"))
        })
        .collect()
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns a [`UsageError`] describing the first problem: a missing
/// input file or required flag, a flag value its rule refuses, a value
/// flag with no value, an unknown or repeated flag, or a stray
/// argument.
pub fn parse_args(args: &[String]) -> Result<Command, UsageError> {
    use isax::config::parse_number as number;
    let Some(cmd) = args.first() else {
        return Err(UsageError(USAGE.into()));
    };
    let mut f = Flags {
        args: &args[1..],
        positional: 0,
        read: Vec::new(),
    };
    let command = match cmd.as_str() {
        // `gen` synthesizes its kernel and `serve` runs a server: the
        // two commands with no input file.
        "gen" => Command::Gen {
            seed: f.parsed("--seed", number)?.unwrap_or(0),
            domain: f
                .parsed("--domain", |v| {
                    isax_gen::GenDomain::parse(v).ok_or_else(|| "want graph, dsp or mixed".into())
                })?
                .unwrap_or(isax_gen::GenDomain::Mixed),
            blocks: f.parsed("--blocks", number)?.unwrap_or(8),
            stress: f.value("--stress")?.map(str::to_string),
            curated: f.value("--curated")?.map(str::to_string),
            list: f.switch("--list")?,
            out: f.value("--out")?.map(str::to_string),
        },
        "serve" => Command::Serve {
            addr: f.value("--addr")?.unwrap_or("127.0.0.1:0").to_string(),
            workers: f.parsed("--workers", positive)?,
            queue_cap: f.parsed("--queue-cap", positive)?,
            admission_budget: f.parsed("--admission-budget", number)?,
            access_log: f.value("--access-log")?.map(str::to_string),
            metrics_out: f.value("--metrics-out")?.map(str::to_string),
        },
        "explore" => Command::Explore {
            file: f.file(cmd)?,
            flags: PipelineFlags::parse(&mut f)?,
        },
        "lint" => Command::Lint { file: f.file(cmd)? },
        "customize" => {
            let file = f.file(cmd)?;
            Command::Customize {
                budget: f
                    .parsed("--budget", isax::config::parse_area_budget)?
                    .unwrap_or(15.0),
                name: f
                    .value("--name")?
                    .map_or_else(|| app_name(&file), str::to_string),
                out: f.value("--out")?.map(str::to_string),
                multifunction: f.switch("--multifunction")?,
                flags: PipelineFlags::parse(&mut f)?,
                file,
            }
        }
        "compile" => Command::Compile {
            file: f.file(cmd)?,
            mdes: f
                .value("--mdes")?
                .ok_or_else(|| UsageError("compile: --mdes is required".into()))?
                .to_string(),
            subsumed: f.switch("--subsumed")?,
            wildcard: f.switch("--wildcard")?,
            emit: f.value("--emit")?.map(str::to_string),
            flags: PipelineFlags::parse(&mut f)?,
        },
        "explain" => Command::Explain {
            file: f.file(cmd)?,
            cfu: f.parsed("--cfu", |v| {
                v.parse()
                    .map_err(|_| "want a CFU id, 0 to 65535".to_string())
            })?,
            candidate: f.value("--candidate")?.map(str::to_string),
            kernel: f.value("--kernel")?.map(str::to_string),
            top: f.parsed("--top", number)?.unwrap_or(10),
        },
        "run" | "simulate" => {
            let file = f.file(cmd)?;
            let entry = f
                .value("--entry")?
                .ok_or_else(|| UsageError(format!("{cmd}: --entry is required")))?
                .to_string();
            let args = f.parsed("--args", word_list)?.unwrap_or_default();
            let fuel = f.parsed("--fuel", number)?.unwrap_or(10_000_000);
            if cmd == "simulate" {
                Command::Simulate {
                    file,
                    entry,
                    args,
                    fuel,
                }
            } else {
                Command::Run {
                    file,
                    entry,
                    args,
                    fuel,
                }
            }
        }
        "dot" => Command::Dot {
            file: f.file(cmd)?,
            function: f.value("--function")?.map(str::to_string),
            block: f.parsed("--block", number)?.unwrap_or(0),
        },
        other => return Err(UsageError(format!("unknown command `{other}`\n\n{USAGE}"))),
    };
    f.finish()?;
    Ok(command)
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

/// Delivers a merged log's provenance to `sink`: a one-line summary on
/// the command output, or the [`Customizer::provenance_report`] file.
/// With `cz.check` set the report is built and cross-checked (IC07xx)
/// for the summary too.
fn emit_prov(
    out: &mut dyn std::io::Write,
    sink: &EnvMode,
    cz: &Customizer,
    app: &str,
    log: &isax::ProvLog,
    mdes: Option<&Mdes>,
    compiled: Option<&isax_compiler::CompiledProgram>,
) -> Result<(), String> {
    let summary = isax_prov::summarize(log).one_line();
    match sink {
        EnvMode::Off => Ok(()),
        EnvMode::Summary => {
            if cz.check {
                cz.provenance_report(app, log, mdes, compiled);
            }
            writeln!(out, "provenance: {summary}").map_err(|e| e.to_string())
        }
        EnvMode::Path(path) => {
            let text = cz.provenance_report(app, log, mdes, compiled);
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

/// `score 31.2 = criticality 10.0 + latency 8.1 + area 3.1 + io 10.0`.
fn score_line(s: &ScoreBreakdown) -> String {
    format!(
        "score {:.1} = criticality {:.1} + latency {:.1} + area {:.1} + io {:.1}",
        s.total(),
        s.criticality,
        s.latency,
        s.area,
        s.io
    )
}

/// One narrative line (occasionally two) per provenance event.
fn render_event(e: &ProvEvent) -> String {
    match e {
        ProvEvent::Discovered {
            dfg,
            size,
            delay,
            area,
            inputs,
            outputs,
            score,
        } => {
            let mut line = format!(
                "[explore] discovered in dfg {dfg}: {size} op(s), {inputs} in / {outputs} out, {area:.2} adders, delay {delay:.2} cycle(s)"
            );
            match score {
                Some(s) => line.push_str(&format!("\n              via growth {}", score_line(s))),
                None => line.push_str(" (seed operation, admitted unscored)"),
            }
            line
        }
        ProvEvent::Pruned {
            dfg,
            threshold,
            score,
            reason,
        } => {
            let why = match reason {
                PruneReason::BelowThreshold => "guide score below threshold",
                PruneReason::FanoutCap => "scored above threshold but lost the fanout cut",
                PruneReason::BeamDropped => {
                    "scored above threshold but fell outside the beam width"
                }
            };
            format!(
                "[explore] pruned in dfg {dfg} — {why}: {} vs threshold {threshold:.1}; weakest axis: {}",
                score_line(score),
                score.weakest_axis()
            )
        }
        ProvEvent::SubsumedBy { cfu } => format!(
            "[select]  pattern subsumed by cfu {cfu} — matchable inside the larger unit"
        ),
        ProvEvent::Wildcarded { partner } => format!(
            "[select]  wildcard partner of cfu {partner} — same shape, one opcode apart"
        ),
        ProvEvent::SelectedAsCfu {
            cfu,
            area,
            delay,
            estimated_value,
        } => format!(
            "[select]  selected as cfu {cfu}: charged {area:.2} adders, delay {delay:.2} cycle(s), estimated value {estimated_value} cycles"
        ),
        ProvEvent::Matched {
            function,
            block,
            count,
        } => format!("[compile] {count} legal match(es) in {function} block {block}"),
        ProvEvent::Replaced {
            function,
            block,
            cycles_before,
            cycles_after,
        } => format!(
            "[compile] replaced in {function} block {block}: {cycles_before} -> {cycles_after} weighted cycles (saved {})",
            cycles_before.saturating_sub(*cycles_after)
        ),
    }
}

/// `candidate <fp> — fate: selected, cfu 3, 4 match(es), 8200 cycles saved`.
fn candidate_header(c: &Candidate<'_>) -> String {
    let mut h = format!(
        "candidate {} — fate: {}",
        isax_prov::fingerprint_hex(c.fingerprint),
        c.fate.as_str()
    );
    if let Some(id) = c.cfu {
        h.push_str(&format!(", cfu {id}"));
    }
    if c.matches > 0 {
        h.push_str(&format!(", {} match(es)", c.matches));
    }
    if c.cycles_saved > 0 {
        h.push_str(&format!(", {} cycles saved", c.cycles_saved));
    }
    h
}

/// Full narrative for one candidate: header plus one line per event.
fn render_candidate(out: &mut dyn std::io::Write, c: &Candidate<'_>) -> Result<(), String> {
    writeln!(out, "{}", candidate_header(c)).map_err(|e| e.to_string())?;
    for e in &c.events {
        writeln!(out, "  {}", render_event(e)).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The function a compile-stage event happened in.
fn event_function(e: &ProvEvent) -> Option<&str> {
    match e {
        ProvEvent::Matched { function, .. } | ProvEvent::Replaced { function, .. } => {
            Some(function)
        }
        _ => None,
    }
}

/// Per-function totals over `matched`/`replaced` events:
/// `(function, matches, replacements, cycles_saved)` rows.
fn attribution<'c>(
    cands: impl IntoIterator<Item = &'c Candidate<'c>>,
    kernel: Option<&str>,
) -> Vec<(String, u64, u64, u64)> {
    let mut rows: std::collections::BTreeMap<String, (u64, u64, u64)> = Default::default();
    for e in cands.into_iter().flat_map(|c| &c.events) {
        let Some(f) = event_function(e).filter(|f| kernel.is_none_or(|k| k == *f)) else {
            continue;
        };
        let row = rows.entry(f.to_string()).or_default();
        match e {
            ProvEvent::Matched { count, .. } => row.0 = row.0.saturating_add(*count),
            ProvEvent::Replaced {
                cycles_before,
                cycles_after,
                ..
            } => {
                row.1 += 1;
                row.2 = row
                    .2
                    .saturating_add(cycles_before.saturating_sub(*cycles_after));
            }
            _ => {}
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
    let (app, log) = isax_prov::parse_report(&doc).map_err(|e| format!("{file}: {e}"))?;
    let cands = isax_prov::candidates(&log);

    // One candidate, narrated end to end.
    if let Some(id) = cfu {
        let c = cands
            .iter()
            .find(|c| c.cfu == Some(id))
            .ok_or_else(|| format!("no candidate became cfu {id} in this report"))?;
        render_candidate(out, c)?;
        let rows = attribution([c], None);
        if !rows.is_empty() {
            w(out, "per-kernel attribution:".into())?;
            write_attribution(out, &rows)?;
        }
        return Ok(());
    }
    if let Some(q) = candidate {
        let q = q.to_ascii_lowercase();
        let hits: Vec<&Candidate<'_>> = cands
            .iter()
            .filter(|c| isax_prov::fingerprint_hex(c.fingerprint).starts_with(&q))
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
    let mut ranked: Vec<&Candidate<'_>> = cands
        .iter()
        .filter(|c| kernel.is_none_or(|k| c.events.iter().any(|e| event_function(e) == Some(k))))
        .collect();
    w(
        out,
        format!(
            "provenance report for `{app}`: {}",
            isax_prov::summarize(&log).one_line()
        ),
    )?;
    if let Some(k) = kernel {
        w(
            out,
            format!("{} candidate(s) touch kernel `{k}`", ranked.len()),
        )?;
    }
    ranked.sort_by_key(|c| std::cmp::Reverse((c.cycles_saved, c.matches, c.cfu.is_some())));
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
        let cfu_cell = c.cfu.map_or_else(|| "-".into(), |id| id.to_string());
        w(
            out,
            format!(
                "  {:>4}  {:<16}  {:<12}  {:>7}  {:>12}",
                cfu_cell,
                isax_prov::fingerprint_hex(c.fingerprint),
                c.fate.as_str(),
                c.matches,
                c.cycles_saved
            ),
        )?;
    }
    let rows = attribution(&cands, kernel);
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
                &cz,
                &app_name(file),
                &analysis.report.prov,
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
            let (mdes, sel) = cz.customize_analysis(name, cz.analyze(&p), *budget, *multifunction);
            report_degradations(out, &sel.report.degradations)?;
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
            emit_prov(out, &sink, &cz, name, &sel.report.prov, Some(&mdes), None)?;
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
            let ev = cz.evaluate(&p, &mdes, MatchOptions::from_flags(*subsumed, *wildcard));
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
                std::fs::write(path, ev.compiled.program.functions_text())
                    .map_err(|e| format!("{path}: {e}"))?;
                w(out, format!("customized assembly written to {path}"))?;
            }
            emit_prov(
                out,
                &sink,
                &cz,
                &app_name(file),
                &ev.compiled.report.prov,
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
            // Each flag given overrides the default (and its variable).
            let default = isax_serve::ServeConfig::default();
            let cfg = isax_serve::ServeConfig {
                addr: addr.clone(),
                workers: workers.unwrap_or(default.workers),
                queue_cap: queue_cap.unwrap_or(default.queue_cap),
                max_work_units: admission_budget.or(default.max_work_units),
                access_log: access_log
                    .as_deref()
                    .map_or(default.access_log.clone(), isax_serve::parse_env_value),
                metrics_out: metrics_out.clone().or(default.metrics_out.clone()),
                ..default
            };
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
