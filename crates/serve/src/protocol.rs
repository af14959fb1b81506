//! The wire protocol: newline-delimited JSON frames over a byte stream.
//!
//! Every frame is one line — a compact (single-line) JSON object
//! terminated by `\n`. Kernel text and artifacts travel as JSON strings,
//! so embedded newlines are escaped and the framing never breaks. The
//! codec is total: [`decode_request`] and [`decode_response`] return a
//! structured [`WireError`] for any byte sequence, never panic (the
//! underlying `isax_json` parser is depth-capped and fuzz-clean), and
//! encode ∘ decode is the identity (see the crate's proptests).
//!
//! Request grammar (fields beyond `req` and `id` per request kind):
//!
//! ```text
//! {"req":"customize","id":N,"kernel":S,"name":S,
//!  "budget":F?,"multifunction":B?,"work_budget":N?}
//! {"req":"compile","id":N,"kernel":S,"name":S,"mdes":S,
//!  "subsumed":B?,"wildcard":B?,"work_budget":N?}
//! {"req":"stats","id":N}
//! {"req":"metrics","id":N}
//! {"req":"shutdown","id":N}
//! ```
//!
//! Each field is decoded by one typed rule, the CLI's where the CLI has
//! one: `N` (`id`, `work_budget`) is a non-negative integer, `B` a JSON
//! boolean, `S` a string, and `budget` a finite number of adders, 0 or
//! more ([`isax::config::check_area_budget`], the `--budget` rule). An
//! absent optional field takes its default (`id` 0, `budget` 15, flags
//! false, no work budget); a present field of the wrong type or out of
//! range, an unknown field and a repeated field are each a
//! [`ErrorCode::BadRequest`] that names the field. Responses are decoded
//! by the same rules: every field below is required, an ok response
//! carries exactly one payload, and within `artifacts` only `degraded`
//! is required.
//!
//! Response grammar:
//!
//! ```text
//! {"id":N,"ok":true,"cached":B,"artifacts":{...}}
//! {"id":N,"ok":true,"stats":{...}}
//! {"id":N,"ok":true,"metrics":S}
//! {"id":N,"ok":true,"shutdown":true}
//! {"id":N,"ok":false,"error":{"code":S,"message":S}}
//! ```

use isax_json::{object, Value};

/// Default cap on one frame's encoded size. Large enough for any kernel
/// in the corpora (the biggest generated kernel is well under 1 MiB),
/// small enough that a runaway client cannot balloon server memory.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// One request, without its frame id.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Analyze + select: produce an MDES and a provenance report.
    Customize {
        /// Kernel source in the textual IR format.
        kernel: String,
        /// Application name stamped into the MDES and the prov report.
        name: String,
        /// Area budget in adders.
        budget: f64,
        /// Use multifunction-family selection.
        multifunction: bool,
        /// Requested work-unit budget (the server may clamp it down).
        work_budget: Option<u64>,
    },
    /// Compile a kernel against an MDES: produce customized assembly,
    /// cycle counts and a provenance report.
    Compile {
        /// Kernel source in the textual IR format.
        kernel: String,
        /// Application name stamped into the prov report.
        name: String,
        /// The MDES document (JSON text, as emitted by `customize`).
        mdes: String,
        /// Enable subsumed-subgraph matching.
        subsumed: bool,
        /// Enable opcode-class wildcard matching.
        wildcard: bool,
        /// Requested work-unit budget (the server may clamp it down).
        work_budget: Option<u64>,
    },
    /// Live server statistics.
    Stats,
    /// A metrics snapshot in Prometheus text exposition format.
    Metrics,
    /// Graceful shutdown: the server acknowledges, drains the queue and
    /// stops accepting.
    Shutdown,
}

impl Request {
    /// The request kind's wire spelling (its `req` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Customize { .. } => "customize",
            Request::Compile { .. } => "compile",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A request together with its frame id (echoed in the response).
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Client-chosen correlation id; `0` when absent or unparseable.
    pub id: u64,
    /// The request payload.
    pub request: Request,
}

/// Machine-readable failure category carried in error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not valid JSON.
    MalformedFrame,
    /// Valid JSON, but not a request the grammar recognizes.
    BadRequest,
    /// The frame exceeded the server's size cap.
    OversizedFrame,
    /// The connection ended mid-frame (bytes with no terminating `\n`).
    TruncatedFrame,
    /// The bounded work queue is full; retry later.
    Busy,
    /// The kernel text did not parse as IR.
    ParseError,
    /// The `mdes` field did not parse as a machine description.
    BadMdes,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
}

impl ErrorCode {
    /// Every error code, in a fixed order (used for per-code counters
    /// and deterministic exposition line order).
    pub const ALL: [ErrorCode; 8] = [
        ErrorCode::MalformedFrame,
        ErrorCode::BadRequest,
        ErrorCode::OversizedFrame,
        ErrorCode::TruncatedFrame,
        ErrorCode::Busy,
        ErrorCode::ParseError,
        ErrorCode::BadMdes,
        ErrorCode::ShuttingDown,
    ];

    /// The code's position in [`ErrorCode::ALL`].
    pub fn index(self) -> usize {
        ErrorCode::ALL
            .iter()
            .position(|c| *c == self)
            .expect("every code is in ALL")
    }

    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed-frame",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::TruncatedFrame => "truncated-frame",
            ErrorCode::Busy => "busy",
            ErrorCode::ParseError => "parse-error",
            ErrorCode::BadMdes => "bad-mdes",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "malformed-frame" => ErrorCode::MalformedFrame,
            "bad-request" => ErrorCode::BadRequest,
            "oversized-frame" => ErrorCode::OversizedFrame,
            "truncated-frame" => ErrorCode::TruncatedFrame,
            "busy" => ErrorCode::Busy,
            "parse-error" => ErrorCode::ParseError,
            "bad-mdes" => ErrorCode::BadMdes,
            "shutting-down" => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

/// A structured protocol-level error (also the decode-failure type).
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Failure category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Shorthand constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for WireError {}

/// The artifacts a work request produces. `customize` fills `mdes`;
/// `compile` fills `assembly` and the cycle counts; both fill `prov`
/// and `degraded`. Every string is byte-identical to what the CLI
/// writes for the same inputs (that is the serve-vs-CLI differential
/// suite's whole claim).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Artifacts {
    /// The MDES document (`Mdes::to_json`).
    pub mdes: Option<String>,
    /// Customized assembly (`Program::functions_text`, the `--emit`
    /// format).
    pub assembly: Option<String>,
    /// The provenance report (`Customizer::provenance_report`, the
    /// `--prov-out` format).
    pub prov: Option<String>,
    /// Baseline cycle estimate (compile only).
    pub baseline_cycles: Option<u64>,
    /// Customized cycle estimate (compile only).
    pub custom_cycles: Option<u64>,
    /// One rendered `Degradation` per governance event, in stage order —
    /// the same lines the CLI prints prefixed with `degraded: `.
    pub degraded: Vec<String>,
}

/// Response payload variants.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A completed work request.
    Artifacts {
        /// Served from the content-addressed cache?
        cached: bool,
        /// The artifacts.
        artifacts: Artifacts,
    },
    /// A statistics snapshot.
    Stats(Value),
    /// A metrics snapshot: Prometheus text exposition.
    Metrics(String),
    /// Shutdown acknowledged.
    Shutdown,
    /// The request failed.
    Error(WireError),
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id, echoed back (`0` when it was unreadable).
    pub id: u64,
    /// The payload.
    pub reply: Reply,
}

fn bad_request(message: String) -> WireError {
    WireError::new(ErrorCode::BadRequest, message)
}

/// A frame object's fields under [`isax_json::Fields`], each refusal a
/// `BadRequest` naming the field.
struct Fields<'a>(isax_json::Fields<'a>);

impl<'a> Fields<'a> {
    fn of(v: &'a Value) -> Result<Fields<'a>, WireError> {
        isax_json::Fields::of(v).map(Fields).map_err(bad_request)
    }

    fn opt<T>(
        &mut self,
        key: &'static str,
        want: &str,
        rule: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<Option<T>, WireError> {
        self.0.opt(key, want, rule).map_err(bad_request)
    }

    fn req<T>(
        &mut self,
        key: &'static str,
        want: &str,
        rule: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, WireError> {
        self.0.req(key, want, rule).map_err(bad_request)
    }

    fn string(&mut self, key: &'static str) -> Result<String, WireError> {
        self.req(key, "a string", Value::as_str).map(str::to_string)
    }

    fn opt_string(&mut self, key: &'static str) -> Result<Option<String>, WireError> {
        Ok(self
            .opt(key, "a string", Value::as_str)?
            .map(str::to_string))
    }

    fn flag(&mut self, key: &'static str) -> Result<bool, WireError> {
        Ok(self
            .opt(key, "true or false", Value::as_bool)?
            .unwrap_or(false))
    }

    fn units(&mut self, key: &'static str) -> Result<Option<u64>, WireError> {
        self.opt(key, "a non-negative integer", Value::as_u64)
    }

    fn finish(self) -> Result<(), WireError> {
        self.0.finish().map_err(bad_request)
    }
}

/// Encodes a request frame as one line (no trailing newline).
pub fn encode_request(frame: &Frame) -> String {
    let mut fields = vec![
        ("req", Value::from(frame.request.kind())),
        ("id", Value::from(frame.id)),
    ];
    match &frame.request {
        Request::Customize {
            kernel,
            name,
            budget,
            multifunction,
            work_budget,
        } => {
            fields.push(("kernel", Value::from(kernel.clone())));
            fields.push(("name", Value::from(name.clone())));
            fields.push(("budget", Value::Float(*budget)));
            fields.push(("multifunction", Value::Bool(*multifunction)));
            if let Some(u) = work_budget {
                fields.push(("work_budget", Value::from(*u)));
            }
        }
        Request::Compile {
            kernel,
            name,
            mdes,
            subsumed,
            wildcard,
            work_budget,
        } => {
            fields.push(("kernel", Value::from(kernel.clone())));
            fields.push(("name", Value::from(name.clone())));
            fields.push(("mdes", Value::from(mdes.clone())));
            fields.push(("subsumed", Value::Bool(*subsumed)));
            fields.push(("wildcard", Value::Bool(*wildcard)));
            if let Some(u) = work_budget {
                fields.push(("work_budget", Value::from(*u)));
            }
        }
        Request::Stats | Request::Metrics | Request::Shutdown => {}
    }
    object(fields).to_string_compact()
}

/// The id of a frame whose body may be unusable: best-effort, `0` when
/// the line is not JSON or has no numeric `id`.
pub fn frame_id(line: &str) -> u64 {
    isax_json::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_u64))
        .unwrap_or(0)
}

/// Decodes a request line.
///
/// # Errors
///
/// [`ErrorCode::MalformedFrame`] for non-JSON, [`ErrorCode::BadRequest`]
/// for JSON that is not a request under the module's field rules.
/// Never panics, whatever the bytes.
pub fn decode_request(line: &str) -> Result<Frame, WireError> {
    let v = isax_json::parse(line)
        .map_err(|e| WireError::new(ErrorCode::MalformedFrame, e.to_string()))?;
    let mut f = Fields::of(&v)?;
    let req = f.string("req")?;
    let id = f.units("id")?.unwrap_or(0);
    let request = match req.as_str() {
        "customize" => Request::Customize {
            kernel: f.string("kernel")?,
            name: f.string("name")?,
            budget: match f.opt("budget", "a number", Value::as_f64)? {
                Some(b) => isax::config::check_area_budget(b)
                    .map_err(|e| bad_request(format!("bad `budget` field ({e})")))?,
                None => 15.0,
            },
            multifunction: f.flag("multifunction")?,
            work_budget: f.units("work_budget")?,
        },
        "compile" => Request::Compile {
            kernel: f.string("kernel")?,
            name: f.string("name")?,
            mdes: f.string("mdes")?,
            subsumed: f.flag("subsumed")?,
            wildcard: f.flag("wildcard")?,
            work_budget: f.units("work_budget")?,
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        other => return Err(bad_request(format!("unknown request `{other}`"))),
    };
    f.finish()?;
    Ok(Frame { id, request })
}

fn artifacts_to_value(a: &Artifacts) -> Value {
    let mut fields: Vec<(&'static str, Value)> = Vec::new();
    if let Some(s) = &a.mdes {
        fields.push(("mdes", Value::from(s.clone())));
    }
    if let Some(s) = &a.assembly {
        fields.push(("assembly", Value::from(s.clone())));
    }
    if let Some(s) = &a.prov {
        fields.push(("prov", Value::from(s.clone())));
    }
    if let Some(n) = a.baseline_cycles {
        fields.push(("baseline_cycles", Value::from(n)));
    }
    if let Some(n) = a.custom_cycles {
        fields.push(("custom_cycles", Value::from(n)));
    }
    fields.push((
        "degraded",
        Value::Array(a.degraded.iter().cloned().map(Value::from).collect()),
    ));
    object(fields)
}

fn bad_request_in(at: &str) -> impl Fn(WireError) -> WireError + '_ {
    move |e| bad_request(format!("{at}: {}", e.message))
}

fn artifacts_from_value(v: &Value) -> Result<Artifacts, WireError> {
    let mut f = Fields::of(v)?;
    let artifacts = Artifacts {
        mdes: f.opt_string("mdes")?,
        assembly: f.opt_string("assembly")?,
        prov: f.opt_string("prov")?,
        baseline_cycles: f.units("baseline_cycles")?,
        custom_cycles: f.units("custom_cycles")?,
        degraded: f.req("degraded", "an array of strings", |d| {
            d.as_array()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        })?,
    };
    f.finish()?;
    Ok(artifacts)
}

fn error_from_value(v: &Value) -> Result<WireError, WireError> {
    let mut f = Fields::of(v)?;
    let code = f.req("code", "a wire error code", |c| {
        c.as_str().and_then(ErrorCode::parse)
    })?;
    let message = f.string("message")?;
    f.finish()?;
    Ok(WireError::new(code, message))
}

/// Encodes a response frame as one line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    let v = match &resp.reply {
        Reply::Artifacts { cached, artifacts } => object([
            ("id", Value::from(resp.id)),
            ("ok", Value::Bool(true)),
            ("cached", Value::Bool(*cached)),
            ("artifacts", artifacts_to_value(artifacts)),
        ]),
        Reply::Stats(stats) => object([
            ("id", Value::from(resp.id)),
            ("ok", Value::Bool(true)),
            ("stats", stats.clone()),
        ]),
        Reply::Metrics(text) => object([
            ("id", Value::from(resp.id)),
            ("ok", Value::Bool(true)),
            ("metrics", Value::from(text.clone())),
        ]),
        Reply::Shutdown => object([
            ("id", Value::from(resp.id)),
            ("ok", Value::Bool(true)),
            ("shutdown", Value::Bool(true)),
        ]),
        Reply::Error(e) => object([
            ("id", Value::from(resp.id)),
            ("ok", Value::Bool(false)),
            (
                "error",
                object([
                    ("code", Value::from(e.code.as_str())),
                    ("message", Value::from(e.message.clone())),
                ]),
            ),
        ]),
    };
    v.to_string_compact()
}

/// Decodes a response line.
///
/// Each field is decoded by one typed rule, as in [`decode_request`]:
/// `id` is a non-negative integer, `ok` and `cached` are booleans, an
/// ok response carries exactly one payload, and a missing, mistyped,
/// unknown or repeated field is refused naming it.
///
/// # Errors
///
/// [`ErrorCode::MalformedFrame`] / [`ErrorCode::BadRequest`] exactly as
/// [`decode_request`]; never panics.
pub fn decode_response(line: &str) -> Result<Response, WireError> {
    let v = isax_json::parse(line)
        .map_err(|e| WireError::new(ErrorCode::MalformedFrame, e.to_string()))?;
    let mut f = Fields::of(&v)?;
    let id = f.req("id", "a non-negative integer", Value::as_u64)?;
    let reply = if f.req("ok", "true or false", Value::as_bool)? {
        let artifacts = f.opt("artifacts", "an object", Some)?;
        let stats = f.opt("stats", "a JSON value", Some)?;
        let metrics = f.opt("metrics", "a string", Value::as_str)?;
        let shutdown = f.opt("shutdown", "true", |v| {
            (v.as_bool() == Some(true)).then_some(())
        })?;
        match (artifacts, stats, metrics, shutdown) {
            (Some(a), None, None, None) => Reply::Artifacts {
                cached: f.req("cached", "true or false", Value::as_bool)?,
                artifacts: artifacts_from_value(a).map_err(bad_request_in("artifacts"))?,
            },
            (None, Some(s), None, None) => Reply::Stats(s.clone()),
            (None, None, Some(m), None) => Reply::Metrics(m.to_string()),
            (None, None, None, Some(())) => Reply::Shutdown,
            _ => {
                return Err(bad_request(
                    "an ok response carries exactly one of `artifacts`, `stats`, `metrics` \
                     and `shutdown`"
                        .into(),
                ))
            }
        }
    } else {
        let error = f.req("error", "an object", Some)?;
        Reply::Error(error_from_value(error).map_err(bad_request_in("error"))?)
    };
    f.finish()?;
    Ok(Response { id, reply })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refusal(line: &str) -> String {
        match decode_response(line) {
            Err(e) if e.code == ErrorCode::BadRequest => e.message,
            other => panic!("{line}: expected bad-request, got {other:?}"),
        }
    }

    /// A mistyped or unknown response field is refused naming it, never
    /// read as a default.
    #[test]
    fn responses_decode_by_one_rule_per_field() {
        let msg = refusal(
            r#"{"id":1,"ok":true,"cached":"yes","artifacts":{"mdes":5,"baseline_cycles":"x","bogus":1}}"#,
        );
        assert!(msg.contains("`cached`"), "{msg}");
        let msg =
            refusal(r#"{"id":1,"ok":true,"cached":true,"artifacts":{"mdes":5,"degraded":[]}}"#);
        assert!(msg.contains("artifacts: bad `mdes`"), "{msg}");
        let msg =
            refusal(r#"{"id":1,"ok":true,"cached":true,"artifacts":{"degraded":[],"bogus":1}}"#);
        assert!(msg.contains("artifacts: unknown field `bogus`"), "{msg}");
        let msg = refusal(r#"{"id":"seven","ok":false,"error":{"code":"busy"}}"#);
        assert!(msg.contains("`id`"), "{msg}");
        let msg = refusal(r#"{"id":7,"ok":false,"error":{"code":"busy"}}"#);
        assert!(msg.contains("error: missing `message`"), "{msg}");
        let msg = refusal(r#"{"id":7,"ok":true,"metrics":"m","shutdown":true}"#);
        assert!(msg.contains("exactly one"), "{msg}");
    }
}
