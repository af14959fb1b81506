//! Property-based checks of the serve layer's two foundational claims:
//!
//! * the wire codec is **total and lossless** — `encode → decode` is the
//!   identity for every representable frame, encoded frames never
//!   contain a raw newline (so the framing cannot break, whatever bytes
//!   the kernel text holds), and `decode` never panics on arbitrary
//!   input;
//! * the content-addressed cache **linearizes** — when many threads
//!   race `insert` on one key, every thread observes the same canonical
//!   artifact, the one a subsequent `lookup` returns.

use isax_json::Value;
use isax_serve::{
    decode_request, decode_response, encode_request, encode_response, frame_id, ArtifactCache,
    Artifacts, ErrorCode, Frame, Reply, Request, Response, WireError,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Strings over the full scalar-value space, biased toward the bytes
/// that stress a line protocol: newlines, quotes, backslashes, NULs and
/// astral-plane characters all appear.
fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..32).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c % 8 {
                0 => '\n',
                1 => '"',
                2 => '\\',
                3 => '\u{0}',
                4 => '\r',
                _ => char::from_u32(c % 0x2_FFFF).unwrap_or('\u{FFFD}'),
            })
            .collect()
    })
}

fn any_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| if some { Some(v) } else { None })
}

fn any_opt_string() -> impl Strategy<Value = Option<String>> {
    (any::<bool>(), any_string()).prop_map(|(some, v)| if some { Some(v) } else { None })
}

/// Finite floats only: JSON has no Inf/NaN spelling (the writer emits
/// `null` for them, deliberately lossy), so the identity claim is
/// scoped to finite values.
fn finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let f = f64::from_bits(bits);
        if f.is_finite() {
            f
        } else {
            15.25
        }
    })
}

/// Area budgets the wire accepts: finite and not negative (the
/// out-of-range ones are `wire_fields_decode_by_their_rule`'s).
fn area_budget() -> impl Strategy<Value = f64> {
    finite_f64().prop_map(f64::abs)
}

fn any_request() -> impl Strategy<Value = Request> {
    (
        0usize..5,
        any_string(),
        any_string(),
        any_string(),
        area_budget(),
        (any::<bool>(), any::<bool>(), any_opt_u64()),
    )
        .prop_map(
            |(which, kernel, name, mdes, budget, (flag_a, flag_b, work_budget))| match which {
                0 => Request::Customize {
                    kernel,
                    name,
                    budget,
                    multifunction: flag_a,
                    work_budget,
                },
                1 => Request::Compile {
                    kernel,
                    name,
                    mdes,
                    subsumed: flag_a,
                    wildcard: flag_b,
                    work_budget,
                },
                2 => Request::Stats,
                3 => Request::Metrics,
                _ => Request::Shutdown,
            },
        )
}

fn any_artifacts() -> impl Strategy<Value = Artifacts> {
    (
        any_opt_string(),
        any_opt_string(),
        any_opt_string(),
        any_opt_u64(),
        any_opt_u64(),
        proptest::collection::vec(any_string(), 0..4),
    )
        .prop_map(
            |(mdes, assembly, prov, baseline_cycles, custom_cycles, degraded)| Artifacts {
                mdes,
                assembly,
                prov,
                baseline_cycles,
                custom_cycles,
                degraded,
            },
        )
}

const ALL_CODES: [ErrorCode; 8] = [
    ErrorCode::MalformedFrame,
    ErrorCode::BadRequest,
    ErrorCode::OversizedFrame,
    ErrorCode::TruncatedFrame,
    ErrorCode::Busy,
    ErrorCode::ParseError,
    ErrorCode::BadMdes,
    ErrorCode::ShuttingDown,
];

/// A JSON leaf whose print → parse cycle is the identity: finite
/// floats, and integers in the variant the parser picks (`Int` up to
/// `i64::MAX`, `UInt` strictly above).
fn any_json_leaf() -> impl Strategy<Value = Value> {
    (
        0usize..6,
        any::<i64>(),
        any::<u64>(),
        finite_f64(),
        any_string(),
        any::<bool>(),
    )
        .prop_map(|(which, i, u, f, s, b)| match which {
            0 => Value::Null,
            1 => Value::Bool(b),
            2 => Value::Int(i),
            3 => Value::UInt(i64::MAX as u64 + 1 + (u >> 1)),
            4 => Value::Float(f),
            _ => Value::Str(s),
        })
}

/// Any JSON value a client could put in a request field: every leaf
/// kind, plus arrays and objects of leaves.
fn any_field_value() -> impl Strategy<Value = Value> {
    (
        0usize..4,
        any_json_leaf(),
        proptest::collection::vec(any_json_leaf(), 0..3),
        any_string(),
    )
        .prop_map(|(which, leaf, items, key)| match which {
            0 => Value::Array(items),
            1 => Value::Object(items.into_iter().map(|v| (key.clone(), v)).collect()),
            _ => leaf,
        })
}

/// Two field values are the same wire value: equal, or numbers of equal
/// value (a budget sent as `3` comes back as `3.0`).
fn same_value(a: &Value, b: &Value) -> bool {
    a == b || matches!((a.as_f64(), b.as_f64()), (Some(x), Some(y)) if x == y)
}

/// A stats-shaped document: an object with unique, sorted keys whose
/// values are round-trippable leaves or arrays of leaves.
fn any_stats() -> impl Strategy<Value = Value> {
    let entry = (
        any_string(),
        0usize..3,
        any_json_leaf(),
        proptest::collection::vec(any_json_leaf(), 0..4),
    );
    proptest::collection::vec(entry, 0..5).prop_map(|entries| {
        let map: BTreeMap<String, Value> = entries
            .into_iter()
            .map(|(key, which, leaf, arr)| {
                let v = if which == 0 { Value::Array(arr) } else { leaf };
                (key, v)
            })
            .collect();
        Value::Object(map.into_iter().collect())
    })
}

fn any_reply() -> impl Strategy<Value = Reply> {
    (
        0usize..5,
        any::<bool>(),
        any_artifacts(),
        any_stats(),
        0usize..ALL_CODES.len(),
        any_string(),
    )
        .prop_map(
            |(which, cached, artifacts, stats, code, message)| match which {
                0 => Reply::Artifacts { cached, artifacts },
                1 => Reply::Stats(stats),
                2 => Reply::Shutdown,
                3 => Reply::Metrics(message.clone()),
                _ => Reply::Error(WireError {
                    code: ALL_CODES[code],
                    message,
                }),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(128))]

    /// `encode_request → decode_request` is the identity, and the
    /// encoded line is newline-free however hostile the payload
    /// strings are — the framing invariant the whole protocol rests on.
    #[test]
    fn request_round_trip(id in any::<u64>(), request in any_request()) {
        let frame = Frame { id, request: request.clone() };
        let line = encode_request(&frame);
        prop_assert!(!line.contains('\n'), "raw newline breaks framing: {line:?}");
        prop_assert!(!line.contains('\r'), "raw CR breaks framing: {line:?}");
        let back = decode_request(&line)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back, frame);
        prop_assert_eq!(frame_id(&line), id);
    }

    /// Every request field is decoded by its one typed rule: an
    /// arbitrary JSON value put in any field (or in an unknown one)
    /// either decodes to a request that re-encodes that same value, or
    /// is refused with a `bad-request` that names the field. No value
    /// falls back to a default.
    #[test]
    fn wire_fields_decode_by_their_rule(
        compile in any::<bool>(),
        pick in 0usize..8,
        value in any_field_value(),
    ) {
        let (request, fields) = if compile {
            let request = Request::Compile {
                kernel: "k".into(),
                name: "n".into(),
                mdes: "{}".into(),
                subsumed: false,
                wildcard: false,
                work_budget: None,
            };
            (request, ["id", "kernel", "name", "mdes", "subsumed", "wildcard", "work_budget", "pad"])
        } else {
            let request = Request::Customize {
                kernel: "k".into(),
                name: "n".into(),
                budget: 15.0,
                multifunction: false,
                work_budget: None,
            };
            (request, ["id", "kernel", "name", "budget", "multifunction", "work_budget", "pad", "wildcard"])
        };
        let field = fields[pick];
        let line = encode_request(&Frame { id: 1, request });
        let Ok(Value::Object(mut pairs)) = isax_json::parse(&line) else {
            return Err(TestCaseError::fail("an encoded request is a JSON object"));
        };
        pairs.retain(|(k, _)| k != field);
        pairs.push((field.to_string(), value.clone()));
        match decode_request(&Value::Object(pairs).to_string_compact()) {
            Ok(frame) => {
                let back = isax_json::parse(&encode_request(&frame)).expect("re-encoded JSON");
                let got = back.get(field).cloned().unwrap_or(Value::Null);
                prop_assert!(
                    same_value(&got, &value),
                    "`{}`: sent {:?}, decoded to {:?}", field, value, got
                );
            }
            Err(e) => {
                prop_assert_eq!(e.code, ErrorCode::BadRequest);
                prop_assert!(
                    e.message.contains(&format!("`{field}`")),
                    "`{}` refusal does not name the field: {}", field, e.message
                );
            }
        }
    }

    /// `encode_response → decode_response` is the identity and is
    /// likewise newline-free.
    #[test]
    fn response_round_trip(id in any::<u64>(), reply in any_reply()) {
        let resp = Response { id, reply: reply.clone() };
        let line = encode_response(&resp);
        prop_assert!(!line.contains('\n'), "raw newline breaks framing: {line:?}");
        let back = decode_response(&line)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back, resp);
    }

    /// The decoders are total: arbitrary text — valid JSON or garbage —
    /// always produces `Ok` or a structured `Err` with a documented
    /// code, never a panic.
    #[test]
    fn decode_never_panics_on_arbitrary_text(line in any_string()) {
        let _ = frame_id(&line);
        if let Err(e) = decode_request(&line) {
            prop_assert!(matches!(
                e.code,
                ErrorCode::MalformedFrame | ErrorCode::BadRequest
            ));
        }
        if let Err(e) = decode_response(&line) {
            prop_assert!(matches!(
                e.code,
                ErrorCode::MalformedFrame | ErrorCode::BadRequest
            ));
        }
    }

    /// Same totality over arbitrary *bytes* pushed through lossy UTF-8
    /// (the server reads frames as lossy text, so this is exactly the
    /// input space a hostile client controls).
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = frame_id(&line);
        let _ = decode_request(&line);
        let _ = decode_response(&line);
    }

    /// Every error code's wire spelling parses back to itself.
    #[test]
    fn error_codes_round_trip(which in 0usize..ALL_CODES.len()) {
        let code = ALL_CODES[which];
        prop_assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
    }

    /// Concurrent `insert` races on one key linearize: every racing
    /// thread gets the *same* canonical `Arc` even when their payloads
    /// differ, and `lookup` afterwards returns that same artifact. (In
    /// production, payloads for one key are identical by construction —
    /// the pipeline is deterministic — so first-insert-wins is
    /// indistinguishable from any other tie-break; this test feeds
    /// deliberately different payloads to make a linearization failure
    /// visible.)
    #[test]
    fn cache_insert_linearizes_under_races(
        key in any::<u64>(),
        threads in 2usize..8,
    ) {
        let cache = Arc::new(ArtifactCache::new());
        let winners: Vec<Arc<Artifacts>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let cache = Arc::clone(&cache);
                    scope.spawn(move || {
                        cache.insert(
                            key,
                            Artifacts {
                                mdes: Some(format!("payload from thread {t}")),
                                ..Artifacts::default()
                            },
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let canonical = cache.lookup(key).expect("inserted key must be present");
        for w in &winners {
            prop_assert!(
                Arc::ptr_eq(w, &canonical),
                "a racing insert observed a non-canonical artifact"
            );
        }
        prop_assert_eq!(cache.len(), 1);
        // Distinct keys never alias.
        prop_assert!(cache.lookup(key.wrapping_add(1)).is_none());
    }
}
