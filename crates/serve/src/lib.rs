//! `isax serve`: instruction-set customization as a long-running
//! service.
//!
//! The one-shot CLI rebuilds the hardware library, machine model and
//! exploration config for every invocation and throws every artifact
//! away afterwards. This crate keeps both: a threaded job server wraps
//! the [`isax::Customizer`] pipeline around one immutable
//! [`isax::SharedContext`] and a **content-addressed artifact cache**,
//! so repeated kernels are served from cache byte-identically and
//! concurrent requests share all read-only state.
//!
//! The moving parts, each in its own module:
//!
//! - [`protocol`] — newline-delimited JSON frames (`customize` /
//!   `compile` / `stats` / `shutdown`), a total, panic-free codec over
//!   `isax-json`;
//! - [`cache`] — canonical kernel fingerprint + config hash keys over a
//!   first-insert-wins concurrent map;
//! - [`server`] — the bounded work queue, worker pool, isax-guard
//!   admission control and stats endpoint;
//! - [`telemetry`] — deterministic request ids, the structured access
//!   log, latency histograms and the metrics registry behind the
//!   Prometheus-text `metrics` exposition;
//! - [`client`] — a small blocking client for tests and `bench serve`.
//!
//! The correctness claim is external: `tests/serve.rs` (repo root)
//! proves every artifact a concurrent server returns is byte-identical
//! to what the serial CLI writes for the same request.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use cache::{fnv64, kernel_fingerprint, ArtifactCache, CacheKey, ConfigHasher};
pub use client::Client;
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, frame_id, Artifacts,
    ErrorCode, Frame, Reply, Request, Response, WireError, MAX_FRAME_BYTES,
};
pub use server::{stats_mode, ServeConfig, Server};
pub use telemetry::{access_mode, request_id, AccessLog, AccessRecord, HistSet, ServeMetrics};

/// The shared observability env-var grammar (`ISAX_SERVE_STATS` here,
/// `ISAX_TRACE`/`ISAX_PROV` elsewhere), re-exported from its canonical
/// home in `isax-trace`.
pub use isax_trace::{parse_env_value, EnvMode};
