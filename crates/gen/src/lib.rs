//! isax-gen: seeded, deterministic kernel generation and the curated
//! domain corpora.
//!
//! This crate widens the workload surface the pipeline is tested
//! against, along three axes:
//!
//! * [`stress`] — the pathological explorer-stress corpus, ported
//!   byte-identically from the retired `kernels/stress/generate.py`;
//! * [`curated`](mod@curated) — hand-designed graph-traversal and video/DSP kernels
//!   with independent Rust reference oracles;
//! * [`generate`](mod@generate) — a seeded random program generator, parameterized by
//!   [`profile::GenDomain`], that emits verifier-clean, lint-clean,
//!   terminating multi-block `.isax` programs from a few to thousands
//!   of blocks.
//!
//! Everything is deterministic: the only entropy source is
//! [`rng::Rng`], a SplitMix64 stream derived purely from the caller's
//! seed, so `isax gen --seed N` reproduces a kernel bit-for-bit on any
//! host and at any thread count. The headline consumer is the
//! differential-oracle harness in `tests/gen_sweep.rs`, which runs the
//! interpreter on each generated program before and after
//! customization/compilation and demands identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curated;
pub mod emit;
pub mod generate;
pub mod profile;
pub mod rng;
pub mod stress;

pub use curated::{curated, curated_by_name, Curated};
pub use emit::FnEmit;
pub use generate::{generate, seeded_args, seeded_memory, GenConfig, NPARAMS};
pub use profile::{profile, GenDomain, Pattern, Profile, RegionKind};
pub use rng::{mix, Rng};
pub use stress::{stress_kernel, STRESS};
