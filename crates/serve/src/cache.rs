//! The content-addressed artifact cache.
//!
//! Artifacts are keyed by **canonical kernel fingerprint** plus
//! **config hash**. The kernel fingerprint hashes the *parsed-then-
//! re-printed* IR text, not the request bytes, so two requests that
//! differ only in whitespace or comments address the same entry. The
//! config hash folds in every request knob that can change the output
//! bytes (request kind, app name, area budget, matching flags, the MDES
//! text for compiles, and the run's effective guard: work units after
//! admission and environment, deadline and fault plan). The server's
//! shared context is fixed for its lifetime, so it needs no key bits.
//!
//! Insertion is **first-insert-wins**: when two requests race to fill
//! the same key, the first `insert` published is the entry everyone —
//! including the losing computer — gets back. With a deterministic
//! pipeline both computed the same bytes anyway; first-insert-wins
//! makes the linearization obvious and testable (the proptests race
//! deliberately-different payloads and assert one canonical winner).

use crate::protocol::Artifacts;
use isax::Guard;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// 64-bit FNV-1a over a byte string: tiny, dependency-free, and stable
/// across platforms — exactly what a cache key (not a security
/// boundary) needs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A cache key: (canonical kernel fingerprint, config hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint of the canonicalized kernel text.
    pub kernel: u64,
    /// Hash of every output-affecting request knob.
    pub config: u64,
}

/// Fingerprints a parsed program by its canonical printed form
/// ([`isax_ir::Program::functions_text`], the same text the assembly
/// emitter writes), so lexical noise in the request never splits cache
/// entries.
pub fn kernel_fingerprint(program: &isax_ir::Program) -> u64 {
    fnv64(program.functions_text().as_bytes())
}

/// Incrementally hashes the config half of a [`CacheKey`].
#[derive(Debug, Clone)]
pub struct ConfigHasher(u64);

impl ConfigHasher {
    /// Starts a hash with a request-kind discriminator.
    pub fn new(kind: &str) -> ConfigHasher {
        ConfigHasher(fnv64(kind.as_bytes()))
    }

    /// Folds in a labeled byte string.
    pub fn field(mut self, label: &str, bytes: &[u8]) -> ConfigHasher {
        // Labels and lengths are folded in so field boundaries cannot
        // alias ("ab"+"c" vs "a"+"bc").
        self.0 = self.0.wrapping_mul(0x100_0000_01b3) ^ fnv64(label.as_bytes());
        self.0 = self.0.wrapping_mul(0x100_0000_01b3) ^ (bytes.len() as u64);
        self.0 = self.0.wrapping_mul(0x100_0000_01b3) ^ fnv64(bytes);
        self
    }

    /// Folds in a `u64`.
    pub fn u64(self, label: &str, v: u64) -> ConfigHasher {
        self.field(label, &v.to_le_bytes())
    }

    /// Folds in an `f64` by its bit pattern (so `-0.0` and `0.0` are
    /// distinct keys, matching the pipeline's bit-exact determinism).
    pub fn f64(self, label: &str, v: f64) -> ConfigHasher {
        self.u64(label, v.to_bits())
    }

    /// Folds in a bool.
    pub fn bool(self, label: &str, v: bool) -> ConfigHasher {
        self.u64(label, u64::from(v))
    }

    /// Folds in everything of a [`Guard`] that can change a run's
    /// bytes: the work-unit limit, the deadline and the fault plan.
    pub fn guard(self, guard: &Guard) -> ConfigHasher {
        let budget = guard.budget();
        self.u64("work_units", budget.units.unwrap_or(u64::MAX))
            .u64(
                "deadline_ns",
                budget.deadline.map_or(u64::MAX, |d| d.as_nanos() as u64),
            )
            .field("fault", format!("{:?}", guard.fault()).as_bytes())
    }

    /// The finished hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A concurrent, first-insert-wins artifact cache.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    map: Mutex<HashMap<CacheKey, Arc<Artifacts>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Looks up `key`, counting a hit or a miss.
    pub fn lookup(&self, key: CacheKey) -> Option<Arc<Artifacts>> {
        let found = self.map.lock().expect("cache lock").get(&key).cloned();
        match found {
            Some(a) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(a)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes `artifacts` under `key` unless an entry already exists,
    /// and returns the canonical entry either way (first insert wins).
    pub fn insert(&self, key: CacheKey, artifacts: Artifacts) -> Arc<Artifacts> {
        self.map
            .lock()
            .expect("cache lock")
            .entry(key)
            .or_insert_with(|| Arc::new(artifacts))
            .clone()
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock").len()
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0.0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}
