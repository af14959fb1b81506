//! The content-addressed artifact cache.
//!
//! An artifact is keyed by [`request_key`]: FNV-1a over the wire
//! encoding ([`encode_request`]) of its **canonical request**, the
//! decoded request with id 0, the kernel replaced by its parsed-then-
//! re-printed text, and the work budget replaced by the units the run's
//! guard actually allows (after admission, else the context's). The
//! encoding states every request field once and is injective (strings
//! are escaped, floats print shortest-round-trip), so every field that
//! can change the output bytes is in the key without a second list of
//! them, while whitespace and comments in the kernel and a work budget
//! admitted to the same units address the same entry. The rest of the
//! server's shared context (deadline, fault plan, beam width, library)
//! is fixed for its lifetime and each server owns its cache, so it
//! needs no key bits.
//!
//! Insertion is **first-insert-wins**: when two requests race to fill
//! the same key, the first `insert` published is the entry everyone —
//! including the losing computer — gets back. With a deterministic
//! pipeline both computed the same bytes anyway; first-insert-wins
//! makes the linearization obvious and testable (the proptests race
//! deliberately-different payloads and assert one canonical winner).

use crate::protocol::{encode_request, Artifacts, Frame, Request};
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

/// The cache key of `frame`, whose kernel parsed to `program` and which
/// runs under `units` work units: the hash of its canonical request (see
/// the module doc).
pub fn request_key(frame: &Frame, program: &isax_ir::Program, units: Option<u64>) -> u64 {
    let mut request = frame.request.clone();
    if let Request::Customize {
        kernel,
        work_budget,
        ..
    }
    | Request::Compile {
        kernel,
        work_budget,
        ..
    } = &mut request
    {
        *kernel = program.functions_text();
        *work_budget = units;
    }
    fnv64(encode_request(&Frame { id: 0, request }).as_bytes())
}

/// A concurrent, first-insert-wins artifact cache.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    map: Mutex<HashMap<u64, Arc<Artifacts>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Looks up `key`, counting a hit or a miss.
    pub fn lookup(&self, key: u64) -> Option<Arc<Artifacts>> {
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
    pub fn insert(&self, key: u64, artifacts: Artifacts) -> Arc<Artifacts> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const KERNEL: &str = "func f(v0)\nb0:  ; weight 10\n    add v1, v0, #1\n    ret v1\n";

    fn cz(name: &str, budget: f64, multifunction: bool, work: Option<u64>) -> Request {
        Request::Customize {
            kernel: KERNEL.into(),
            name: name.into(),
            budget,
            multifunction,
            work_budget: work,
        }
    }

    fn cp(name: &str, mdes: &str, subsumed: bool, wildcard: bool, work: Option<u64>) -> Request {
        Request::Compile {
            kernel: KERNEL.into(),
            name: name.into(),
            mdes: mdes.into(),
            subsumed,
            wildcard,
            work_budget: work,
        }
    }

    /// Every field that can change the output bytes moves the key; the
    /// frame id and a requested work budget admitted to the same units
    /// do not.
    #[test]
    fn the_key_moves_with_every_output_field_and_nothing_else() {
        let program = isax_ir::parse_program(KERNEL).unwrap();
        let other = isax_ir::parse_program(&KERNEL.replace("#1", "#2")).unwrap();
        let key = |id, request, units| request_key(&Frame { id, request }, &program, units);
        let base = key(1, cz("f", 15.0, false, Some(1000)), Some(50));
        assert_eq!(key(2, cz("f", 15.0, false, None), Some(50)), base);
        assert_eq!(key(3, cz("f", 15.0, false, Some(50)), Some(50)), base);
        let next_ulp = f64::from_bits(15f64.to_bits() + 1);
        let keys = [
            base,
            request_key(
                &Frame {
                    id: 1,
                    request: cz("f", 15.0, false, None),
                },
                &other,
                Some(50),
            ),
            key(1, cz("g", 15.0, false, None), Some(50)),
            key(1, cz("f", next_ulp, false, None), Some(50)),
            key(1, cz("f", 15.0, true, None), Some(50)),
            key(1, cz("f", 15.0, false, None), Some(51)),
            key(1, cz("f", 15.0, false, None), None),
            key(1, cp("f", "{}", false, false, None), Some(50)),
            key(1, cp("g", "{}", false, false, None), Some(50)),
            key(1, cp("f", "{ }", false, false, None), Some(50)),
            key(1, cp("f", "{}", true, false, None), Some(50)),
            key(1, cp("f", "{}", false, true, None), Some(50)),
        ];
        let distinct: BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            keys.len(),
            "two requests share a key: {keys:?}"
        );
    }
}
