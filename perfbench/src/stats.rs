//! Estimators and host probes shared by every workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Per-item timing samples, one per pass. The reported time of a set of
/// items is the sum over items of each item's fastest pass: the host
/// switches between a fast and a ~1.6x slower regime for seconds at a
/// time, and interleaving items round-robin across passes lets every
/// item find a fast window.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    by_item: BTreeMap<usize, Vec<f64>>,
}

impl Samples {
    /// Records one sample (seconds) for `item`.
    pub fn add(&mut self, item: usize, seconds: f64) {
        self.by_item.entry(item).or_default().push(seconds);
    }

    /// Sum over items of each item's minimum sample.
    pub fn min_sum(&self) -> f64 {
        self.by_item.values().map(|v| min(v)).sum()
    }

    /// Each item's minimum sample, in item order.
    pub fn item_mins(&self) -> Vec<f64> {
        self.by_item.values().map(|v| min(v)).collect()
    }

    /// Number of items with at least one sample.
    pub fn items(&self) -> usize {
        self.by_item.len()
    }
}

/// Smallest value (`inf` when empty).
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median by exact sort (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) by exact sort.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Geometric mean (1.0 for an empty slice).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 1.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds a fixed pure-Rust integer loop takes (fastest of five
/// repetitions). It calls no isax code, so a change in it between runs
/// is the host's doing, not the program's.
pub fn reference_loop_ms() -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x: u64 = black_box(0x2545_f491_4f6c_dd1d);
            for i in 0..black_box(4_000_000u64) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Milliseconds a fixed pure-Rust pointer chase through an 8 MiB
/// random cycle takes (fastest of three repetitions). It calls no isax
/// code and, unlike [`reference_loop_ms`], waits on the cache and memory
/// system, which the register-only loop never touches: a neighbour
/// contending for the shared cache slows it and the program alike.
pub fn reference_chase_ms() -> f64 {
    const SLOTS: usize = 1 << 21;
    // Sattolo's shuffle: a single cycle through every slot.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in (1..SLOTS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut at = black_box(0u32);
            for _ in 0..black_box(1_000_000u32) {
                at = next[at as usize];
            }
            black_box(at);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_sum_takes_each_items_fastest_pass() {
        let mut s = Samples::default();
        s.add(0, 3.0);
        s.add(0, 1.0);
        s.add(1, 2.0);
        s.add(1, 5.0);
        assert_eq!(s.min_sum(), 3.0);
        assert_eq!(s.items(), 2);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
