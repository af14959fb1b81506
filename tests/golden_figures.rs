//! Golden-file regression tests for the paper-figure renderers.
//!
//! Each test renders a small-kernel edition of a paper table through
//! the exact code path the `isax-bench` binaries use
//! (`isax_bench::figures`) and byte-compares it against a checked-in
//! snapshot under `tests/golden/`. Any change to exploration order,
//! selection tie-breaking, matching, scheduling, or table formatting
//! shows up as a diff here before it silently rewrites the paper
//! figures.
//!
//! To bless intentional changes, rerun with `ISAX_BLESS=1` and commit
//! the regenerated snapshots together with the code change.

mod common;

use common::check_golden;
use isax::Customizer;
use isax_bench::{analyze_subset, figures};

/// The small-kernel cast: cheap enough for debug-mode CI while still
/// covering three domains' worth of distinct DFG shapes.
const KERNELS: [&str; 3] = ["crc", "rawcaudio", "rawdaudio"];
const BUDGETS: [f64; 3] = [2.0, 6.0, 10.0];

/// The per-domain speedup panel over a cheap cross-domain cast: one
/// paper kernel, two curated kernels per new domain, and one freshly
/// generated mixed kernel (regenerated from its recipe, so the table is
/// fully deterministic).
#[test]
fn domain_speedup_table_is_stable() {
    let cz = Customizer::new();
    let mut kernels: Vec<(String, &'static str, isax_ir::Program)> = vec![(
        "crc".to_string(),
        "paper",
        isax_workloads::by_name("crc").unwrap().program,
    )];
    for name in ["dijkstra_relax", "prim_minedge", "fir8", "crc_brev"] {
        let k = isax_gen::curated_by_name(name).unwrap();
        kernels.push((
            k.name.to_string(),
            k.domain,
            isax_ir::parse_program(&(k.text)()).unwrap(),
        ));
    }
    let cfg = isax_gen::GenConfig {
        seed: 1,
        domain: isax_gen::GenDomain::Mixed,
        blocks: 12,
    };
    kernels.push((
        cfg.entry_name(),
        "gen",
        isax_ir::parse_program(&isax_gen::generate(&cfg)).unwrap(),
    ));
    let table =
        figures::domain_speedup_table("Per-domain speedups (golden edition)", &cz, &kernels, 8.0);
    check_golden("domain_speedups.txt", &table);
}

#[test]
fn figure3_guided_vs_exponential_is_stable() {
    let w = isax_workloads::by_name("crc").unwrap();
    let table = figures::figure3_table(
        "Figure 3 (golden edition) — candidates examined for crc",
        &w.program,
        &[2, 4, 6],
        Some(50_000),
    );
    check_golden("figure3_crc.txt", &table);
}

#[test]
fn figure7_and_figure8_9_speedup_tables_are_stable() {
    let cz = Customizer::new();
    let suite = analyze_subset(&cz, &KERNELS);

    let native = figures::figure7_native_table(
        "Figure 7 (golden edition) — native speedups",
        &cz,
        &suite,
        &KERNELS,
        &BUDGETS,
    );
    check_golden("figure7_native.txt", &native);

    let cross = figures::figure7_cross_table(
        "Figure 7 (golden edition) — cross speedups",
        &cz,
        &suite,
        &KERNELS,
        &BUDGETS,
    );
    check_golden("figure7_cross.txt", &cross);

    let bars = figures::figure8_9_table(
        "Figures 8/9 (golden edition) — generalization bars",
        &cz,
        &suite,
        &KERNELS,
        8.0,
    );
    check_golden("figure8_9.txt", &bars);
}

/// The Prometheus text renderer behind `isax serve`'s `metrics`
/// request, pinned byte-for-byte: section split, HELP/TYPE comments,
/// label rendering, float formatting, and cumulative histogram buckets
/// with exact `_sum`/`_count`. Fed with fixed values so the snapshot is
/// fully deterministic.
#[test]
fn metrics_exposition_renderer_is_stable() {
    use isax_trace::{Expo, Hist, Section};
    let mut h = Hist::new();
    for v in [0, 1, 2, 3, 5, 8, 13, 100, 1000, 65_536, 1_000_000] {
        h.record(v);
    }
    let mut e = Expo::new();
    e.counter(
        Section::Deterministic,
        "isax_requests_total",
        "Requests received",
        42,
    );
    e.counter_by_label(
        Section::Deterministic,
        "isax_errors_total",
        "Errors by code",
        "code",
        &[("busy", 2), ("parse-error", 0)],
    );
    e.hist(
        Section::Deterministic,
        "isax_admitted_units",
        "Admitted work units",
        &h,
    );
    e.gauge(Section::WallClock, "isax_inflight", "Requests in flight", 3);
    e.gauge_f64(Section::WallClock, "isax_uptime_seconds", "Uptime", 12.5);
    e.hist(Section::WallClock, "isax_e2e_us", "End-to-end latency", &h);
    check_golden("metrics_expo.txt", &e.render());
}
