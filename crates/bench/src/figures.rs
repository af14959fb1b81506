//! String renderers for the paper-figure tables.
//!
//! The `src/bin/` binaries used to build their tables with inline
//! `println!` calls, which made the evaluation output impossible to
//! regression-test. Each renderer here returns the table as a `String`,
//! parameterized by workload subset / size axis, so the binaries print
//! exactly what they always printed while `tests/golden_figures.rs`
//! byte-compares small-kernel snapshots against `tests/golden/`.

use crate::AnalyzedApp;
use isax::{Customizer, MatchOptions};
use isax_explore::{explore_dfg, explore_dfg_naive, ExploreConfig};
use isax_hwlib::HwLibrary;
use isax_ir::{function_dfgs, Program};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Figure 3 table: candidates examined, guided vs exponential, per
/// maximum candidate size, for every DFG of `program`.
///
/// `naive_budget` caps the exponential search (a `+` marks rows where it
/// hit the cap), matching the binary's behavior; `None` runs unbounded.
pub fn figure3_table(
    title: &str,
    program: &Program,
    sizes: &[usize],
    naive_budget: Option<u64>,
) -> String {
    let hw = HwLibrary::micron_018();
    let dfgs: Vec<_> = program.functions.iter().flat_map(function_dfgs).collect();
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>9} {:>16} {:>16} {:>9}",
        "max size", "guided", "exponential", "ratio"
    );
    for &max_nodes in sizes {
        let naive_cfg = ExploreConfig {
            max_nodes,
            max_inputs: usize::MAX,
            max_outputs: usize::MAX,
            ..ExploreConfig::default()
        };
        let guided_cfg = ExploreConfig {
            taper_size: Some(5),
            taper_fanout: 2,
            ..naive_cfg.clone()
        };
        let mut guided = 0u64;
        let mut naive = 0u64;
        let mut truncated = false;
        for dfg in &dfgs {
            guided += explore_dfg(dfg, &hw, &guided_cfg).stats.examined;
            let n = explore_dfg_naive(dfg, &hw, &naive_cfg, naive_budget);
            naive += n.stats.examined;
            truncated |= n.stats.truncated;
        }
        let _ = writeln!(
            out,
            "{:>9} {:>16} {:>15}{} {:>9.2}",
            max_nodes,
            guided,
            naive,
            if truncated { "+" } else { " " },
            naive as f64 / guided.max(1) as f64
        );
    }
    out
}

/// One speedup table (a Figure 7 panel): one row per series, one column
/// per budget.
pub fn render_series(title: &str, budgets: &[f64], rows: &[(String, Vec<f64>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n=== {title} ===");
    let _ = write!(out, "{:<24}", "series \\ budget");
    for &b in budgets {
        let _ = write!(out, " {:>5}", b as u32);
    }
    let _ = writeln!(out);
    for (name, values) in rows {
        let _ = write!(out, "{name:<24}");
        for v in values {
            let _ = write!(out, " {v:>5.2}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Figure 7 native panel for a set of applications: speedup of each app
/// on its own CFUs across the budget axis.
pub fn figure7_native_table(
    title: &str,
    cz: &Customizer,
    suite: &BTreeMap<&'static str, AnalyzedApp>,
    names: &[&str],
    budgets: &[f64],
) -> String {
    let rows: Vec<(String, Vec<f64>)> = names
        .iter()
        .map(|name| {
            let app = &suite[name];
            let curve = budgets.iter().map(|&b| crate::native(cz, app, b)).collect();
            (name.to_string(), curve)
        })
        .collect();
    render_series(title, budgets, &rows)
}

/// Figure 7 cross panel: every app on every *other* member's CFUs.
pub fn figure7_cross_table(
    title: &str,
    cz: &Customizer,
    suite: &BTreeMap<&'static str, AnalyzedApp>,
    names: &[&str],
    budgets: &[f64],
) -> String {
    let mut rows = Vec::new();
    for app_name in names {
        for src_name in names {
            if app_name == src_name {
                continue;
            }
            let curve = budgets
                .iter()
                .map(|&b| {
                    crate::cross(
                        cz,
                        &suite[src_name],
                        &suite[app_name],
                        b,
                        MatchOptions::exact(),
                    )
                })
                .collect();
            rows.push((format!("{app_name}-{src_name}"), curve));
        }
    }
    render_series(title, budgets, &rows)
}

/// Per-domain speedup panel: one row per kernel (its own CFUs at
/// `budget`, subsumed matching), grouped by corpus domain with a
/// geometric-mean summary row per domain.
///
/// Takes `(name, domain, program)` triples so callers can mix paper
/// workloads, curated corpus members, and freshly generated kernels;
/// rows keep input order, domains keep first-appearance order.
pub fn domain_speedup_table(
    title: &str,
    cz: &Customizer,
    kernels: &[(String, &'static str, Program)],
    budget: f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n=== {title} ===");
    let _ = writeln!(out, "{:<8} {:<20} {:>8}", "domain", "kernel", "speedup");
    let mut by_domain: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, domain, program) in kernels {
        let analysis = cz.analyze(program);
        let (mdes, _) = cz.select(name, &analysis, budget);
        let speedup = cz
            .evaluate(program, &mdes, MatchOptions::with_subsumed())
            .speedup;
        let _ = writeln!(out, "{domain:<8} {name:<20} {speedup:>7.2}x");
        match by_domain.iter_mut().find(|(d, _)| d == domain) {
            Some((_, v)) => v.push(speedup),
            None => by_domain.push((domain, vec![speedup])),
        }
    }
    let _ = writeln!(out);
    for (domain, speedups) in &by_domain {
        let _ = writeln!(
            out,
            "{:<8} {:<20} {:>7.2}x",
            domain,
            "geomean",
            crate::geomean(speedups)
        );
    }
    out
}

/// Figures 8/9 panel: the four paper bars (exact, +subsumed, wildcard,
/// wildcard+subsumed) for every (application × CFU source) pair drawn
/// from `names`, at one cost point.
pub fn figure8_9_table(
    title: &str,
    cz: &Customizer,
    suite: &BTreeMap<&'static str, AnalyzedApp>,
    names: &[&str],
    budget: f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n=== {title} ===");
    let _ = writeln!(
        out,
        "{:<22} {:>7} {:>10} {:>10} {:>10}",
        "app-on-CFUs", "exact", "+subsumed", "wild", "wild+sub"
    );
    for app_name in names {
        for src_name in names {
            let app = &suite[app_name];
            let src = &suite[src_name];
            let bar = |m: MatchOptions| crate::cross(cz, src, app, budget, m);
            let exact = bar(MatchOptions::exact());
            let subsumed = bar(MatchOptions::with_subsumed());
            let wild = bar(MatchOptions::from_flags(false, true));
            let wild_sub = bar(MatchOptions::generalized());
            let _ = writeln!(
                out,
                "{:<22} {:>6.2}x {:>9.2}x {:>9.2}x {:>9.2}x",
                format!("{app_name}-{src_name}"),
                exact,
                subsumed,
                wild,
                wild_sub
            );
        }
    }
    out
}
