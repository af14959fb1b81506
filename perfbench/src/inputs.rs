//! Workload inputs, generated from the workload seed.
//!
//! Every input is kernel *text* plus the inputs the differential check
//! runs it on, so the measured program only ever receives generated
//! inputs. The seed drives the check inputs, the pass-to-pass visiting
//! order and, on `serve_mix`, the request script. Generated kernels use
//! fixed generator recipes: a generated program's cost swings by up to
//! 2x with its generator seed, which would make runs with different
//! workload seeds incomparable (see `perfbench/README.md`).

use isax_gen::{mix, GenConfig, GenDomain, Rng};
use isax_ir::Program;
use isax_machine::Memory;

/// Area budget (in adders) every customization runs at: the paper's
/// headline cost point (Figures 8/9).
pub const AREA_BUDGET: f64 = 15.0;

/// Work-unit budget of the governed `explore_stress` kernels.
pub const STRESS_BUDGET: u64 = 5_000;

/// Block count of the `select_large` programs.
pub const SELECT_LARGE_BLOCKS: usize = 128;

/// Fixed `(seed, domain)` recipes of the `select_large` programs.
const SELECT_LARGE_RECIPES: [(u64, GenDomain); 3] = [
    (11, GenDomain::Graph),
    (23768, GenDomain::Dsp),
    (31687, GenDomain::Mixed),
];

/// Number of distinct cold kernels in one `serve_mix` request script.
pub const SERVE_KERNELS: usize = 16;

/// Requests each `serve_mix` client sends in one pass.
pub const SERVE_REQUESTS_PER_CLIENT: usize = 250;

/// Closed-loop clients driving the `serve_mix` server.
pub const SERVE_CLIENTS: usize = 2;

/// The seeded generator kernels of `kernels/gen/MANIFEST.json`.
const GEN_MANIFEST: &str = include_str!("../../kernels/gen/MANIFEST.json");

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's own evaluation: 24 kernels customized, then every
    /// kernel compiled against every kernel's MDES (Figures 8/9).
    PaperCross,
    /// The governed stress kernels plus the ungoverned `crc_brev`.
    ExploreStress,
    /// Large generated programs whose selection dominates.
    SelectLarge,
    /// An in-process `isax serve` under two closed-loop clients.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperCross,
        Workload::ExploreStress,
        Workload::SelectLarge,
        Workload::ServeMix,
    ];

    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCross => "paper_cross",
            Workload::ExploreStress => "explore_stress",
            Workload::SelectLarge => "select_large",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses the command-line spelling.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What the differential check runs a kernel on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckInput {
    /// Entry function.
    pub entry: String,
    /// Entry arguments.
    pub args: Vec<u32>,
    /// Initial memory image.
    pub memory: Memory,
}

/// One kernel of a workload.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Application name stamped into the MDES.
    pub name: String,
    /// Kernel source in the textual IR format.
    pub text: String,
    /// The parsed kernel.
    pub program: Program,
    /// Work-unit budget for the governed stages, if any.
    pub work_budget: Option<u64>,
    /// Differential-check inputs.
    pub check: CheckInput,
}

/// The generated inputs of one workload run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The kernels, in a fixed order.
    pub kernels: Vec<Kernel>,
    /// Compile every kernel against every kernel's MDES (otherwise each
    /// kernel only against its own).
    pub cross: bool,
    /// Seed of the visiting order and, on `serve_mix`, the request
    /// script.
    pub order_seed: u64,
}

impl Inputs {
    /// A byte rendering of everything the seed determines, used to test
    /// that generation is deterministic.
    #[cfg(test)]
    pub fn fingerprint_bytes(&self) -> Vec<u8> {
        let mut out = format!("cross={} order={}\n", self.cross, self.order_seed);
        for k in &self.kernels {
            out.push_str(&format!(
                "{} {:?} {:?} {:?}\n{}\n",
                k.name, k.work_budget, k.check.entry, k.check.args, k.text
            ));
            out.push_str(&format!("{:?}\n", k.check.memory));
        }
        out.into_bytes()
    }
}

/// Renders a program the way a user's kernel file (and a served
/// assembly) holds it.
pub fn program_text(p: &Program) -> String {
    p.functions
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

fn kernel(name: String, text: String, work_budget: Option<u64>, check: CheckInput) -> Kernel {
    let program = isax_ir::parse_program(&text)
        .unwrap_or_else(|e| panic!("generated kernel `{name}` does not parse: {e}"));
    Kernel {
        name,
        text,
        program,
        work_budget,
        check,
    }
}

/// Check inputs for a generator kernel.
fn gen_check(entry: String, seed: u64) -> CheckInput {
    CheckInput {
        entry,
        args: isax_gen::seeded_args(seed),
        memory: isax_gen::seeded_memory(seed),
    }
}

fn gen_kernel(cfg: &GenConfig, check_seed: u64) -> Kernel {
    let name = cfg.entry_name();
    kernel(
        name.clone(),
        isax_gen::generate(cfg),
        None,
        gen_check(name, check_seed),
    )
}

/// The 13 paper kernels.
fn paper_kernels(seed: u64) -> Vec<Kernel> {
    isax_workloads::all()
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let s = mix(&[seed, 0x9A9E, i as u64]);
            let mut memory = Memory::new();
            (w.init_memory)(&mut memory, s);
            let check = CheckInput {
                entry: w.entry.to_string(),
                args: (w.args)(s),
                memory,
            };
            kernel(w.name.to_string(), program_text(&w.program), None, check)
        })
        .collect()
}

/// The curated graph and DSP kernels, optionally without `crc_brev`.
fn curated_kernels(seed: u64, keep: impl Fn(&str) -> bool) -> Vec<Kernel> {
    isax_gen::curated()
        .into_iter()
        .enumerate()
        .filter(|(_, c)| keep(c.name))
        .map(|(i, c)| {
            let s = mix(&[seed, 0xC0DA, i as u64]);
            let mut memory = Memory::new();
            (c.init_memory)(&mut memory, s);
            let check = CheckInput {
                entry: c.name.to_string(),
                args: (c.args)(s),
                memory,
            };
            kernel(c.name.to_string(), (c.text)(), None, check)
        })
        .collect()
}

/// The six seeded kernels recorded in `kernels/gen/MANIFEST.json`.
fn manifest_kernels(seed: u64) -> Vec<Kernel> {
    let doc = isax_json::parse(GEN_MANIFEST).expect("kernels/gen/MANIFEST.json parses");
    doc.get("kernels")
        .and_then(|v| v.as_array())
        .expect("manifest has a kernels array")
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let field = |k: &str| entry.get(k).unwrap_or_else(|| panic!("manifest `{k}`"));
            let cfg = GenConfig {
                seed: field("seed").as_u64().expect("seed"),
                domain: GenDomain::parse(field("domain").as_str().expect("domain"))
                    .expect("known domain"),
                blocks: field("blocks").as_u64().expect("blocks") as usize,
            };
            gen_kernel(&cfg, mix(&[seed, 0x6E4, i as u64]))
        })
        .collect()
}

/// The four stress kernels, governed by [`STRESS_BUDGET`].
fn stress_kernels(seed: u64) -> Vec<Kernel> {
    isax_gen::STRESS
        .iter()
        .enumerate()
        .map(|(i, (name, text))| {
            let mut r = Rng::new(mix(&[seed, 0x57E5, i as u64]));
            // Every stress kernel takes (address, key); the address stays
            // word-aligned inside the seeded memory image.
            let check = CheckInput {
                entry: name.to_string(),
                args: vec![0x100 + 4 * r.below(64) as u32, r.next_u32()],
                memory: isax_gen::seeded_memory(r.next_u64()),
            };
            kernel(name.to_string(), text(), Some(STRESS_BUDGET), check)
        })
        .collect()
}

/// Generates the inputs of workload `w` from `seed`.
pub fn generate(w: Workload, seed: u64) -> Inputs {
    let order_seed = mix(&[seed, 0x0DE5]);
    match w {
        Workload::PaperCross => {
            let mut kernels = paper_kernels(seed);
            kernels.extend(curated_kernels(seed, |n| n != "crc_brev"));
            kernels.extend(manifest_kernels(seed));
            Inputs {
                kernels,
                cross: true,
                order_seed,
            }
        }
        Workload::ExploreStress => {
            let mut kernels = stress_kernels(seed);
            kernels.extend(curated_kernels(seed, |n| n == "crc_brev"));
            Inputs {
                kernels,
                cross: false,
                order_seed,
            }
        }
        Workload::SelectLarge => Inputs {
            kernels: SELECT_LARGE_RECIPES
                .iter()
                .enumerate()
                .map(|(i, &(gen_seed, domain))| {
                    let cfg = GenConfig {
                        seed: gen_seed,
                        domain,
                        blocks: SELECT_LARGE_BLOCKS,
                    };
                    gen_kernel(&cfg, mix(&[seed, 0x5E1, i as u64]))
                })
                .collect(),
            cross: false,
            order_seed,
        },
        Workload::ServeMix => Inputs {
            kernels: (0..SERVE_KERNELS)
                .map(|i| {
                    // 8–12 blocks: larger DSP kernels cost up to 330 ms to
                    // customize, and the few of them (with the hits queued
                    // behind them) made the p99 jump between runs.
                    let cfg = GenConfig {
                        seed: 1 + i as u64,
                        domain: GenDomain::ALL[i % GenDomain::ALL.len()],
                        blocks: 8 + i % 5,
                    };
                    gen_kernel(&cfg, mix(&[seed, 0x5E7E, i as u64]))
                })
                .collect(),
            cross: false,
            order_seed,
        },
    }
}

/// The visiting order of pass `pass`: round-robin over every item,
/// starting at a seeded, pass-dependent offset.
pub fn pass_order(n: usize, order_seed: u64, pass: usize) -> impl Iterator<Item = usize> {
    let start = (mix(&[order_seed, pass as u64]) % n.max(1) as u64) as usize;
    (0..n).map(move |i| (start + i) % n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_byte_deterministic_per_seed() {
        for w in Workload::ALL {
            let a = generate(w, 7).fingerprint_bytes();
            let b = generate(w, 7).fingerprint_bytes();
            assert_eq!(a, b, "{}: same seed, different inputs", w.name());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        for w in Workload::ALL {
            let a = generate(w, 1).fingerprint_bytes();
            let b = generate(w, 2).fingerprint_bytes();
            assert_ne!(a, b, "{}: seeds 1 and 2 gave identical inputs", w.name());
        }
    }

    #[test]
    fn workload_shapes_match_their_definitions() {
        assert_eq!(generate(Workload::PaperCross, 0).kernels.len(), 24);
        let stress = generate(Workload::ExploreStress, 0);
        assert_eq!(stress.kernels.len(), 5);
        assert_eq!(
            stress
                .kernels
                .iter()
                .filter(|k| k.work_budget.is_some())
                .count(),
            4
        );
        assert_eq!(generate(Workload::SelectLarge, 0).kernels.len(), 3);
        let names: std::collections::BTreeSet<String> = generate(Workload::ServeMix, 0)
            .kernels
            .into_iter()
            .map(|k| k.name)
            .collect();
        assert_eq!(names.len(), SERVE_KERNELS, "serve kernels must be distinct");
    }

    #[test]
    fn pass_order_visits_every_item_once() {
        for pass in 0..5 {
            let mut seen: Vec<usize> = pass_order(24, 99, pass).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..24).collect::<Vec<_>>());
        }
    }
}
