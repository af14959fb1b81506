//! Candidate combination and custom-function-unit selection.
//!
//! This crate implements §3.3–§3.4 of the paper: discovered candidate
//! subgraphs are [grouped](combine) into CFU candidates by
//! commutativity-aware graph equivalence; [subsumption](subsume) and
//! [`wildcard`] relationships between CFUs are recorded; and a
//! [greedy value/cost knapsack](greedy) (or the slower
//! [dynamic-programming variant](knapsack)) picks the CFU set for a given
//! die-area budget, iteratively re-pricing candidates as their operations
//! are claimed. Plain and [`multifunction`] selection run the same greedy
//! scan over different selection units, and every selector records
//! claimed operations in one [`Claims`] ledger.
//!
//! The output — a prioritized CFU list — is what the machine description
//! generator in `isax-compiler` turns into a compiler-consumable MDES.
//!
//! # Example: full hardware-compiler front half
//!
//! ```
//! use isax_explore::{explore_app, ExploreConfig};
//! use isax_hwlib::HwLibrary;
//! use isax_ir::{function_dfgs, FunctionBuilder};
//! use isax_select::{combine, mark_subsumptions, find_wildcard_partners,
//!                   select_greedy, SelectConfig, DEFAULT_CLOSURE_CAP};
//!
//! let mut fb = FunctionBuilder::new("kernel", 3);
//! fb.set_entry_weight(5_000);
//! let (a, b, k) = (fb.param(0), fb.param(1), fb.param(2));
//! let t = fb.xor(a, k);
//! let u = fb.shl(t, 5i64);
//! let v = fb.add(u, b);
//! fb.ret(&[v.into()]);
//! let dfgs = function_dfgs(&fb.finish());
//!
//! let hw = HwLibrary::micron_018();
//! let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
//! let mut cfus = combine(&dfgs, &found.candidates, &hw);
//! mark_subsumptions(&mut cfus, DEFAULT_CLOSURE_CAP);
//! find_wildcard_partners(&mut cfus);
//! let sel = select_greedy(&cfus, &SelectConfig::with_budget(3.0));
//! assert!(!sel.chosen.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod combine;
pub mod greedy;
pub mod knapsack;
pub mod multifunction;
pub mod subsume;
pub mod wildcard;

pub use claims::Claims;
pub use combine::{combine, pattern_fingerprint, patterns_equivalent, CfuCandidate, Occurrence};
pub use greedy::{
    select_greedy, select_greedy_metered, selection_prov, Objective, SelectConfig, SelectedCfu,
    Selection,
};
pub use knapsack::select_knapsack;
pub use multifunction::{select_multifunction, select_multifunction_metered, wildcard_families};
pub use subsume::{contraction_closure, mark_subsumptions, DEFAULT_CLOSURE_CAP};
pub use wildcard::find_wildcard_partners;
