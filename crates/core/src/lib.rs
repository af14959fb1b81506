//! `isax` — automated instruction-set customization.
//!
//! A from-scratch Rust implementation of the system in *Processor
//! Acceleration Through Automated Instruction Set Customization* (Clark,
//! Zhong & Mahlke, MICRO-36, 2003): a hardware compiler that discovers
//! profitable dataflow subgraphs and turns them into custom function
//! units, plus a retargetable compiler that exploits them.
//!
//! This crate is the facade over the workspace's substrate crates:
//!
//! | stage | crate |
//! |-------|-------|
//! | IR, dataflow graphs | [`isax_ir`] |
//! | hardware timing/area library | [`isax_hwlib`] |
//! | graph matching / canonical forms | [`isax_graph`] |
//! | guided design-space exploration | [`isax_explore`] |
//! | combination, subsumption, wildcards, selection | [`isax_select`] |
//! | MDES, matching, replacement, VLIW scheduling | [`isax_compiler`] |
//! | interpreter + speedup reports | [`isax_machine`] |
//! | stage-by-stage invariant checking | [`isax_check`] |
//!
//! # Quickstart
//!
//! ```
//! use isax::{Customizer, MatchOptions};
//! use isax_ir::{FunctionBuilder, Program};
//!
//! // A toy hot kernel: ((a ^ k) <<< 5) + b, executed 50k times.
//! let mut fb = FunctionBuilder::new("kernel", 3);
//! fb.set_entry_weight(50_000);
//! let (a, b, k) = (fb.param(0), fb.param(1), fb.param(2));
//! let t = fb.xor(a, k);
//! let l = fb.shl(t, 5i64);
//! let r = fb.shr(t, 27i64);
//! let rot = fb.or(l, r);
//! let s = fb.add(rot, b);
//! fb.ret(&[s.into()]);
//! let program = Program::new(vec![fb.finish()]);
//!
//! // Discover, select (15-adder budget), compile, measure.
//! let cz = Customizer::new();
//! let (mdes, _selection) = cz.customize("kernel", &program, 15.0);
//! let ev = cz.evaluate(&program, &mdes, MatchOptions::exact());
//! assert!(ev.speedup > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod pipeline;

pub use config::RunConfig;
pub use pipeline::{Analysis, AnalysisStats, Customizer, Evaluation, SharedContext};

// Re-export the vocabulary types users need at the facade level.
pub use isax_check::{
    check_provenance, check_value_facts, enforce, lint_function, lint_program, Diagnostic, Report,
};
pub use isax_compiler::{MatchMode, MatchOptions, Mdes, VliwModel};
pub use isax_explore::ExploreConfig;
pub use isax_guard::{
    reraise_contained, Budget, Degradation, DegradationKind, FaultKind, FaultPlan, Guard, Stage,
    StageReport,
};
pub use isax_hwlib::HwLibrary;
pub use isax_machine::SpeedupReport;
pub use isax_prov::{build_report, Fate, ProvEvent, ProvLog, Summary};
