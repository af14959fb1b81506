//! The retargetable compiler back end of the `isax` suite (Figure 5 of
//! the paper).
//!
//! Given an application in `isax-ir` form and a machine description
//! ([`Mdes`]) produced by the hardware compiler, this crate:
//!
//! 1. [matches](matching) every CFU pattern (exactly, via subsumed
//!    contractions, or via opcode-class wildcards) in the application's
//!    dataflow graphs with a VF2 engine,
//! 2. [prioritizes](prioritize) the matches in CFU selection order so
//!    each operation joins the most valuable unit,
//! 3. [replaces](replace) the chosen subgraphs with custom instructions,
//!    reordering code safely (convexity + anti-dependence aware),
//! 4. [schedules](schedule) each block onto the 4-wide VLIW (one int /
//!    fp / mem / branch slot; CFUs share the integer slot) and
//!    [allocates registers](regalloc).
//!
//! The top-level [`compile`] driver produces cycle estimates whose ratios
//! are the speedups reported throughout the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod ifconvert;
pub mod matching;
pub mod mdes;
pub mod prioritize;
pub mod regalloc;
pub mod replace;
pub mod schedule;

pub use compile::{
    baseline_cycles, compile, compile_guarded, speedup, CompileOptions, CompiledProgram,
};
pub use ifconvert::{if_convert_function, if_convert_program, IfConvertConfig, IfConvertStats};
pub use matching::{
    find_matches, find_matches_guarded_with_stats, prefilter_admits, MatchMode, MatchOptions,
    MatchStats, PatternMatch,
};
pub use mdes::{CfuSpec, Mdes};
pub use prioritize::prioritize;
pub use regalloc::{allocate_registers, RegAlloc, PHYS_REGS};
pub use replace::{apply_matches, AppliedMatch, CustomizedFunction};
pub use schedule::{
    function_cycles_metered, inst_latency, schedule_block, schedule_block_metered,
    sequential_function_cycles, sequential_schedule_block, BlockSchedule, CustomInfo, CustomOpInfo,
    VliwModel,
};
