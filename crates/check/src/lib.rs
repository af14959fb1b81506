//! Pipeline-wide static invariant checker for the `isax` suite.
//!
//! Every stage of the customization pipeline — IR construction, dataflow
//! graphs, candidate exploration, CFU combination, selection/MDES
//! emission, replacement/scheduling, and final execution — maintains
//! invariants the downstream stages silently rely on. This crate makes
//! them explicit and machine-checkable:
//!
//! * [`check_program`] — CFG/IR well-formedness via the flow-sensitive
//!   verifier (`IC01xx`);
//! * [`check_dfgs`] — dataflow-graph structure: forward edges,
//!   acyclicity, pred/succ mirror consistency, memory-ordering edges
//!   matched against an independent reconstruction, ASAP/ALAP/slack
//!   coherence (`IC02xx`);
//! * [`check_candidates`] / [`check_cfus`] / [`check_mdes`] /
//!   [`check_selection`] — the §3 legality constraints: convexity,
//!   input/output port limits, forbidden opcodes, occurrence-pattern
//!   isomorphism, wildcard-partner symmetry (`IC03xx`);
//! * [`check_compiled`] — post-replacement soundness: no dropped
//!   live-out definitions, every applied match and custom opcode
//!   resolvable, schedule legality against the VLIW model (`IC04xx`);
//! * [`check_differential`] — differential semantic verification: the
//!   original and customized programs are interpreted on the same
//!   inputs and must agree on results and memory (`IC05xx`);
//! * [`check_provenance`] — provenance-report cross-validation over
//!   the events `isax_prov::parse_report` decodes: the report decodes
//!   and re-encodes identically, every selected CFU was discovered on
//!   the record, `Replaced` cycle deltas sum to the compiled program's
//!   claimed savings, no event references an unknown candidate or CFU
//!   (`IC07xx`);
//! * [`lint_function`] / [`lint_program`] / [`check_value_facts`] —
//!   dataflow-driven lints over the interval and known-bits fixpoints
//!   (suspicious-but-legal code, warnings) and runtime soundness of the
//!   dataflow analysis itself (`IC08xx`).
//!
//! All passes report through [`Report`] with stable `IC0xxx` codes and
//! precise [`Location`]s. The pipeline in `isax-core` calls these passes
//! at checkpoints between stages when checking is enabled (the `--check`
//! CLI flag or the `ISAX_CHECK` environment variable).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidates;
pub mod compiled;
pub mod dfg;
pub mod diag;
pub mod differential;
pub mod lint;
pub mod program;
pub mod prov;

pub use candidates::{check_candidates, check_cfus, check_mdes, check_selection};
pub use compiled::check_compiled;
pub use dfg::check_dfgs;
pub use diag::{Diagnostic, Location, Report, Severity};
pub use differential::check_differential;
pub use lint::{check_value_facts, lint_function, lint_program};
pub use program::check_program;
pub use prov::check_provenance;

/// Aborts with the rendered report if `report` contains any
/// error-severity diagnostic.
///
/// This is the checkpoint primitive: a dirty report at a pipeline
/// checkpoint means a stage produced unsound output, and continuing
/// would push the corruption downstream where it is far harder to
/// attribute.
///
/// # Panics
///
/// Panics when `report` is not clean, with `stage` and every diagnostic
/// in the panic message.
pub fn enforce(stage: &str, report: &Report) {
    if !report.is_clean() {
        panic!(
            "isax-check: {} invariant violation(s) at checkpoint `{stage}`:\n{report}",
            report.error_count()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enforce_accepts_clean_reports() {
        enforce("unit", &Report::new());
        let mut warn_only = Report::new();
        warn_only.push(Diagnostic::warning("IC0205", Location::Whole, "eh"));
        enforce("unit", &warn_only);
    }

    #[test]
    #[should_panic(expected = "checkpoint `unit`")]
    fn enforce_panics_on_errors() {
        let mut r = Report::new();
        r.push(Diagnostic::error(
            "IC0301",
            Location::Candidate { index: 2 },
            "non-convex",
        ));
        enforce("unit", &r);
    }
}
