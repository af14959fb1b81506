//! Structured diagnostics: stable codes, severities, precise locations.
//!
//! Every checker pass reports through [`Diagnostic`] and [`Report`], so a
//! failure anywhere in the pipeline prints the same way: a stable `IC0xxx`
//! code, a severity, a location (function/block/instruction, DFG node,
//! candidate or CFU id) and a human-readable message. The code ranges:
//!
//! | range    | stage |
//! |----------|-------|
//! | `IC01xx` | IR / CFG well-formedness (shared with `isax_ir::verify`) |
//! | `IC02xx` | dataflow-graph construction |
//! | `IC03xx` | candidate / CFU legality (§3 constraints) |
//! | `IC04xx` | post-replacement soundness and schedule legality |
//! | `IC05xx` | differential semantic execution |
//! | `IC06xx` | resource-governance (degradation record) consistency |
//! | `IC07xx` | provenance-report cross-validation |
//! | `IC08xx` | dataflow lints (`IC0801`–`IC0805`, warnings) and value-fact soundness (`IC0810`/`IC0811`, errors) |

use isax_ir::{VerifyCode, VerifyError};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not proven unsound; never fails a checkpoint.
    Warning,
    /// An invariant violation; fails the enclosing checkpoint.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// No more precise attribution exists.
    Whole,
    /// A spot in the IR: function, block, and optionally an instruction.
    Code {
        /// Function name.
        function: String,
        /// Block index, when attributable.
        block: Option<usize>,
        /// Instruction index within the block (`None` for terminators).
        inst: Option<usize>,
    },
    /// A node of a per-block dataflow graph (DFGs indexed in
    /// function-then-block order, as the pipeline supplies them).
    Dfg {
        /// DFG index.
        dfg: usize,
        /// Node (instruction) index inside the DFG, when attributable.
        node: Option<usize>,
    },
    /// A raw exploration candidate, by index.
    Candidate {
        /// Candidate index.
        index: usize,
    },
    /// A combined CFU candidate, by index.
    CfuCandidate {
        /// CFU candidate index.
        index: usize,
    },
    /// A custom function unit in the machine description.
    Cfu {
        /// The CFU's position in `Mdes::cfus`.
        id: u16,
    },
    /// An interpreter entry point.
    Entry {
        /// Entry function name.
        function: String,
    },
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Location::Whole => Ok(()),
            Location::Code {
                function,
                block,
                inst,
            } => {
                write!(f, "{function}")?;
                if let Some(b) = block {
                    write!(f, ":b{b}")?;
                    if let Some(i) = inst {
                        write!(f, ":{i}")?;
                    }
                }
                Ok(())
            }
            Location::Dfg { dfg, node } => {
                write!(f, "dfg{dfg}")?;
                if let Some(v) = node {
                    write!(f, ":n{v}")?;
                }
                Ok(())
            }
            Location::Candidate { index } => write!(f, "candidate{index}"),
            Location::CfuCandidate { index } => write!(f, "cfu-candidate{index}"),
            Location::Cfu { id } => write!(f, "cfu{id}"),
            Location::Entry { function } => write!(f, "entry {function}"),
        }
    }
}

/// One checker finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`IC0xxx`).
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Where the finding points.
    pub location: Location,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Builds an error diagnostic.
    pub fn error(code: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            location,
            message: message.into(),
        }
    }

    /// Builds a warning diagnostic.
    pub fn warning(code: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            location,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if self.location != Location::Whole {
            write!(f, " at {}", self.location)?;
        }
        write!(f, ": {}", self.message)
    }
}

impl From<&VerifyError> for Diagnostic {
    fn from(e: &VerifyError) -> Self {
        Diagnostic::error(
            verify_code_str(e.code),
            Location::Code {
                function: e.function.clone(),
                block: e.block,
                inst: e.inst,
            },
            e.message.clone(),
        )
    }
}

/// Maps an IR verifier code to its stable string (the verifier owns the
/// `IC01xx` range of the taxonomy).
pub fn verify_code_str(c: VerifyCode) -> &'static str {
    c.code()
}

/// The outcome of running one or more checker passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Appends every finding of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// All findings, in the order the passes produced them.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// True when no **error**-severity finding is present (warnings do
    /// not fail checkpoints).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// True if any finding carries the given code.
    pub fn has_code(&self, code: &str) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.diags.is_empty() {
            return write!(f, "clean (no diagnostics)");
        }
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_code_location_and_message() {
        let d = Diagnostic::error(
            "IC0204",
            Location::Dfg {
                dfg: 3,
                node: Some(7),
            },
            "asap exceeds alap",
        );
        assert_eq!(d.to_string(), "error[IC0204] at dfg3:n7: asap exceeds alap");
    }

    #[test]
    fn report_counts_only_errors() {
        let mut r = Report::new();
        r.push(Diagnostic::warning("IC0205", Location::Whole, "hm"));
        assert!(r.is_clean());
        r.push(Diagnostic::error(
            "IC0301",
            Location::Candidate { index: 0 },
            "bad",
        ));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert!(r.has_code("IC0301"));
        assert!(!r.has_code("IC0401"));
    }

    #[test]
    fn verify_errors_convert_with_location() {
        let e = VerifyError {
            function: "f".into(),
            code: VerifyCode::UseBeforeDef,
            block: Some(3),
            inst: Some(1),
            message: "use of r9 before its definition on some path".into(),
        };
        let d = Diagnostic::from(&e);
        assert_eq!(d.code, "IC0105");
        assert_eq!(
            d.location,
            Location::Code {
                function: "f".into(),
                block: Some(3),
                inst: Some(1),
            }
        );
    }
}
