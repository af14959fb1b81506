//! Programs and registered custom-instruction semantics.

use crate::function::Function;
use crate::opcode::{self, Opcode};
use std::collections::BTreeMap;

/// Source of one input of a semantic node inside a [`CfuSemantics`] DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemSrc {
    /// The `i`-th input operand of the custom instruction.
    Input(u8),
    /// The result of an earlier node in the semantics DAG.
    Node(u16),
    /// A constant hardwired into the function unit.
    Imm(i64),
}

/// One operation inside a custom instruction's semantics DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemOp {
    /// Primitive operation. Loads are permitted when the hardware library
    /// allows memory inside CFUs (the paper's §6 relaxation); stores,
    /// branches and nested customs never are.
    pub opcode: Opcode,
    /// Where each operand comes from.
    pub srcs: Vec<SemSrc>,
}

/// Executable semantics of a custom function unit: a DAG of primitive
/// operations in topological order, plus which node values the instruction
/// writes to its destination registers.
///
/// Registered in the [`Program`] when the compiler replaces a subgraph, and
/// looked up by the functional interpreter — this is what lets the test
/// suite *prove* that replacement preserved program behaviour.
///
/// # Example
///
/// ```
/// use isax_ir::{CfuSemantics, Opcode, SemOp, SemSrc};
///
/// // cfu(a, b) = (a << 2) + b
/// let sem = CfuSemantics {
///     ops: vec![
///         SemOp { opcode: Opcode::Shl, srcs: vec![SemSrc::Input(0), SemSrc::Imm(2)] },
///         SemOp { opcode: Opcode::Add, srcs: vec![SemSrc::Node(0), SemSrc::Input(1)] },
///     ],
///     outputs: vec![1],
///     inputs: 2,
/// };
/// assert_eq!(sem.eval(&[3, 5]), vec![17]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfuSemantics {
    /// Operations in topological order (a node may only reference earlier
    /// nodes).
    pub ops: Vec<SemOp>,
    /// Indices into `ops` whose values are written to destination
    /// registers, in destination order.
    pub outputs: Vec<u16>,
    /// Number of input operands the instruction takes.
    pub inputs: u8,
}

impl CfuSemantics {
    /// Evaluates a pure (load-free) DAG on the given input values.
    ///
    /// # Panics
    ///
    /// Panics if `args` is shorter than `inputs`, if a node references a
    /// later node, or if the DAG contains memory/custom opcodes — use
    /// [`CfuSemantics::eval_with`] for load-bearing units.
    pub fn eval(&self, args: &[u32]) -> Vec<u32> {
        self.eval_with(args, |op, _| panic!("cfu semantics contain memory op {op}"))
    }

    /// Evaluates the DAG, resolving load operations through `load`
    /// (`load(opcode, address)` must honour the opcode's width and sign
    /// semantics). The DAG never contains stores, so evaluation order
    /// within the unit cannot matter.
    ///
    /// # Panics
    ///
    /// Panics if `args` is shorter than `inputs`, if a node references a
    /// later node, or if a store/custom opcode appears.
    pub fn eval_with(&self, args: &[u32], mut load: impl FnMut(Opcode, u32) -> u32) -> Vec<u32> {
        assert!(
            args.len() >= self.inputs as usize,
            "cfu expects {} inputs, got {}",
            self.inputs,
            args.len()
        );
        let mut vals: Vec<u32> = Vec::with_capacity(self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            let operands: Vec<u32> = op
                .srcs
                .iter()
                .map(|s| match *s {
                    SemSrc::Input(k) => args[k as usize],
                    SemSrc::Node(n) => {
                        assert!((n as usize) < i, "semantics DAG not topological");
                        vals[n as usize]
                    }
                    SemSrc::Imm(v) => v as u32,
                })
                .collect();
            let value = if op.opcode.is_load() {
                load(op.opcode, operands[0])
            } else {
                opcode::eval(op.opcode, &operands)
            };
            vals.push(value);
        }
        self.outputs.iter().map(|&o| vals[o as usize]).collect()
    }

    /// Number of load operations inside the unit (0 for pure DAGs).
    pub fn load_count(&self) -> u32 {
        self.ops.iter().filter(|o| o.opcode.is_load()).count() as u32
    }
}

/// A whole application: functions plus the semantics of any custom
/// instructions the compiler has introduced.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The functions of the application.
    pub functions: Vec<Function>,
    /// Semantics for each `Opcode::Custom(id)` present in the code.
    pub cfu_semantics: BTreeMap<u16, CfuSemantics>,
}

impl Program {
    /// Creates a program from functions, with no custom instructions.
    pub fn new(functions: Vec<Function>) -> Self {
        Program {
            functions,
            cfu_semantics: BTreeMap::new(),
        }
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Total instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(|f| f.inst_count()).sum()
    }

    /// The functions in the textual IR format (each function's
    /// `Display`, joined by `\n`): what `isax compile --emit` writes and
    /// what [`crate::parse_program`] reads back. Registered
    /// `cfu_semantics` are not part of it.
    pub fn functions_text(&self) -> String {
        let texts: Vec<String> = self.functions.iter().map(ToString::to_string).collect();
        texts.join("\n")
    }
}

impl FromIterator<Function> for Program {
    fn from_iter<T: IntoIterator<Item = Function>>(iter: T) -> Self {
        Program::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantics_eval_diamond() {
        // out = (a ^ b) << 3 | (a ^ b) >> 29  — a rotate built from a diamond.
        let sem = CfuSemantics {
            ops: vec![
                SemOp {
                    opcode: Opcode::Xor,
                    srcs: vec![SemSrc::Input(0), SemSrc::Input(1)],
                },
                SemOp {
                    opcode: Opcode::Shl,
                    srcs: vec![SemSrc::Node(0), SemSrc::Imm(3)],
                },
                SemOp {
                    opcode: Opcode::Shr,
                    srcs: vec![SemSrc::Node(0), SemSrc::Imm(29)],
                },
                SemOp {
                    opcode: Opcode::Or,
                    srcs: vec![SemSrc::Node(1), SemSrc::Node(2)],
                },
            ],
            outputs: vec![3],
            inputs: 2,
        };
        let a = 0x1234_5678u32;
        let b = 0x0F0F_0F0Fu32;
        assert_eq!(sem.eval(&[a, b]), vec![(a ^ b).rotate_left(3)]);
    }

    #[test]
    fn semantics_multiple_outputs() {
        // cfu(a, b) -> (a + b, a - b)
        let sem = CfuSemantics {
            ops: vec![
                SemOp {
                    opcode: Opcode::Add,
                    srcs: vec![SemSrc::Input(0), SemSrc::Input(1)],
                },
                SemOp {
                    opcode: Opcode::Sub,
                    srcs: vec![SemSrc::Input(0), SemSrc::Input(1)],
                },
            ],
            outputs: vec![0, 1],
            inputs: 2,
        };
        assert_eq!(sem.eval(&[10, 3]), vec![13, 7]);
    }

    #[test]
    #[should_panic(expected = "not topological")]
    fn forward_reference_rejected() {
        let sem = CfuSemantics {
            ops: vec![SemOp {
                opcode: Opcode::Not,
                srcs: vec![SemSrc::Node(0)],
            }],
            outputs: vec![0],
            inputs: 0,
        };
        let _ = sem.eval(&[]);
    }

    #[test]
    fn load_bearing_semantics_use_the_callback() {
        // cfu(a) = mem32[a] + 1
        let sem = CfuSemantics {
            ops: vec![
                SemOp {
                    opcode: Opcode::LdW,
                    srcs: vec![SemSrc::Input(0)],
                },
                SemOp {
                    opcode: Opcode::Add,
                    srcs: vec![SemSrc::Node(0), SemSrc::Imm(1)],
                },
            ],
            outputs: vec![1],
            inputs: 1,
        };
        assert_eq!(sem.load_count(), 1);
        let out = sem.eval_with(&[0x40], |op, addr| {
            assert_eq!(op, Opcode::LdW);
            assert_eq!(addr, 0x40);
            99
        });
        assert_eq!(out, vec![100]);
    }

    #[test]
    #[should_panic(expected = "contain memory op")]
    fn pure_eval_rejects_loads() {
        let sem = CfuSemantics {
            ops: vec![SemOp {
                opcode: Opcode::LdW,
                srcs: vec![SemSrc::Input(0)],
            }],
            outputs: vec![0],
            inputs: 1,
        };
        let _ = sem.eval(&[0]);
    }

    #[test]
    fn program_lookup() {
        use crate::builder::FunctionBuilder;
        let mut fb = FunctionBuilder::new("f", 1);
        let x = fb.param(0);
        fb.ret(&[x.into()]);
        let p = Program::new(vec![fb.finish()]);
        assert!(p.function("f").is_some());
        assert!(p.function("g").is_none());
        assert_eq!(p.inst_count(), 0);
    }
}
