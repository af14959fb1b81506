//! Ergonomic construction of IR functions.
//!
//! The thirteen benchmark kernels in `isax-workloads` are authored through
//! this builder, so it aims for the readability of straight-line
//! pseudo-assembly:
//!
//! ```
//! use isax_ir::FunctionBuilder;
//!
//! let mut fb = FunctionBuilder::new("hash_step", 2);
//! let h = fb.param(0);
//! let c = fb.param(1);
//! let t = fb.shl(h, 5i64);       // h << 5
//! let t = fb.add(t, h);          // h*33
//! let h2 = fb.xor(t, c);         // ^ c
//! fb.ret(&[h2.into()]);
//! let f = fb.finish();
//! assert_eq!(f.blocks[0].insts.len(), 3);
//! ```

use crate::block::{BasicBlock, BlockId, Terminator};
use crate::inst::{Inst, Operand, VReg};
use crate::opcode::Opcode;
use crate::Function;

/// Incremental builder for a [`Function`].
///
/// Blocks are created with [`FunctionBuilder::new_block`] and filled by
/// switching the insertion point with [`FunctionBuilder::switch_to`]. The
/// entry block (id 0, weight 1) exists from the start.
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    params: Vec<VReg>,
    blocks: Vec<BasicBlock>,
    current: BlockId,
    next_vreg: u32,
    /// Blocks whose terminator has been explicitly set.
    terminated: Vec<bool>,
}

macro_rules! binop {
    ($(#[$doc:meta] $name:ident => $op:ident),* $(,)?) => {
        $(
            #[$doc]
            pub fn $name(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
                self.op2(Opcode::$op, a.into(), b.into())
            }
        )*
    };
}

macro_rules! unop {
    ($(#[$doc:meta] $name:ident => $op:ident),* $(,)?) => {
        $(
            #[$doc]
            pub fn $name(&mut self, a: impl Into<Operand>) -> VReg {
                self.op1(Opcode::$op, a.into())
            }
        )*
    };
}

impl FunctionBuilder {
    /// Starts a function with `nparams` parameter registers. The insertion
    /// point is the entry block.
    pub fn new(name: &str, nparams: u32) -> Self {
        FunctionBuilder {
            name: name.to_string(),
            params: (0..nparams).map(VReg).collect(),
            blocks: vec![BasicBlock::new(1)],
            current: BlockId(0),
            next_vreg: nparams,
            terminated: vec![false],
        }
    }

    /// The `i`-th parameter register.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> VReg {
        self.params[i]
    }

    /// Allocates a fresh virtual register without defining it (useful for
    /// loop-carried values initialised along multiple paths).
    pub fn fresh(&mut self) -> VReg {
        let r = VReg(self.next_vreg);
        self.next_vreg += 1;
        r
    }

    /// Creates a new empty block with the given profile weight.
    pub fn new_block(&mut self, weight: u64) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock::new(weight));
        self.terminated.push(false);
        id
    }

    /// Sets the profile weight of the entry block.
    pub fn set_entry_weight(&mut self, weight: u64) {
        self.blocks[0].weight = weight;
    }

    /// Moves the insertion point.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(b.index() < self.blocks.len(), "unknown block {b}");
        self.current = b;
    }

    /// Appends a raw instruction at the insertion point.
    pub fn push(&mut self, inst: Inst) {
        self.blocks[self.current.index()].insts.push(inst);
    }

    fn def(&mut self) -> VReg {
        self.fresh()
    }

    fn op2(&mut self, op: Opcode, a: Operand, b: Operand) -> VReg {
        let d = self.def();
        self.push(Inst::new(op, vec![d], vec![a, b]));
        d
    }

    fn op1(&mut self, op: Opcode, a: Operand) -> VReg {
        let d = self.def();
        self.push(Inst::new(op, vec![d], vec![a]));
        d
    }

    binop! {
        /// `a + b`
        add => Add,
        /// `a - b`
        sub => Sub,
        /// `a * b` (low 32 bits)
        mul => Mul,
        /// `a / b` (signed)
        div => Div,
        /// `a % b` (signed)
        rem => Rem,
        /// `a & b`
        and => And,
        /// `a | b`
        or => Or,
        /// `a ^ b`
        xor => Xor,
        /// `a & !b`
        andn => AndN,
        /// `a << b`
        shl => Shl,
        /// `a >> b` (logical)
        shr => Shr,
        /// `a >> b` (arithmetic)
        sar => Sar,
        /// `rotate_right(a, b)`
        ror => Ror,
        /// `a == b`
        eq => Eq,
        /// `a != b`
        ne => Ne,
        /// `a < b` (signed)
        lt => Lt,
        /// `a <= b` (signed)
        le => Le,
        /// `a > b` (signed)
        gt => Gt,
        /// `a >= b` (signed)
        ge => Ge,
        /// `a < b` (unsigned)
        ltu => Ltu,
        /// `a <= b` (unsigned)
        leu => Leu,
        /// `a > b` (unsigned)
        gtu => Gtu,
        /// `a >= b` (unsigned)
        geu => Geu,
    }

    unop! {
        /// bitwise complement
        not_ => Not,
        /// register copy / immediate materialization
        mov => Mov,
        /// sign-extend low byte
        sxtb => SxtB,
        /// sign-extend low half
        sxth => SxtH,
        /// zero-extend low byte
        zxtb => ZxtB,
        /// zero-extend low half
        zxth => ZxtH,
        /// load signed byte
        ldb => LdB,
        /// load unsigned byte
        ldbu => LdBu,
        /// load signed half
        ldh => LdH,
        /// load unsigned half
        ldhu => LdHu,
        /// load word
        ldw => LdW,
    }

    /// `cond != 0 ? a : b`
    pub fn select(
        &mut self,
        cond: impl Into<Operand>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> VReg {
        let d = self.def();
        self.push(Inst::new(
            Opcode::Select,
            vec![d],
            vec![cond.into(), a.into(), b.into()],
        ));
        d
    }

    /// `mem8[addr] = val`
    pub fn stb(&mut self, addr: impl Into<Operand>, val: impl Into<Operand>) {
        self.push(Inst::new(
            Opcode::StB,
            vec![],
            vec![addr.into(), val.into()],
        ));
    }

    /// `mem16[addr] = val`
    pub fn sth(&mut self, addr: impl Into<Operand>, val: impl Into<Operand>) {
        self.push(Inst::new(
            Opcode::StH,
            vec![],
            vec![addr.into(), val.into()],
        ));
    }

    /// `mem32[addr] = val`
    pub fn stw(&mut self, addr: impl Into<Operand>, val: impl Into<Operand>) {
        self.push(Inst::new(
            Opcode::StW,
            vec![],
            vec![addr.into(), val.into()],
        ));
    }

    /// Redefines an *existing* register: `dst = src`. This is how
    /// loop-carried values are expressed in this non-SSA IR.
    pub fn copy_to(&mut self, dst: VReg, src: impl Into<Operand>) {
        self.push(Inst::new(Opcode::Mov, vec![dst], vec![src.into()]));
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.terminate(Terminator::Jump(target));
    }

    /// Terminates the current block with a conditional branch.
    pub fn branch(&mut self, cond: VReg, taken: BlockId, not_taken: BlockId) {
        self.terminate(Terminator::Branch {
            cond,
            taken,
            not_taken,
        });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, vals: &[Operand]) {
        self.terminate(Terminator::Ret(vals.to_vec()));
    }

    fn terminate(&mut self, t: Terminator) {
        let c = self.current.index();
        assert!(
            !self.terminated[c],
            "block {} terminated twice",
            self.current
        );
        self.blocks[c].term = t;
        self.terminated[c] = true;
    }

    /// Finishes the function.
    ///
    /// # Panics
    ///
    /// Panics if any block was left unterminated.
    pub fn finish(self) -> Function {
        for (i, t) in self.terminated.iter().enumerate() {
            assert!(*t, "block b{i} of {} left unterminated", self.name);
        }
        Function {
            name: self.name,
            params: self.params,
            blocks: self.blocks,
            vreg_count: self.next_vreg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Opcode;

    #[test]
    fn straight_line() {
        let mut fb = FunctionBuilder::new("f", 2);
        let a = fb.param(0);
        let b = fb.param(1);
        let t = fb.xor(a, b);
        let u = fb.shl(t, 3i64);
        fb.ret(&[u.into()]);
        let f = fb.finish();
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 2);
        assert_eq!(f.blocks[0].insts[0].opcode, Opcode::Xor);
        assert_eq!(f.vreg_count, 4);
    }

    #[test]
    fn stores_have_no_defs() {
        let mut fb = FunctionBuilder::new("f", 2);
        let addr = fb.param(0);
        let v = fb.param(1);
        fb.stw(addr, v);
        fb.ret(&[]);
        let f = fb.finish();
        assert!(f.blocks[0].insts[0].dsts.is_empty());
    }

    #[test]
    fn multi_block_with_loop() {
        let mut fb = FunctionBuilder::new("f", 1);
        let n = fb.param(0);
        let body = fb.new_block(10);
        let exit = fb.new_block(1);
        fb.jump(body);
        fb.switch_to(body);
        let n2 = fb.sub(n, 1i64);
        fb.copy_to(n, n2);
        let c = fb.ne(n, 0i64);
        fb.branch(c, body, exit);
        fb.switch_to(exit);
        fb.ret(&[n.into()]);
        let f = fb.finish();
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(f.blocks[1].weight, 10);
    }

    #[test]
    #[should_panic(expected = "terminated twice")]
    fn double_termination_panics() {
        let mut fb = FunctionBuilder::new("f", 0);
        fb.ret(&[]);
        fb.ret(&[]);
    }

    #[test]
    #[should_panic(expected = "left unterminated")]
    fn unterminated_block_panics() {
        let mut fb = FunctionBuilder::new("f", 0);
        let _b = fb.new_block(1);
        fb.ret(&[]);
        let _ = fb.finish();
    }

    #[test]
    fn fresh_registers_do_not_collide() {
        let mut fb = FunctionBuilder::new("f", 3);
        let r1 = fb.fresh();
        let r2 = fb.fresh();
        assert_ne!(r1, r2);
        assert!(r1.0 >= 3);
        fb.ret(&[]);
    }
}
