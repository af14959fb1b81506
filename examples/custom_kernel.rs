//! Bring your own kernel: author an IR function with the builder, then
//! let the system design hardware for it and prove the rewrite correct.
//!
//! ```sh
//! cargo run --release --example custom_kernel
//! ```
//!
//! The kernel here is a Fowler–Noll–Vo (FNV-1a) hash over a byte buffer —
//! a realistic little loop that is *not* one of the thirteen paper
//! benchmarks, showing the toolflow is fully general.

use isax::{Customizer, MatchOptions};
use isax_ir::{FunctionBuilder, Program};
use isax_machine::{run, Memory};

const BUF: u32 = 0x5000;
const LEN: u32 = 64;

/// fnv1a(init) over LEN bytes at BUF; also counts high-bit bytes.
fn build_kernel() -> Program {
    let mut fb = FunctionBuilder::new("fnv1a", 1);
    let init = fb.param(0);
    let body = fb.new_block(64_000);
    let exit = fb.new_block(1_000);

    let h = fb.fresh();
    let highs = fb.fresh();
    let p = fb.fresh();
    let n = fb.fresh();
    fb.copy_to(h, init);
    fb.copy_to(highs, 0i64);
    fb.copy_to(p, BUF as i64);
    fb.copy_to(n, LEN as i64);
    fb.jump(body);

    fb.switch_to(body);
    let c = fb.ldbu(p);
    let hx = fb.xor(h, c);
    // h *= 16777619 decomposed into shift-adds, as a strength-reducing
    // compiler would emit: h * 0x01000193 = (h<<24) + (h<<8) + (h<<7) +
    // (h<<4) + (h<<1) + h
    let s24 = fb.shl(hx, 24i64);
    let s8 = fb.shl(hx, 8i64);
    let s7 = fb.shl(hx, 7i64);
    let s4 = fb.shl(hx, 4i64);
    let s1 = fb.shl(hx, 1i64);
    let a0 = fb.add(s24, s8);
    let a1 = fb.add(a0, s7);
    let a2 = fb.add(a1, s4);
    let a3 = fb.add(a2, s1);
    let h1 = fb.add(a3, hx);
    fb.copy_to(h, h1);
    let hi = fb.shr(c, 7i64);
    let hs = fb.add(highs, hi);
    fb.copy_to(highs, hs);
    let p1 = fb.add(p, 1i64);
    fb.copy_to(p, p1);
    let n1 = fb.sub(n, 1i64);
    fb.copy_to(n, n1);
    let more = fb.ne(n, 0i64);
    fb.branch(more, body, exit);

    fb.switch_to(exit);
    fb.ret(&[h.into(), highs.into()]);
    Program::new(vec![fb.finish()])
}

fn reference(init: u32, buf: &[u8]) -> (u32, u32) {
    let mut h = init;
    let mut highs = 0;
    for &b in buf {
        h = (h ^ b as u32).wrapping_mul(16_777_619);
        highs += (b >> 7) as u32;
    }
    (h, highs)
}

fn main() {
    let program = build_kernel();
    isax_ir::verify_program(&program).expect("kernel verifies");

    let cz = Customizer::new();
    let (mdes, _) = cz.customize("fnv1a", &program, 12.0);
    println!("CFUs designed for the FNV-1a kernel:");
    for (i, cfu) in mdes.cfus.iter().enumerate() {
        println!("  cfu{i:<2} {:<34} {:.2} adders", cfu.name, cfu.area);
    }
    let ev = cz.evaluate(&program, &mdes, MatchOptions::exact());
    println!(
        "\nbaseline {} -> custom {} cycles, speedup {:.2}x\n",
        ev.baseline_cycles, ev.custom_cycles, ev.speedup
    );

    // Execute both versions and compare with the native reference.
    let buf: Vec<u8> = (0..LEN).map(|i| (i * 37 + 11) as u8).collect();
    let mut m1 = Memory::new();
    m1.store_bytes(BUF, &buf);
    let mut m2 = m1.clone();
    let init = 0x811C_9DC5;
    let a = run(&program, "fnv1a", &[init], &mut m1, 100_000).unwrap();
    let b = run(&ev.compiled.program, "fnv1a", &[init], &mut m2, 100_000).unwrap();
    let (rh, rhi) = reference(init, &buf);
    assert_eq!(a.ret, vec![rh, rhi], "IR kernel computes real FNV-1a");
    assert_eq!(a.ret, b.ret, "customized kernel is equivalent");
    println!(
        "hash {:#010x}, {} high-bit bytes — baseline, customized and native\n\
         reference all agree ✓",
        rh, rhi
    );
}
