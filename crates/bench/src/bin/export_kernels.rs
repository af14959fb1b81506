//! Dumps the thirteen benchmark kernels as textual IR under `kernels/`,
//! ready for the `isax` command-line tool:
//!
//! ```sh
//! cargo run --release -p isax-bench --bin export_kernels
//! cargo run --release -p isax-cli --bin isax -- explore kernels/blowfish.isax
//! ```

#![forbid(unsafe_code)]

fn main() -> std::io::Result<()> {
    let _trace = isax_trace::init_from_env();
    let dir = std::path::Path::new("kernels");
    std::fs::create_dir_all(dir)?;
    for w in isax_workloads::all() {
        let path = dir.join(format!("{}.isax", w.name));
        std::fs::write(&path, w.program.functions_text())?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
