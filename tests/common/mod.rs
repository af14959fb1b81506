//! Helpers shared by the golden-file test binaries.

use std::path::PathBuf;

/// Path of the snapshot `tests/golden/<name>`.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Byte-for-byte comparison against `tests/golden/<name>`, or a
/// regeneration pass when `ISAX_BLESS=1`.
pub fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var("ISAX_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun with ISAX_BLESS=1 to generate the snapshot",
            path.display()
        )
    });
    assert!(
        expected == rendered,
        "{name} drifted from its golden snapshot.\n\
         If the change is intentional, rerun with ISAX_BLESS=1 and commit \
         the new snapshot.\n--- golden ---\n{expected}\n--- rendered ---\n{rendered}",
    );
}
