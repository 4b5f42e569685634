//! The surface-scan gate as a tier-1 test: `scripts/surface_scan.sh --check`
//! must exit 0, so a `pub fn` without a caller or a `KEPT` reason, an
//! `unsafe` site outside the GEMM and the dispatched loops, a contracted
//! multiply-add outside the GEMM tile or a second byte decoder fails
//! `cargo test` (the script's header lists every scan).

use std::process::Command;

#[test]
fn the_surface_scan_check_passes() {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = Command::new("bash")
        .arg(format!("{root}/scripts/surface_scan.sh"))
        .arg("--check")
        .output()
        .expect("bash runs");
    assert!(
        out.status.success(),
        "surface_scan.sh --check exited {:?}\n--- stdout\n{}\n--- stderr\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}
