//! End-to-end tests of the `bp lint` subcommand: exit 0 on the
//! committed tree, nonzero with file:line diagnostics on a seeded
//! mini-workspace with planted violations.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bp"))
}

#[test]
fn lint_exits_zero_on_committed_tree() {
    let out = bp()
        .arg("lint")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("bp runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "bp lint failed on the committed tree:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

#[test]
fn lint_json_is_well_formed_on_committed_tree() {
    let out = bp()
        .args(["lint", "--json"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("bp runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"tool\": \"bp-lint\""), "{stdout}");
    assert!(stdout.contains("\"violations\""), "{stdout}");
}

/// Builds a throwaway workspace with one planted violation per rule
/// family and asserts `bp lint` reports each at its file:line.
#[test]
fn lint_fails_with_file_line_diagnostics_on_seeded_violations() {
    let dir = scratch_dir("bp-lint-cli-seeded");
    fs::write(
        dir.join("Cargo.toml"),
        "[workspace]\nmembers = []\n\n[package]\nname = \"seeded\"\nversion = \"0.0.0\"\n",
    )
    .expect("write manifest");
    let tage = dir.join("crates/tage/src");
    fs::create_dir_all(&tage).expect("mkdir");
    fs::write(
        tage.join("composed.rs"),
        "fn hot() {\n    let v = Vec::new();\n    drop(v);\n}\n",
    )
    .expect("write hot fixture");
    let sim = dir.join("crates/sim/src");
    fs::create_dir_all(&sim).expect("mkdir");
    fs::write(
        sim.join("report.rs"),
        "use std::collections::HashMap;\n\nfn f() {\n    unsafe { g() }\n}\n",
    )
    .expect("write report fixture");

    let out = bp()
        .arg("lint")
        .current_dir(&dir)
        .output()
        .expect("bp runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "bp lint must fail on seeded violations:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/tage/src/composed.rs:2: hot-path-alloc"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/sim/src/report.rs:1: determinism"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/sim/src/report.rs:4: unsafe-audit"),
        "{stdout}"
    );

    fs::remove_dir_all(&dir).ok();
}

/// `--fix-audit` writes the inventory, after which plain `lint` stops
/// reporting audit drift on the same tree.
#[test]
fn fix_audit_round_trips() {
    let dir = scratch_dir("bp-lint-cli-audit");
    fs::write(
        dir.join("Cargo.toml"),
        "[workspace]\nmembers = []\n\n[package]\nname = \"seeded\"\nversion = \"0.0.0\"\n",
    )
    .expect("write manifest");
    let src = dir.join("src");
    fs::create_dir_all(&src).expect("mkdir");
    fs::write(
        src.join("lib.rs"),
        "fn f() {\n    // SAFETY: fixture; g is a no-op.\n    unsafe { g() }\n}\n",
    )
    .expect("write fixture");

    // Without an inventory the lint fails on audit drift alone.
    let out = bp()
        .arg("lint")
        .current_dir(&dir)
        .output()
        .expect("bp runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("UNSAFE_AUDIT.md"));

    let out = bp()
        .args(["lint", "--fix-audit"])
        .current_dir(&dir)
        .output()
        .expect("bp runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let audit = fs::read_to_string(dir.join("UNSAFE_AUDIT.md")).expect("inventory written");
    assert!(audit.contains("src/lib.rs:3"), "{audit}");
    assert!(audit.contains("fixture; g is a no-op."), "{audit}");

    let out = bp()
        .arg("lint")
        .current_dir(&dir)
        .output()
        .expect("bp runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    fs::remove_dir_all(&dir).ok();
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
    if Path::new(&dir).exists() {
        fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
