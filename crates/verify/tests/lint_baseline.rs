//! `ow-lint --json` is byte-deterministic and equal to the committed
//! baseline `results/verify_table2.json`: the placement search stops
//! after a fixed node count, not wall-clock, so a verdict, stage count,
//! density column or node count that moves fails here. Regenerate the
//! baseline with `cargo run --release -p ow-verify --bin ow-lint --
//! --json > results/verify_table2.json` when a change means to move it.

use std::process::Command;

fn lint_json() -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_ow-lint"))
        .arg("--json")
        .output()
        .expect("ow-lint runs");
    assert!(
        out.status.success(),
        "ow-lint rejected a catalog program:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn lint_json_is_deterministic_and_matches_the_baseline() {
    let first = lint_json();
    assert!(first == lint_json(), "two ow-lint --json runs differ");
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/verify_table2.json"
    );
    let baseline = std::fs::read(baseline).expect("results/verify_table2.json is committed");
    assert!(
        first == baseline,
        "ow-lint --json differs from results/verify_table2.json:\n{}",
        String::from_utf8_lossy(&first)
    );
}
