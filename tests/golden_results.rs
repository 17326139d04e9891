//! Golden-file regression tests: the paper-reproduction tables the
//! report binary writes to `results/` must regenerate byte-identically
//! against snapshots checked into `tests/golden/`. Any intentional model
//! change must re-bless the snapshots with `UPDATE_GOLDEN=1 cargo test`.

use std::fs;
use std::path::PathBuf;

use codesign_bench::experiments::{dse_sweep, headlines, table1, table2, Context};
use codesign_bench::Table;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.csv"))
}

/// Compares `generate`'s CSV against the checked-in snapshot, or
/// re-blesses the snapshot when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, generate: fn(&Context) -> Table) {
    let got = generate(&Context::paper_default()).to_csv();
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        fs::write(&path, &got).expect("write golden snapshot");
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); bless it with `UPDATE_GOLDEN=1 cargo test`",
            path.display()
        )
    });
    if got != want {
        let mismatch = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, (g, w))| format!("first diff at line {}:\n  got:  {g}\n  want: {w}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "line count differs: got {}, want {}",
                    got.lines().count(),
                    want.lines().count()
                )
            });
        panic!(
            "{name}.csv drifted from tests/golden ({mismatch})\n\
             If the change is intentional, re-bless with `UPDATE_GOLDEN=1 cargo test`."
        );
    }
}

#[test]
fn table1_matches_golden() {
    check_golden("table1", table1);
}

#[test]
fn table2_matches_golden() {
    check_golden("table2", table2);
}

#[test]
fn headlines_match_golden() {
    check_golden("headlines", headlines);
}

#[test]
fn sweep_matches_golden() {
    check_golden("sweep", dse_sweep);
}
