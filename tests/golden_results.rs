//! Golden-file regression tests: every artifact `report all --json`
//! writes to `results/` (the 21 experiment CSVs and `BENCH_report.json`)
//! must regenerate byte-identically against the committed copies there.
//! Any intentional model change must re-bless them with
//! `UPDATE_GOLDEN=1 cargo test --test golden_results`.

use std::fs;
use std::path::PathBuf;

use codesign_bench::experiments::{dse_sweep, generate, headlines, table1, table2, Context, ALL};
use codesign_bench::{BenchReport, Table};

/// Compares `got` against the committed `results/{file}`, or re-blesses
/// it when `UPDATE_GOLDEN` is set. Returns a description of the drift.
fn drift(file: &str, got: &str) -> Option<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results").join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, got).expect("write golden artifact");
        return None;
    }
    let want = match fs::read_to_string(&path) {
        Ok(want) if want == got => return None,
        Ok(want) => want,
        Err(e) => return Some(format!("{file}: missing ({e})")),
    };
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
    Some(format!("{file}: {mismatch}"))
}

fn assert_golden(drifted: &[String]) {
    assert!(
        drifted.is_empty(),
        "artifacts drifted from results/:\n{}\n\
         If the change is intentional, re-bless with `UPDATE_GOLDEN=1 cargo test --test golden_results`.",
        drifted.join("\n")
    );
}

#[test]
fn report_artifacts_match_golden() {
    // The same two calls `report all --json` makes.
    let ctx = Context::paper_default();
    let generated = generate(&ctx, &ALL);
    let json = BenchReport::collect(&ctx, &generated).to_json();
    let drifted: Vec<String> = generated
        .iter()
        .filter_map(|g| drift(&format!("{}.csv", g.name), &g.table.to_csv()))
        .chain(drift("BENCH_report.json", &json))
        .collect();
    assert_golden(&drifted);
}

/// An experiment generated alone, on a fresh cache and one worker, must
/// reproduce what the parallel suite wrote through its shared cache.
fn check_alone(name: &str, generate: fn(&Context) -> Table) {
    let got = generate(&Context::with_jobs(1)).to_csv();
    assert_golden(&drift(&format!("{name}.csv"), &got).into_iter().collect::<Vec<_>>());
}

#[test]
fn table1_matches_golden() {
    check_alone("table1", table1);
}

#[test]
fn table2_matches_golden() {
    check_alone("table2", table2);
}

#[test]
fn headlines_match_golden() {
    check_alone("headlines", headlines);
}

#[test]
fn sweep_matches_golden() {
    check_alone("sweep", dse_sweep);
}
