//! Committed goldens for the paper's results and the grid's reports.
//!
//! Every other identity check compares two paths inside one build (executor
//! vs oracle, micro-ops vs reference interpreter, traced vs untraced), so a
//! change that moves both sides at once passes all of them. These tests pin
//! the numbers themselves against files under `tests/golden/`:
//!
//! * `table1.txt`, `table2.txt`, `table3.json` — the stdout of the table
//!   binaries (Tables I–III),
//! * `advise.json` — the selective-hardening advisor on `password_check`
//!   and `pin_retry`, as `campaign --advise --json` prints it,
//! * `grid.txt` — the 60-cell catalog grid at 500 trials: the outcome
//!   counts of every cell plus the length and CRC-32 of the full report
//!   JSON,
//! * `condition.txt` — the Section VI condition-value Monte-Carlo.
//!
//! (`security.txt`, the full `security` stdout, is checked by CI on a
//! release build.) On a mismatch the test writes `<golden>.actual` beside
//! the golden and fails. To update a golden, copy the `.actual` file over
//! it on purpose and explain the change in CHANGES.md.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use secbranch::ancode::{Parameters, Predicate};
use secbranch::campaign::{ConditionCampaign, FaultModel};
use secbranch::store::format::crc32;
use secbranch::Session;
use secbranch_advisor::SelectiveHardening;
use secbranch_gridd::catalog;

/// Compares `actual` with the committed golden `name`. On a mismatch,
/// writes `name.actual` beside the golden and panics.
fn check(name: &str, actual: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let golden = dir.join(name);
    let actual_path = dir.join(format!("{name}.actual"));
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        let _ = std::fs::remove_file(&actual_path);
        return;
    }
    std::fs::write(&actual_path, actual).expect("writes the .actual file");
    panic!(
        "{name} differs from its golden; compare {} with {}",
        golden.display(),
        actual_path.display()
    );
}

fn stdout_of(exe: &str, args: &[&str]) -> String {
    let output = Command::new(exe).args(args).output().expect("binary runs");
    assert!(output.status.success(), "{exe} {args:?} failed");
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

#[test]
fn tables_match_their_goldens() {
    check("table1.txt", &stdout_of(env!("CARGO_BIN_EXE_table1"), &[]));
    check("table2.txt", &stdout_of(env!("CARGO_BIN_EXE_table2"), &[]));
    check(
        "table3.json",
        &stdout_of(env!("CARGO_BIN_EXE_table3"), &["--json"]),
    );
}

#[test]
fn advisor_matches_its_golden() {
    let driver = SelectiveHardening::new().with_max_steps(200_000);
    let parts: Vec<String> = ["password_check", "pin_retry"]
        .iter()
        .map(|name| {
            let workload = catalog::workload(name).expect("catalog workload");
            driver.advise(&workload).expect("advisor runs").to_json()
        })
        .collect();
    check(
        "advise.json",
        &format!("{{\"advise\":[{}]}}\n", parts.join(",")),
    );
}

#[test]
fn catalog_grid_matches_its_golden() {
    const WORKLOADS: [&str; 4] = ["integer_compare", "password_check", "crc32", "pin_retry"];
    const VARIANTS: [&str; 3] = ["unprotected", "cfi", "prototype"];
    let workloads: Vec<_> = WORKLOADS
        .iter()
        .map(|w| catalog::workload(w).expect("catalog workload"))
        .collect();
    let pipelines: Vec<_> = VARIANTS
        .iter()
        .map(|v| catalog::pipeline(v, 200_000).expect("catalog variant"))
        .collect();
    let models: Vec<Arc<dyn FaultModel + Send + Sync>> = catalog::MODELS
        .iter()
        .map(|m| catalog::model(m, 500).expect("catalog model"))
        .collect();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(|m| &**m as &dyn FaultModel).collect();
    let report = Session::new()
        .security_matrix(&workloads, &pipelines, &model_refs)
        .expect("grid runs");

    let mut out = String::new();
    let names = WORKLOADS.iter().flat_map(|w| {
        VARIANTS
            .iter()
            .flat_map(move |v| catalog::MODELS.iter().map(move |m| (w, v, m)))
    });
    assert_eq!(report.cells.len(), 60);
    for ((workload, variant, model), cell) in names.zip(&report.cells) {
        let c = cell.report.counts;
        let _ = writeln!(
            out,
            "{workload} {variant} {model} masked={} detected={} crashed={} wrong_undetected={}",
            c.masked, c.detected, c.crashed, c.wrong_result_undetected
        );
    }
    let json = report.to_json();
    let _ = writeln!(
        out,
        "report.json bytes={} crc32={:08x}",
        json.len(),
        crc32(json.as_bytes())
    );
    check("grid.txt", &out);
}

#[test]
fn condition_campaign_matches_its_golden() {
    let mut out = String::new();
    for predicate in [Predicate::Eq, Predicate::Ult] {
        let _ = writeln!(out, "predicate class: {predicate}");
        let mut campaign = ConditionCampaign::new(Parameters::paper_defaults(), predicate, 2018);
        for (bits, c) in campaign.sweep(6, 20_000) {
            let _ = writeln!(
                out,
                "{bits} detected={} masked={} undetected_flip={}",
                c.detected, c.masked, c.undetected_flip
            );
        }
    }
    check("condition.txt", &out);
}
