//! Integration tests for `fex diag` against the real binary: the
//! exit-code contract (2 on error findings, 0 otherwise, 1 on unreadable
//! input), the SARIF 2.1.0 output shape, byte-determinism across runs
//! (the differential idiom of `tests/journal_diff.rs` applied to the
//! diagnostics engine), the `fex report` empty-journal
//! contract, and `fex lab list` with the repro column and `--json` mode.

use std::path::Path;
use std::process::{Command, Output};

mod common;
use common::TempDir;

use fex_core::lab::{RunArtifacts, RunStore};
use fex_core::{ExperimentConfig, JournalEvent};

fn temp_dir(tag: &str) -> TempDir {
    TempDir::new("fex-diag-it", tag)
}

fn fex(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fex")).args(args).current_dir(dir).output().expect("spawn fex")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A minimal healthy journal: start, both phase ends, end.
fn healthy_journal() -> String {
    let events = [
        JournalEvent::ExperimentStart {
            name: "micro".into(),
            jobs: 1,
            seed: 7,
            version: fex_core::journal::JOURNAL_VERSION,
        },
        JournalEvent::DecodeCache { decodes: 1, served: 2 },
        JournalEvent::PhaseEnd { phase: "run".into(), wall_ns: 5 },
        JournalEvent::PhaseEnd { phase: "collect".into(), wall_ns: 5 },
        JournalEvent::ExperimentEnd { rows: 1, failure_records: 0, wall_ns: 10 },
    ];
    events.iter().map(|e| e.to_json() + "\n").collect()
}

fn results_csv(bench: &str, times: &[f64]) -> String {
    let mut csv = String::from("suite,benchmark,type,threads,input,rep,time\n");
    for (rep, t) in times.iter().enumerate() {
        csv.push_str(&format!("micro,{bench},gcc_native,1,test,{rep},{t}\n"));
    }
    csv
}

fn save_run(store: &RunStore, config: &ExperimentConfig, results: &str) {
    let art = RunArtifacts {
        results_csv: results,
        failures_csv: "benchmark\n",
        metrics_json: None,
        journal_digest: Some("fex256:test"),
    };
    store.save(config, &art).unwrap();
}

// ---------------------------------------------------------------------
// exit-code contract
// ---------------------------------------------------------------------

#[test]
fn clean_journal_exits_zero() {
    let dir = temp_dir("clean");
    std::fs::write(dir.join("run.jsonl"), healthy_journal()).unwrap();
    let out = fex(&dir, &["diag", "run.jsonl"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("no findings"), "{}", stdout(&out));
}

#[test]
fn malformed_journal_exits_two() {
    let dir = temp_dir("malformed");
    let mut journal = healthy_journal();
    journal.push_str("this is not json\n");
    std::fs::write(dir.join("run.jsonl"), journal).unwrap();
    let out = fex(&dir, &["diag", "run.jsonl"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("journal-integrity"), "{}", stdout(&out));
    assert!(stderr(&out).contains("error-severity"), "{}", stderr(&out));
}

#[test]
fn unreadable_inputs_exit_one_naming_the_path() {
    let dir = temp_dir("unreadable");
    let out = fex(&dir, &["diag", "missing.jsonl"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("missing.jsonl"), "{}", stderr(&out));

    let out = fex(&dir, &["diag", "--lab", "no-such-lab"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("no-such-lab"), "{}", stderr(&out));

    // The removed `--config` and `--jobs` flags fail loudly.
    std::fs::write(dir.join("run.jsonl"), healthy_journal()).unwrap();
    for removed in [["--config", "nope.toml"], ["--jobs", "2"]] {
        let out = fex(&dir, &["diag", "run.jsonl", removed[0], removed[1]]);
        assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
        assert!(stderr(&out).contains("unknown diag flag"), "{}", stderr(&out));
    }
}

#[test]
fn stored_regression_exits_two_with_sarif() {
    let dir = temp_dir("regression");
    let store = RunStore::open(dir.join("lab")).unwrap();
    let config = ExperimentConfig::new("micro").repetitions(3);
    save_run(&store, &config, &results_csv("a", &[1.0, 1.01, 0.99]));
    save_run(&store, &config, &results_csv("a", &[2.0, 2.01, 1.99]));
    let out = fex(&dir, &["diag", "--lab", "lab", "--format", "sarif"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("\"ruleId\": \"significant-regression\""), "{}", stdout(&out));
}

#[test]
fn deny_silences_a_rule_and_flips_the_exit_code() {
    let dir = temp_dir("deny");
    let mut journal = healthy_journal();
    journal.push_str("garbage\n");
    std::fs::write(dir.join("run.jsonl"), journal).unwrap();
    let out = fex(&dir, &["diag", "run.jsonl", "--deny", "journal-integrity"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let out = fex(&dir, &["diag", "run.jsonl", "--rules", "flakiness,variance-anomaly"]);
    assert!(out.status.success(), "allow-list without integrity passes");

    // An empty restriction is an error, not a silent "run every rule".
    let out = fex(&dir, &["diag", "run.jsonl", "--rules", ""]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--rules needs rule ids"), "{}", stderr(&out));
}

// ---------------------------------------------------------------------
// SARIF shape + determinism
// ---------------------------------------------------------------------

/// Builds a context that exercises journal and store rules at once.
fn mixed_fixture(tag: &str) -> TempDir {
    let dir = temp_dir(tag);
    let mut journal = healthy_journal();
    journal.push_str("garbage line one\n");
    journal.push_str("{\"event\": \"martian\"}\n");
    std::fs::write(dir.join("run.jsonl"), journal).unwrap();
    let store = RunStore::open(dir.join("lab")).unwrap();
    let config = ExperimentConfig::new("micro").repetitions(3);
    save_run(&store, &config, &results_csv("a", &[1.0, 1.01, 0.99]));
    save_run(&store, &config, &results_csv("a", &[2.0, 2.01, 1.99]));
    dir
}

#[test]
fn sarif_has_the_2_1_0_shape() {
    let dir = mixed_fixture("sarif-shape");
    let out = fex(&dir, &["diag", "run.jsonl", "--lab", "lab", "--format", "sarif"]);
    let sarif = stdout(&out);
    for needle in [
        "\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\"",
        "\"version\": \"2.1.0\"",
        "\"runs\": [",
        "\"tool\": {",
        "\"driver\": {",
        "\"name\": \"fex diag\"",
        "\"results\": [",
        "\"ruleId\": \"journal-integrity\"",
        "\"ruleId\": \"significant-regression\"",
        "\"level\": \"error\"",
        "\"locations\": [",
        "\"artifactLocation\": { \"uri\": \"run.jsonl\" }",
        "\"startLine\": 6",
    ] {
        assert!(sarif.contains(needle), "missing `{needle}` in:\n{sarif}");
    }
}

#[test]
fn sarif_is_byte_identical_across_runs() {
    let dir = mixed_fixture("sarif-diff");
    let args = ["diag", "run.jsonl", "--lab", "lab", "--format", "sarif"];
    let baseline = stdout(&fex(&dir, &args));
    assert!(!baseline.is_empty());
    // Repeated invocations: no wall-clock or host fields can sneak in.
    assert_eq!(stdout(&fex(&dir, &args)), baseline, "re-run drifted");
}

#[test]
fn github_annotations_render() {
    let dir = mixed_fixture("github");
    let out = fex(&dir, &["diag", "run.jsonl", "--lab", "lab", "--format", "github"]);
    let gh = stdout(&out);
    assert!(gh.contains("::error file=run.jsonl,line=6,title=journal-integrity::"), "{gh}");
    assert!(gh.contains("::error file="), "{gh}");
}

#[test]
fn a_config_file_in_the_working_directory_has_no_effect() {
    let dir = temp_dir("toml");
    let mut journal = healthy_journal();
    journal.push_str("garbage\n");
    std::fs::write(dir.join("run.jsonl"), journal).unwrap();
    std::fs::write(dir.join("fex.toml"), "[diag]\ndeny = [\"journal-integrity\"]\n").unwrap();
    let out = fex(&dir, &["diag", "run.jsonl"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("journal-integrity"), "{}", stdout(&out));
}

// ---------------------------------------------------------------------
// fex report exit-code contract (satellite bugfix)
// ---------------------------------------------------------------------

#[test]
fn report_on_an_empty_journal_exits_one_naming_the_path() {
    let dir = temp_dir("report-empty");
    std::fs::write(dir.join("empty.jsonl"), "").unwrap();
    let out = fex(&dir, &["report", "empty.jsonl"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("empty.jsonl"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "no report rendered: {}", stdout(&out));
}

#[test]
fn report_on_an_all_malformed_journal_exits_one() {
    let dir = temp_dir("report-malformed");
    std::fs::write(dir.join("bad.jsonl"), "nope\nstill nope\n").unwrap();
    let out = fex(&dir, &["report", "bad.jsonl"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("bad.jsonl"), "{}", stderr(&out));
    assert!(stderr(&out).contains("2 malformed"), "{}", stderr(&out));
}

#[test]
fn report_on_a_healthy_journal_still_renders() {
    let dir = temp_dir("report-ok");
    std::fs::write(dir.join("run.jsonl"), healthy_journal()).unwrap();
    let out = fex(&dir, &["report", "run.jsonl"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("experiment `micro`"), "{}", stdout(&out));
}

// ---------------------------------------------------------------------
// fex lab list: repro column + --json (satellite)
// ---------------------------------------------------------------------

#[test]
fn lab_list_shows_the_repro_column() {
    let dir = temp_dir("lab-list");
    let store = RunStore::open(dir.join("lab")).unwrap();
    let config = ExperimentConfig::new("micro").repetitions(3);
    save_run(&store, &config, &results_csv("a", &[1.0, 1.01, 0.99]));
    let out = fex(&dir, &["lab", "list", "--lab", "lab"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let table = stdout(&out);
    assert!(table.contains("repro"), "{table}");
    // journal 20 + reps 10 readiness, full 50 outcome.
    assert!(table.contains("80/100"), "{table}");
}

#[test]
fn lab_list_json_emits_one_flat_object_per_line() {
    let dir = temp_dir("lab-json");
    let store = RunStore::open(dir.join("lab")).unwrap();
    let config = ExperimentConfig::new("micro").repetitions(3);
    save_run(&store, &config, &results_csv("a", &[1.0, 1.01, 0.99]));
    save_run(&store, &config, &results_csv("a", &[1.02, 1.0, 0.98]));
    let out = fex(&dir, &["lab", "list", "--json", "--lab", "lab"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let listing = stdout(&out);
    let lines: Vec<&str> = listing.lines().collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    for line in &lines {
        assert!(line.starts_with("{\"run_id\": \"fex256:"), "{line}");
        for field in [
            "\"seq\": ",
            "\"experiment\": ",
            "\"key\": ",
            "\"rows\": ",
            "\"failures\": ",
            "\"repro\": 80",
            "\"readiness\": 30",
            "\"outcome\": 50",
        ] {
            assert!(line.contains(field), "missing `{field}` in {line}");
        }
    }
}
