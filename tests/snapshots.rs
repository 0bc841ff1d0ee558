//! Golden-snapshot tests: every user-visible artifact of a small, fully
//! deterministic experiment is pinned byte-for-byte against checked-in
//! files under `tests/golden/`.
//!
//! The experiment is the `micro` suite over two build types with a
//! persistent trap injected into `ptrchase`, so the goldens cover the
//! interesting surface: a partial results CSV, a non-empty failure CSV
//! with recovery/quarantine outcomes, the collect-stage aggregate, one
//! SVG and one ASCII plot, and the journal's `metrics.json` roll-up
//! (wall-clock fields normalized to 0 — they are the only
//! non-deterministic bytes). A second experiment pins the results and
//! failure CSVs of a `phoenix_var` sweep: the input-size dimension, a dry
//! run, adaptive repetitions and transient faults whose quarantine lands
//! in the middle of the matrix.
//!
//! Regenerating after an intentional output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test snapshots
//! git diff tests/golden/   # review every byte you are about to bless
//! ```
//!
//! A failing snapshot prints the differing file; never update goldens
//! without reading the diff.

use fex_core::config::FaultInjection;
use fex_core::{ExperimentConfig, Fex, PlotRequest};
use fex_suites::InputSize;
use fex_vm::{FaultKind, FaultPlan, MeasureTool};

/// The checked-in golden directory (workspace-relative, resolved from
/// this crate's manifest so the test runs from any working directory).
fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compares `actual` against `tests/golden/<name>`, or rewrites the
/// golden when `UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden `{}` ({e}); regenerate with UPDATE_GOLDEN=1 cargo test --test snapshots",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "`{name}` drifted from its golden; if intentional, regenerate with \
         UPDATE_GOLDEN=1 and review the diff"
    );
}

/// Zeroes the value of every `*_ns` key: wall-clock durations are the
/// only fields of `metrics.json` that vary between observationally
/// identical runs.
fn normalize_metrics(json: &str) -> String {
    json.lines()
        .map(|line| match line.split_once("_ns\": ") {
            Some((head, tail)) => {
                let comma = if tail.ends_with(',') { "," } else { "" };
                format!("{head}_ns\": 0{comma}\n")
            }
            None => format!("{line}\n"),
        })
        .collect()
}

/// The pinned experiment: small, deterministic (explicit seed and jobs),
/// and troubled enough to exercise failures and quarantine.
fn golden_config() -> ExperimentConfig {
    ExperimentConfig::new("micro")
        .types(vec!["gcc_native", "clang_native"])
        .input(InputSize::Test)
        .repetitions(2)
        .jobs(1)
        .tool(MeasureTool::PerfStat)
        .fault(FaultInjection::for_benchmark("ptrchase", FaultPlan::persistent(FaultKind::Trap)))
}

fn golden_fex() -> Fex {
    let mut fex = Fex::new();
    fex.install("gcc-6.1").expect("install gcc");
    fex.install("clang-3.8").expect("install clang");
    fex
}

#[test]
fn results_and_failure_csvs_match_goldens() {
    let mut fex = golden_fex();
    fex.run(&golden_config()).expect("golden experiment runs");
    assert_golden("micro.results.csv", &fex.result_csv("micro").expect("results stored"));
    assert_golden("micro.failures.csv", &fex.failure_csv("micro").expect("failures stored"));
}

/// The second pinned experiment: the variable-input sweep over one
/// dry-run benchmark, with adaptive repetitions and transient faults armed
/// everywhere. With fault seed 8 the faults recover in `gcc_native` and
/// quarantine `histogram` after one `clang_native` row, so the goldens
/// cover the input-size dimension, retries, the adaptive controller's rep
/// counts and the units a quarantine drops.
fn variable_input_config() -> ExperimentConfig {
    ExperimentConfig::new("phoenix_var")
        .types(vec!["gcc_native", "clang_native"])
        .benchmark("histogram")
        .threads(vec![1, 2])
        .input(InputSize::Test)
        .adaptive_repetitions(2, 4, 0.01)
        .jobs(1)
        .tool(MeasureTool::PerfStat)
        .fault(FaultInjection::everywhere(FaultPlan::spurious(0.45, FaultKind::Trap, 8)))
}

#[test]
fn variable_input_adaptive_transient_csvs_match_goldens() {
    let mut fex = golden_fex();
    fex.install("phoenix_inputs").expect("install phoenix inputs");
    fex.run(&variable_input_config()).expect("variable-input experiment runs");
    let results = fex.result_csv("phoenix_var").expect("results stored");
    let failures = fex.failure_csv("phoenix_var").expect("failures stored");
    assert_golden("phoenix_var.results.csv", &results);
    assert_golden("phoenix_var.failures.csv", &failures);
}

#[test]
fn collect_aggregate_matches_golden() {
    let mut fex = golden_fex();
    fex.run(&golden_config()).expect("golden experiment runs");
    let df = fex.result("micro").expect("frame stored");
    let agg = df
        .group_agg(&["benchmark", "type"], "time", fex_core::collect::stats::mean)
        .expect("aggregate");
    assert_golden("micro.collect.txt", &agg.to_csv());
}

#[test]
fn perf_plots_match_goldens_in_both_renderings() {
    let mut fex = golden_fex();
    fex.run(&golden_config()).expect("golden experiment runs");
    let plot = fex.plot("micro", PlotRequest::Perf).expect("perf plot");
    assert_golden("micro.perf.svg", &plot.to_svg());
    assert_golden("micro.perf.txt", &plot.to_ascii());
}

#[test]
fn metrics_json_matches_golden_after_normalization() {
    let mut fex = golden_fex();
    fex.run(&golden_config()).expect("golden experiment runs");
    let metrics = fex.metrics_json("micro").expect("metrics stored");
    for key in ["build_wall_ns", "run_wall_ns", "collect_wall_ns", "experiment_wall_ns"] {
        assert!(metrics.contains(key), "metrics.json lost `{key}`:\n{metrics}");
    }
    assert_golden("micro.metrics.json", &normalize_metrics(&metrics));
}

/// Two deterministic runs of the golden experiment at different seeds:
/// the compare output (verdict table + ASCII comparison plot) is as much
/// a user-visible artifact as the CSVs, so it is pinned too.
#[test]
fn compare_verdict_table_and_plot_match_goldens() {
    use fex_core::lab::Comparison;

    let mut fex = golden_fex();
    fex.run(&golden_config()).expect("baseline run");
    let base = fex.result("micro").expect("baseline frame").clone();
    let mut fex = golden_fex();
    fex.run(&golden_config().seed(43)).expect("candidate run");
    let cand = fex.result("micro").expect("candidate frame").clone();

    let cmp = Comparison::compare(&base, &cand, "time", "seed-42", "seed-43").expect("compare");
    assert_golden("micro.compare.txt", &cmp.to_table());
    assert_golden("micro.compare.plot.txt", &cmp.to_plot().to_ascii());
}

#[test]
fn journal_artifacts_exist_and_metrics_are_recomputable() {
    // The stored metrics.json must be exactly the roll-up of the stored
    // journal — `fex report` depends on recomputability.
    let mut fex = golden_fex();
    fex.run(&golden_config()).expect("golden experiment runs");
    let jsonl = fex.journal_jsonl("micro").expect("journal stored");
    let events: Vec<_> = jsonl
        .lines()
        .map(|l| fex_core::journal::parse_line(l).expect("stored journal parses"))
        .collect();
    let recomputed = fex_core::Metrics::from_journal(&events).to_json();
    assert_eq!(recomputed, fex.metrics_json("micro").unwrap());
}
