//! Integration tests for the lab subsystem: the result store, the
//! adaptive repetition controller's scheduler-independence, and the
//! `fex compare` regression gate (library and binary).
//!
//! The core invariant locked down here: the adaptive controller decides
//! rep counts from each cell's successful-sample *sequence*, and samples
//! are pure functions of unit coordinates — so `--jobs 1` and `--jobs 8`
//! must aggregate **byte-identical** results CSVs, with and without
//! fault injection. The parallel scheduler may execute speculative extra
//! reps; the merge must drop them.

use std::process::Command;

use proptest::prelude::*;

use fex_core::config::FaultInjection;
use fex_core::lab::{Comparison, RunArtifacts, RunStore, Verdict};
use fex_core::{ExperimentConfig, Fex};
use fex_suites::InputSize;
use fex_vm::{FaultKind, FaultPlan};

/// Runs the micro suite through the real build system and runner.
fn run_micro(config: &ExperimentConfig) -> (String, String) {
    use fex_core::build::MakefileSet;
    use fex_core::runner::{RunContext, Runner, SuiteRunner};

    let makefiles = MakefileSet::standard();
    let mut log = Vec::new();
    let mut ctx = RunContext::new(config, &makefiles, &mut log);
    let mut runner = SuiteRunner::new(fex_suites::micro(), config);
    let df = runner.run(&mut ctx).unwrap();
    (df.to_csv(), ctx.failures.to_csv())
}

fn adaptive_config(faulty: bool, seed: u64, precision: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new("micro")
        .types(vec!["gcc_native", "clang_native"])
        .input(InputSize::Test)
        .seed(seed)
        .adaptive_repetitions(2, 6, precision);
    if faulty {
        cfg = cfg.fault(FaultInjection::for_benchmark(
            "ptrchase",
            FaultPlan::persistent(FaultKind::Trap),
        ));
    }
    cfg
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fex-lab-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Adaptive repetition counts — and therefore the aggregated CSVs —
    /// do not depend on the worker count, clean or faulty.
    #[test]
    fn adaptive_reps_are_scheduler_independent(
        jobs in 2usize..9,
        seed in 0u64..1000,
        faulty in 0usize..2,
        precision_pick in 0usize..3,
    ) {
        let precision = [0.02, 0.10, 0.50][precision_pick];
        let base = adaptive_config(faulty == 1, seed, precision);
        let (seq_csv, seq_fail) = run_micro(&base.clone().jobs(1));
        let (par_csv, par_fail) = run_micro(&base.clone().jobs(jobs));
        prop_assert_eq!(seq_csv, par_csv);
        prop_assert_eq!(seq_fail, par_fail);
    }
}

#[test]
fn store_and_compare_two_runs_end_to_end() {
    let dir = temp_dir("e2e");
    let mut fex = Fex::new();
    fex.install("gcc-6.1").unwrap();
    fex.install("clang-3.8").unwrap();
    let cfg = ExperimentConfig::new("micro")
        .types(vec!["gcc_native"])
        .input(InputSize::Test)
        .repetitions(3)
        .lab(dir.to_string_lossy());
    fex.run(&cfg).unwrap();
    fex.run(&cfg).unwrap();

    let store = RunStore::open(&dir).unwrap();
    let baseline = store.resolve("prev").unwrap();
    let candidate = store.resolve("latest").unwrap();
    let base =
        fex_core::collect::DataFrame::from_csv(&store.results_csv(&baseline).unwrap()).unwrap();
    let cand =
        fex_core::collect::DataFrame::from_csv(&store.results_csv(&candidate).unwrap()).unwrap();
    let cmp = Comparison::compare(&base, &cand, "time", "prev", "latest").unwrap();
    assert!(!cmp.has_regression());
    assert_eq!(cmp.count(Verdict::Unchanged), cmp.cells.len(), "{}", cmp.to_table());
    // Deterministic rerun: every cell's means agree exactly.
    assert!(cmp.cells.iter().all(|c| c.baseline.mean == c.candidate.mean));
    // The gate has teeth: a copy of the archived baseline with every
    // sample 50% slower must regress.
    let ti = base.col("time").unwrap();
    let mut slowed = fex_core::collect::DataFrame::new(base.columns().to_vec());
    for row in base.iter() {
        let mut row = row.to_vec();
        row[ti] = (row[ti].as_num().unwrap() * 1.5).into();
        slowed.push(row);
    }
    let slow = Comparison::compare(&base, &slowed, "time", "prev", "slowed").unwrap();
    assert!(slow.has_regression(), "{}", slow.to_table());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_save_is_idempotent_on_content() {
    let dir = temp_dir("content");
    let store = RunStore::open(&dir).unwrap();
    let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
    let art = RunArtifacts {
        results_csv:
            "suite,benchmark,type,threads,input,rep,time\nmicro,a,gcc_native,1,test,0,1.5\n",
        failures_csv: "benchmark,type,threads,rep,error,attempts,outcome\n",
        metrics_json: None,
        journal_digest: None,
    };
    let a = store.save(&cfg, &art).unwrap();
    let b = store.save(&cfg, &art).unwrap();
    assert_eq!(a.run_id, b.run_id);
    assert_eq!(b.seq, a.seq + 1);
    assert_eq!(a.rows, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm `--lab` rerun shares the cold run's id, and the run directory
/// keeps what the first save wrote: `record.json` names seq 0 and
/// `metrics.json` the cold run's 28 compiled pairs, while the warm run's
/// own metrics (every pair left unbuilt) stay in its results directory.
#[test]
fn a_re_saved_run_id_keeps_its_first_record_and_metrics() {
    let dir = temp_dir("write-once");
    let mut fex = Fex::new();
    for script in ["gcc-6.1", "clang-3.8", "phoenix_inputs"] {
        fex.install(script).unwrap();
    }
    let cfg = ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native", "clang_native", "gcc_asan", "clang_asan"])
        .input(InputSize::Test)
        .lab(dir.to_string_lossy());
    fex.run(&cfg).unwrap();
    fex.run(&cfg).unwrap();
    let warm_metrics = fex.metrics_json("phoenix").unwrap();
    assert!(warm_metrics.contains("\"build_cache_hits\": 28,"), "{warm_metrics}");

    let store = RunStore::open(&dir).unwrap();
    let entries = store.list().unwrap();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].run_id, entries[1].run_id, "cold and warm share an id");
    let run_dir = dir.join("runs").join(entries[0].run_id.trim_start_matches("fex256:"));
    let record = std::fs::read_to_string(run_dir.join("record.json")).unwrap();
    assert!(record.contains("\"seq\": 0,"), "{record}");
    let stored = std::fs::read_to_string(run_dir.join("metrics.json")).unwrap();
    assert!(stored.contains("\"builds\": 28,"), "{stored}");
    assert!(stored.contains("\"build_cache_hits\": 0,"), "{stored}");
    let report = fex_core::lab::fsck::check(&store);
    assert!(report.clean(), "{}", report.render());
    let _ = std::fs::remove_dir_all(&dir);
}

// --- binary error paths and exit codes ---

/// The `fex` binary, run in a fresh temp directory unless the test sets
/// its own, so what a command writes under `target/fex-results/` stays
/// out of the source tree and out of the other tests' way.
fn fex_bin() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fex"));
    cmd.current_dir(fresh_dir());
    cmd
}

/// A new empty directory per call.
fn fresh_dir() -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    temp_dir(&format!("cwd-{}", NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)))
}

#[test]
fn report_with_missing_journal_exits_nonzero_with_message() {
    let out = fex_bin().args(["report", "/no/such/journal.jsonl"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read journal"), "{stderr}");
}

#[test]
fn lab_and_compare_on_missing_stores_exit_nonzero_with_message() {
    let dir = temp_dir("missing");
    let lab = dir.to_string_lossy().to_string();

    let out = fex_bin().args(["lab", "show", "latest", "--lab", &lab]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("empty"), "empty-store message");

    let out = fex_bin().args(["compare", "latest", "prev", "--lab", &lab]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));

    // An unreadable CSV path is reported, not panicked.
    let out = fex_bin()
        .args(["compare", "latest", "/no/such/baseline.csv", "--lab", &lab])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Commands that only read a lab refuse a missing `--lab` directory,
/// name it and create nothing; `fex run --lab` still creates its lab.
#[test]
fn read_only_commands_refuse_a_missing_lab_and_create_nothing() {
    let cwd = fresh_dir();
    let fex = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_fex")).current_dir(&cwd).args(args).output().unwrap()
    };
    let read_only: [&[&str]; 8] = [
        &["lab", "fsck", "--lab", "typo"],
        &["lab", "fsck", "--quarantine", "--lab", "typo"],
        &["lab", "list", "--lab", "typo"],
        &["lab", "show", "latest", "--lab", "typo"],
        &["lab", "gc", "--keep", "1", "--lab", "typo"],
        &["graph", "stats", "--lab", "typo"],
        &["compare", "prev", "latest", "--lab", "typo"],
        &["diag", "--lab", "typo"],
    ];
    for args in read_only {
        let out = fex(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("`typo`"), "{args:?} must name the path: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed {}", String::from_utf8_lossy(&out.stdout));
    }
    let out = fex(&["lab", "fsck"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("`.fex-lab`"), "the default is named");
    let left: Vec<_> = std::fs::read_dir(&cwd).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert!(left.is_empty(), "a read-only command created {left:?}");

    let out = fex(&["run", "-n", "micro", "-i", "test", "-t", "gcc_native", "--lab", "typo"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let out = fex(&["lab", "fsck", "--lab", "typo"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("store is clean"));
    let _ = std::fs::remove_dir_all(&cwd);
}

/// The `fex run -n <argv…>` configuration, run in process on a fresh
/// `Fex` with the setup the binary performs implicitly.
fn run_in_process(args: &str) -> Fex {
    let argv: Vec<String> = args.split_whitespace().map(String::from).collect();
    let fex_core::cli::Action::Run(config) = fex_core::cli::parse(&argv).unwrap() else {
        panic!("`{args}` is not a run");
    };
    let mut fex = Fex::new();
    for script in fex_core::install::required_scripts(&config.name, &config.build_types) {
        fex.install(script).unwrap();
    }
    fex.run(&config).unwrap();
    fex
}

/// `fex run` then `fex plot` works across processes (the paper's
/// `fex.py run` + `fex.py plot`), and the plot equals the in-process one.
#[test]
fn plot_after_run_renders_the_same_svg_as_in_process() {
    let dir = temp_dir("plot");
    let out = fex_bin().current_dir(&dir).args(["plot", "-n", "micro", "-t", "perf"]).output();
    let out = out.unwrap();
    assert_eq!(out.status.code(), Some(1), "nothing to plot before a run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("micro.csv") && stderr.contains("`fex run -n micro`"), "{stderr}");
    assert_eq!(stderr.matches("data error").count(), 1, "{stderr}");

    let run = "run -n micro -i test -r 2";
    let out = fex_bin().current_dir(&dir).args(run.split(' ')).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let out = fex_bin().current_dir(&dir).args(["plot", "-n", "micro", "-t", "perf"]).output();
    let out = out.unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (_, svg) = stdout.split_once("--- svg ---\n").expect("svg section");

    let fex = run_in_process(run);
    let want = fex.plot("micro", fex_core::PlotRequest::Perf).unwrap().to_svg();
    assert_eq!(svg.trim_end(), want.trim_end());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent writers into one lab, each through its own `Fex`: the lab
/// lock keeps every seq distinct and the lab clean.
#[test]
fn concurrent_runs_into_one_lab_keep_distinct_seqs() {
    let dir = temp_dir("race");
    let lab = dir.join("lab").to_string_lossy().into_owned();
    let args = format!("run -n micro -i test --jobs 1 --lab {lab}");
    let start = std::sync::Barrier::new(8);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                start.wait();
                run_in_process(&args)
            });
        }
    });
    let store = RunStore::open(&lab).unwrap();
    let report = fex_core::lab::fsck::check(&store);
    assert!(report.clean(), "{}", report.render());
    let mut seqs: Vec<u64> = store.list().unwrap().iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..8).collect::<Vec<u64>>());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_exit_codes_gate_on_regression() {
    let dir = temp_dir("gate");
    let lab = dir.join("store").to_string_lossy().to_string();
    let header = "suite,benchmark,type,threads,input,rep,time\n";
    let row = |rep: usize, t: f64| format!("micro,fft,gcc_native,1,test,{rep},{t}\n");
    let base_path = dir.join("base.csv");
    let fast_path = dir.join("fast.csv");
    let slow_path = dir.join("slow.csv");
    std::fs::write(&base_path, format!("{header}{}{}{}", row(0, 1.00), row(1, 1.01), row(2, 0.99)))
        .unwrap();
    std::fs::write(&fast_path, format!("{header}{}{}{}", row(0, 1.00), row(1, 1.01), row(2, 0.99)))
        .unwrap();
    std::fs::write(&slow_path, format!("{header}{}{}{}", row(0, 2.00), row(1, 2.01), row(2, 1.99)))
        .unwrap();
    let svg = dir.join("cmp.svg").to_string_lossy().to_string();

    // Unchanged → exit 0, verdict table on stdout.
    let out = fex_bin()
        .args(["compare", base_path.to_str().unwrap(), fast_path.to_str().unwrap()])
        .args(["--lab", &lab, "--svg", &svg])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("unchanged"), "{stdout}");

    // Significant slowdown → exit 2.
    let out = fex_bin()
        .args(["compare", base_path.to_str().unwrap(), slow_path.to_str().unwrap()])
        .args(["--lab", &lab, "--svg", &svg])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("significant regression"));
    assert!(std::fs::read_to_string(&svg).unwrap().starts_with("<svg"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lab_cli_lists_shows_and_gcs_stored_runs() {
    let dir = temp_dir("cli");
    let lab = dir.to_string_lossy().to_string();
    for _ in 0..2 {
        let out = fex_bin()
            .args(["run", "-n", "micro", "-b", "arrayread", "-i", "test", "-r", "2"])
            .args(["--lab", &lab])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let out = fex_bin().args(["lab", "list", "--lab", &lab]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout.matches("fex256:").count(), 2, "{stdout}");

    let out = fex_bin().args(["lab", "show", "latest", "--lab", &lab]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("experiment: micro"));

    // Two identical runs compare as unchanged through the store.
    let out = fex_bin().args(["compare", "prev", "latest", "--lab", &lab]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    let out = fex_bin().args(["lab", "gc", "--keep", "1", "--lab", &lab]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("removed 1"));
    let _ = std::fs::remove_dir_all(&dir);
}
