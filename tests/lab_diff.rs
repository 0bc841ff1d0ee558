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

mod common;
use common::{CommandIn, TempDir};

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

fn temp_dir(tag: &str) -> TempDir {
    TempDir::new("fex-lab-it", tag)
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

    let store = RunStore::open(dir.to_path_buf()).unwrap();
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
}

#[test]
fn store_save_is_idempotent_on_content() {
    let dir = temp_dir("content");
    let store = RunStore::open(dir.to_path_buf()).unwrap();
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
}

/// A warm `--lab` rerun shares the cold run's id, and its run line names
/// what the first save wrote: the cold run's journal digest and the blob
/// holding the cold run's metrics (28 compiled pairs), while the warm
/// run's own metrics (every pair left unbuilt) stay in its results
/// directory.
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
    let cold_journal = fex.journal_jsonl("phoenix").unwrap();
    fex.run(&cfg).unwrap();
    assert_ne!(fex.journal_jsonl("phoenix").unwrap(), cold_journal, "warm runs journal hits");
    let warm_metrics = fex.metrics_json("phoenix").unwrap();
    assert!(warm_metrics.contains("\"build_cache_hits\": 28,"), "{warm_metrics}");

    let store = RunStore::open(dir.to_path_buf()).unwrap();
    let entries = store.list().unwrap();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].run_id, entries[1].run_id, "cold and warm share an id");
    assert_eq!(entries[1].range, entries[0].range, "the warm line names the cold blob");
    let digest = fex_container::digest_bytes(cold_journal.as_bytes());
    assert_eq!(entries[1].journal_digest, digest.to_string());
    let stored = store.metrics_json(&entries[1]).unwrap();
    assert!(stored.contains("\"builds\": 28,"), "{stored}");
    assert!(stored.contains("\"build_cache_hits\": 0,"), "{stored}");
    let report = fex_core::lab::fsck::check(&store);
    assert!(report.clean(), "{}", report.render());
}

/// The `micro` configuration the cut-save test stores, into `lab`.
fn cut_config(seed: u64, lab: &std::path::Path) -> ExperimentConfig {
    ExperimentConfig::new("micro")
        .types(vec!["gcc_native"])
        .input(InputSize::Test)
        .seed(seed)
        .lab(lab.to_string_lossy())
}

/// Runs `config` on `fex` and returns its results CSV and the run's
/// artifact-graph misses.
fn run_counting_misses(fex: &mut Fex, config: &ExperimentConfig) -> (String, u64) {
    let csv = fex.run(config).unwrap().to_csv();
    let line = fex.log().iter().rev().find(|l| l.contains(" hits / ")).unwrap().clone();
    let misses = line.split(" hits / ").nth(1).unwrap().split(' ').next().unwrap();
    (csv, misses.parse().unwrap())
}

/// A save cut at any write. Two `micro` runs and their units are stored,
/// then a third run whose save — one pack append, then one index append —
/// is cut back to every write boundary and to points inside each write.
/// At every cut the lab opens; the first two runs read back byte for byte
/// and their units serve warm; `fsck` reports only the torn tail; a
/// further save lands and reads back; and `fsck --quarantine` leaves a
/// lab that checks clean and still serves warm.
#[test]
fn a_save_cut_at_any_write_leaves_a_working_lab() {
    use fex_core::lab::{fsck, IssueKind};
    use std::fs;

    let dir = temp_dir("cut-save");
    let full = dir.join("full");
    let mut fex = Fex::new();
    fex.install("gcc-6.1").unwrap();
    let csvs: Vec<String> =
        (1..=3).map(|seed| fex.run(&cut_config(seed, &full)).unwrap().to_csv()).collect();
    let pack = fs::read(full.join("pack")).unwrap();
    let index = fs::read(full.join("index.json")).unwrap();
    let third = RunStore::open(&full).unwrap().resolve("latest").unwrap();
    let (p0, p1) = (third.range.offset as usize, pack.len());
    let i1 = index.len();
    let i0 = index[..i1 - 1].iter().rposition(|&b| b == b'\n').map_or(0, |at| at + 1);
    let line = i1 - i0;
    assert!(String::from_utf8_lossy(&index[i0..]).contains(&third.run_id), "the last line");
    assert_eq!(p1, p0 + third.range.len as usize + 1, "the third blob is the pack's tail");
    let tail = |cut: usize| format!("pack bytes {p0}..{cut}");
    let cuts = [
        ("before the pack append", p0, i0),
        ("mid-blob", p0 + third.range.len as usize / 2, i0),
        ("blob without its newline", p1 - 1, i0),
        ("after the pack append", p1, i0),
        ("mid-index-line", p1, i0 + line / 2),
        ("index line without its newline", p1, i1 - 1),
        ("after the save", p1, i1),
    ];
    for (name, pack_cut, index_cut) in cuts {
        let lab = dir.join(name.replace(' ', "-"));
        fs::create_dir_all(&lab).unwrap();
        fs::write(lab.join("pack"), &pack[..pack_cut]).unwrap();
        fs::write(lab.join("index.json"), &index[..index_cut]).unwrap();
        let store = RunStore::open(&lab).unwrap();
        let stored = store.list().unwrap();
        for (entry, csv) in stored.iter().zip(&csvs[..2]) {
            assert_eq!(&store.results_csv(entry).unwrap(), csv, "{name}");
        }
        let torn_line = format!("index line {}", bytecount(&index[..i0]) + 1);
        let mut want: Vec<(IssueKind, String)> = Vec::new();
        if index_cut > i0 && index_cut < i1 - 1 {
            want.push((IssueKind::CorruptIndexLine, torn_line));
        }
        if pack_cut > p0 && index_cut < i1 - 1 {
            want.push((IssueKind::UnreferencedPackBytes, tail(pack_cut)));
        }
        let found = |store: &RunStore| -> Vec<(IssueKind, String)> {
            fsck::check(store).issues.into_iter().map(|i| (i.kind, i.subject)).collect()
        };
        assert_eq!(found(&store), want, "{name}: fsck reports only the torn tail");

        // The first run's units serve warm, and its further save lands
        // and reads back; the torn bytes stay the only finding.
        let (csv, misses) = run_counting_misses(&mut fex, &cut_config(1, &lab));
        assert_eq!((&csv, misses), (&csvs[0], 0), "{name}");
        let latest = store.resolve("latest").unwrap();
        assert_eq!(latest.run_id, stored[0].run_id, "{name}");
        assert_eq!(store.results_csv(&latest).unwrap(), csvs[0], "{name}");
        assert_eq!(found(&store), want, "{name}: the further save is clean");

        let repaired = fsck::fsck(&store, true).unwrap();
        assert_eq!(repaired.clean(), want.is_empty(), "{name}");
        let after = fsck::check(&store);
        assert!(after.clean(), "{name}: {}", after.render());
        for (entry, csv) in store.list().unwrap().iter().zip(&csvs[..2]) {
            assert_eq!(&store.results_csv(entry).unwrap(), csv, "{name}");
        }
        let (csv, misses) = run_counting_misses(&mut fex, &cut_config(2, &lab));
        assert_eq!((&csv, misses), (&csvs[1], 0), "{name}: quarantine keeps the units");
    }
}

/// Lines (newline bytes) in `bytes`.
fn bytecount(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// The newest stored run's results CSV, read back through the store, is
/// the same bytes as the CSV `fex run` writes under
/// `target/fex-results/`, whether the run used the default worker count
/// or `--jobs 1`.
#[test]
fn the_stored_csv_is_the_csv_fex_run_writes() {
    let cwd = fresh_dir();
    let mut cold = None;
    for (lab, jobs) in [(".fex-lab", &[][..]), (".fex-lab-j1", &["--jobs", "1"][..])] {
        let out = Command::new(env!("CARGO_BIN_EXE_fex"))
            .current_dir(&cwd)
            .args(["run", "-n", "micro", "-i", "test", "-r", "3", "--lab", lab])
            .args(jobs)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let written = std::fs::read(cwd.join("target/fex-results/micro.csv")).unwrap();
        let cold = cold.get_or_insert(written);
        let store = RunStore::open(cwd.join(lab)).unwrap();
        let stored = store.results_csv(&store.resolve("latest").unwrap()).unwrap();
        assert_eq!(stored.as_bytes(), &cold[..], "{lab}");
    }
}

// --- binary error paths and exit codes ---

/// The `fex` binary, run in a fresh temp directory unless the test sets
/// its own, so what a command writes under `target/fex-results/` stays
/// out of the source tree and out of the other tests' way.
fn fex_bin() -> CommandIn {
    CommandIn::new(env!("CARGO_BIN_EXE_fex"), fresh_dir())
}

/// A new empty directory per call.
fn fresh_dir() -> TempDir {
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
    // A lab whose store holds no run yet.
    std::fs::write(dir.join("index.json"), "").unwrap();

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
}

/// Commands that only read a lab refuse a missing `--lab` directory, or
/// one without a lab index, name it and create nothing; `fex run --lab`
/// still creates its lab.
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
    let plain = cwd.join("plain");
    std::fs::create_dir(&plain).unwrap();
    for args in read_only {
        let args: Vec<&str> = args.iter().map(|a| if *a == "typo" { "plain" } else { a }).collect();
        let out = fex(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("no lab at `plain`: no run store or artifact graph index"),
            "{args:?}: {stderr}"
        );
    }
    let left: Vec<_> = std::fs::read_dir(&plain).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert!(left.is_empty(), "a read-only command wrote {left:?} into a plain directory");

    let out = fex(&["run", "-n", "micro", "-i", "test", "-t", "gcc_native", "--lab", "typo"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let out = fex(&["lab", "fsck", "--lab", "typo"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("store is clean"));
}

/// A lab directory in the layout of an older fex — runs under `runs/`,
/// the artifact graph under `graph/` — is refused by readers and writers
/// alike, with a message that says what to do, and left as it was.
#[test]
fn an_old_layout_lab_is_refused_and_left_alone() {
    let cwd = fresh_dir();
    for old in ["runs", "graph"] {
        let lab = cwd.join(format!("lab-{old}"));
        std::fs::create_dir_all(lab.join(old)).unwrap();
        std::fs::write(lab.join(old).join("index.json"), "{}\n").unwrap();
        let lab_arg = lab.to_string_lossy().into_owned();
        let commands: [&[&str]; 4] = [
            &["lab", "list"],
            &["lab", "gc", "--keep", "1"],
            &["graph", "stats"],
            &["run", "-n", "micro", "-i", "test", "-t", "gcc_native"],
        ];
        for args in commands {
            let out = Command::new(env!("CARGO_BIN_EXE_fex"))
                .current_dir(&cwd)
                .args(args)
                .args(["--lab", &lab_arg])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains(&format!("holds `{old}/`")), "{args:?}: {stderr}");
            assert!(stderr.contains("re-run its experiments into a new lab"), "{args:?}: {stderr}");
        }
        let left: Vec<_> =
            std::fs::read_dir(&lab).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, [old], "the old lab is left as it was");
    }
}

/// `fex graph stats` and `fex lab fsck` on a lab written only by
/// `--no-graph` runs print zero graph counts and write nothing: the lab
/// holds its lock, index and pack, and its index has no unit line.
#[test]
fn graph_stats_on_a_graphless_lab_creates_no_graph() {
    let cwd = fresh_dir();
    let fex = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_fex")).current_dir(&cwd).args(args).output().unwrap()
    };
    let run = ["run", "-n", "micro", "-i", "test", "-t", "gcc_native", "--no-graph", "--lab", "L"];
    let out = fex(&run);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let lab = cwd.join("L");
    let snapshot = || {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&lab)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    };
    let before = snapshot();
    let names: Vec<&str> = before.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["index.json", "lock", "pack"]);
    let index = String::from_utf8(before[0].1.clone()).unwrap();
    assert!(index.lines().all(|l| l.starts_with("{\"run_id\"")), "{index}");
    let out = fex(&["graph", "stats", "--lab", "L"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("total           0"), "{stdout}");
    assert!(snapshot() == before, "graph stats wrote into the lab");
    let out = fex(&["lab", "fsck", "--lab", "L"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(snapshot() == before, "fsck wrote into the lab");
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
}
