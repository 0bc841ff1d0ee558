//! Cross-crate integration tests: the full install → build → run →
//! collect → plot pipeline, exercised the way a user would drive it.

use fex_core::collect::{stats, DataFrame};
use fex_core::plot::normalize_against;
use fex_core::{Comparison, ExperimentConfig, Fex, FexError, PlotRequest, Verdict};
use fex_suites::InputSize;
use fex_vm::MeasureTool;

fn fex_ready() -> Fex {
    let mut fex = Fex::new();
    for script in ["gcc-6.1", "clang-3.8", "phoenix_inputs", "splash_inputs", "parsec_inputs"] {
        fex.install(script).expect("standard install scripts work");
    }
    fex
}

#[test]
fn full_phoenix_pipeline_with_asan() {
    let mut fex = fex_ready();
    let config = ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native", "gcc_asan"])
        .input(InputSize::Test)
        .repetitions(2);
    let frame = fex.run(&config).unwrap().clone();
    // 7 programs × 2 types × 2 reps.
    assert_eq!(frame.len(), 28);

    // ASan must cost time on every benchmark.
    let norm = normalize_against(&frame, "benchmark", "type", "time", "gcc_native").unwrap();
    let asan = norm.filter_eq("type", "gcc_asan").unwrap();
    for row in asan.iter() {
        let ratio = row[2].as_num().unwrap();
        assert!(ratio > 1.1, "asan should slow down {} (got {ratio:.2}x)", row[0].to_cell_string());
        assert!(ratio < 20.0, "implausible asan overhead {ratio:.2}x");
    }

    // CSV round-trips through the container filesystem.
    let csv = fex.result_csv("phoenix").unwrap();
    let parsed = DataFrame::from_csv(&csv).unwrap();
    assert_eq!(parsed.len(), frame.len());

    // Plot renders.
    let plot = fex.plot("phoenix", PlotRequest::Perf).unwrap();
    assert!(plot.to_svg().contains("<svg"));
    assert!(!plot.to_ascii().is_empty());
}

#[test]
fn splash_reproduces_fig6_shape_at_test_size() {
    let mut fex = fex_ready();
    let config = ExperimentConfig::new("splash")
        .types(vec!["gcc_native", "clang_native"])
        .input(InputSize::Test);
    let frame = fex.run(&config).unwrap().clone();
    let norm = normalize_against(&frame, "benchmark", "type", "time", "gcc_native").unwrap();
    let clang = norm.filter_eq("type", "clang_native").unwrap();
    let mut ratios = std::collections::BTreeMap::new();
    for row in clang.iter() {
        ratios.insert(row[0].to_cell_string(), row[2].as_num().unwrap());
    }
    // Fig 6 shape: clang slower on every benchmark, slightly worse
    // overall, and the FP-heavy kernels (fft among them) worse than the
    // int-heavy ones. (The paper's extreme 2x FFT outlier stems from
    // vectorisation differences our scalar cost model does not include —
    // see EXPERIMENTS.md.)
    let all: Vec<f64> = ratios.values().copied().collect();
    let geo = stats::geomean(&all);
    assert!(geo >= 1.0, "clang geomean {geo:.3} unexpectedly beats gcc");
    for (bench, r) in &ratios {
        assert!(*r >= 0.99, "clang should not win on {bench} (ratio {r:.3})");
    }
    let fft = ratios["fft"];
    let volrend = ratios["volrend"];
    assert!(
        fft > volrend,
        "fp-heavy fft ({fft:.3}) should be worse for clang than int-heavy volrend ({volrend:.3})"
    );
}

#[test]
fn multithreading_scales_runtime_down() {
    let mut fex = fex_ready();
    let config = ExperimentConfig::new("splash")
        .types(vec!["gcc_native"])
        .benchmark("barnes")
        .threads(vec![1, 4])
        .input(InputSize::Test);
    let frame = fex.run(&config).unwrap().clone();
    let t = |m: &str| -> f64 {
        frame
            .filter_eq("threads", m)
            .unwrap()
            .column_values("time")
            .unwrap()
            .iter()
            .filter_map(|v| v.as_num())
            .next()
            .unwrap()
    };
    assert!(t("4") < t("1") * 0.7, "4 threads ({}) should beat 1 thread ({})", t("4"), t("1"));
}

#[test]
fn memory_tool_reports_asan_rss_overhead() {
    let mut fex = fex_ready();
    let config = ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native", "gcc_asan"])
        .benchmark("histogram")
        .input(InputSize::Test)
        .tool(MeasureTool::Time);
    let frame = fex.run(&config).unwrap().clone();
    let rss = |ty: &str| -> f64 {
        frame
            .filter_eq("type", ty)
            .unwrap()
            .column_values("maxrss_bytes")
            .unwrap()
            .iter()
            .filter_map(|v| v.as_num())
            .next()
            .unwrap()
    };
    assert!(rss("gcc_asan") > rss("gcc_native"), "redzones must cost memory");
}

#[test]
fn cache_tool_populates_miss_columns() {
    let mut fex = fex_ready();
    let config = ExperimentConfig::new("micro")
        .benchmark("ptrchase")
        .input(InputSize::Small)
        .tool(MeasureTool::PerfStatMemory);
    let frame = fex.run(&config).unwrap().clone();
    let row = frame.iter().next().unwrap().to_vec();
    let col = |name: &str| frame.col(name).unwrap();
    assert!(row[col("l1_misses")].as_num().unwrap() > 0.0);
    assert!(row[col("l1_accesses")].as_num().unwrap() > 0.0);
    let plot = fex.plot("micro", PlotRequest::CacheStats).unwrap();
    assert!(plot.to_svg().contains("<rect"));
}

#[test]
fn nginx_experiment_has_the_fig7_shape() {
    let mut fex = Fex::new();
    fex.install("gcc-6.1").unwrap();
    fex.install("clang-3.8").unwrap();
    fex.install("nginx").unwrap();
    let config = ExperimentConfig::new("nginx").types(vec!["gcc_native", "clang_native"]);
    let frame = fex.run(&config).unwrap().clone();
    let max_tput = |ty: &str| -> f64 {
        frame
            .filter_eq("type", ty)
            .unwrap()
            .column_values("throughput")
            .unwrap()
            .iter()
            .filter_map(|v| v.as_num())
            .fold(0.0, f64::max)
    };
    let g = max_tput("gcc_native");
    let c = max_tput("clang_native");
    assert!(g > c, "gcc build must saturate higher ({g:.0} vs {c:.0})");
    assert!(g > 10_000.0 && g < 120_000.0, "throughput {g:.0} outside Fig 7 ballpark");
    let plot = fex.plot("nginx", PlotRequest::ThroughputLatency).unwrap();
    assert!(plot.to_svg().contains("circle"));
}

/// Table II: clang's pointers-first layout blocks the BSS/Data
/// overflows that gcc's layout permits, and that is the whole gcc–clang
/// gap — every other technique/location count is equal. The absolute
/// counts (EXPERIMENTS.md's Table II row) are pinned too.
#[test]
fn ripe_gap_between_gcc_and_clang_is_exactly_bss_and_data() {
    use fex_ripe::{run_testbed, TestbedConfig};
    let gcc_summary = run_testbed(&fex_cc::BuildOptions::gcc(), &TestbedConfig::paper());
    let clang_summary = run_testbed(&fex_cc::BuildOptions::clang(), &TestbedConfig::paper());
    for (summary, successful) in [(&gcc_summary, 182), (&clang_summary, 98)] {
        let info = &summary.build_info;
        assert_eq!(summary.total, 832, "{info}: attacks attempted");
        assert_eq!(summary.successful, successful, "{info}: successful attacks");
        let by_dimension: usize = summary.by_dimension.values().sum();
        assert_eq!(by_dimension, summary.successful, "{info}: breakdown covers every success");
    }
    let (gcc, clang) = (gcc_summary.by_dimension, clang_summary.by_dimension);
    let global = |dim: &String| dim.ends_with("/Bss") || dim.ends_with("/Data");
    assert!(!clang.keys().any(global), "clang permits a global overflow: {clang:?}");
    assert!(gcc.keys().any(global), "gcc blocks every global overflow: {gcc:?}");
    let rest = |dims: &std::collections::BTreeMap<String, usize>| {
        dims.iter()
            .filter(|(dim, _)| !global(dim))
            .map(|(d, n)| (d.clone(), *n))
            .collect::<Vec<_>>()
    };
    assert_eq!(rest(&gcc), rest(&clang), "the gap must be BSS/Data only");
}

#[test]
fn missing_install_is_a_clear_error() {
    let mut fex = Fex::new();
    let config = ExperimentConfig::new("splash");
    match fex.run(&config) {
        Err(FexError::Config(msg)) => assert!(msg.contains("fex install"), "{msg}"),
        other => panic!("expected config error, got {other:?}"),
    }
}

#[test]
fn variable_input_experiment_sweeps_sizes() {
    let mut fex = fex_ready();
    let config = ExperimentConfig::new("phoenix_var")
        .types(vec!["gcc_native"])
        .benchmark("linear_regression");
    let frame = fex.run(&config).unwrap().clone();
    let sizes = frame.distinct("input").unwrap();
    assert_eq!(sizes, vec!["test", "small", "native"]);
    // Larger inputs take longer.
    let t = |s: &str| {
        frame
            .filter_eq("input", s)
            .unwrap()
            .column_values("time")
            .unwrap()
            .iter()
            .filter_map(|v| v.as_num())
            .next()
            .unwrap()
    };
    assert!(t("native") > t("test"));
}

#[test]
fn memcached_and_apache_server_experiments_run() {
    let mut fex = Fex::new();
    for s in ["gcc-6.1", "memcached", "apache"] {
        fex.install(s).unwrap();
    }
    let mem =
        fex.run(&ExperimentConfig::new("memcached").types(vec!["gcc_native"])).unwrap().clone();
    let apa = fex.run(&ExperimentConfig::new("apache").types(vec!["gcc_native"])).unwrap().clone();
    let max_tput = |df: &DataFrame| {
        df.column_values("throughput")
            .unwrap()
            .iter()
            .filter_map(|v| v.as_num())
            .fold(0.0, f64::max)
    };
    // Memcached's tiny responses are not link-bound: it must sustain far
    // higher message rates than a 2 KB page server.
    assert!(
        max_tput(&mem) > max_tput(&apa) * 2.0,
        "memcached {:.0} vs apache {:.0}",
        max_tput(&mem),
        max_tput(&apa)
    );
    // Apache's thread-pool dispatch gives it a higher latency floor than
    // memcached's event loop.
    let floor = |df: &DataFrame| {
        df.column_values("mean_ms")
            .unwrap()
            .iter()
            .filter_map(|v| v.as_num())
            .fold(f64::INFINITY, f64::min)
    };
    assert!(floor(&apa) > floor(&mem));
}

#[test]
fn parsec_suite_runs_through_the_framework() {
    let mut fex = fex_ready();
    let config = ExperimentConfig::new("parsec")
        .types(vec!["gcc_native"])
        .benchmark("blackscholes")
        .input(InputSize::Test)
        .repetitions(2);
    let df = fex.run(&config).unwrap().clone();
    assert_eq!(df.len(), 2);
    assert!(df.column_values("time").unwrap()[0].as_num().unwrap() > 0.0);
}

#[test]
fn runtime_faults_surface_as_run_errors() {
    // A benchmark that traps (division by zero) must produce a
    // FexError::Run with the benchmark named, not a panic.
    use fex_core::build::MakefileSet;
    let makefiles = MakefileSet::standard();
    let artifact = makefiles
        .build(
            "crasher",
            "fn main() -> int { var z = 0; return 1 / z; }",
            "gcc_native",
            false,
            fex_vm::PassMask::all(),
        )
        .unwrap();
    let machine = fex_vm::Machine::new(fex_vm::MachineConfig::default());
    let err = machine.load(&artifact.program).run_entry(&[]).unwrap_err();
    assert!(matches!(err, fex_vm::VmError::Trap(fex_vm::Trap::DivByZero)));
}

#[test]
fn edd_gate_fails_when_comparing_native_against_asan() {
    // The CI story: baseline = native, "new commit" = an asan build (a
    // deliberate big regression); `fex compare`'s Welch test must flag it.
    let mut fex = fex_ready();
    let mut run = |ty: &str| {
        let config = ExperimentConfig::new("micro")
            .types(vec![ty])
            .benchmark("arrayread")
            .input(InputSize::Test)
            .repetitions(3);
        fex.run(&config).unwrap().clone()
    };
    let native = run("gcc_native");
    let asan = run("gcc_asan");
    // Relabel the asan cells so both runs share one (benchmark, type) cell.
    let ti = asan.col("type").unwrap();
    let mut candidate = DataFrame::new(asan.columns().to_vec());
    for row in asan.iter() {
        let mut row = row.to_vec();
        row[ti] = "gcc_native".into();
        candidate.push(row);
    }
    let cmp = Comparison::compare(&native, &candidate, "time", "native", "asan").unwrap();
    assert_eq!(cmp.cells.len(), 1);
    assert_eq!(cmp.cells[0].verdict, Verdict::Regressed, "{}", cmp.to_table());
    assert!(cmp.has_regression());
}

#[test]
fn environment_digest_is_reproducible_across_instances() {
    let a = fex_ready();
    let b = fex_ready();
    assert_eq!(
        a.container().environment_digest(),
        b.container().environment_digest(),
        "identical setup must produce identical environment digests"
    );
}

#[test]
fn injected_persistent_trap_quarantines_one_benchmark_end_to_end() {
    use fex_core::config::FaultInjection;
    use fex_core::diag::{run_diag, JournalSource};
    use fex_core::{DiagConfig, DiagCtx, Metrics};
    use fex_vm::{FaultKind, FaultPlan};

    // Baseline: the clean phoenix run at test size.
    let mut clean = fex_ready();
    let config = ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native", "clang_native"])
        .input(InputSize::Test);
    let clean_frame = clean.run(&config).unwrap().clone();
    assert_eq!(clean_frame.len(), 14); // 7 programs × 2 types

    // Same experiment with `kmeans` permanently broken by injection.
    let mut faulty = fex_ready();
    let config = config
        .fault(FaultInjection::for_benchmark("kmeans", FaultPlan::persistent(FaultKind::Trap)));
    let frame = faulty.run(&config).unwrap().clone();

    // The experiment completed with a partial frame: everything except
    // the quarantined benchmark, across both build types.
    assert_eq!(frame.len(), 12);
    let benches = frame.distinct("benchmark").unwrap();
    assert_eq!(benches.len(), 6);
    assert!(!benches.contains(&"kmeans".to_string()));
    assert_eq!(frame.distinct("type").unwrap().len(), 2);

    // The failure report names the quarantined benchmark, and its CSV is
    // persisted in the container next to the results.
    let report = faulty.failure_report("phoenix").unwrap();
    assert_eq!(report.quarantined_benchmarks(), vec!["kmeans"]);
    let rec = &report.records[0];
    assert!(rec.error.contains("injected fault"), "{}", rec.error);
    assert_eq!(rec.attempts, 3, "default policy: 1 attempt + 2 retries");
    let fcsv = faulty.failure_csv("phoenix").unwrap();
    assert!(fcsv.contains("kmeans") && fcsv.contains("quarantined"));

    // The journal accounts for exactly the runs and attempts the failure
    // report counted, so `fex diag` gates on the same retry rate.
    let jsonl = faulty.journal_jsonl("phoenix").unwrap();
    let journal = JournalSource::parse("phoenix", &jsonl);
    let hist = &Metrics::from_journal(&journal.events).retry_histogram;
    assert_eq!(hist.values().sum::<usize>(), report.total_runs);
    assert_eq!(hist.iter().map(|(a, n)| a * n).sum::<usize>(), report.total_attempts);

    // Flakiness gating: `fex diag`'s default thresholds reject the run for
    // the quarantine and at the failure report's retry rate (findings
    // sort by message).
    let ctx = DiagCtx { journal: Some(journal), store: None, config: DiagConfig::default() };
    let findings: Vec<String> = run_diag(&ctx)
        .findings
        .into_iter()
        .filter(|f| f.rule == "flakiness")
        .map(|f| f.message)
        .collect();
    let retry_rate = format!(
        "retry rate {:.2} ({} extra attempts over {} units) exceeds the flakiness gate's 0.00",
        report.retry_rate(),
        report.total_attempts - report.total_runs,
        report.total_runs
    );
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings[0].contains("(kmeans)"), "{}", findings[0]);
    assert_eq!(findings[1], retry_rate);

    // The surviving benchmarks' rows are identical to the clean run's —
    // injection perturbs nothing outside its target.
    for bench in &benches {
        let a = clean_frame.filter_eq("benchmark", bench).unwrap().to_csv();
        let b = frame.filter_eq("benchmark", bench).unwrap().to_csv();
        assert_eq!(a, b, "rows for `{bench}` must be unperturbed");
    }

    // And with injection disabled the output is byte-identical to the
    // clean run.
    let mut disabled = fex_ready();
    let config_off = ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native", "clang_native"])
        .input(InputSize::Test)
        .fault(FaultInjection::everywhere(FaultPlan::none()));
    disabled.run(&config_off).unwrap();
    assert_eq!(
        disabled.result_csv("phoenix").unwrap(),
        clean.result_csv("phoenix").unwrap(),
        "disabled injection must be byte-identical to today's output"
    );
    assert!(disabled.failure_report("phoenix").unwrap().is_clean());
}
