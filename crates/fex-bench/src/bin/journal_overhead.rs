//! Journal overhead bench: the structured run journal must be close to
//! free on the run-phase hot path.
//!
//! Runs the micro experiment matrix with journaling on vs off,
//! interleaved best-of-N on-CPU passes (the same discipline as
//! `vm_hotpath`), asserts the results and failures CSVs are
//! byte-identical either way, and records the measured slowdown in
//! `target/fex-results/BENCH_journal.json`. The acceptance budget is a
//! run-phase overhead below 3%.
//!
//! Also writes the journal and metrics artifacts of one journaled pass
//! (`micro.journal.jsonl`, `micro.metrics.json`) so CI can upload a real
//! journal alongside the bench numbers. Pass `--smoke` for the CI-sized
//! variant.

use fex_bench::write_artifact;
use fex_core::build::MakefileSet;
use fex_core::runner::{RunContext, Runner, SuiteRunner};
use fex_core::{ExperimentConfig, JournalEvent, Metrics, RunPolicy};
use fex_suites::InputSize;

/// On-CPU seconds for the calling thread, from `/proc/self/schedstat`
/// (`sum_exec_runtime`): immune to hypervisor steal and co-tenant noise,
/// and not quantised to scheduler ticks. The matrix runs with `--jobs 1`
/// so the whole timed window stays on the main thread.
fn cpu_seconds() -> f64 {
    let stat =
        std::fs::read_to_string("/proc/self/schedstat").expect("/proc/self/schedstat is readable");
    let ns: u64 =
        stat.split_whitespace().next().expect("schedstat has fields").parse().expect("ns parses");
    ns as f64 / 1e9
}

fn matrix_config(input: InputSize, reps: usize, journal: bool) -> ExperimentConfig {
    ExperimentConfig::new("micro")
        .types(vec!["gcc_native", "clang_native", "gcc_asan"])
        .input(input)
        .threads(vec![1, 2])
        .repetitions(reps)
        .resilience(RunPolicy::default())
        .jobs(1)
        .journal(journal)
}

/// One timed pass over the matrix: builds plus the run phase the journal
/// instruments; both configurations pay the same builds. Returns (CPU
/// seconds, results CSV, failures CSV, events).
fn run_matrix(
    config: &ExperimentConfig,
    makefiles: &MakefileSet,
) -> (f64, String, String, Vec<JournalEvent>) {
    let mut log = Vec::new();
    let mut ctx = RunContext::new(config, makefiles, &mut log);
    let mut runner = SuiteRunner::new(fex_suites::micro(), config);
    let start = cpu_seconds();
    let df = runner.run(&mut ctx).expect("matrix runs");
    let seconds = cpu_seconds() - start;
    (seconds, df.to_csv(), ctx.failures.to_csv(), ctx.journal.events().to_vec())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (input, reps, passes): (InputSize, usize, usize) =
        if smoke { (InputSize::Small, 2, 2) } else { (InputSize::Native, 2, 9) };
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "JOURNAL OVERHEAD: micro matrix --jobs 1, best of {passes}, host cores: {host_cores}{}",
        if smoke { " (smoke)" } else { "" }
    );

    let on_config = matrix_config(input, reps, true);
    let off_config = matrix_config(input, reps, false);
    let makefiles = MakefileSet::standard();

    // One untimed warm-up pass per configuration.
    run_matrix(&on_config, &makefiles);
    run_matrix(&off_config, &makefiles);

    // Interleave on/off passes so host speed drift cancels; keep the
    // best (least-disturbed) pass of each configuration.
    let mut best_on = f64::INFINITY;
    let mut best_off = f64::INFINITY;
    let mut off_times: Vec<f64> = Vec::new();
    let mut journaled: Option<(String, String, Vec<JournalEvent>)> = None;
    let mut bare: Option<(String, String)> = None;
    for pass in 0..passes {
        let (on_secs, on_csv, on_failures, events) = run_matrix(&on_config, &makefiles);
        let (off_secs, off_csv, off_failures, off_events) = run_matrix(&off_config, &makefiles);
        assert!(off_events.is_empty(), "--no-journal recorded events");
        best_on = best_on.min(on_secs);
        best_off = best_off.min(off_secs);
        off_times.push(off_secs);
        println!("  pass {pass}: on {on_secs:.3}s  off {off_secs:.3}s");
        match &journaled {
            None => journaled = Some((on_csv, on_failures, events)),
            Some((csv, failures, pinned)) => {
                assert_eq!(&on_csv, csv, "journaled passes disagree");
                assert_eq!(&on_failures, failures);
                assert_eq!(events.len(), pinned.len(), "journal event count drifted across passes");
            }
        }
        match &bare {
            None => bare = Some((off_csv, off_failures)),
            Some((csv, failures)) => {
                assert_eq!(&off_csv, csv, "journal-free passes disagree");
                assert_eq!(&off_failures, failures);
            }
        }
    }

    // Byte-invisibility: journaling must not change a single output byte.
    let (on_csv, on_failures, events) = journaled.expect("at least one pass ran");
    let (off_csv, off_failures) = bare.expect("at least one pass ran");
    assert_eq!(on_csv, off_csv, "journaling changed the results CSV");
    assert_eq!(on_failures, off_failures, "journaling changed the failures CSV");
    println!("  results + failures CSVs: byte-identical on vs off");

    // The measurement's own noise floor: the median-vs-best spread of
    // the journal-free passes. Deltas smaller than this are timing
    // noise, not journal cost — a negative "overhead" below the floor
    // must read as 0, and any verdict inside the floor is advisory, so
    // the <3% gate cannot pass vacuously off a lucky negative sample.
    off_times.sort_by(|a, b| a.partial_cmp(b).expect("pass times are finite"));
    let off_median = off_times[off_times.len() / 2];
    let noise_floor_percent = 100.0 * (off_median - best_off) / best_off;
    let raw_overhead_percent = 100.0 * (best_on - best_off) / best_off;
    let overhead_percent = raw_overhead_percent.max(0.0);
    let advisory = raw_overhead_percent.abs() <= noise_floor_percent;
    let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let journal_bytes = jsonl.len();
    println!(
        "  run phase: on {best_on:.3}s  off {best_off:.3}s  overhead {overhead_percent:.2}% \
         (raw {raw_overhead_percent:+.2}%, noise floor {noise_floor_percent:.2}%{})",
        if advisory { ", advisory: below the noise floor" } else { "" }
    );
    println!("  journal: {} events, {journal_bytes} bytes", events.len());
    if !smoke {
        // Smoke runs are too short for a stable ratio; the full run is
        // held to the acceptance budget.
        assert!(
            overhead_percent < 3.0,
            "journal overhead {overhead_percent:.2}% exceeds the 3% budget"
        );
        // A large negative raw overhead means the harness, not the
        // journal, is being measured; fail loudly instead of passing
        // the gate on garbage.
        assert!(
            raw_overhead_percent >= -(noise_floor_percent + 3.0),
            "journal measured {raw_overhead_percent:.2}% faster than no-journal, beyond the \
             {noise_floor_percent:.2}% noise floor: the measurement harness is broken"
        );
    }

    // Surface a real journal + metrics pair for CI artifact upload.
    write_artifact("micro.journal.jsonl", &jsonl).expect("can write artifact");
    write_artifact("micro.metrics.json", &Metrics::from_journal(&events).to_json())
        .expect("can write artifact");

    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \"smoke\": {smoke},\n  \
         \"off_s\": {best_off:.6},\n  \"on_s\": {best_on:.6},\n  \
         \"overhead_percent\": {overhead_percent:.4},\n  \
         \"raw_overhead_percent\": {raw_overhead_percent:.4},\n  \
         \"noise_floor_percent\": {noise_floor_percent:.4},\n  \
         \"advisory\": {advisory},\n  \
         \"events\": {},\n  \"journal_bytes\": {journal_bytes}\n}}\n",
        events.len()
    );
    write_artifact("BENCH_journal.json", &json).expect("can write artifact");
}
