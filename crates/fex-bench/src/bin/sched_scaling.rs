//! Scheduler scaling bench: matrix throughput of the parallel run-unit
//! scheduler at `--jobs` ∈ {1, 2, 4, 8}, plus an interpreter dispatch
//! microbench over the pre-decoded hot loop.
//!
//! Writes `target/fex-results/BENCH_sched.json`. Pass `--smoke` for the
//! CI-sized variant (smaller matrix, jobs ∈ {1, 2}).
//!
//! On a single-core host the jobs > 1 rows measure scheduling overhead,
//! not speedup — those rows carry `"advisory": true` and the JSON
//! records `host_cores` so consumers can judge the speedup figures
//! accordingly. On a multi-core host the bench self-gates: it aborts
//! unless jobs=2 beats jobs=1.

use std::time::Instant;

use fex_bench::write_artifact;
use fex_cc::{compile, BuildOptions};
use fex_core::build::MakefileSet;
use fex_core::runner::{RunContext, Runner, SuiteRunner};
use fex_core::{ExperimentConfig, RunPolicy};
use fex_suites::InputSize;
use fex_vm::{Machine, MachineConfig};

/// One timed pass over the experiment matrix at the given worker count.
/// Returns (seconds, result CSV, run units driven).
fn run_matrix(reps: usize, jobs: usize) -> (f64, String, usize) {
    let config = ExperimentConfig::new("micro")
        .types(vec!["gcc_native", "clang_native", "gcc_asan"])
        .input(InputSize::Test)
        .repetitions(reps)
        .resilience(RunPolicy::default())
        .jobs(jobs);
    let makefiles = MakefileSet::standard();
    let mut log = Vec::new();
    let mut ctx = RunContext::new(&config, &makefiles, &mut log);
    let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
    let start = Instant::now();
    let df = runner.run(&mut ctx).expect("matrix runs");
    let seconds = start.elapsed().as_secs_f64();
    (seconds, df.to_csv(), ctx.failures.total_runs)
}

/// Interpreter dispatch rate over the pre-decoded hot loop: simulated
/// instructions retired per wall-clock second on a branchy loop kernel.
fn dispatch_microbench(iters: i64) -> (u64, f64) {
    let src = format!(
        "global a[256];\n\
         fn main() -> int {{\n\
           var s = 0;\n\
           for (i = 0; i < {iters}; i += 1) {{\n\
             var k = i % 256;\n\
             a[k] = a[k] + i;\n\
             if (a[k] % 3 == 0) {{ s += a[k]; }} else {{ s -= i; }}\n\
           }}\n\
           return s;\n\
         }}"
    );
    let program = compile(&src, &BuildOptions::gcc()).expect("kernel compiles");
    let start = Instant::now();
    let run = Machine::new(MachineConfig::default()).run(&program, &[]).expect("kernel runs");
    (run.counters.instructions, start.elapsed().as_secs_f64())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (reps, jobs_axis, dispatch_iters): (usize, &[usize], i64) =
        if smoke { (2, &[1, 2], 200_000) } else { (6, &[1, 2, 4, 8], 2_000_000) };
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!(
        "SCHED SCALING: micro matrix, {reps} reps, host cores: {host_cores}{}",
        if smoke { " (smoke)" } else { "" }
    );
    let mut rows = Vec::new();
    let mut baseline_csv = None;
    let mut baseline_secs = 0.0;
    let mut jobs2_speedup = None;
    for &jobs in jobs_axis {
        let (seconds, csv, units) = run_matrix(reps, jobs);
        match &baseline_csv {
            None => {
                baseline_csv = Some(csv);
                baseline_secs = seconds;
            }
            Some(base) => assert_eq!(base, &csv, "jobs={jobs} diverged from jobs=1"),
        }
        let throughput = units as f64 / seconds;
        let speedup = baseline_secs / seconds;
        if jobs == 2 {
            jobs2_speedup = Some(speedup);
        }
        // A jobs > 1 row on a single-core host cannot show real scaling;
        // mark it advisory so downstream gates skip its speedup figure.
        let advisory = jobs > 1 && host_cores == 1;
        println!(
            "  jobs={jobs}: {units} units in {seconds:.3}s  ({throughput:.1} units/s, {speedup:.2}x vs jobs=1{})",
            if advisory { ", advisory: single-core host" } else { "" }
        );
        rows.push(format!(
            "    {{\"jobs\": {jobs}, \"units\": {units}, \"seconds\": {seconds:.6}, \
             \"units_per_sec\": {throughput:.3}, \"speedup\": {speedup:.4}, \
             \"advisory\": {advisory}}}"
        ));
    }
    println!("  (all job counts produced byte-identical CSVs)");
    if host_cores >= 2 {
        let speedup = jobs2_speedup.expect("jobs axis includes 2");
        assert!(
            speedup > 1.0,
            "multi-core host ({host_cores} cores) but jobs=2 speedup is {speedup:.4} (expected > 1.0)"
        );
        println!("  (gate: jobs=2 speedup {speedup:.2}x > 1.0 on {host_cores}-core host)");
    }

    let (instructions, seconds) = dispatch_microbench(dispatch_iters);
    let mips = instructions as f64 / seconds / 1e6;
    println!(
        "DISPATCH: {instructions} simulated instructions in {seconds:.3}s  ({mips:.1} Minstr/s)"
    );

    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \"smoke\": {smoke},\n  \"matrix\": [\n{}\n  ],\n  \
         \"dispatch\": {{\"instructions\": {instructions}, \"seconds\": {seconds:.6}, \
         \"minstr_per_sec\": {mips:.3}}}\n}}\n",
        rows.join(",\n")
    );
    write_artifact("BENCH_sched.json", &json).expect("can write artifact");
}
