//! Measurement hot-path bench: run-phase throughput with the three
//! zero-recompute optimisations — superinstruction fusion, the MRU cache
//! fast path and the decoded-artifact cache — on vs off.
//!
//! Three sections:
//!
//! 1. **matrix** — single-thread run-phase CPU time over every micro
//!    benchmark × build type, all optimisations on vs all off; the
//!    speedup is the headline number. A full experiment-pipeline pass
//!    additionally asserts byte-identical CSVs on vs off.
//! 2. **dispatch** — interpreter dispatch rate on a branchy loop kernel
//!    under each toggle combination, with per-pass attribution rows:
//!    all-on, leave-one-out for every registered decode pass
//!    (`no_pass:trace`, `no_pass:fuse`), the whole pipeline off
//!    (`no_passes`, i.e. `--passes none`), `no_mru` and `all_off` —
//!    identical counters asserted across every configuration.
//! 3. **decode_cache** — decoded-artifact cache hit rate on a
//!    `--jobs 8` matrix, parsed from the runner's own accounting line.
//!
//! Writes `target/fex-results/BENCH_vm.json`. Pass `--smoke` for the
//! CI-sized variant.

use fex_bench::write_artifact;
use fex_cc::{compile, BuildOptions};
use fex_core::build::MakefileSet;
use fex_core::runner::{RunContext, Runner, SuiteRunner};
use fex_core::{ExperimentConfig, RunPolicy};
use fex_suites::InputSize;
use fex_vm::{Machine, MachineConfig, PassMask};

/// On-CPU seconds for the calling thread, from `/proc/self/schedstat`
/// (`sum_exec_runtime`, nanosecond resolution). On a small shared host,
/// wall clocks see hypervisor steal and co-tenant noise an order of
/// magnitude larger than the effects measured here; on-CPU time does
/// not, and unlike `/proc/self/stat` it is not quantised to 10 ms
/// scheduler ticks. Every timed window in this bench runs on the main
/// thread, so per-thread accounting is exactly what we want.
fn cpu_seconds() -> f64 {
    let stat =
        std::fs::read_to_string("/proc/self/schedstat").expect("/proc/self/schedstat is readable");
    let ns: u64 =
        stat.split_whitespace().next().expect("schedstat has fields").parse().expect("ns parses");
    ns as f64 / 1e9
}

fn matrix_config(input: InputSize, reps: usize, jobs: usize, optimised: bool) -> ExperimentConfig {
    ExperimentConfig::new("micro")
        .types(vec!["gcc_native", "clang_native", "gcc_asan"])
        .input(input)
        .threads(vec![1, 2])
        .repetitions(reps)
        .resilience(RunPolicy::default())
        .jobs(jobs)
        .passes(if optimised { PassMask::all() } else { PassMask::none() })
        .mru(optimised)
        .decode_cache(optimised)
}

/// One timed pass over the experiment matrix. Returns (seconds, CSV,
/// run units driven, experiment log).
fn run_matrix(
    config: &ExperimentConfig,
    makefiles: &MakefileSet,
) -> (f64, String, usize, Vec<String>) {
    let mut log = Vec::new();
    let mut ctx = RunContext::new(config, makefiles, &mut log);
    let mut runner = SuiteRunner::new(fex_suites::micro(), config);
    let start = cpu_seconds();
    let df = runner.run(&mut ctx).expect("matrix runs");
    let seconds = cpu_seconds() - start;
    let units = ctx.failures.total_runs;
    (seconds, df.to_csv(), units, log)
}

/// The single-thread run-phase sweep: every micro benchmark × build
/// type, executed directly through the VM — the phase the optimisations
/// target, with nothing else inside the timed window. Programs are
/// compiled once up front.
struct UnitSweep {
    labels: Vec<String>,
    programs: Vec<(fex_vm::Program, Vec<i64>)>,
}

impl UnitSweep {
    fn new(input: InputSize) -> Self {
        let suite = fex_suites::micro();
        let mut labels = Vec::new();
        let mut programs = Vec::new();
        for bench in &suite.programs {
            for (ty, opts) in [
                ("gcc", BuildOptions::gcc()),
                ("clang", BuildOptions::clang()),
                ("asan", BuildOptions::gcc().with_asan()),
            ] {
                let program = compile(bench.source, &opts).expect("micro benchmark compiles");
                labels.push(format!("{}/{ty}", bench.name));
                programs.push((program, bench.args(input).to_vec()));
            }
        }
        UnitSweep { labels, programs }
    }

    /// Runs every unit once under the given toggles; returns per-unit
    /// CPU seconds and the per-unit instruction counters (which must be
    /// identical under every toggle combination).
    fn pass(&self, optimised: bool) -> (Vec<f64>, Vec<u64>) {
        let config = MachineConfig {
            passes: if optimised { PassMask::all() } else { PassMask::none() },
            mru_fast_path: optimised,
            ..MachineConfig::default()
        };
        let mut seconds = Vec::with_capacity(self.programs.len());
        let mut counters = Vec::with_capacity(self.programs.len());
        for (program, args) in &self.programs {
            let start = cpu_seconds();
            let run = Machine::new(config.clone()).run(program, args).expect("unit runs");
            seconds.push(cpu_seconds() - start);
            counters.push(run.counters.instructions);
        }
        (seconds, counters)
    }
}

/// Interpreter dispatch rate on a branchy loop kernel (loads, stores,
/// compares, branches and back-edges — `TraceRun`, `CmpBr` and the
/// `BinMovJmp` loop latch fire).
fn dispatch_kernel(iters: i64) -> fex_vm::Program {
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
    compile(&src, &BuildOptions::gcc()).expect("kernel compiles")
}

fn dispatch_bench(program: &fex_vm::Program, passes: PassMask, mru: bool) -> (u64, i64, f64) {
    let config = MachineConfig { passes, mru_fast_path: mru, ..MachineConfig::default() };
    let start = cpu_seconds();
    let run = Machine::new(config).run(program, &[]).expect("kernel runs");
    (run.counters.instructions, run.exit, cpu_seconds() - start)
}

/// Pulls `(decodes, served)` out of the runner's decoded-artifact cache
/// accounting line: `decoded-artifact cache: D decodes served S run
/// units (...)`.
fn parse_cache_line(log: &[String]) -> (usize, usize) {
    let line = log
        .iter()
        .find(|l| l.starts_with("decoded-artifact cache:"))
        .expect("runner logs the decoded-artifact cache line");
    let words: Vec<&str> = line.split_whitespace().collect();
    let decodes = words[2].parse().expect("decode count");
    let served = words[5].parse().expect("served count");
    (decodes, served)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The full run sweeps at the native input so the measured workload
    // loops dominate per-unit setup; smoke keeps CI fast.
    let (input, reps, passes, dispatch_iters): (InputSize, usize, usize, i64) = if smoke {
        (InputSize::Small, 2, 1, 200_000)
    } else {
        (InputSize::Native, 2, 5, 2_000_000)
    };
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // 1. Single-thread run-phase throughput: every micro benchmark ×
    // build type straight through the VM, all-on vs all-off. Passes
    // interleave the two configurations so host speed drift cancels;
    // the headline sums *per-unit* best-of-N times, which filters a
    // transient noise burst out of each unit independently instead of
    // discarding a whole pass.
    println!(
        "VM HOT PATH: micro sweep, best of {passes}, host cores: {host_cores}{}",
        if smoke { " (smoke)" } else { "" }
    );
    let sweep = UnitSweep::new(input);
    let units = sweep.programs.len();
    let mut best_on = vec![f64::INFINITY; units];
    let mut best_off = vec![f64::INFINITY; units];
    let mut pinned_counters: Option<Vec<u64>> = None;
    for _ in 0..passes {
        for optimised in [true, false] {
            let (seconds, counters) = sweep.pass(optimised);
            match &pinned_counters {
                None => pinned_counters = Some(counters),
                Some(p) => {
                    assert_eq!(&counters, p, "toggles changed a unit's instruction counters")
                }
            }
            let best = if optimised { &mut best_on } else { &mut best_off };
            for (b, s) in best.iter_mut().zip(&seconds) {
                *b = b.min(*s);
            }
        }
    }
    let on_secs: f64 = best_on.iter().sum();
    let off_secs: f64 = best_off.iter().sum();
    let speedup = off_secs / on_secs;
    for (i, label) in sweep.labels.iter().enumerate() {
        println!(
            "  unit {label:18} on {:.3}s  off {:.3}s  ({:.2}x)",
            best_on[i],
            best_off[i],
            best_off[i] / best_on[i]
        );
    }
    println!("  all-on:  {units} units in {on_secs:.3}s CPU");
    println!("  all-off: {units} units in {off_secs:.3}s CPU");
    println!("  speedup: {speedup:.2}x (identical counters)");

    // The full experiment pipeline must produce byte-identical CSVs with
    // the toggles on and off (repetitions and both thread counts
    // included); the differential property test covers fault injection.
    let makefiles = MakefileSet::standard();
    let (_, on_csv, _, _) = run_matrix(&matrix_config(InputSize::Small, reps, 1, true), &makefiles);
    let (_, off_csv, _, _) =
        run_matrix(&matrix_config(InputSize::Small, reps, 1, false), &makefiles);
    assert_eq!(on_csv, off_csv, "toggles changed the experiment results CSV");
    println!("  full-pipeline CSVs: byte-identical on vs off");

    // 2. Dispatch rate under each toggle combination, with per-pass
    // attribution: leave-one-out rows isolate each decode pass's
    // contribution to the all-on rate. Passes interleave the
    // configurations (like section 1) so host speed drift between
    // configurations cancels; best-of-N per configuration.
    let kernel = dispatch_kernel(dispatch_iters);
    let all = PassMask::all();
    let mut configs: Vec<(String, PassMask, bool)> = vec![("all_on".into(), all, true)];
    for info in fex_vm::PASSES {
        configs.push((
            format!("no_pass:{}", info.name),
            all.without(info.name).expect("registry name"),
            true,
        ));
    }
    configs.push(("no_passes".into(), PassMask::none(), true));
    configs.push(("no_mru".into(), all, false));
    configs.push(("all_off".into(), PassMask::none(), false));
    let mut best = vec![f64::INFINITY; configs.len()];
    let mut pinned: Option<(u64, i64)> = None;
    let mut instructions = 0;
    for _ in 0..passes {
        for (slot, (name, mask, mru)) in configs.iter().enumerate() {
            let (i, e, s) = dispatch_bench(&kernel, *mask, *mru);
            match &pinned {
                None => pinned = Some((i, e)),
                Some(p) => {
                    assert_eq!((i, e), *p, "{name} changed the kernel's counters or result")
                }
            }
            instructions = i;
            best[slot] = best[slot].min(s);
        }
    }
    let all_on_mips = instructions as f64 / best[0] / 1e6;
    let mut dispatch_rows = Vec::new();
    for (slot, (name, mask, _)) in configs.iter().enumerate() {
        let seconds = best[slot];
        let mips = instructions as f64 / seconds / 1e6;
        // A leave-one-out row's delta is what the missing pass buys the
        // all-on configuration; informational for the other rows.
        let delta = all_on_mips - mips;
        println!(
            "  dispatch [{name}]: {instructions} instr in {seconds:.3}s  ({mips:.1} Minstr/s, \
             passes {mask}, delta vs all_on {delta:+.1})"
        );
        dispatch_rows.push(format!(
            "    {{\"config\": \"{name}\", \"passes\": \"{mask}\", \
             \"instructions\": {instructions}, \"seconds\": {seconds:.6}, \
             \"minstr_per_sec\": {mips:.3}, \"delta_vs_all_on\": {delta:.3}}}"
        ));
    }

    // 3. Decoded-artifact cache hit rate on a --jobs 8 matrix — always
    // 6 reps at the test input (12 decodes serving 144 units), checked
    // byte-for-byte against a sequential run of the same matrix.
    let (_, csv, _, log) = run_matrix(&matrix_config(InputSize::Test, 6, 8, true), &makefiles);
    let (_, seq_csv, _, _) = run_matrix(&matrix_config(InputSize::Test, 6, 1, true), &makefiles);
    assert_eq!(seq_csv, csv, "--jobs 8 changed the results CSV");
    let (decodes, served) = parse_cache_line(&log);
    let hit_rate = 100.0 * (served - decodes) as f64 / served as f64;
    println!("  decode cache: {decodes} decodes served {served} units ({hit_rate:.1}% hit rate)");
    assert!(hit_rate > 90.0, "decode-cache hit rate {hit_rate:.1}% must exceed 90%");

    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \"smoke\": {smoke},\n  \
         \"matrix\": {{\"units\": {units}, \"all_on_seconds\": {on_secs:.6}, \
         \"all_off_seconds\": {off_secs:.6}, \"speedup\": {speedup:.4}}},\n  \
         \"dispatch\": [\n{}\n  ],\n  \
         \"decode_cache\": {{\"decodes\": {decodes}, \"served\": {served}, \
         \"hit_rate_pct\": {hit_rate:.2}}}\n}}\n",
        dispatch_rows.join(",\n")
    );
    write_artifact("BENCH_vm.json", &json).expect("can write artifact");
}
