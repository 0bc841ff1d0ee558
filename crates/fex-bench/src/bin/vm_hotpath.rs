//! Measurement hot-path bench: run-phase throughput with the two
//! zero-recompute optimisations — decode's `fuse` stage and the
//! decoded-artifact cache — on vs off, and the cost of loading an
//! instance.
//!
//! Five sections:
//!
//! 1. **matrix** — single-thread run-phase CPU time over every micro
//!    benchmark × build type, all optimisations on vs all off, each
//!    unit timed on and off back to back; the speedup is the headline
//!    number. A full experiment-pipeline pass additionally asserts
//!    byte-identical CSVs on vs off.
//! 2. **dispatch** — interpreter dispatch rate on a branchy loop kernel
//!    with `fuse` on (`all_on`) and off (`no_passes`, i.e.
//!    `PassMask::none()`), the two masks taking turns on each kernel
//!    run, the first alternating between rounds — identical counters
//!    asserted.
//! 3. **decode_cache** — decoded-artifact cache hit rate on a
//!    `--jobs 8` matrix, parsed from the runner's own accounting line.
//! 4. **load** — CPU time of one `Machine::load` (memory, shadow, caches
//!    and decode) for a native and an ASan build of one Phoenix program.
//! 5. **suites** — single-thread CPU time and Minstr/s of one pass over
//!    the distinct executions of Phoenix + SPLASH in the four build types,
//!    with `fuse` on and off (identical `RunResult`s asserted): what
//!    `fuse` buys real programs rather than the dispatch kernel. Each row
//!    also reports the pass's work totals (instructions, L1 accesses,
//!    loads, stores), asserted identical across rounds.
//!
//! Every timed window of sections 1 and 4, and each mask's share of a
//! section 2 round, holds at least 200 ms of on-CPU time, and the rows
//! report per-run (per-load) figures; sections 2 and 5 sum per-run
//! readings with the masks taking turns (see there).
//! The bench exits non-zero if any time or rate comes out zero or not
//! finite.
//!
//! Writes `target/fex-results/BENCH_vm.json`. Pass `--smoke` for the
//! CI-sized variant.

use std::sync::Arc;

use fex_bench::write_artifact;
use fex_cc::{compile, BuildOptions};
use fex_core::build::{Artifact, MakefileSet};
use fex_core::runner::{RunContext, Runner, SuiteRunner};
use fex_core::{ExperimentConfig, RunPolicy};
use fex_suites::InputSize;
use fex_vm::{Machine, MachineConfig, PassMask, RunResult};

/// On-CPU seconds for the calling thread, from `/proc/self/schedstat`
/// (`sum_exec_runtime`, in nanoseconds). On a small shared host, wall
/// clocks see hypervisor steal and co-tenant noise an order of magnitude
/// larger than the effects measured here; on-CPU time does not. The
/// kernel advances the running thread's sum only at scheduler events
/// (ticks, switches), so a reading lags by up to one tick: [`timed`]
/// keeps every window long enough for that lag not to matter. Every
/// timed window in this bench runs on the main thread, so per-thread
/// accounting is exactly what we want.
fn cpu_seconds() -> f64 {
    let stat =
        std::fs::read_to_string("/proc/self/schedstat").expect("/proc/self/schedstat is readable");
    let ns: u64 =
        stat.split_whitespace().next().expect("schedstat has fields").parse().expect("ns parses");
    ns as f64 / 1e9
}

/// The least on-CPU time one timed window holds: two orders of magnitude
/// above a scheduler tick, so [`cpu_seconds`]' lag stays below 2%.
const MIN_WINDOW_SECONDS: f64 = 0.2;

/// Runs `f` back to back until the window holds at least
/// [`MIN_WINDOW_SECONDS`] of on-CPU time. Returns the on-CPU seconds per
/// call, the number of calls and the last call's result.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, u64, T) {
    let start = cpu_seconds();
    let mut calls = 0;
    loop {
        let out = f();
        calls += 1;
        let elapsed = cpu_seconds() - start;
        if elapsed >= MIN_WINDOW_SECONDS {
            return (elapsed / calls as f64, calls, out);
        }
    }
}

/// Exits non-zero unless every timed figure is finite and positive: a
/// zero or infinite time or rate means a window measured nothing.
fn check_figures(figures: &[(String, f64)]) {
    let bad: Vec<String> = figures
        .iter()
        .filter(|(_, v)| !(v.is_finite() && *v > 0.0))
        .map(|(name, v)| format!("{name} = {v}"))
        .collect();
    if !bad.is_empty() {
        eprintln!("vm_hotpath: timed figures that measured nothing: {}", bad.join(", "));
        std::process::exit(1);
    }
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
        .decode_cache(optimised)
}

/// One pass over the experiment matrix. Returns (CSV, experiment log).
fn run_matrix(config: &ExperimentConfig, makefiles: &MakefileSet) -> (String, Vec<String>) {
    let mut log = Vec::new();
    let mut ctx = RunContext::new(config, makefiles, &mut log);
    let mut runner = SuiteRunner::new(fex_suites::micro(), config);
    let df = runner.run(&mut ctx).expect("matrix runs");
    (df.to_csv(), log)
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

    /// Times one unit under the given toggles; returns its CPU seconds
    /// per run and its instruction counter (which must be identical under
    /// every toggle combination).
    fn time(&self, unit: usize, optimised: bool) -> (f64, u64) {
        let config = MachineConfig {
            passes: if optimised { PassMask::all() } else { PassMask::none() },
            ..MachineConfig::default()
        };
        let (program, args) = &self.programs[unit];
        let (per_run, _, run) =
            timed(|| Machine::new(config.clone()).run(program, args).expect("unit runs"));
        (per_run, run.counters.instructions)
    }
}

/// Interpreter dispatch rate on a branchy loop kernel (loads, stores,
/// compares, branches and back-edges — `LoadBin`, `CmpBr` and the
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

/// The build types the `suites` rows sweep.
const SUITE_TYPES: [&str; 4] = ["gcc_native", "clang_native", "gcc_asan", "clang_asan"];

/// The distinct executions of a Phoenix + SPLASH matrix (one thread):
/// every benchmark × build type, built under one pass mask and run under
/// its run unit's machine config. Repetitions and dry runs add no
/// executions of their own (the runner serves them from execution twins).
struct SuiteSweep {
    units: Vec<(Artifact, MachineConfig, Vec<i64>)>,
}

impl SuiteSweep {
    fn new(input: InputSize, passes: PassMask, makefiles: &MakefileSet) -> Self {
        let mut units = Vec::new();
        for suite in [fex_suites::phoenix(), fex_suites::splash()] {
            let config = ExperimentConfig::new(suite.name).passes(passes);
            for bench in &suite.programs {
                for ty in SUITE_TYPES {
                    let artifact = makefiles
                        .build(bench.name, bench.source, ty, false, passes)
                        .expect("suite benchmark builds");
                    let machine = config.unit_machine_config(bench.name, ty, 1, Some(0), 0);
                    units.push((artifact, machine, bench.args(input).to_vec()));
                }
            }
        }
        SuiteSweep { units }
    }

    /// Runs execution `unit` once.
    fn run(&self, unit: usize) -> RunResult {
        let (artifact, machine, args) = &self.units[unit];
        Machine::new(machine.clone())
            .load_with(&artifact.program, &artifact.decoded)
            .run_entry(args)
            .expect("suite execution runs")
    }
}

/// The order in which sections 2 and 5 run their two masks in round
/// `round`: the first mask alternates between rounds, as in section 1, so
/// whatever running first costs lands on both masks.
fn mask_order(round: usize) -> [usize; 2] {
    if round.is_multiple_of(2) {
        [0, 1]
    } else {
        [1, 0]
    }
}

/// Deterministic work totals of one pass over the suites' executions,
/// summed from their counters: the VM work a pass's time pays for.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct SuiteTotals {
    instructions: u64,
    l1_accesses: u64,
    /// Loads the programs issue (ASan shadow reads, which the `loads`
    /// counter includes, are left out).
    app_loads: u64,
    stores: u64,
}

impl SuiteTotals {
    fn add(&mut self, run: &RunResult) {
        let c = &run.counters;
        self.instructions += c.instructions;
        self.l1_accesses += c.l1_accesses;
        self.app_loads += c.loads - c.asan_checks;
        self.stores += c.stores;
    }
}

/// The median of `samples` (upper median for an even count).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The Phoenix program whose instance load the `load` rows time.
const LOAD_PROGRAM: &str = "kmeans";

/// `(build, program, decoded form)` for a native and an ASan build of
/// [`LOAD_PROGRAM`].
fn load_programs() -> Vec<(&'static str, fex_vm::Program, Arc<fex_vm::DecodedProgram>)> {
    let suite = fex_suites::phoenix();
    let bench = suite
        .programs
        .iter()
        .find(|b| b.name == LOAD_PROGRAM)
        .expect("the load program is a Phoenix benchmark");
    [("native", BuildOptions::gcc()), ("asan", BuildOptions::gcc().with_asan())]
        .into_iter()
        .map(|(build, opts)| {
            let program = compile(bench.source, &opts).expect("Phoenix benchmark compiles");
            let decoded = Arc::new(
                fex_vm::decode_program(&program, &MachineConfig::default().cost)
                    .expect("program decodes"),
            );
            (build, program, decoded)
        })
        .collect()
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
    // build type straight through the VM, all-on vs all-off. Each round
    // times every unit on and off back to back, with the first
    // configuration alternating between rounds, so host speed drift
    // lands on both halves of a unit's pair; the headline sums
    // *per-unit* best-of-N times, which filters a transient noise burst
    // out of each unit independently instead of discarding a whole pass.
    println!(
        "VM HOT PATH: micro sweep, best of {passes}, host cores: {host_cores}{}",
        if smoke { " (smoke)" } else { "" }
    );
    let sweep = UnitSweep::new(input);
    let units = sweep.programs.len();
    let mut best_on = vec![f64::INFINITY; units];
    let mut best_off = vec![f64::INFINITY; units];
    let mut pinned_counters = vec![None; units];
    for round in 0..passes {
        let order = if round % 2 == 0 { [true, false] } else { [false, true] };
        for unit in 0..units {
            for optimised in order {
                let (seconds, instructions) = sweep.time(unit, optimised);
                assert_eq!(
                    *pinned_counters[unit].get_or_insert(instructions),
                    instructions,
                    "toggles changed {}'s instruction counters",
                    sweep.labels[unit]
                );
                let best = if optimised { &mut best_on[unit] } else { &mut best_off[unit] };
                *best = best.min(seconds);
            }
        }
    }
    let on_secs: f64 = best_on.iter().sum();
    let off_secs: f64 = best_off.iter().sum();
    let speedup = off_secs / on_secs;
    // Every timed figure, checked before the artifact is written.
    let mut figures: Vec<(String, f64)> = vec![
        ("matrix all_on_seconds".into(), on_secs),
        ("matrix all_off_seconds".into(), off_secs),
        ("matrix speedup".into(), speedup),
    ];
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
    let (on_csv, _) = run_matrix(&matrix_config(InputSize::Small, reps, 1, true), &makefiles);
    let (off_csv, _) = run_matrix(&matrix_config(InputSize::Small, reps, 1, false), &makefiles);
    assert_eq!(on_csv, off_csv, "toggles changed the experiment results CSV");
    println!("  full-pipeline CSVs: byte-identical on vs off");

    // 2. Dispatch rate with `fuse` on and off. The masks take turns on
    // each kernel run, as in section 5, until each mask's share of the
    // round holds MIN_WINDOW_SECONDS; a row reports the median over the
    // rounds of its per-run time.
    let kernel = dispatch_kernel(dispatch_iters);
    // Sections 2 and 5 share these masks.
    let configs = [("all_on", PassMask::all()), ("no_passes", PassMask::none())];
    let mut samples = vec![Vec::new(); configs.len()];
    let mut pinned: Option<(u64, i64)> = None;
    for round in 0..passes {
        let mut round_seconds = vec![0.0; configs.len()];
        let mut runs = 0;
        while round_seconds.iter().any(|&s| s < MIN_WINDOW_SECONDS) {
            for slot in mask_order(round) {
                let (name, mask) = &configs[slot];
                let config = MachineConfig { passes: *mask, ..MachineConfig::default() };
                let start = cpu_seconds();
                let run = Machine::new(config).run(&kernel, &[]).expect("kernel runs");
                round_seconds[slot] += cpu_seconds() - start;
                let outcome = (run.counters.instructions, run.exit);
                match &pinned {
                    None => pinned = Some(outcome),
                    Some(p) => {
                        assert_eq!(outcome, *p, "{name} changed the kernel's counters or result")
                    }
                }
            }
            runs += 1;
        }
        for (slot, seconds) in round_seconds.into_iter().enumerate() {
            samples[slot].push(seconds / f64::from(runs));
        }
    }
    let instructions = pinned.expect("the kernel ran").0;
    let mips = |seconds: f64| instructions as f64 / seconds / 1e6;
    let all_on_mips = mips(median(&samples[0]));
    let mut dispatch_rows = Vec::new();
    for (slot, (name, mask)) in configs.iter().enumerate() {
        let seconds = median(&samples[slot]);
        let mips = mips(seconds);
        let delta = all_on_mips - mips;
        figures.push((format!("dispatch [{name}] seconds"), seconds));
        figures.push((format!("dispatch [{name}] minstr_per_sec"), mips));
        println!(
            "  dispatch [{name}]: {instructions} instr in {seconds:.3}s  ({mips:.1} Minstr/s, \
             passes {mask}, delta vs all_on {delta:+.1}, median of {passes})"
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
    let (csv, log) = run_matrix(&matrix_config(InputSize::Test, 6, 8, true), &makefiles);
    let (seq_csv, _) = run_matrix(&matrix_config(InputSize::Test, 6, 1, true), &makefiles);
    assert_eq!(seq_csv, csv, "--jobs 8 changed the results CSV");
    let (decodes, served) = parse_cache_line(&log);
    let hit_rate = 100.0 * (served - decodes) as f64 / served as f64;
    println!("  decode cache: {decodes} decodes served {served} units ({hit_rate:.1}% hit rate)");
    assert!(hit_rate > 90.0, "decode-cache hit rate {hit_rate:.1}% must exceed 90%");

    // 4. Load cost: repeated `Machine::load`s of one program, reusing its
    // decoded form as the runner does, so the rows time what every run
    // unit pays before its first instruction. Best of N per build.
    let mut load_rows = Vec::new();
    for (build, program, decoded) in load_programs() {
        let machine = Machine::new(MachineConfig::default());
        let mut best = f64::INFINITY;
        let mut loads = 0;
        for _ in 0..passes {
            let (per_load, calls, _) =
                timed(|| drop(std::hint::black_box(machine.load_with(&program, &decoded))));
            best = best.min(per_load);
            loads = calls;
        }
        let us = best * 1e6;
        figures.push((format!("load [{build}] us_per_load"), us));
        println!("  load [{build}] {LOAD_PROGRAM}: {us:.1} us per load (best of {passes})");
        load_rows.push(format!(
            "    {{\"build\": \"{build}\", \"program\": \"{LOAD_PROGRAM}\", \
             \"loads\": {loads}, \"us_per_load\": {us:.3}}}"
        ));
    }

    // 5. The suites: per round, one pass over Phoenix + SPLASH's distinct
    // executions per mask; each row reports the median over the rounds,
    // beside the pass's work totals, which every round must repeat
    // exactly. The masks take turns on each execution, not on whole
    // passes: on a shared host, whole-pass windows of the same mask spread
    // by a third within one round, which buries `fuse`'s effect. A mask's pass
    // time sums its executions' on-CPU readings; each reading lags by up
    // to a scheduler tick at both ends, an error that averages out over
    // a pass's 76 executions rather than accumulating.
    let (suite_input, input_name) =
        if smoke { (InputSize::Test, "test") } else { (InputSize::Small, "small") };
    let sweeps: Vec<SuiteSweep> =
        configs.iter().map(|(_, mask)| SuiteSweep::new(suite_input, *mask, &makefiles)).collect();
    let executions = sweeps[0].units.len();
    let mut samples = vec![Vec::new(); configs.len()];
    let mut pinned_totals: Option<SuiteTotals> = None;
    for round in 0..passes {
        let mut pass_seconds = vec![0.0; configs.len()];
        let mut totals = SuiteTotals::default();
        for unit in 0..executions {
            let mut pinned: Option<RunResult> = None;
            for slot in mask_order(round) {
                let start = cpu_seconds();
                let result = sweeps[slot].run(unit);
                pass_seconds[slot] += cpu_seconds() - start;
                match &pinned {
                    None => pinned = Some(result),
                    Some(p) => assert!(
                        &result == p,
                        "{} changed a suite execution's RunResult",
                        configs[slot].0
                    ),
                }
            }
            totals.add(&pinned.expect("at least one mask"));
        }
        let first = *pinned_totals.get_or_insert(totals);
        assert_eq!(totals, first, "round {round} did other work than round 0");
        for (slot, seconds) in pass_seconds.into_iter().enumerate() {
            samples[slot].push(seconds);
        }
    }
    let totals = pinned_totals.expect("at least one round");
    let SuiteTotals { instructions: suite_instructions, l1_accesses, app_loads, stores } = totals;
    let suite_mips = |seconds: f64| suite_instructions as f64 / seconds / 1e6;
    let all_on_suite_mips = suite_mips(median(&samples[0]));
    let mut suite_rows = Vec::new();
    for (slot, (name, mask)) in configs.iter().enumerate() {
        let seconds = median(&samples[slot]);
        let mips = suite_mips(seconds);
        let delta = all_on_suite_mips - mips;
        figures.push((format!("suites [{name}] seconds"), seconds));
        figures.push((format!("suites [{name}] minstr_per_sec"), mips));
        println!(
            "  suites [{name}]: {executions} executions, {suite_instructions} instr, \
             {l1_accesses} L1 accesses, {app_loads} loads, {stores} stores in {seconds:.3}s  \
             ({mips:.1} Minstr/s, passes {mask}, delta vs all_on {delta:+.1}, median of {passes})"
        );
        suite_rows.push(format!(
            "    {{\"config\": \"{name}\", \"passes\": \"{mask}\", \
             \"instructions\": {suite_instructions}, \"l1_accesses\": {l1_accesses}, \
             \"app_loads\": {app_loads}, \"stores\": {stores}, \"seconds\": {seconds:.6}, \
             \"minstr_per_sec\": {mips:.3}, \"delta_vs_all_on\": {delta:.3}}}"
        ));
    }

    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \"smoke\": {smoke},\n  \
         \"matrix\": {{\"units\": {units}, \"all_on_seconds\": {on_secs:.6}, \
         \"all_off_seconds\": {off_secs:.6}, \"speedup\": {speedup:.4}}},\n  \
         \"dispatch\": [\n{}\n  ],\n  \
         \"decode_cache\": {{\"decodes\": {decodes}, \"served\": {served}, \
         \"hit_rate_pct\": {hit_rate:.2}}},\n  \
         \"load\": [\n{}\n  ],\n  \
         \"suites\": {{\"suites\": \"phoenix,splash\", \"input\": \"{input_name}\", \
         \"executions\": {executions}, \"rounds\": {passes}, \"rows\": [\n{}\n  ]}}\n}}\n",
        dispatch_rows.join(",\n"),
        load_rows.join(",\n"),
        suite_rows.join(",\n")
    );
    check_figures(&figures);
    write_artifact("BENCH_vm.json", &json).expect("can write artifact");
}
