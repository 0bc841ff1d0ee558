//! Layer bench: one figure per pipeline layer, written through one
//! record into `target/fex-results/BENCH_layers.json`.
//!
//! The record is `{"host_cores": n, "smoke": b, "metrics": {"<layer>.<name>":
//! {"value": v, "unit": "u"}}}`, the row shape of `BENCH_fexperf.json`.
//! Names follow `BENCHMARK.json`'s `per_layer` rows where one fits; a row
//! measured under several settings names them in brackets
//! (`sched.wall_ms[jobs=2]`). Deterministic work counts (unit `count`)
//! sit beside the times they explain and repeat exactly between runs.
//!
//! Four sections, in order:
//!
//! 1. **vm** — the interpreter's dispatch rate on a branchy loop kernel
//!    and one pass over the distinct Phoenix + SPLASH executions (four
//!    build types; `small` input, `test` under `--smoke`), each with
//!    decode's `fuse` stage on and off. The two masks take turns on every
//!    run, the first alternating between rounds; results, counters and
//!    work totals must be identical. Then the decoded-artifact cache's
//!    counts from a `--jobs 8` run's own journal (hit rate above 90%, CSV
//!    identical to `--jobs 1`), and the on-CPU cost of one instance load.
//! 2. **sched** — the same Phoenix + SPLASH executions through
//!    `SuiteRunner` at `--jobs` 1 and 2 (one rep), wall-clock medians over
//!    rounds that alternate which jobs value runs first. CSVs must be
//!    identical; on a host with at least 2 cores, jobs=2 must be faster.
//! 3. **journal** — the micro matrix at `--jobs 1` with the journal on and
//!    off, interleaved on-CPU passes: outputs byte-identical, overhead
//!    below 3% on full runs. Also writes `micro.journal.jsonl` and
//!    `micro.metrics.json` from one journaled pass.
//! 4. **fuzz** — generated scenarios per second and `fex fuzz` oracle
//!    cases per second; the bench seed must be clean.
//!
//! Single-threaded work is timed in on-CPU seconds of the main thread;
//! work that fans out over threads (sched, fuzz cases) in wall-clock
//! seconds. The bench exits non-zero if a row is not finite, or if a row
//! other than a percentage is not positive.
//!
//! `cargo run --release -p fex-bench --bin layers [-- --smoke]`

use std::sync::Arc;
use std::time::Instant;

use fex_bench::write_artifact;
use fex_cc::{compile, BuildOptions};
use fex_core::build::{Artifact, MakefileSet};
use fex_core::fuzz::{self, FuzzOptions, Scenario};
use fex_core::runner::{RunContext, Runner, SuiteRunner};
use fex_core::{journal, ExperimentConfig, Fex, JournalEvent, Metrics};
use fex_suites::{InputSize, Suite};
use fex_vm::{Machine, MachineConfig, PassMask, RunResult};

/// The bench's figures, in the order they were measured.
#[derive(Default)]
struct Record(Vec<(String, f64, &'static str)>);

impl Record {
    /// Records and prints one row.
    fn row(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let shown = if unit == "count" { format!("{value}") } else { format!("{value:.3}") };
        println!("  {name:32} {shown:>16} {unit}");
        self.0.push((name, value, unit));
    }

    /// Records a deterministic work count.
    fn count(&mut self, name: impl Into<String>, value: usize) {
        self.row(name, value as f64, "count");
    }

    fn to_json(&self, host_cores: usize, smoke: bool) -> String {
        let rows: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\n  \"host_cores\": {host_cores},\n  \"smoke\": {smoke},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
            rows.join(",\n")
        )
    }
}

/// Exits non-zero unless every row is finite and every row but a
/// percentage is positive: a zero or infinite time, rate or count means
/// a section measured nothing.
fn check_figures(record: &Record) {
    let bad: Vec<String> = record
        .0
        .iter()
        .filter(|(_, v, unit)| !(v.is_finite() && (*v > 0.0 || *unit == "%")))
        .map(|(name, v, _)| format!("{name} = {v}"))
        .collect();
    if !bad.is_empty() {
        eprintln!("layers: figures that measured nothing: {}", bad.join(", "));
        std::process::exit(1);
    }
}

/// On-CPU seconds for the calling thread, from `/proc/self/schedstat`
/// (`sum_exec_runtime`, in nanoseconds). On a small shared host, wall
/// clocks see hypervisor steal and co-tenant noise an order of magnitude
/// larger than the effects measured here; on-CPU time does not. The
/// kernel advances the running thread's sum only at scheduler events
/// (ticks, switches), so a reading lags by up to one tick: [`timed`]
/// keeps every window long enough for that lag not to matter.
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
/// call.
fn timed(mut f: impl FnMut()) -> f64 {
    let start = cpu_seconds();
    let mut calls = 0;
    loop {
        f();
        calls += 1;
        let elapsed = cpu_seconds() - start;
        if elapsed >= MIN_WINDOW_SECONDS {
            return elapsed / f64::from(calls);
        }
    }
}

/// The median of `samples` (upper median for an even count).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The order in which a round runs its two settings: the first alternates
/// between rounds, so whatever running first costs lands on both.
fn order(round: usize) -> [usize; 2] {
    if round.is_multiple_of(2) {
        [0, 1]
    } else {
        [1, 0]
    }
}

/// The build types the Phoenix + SPLASH sweeps cover.
const SUITE_TYPES: [&str; 4] = ["gcc_native", "clang_native", "gcc_asan", "clang_asan"];

/// The Phoenix + SPLASH sweeps' input: `small`, `test` under `--smoke`.
fn suite_input(smoke: bool) -> InputSize {
    if smoke {
        InputSize::Test
    } else {
        InputSize::Small
    }
}

/// One pass of `suite` through `SuiteRunner` (builds included). Returns
/// the results CSV, the failures CSV, the run units driven and the
/// journal's events.
fn run_suite(
    config: &ExperimentConfig,
    suite: Suite,
) -> (String, String, usize, Vec<JournalEvent>) {
    let makefiles = MakefileSet::standard();
    let mut log = Vec::new();
    let mut ctx = RunContext::new(config, &makefiles, &mut log);
    let df = SuiteRunner::new(suite, config).run(&mut ctx).expect("the suite runs");
    (df.to_csv(), ctx.failures.to_csv(), ctx.failures.total_runs, ctx.journal.events().to_vec())
}

// ---------------------------------------------------------------------
// vm
// ---------------------------------------------------------------------

/// A branchy loop kernel: loads, stores, compares, branches and
/// back-edges, so `LoadBin`, `CmpBr` and the `BinMovJmp` loop latch fire.
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

/// The distinct executions of a Phoenix + SPLASH matrix (one thread):
/// every benchmark × build type, built under one pass mask and run under
/// its run unit's machine config.
fn suite_executions(
    input: InputSize,
    passes: PassMask,
    makefiles: &MakefileSet,
) -> Vec<(Artifact, MachineConfig, Vec<i64>)> {
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
    units
}

/// Deterministic work totals of one pass over the suites' executions.
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

/// The Phoenix program whose instance load the `load` rows time.
const LOAD_PROGRAM: &str = "kmeans";

/// One pipeline run of the micro matrix (6 reps, `test` input) at `jobs`
/// workers. Returns its results CSV and the metrics of its own journal.
fn micro_pipeline(jobs: usize) -> (String, Metrics) {
    let config = ExperimentConfig::new("micro")
        .types(vec!["gcc_native", "clang_native", "gcc_asan"])
        .input(InputSize::Test)
        .threads(vec![1, 2])
        .repetitions(6)
        .jobs(jobs);
    let mut fex = Fex::new();
    fex.run_suite(&config, fex_suites::micro()).expect("the micro matrix runs");
    let (events, issues) = journal::parse_jsonl(&fex.journal_jsonl("micro").expect("a journal"));
    assert!(issues.is_empty(), "the run's journal parses: {issues:?}");
    (fex.result_csv("micro").expect("a results CSV"), Metrics::from_journal(&events))
}

fn vm_rows(record: &mut Record, smoke: bool) {
    let masks = [("fuse", PassMask::all()), ("none", PassMask::none())];
    let (rounds, dispatch_iters) = if smoke { (1, 200_000) } else { (5, 2_000_000) };
    println!("vm: {rounds} rounds");

    // The dispatch kernel: the masks take turns on each run until each
    // mask's share of the round holds MIN_WINDOW_SECONDS; a row reports
    // the median over rounds of its per-run time.
    let kernel = dispatch_kernel(dispatch_iters);
    let mut samples = [Vec::new(), Vec::new()];
    let mut pinned: Option<(u64, i64)> = None;
    for round in 0..rounds {
        let mut seconds = [0.0; 2];
        let mut runs = 0;
        while seconds.iter().any(|&s| s < MIN_WINDOW_SECONDS) {
            for slot in order(round) {
                let config = MachineConfig { passes: masks[slot].1, ..MachineConfig::default() };
                let start = cpu_seconds();
                let run = Machine::new(config).run(&kernel, &[]).expect("kernel runs");
                seconds[slot] += cpu_seconds() - start;
                let outcome = (run.counters.instructions, run.exit);
                let first = *pinned.get_or_insert(outcome);
                assert_eq!(
                    outcome, first,
                    "{} changed the kernel's counters or result",
                    masks[slot].0
                );
            }
            runs += 1;
        }
        for (s, seconds) in samples.iter_mut().zip(seconds) {
            s.push(seconds / f64::from(runs));
        }
    }
    let instructions = pinned.expect("the kernel ran").0;
    record.count("vm.instructions[dispatch]", instructions as usize);
    for (slot, (mask, _)) in masks.iter().enumerate() {
        let seconds = median(&samples[slot]);
        record.row(format!("vm.exec_ms[dispatch,{mask}]"), seconds * 1e3, "ms");
        record.row(
            format!("vm.minstr_per_s[dispatch,{mask}]"),
            instructions as f64 / seconds / 1e6,
            "Minstr/s",
        );
    }

    // The suites: per round, one pass over Phoenix + SPLASH's distinct
    // executions per mask, the masks taking turns on each execution (on a
    // shared host, whole passes of one mask spread by a third within a
    // round, which buries `fuse`'s effect). A pass's time sums its
    // executions' on-CPU readings; each lags by up to a scheduler tick at
    // both ends, an error that averages out over the pass.
    let makefiles = MakefileSet::standard();
    let [fuse, none] =
        masks.map(|(_, mask)| suite_executions(suite_input(smoke), mask, &makefiles));
    let units: Vec<[_; 2]> = fuse.into_iter().zip(none).map(|(a, b)| [a, b]).collect();
    let mut samples = [Vec::new(), Vec::new()];
    let mut pinned_totals: Option<SuiteTotals> = None;
    for round in 0..rounds {
        let mut seconds = [0.0; 2];
        let mut totals = SuiteTotals::default();
        for unit in &units {
            let mut pinned: Option<RunResult> = None;
            for slot in order(round) {
                let (artifact, machine, args) = &unit[slot];
                let start = cpu_seconds();
                let result = Machine::new(machine.clone())
                    .load_with(&artifact.program, &artifact.decoded)
                    .run_entry(args)
                    .expect("suite execution runs");
                seconds[slot] += cpu_seconds() - start;
                match &pinned {
                    None => pinned = Some(result),
                    Some(first) => assert!(
                        &result == first,
                        "{} changed a suite execution's RunResult",
                        masks[slot].0
                    ),
                }
            }
            totals.add(&pinned.expect("both masks ran"));
        }
        let first = *pinned_totals.get_or_insert(totals);
        assert_eq!(totals, first, "round {round} did other work than round 0");
        for (s, seconds) in samples.iter_mut().zip(seconds) {
            s.push(seconds);
        }
    }
    let totals = pinned_totals.expect("at least one round");
    record.count("vm.units[suites]", units.len());
    record.count("vm.instructions[suites]", totals.instructions as usize);
    record.count("vm.l1_accesses[suites]", totals.l1_accesses as usize);
    record.count("vm.app_loads[suites]", totals.app_loads as usize);
    record.count("vm.stores[suites]", totals.stores as usize);
    for (slot, (mask, _)) in masks.iter().enumerate() {
        let seconds = median(&samples[slot]);
        record.row(format!("vm.exec_ms[suites,{mask}]"), seconds * 1e3, "ms");
        record.row(
            format!("vm.minstr_per_s[suites,{mask}]"),
            totals.instructions as f64 / seconds / 1e6,
            "Minstr/s",
        );
    }

    // The decoded-artifact cache on a --jobs 8 micro matrix (12 decodes
    // serving 144 run units), counted from the run's own journal and
    // checked byte for byte against a sequential run.
    let (csv, metrics) = micro_pipeline(8);
    assert_eq!(micro_pipeline(1).0, csv, "--jobs 8 changed the results CSV");
    let hit_rate = metrics.decode_hit_rate();
    assert!(hit_rate > 0.9, "decode-cache hit rate {hit_rate:.3} must exceed 0.9");
    record.count("decode.count", metrics.decodes);
    record.count("decode.served", metrics.decode_served);
    record.row("decode.hit_ratio", hit_rate, "ratio");

    // Load cost: repeated `Machine::load`s of one program, reusing its
    // decoded form as the runner does, so the rows time what every run
    // unit pays before its first instruction. Best of `rounds` per build.
    let bench = fex_suites::phoenix()
        .programs
        .into_iter()
        .find(|b| b.name == LOAD_PROGRAM)
        .expect("the load program is a Phoenix benchmark");
    for (build, opts) in
        [("native", BuildOptions::gcc()), ("asan", BuildOptions::gcc().with_asan())]
    {
        let program = compile(bench.source, &opts).expect("Phoenix benchmark compiles");
        let decoded = Arc::new(
            fex_vm::decode_program(&program, &MachineConfig::default().cost)
                .expect("program decodes"),
        );
        let machine = Machine::new(MachineConfig::default());
        let best = (0..rounds)
            .map(|_| timed(|| drop(std::hint::black_box(machine.load_with(&program, &decoded)))))
            .fold(f64::INFINITY, f64::min);
        record.row(format!("vm.load_us[{build}]"), best * 1e6, "us");
    }
}

// ---------------------------------------------------------------------
// sched
// ---------------------------------------------------------------------

/// The worker counts the sched rows compare.
const JOBS: [usize; 2] = [1, 2];

fn sched_rows(record: &mut Record, smoke: bool, host_cores: usize) {
    let rounds = if smoke { 2 } else { 5 };
    println!("sched: {rounds} rounds");
    let config = |suite: &Suite, jobs| {
        ExperimentConfig::new(suite.name)
            .types(SUITE_TYPES.to_vec())
            .input(suite_input(smoke))
            .jobs(jobs)
    };
    let mut samples = [Vec::new(), Vec::new()];
    let mut pinned: Option<(String, usize)> = None;
    for round in 0..rounds {
        for slot in order(round) {
            let start = Instant::now();
            let (mut csvs, mut units) = (String::new(), 0);
            for suite in [fex_suites::phoenix(), fex_suites::splash()] {
                let (csv, _, runs, _) = run_suite(&config(&suite, JOBS[slot]), suite);
                csvs.push_str(&csv);
                units += runs;
            }
            samples[slot].push(start.elapsed().as_secs_f64());
            let first = pinned.get_or_insert_with(|| (csvs.clone(), units));
            assert!(first.0 == csvs, "jobs={} changed the results CSV", JOBS[slot]);
            assert_eq!(first.1, units, "jobs={} drove other run units", JOBS[slot]);
        }
    }
    record.count("sched.units", pinned.expect("at least one round").1);
    let [one, two] = samples.map(|s| median(&s));
    record.row("sched.wall_ms[jobs=1]", one * 1e3, "ms");
    record.row("sched.wall_ms[jobs=2]", two * 1e3, "ms");
    let speedup = one / two;
    record.row("sched.speedup[jobs=2]", speedup, "ratio");
    record.row("sched.efficiency[jobs=2]", speedup / 2.0, "ratio");
    if host_cores >= 2 {
        assert!(
            speedup > 1.0,
            "{host_cores}-core host but jobs=2 speedup is {speedup:.4} (expected > 1.0)"
        );
    } else {
        println!("  (1-core host: the jobs=2 rows measure overhead, not speedup)");
    }
}

// ---------------------------------------------------------------------
// journal
// ---------------------------------------------------------------------

fn journal_rows(record: &mut Record, smoke: bool) {
    let (input, passes) = if smoke { (InputSize::Small, 2) } else { (InputSize::Native, 9) };
    println!("journal: micro matrix --jobs 1, best of {passes}");
    let config = |on: bool| {
        ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "clang_native", "gcc_asan"])
            .input(input)
            .threads(vec![1, 2])
            .repetitions(2)
            .jobs(1)
            .journal(on)
    };
    let (on_config, off_config) = (config(true), config(false));
    // One untimed pass per configuration warms up; then on and off
    // passes interleave, each timed on-CPU, builds included.
    let pass = |config: &ExperimentConfig| {
        let start = cpu_seconds();
        let (csv, failures, _, events) = run_suite(config, fex_suites::micro());
        (cpu_seconds() - start, csv, failures, events)
    };
    pass(&on_config);
    pass(&off_config);
    let (mut on_times, mut off_times) = (Vec::new(), Vec::new());
    let mut journaled: Option<(String, String, Vec<JournalEvent>)> = None;
    let mut bare: Option<(String, String)> = None;
    for _ in 0..passes {
        let (on_secs, on_csv, on_failures, events) = pass(&on_config);
        let (off_secs, off_csv, off_failures, off_events) = pass(&off_config);
        assert!(off_events.is_empty(), "--no-journal recorded events");
        on_times.push(on_secs);
        off_times.push(off_secs);
        let (csv, failures, pinned) =
            journaled.get_or_insert_with(|| (on_csv.clone(), on_failures.clone(), events.clone()));
        assert!(&on_csv == csv && &on_failures == failures, "journaled passes disagree");
        assert_eq!(events.len(), pinned.len(), "journal event count drifted across passes");
        let (csv, failures) = bare.get_or_insert_with(|| (off_csv.clone(), off_failures.clone()));
        assert!(&off_csv == csv && &off_failures == failures, "journal-free passes disagree");
    }
    // Journaling must not change a single output byte.
    let (on_csv, on_failures, events) = journaled.expect("at least one pass ran");
    let (off_csv, off_failures) = bare.expect("at least one pass ran");
    assert_eq!(on_csv, off_csv, "journaling changed the results CSV");
    assert_eq!(on_failures, off_failures, "journaling changed the failures CSV");

    // The measurement's own noise floor: the median-vs-best spread of the
    // journal-free passes. A delta inside it is timing noise, not journal
    // cost: a negative overhead reads as 0.
    let best = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);
    let (best_on, best_off) = (best(&on_times), best(&off_times));
    let noise_floor = 100.0 * (median(&off_times) - best_off) / best_off;
    let raw_overhead = 100.0 * (best_on - best_off) / best_off;
    let overhead = raw_overhead.max(0.0);
    let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
    record.count("journal.events", events.len());
    record.row("journal.kb", jsonl.len() as f64 / 1024.0, "KiB");
    record.row("journal.run_ms[on]", best_on * 1e3, "ms");
    record.row("journal.run_ms[off]", best_off * 1e3, "ms");
    record.row("journal.overhead_pct", overhead, "%");
    record.row("journal.raw_overhead_pct", raw_overhead, "%");
    record.row("journal.noise_floor_pct", noise_floor, "%");
    if !smoke {
        // Smoke runs are too short for a stable ratio; the full run is
        // held to the budget.
        assert!(overhead < 3.0, "journal overhead {overhead:.2}% exceeds the 3% budget");
        // A large negative overhead means the harness, not the journal,
        // is being measured.
        assert!(
            raw_overhead >= -(noise_floor + 3.0),
            "journal measured {raw_overhead:.2}% faster than no-journal, beyond the \
             {noise_floor:.2}% noise floor: the measurement harness is broken"
        );
    }

    // A real journal + metrics pair for CI to upload.
    write_artifact("micro.journal.jsonl", &jsonl).expect("can write artifact");
    write_artifact("micro.metrics.json", &Metrics::from_journal(&events).to_json())
        .expect("can write artifact");
}

// ---------------------------------------------------------------------
// fuzz
// ---------------------------------------------------------------------

fn fuzz_rows(record: &mut Record, smoke: bool) {
    let (scenarios, cases) = if smoke { (1_000, 5) } else { (20_000, 50) };
    println!("fuzz: {scenarios} scenarios, {cases} oracle cases");

    // Generation alone, no pipeline.
    let start = cpu_seconds();
    let lines: usize = (0..scenarios)
        .map(|i| {
            let s = Scenario::generate(7, i);
            s.programs.iter().map(|p| p.source().lines().count()).sum::<usize>()
        })
        .sum();
    let seconds = cpu_seconds() - start;
    record.count("fuzz.scenarios", scenarios);
    record.count("fuzz.source_lines", lines);
    record.row("fuzz.scenarios_per_s", scenarios as f64 / seconds, "1/s");

    // The full oracle harness, end to end (its reruns fan out over
    // workers, so wall-clock).
    let opts = FuzzOptions {
        seed: 42,
        cases,
        bundle_dir: std::env::temp_dir().join(format!("fex-fuzz-bench-{}", std::process::id())),
        ..FuzzOptions::default()
    };
    let start = Instant::now();
    let report = fuzz::fuzz(&opts).expect("fuzz run");
    let seconds = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&opts.bundle_dir);
    assert!(report.ok(), "bench seed must be clean:\n{}", report.render());
    record.count("fuzz.cases", cases);
    record.row("fuzz.cases_per_s", cases as f64 / seconds, "1/s");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("LAYERS: host cores: {host_cores}{}", if smoke { " (smoke)" } else { "" });
    let mut record = Record::default();
    vm_rows(&mut record, smoke);
    sched_rows(&mut record, smoke, host_cores);
    journal_rows(&mut record, smoke);
    fuzz_rows(&mut record, smoke);
    check_figures(&record);
    write_artifact("BENCH_layers.json", &record.to_json(host_cores, smoke))
        .expect("can write artifact");
}
