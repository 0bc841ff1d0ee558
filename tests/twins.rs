//! Execution twins: run units that differ only in a seed their run cannot
//! observe share one VM execution.
//!
//! Two things are locked down here:
//!
//! 1. **The oracle** — `MachineConfig::seed_observable` is sound: for
//!    every Phoenix and SPLASH program under every build type, whenever
//!    the predicate says the seed is invisible, two different seeds give
//!    equal `RunResult`s. Each feature that makes the seed visible flips
//!    the predicate.
//! 2. **Parity** — deduplicating executions is invisible: `--jobs 1` and
//!    `--jobs 2` give identical CSVs and normalized journals, the run log
//!    counts the executions twins saved, and a benchmark with a fault
//!    plan armed never shares an execution.

use fex_cc::{compile, BuildOptions};
use fex_core::build::MakefileSet;
use fex_core::config::FaultInjection;
use fex_core::runner::{RunContext, Runner, SuiteRunner};
use fex_core::ExperimentConfig;
use fex_suites::{InputSize, Suite};
use fex_vm::{FaultKind, FaultPlan, Machine, MachineConfig, Program, RunResult, VmError};

const TYPES: [&str; 4] = ["gcc_native", "clang_native", "gcc_asan", "clang_asan"];

fn run(program: &Program, config: &MachineConfig, args: &[i64]) -> Result<RunResult, VmError> {
    Machine::new(config.clone()).run(program, args)
}

/// One program under one build type, configured as the runner would.
struct Case {
    label: String,
    program: Program,
    config: MachineConfig,
    args: Vec<i64>,
}

/// Runs `case` under two seeds when its seed is unobservable and checks
/// the results match; returns whether it was checked.
fn seed_free_case_agrees(case: &Case) -> bool {
    if case.config.seed_observable(&case.program) {
        return false;
    }
    let [a, b] = [1, 0xDEAD_BEEF].map(|seed| {
        let config = MachineConfig { seed, ..case.config.clone() };
        run(&case.program, &config, &case.args).expect(&case.label)
    });
    assert_eq!(a, b, "{}: the seed changed a run the predicate calls seed-free", case.label);
    true
}

#[test]
fn an_unobservable_seed_never_changes_a_suite_result() {
    let makefiles = MakefileSet::standard();
    let mut cases = Vec::new();
    for suite in [fex_suites::phoenix(), fex_suites::splash()] {
        let config = ExperimentConfig::new(suite.name);
        for prog in &suite.programs {
            for ty in TYPES {
                let opts = makefiles.build_options(ty, false).unwrap();
                cases.push(Case {
                    label: format!("{} [{ty}]", prog.name),
                    program: compile(prog.source, &opts).unwrap(),
                    config: config.unit_machine_config(prog.name, ty, 1, Some(0), 0),
                    args: prog.args(InputSize::Small).to_vec(),
                });
            }
        }
    }
    assert_eq!(cases.len(), 76, "19 programs x 4 build types");
    // Two workers keep the 152 debug-build runs within a test's budget.
    let checked: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = cases
            .chunks(cases.len().div_ceil(2))
            .map(|half| scope.spawn(|| half.iter().filter(|c| seed_free_case_agrees(c)).count()))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert_eq!(checked, 76, "no paper benchmark reads its seed");
}

/// Two runs of `src` (gcc, native) under `config` with seeds 1 and 2.
fn two_seeds(src: &str, config: MachineConfig) -> (Program, RunResult, RunResult) {
    let program = compile(src, &BuildOptions::gcc()).unwrap();
    let a = run(&program, &MachineConfig { seed: 1, ..config.clone() }, &[]).unwrap();
    let b = run(&program, &MachineConfig { seed: 2, ..config }, &[]).unwrap();
    (program, a, b)
}

#[test]
fn rand_makes_the_seed_observable() {
    let (program, a, b) =
        two_seeds("fn main() -> int { return rand(1000000); }", MachineConfig::default());
    assert!(MachineConfig::default().seed_observable(&program));
    assert_ne!(a.exit, b.exit);
}

#[test]
fn aslr_makes_the_seed_observable() {
    let mut config = MachineConfig::default();
    config.mitigations.aslr = true;
    let (program, a, b) = two_seeds("global g[4]; fn main() -> int { return &g; }", config.clone());
    assert!(!MachineConfig::default().seed_observable(&program), "no other seed reader");
    assert!(config.seed_observable(&program));
    assert_ne!(a.exit, b.exit, "the global moved");
}

#[test]
fn canaries_make_the_seed_observable() {
    let mut config = MachineConfig::default();
    config.mitigations.canaries = true;
    // Reads past the end of `buf`, over the canary slot.
    let src = "fn main() -> int { local buf[1]; buf[0] = 0; \
               return buf[1] ^ buf[2] ^ buf[3]; }";
    let (program, a, b) = two_seeds(src, config.clone());
    assert!(!MachineConfig::default().seed_observable(&program), "no other seed reader");
    assert!(config.seed_observable(&program));
    assert_ne!(a.exit, b.exit, "the canary value leaked");
}

#[test]
fn an_executable_data_segment_makes_the_seed_observable() {
    let mut config = MachineConfig::default();
    config.mitigations.nx = false;
    let program = compile("fn main() -> int { return 0; }", &BuildOptions::gcc()).unwrap();
    assert!(!MachineConfig::default().seed_observable(&program));
    assert!(config.seed_observable(&program));
}

#[test]
fn an_armed_fault_plan_makes_the_seed_observable() {
    // fex-core derives each unit's fault-plan seed from the unit seed, so
    // two reps of one cell roll different faults.
    let program = compile("fn main() -> int { return 0; }", &BuildOptions::gcc()).unwrap();
    let config = ExperimentConfig::new("micro")
        .fault(FaultInjection::everywhere(FaultPlan::spurious(0.5, FaultKind::Trap, 4)));
    let outcomes: Vec<bool> = (0..8)
        .map(|rep| {
            let mc = config.unit_machine_config("b", "gcc_native", 1, Some(rep), 0);
            assert!(mc.seed_observable(&program));
            run(&program, &mc, &[]).is_ok()
        })
        .collect();
    assert!(outcomes.contains(&true) && outcomes.contains(&false), "{outcomes:?}");
}

// ---------------------------------------------------------------------
// Parity
// ---------------------------------------------------------------------

/// Two Phoenix benchmarks (so every cell also has a dry run).
fn two_benchmarks() -> Suite {
    let mut suite = fex_suites::phoenix();
    suite.programs.retain(|p| ["histogram", "linear_regression"].contains(&p.name));
    assert!(suite.programs.iter().all(|p| p.dry_run));
    suite
}

fn config() -> ExperimentConfig {
    ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native", "clang_native"])
        .input(InputSize::Test)
        .repetitions(3)
}

/// Results CSV, failures CSV, the sorted normalized journal and the run
/// log's execution line.
fn run_matrix(config: &ExperimentConfig) -> (String, String, Vec<String>, String) {
    let makefiles = MakefileSet::standard();
    let mut log = Vec::new();
    let mut ctx = RunContext::new(config, &makefiles, &mut log);
    let mut runner = SuiteRunner::new(two_benchmarks(), config);
    let df = runner.run(&mut ctx).unwrap();
    let failures = ctx.failures.to_csv();
    let mut journal: Vec<String> = ctx
        .journal
        .events()
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.normalize();
            e.to_json()
        })
        .collect();
    journal.sort();
    let line = log.iter().find(|l| l.starts_with("run units:")).expect("execution line").clone();
    (df.to_csv(), failures, journal, line)
}

#[test]
fn twins_give_identical_artifacts_at_any_worker_count() {
    let seq = run_matrix(&config().jobs(1));
    let par = run_matrix(&config().jobs(2));
    assert_eq!(seq.0, par.0, "results CSV");
    assert_eq!(seq.1, par.1, "failures CSV");
    assert_eq!(seq.2, par.2, "normalized journal");
    // 2 benchmarks x 2 types x (3 reps + 1 dry run), one execution per
    // benchmark and type.
    for line in [&seq.3, &par.3] {
        assert_eq!(line, "run units: 16 served by 4 VM executions");
    }
    assert_eq!(seq.0.lines().count(), 1 + 12);
    assert_eq!(seq.2.iter().filter(|e| e.contains("\"vm_exec\"")).count(), 16);
}

#[test]
fn a_fault_plan_keeps_every_unit_of_its_benchmark_executing() {
    let config = config().fault(FaultInjection::for_benchmark(
        "histogram",
        FaultPlan::spurious(0.3, FaultKind::Trap, 11),
    ));
    let seq = run_matrix(&config.clone().jobs(1));
    let par = run_matrix(&config.jobs(2));
    assert_eq!(seq.0, par.0, "results CSV");
    assert_eq!(seq.1, par.1, "failures CSV");
    assert_eq!(seq.2, par.2, "normalized journal");
    assert!(seq.1.lines().count() > 1, "the plan really fired:\n{}", seq.1);
    // histogram: all 8 units execute; linear_regression: one per type.
    for line in [&seq.3, &par.3] {
        assert_eq!(line, "run units: 16 served by 10 VM executions");
    }
}
