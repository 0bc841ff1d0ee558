//! Experiment configuration: the typed form of `fex.py`'s command line.

use fex_suites::InputSize;
use fex_vm::{FaultPlan, MachineConfig, MeasureTool, PassMask};

use crate::error::{FexError, Result};
use crate::resilience::RunPolicy;

/// Upper bound on the worker count picked by `--jobs 0` (auto): even on
/// very wide hosts the matrix rarely has more than this many independent
/// run units in flight, and memory per in-flight machine is not free.
pub const MAX_AUTO_JOBS: usize = 16;

/// Fault injection scoped to an experiment: a [`FaultPlan`] applied to
/// the machines of one benchmark (or all of them).
///
/// This is the harness's chaos knob — runs of matching benchmarks
/// execute on machines whose fault plan is armed, with the retry attempt
/// number fed in as the plan's salt so transient faults re-roll across
/// retries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultInjection {
    /// Restrict injection to this benchmark; `None` injects everywhere.
    pub benchmark: Option<String>,
    /// The plan armed on matching machines.
    pub plan: FaultPlan,
}

impl FaultInjection {
    /// Injects `plan` into every benchmark of the experiment.
    pub fn everywhere(plan: FaultPlan) -> Self {
        FaultInjection { benchmark: None, plan }
    }

    /// Injects `plan` only into runs of `benchmark`.
    pub fn for_benchmark(benchmark: impl Into<String>, plan: FaultPlan) -> Self {
        FaultInjection { benchmark: Some(benchmark.into()), plan }
    }

    /// Whether runs of `benchmark` are subject to this injection.
    pub fn applies_to(&self, benchmark: &str) -> bool {
        self.plan.enabled() && self.benchmark.as_deref().is_none_or(|b| b == benchmark)
    }
}

/// Repetition policy for each cell of the experiment matrix.
///
/// `Fixed(n)` is the classic `-r n`. `Adaptive` repeats a cell until the
/// 95% confidence interval of its successful samples is tight enough —
/// half-width ≤ `rel_precision` × |mean| — or the `max` budget is
/// exhausted, never stopping before `min` reps.
///
/// The controller is deterministic across `--jobs`: measurements are pure
/// functions of the unit coordinates (see
/// [`ExperimentConfig::unit_seed`]), so the decision to run rep `k+1` is
/// a pure function of the cell's first `k` samples, identical at any
/// worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Repetitions {
    /// Exactly `n` repetitions per cell.
    Fixed(usize),
    /// Repeat until converged or out of budget.
    Adaptive {
        /// Floor: always run at least this many reps (≥ 2 to estimate
        /// variance).
        min: usize,
        /// Budget: never run more than this many reps.
        max: usize,
        /// Convergence target: CI95 half-width ≤ this fraction of |mean|.
        rel_precision: f64,
    },
}

impl Default for Repetitions {
    fn default() -> Self {
        Repetitions::Fixed(1)
    }
}

impl Repetitions {
    /// Reps every cell runs regardless of convergence.
    pub fn min_reps(&self) -> usize {
        match *self {
            Repetitions::Fixed(n) => n,
            Repetitions::Adaptive { min, .. } => min,
        }
    }

    /// The hard per-cell rep budget.
    pub fn max_reps(&self) -> usize {
        match *self {
            Repetitions::Fixed(n) => n,
            Repetitions::Adaptive { max, .. } => max,
        }
    }

    /// Whether a cell that has executed `done` reps, yielding the
    /// successful measurements `samples`, should run another rep.
    ///
    /// `done` counts executed reps (including failed ones — failures
    /// consume budget); `samples` holds only the successful
    /// measurements, in rep order.
    pub fn wants_more(&self, done: usize, samples: &[f64]) -> bool {
        match *self {
            Repetitions::Fixed(n) => done < n,
            Repetitions::Adaptive { min, max, rel_precision } => {
                if done < min {
                    return true;
                }
                if done >= max {
                    return false;
                }
                !converged(samples, rel_precision)
            }
        }
    }
}

/// Whether the CI95 half-width of `samples` is within `rel_precision` of
/// the magnitude of the mean. Fewer than 2 samples never converge (no
/// variance estimate yet).
fn converged(samples: &[f64], rel_precision: f64) -> bool {
    if samples.len() < 2 {
        return false;
    }
    let m = crate::collect::stats::mean(samples);
    crate::collect::stats::ci95_half_width(samples) <= rel_precision * m.abs()
}

/// One experiment invocation (`fex run -n <name> -t <types> …`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Experiment name (`-n`): `phoenix`, `splash`, `nginx`, `ripe`, …
    pub name: String,
    /// Build types to compare (`-t`), e.g. `gcc_native clang_native`.
    pub build_types: Vec<String>,
    /// Restrict to a single benchmark (`-b`).
    pub benchmark: Option<String>,
    /// Thread counts to sweep (`-m`), default `[1]`.
    pub threads: Vec<usize>,
    /// Repetition policy per matrix cell (`-r` / `--adaptive`), default
    /// one fixed rep.
    pub repetitions: Repetitions,
    /// Input size (`-i`), default native.
    pub input: InputSize,
    /// Verbose output (`-v`).
    pub verbose: bool,
    /// Debug builds and debug environment (`-d`).
    pub debug: bool,
    /// Measurement tool.
    pub tool: MeasureTool,
    /// Seed for deterministic machines and workloads.
    pub seed: u64,
    /// Optional fault injection (resilience testing).
    pub fault: Option<FaultInjection>,
    /// Retry/backoff/quarantine policy for failing runs.
    pub resilience: RunPolicy,
    /// Worker threads for the run-unit scheduler (`--jobs`); `0` means
    /// auto — available parallelism capped at [`MAX_AUTO_JOBS`].
    pub jobs: usize,
    /// The peephole pass subset run over the VM's decoded stream
    /// ([`Self::passes`] selects it; measured results are identical for
    /// any subset).
    pub passes: PassMask,
    /// MRU line fast path in the cache simulator ([`Self::mru`] clears
    /// it; measured results are identical).
    pub mru_fast_path: bool,
    /// Share each artifact's decoded form across all its run units
    /// ([`Self::decode_cache`] clears it; measured results are
    /// identical).
    pub decode_cache: bool,
    /// Record the structured run journal (`--no-journal` clears it;
    /// results and failure CSVs are byte-identical either way).
    pub journal: bool,
    /// Serve clean run units from the artifact graph's node cache on warm
    /// re-runs (`--no-graph` clears it; only takes effect with `--lab`,
    /// and warm results are byte-identical to cold).
    pub graph: bool,
    /// Archive the completed run into a [`RunStore`](crate::lab::RunStore)
    /// at this directory (`--lab [dir]`); `None` keeps runs ephemeral.
    pub lab: Option<String>,
}

impl ExperimentConfig {
    /// A config with the framework defaults, mirroring `fex.py run -n`.
    pub fn new(name: impl Into<String>) -> Self {
        ExperimentConfig {
            name: name.into(),
            build_types: vec!["gcc_native".into()],
            benchmark: None,
            threads: vec![1],
            repetitions: Repetitions::Fixed(1),
            input: InputSize::Native,
            verbose: false,
            debug: false,
            tool: MeasureTool::PerfStat,
            seed: 42,
            fault: None,
            resilience: RunPolicy::default(),
            jobs: 0,
            passes: PassMask::all(),
            mru_fast_path: true,
            decode_cache: true,
            journal: true,
            graph: true,
            lab: None,
        }
    }

    /// Sets the build types (`-t`).
    pub fn types<S: Into<String>>(mut self, types: Vec<S>) -> Self {
        self.build_types = types.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the thread counts (`-m`).
    pub fn threads(mut self, threads: Vec<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Sets a fixed repetition count (`-r`).
    pub fn repetitions(mut self, r: usize) -> Self {
        self.repetitions = Repetitions::Fixed(r);
        self
    }

    /// Sets the adaptive repetition policy (`--adaptive <pct>`): repeat
    /// each cell from `min` up to `max` reps until the CI95 half-width
    /// is within `rel_precision` of the mean.
    pub fn adaptive_repetitions(mut self, min: usize, max: usize, rel_precision: f64) -> Self {
        self.repetitions = Repetitions::Adaptive { min, max, rel_precision };
        self
    }

    /// Archives the completed run into the store at `dir` (`--lab`).
    pub fn lab(mut self, dir: impl Into<String>) -> Self {
        self.lab = Some(dir.into());
        self
    }

    /// Toggles artifact-graph reuse for warm re-runs (`--no-graph`).
    pub fn graph(mut self, on: bool) -> Self {
        self.graph = on;
        self
    }

    /// Sets the input size (`-i`).
    pub fn input(mut self, input: InputSize) -> Self {
        self.input = input;
        self
    }

    /// Restricts to one benchmark (`-b`).
    pub fn benchmark(mut self, b: impl Into<String>) -> Self {
        self.benchmark = Some(b.into());
        self
    }

    /// Selects the measurement tool.
    pub fn tool(mut self, tool: MeasureTool) -> Self {
        self.tool = tool;
        self
    }

    /// Sets the deterministic seed (`--seed`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Arms fault injection for this experiment.
    pub fn fault(mut self, injection: FaultInjection) -> Self {
        self.fault = Some(injection);
        self
    }

    /// Sets the resilience policy.
    pub fn resilience(mut self, policy: RunPolicy) -> Self {
        self.resilience = policy;
        self
    }

    /// Sets the scheduler worker count (`--jobs`); `0` means auto.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Selects the peephole pass subset (a library setting for the
    /// equivalence checks and benches; no CLI flag).
    pub fn passes(mut self, passes: PassMask) -> Self {
        self.passes = passes;
        self
    }

    /// Enables or disables the MRU cache fast path.
    pub fn mru(mut self, on: bool) -> Self {
        self.mru_fast_path = on;
        self
    }

    /// Enables or disables the decoded-artifact cache.
    pub fn decode_cache(mut self, on: bool) -> Self {
        self.decode_cache = on;
        self
    }

    /// Enables or disables the structured run journal (`--no-journal`).
    pub fn journal(mut self, on: bool) -> Self {
        self.journal = on;
        self
    }

    /// The worker count the scheduler actually uses: the configured
    /// `--jobs` value, or (when 0/auto) the host's available parallelism
    /// capped at [`MAX_AUTO_JOBS`].
    pub fn effective_jobs(&self) -> usize {
        if self.jobs != 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(MAX_AUTO_JOBS)
        }
    }

    /// The fault plan armed for `benchmark`, if any.
    pub fn fault_plan_for(&self, benchmark: &str) -> Option<&FaultPlan> {
        self.fault.as_ref().filter(|inj| inj.applies_to(benchmark)).map(|inj| &inj.plan)
    }

    /// The deterministic seed of one run unit, mixed from the experiment
    /// seed and the unit's full coordinates.
    ///
    /// Every run unit owns its randomness: machine seed and fault-plan
    /// seed are pure functions of `(config.seed, bench, type, threads,
    /// rep)`, never of shared mutable state, so results are identical
    /// whatever order workers pick units up in — and a `--jobs 8` run is
    /// byte-identical to `--jobs 1`.
    pub fn unit_seed(&self, bench: &str, ty: &str, threads: usize, rep: Option<usize>) -> u64 {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in bench.bytes() {
            h = mix(h ^ u64::from(b));
        }
        h = mix(h ^ 0x00ff_00ff_00ff_00ff);
        for b in ty.bytes() {
            h = mix(h ^ u64::from(b));
        }
        h = mix(h ^ threads as u64);
        h = mix(h ^ rep.map_or(0, |r| r as u64 + 1));
        h
    }

    /// The [`MachineConfig`] for one run unit: per-unit seed, thread
    /// count as core count, the armed fault plan (re-seeded per unit and
    /// salted with the retry `attempt`), and the resilience run budget.
    ///
    /// Every run unit's machine is built through this one function (the
    /// scheduler worker re-salts the fault plan per retry), which is what
    /// makes outputs byte-identical at any `--jobs` by construction.
    pub fn unit_machine_config(
        &self,
        bench: &str,
        ty: &str,
        threads: usize,
        rep: Option<usize>,
        attempt: u64,
    ) -> MachineConfig {
        let seed = self.unit_seed(bench, ty, threads, rep);
        let mut mc = MachineConfig {
            cores: threads.max(1),
            seed,
            passes: self.passes,
            mru_fast_path: self.mru_fast_path,
            ..MachineConfig::default()
        };
        if let Some(plan) = self.fault_plan_for(bench) {
            let mut plan = plan.clone();
            plan.seed ^= seed;
            mc.fault_plan = plan.with_attempt(attempt);
        }
        if let Some(budget) = self.resilience.run_budget {
            mc.max_instructions = budget;
        }
        mc
    }

    /// Validates basic invariants.
    ///
    /// # Errors
    ///
    /// [`FexError::Config`] on empty type/thread lists or zero reps.
    pub fn validate(&self) -> Result<()> {
        if self.build_types.is_empty() {
            return Err(FexError::Config("at least one build type is required".into()));
        }
        if self.threads.is_empty() || self.threads.contains(&0) {
            return Err(FexError::Config("thread counts must be positive".into()));
        }
        match self.repetitions {
            Repetitions::Fixed(0) => {
                return Err(FexError::Config("repetitions must be at least 1".into()));
            }
            Repetitions::Fixed(_) => {}
            Repetitions::Adaptive { min, max, rel_precision } => {
                if min < 2 {
                    return Err(FexError::Config(
                        "adaptive repetitions need min ≥ 2 to estimate variance".into(),
                    ));
                }
                if max < min {
                    return Err(FexError::Config(
                        "adaptive repetition budget must be ≥ the minimum".into(),
                    ));
                }
                if rel_precision.is_nan() || rel_precision <= 0.0 {
                    return Err(FexError::Config(
                        "adaptive precision must be a positive fraction".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Stable name of the input size for CSV cells.
    pub fn input_name(&self) -> &'static str {
        input_name(self.input)
    }
}

/// One round of splitmix64-style bit mixing (good avalanche, no deps).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Stable name for an input size.
pub fn input_name(input: InputSize) -> &'static str {
    match input {
        InputSize::Test => "test",
        InputSize::Small => "small",
        InputSize::Native => "native",
    }
}

/// The input size called `name`: the inverse of [`input_name`].
pub fn input_from_name(name: &str) -> Result<InputSize> {
    [InputSize::Test, InputSize::Small, InputSize::Native]
        .into_iter()
        .find(|&i| input_name(i) == name)
        .ok_or_else(|| FexError::Config(format!("unknown input size `{name}`")))
}

/// The measurement tool called `name`: the inverse of [`MeasureTool::name`].
pub fn tool_from_name(name: &str) -> Result<MeasureTool> {
    MeasureTool::all()
        .into_iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| FexError::Config(format!("unknown tool `{name}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_and_tool_names_parse_back() {
        for input in [InputSize::Test, InputSize::Small, InputSize::Native] {
            assert_eq!(input_from_name(input_name(input)).unwrap(), input);
        }
        for tool in MeasureTool::all() {
            assert_eq!(tool_from_name(tool.name()).unwrap(), tool);
        }
        let err = input_from_name("huge").unwrap_err().to_string();
        assert_eq!(err, "invalid configuration: unknown input size `huge`");
        let err = tool_from_name("perf").unwrap_err().to_string();
        assert_eq!(err, "invalid configuration: unknown tool `perf`");
    }

    #[test]
    fn builder_defaults_and_validation() {
        let c = ExperimentConfig::new("phoenix");
        assert!(c.validate().is_ok());
        assert_eq!(c.threads, vec![1]);
        assert_eq!(c.input_name(), "native");

        assert!(ExperimentConfig::new("x").types(Vec::<String>::new()).validate().is_err());
        assert!(ExperimentConfig::new("x").threads(vec![0]).validate().is_err());
        assert!(ExperimentConfig::new("x").repetitions(0).validate().is_err());
        assert!(ExperimentConfig::new("x").adaptive_repetitions(1, 8, 0.05).validate().is_err());
        assert!(ExperimentConfig::new("x").adaptive_repetitions(4, 2, 0.05).validate().is_err());
        assert!(ExperimentConfig::new("x").adaptive_repetitions(2, 8, 0.0).validate().is_err());
        assert!(ExperimentConfig::new("x").adaptive_repetitions(2, 8, 0.05).validate().is_ok());
    }

    #[test]
    fn repetition_policies_decide_when_to_stop() {
        let fixed = Repetitions::Fixed(3);
        assert!(fixed.wants_more(0, &[]) && fixed.wants_more(2, &[1.0, 2.0]));
        assert!(!fixed.wants_more(3, &[1.0, 2.0, 3.0]));
        assert_eq!((fixed.min_reps(), fixed.max_reps()), (3, 3));

        let adaptive = Repetitions::Adaptive { min: 2, max: 5, rel_precision: 0.05 };
        assert_eq!((adaptive.min_reps(), adaptive.max_reps()), (2, 5));
        // Below the floor it always continues, even on identical samples.
        assert!(adaptive.wants_more(1, &[10.0]));
        // Tight samples converge at the floor…
        assert!(!adaptive.wants_more(2, &[10.0, 10.0]));
        // …noisy samples keep going…
        assert!(adaptive.wants_more(2, &[10.0, 20.0]));
        // …until the budget runs out.
        assert!(!adaptive.wants_more(5, &[10.0, 20.0, 10.0, 20.0, 10.0]));
        // Failed reps consume budget: `done` may exceed the sample count.
        assert!(adaptive.wants_more(3, &[10.0]));
        assert!(!adaptive.wants_more(5, &[10.0]));
    }

    #[test]
    fn builder_sets_fields() {
        let c = ExperimentConfig::new("splash")
            .types(vec!["gcc_native", "clang_native"])
            .threads(vec![1, 2, 4])
            .repetitions(3)
            .input(InputSize::Test)
            .benchmark("fft");
        assert_eq!(c.build_types.len(), 2);
        assert_eq!(c.threads, vec![1, 2, 4]);
        assert_eq!(c.benchmark.as_deref(), Some("fft"));
        assert_eq!(c.input_name(), "test");
    }

    #[test]
    fn fault_injection_scoping() {
        use fex_vm::FaultKind;

        let everywhere = FaultInjection::everywhere(FaultPlan::persistent(FaultKind::Trap));
        assert!(everywhere.applies_to("fft") && everywhere.applies_to("lu"));

        let scoped = FaultInjection::for_benchmark("fft", FaultPlan::persistent(FaultKind::Trap));
        assert!(scoped.applies_to("fft"));
        assert!(!scoped.applies_to("lu"));

        // A disabled plan never applies, regardless of scope.
        let disabled = FaultInjection::everywhere(FaultPlan::none());
        assert!(!disabled.applies_to("fft"));

        let c = ExperimentConfig::new("splash").fault(scoped);
        assert!(c.fault_plan_for("fft").is_some());
        assert!(c.fault_plan_for("lu").is_none());
        assert!(ExperimentConfig::new("splash").fault_plan_for("fft").is_none());
    }

    #[test]
    fn unit_seeds_are_deterministic_and_coordinate_sensitive() {
        let c = ExperimentConfig::new("splash");
        let s = c.unit_seed("fft", "gcc_native", 4, Some(0));
        assert_eq!(s, c.unit_seed("fft", "gcc_native", 4, Some(0)), "pure function");
        // Every coordinate matters.
        assert_ne!(s, c.unit_seed("lu", "gcc_native", 4, Some(0)));
        assert_ne!(s, c.unit_seed("fft", "clang_native", 4, Some(0)));
        assert_ne!(s, c.unit_seed("fft", "gcc_native", 2, Some(0)));
        assert_ne!(s, c.unit_seed("fft", "gcc_native", 4, Some(1)));
        assert_ne!(s, c.unit_seed("fft", "gcc_native", 4, None));
        // And the experiment seed feeds in.
        let c2 = ExperimentConfig::new("splash");
        let c2 = ExperimentConfig { seed: 43, ..c2 };
        assert_ne!(s, c2.unit_seed("fft", "gcc_native", 4, Some(0)));
    }

    #[test]
    fn unit_machine_config_arms_fault_plan_and_budget() {
        use fex_vm::FaultKind;

        let c = ExperimentConfig::new("splash")
            .fault(FaultInjection::for_benchmark("fft", FaultPlan::persistent(FaultKind::Trap)))
            .resilience(RunPolicy::default().budget(50_000));
        let mc = c.unit_machine_config("fft", "gcc_native", 4, Some(1), 2);
        assert_eq!(mc.cores, 4);
        assert_eq!(mc.seed, c.unit_seed("fft", "gcc_native", 4, Some(1)));
        assert!(mc.fault_plan.enabled());
        assert_eq!(mc.fault_plan.attempt, 2);
        assert_eq!(mc.max_instructions, 50_000);
        // Unmatched benchmark: no fault plan, but the budget still holds.
        let clean = c.unit_machine_config("lu", "gcc_native", 1, None, 0);
        assert!(!clean.fault_plan.enabled());
        assert_eq!(clean.max_instructions, 50_000);
    }

    #[test]
    fn effective_jobs_resolves_auto_and_explicit() {
        let c = ExperimentConfig::new("phoenix");
        assert_eq!(c.jobs, 0, "default is auto");
        let auto = c.effective_jobs();
        assert!((1..=MAX_AUTO_JOBS).contains(&auto));
        assert_eq!(c.clone().jobs(8).effective_jobs(), 8);
        assert_eq!(c.jobs(1).effective_jobs(), 1);
    }

    #[test]
    fn default_resilience_policy_retries_twice() {
        let c = ExperimentConfig::new("phoenix");
        assert_eq!(c.resilience.max_retries, 2);
        assert_eq!(c.resilience.failure_threshold, 1);
        assert!(c.resilience.run_budget.is_none());
    }
}
