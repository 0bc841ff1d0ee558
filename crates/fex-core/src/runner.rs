//! Experiment runners (Fig 3 and Fig 4 of the paper).
//!
//! [`Runner`] is the paper's `Runner` abstract class: setup, an
//! experiment loop and the frame it collects. [`SuiteRunner`] runs the
//! benchmark suites through one loop, the run-unit pipeline: it expands
//! Fig 4's nesting — build type → benchmark → thread count → repetition,
//! with Phoenix's dry run as each benchmark's first unit — into
//! [`RunUnit`]s in matrix order, serves what the lab's artifact graph
//! holds, builds every benchmark per build type that has a unit left
//! (all of them without a graph), executes those units with
//! [`execute_units`] (inline at `--jobs 1`, on a worker pool above) and
//! merges the outcomes back in matrix order.
//! [`VariableInputRunner`] adds the paper's input-size dimension between
//! benchmark and thread count; [`ServerRunner`] and [`SecurityRunner`] have
//! loops of their own for the throughput-latency and RIPE experiments.

use std::collections::{HashMap, HashSet};

use fex_cc::BuildOptions;
use fex_netsim::{ServerBuild, ServerKind, Simulation, Workload};
use fex_ripe::{run_testbed, TestbedConfig};
use fex_suites::{BenchProgram, InputSize, Suite};
use fex_vm::RunResult;

use fex_container::Digest;

use crate::build::{Artifact, MakefileSet};
use crate::collect::{Collector, DataFrame};
use crate::config::{input_name, ExperimentConfig};
use crate::env::environment_for;
use crate::error::{FexError, Result};
use crate::graph::ArtifactGraph;
use crate::journal::{Journal, JournalEvent};
use crate::resilience::{AttemptLog, FailureRecord, FailureReport, QuarantineBook, RunOutcome};
use crate::sched::{execute_units, RunUnit, UnitOutcome, UnitWork};

/// Shared state handed to a runner's setup and loop.
pub struct RunContext<'a> {
    /// The experiment configuration.
    pub config: &'a ExperimentConfig,
    /// The makefile layers every build resolves against.
    pub makefiles: &'a MakefileSet,
    /// Experiment log lines (environment details, progress).
    pub log: &'a mut Vec<String>,
    /// Failure and retry accounting for this experiment.
    pub failures: FailureReport,
    /// The structured run journal (disabled under `--no-journal`). A
    /// strict observer: every unit emits the same event sequence at any
    /// `--jobs` — claim, VM execution, one fault per errored attempt,
    /// outcome — and the runner never reads it back, so CSVs are
    /// byte-identical with it on or off.
    pub journal: Journal,
    /// The artifact graph serving cached clean run units, attached by the
    /// workflow when `--lab` is active and `--no-graph` was not given.
    /// `None` keeps every lookup and store a no-op, so graph-less runs
    /// are untouched.
    pub graph: Option<ArtifactGraph>,
}

impl<'a> RunContext<'a> {
    /// Creates a context with clean failure accounting.
    pub fn new(
        config: &'a ExperimentConfig,
        makefiles: &'a MakefileSet,
        log: &'a mut Vec<String>,
    ) -> Self {
        RunContext {
            config,
            makefiles,
            log,
            failures: FailureReport::default(),
            journal: Journal::new(config.journal),
            graph: None,
        }
    }

    /// Appends a log line (printed immediately in verbose mode).
    pub fn log(&mut self, line: impl Into<String>) {
        let line = line.into();
        if self.config.verbose {
            println!("[fex] {line}");
        }
        self.log.push(line);
    }
}

/// Folds one [`AttemptLog`] into the context's failure accounting, the
/// quarantine book and the run journal. Non-run errors propagate and
/// abort the experiment; run faults are recorded and — at the failure
/// threshold — quarantine the benchmark.
///
/// `rep` is `None` for benchmark-level actions (dry runs); the failure
/// CSV and log lines keep printing `0` there, exactly as before the
/// journal existed.
fn settle(
    ctx: &mut RunContext<'_>,
    quarantine: &mut QuarantineBook,
    log: AttemptLog,
    ty: &str,
    bench: &str,
    threads: usize,
    rep: Option<usize>,
) -> Result<()> {
    ctx.failures.note_run(log.attempts, log.backoff_cycles);
    if ctx.journal.enabled() {
        for (attempt, error) in log.errors.iter().enumerate() {
            ctx.journal.emit(JournalEvent::RunFault {
                benchmark: bench.to_string(),
                build_type: ty.to_string(),
                threads,
                rep,
                attempt: attempt as u64,
                error: error.clone(),
            });
        }
    }
    let outcome_event = |ctx: &mut RunContext<'_>, outcome: &str| {
        if ctx.journal.enabled() {
            ctx.journal.emit(JournalEvent::UnitOutcome {
                benchmark: bench.to_string(),
                build_type: ty.to_string(),
                threads,
                rep,
                outcome: outcome.to_string(),
                attempts: log.attempts,
                backoff_cycles: log.backoff_cycles,
            });
        }
    };
    let rec_rep = rep.unwrap_or(0);
    let first_error = log.errors.first().cloned().unwrap_or_default();
    match log.result {
        Ok(()) => {
            if log.attempts > 1 {
                ctx.log(format!(
                    "`{bench}` [{ty}] m={threads} rep={rec_rep} recovered after {} attempts",
                    log.attempts
                ));
                ctx.failures.push(FailureRecord {
                    benchmark: bench.to_string(),
                    build_type: ty.to_string(),
                    threads,
                    rep: rec_rep,
                    error: first_error,
                    attempts: log.attempts,
                    outcome: RunOutcome::Recovered,
                });
                outcome_event(ctx, "recovered");
            } else {
                outcome_event(ctx, "clean");
            }
            Ok(())
        }
        Err(e) if e.is_run_fault() => {
            let quarantined = quarantine.record_failure(bench);
            let outcome = if quarantined { RunOutcome::Quarantined } else { RunOutcome::Failed };
            ctx.log(format!(
                "`{bench}` [{ty}] m={threads} rep={rec_rep} {outcome} after {} attempts: {e}",
                log.attempts
            ));
            ctx.failures.push(FailureRecord {
                benchmark: bench.to_string(),
                build_type: ty.to_string(),
                threads,
                rep: rec_rep,
                error: e.to_string(),
                attempts: log.attempts,
                outcome,
            });
            outcome_event(ctx, &outcome.to_string());
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// One artifact-graph lookup event (hit or miss) for one run unit.
fn graph_event(
    hit: bool,
    bench: &str,
    ty: &str,
    threads: usize,
    rep: Option<usize>,
) -> JournalEvent {
    if hit {
        JournalEvent::GraphHit {
            benchmark: bench.to_string(),
            build_type: ty.to_string(),
            threads,
            rep,
        }
    } else {
        JournalEvent::GraphMiss {
            benchmark: bench.to_string(),
            build_type: ty.to_string(),
            threads,
            rep,
        }
    }
}

/// The outcome a unit served without executing it synthesizes — by the
/// artifact graph or by its execution twin: a clean single-attempt log
/// carrying the result, with the event pair (claim, execution) the worker
/// would have emitted. Only clean first-attempt results are ever served,
/// so the synthesized log is exactly what executing the unit would have
/// produced.
fn served_outcome(unit: &RunUnit, run: RunResult, journal: bool) -> UnitOutcome {
    let mut events = Vec::new();
    if journal {
        events.push(JournalEvent::UnitClaim {
            benchmark: unit.bench.clone(),
            build_type: unit.ty.clone(),
            threads: unit.threads,
            rep: unit.rep,
            worker: 0,
        });
        events.push(JournalEvent::vm_exec(&unit.bench, &unit.ty, unit.threads, unit.rep, &run));
    }
    UnitOutcome { log: clean_log(), result: Some(run), events }
}

/// The retry trail of a unit that settled on one clean attempt.
fn clean_log() -> AttemptLog {
    AttemptLog { attempts: 1, backoff_cycles: 0, errors: Vec::new(), result: Ok(()) }
}

/// Whether a unit settled on its first attempt without an error: the only
/// results the graph stores and execution twins share.
fn clean_first_attempt(outcome: &UnitOutcome) -> bool {
    outcome.log.attempts == 1 && outcome.log.errors.is_empty() && outcome.result.is_some()
}

/// The paper's `Runner` class: setup, the experiment loop and its frame.
pub trait Runner {
    /// Experiment name.
    fn experiment_name(&self) -> &str;

    /// One-time setup before the loop.
    fn experiment_setup(&mut self, _ctx: &mut RunContext<'_>) -> Result<()> {
        Ok(())
    }

    /// The experiment loop: builds, runs and records into the runner's
    /// frame. Run faults are the loop's to settle (retry, quarantine,
    /// the context's [`FailureReport`]); non-run errors (configuration,
    /// unknown names, build failures) abort the experiment.
    fn experiment_loop(&mut self, ctx: &mut RunContext<'_>) -> Result<()>;

    /// Runs setup + loop and returns the collected frame.
    fn run(&mut self, ctx: &mut RunContext<'_>) -> Result<DataFrame> {
        self.experiment_setup(ctx)?;
        self.experiment_loop(ctx)?;
        Ok(self.take_frame())
    }

    /// Extracts the result frame after the loop.
    fn take_frame(&mut self) -> DataFrame;
}

// ---------------------------------------------------------------------
// Suite performance runner
// ---------------------------------------------------------------------

/// Runs a benchmark suite through the run-unit pipeline.
pub struct SuiteRunner {
    suite: Suite,
    collector: Collector,
    /// Every (type, benchmark) pair's artifact digest, derived without
    /// compiling: all a unit's graph key needs.
    digests: HashMap<(String, String), Digest>,
    /// The pairs this experiment compiled and decoded, each once: those
    /// with a unit the artifact graph did not serve.
    artifacts: HashMap<(String, String), Artifact>,
    /// This experiment's clean first-attempt results by execution key
    /// (see [`SuiteRunner::unit_exec_key`]): a unit whose key is here is
    /// served that result instead of running the VM again.
    twin_runs: HashMap<Digest, RunResult>,
    /// Run units with work this experiment, and how many of them ran the
    /// VM rather than being served by the graph or by a twin.
    run_units: usize,
    vm_executions: usize,
}

impl SuiteRunner {
    /// Creates a runner for a suite with the configured measurement tool.
    pub fn new(suite: Suite, config: &ExperimentConfig) -> Self {
        SuiteRunner {
            suite,
            collector: Collector::new(config.tool),
            digests: HashMap::new(),
            artifacts: HashMap::new(),
            twin_runs: HashMap::new(),
            run_units: 0,
            vm_executions: 0,
        }
    }

    fn program(&self, name: &str) -> Result<&BenchProgram> {
        self.suite
            .program(name)
            .ok_or_else(|| FexError::UnknownName { kind: "benchmark", name: name.to_string() })
    }

    /// Benchmarks this experiment iterates over (after `-b` filtering).
    fn benchmarks(&self, config: &ExperimentConfig) -> Vec<String> {
        match &config.benchmark {
            Some(b) => vec![b.clone()],
            None => self.suite.programs.iter().map(|p| p.name.to_string()).collect(),
        }
    }

    /// The build stage of one (type, benchmark) pair. With `compile` —
    /// a unit of the pair was not served by the artifact graph — or
    /// without a derived digest, the pair is compiled and decoded into
    /// [`SuiteRunner::artifacts`]. Otherwise every unit's graph key
    /// already pins the whole derivation, so the pair is left unbuilt.
    /// Either way it emits one `build` event with its digest.
    fn build_pair(
        &mut self,
        ctx: &mut RunContext<'_>,
        ty: &str,
        bench: &str,
        compile: bool,
    ) -> Result<()> {
        let pair = (ty.to_string(), bench.to_string());
        let source = self.program(bench)?.source;
        let started = std::time::Instant::now();
        let (debug, passes) = (ctx.config.debug, ctx.config.passes);
        let skipped = self.digests.get(&pair).copied().filter(|_| !compile);
        let digest = match skipped {
            Some(digest) => {
                let opts = ctx.makefiles.build_options(ty, debug)?;
                ctx.log(format!(
                    "not rebuilt `{bench}` [{}]: the artifact graph serves every unit",
                    opts.build_info()
                ));
                digest
            }
            None => {
                let artifact = ctx.makefiles.build(bench, source, ty, debug, passes)?;
                ctx.log(format!("built `{bench}` [{}]", artifact.build_info));
                let digest = artifact.digest;
                self.artifacts.insert(pair, artifact);
                digest
            }
        };
        if ctx.journal.enabled() {
            ctx.journal.emit(JournalEvent::Build {
                benchmark: bench.to_string(),
                build_type: ty.to_string(),
                digest: digest.to_string(),
                cache_hit: skipped.is_some(),
                wall_ns: started.elapsed().as_nanos() as u64,
            });
        }
        Ok(())
    }

    /// One run unit of the matrix and its entry arguments, without an
    /// executable payload: [`SuiteRunner::unit_work`] attaches one only
    /// when the artifact graph does not serve the unit. Repetitions
    /// record their result; the per-benchmark unit (`rep` `None`) does
    /// not.
    fn new_unit(
        &self,
        ty: &str,
        bench: &str,
        threads: usize,
        rep: Option<usize>,
        input: InputSize,
    ) -> Result<(RunUnit, Vec<i64>)> {
        let args: Vec<i64> = self.program(bench)?.args(input).to_vec();
        let unit = RunUnit {
            ty: ty.to_string(),
            bench: bench.to_string(),
            threads,
            rep,
            input: input_name(input),
            record: rep.is_some(),
            line: None,
            work: None,
        };
        Ok((unit, args))
    }

    /// The executable payload of a unit bound for the worker pool: the
    /// `Arc`-shared program of this experiment's artifact plus the unit's
    /// derived machine configuration (attempt 0; the worker re-salts per
    /// retry).
    fn unit_work(
        &self,
        config: &ExperimentConfig,
        unit: &RunUnit,
        args: Vec<i64>,
    ) -> Result<UnitWork> {
        let (ty, bench) = (&unit.ty, &unit.bench);
        let artifact = self
            .artifacts
            .get(&(ty.clone(), bench.clone()))
            .ok_or_else(|| FexError::Config(format!("`{bench}` was not built for `{ty}`")))?;
        Ok(UnitWork {
            program: artifact.program.clone(),
            decoded: config.decode_cache.then(|| artifact.decoded.clone()),
            args,
            config: config.unit_machine_config(bench, ty, unit.threads, unit.rep, 0),
        })
    }

    /// The content-addressed graph key for one run unit, or `None` when
    /// the unit is not cacheable: benchmarks with a fault plan armed
    /// bypass the graph entirely (their retry and quarantine behaviour
    /// must replay identically on warm runs), as do units whose artifact
    /// digest did not derive (their build reports why). Needs no build.
    fn unit_graph_key(
        &self,
        config: &ExperimentConfig,
        unit: &RunUnit,
        args: &[i64],
    ) -> Option<Digest> {
        self.unit_digest(config, unit, args, true)
    }

    /// The execution key of one run unit: the graph key's inputs with the
    /// seed and the rep dropped when the unit's machine cannot observe its
    /// seed ([`MachineConfig::seed_observable`]), which reads the built
    /// program. Units that share an execution key ("twins") have
    /// identical results, so an experiment executes each key once. `None`
    /// exactly when the graph key is, once the unit's pair is built.
    fn unit_exec_key(
        &self,
        config: &ExperimentConfig,
        unit: &RunUnit,
        args: &[i64],
    ) -> Option<Digest> {
        self.unit_digest(config, unit, args, false)
    }

    /// [`crate::graph::unit_key`] of one run unit; `seeded` keeps the seed
    /// and the rep even when the run cannot observe them.
    fn unit_digest(
        &self,
        config: &ExperimentConfig,
        unit: &RunUnit,
        args: &[i64],
        seeded: bool,
    ) -> Option<Digest> {
        let (ty, bench, threads, rep) = (&unit.ty, &unit.bench, unit.threads, unit.rep);
        if config.fault_plan_for(bench).is_some() {
            return None;
        }
        let pair = (ty.clone(), bench.clone());
        let digest = *self.digests.get(&pair)?;
        let seeded = seeded
            || config
                .unit_machine_config(bench, ty, threads, rep, 0)
                .seed_observable(&self.artifacts.get(&pair)?.program);
        let (seed, rep) =
            if seeded { (config.unit_seed(bench, ty, threads, rep), rep) } else { (0, None) };
        Some(crate::graph::unit_key(
            digest,
            seed,
            threads,
            rep,
            unit.input,
            args,
            config.resilience.run_budget,
        ))
    }

    /// Logs how many VM executions served this experiment's run units.
    fn log_executions(&self, ctx: &mut RunContext<'_>) {
        if self.run_units > 0 {
            ctx.log(format!(
                "run units: {} served by {} VM executions",
                self.run_units, self.vm_executions
            ));
        }
    }

    /// The experiment loop at every `--jobs`: derives every pair's
    /// artifact digest, expands the matrix into [`RunUnit`]s in matrix
    /// order, serves the units the artifact graph holds, builds only the
    /// (type, benchmark) pairs with a unit left over, executes each
    /// distinct execution among those once through [`execute_units`]
    /// (execution twins are served), and merges the outcomes back in
    /// matrix order — applying quarantine decisions only at merge time,
    /// so results, failure records and quarantine choices do not depend
    /// on the worker count.
    ///
    /// `sizes` adds the [`VariableInputRunner`] input-size dimension
    /// between benchmark and thread count; `None` runs the plain Fig 4
    /// matrix.
    fn unit_loop(&mut self, ctx: &mut RunContext<'_>, sizes: Option<&[InputSize]>) -> Result<()> {
        let types = ctx.config.build_types.clone();
        let threads = ctx.config.threads.clone();
        let reps = ctx.config.repetitions;
        let policy = ctx.config.resilience.clone();
        let jobs = ctx.config.effective_jobs();

        // Phase 1: every (type, benchmark) pair's artifact digest, derived
        // without compiling. A pair whose options do not resolve gets no
        // digest, so its units miss and its build reports the error in
        // (type, benchmark) order.
        for ty in &types {
            for bench in self.benchmarks(ctx.config) {
                let source = self.program(&bench)?.source;
                let (debug, passes) = (ctx.config.debug, ctx.config.passes);
                if let Ok(digest) = ctx.makefiles.artifact_digest(&bench, source, ty, debug, passes)
                {
                    self.digests.insert((ty.clone(), bench), digest);
                }
            }
        }

        // Phase 2: expand the matrix into per-(type, benchmark) groups
        // and measurement cells, in matrix order.
        let size_axis: Vec<InputSize> = sizes.map_or_else(|| vec![ctx.config.input], <[_]>::to_vec);
        struct Cell {
            ty: String,
            bench: String,
            input: InputSize,
            threads: usize,
            /// Executed rep count (failures included — they consume the
            /// adaptive budget but add no sample).
            done: usize,
            /// Successful samples, in rep order.
            samples: Vec<f64>,
            /// Executed units with their outcomes, in rep order.
            executed: Vec<(RunUnit, UnitOutcome)>,
        }
        struct Group {
            ty: String,
            bench: String,
            dry_run: bool,
            cells: std::ops::Range<usize>,
            dry: Option<(RunUnit, UnitOutcome)>,
        }
        let mut cells: Vec<Cell> = Vec::new();
        let mut groups: Vec<Group> = Vec::new();
        for ty in &types {
            for bench in self.benchmarks(ctx.config) {
                let dry_run = self.program(&bench)?.dry_run;
                let first_cell = cells.len();
                for &input in &size_axis {
                    for m in &threads {
                        cells.push(Cell {
                            ty: ty.clone(),
                            bench: bench.clone(),
                            input,
                            threads: *m,
                            done: 0,
                            samples: Vec::new(),
                            executed: Vec::new(),
                        });
                    }
                }
                groups.push(Group {
                    ty: ty.clone(),
                    bench: bench.clone(),
                    dry_run,
                    cells: first_cell..cells.len(),
                    dry: None,
                });
            }
        }

        // Phase 3: speculative execution, in rounds. Round 0 covers the
        // per-benchmark units (Phoenix's dry run; bookkeeping otherwise)
        // plus every rep the policy wants before seeing any sample (all
        // of them, for `Fixed`); each later round gives every
        // unconverged cell exactly one more rep, the repetition
        // controller's one-at-a-time re-check. Measurements are pure
        // functions of unit coordinates, so each cell's sample sequence —
        // and therefore its rep count — is the same at any worker count;
        // a `Fixed` policy terminates after round 0.
        enum Origin {
            Dry(usize),
            Rep(usize),
        }
        let journal_on = ctx.journal.enabled();
        let graph_on = ctx.graph.is_some() && ctx.config.graph;
        let mut round = 0usize;
        let mut executed_with_decode = 0usize;
        loop {
            // Each unit with its entry arguments; `None` for bookkeeping.
            let mut batch: Vec<(RunUnit, Option<Vec<i64>>)> = Vec::new();
            let mut origins: Vec<Origin> = Vec::new();
            for (g, group) in groups.iter().enumerate() {
                if round == 0 {
                    let (ty, bench) = (&group.ty, &group.bench);
                    let (mut dry, args) = self.new_unit(ty, bench, 1, None, ctx.config.input)?;
                    dry.line = group.dry_run.then(|| format!("dry run for `{bench}`"));
                    batch.push((dry, group.dry_run.then_some(args)));
                    origins.push(Origin::Dry(g));
                }
                for ci in group.cells.clone() {
                    let cell = &cells[ci];
                    let wanted = if round == 0 {
                        reps.min_reps()
                    } else {
                        usize::from(reps.wants_more(cell.done, &cell.samples))
                    };
                    for rep in cell.done..cell.done + wanted {
                        let (ty, bench, m) = (&cell.ty, &cell.bench, cell.threads);
                        let (unit, args) = self.new_unit(ty, bench, m, Some(rep), cell.input)?;
                        batch.push((unit, Some(args)));
                        origins.push(Origin::Rep(ci));
                    }
                }
            }
            let n = batch.len();
            if round > 0 {
                if n == 0 {
                    break;
                }
                ctx.log(format!("scheduler: adaptive round {round}: {n} run units"));
            }
            // Artifact-graph partition, ahead of any build: serve cached
            // clean units without executing them. Served outcomes
            // synthesize the event shape the worker would emit, so the
            // merged journal is the same cold and warm.
            let mut slots: Vec<Option<(RunUnit, UnitOutcome)>> = (0..n).map(|_| None).collect();
            let mut graph_keys: Vec<Option<Digest>> = vec![None; n];
            let mut hits = vec![false; n];
            let mut unserved: Vec<(usize, RunUnit, Vec<i64>)> = Vec::new();
            for (i, (unit, args)) in batch.into_iter().enumerate() {
                let Some(args) = args else {
                    // Bookkeeping units settle as one clean attempt.
                    let outcome =
                        UnitOutcome { log: clean_log(), result: None, events: Vec::new() };
                    slots[i] = Some((unit, outcome));
                    continue;
                };
                self.run_units += 1;
                if graph_on {
                    graph_keys[i] = self.unit_graph_key(ctx.config, &unit, &args);
                }
                let cached = match (&graph_keys[i], ctx.graph.as_mut()) {
                    (Some(key), Some(g)) => g.lookup_run(key),
                    _ => None,
                };
                match cached {
                    Some(run) => {
                        hits[i] = true;
                        let outcome = served_outcome(&unit, run, journal_on);
                        slots[i] = Some((unit, outcome));
                    }
                    None => unserved.push((i, unit, args)),
                }
            }
            // The build stage, in (type, benchmark) order before any unit
            // executes: a pair compiles only when one of its units was not
            // served — a miss, an uncacheable unit, or any unit at all with
            // the graph off. Round 0 resolves every pair; a later adaptive
            // round builds a pair round 0 left unbuilt when one of its new
            // units misses.
            if round == 0 {
                let needed: HashSet<(&str, &str)> =
                    unserved.iter().map(|(_, u, _)| (u.ty.as_str(), u.bench.as_str())).collect();
                for ty in &types {
                    let env = environment_for(ty);
                    let vars = env.spec().resolve(ctx.config.debug);
                    ctx.log(format!("type `{ty}` environment ({}): {vars:?}", env.name()));
                    for bench in self.benchmarks(ctx.config) {
                        let compile = !graph_on || needed.contains(&(ty.as_str(), bench.as_str()));
                        self.build_pair(ctx, ty, &bench, compile)?;
                    }
                }
                ctx.log(format!("scheduler: {n} run units across {jobs} workers"));
            } else {
                for (_, unit, _) in &unserved {
                    if !self.artifacts.contains_key(&(unit.ty.clone(), unit.bench.clone())) {
                        self.build_pair(ctx, &unit.ty, &unit.bench, true)?;
                    }
                }
            }
            // Of the units left, only the first of each execution key goes
            // to the worker pool; its twins take its result, or execute
            // themselves when it did not run clean on its first attempt.
            let mut leaders: Vec<RunUnit> = Vec::new();
            let mut leader_slots: Vec<(usize, Option<Digest>)> = Vec::new();
            let mut pending: HashSet<Digest> = HashSet::new();
            let mut twins: Vec<(usize, RunUnit, Digest)> = Vec::new();
            for (i, mut unit, args) in unserved {
                let work = self.unit_work(ctx.config, &unit, args)?;
                if work.decoded.is_some() {
                    executed_with_decode += 1;
                }
                let exec_key = self.unit_exec_key(ctx.config, &unit, &work.args);
                unit.work = Some(work);
                if let Some(key) = exec_key {
                    if let Some(run) = self.twin_runs.get(&key) {
                        let outcome = served_outcome(&unit, run.clone(), journal_on);
                        slots[i] = Some((unit, outcome));
                        continue;
                    }
                    if !pending.insert(key) {
                        twins.push((i, unit, key));
                        continue;
                    }
                }
                leader_slots.push((i, exec_key));
                leaders.push(unit);
            }
            let outcomes = execute_units(&leaders, &policy, jobs, journal_on, 0);
            self.vm_executions += leaders.len();
            for ((unit, outcome), (i, exec_key)) in
                leaders.into_iter().zip(outcomes).zip(leader_slots)
            {
                if let Some(key) = exec_key.filter(|_| clean_first_attempt(&outcome)) {
                    let run = outcome.result.clone().expect("clean outcomes carry a result");
                    self.twin_runs.insert(key, run);
                }
                slots[i] = Some((unit, outcome));
            }
            // Twins whose leader ran clean take its result; the others
            // execute themselves, so their retry trails are their own.
            let mut unserved: Vec<RunUnit> = Vec::new();
            let mut unserved_slots: Vec<usize> = Vec::new();
            for (i, unit, key) in twins {
                match self.twin_runs.get(&key) {
                    Some(run) => {
                        let outcome = served_outcome(&unit, run.clone(), journal_on);
                        slots[i] = Some((unit, outcome));
                    }
                    None => {
                        unserved_slots.push(i);
                        unserved.push(unit);
                    }
                }
            }
            let retried = execute_units(&unserved, &policy, jobs, journal_on, 0);
            self.vm_executions += unserved.len();
            for ((unit, outcome), i) in unserved.into_iter().zip(retried).zip(unserved_slots) {
                slots[i] = Some((unit, outcome));
            }
            // Every looked-up unit records its hit or miss ahead of the
            // claim, and a miss stores its clean first-attempt result for
            // the next warm run, in matrix order.
            for ((slot, key), hit) in slots.iter_mut().zip(&graph_keys).zip(hits) {
                let (Some((unit, outcome)), Some(key)) = (slot.as_mut(), key) else { continue };
                if journal_on {
                    outcome
                        .events
                        .insert(0, graph_event(hit, &unit.bench, &unit.ty, unit.threads, unit.rep));
                }
                if !hit && clean_first_attempt(outcome) {
                    if let (Some(run), Some(g)) = (&outcome.result, ctx.graph.as_mut()) {
                        g.store_run(key, run)?;
                    }
                }
            }
            for (slot, origin) in slots.into_iter().zip(origins) {
                let (unit, outcome) = slot.expect("every unit is served or executed");
                match origin {
                    Origin::Dry(g) => groups[g].dry = Some((unit, outcome)),
                    Origin::Rep(ci) => {
                        let cell = &mut cells[ci];
                        if let Some(run) = &outcome.result {
                            cell.samples.push(crate::collect::run_sample(ctx.config.tool, run));
                        }
                        cell.done += 1;
                        cell.executed.push((unit, outcome));
                    }
                }
            }
            round += 1;
        }
        if executed_with_decode > 0 {
            // Every pair this experiment built decoded once.
            let decodes = self.artifacts.len();
            let reuses = executed_with_decode.saturating_sub(decodes);
            ctx.log(format!(
                "decoded-artifact cache: {decodes} decodes served {executed_with_decode} run \
                 units ({reuses} reuses, {:.1}% hit rate)",
                100.0 * reuses as f64 / executed_with_decode as f64
            ));
        }

        // Phase 4: deterministic merge — quarantine applied in matrix
        // order, so a quarantine decision drops every later unit of its
        // benchmark.
        let mut quarantine = QuarantineBook::new(policy.failure_threshold);
        for group in groups {
            let (unit, outcome) = group.dry.expect("round 0 executes every per-benchmark unit");
            self.merge_unit(ctx, &mut quarantine, unit, outcome)?;
            for ci in group.cells {
                for (unit, outcome) in std::mem::take(&mut cells[ci].executed) {
                    self.merge_unit(ctx, &mut quarantine, unit, outcome)?;
                }
            }
        }
        self.log_executions(ctx);
        Ok(())
    }

    /// Merges one speculatively executed unit back into the experiment:
    /// quarantine check, log replay, journal splice, settle, record.
    fn merge_unit(
        &mut self,
        ctx: &mut RunContext<'_>,
        quarantine: &mut QuarantineBook,
        unit: RunUnit,
        outcome: UnitOutcome,
    ) -> Result<()> {
        if quarantine.is_quarantined(&unit.bench) {
            // The skip is announced once per (type, benchmark) — at
            // the per-benchmark unit. A speculatively executed unit's
            // worker events are dropped with it, so the journal does
            // not depend on how far speculation ran.
            if !unit.record {
                ctx.log(format!("skipping quarantined `{}` [{}]", unit.bench, unit.ty));
                ctx.journal.emit(JournalEvent::QuarantineSkip {
                    benchmark: unit.bench.clone(),
                    build_type: unit.ty.clone(),
                });
            }
            return Ok(());
        }
        if let Some(line) = &unit.line {
            ctx.log(line.clone());
        }
        let rep = unit.rep.unwrap_or(0);
        let recorded = unit.record && outcome.result.is_some();
        // Splice the worker's per-unit events (claim + execution)
        // ahead of the fault/outcome events settle emits.
        ctx.journal.extend(outcome.events);
        settle(ctx, quarantine, outcome.log, &unit.ty, &unit.bench, unit.threads, unit.rep)?;
        if recorded {
            let run = outcome.result.expect("checked above");
            self.collector.record(
                self.suite.name,
                &unit.bench,
                &unit.ty,
                unit.threads,
                unit.input,
                rep,
                &run,
            );
        }
        Ok(())
    }
}

impl Runner for SuiteRunner {
    fn experiment_name(&self) -> &str {
        self.suite.name
    }

    fn experiment_setup(&mut self, ctx: &mut RunContext<'_>) -> Result<()> {
        if self.suite.proprietary {
            return Err(FexError::Config(format!(
                "suite `{}` is proprietary: sources are not distributed with the framework",
                self.suite.name
            )));
        }
        self.digests.clear();
        self.artifacts.clear();
        self.twin_runs.clear();
        (self.run_units, self.vm_executions) = (0, 0);
        ctx.log(format!("experiment `{}` setup complete", self.suite.name));
        Ok(())
    }

    fn experiment_loop(&mut self, ctx: &mut RunContext<'_>) -> Result<()> {
        self.unit_loop(ctx, None)
    }

    fn take_frame(&mut self) -> DataFrame {
        let tool = self.collector.tool();
        std::mem::replace(&mut self.collector, Collector::new(tool)).into_frame()
    }
}

// ---------------------------------------------------------------------
// Variable-input runner
// ---------------------------------------------------------------------

/// The paper's `VariableInputRunner`: redefines `experiment_loop` to add
/// an input-size dimension around the thread loop — types → benchmarks →
/// **input sizes** → threads → repetitions.
pub struct VariableInputRunner {
    inner: SuiteRunner,
    sizes: Vec<InputSize>,
}

impl VariableInputRunner {
    /// Creates a variable-input sweep over the given sizes.
    pub fn new(suite: Suite, config: &ExperimentConfig, sizes: Vec<InputSize>) -> Self {
        VariableInputRunner { inner: SuiteRunner::new(suite, config), sizes }
    }
}

impl Runner for VariableInputRunner {
    fn experiment_name(&self) -> &str {
        self.inner.experiment_name()
    }

    fn experiment_setup(&mut self, ctx: &mut RunContext<'_>) -> Result<()> {
        self.inner.experiment_setup(ctx)
    }

    fn experiment_loop(&mut self, ctx: &mut RunContext<'_>) -> Result<()> {
        self.inner.unit_loop(ctx, Some(&self.sizes))
    }

    fn take_frame(&mut self) -> DataFrame {
        self.inner.take_frame()
    }
}

// ---------------------------------------------------------------------
// Server runner
// ---------------------------------------------------------------------

/// Throughput-latency experiments for the real-world applications
/// (the paper's Nginx study, §IV-B).
pub struct ServerRunner {
    kind: ServerKind,
    frame: DataFrame,
}

/// Offered-load points per throughput-latency curve.
const SWEEP_POINTS: usize = 10;

impl ServerRunner {
    /// Creates a server runner.
    pub fn new(kind: ServerKind) -> Self {
        ServerRunner {
            kind,
            frame: DataFrame::new(vec![
                "benchmark",
                "type",
                "offered",
                "throughput",
                "mean_ms",
                "p50_ms",
                "p95_ms",
                "p99_ms",
                "saturated",
            ]),
        }
    }
}

impl Runner for ServerRunner {
    fn experiment_name(&self) -> &str {
        self.kind.name()
    }

    /// Replaces the Fig 4 loop: build each server variant, then sweep
    /// offered load.
    fn experiment_loop(&mut self, ctx: &mut RunContext<'_>) -> Result<()> {
        let types = ctx.config.build_types.clone();
        for ty in &types {
            let opts: BuildOptions = ctx.makefiles.build_options(ty, ctx.config.debug)?;
            let build =
                ServerBuild::compile(self.kind, &opts).map_err(|source| FexError::Build {
                    benchmark: self.kind.name().to_string(),
                    build_type: ty.clone(),
                    source,
                })?;
            ctx.log(format!(
                "{} [{ty}]: calibrated service time {} ns/request",
                self.kind.name(),
                build.service_ns()
            ));
            let workload = Workload { seed: ctx.config.seed, ..Workload::default() };
            let sim = Simulation::new(&build, workload);
            for point in sim.sweep(SWEEP_POINTS) {
                let m = &point.metrics;
                self.frame.push(vec![
                    self.kind.name().into(),
                    ty.as_str().into(),
                    m.offered.into(),
                    m.throughput.into(),
                    m.mean_latency_ms.into(),
                    m.p50_ms.into(),
                    m.p95_ms.into(),
                    m.p99_ms.into(),
                    (point.saturated as i64).into(),
                ]);
            }
        }
        Ok(())
    }

    fn take_frame(&mut self) -> DataFrame {
        std::mem::take(&mut self.frame)
    }
}

// ---------------------------------------------------------------------
// Security runner
// ---------------------------------------------------------------------

/// The RIPE security experiment (§IV-C, Table II).
pub struct SecurityRunner {
    frame: DataFrame,
}

impl SecurityRunner {
    /// Creates the runner; the testbed runs on the paper's insecure
    /// machine configuration.
    pub fn new() -> Self {
        SecurityRunner {
            frame: DataFrame::new(vec!["type", "total", "successful", "failed", "detected"]),
        }
    }
}

impl Default for SecurityRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner for SecurityRunner {
    fn experiment_name(&self) -> &str {
        "ripe"
    }

    fn experiment_loop(&mut self, ctx: &mut RunContext<'_>) -> Result<()> {
        let types = ctx.config.build_types.clone();
        for ty in &types {
            let opts = ctx.makefiles.build_options(ty, ctx.config.debug)?;
            ctx.log(format!("ripe testbed for `{ty}` ({} attacks)", fex_ripe::all_attacks().len()));
            let summary = run_testbed(&opts, &TestbedConfig::paper());
            ctx.log(format!(
                "  {}: {} successful / {} failed",
                ty, summary.successful, summary.failed
            ));
            self.frame.push(vec![
                ty.as_str().into(),
                (summary.total as i64).into(),
                (summary.successful as i64).into(),
                (summary.failed as i64).into(),
                (summary.detected as i64).into(),
            ]);
        }
        Ok(())
    }

    fn take_frame(&mut self) -> DataFrame {
        std::mem::take(&mut self.frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fex_vm::MeasureTool;

    fn ctx_parts() -> (ExperimentConfig, MakefileSet, Vec<String>) {
        let config = ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "clang_native"])
            .input(InputSize::Test)
            .repetitions(2)
            .tool(MeasureTool::PerfStat);
        (config, MakefileSet::standard(), Vec::new())
    }

    #[test]
    fn suite_runner_walks_the_fig4_loop() {
        let (config, makefiles, mut log) = ctx_parts();
        let mut ctx = RunContext::new(&config, &makefiles, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();
        // 4 benchmarks × 2 types × 1 thread × 2 reps.
        assert_eq!(df.len(), 16);
        assert_eq!(df.distinct("type").unwrap().len(), 2);
        assert_eq!(df.distinct("benchmark").unwrap().len(), 4);
    }

    #[test]
    fn benchmark_filter_limits_the_loop() {
        let (config, makefiles, mut log) = ctx_parts();
        let config = config.benchmark("arrayread");
        let mut ctx = RunContext::new(&config, &makefiles, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();
        assert_eq!(df.distinct("benchmark").unwrap(), vec!["arrayread"]);
        assert_eq!(df.len(), 4);
    }

    #[test]
    fn unknown_benchmark_is_reported() {
        let (config, makefiles, mut log) = ctx_parts();
        let config = config.benchmark("does_not_exist");
        let mut ctx = RunContext::new(&config, &makefiles, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        assert!(matches!(
            runner.run(&mut ctx),
            Err(FexError::UnknownName { kind: "benchmark", .. })
        ));
    }

    #[test]
    fn proprietary_suites_refuse_to_run() {
        let (config, makefiles, mut log) = ctx_parts();
        let mut ctx = RunContext::new(&config, &makefiles, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::spec_cpu2006(), &config);
        assert!(matches!(runner.run(&mut ctx), Err(FexError::Config(_))));
    }

    #[test]
    fn variable_input_runner_adds_the_size_dimension() {
        let (config, makefiles, mut log) = ctx_parts();
        let config = config.benchmark("arrayread").types(vec!["gcc_native"]);
        let mut ctx = RunContext::new(&config, &makefiles, &mut log);
        let mut runner = VariableInputRunner::new(
            fex_suites::micro(),
            &config,
            vec![InputSize::Test, InputSize::Small],
        );
        let df = runner.run(&mut ctx).unwrap();
        assert_eq!(df.distinct("input").unwrap(), vec!["test", "small"]);
        assert_eq!(df.len(), 4); // 2 sizes × 2 reps
    }

    #[test]
    fn dry_runs_do_not_pollute_the_frame() {
        let (config, makefiles, mut log) = ctx_parts();
        let config = config.benchmark("histogram").types(vec!["gcc_native"]).repetitions(1);
        let mut ctx = RunContext::new(&config, &makefiles, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::phoenix(), &config);
        let df = runner.run(&mut ctx).unwrap();
        // Dry run happened (logged) but only the measured rep is recorded.
        assert_eq!(df.len(), 1);
        assert!(log.iter().any(|l| l.contains("dry run")));
    }

    #[test]
    fn persistent_trap_quarantines_only_that_benchmark() {
        use crate::config::FaultInjection;
        use fex_vm::{FaultKind, FaultPlan};

        let (config, makefiles, mut log) = ctx_parts();
        let config = config.fault(FaultInjection::for_benchmark(
            "ptrchase",
            FaultPlan::persistent(FaultKind::Trap),
        ));
        let mut ctx = RunContext::new(&config, &makefiles, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();

        // Partial frame: the other 3 benchmarks × 2 types × 2 reps.
        assert_eq!(df.len(), 12);
        let benches = df.distinct("benchmark").unwrap();
        assert_eq!(benches.len(), 3);
        assert!(!benches.contains(&"ptrchase".to_string()));

        // The failure report names the quarantined benchmark with its
        // build type and the injected trap.
        let failures = &ctx.failures;
        assert_eq!(failures.quarantined_benchmarks(), vec!["ptrchase"]);
        let rec = &failures.records[0];
        assert_eq!(rec.outcome, RunOutcome::Quarantined);
        assert_eq!(rec.build_type, "gcc_native");
        assert_eq!(rec.attempts, 3, "1 attempt + 2 retries by default");
        assert!(rec.error.contains("injected fault"), "{}", rec.error);
        assert!(failures.backoff_cycles > 0);

        // The second build type skips the quarantined benchmark outright.
        assert!(log.iter().any(|l| l.contains("skipping quarantined `ptrchase` [clang_native]")));
    }

    #[test]
    fn transient_faults_recover_without_losing_runs() {
        use crate::config::FaultInjection;
        use crate::resilience::RunPolicy;
        use fex_vm::{FaultKind, FaultPlan};

        // Each unit rolls its 50% transient trap with its own derived
        // seed; a generous retry budget makes exhausting all attempts
        // (probability 2^-11 per unit at seed 4) practically impossible,
        // so every troubled run recovers.
        let (config, makefiles, mut log) = ctx_parts();
        let config = config
            .fault(FaultInjection::everywhere(FaultPlan::spurious(0.5, FaultKind::Trap, 4)))
            .resilience(RunPolicy::default().retries(10));
        let mut ctx = RunContext::new(&config, &makefiles, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();

        // Nothing is lost: the frame is complete.
        assert_eq!(df.len(), 16);
        let failures = &ctx.failures;
        assert!(failures.quarantined_benchmarks().is_empty());
        assert!(!failures.records.is_empty());
        assert!(failures.records.iter().all(|r| r.outcome == RunOutcome::Recovered));
        assert!(failures.records.iter().all(|r| r.attempts >= 2));
        assert!(failures.retry_rate() > 0.0);
    }

    #[test]
    fn run_budget_turns_hangs_into_fast_quarantines() {
        use crate::config::FaultInjection;
        use crate::resilience::RunPolicy;
        use fex_vm::{FaultKind, FaultPlan};

        let (config, makefiles, mut log) = ctx_parts();
        let config = config
            .types(vec!["gcc_native"])
            .benchmark("branches")
            .fault(FaultInjection::for_benchmark(
                "branches",
                FaultPlan::persistent(FaultKind::Hang),
            ))
            .resilience(RunPolicy::default().budget(50_000));
        let mut ctx = RunContext::new(&config, &makefiles, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();

        // The only benchmark hung → empty frame, but no abort.
        assert_eq!(df.len(), 0);
        assert_eq!(ctx.failures.quarantined_benchmarks(), vec!["branches"]);
        let rec = &ctx.failures.records[0];
        assert!(rec.error.contains("instruction limit of 50000"), "{}", rec.error);
    }

    #[test]
    fn disabled_injection_reports_clean_and_full_results() {
        use crate::config::FaultInjection;
        use fex_vm::FaultPlan;

        let (config, makefiles, mut log) = ctx_parts();
        let config = config.fault(FaultInjection::everywhere(FaultPlan::none()));
        let mut ctx = RunContext::new(&config, &makefiles, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();
        assert_eq!(df.len(), 16);
        assert!(ctx.failures.is_clean());
        assert_eq!(ctx.failures.retry_rate(), 0.0);
    }

    #[test]
    fn variable_input_runner_quarantines_across_sizes() {
        use crate::config::FaultInjection;
        use fex_vm::{FaultKind, FaultPlan};

        let (config, makefiles, mut log) = ctx_parts();
        let config = config.types(vec!["gcc_native"]).fault(FaultInjection::for_benchmark(
            "arrayread",
            FaultPlan::persistent(FaultKind::Trap),
        ));
        let mut ctx = RunContext::new(&config, &makefiles, &mut log);
        let mut runner = VariableInputRunner::new(
            fex_suites::micro(),
            &config,
            vec![InputSize::Test, InputSize::Small],
        );
        let df = runner.run(&mut ctx).unwrap();
        // 3 surviving benchmarks × 2 sizes × 2 reps.
        assert_eq!(df.len(), 12);
        assert!(!df.distinct("benchmark").unwrap().contains(&"arrayread".to_string()));
        assert_eq!(ctx.failures.quarantined_benchmarks(), vec!["arrayread"]);
    }

    fn run_micro_with_jobs(config: &ExperimentConfig) -> (String, String, Vec<String>) {
        let makefiles = MakefileSet::standard();
        let mut log = Vec::new();
        let mut ctx = RunContext::new(config, &makefiles, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), config);
        let df = runner.run(&mut ctx).unwrap();
        (df.to_csv(), ctx.failures.to_csv(), log)
    }

    #[test]
    fn jobs_1_and_8_match_byte_for_byte() {
        let (config, _, _) = ctx_parts();
        let config = config.threads(vec![1, 2]);
        let (seq_csv, seq_failures, _) = run_micro_with_jobs(&config.clone().jobs(1));
        let (par_csv, par_failures, _) = run_micro_with_jobs(&config.jobs(8));
        assert_eq!(seq_csv, par_csv);
        assert_eq!(seq_failures, par_failures);
    }

    #[test]
    fn parallel_loop_quarantines_at_merge_identically() {
        use crate::config::FaultInjection;
        use fex_vm::{FaultKind, FaultPlan};

        let (config, _, _) = ctx_parts();
        let config = config.fault(FaultInjection::for_benchmark(
            "ptrchase",
            FaultPlan::persistent(FaultKind::Trap),
        ));
        let (seq_csv, seq_failures, seq_log) = run_micro_with_jobs(&config.clone().jobs(1));
        let (par_csv, par_failures, par_log) = run_micro_with_jobs(&config.jobs(4));
        assert_eq!(seq_csv, par_csv);
        assert_eq!(seq_failures, par_failures);
        assert!(par_csv.len() > 100, "surviving benchmarks still produce rows");
        // Both worker counts announce the merge-time skip of the second type.
        for log in [&seq_log, &par_log] {
            assert!(log
                .iter()
                .any(|l| l.contains("skipping quarantined `ptrchase` [clang_native]")));
        }
    }

    #[test]
    fn adaptive_repetitions_match_across_schedulers() {
        let (config, _, _) = ctx_parts();
        let config = config.threads(vec![1, 2]).adaptive_repetitions(2, 6, 0.05);
        let (seq_csv, seq_failures, _) = run_micro_with_jobs(&config.clone().jobs(1));
        let (par_csv, par_failures, _) = run_micro_with_jobs(&config.jobs(8));
        assert_eq!(seq_csv, par_csv);
        assert_eq!(seq_failures, par_failures);
    }

    #[test]
    fn adaptive_repetitions_respect_floor_and_budget() {
        let (config, makefiles, mut log) = ctx_parts();
        let config = config.types(vec!["gcc_native"]).adaptive_repetitions(2, 4, 0.25);
        let mut ctx = RunContext::new(&config, &makefiles, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();
        for bench in df.distinct("benchmark").unwrap() {
            let n = df.filter_eq("benchmark", &bench).unwrap().len();
            assert!((2..=4).contains(&n), "`{bench}` ran {n} reps outside the [2, 4] policy");
        }
    }

    #[test]
    fn adaptive_repetitions_match_across_schedulers_under_faults() {
        use crate::config::FaultInjection;
        use fex_vm::{FaultKind, FaultPlan};

        let (config, _, _) = ctx_parts();
        let config = config.adaptive_repetitions(2, 5, 0.10).fault(FaultInjection::for_benchmark(
            "ptrchase",
            FaultPlan::persistent(FaultKind::Trap),
        ));
        let (seq_csv, seq_failures, _) = run_micro_with_jobs(&config.clone().jobs(1));
        let (par_csv, par_failures, _) = run_micro_with_jobs(&config.jobs(4));
        assert_eq!(seq_csv, par_csv);
        assert_eq!(seq_failures, par_failures);
    }

    #[test]
    fn variable_input_runner_jobs_1_and_8_match() {
        let (config, _, _) = ctx_parts();
        let config = config.types(vec!["gcc_native"]);
        let mut outputs = Vec::new();
        for jobs in [1, 8] {
            let config = config.clone().jobs(jobs);
            let makefiles = MakefileSet::standard();
            let mut log = Vec::new();
            let mut ctx = RunContext::new(&config, &makefiles, &mut log);
            let mut runner = VariableInputRunner::new(
                fex_suites::micro(),
                &config,
                vec![InputSize::Test, InputSize::Small],
            );
            let df = runner.run(&mut ctx).unwrap();
            assert_eq!(df.distinct("input").unwrap(), vec!["test", "small"]);
            outputs.push((df.to_csv(), ctx.failures.to_csv()));
        }
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn security_runner_emits_table_two_rows() {
        let (config, makefiles, mut log) = ctx_parts();
        let mut ctx = RunContext::new(&config, &makefiles, &mut log);
        // Keep it cheap in unit tests: both types still run the full
        // matrix, which takes a few seconds in debug.
        let mut runner = SecurityRunner::new();
        let df = runner.run(&mut ctx).unwrap();
        assert_eq!(df.len(), 2);
        let gcc = df.filter_eq("type", "gcc_native").unwrap();
        let row = gcc.iter().next().unwrap();
        let successful = row[2].as_num().unwrap();
        let failed = row[3].as_num().unwrap();
        assert!(successful > 0.0);
        assert!(failed > successful, "most attacks must fail");
    }
}
