//! The run-unit scheduler (`--jobs N`): the execute stage of the one
//! experiment loop, at every worker count.
//!
//! The Fig 4 experiment matrix — build type × benchmark × thread count ×
//! repetition — is embarrassingly parallel once every run unit owns its
//! randomness: [`ExperimentConfig::unit_seed`](crate::config::ExperimentConfig::unit_seed)
//! derives the machine and fault seeds from the unit's coordinates, so a
//! unit's measurement is a pure function of the unit, never of which
//! worker ran it or when.
//!
//! The design keeps determinism by splitting execution from judgement:
//!
//! 1. **Expand** — the runner flattens its loop into a [`RunUnit`] list
//!    in matrix order. Each unit the artifact graph does not serve
//!    carries an [`Arc`]-shared program out of the build cache (each
//!    bench × type compiles at most once) and a fully-derived
//!    [`MachineConfig`].
//! 2. **Execute** — [`execute_units`] runs the units inline on the
//!    calling thread at `--jobs 1`; above that it dispatches them over a
//!    self-scheduling worker pool: workers claim the next unclaimed
//!    index from a shared atomic counter (work stealing degenerates to
//!    this with a single shared deque), drive each unit through the full
//!    retry/backoff policy with its journal events buffered in the
//!    unit's outcome, and post one `(start, outcomes)` batch per claim
//!    on a channel. A claim is **one unit** unless the caller of
//!    [`execute_units`] passes a larger size. Units run for milliseconds
//!    (4–75 ms for Phoenix and SPLASH at `-i small`), so a claim's one
//!    atomic add and one channel send are lost in the noise, while a
//!    multi-unit claim leaves a worker idle at the tail: on two workers,
//!    claims of 3 and 6 units over the 28 Phoenix and 48 SPLASH distinct
//!    executions of a four-build-type `-r 3` matrix made those stages
//!    take 283 and 627 ms where perfect balance needs 257 and 545 ms.
//! 3. **Merge** — the runner walks the outcomes back in matrix order and
//!    only *then* applies quarantine: failures count against a benchmark
//!    in deterministic order, and every unit that falls after its
//!    benchmark's quarantine decision is dropped at merge time. CSVs and
//!    failure reports come out byte-identical at any `--jobs`.
//!
//! Units that fall after a quarantine decision *are* speculatively
//! executed — the decision is only known at merge — but their outcomes
//! are discarded there, so the observable artifacts do not change.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use fex_vm::{DecodedProgram, Machine, MachineConfig, Program, RunResult};

use crate::error::FexError;
use crate::journal::JournalEvent;
use crate::resilience::{execute_with_retry_value, AttemptLog, RunPolicy};

/// One cell of the experiment matrix, ready to execute.
#[derive(Debug)]
pub struct RunUnit {
    /// Build type of the run.
    pub ty: String,
    /// Benchmark name.
    pub bench: String,
    /// Thread (core) count.
    pub threads: usize,
    /// Repetition index; `None` for per-benchmark units (dry runs).
    pub rep: Option<usize>,
    /// Input-size name recorded in the CSV.
    pub input: &'static str,
    /// Whether a successful run is recorded in the result frame
    /// (dry runs execute but never record).
    pub record: bool,
    /// Log line replayed at merge time when the unit is reached
    /// (e.g. `dry run for `wordcount``).
    pub line: Option<String>,
    /// The executable work; `None` for bookkeeping-only units, which
    /// settle as a clean single attempt.
    pub work: Option<UnitWork>,
}

/// The executable payload of a [`RunUnit`].
#[derive(Debug)]
pub struct UnitWork {
    /// The compiled program, shared with the build cache.
    pub program: Arc<Program>,
    /// Pre-decoded form of `program` out of the decoded-artifact cache,
    /// shared lock-free across workers; `None` (the
    /// `ExperimentConfig::decode_cache(false)` escape hatch) makes every
    /// load decode afresh.
    pub decoded: Option<Arc<DecodedProgram>>,
    /// Entry arguments for the chosen input size.
    pub args: Vec<i64>,
    /// The unit's machine configuration (per-unit seed, armed fault
    /// plan, run budget), built for attempt 0; workers re-salt the fault
    /// plan with the retry attempt.
    pub config: MachineConfig,
}

/// What executing one [`RunUnit`] produced.
#[derive(Debug)]
pub struct UnitOutcome {
    /// The retry trail: attempts, backoff and each attempt's error.
    pub log: AttemptLog,
    /// The successful run's measurement (`None` on exhaustion or for
    /// work-less units).
    pub result: Option<RunResult>,
    /// Journal events recorded by the worker that ran this unit (claim +
    /// VM execution). Each worker buffers into its unit's outcome — no
    /// shared journal state on the hot path — and the merge loop splices
    /// the buffers into the experiment journal in matrix order,
    /// discarding those of speculative units that fall after a
    /// quarantine decision.
    pub events: Vec<JournalEvent>,
}

/// Executes one unit through the retry policy, on whatever thread called.
fn run_unit(unit: &RunUnit, policy: &RunPolicy, journal: bool, worker: usize) -> UnitOutcome {
    let Some(work) = &unit.work else {
        return UnitOutcome {
            log: AttemptLog { attempts: 1, backoff_cycles: 0, errors: Vec::new(), result: Ok(()) },
            result: None,
            events: Vec::new(),
        };
    };
    let mut events = Vec::new();
    if journal {
        events.push(JournalEvent::UnitClaim {
            benchmark: unit.bench.clone(),
            build_type: unit.ty.clone(),
            threads: unit.threads,
            rep: unit.rep,
            worker,
        });
    }
    let (log, result) = execute_with_retry_value(policy, |attempt| {
        let mut mc = work.config.clone();
        mc.fault_plan = mc.fault_plan.clone().with_attempt(attempt);
        let machine = Machine::new(mc);
        let mut instance = match &work.decoded {
            Some(d) => machine.load_with(&work.program, d),
            None => machine.load(&work.program),
        };
        instance.run_entry(&work.args).map_err(|source| FexError::Run {
            benchmark: unit.bench.clone(),
            build_type: unit.ty.clone(),
            source,
        })
    });
    if journal {
        if let Some(run) = &result {
            events.push(JournalEvent::vm_exec(&unit.bench, &unit.ty, unit.threads, unit.rep, run));
        }
    }
    UnitOutcome { log, result, events }
}

/// The number of units a worker claims per grab: the caller's `chunk`
/// when nonzero, otherwise one, which leaves at most one unit of tail
/// imbalance (the module doc has the measurements).
fn effective_chunk(chunk: usize) -> usize {
    chunk.max(1)
}

/// Executes every unit and returns the outcomes **in unit order**,
/// whatever order workers finished in.
///
/// `jobs` is clamped to `1..=units.len()`. With one worker the pool is
/// skipped entirely and units run inline, in order — the `--jobs 1`
/// fast path. With more, a scoped worker pool self-schedules over a
/// shared claim counter, grabbing `chunk` contiguous units per claim
/// (`0` claims one unit at a time): each chunk's
/// outcomes — journal events buffered per unit — come home as one
/// channel message and are scattered into their slots by index, so the
/// merged order is the matrix order regardless of worker count or chunk
/// size.
pub fn execute_units(
    units: &[RunUnit],
    policy: &RunPolicy,
    jobs: usize,
    journal: bool,
    chunk: usize,
) -> Vec<UnitOutcome> {
    let jobs = jobs.clamp(1, units.len().max(1));
    if jobs == 1 {
        return units.iter().map(|u| run_unit(u, policy, journal, 0)).collect();
    }
    let chunk = effective_chunk(chunk);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Vec<UnitOutcome>)>();
    std::thread::scope(|scope| {
        for worker in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= units.len() {
                    break;
                }
                let end = (start + chunk).min(units.len());
                let batch: Vec<UnitOutcome> = units[start..end]
                    .iter()
                    .map(|u| run_unit(u, policy, journal, worker))
                    .collect();
                if tx.send((start, batch)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<UnitOutcome>> = Vec::new();
        slots.resize_with(units.len(), || None);
        for (start, batch) in rx {
            for (k, outcome) in batch.into_iter().enumerate() {
                slots[start + k] = Some(outcome);
            }
        }
        slots.into_iter().map(|s| s.expect("every unit posts exactly one outcome")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fex_vm::{FaultKind, FaultPlan, Function, Instr, Reg};

    fn tiny_program(fail: bool) -> Arc<Program> {
        let mut f = Function::new("main", 0);
        f.reg_count = 2;
        f.code = if fail {
            vec![
                Instr::Imm { dst: Reg(0), val: 1 },
                Instr::Imm { dst: Reg(1), val: 0 },
                Instr::Bin { op: fex_vm::BinOp::Div, dst: Reg(0), a: Reg(0), b: Reg(1) },
                Instr::Ret { src: Some(Reg(0)) },
            ]
        } else {
            vec![Instr::Imm { dst: Reg(0), val: 7 }, Instr::Ret { src: Some(Reg(0)) }]
        };
        let mut p = Program::new();
        p.push_function(f);
        Arc::new(p)
    }

    fn unit(bench: &str, rep: usize, fail: bool) -> RunUnit {
        RunUnit {
            ty: "gcc_native".into(),
            bench: bench.into(),
            threads: 1,
            rep: Some(rep),
            input: "test",
            record: true,
            line: None,
            work: Some(UnitWork {
                program: tiny_program(fail),
                decoded: None,
                args: vec![],
                config: MachineConfig::default(),
            }),
        }
    }

    #[test]
    fn workless_units_settle_as_one_clean_attempt() {
        let u = RunUnit { work: None, record: false, ..unit("x", 0, false) };
        let outcomes = execute_units(&[u], &RunPolicy::default(), 4, true, 0);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].log.attempts, 1);
        assert!(outcomes[0].log.result.is_ok());
        assert!(outcomes[0].result.is_none());
        assert!(outcomes[0].events.is_empty(), "bookkeeping units leave no worker events");
    }

    #[test]
    fn outcomes_come_home_in_unit_order_at_any_worker_count() {
        // Every (jobs, chunk) combination — including chunks larger than
        // the unit list and the auto size — must scatter outcomes back
        // into exact matrix order.
        let units: Vec<RunUnit> = (0..12).map(|i| unit(&format!("b{i}"), i, false)).collect();
        for jobs in [1, 2, 4, 8, 64] {
            for chunk in [0, 1, 3, 5, 12, 100] {
                let outcomes = execute_units(&units, &RunPolicy::default(), jobs, false, chunk);
                assert_eq!(outcomes.len(), 12);
                for o in &outcomes {
                    assert!(o.log.result.is_ok());
                    assert_eq!(o.result.as_ref().unwrap().exit, 7);
                    assert!(o.events.is_empty(), "journaling off leaves no events");
                }
            }
        }
    }

    #[test]
    fn chunked_workers_keep_distinct_unit_results_in_order() {
        // Units with distinguishable exits: chunked batching must not
        // permute outcomes within or across chunks.
        let units: Vec<RunUnit> = (0..17)
            .map(|i| {
                let mut u = unit(&format!("b{i}"), i, false);
                if let Some(w) = &mut u.work {
                    let mut f = Function::new("main", 0);
                    f.reg_count = 1;
                    f.code = vec![
                        Instr::Imm { dst: Reg(0), val: i as i64 },
                        Instr::Ret { src: Some(Reg(0)) },
                    ];
                    let mut p = Program::new();
                    p.push_function(f);
                    w.program = Arc::new(p);
                }
                u
            })
            .collect();
        for (jobs, chunk) in [(2, 0), (3, 2), (4, 5), (8, 3)] {
            let outcomes = execute_units(&units, &RunPolicy::default(), jobs, false, chunk);
            let exits: Vec<i64> =
                outcomes.iter().map(|o| o.result.as_ref().unwrap().exit).collect();
            assert_eq!(exits, (0..17).collect::<Vec<i64>>(), "jobs {jobs} chunk {chunk}");
        }
    }

    #[test]
    fn auto_chunk_claims_one_unit_and_explicit_sizes_win() {
        // The auto size claims one unit, however wide the matrix.
        assert_eq!(effective_chunk(0), 1);
        // An explicit size wins untouched.
        assert_eq!(effective_chunk(1), 1);
        assert_eq!(effective_chunk(7), 7);
        assert_eq!(effective_chunk(10_000), 10_000);
    }

    #[test]
    fn failing_units_exhaust_retries_without_poisoning_neighbours() {
        let units = vec![unit("good", 0, false), unit("bad", 0, true), unit("good", 1, false)];
        let policy = RunPolicy::default().retries(1);
        let outcomes = execute_units(&units, &policy, 2, false, 0);
        assert!(outcomes[0].log.result.is_ok());
        assert!(outcomes[1].log.result.is_err());
        assert_eq!(outcomes[1].log.attempts, 2, "one retry was spent");
        assert!(outcomes[1].result.is_none());
        assert!(outcomes[2].log.result.is_ok());
    }

    #[test]
    fn injected_faults_resalt_per_attempt_in_the_pool() {
        // A 100%-rate transient fault trips every attempt; the retry
        // trail must show the policy's full budget was spent.
        let mut u = unit("flaky", 0, false);
        if let Some(w) = &mut u.work {
            w.config.fault_plan = FaultPlan::spurious(1.0, FaultKind::Trap, 9);
        }
        let outcomes = execute_units(&[u], &RunPolicy::default().retries(2), 2, false, 0);
        assert!(outcomes[0].log.result.is_err());
        assert_eq!(outcomes[0].log.attempts, 3);
        assert_eq!(outcomes[0].log.errors.len(), 3);
    }

    #[test]
    fn workers_buffer_claim_and_exec_events_per_unit() {
        let units = vec![unit("ok", 0, false), unit("bad", 0, true)];
        let outcomes = execute_units(&units, &RunPolicy::default().retries(0), 4, true, 0);
        // Successful unit: a claim then the VM execution counters.
        assert_eq!(outcomes[0].events.len(), 2);
        assert!(matches!(
            &outcomes[0].events[0],
            JournalEvent::UnitClaim { benchmark, .. } if benchmark == "ok"
        ));
        assert!(matches!(&outcomes[0].events[1], JournalEvent::VmExec { exit: 7, .. }));
        // Exhausted unit: the claim alone — no successful execution.
        assert_eq!(outcomes[1].events.len(), 1);
        assert!(matches!(&outcomes[1].events[0], JournalEvent::UnitClaim { .. }));
    }
}
