//! Differential tests for the run journal: observability must be free.
//!
//! Two invariants are locked down here, both by construction in
//! `fex_core::journal` and the runner loops:
//!
//! 1. **Byte-invisibility** — turning the journal off (`--no-journal`)
//!    changes nothing observable: results CSV and failures CSV are
//!    byte-identical with journaling on and off, sequentially and with
//!    `--jobs 8`, with and without fault injection.
//! 2. **Schedule-independence** — the journal itself does not depend on
//!    the worker count: jobs 1 and jobs 8 emit the same number of events
//!    of each kind, and after normalizing the schedule-dependent fields
//!    (worker id, wall-clock durations, the advertised job count) the
//!    two event streams are identical up to ordering.

use std::collections::BTreeMap;

use proptest::prelude::*;

use fex_core::config::FaultInjection;
use fex_core::{ExperimentConfig, JournalEvent, RunPolicy};
use fex_suites::InputSize;
use fex_vm::{FaultKind, FaultPlan};

/// Runs the micro suite through the real build system and runner, and
/// returns the observable artifacts plus the captured journal.
fn run_micro(config: &ExperimentConfig) -> (String, String, Vec<JournalEvent>) {
    use fex_core::build::MakefileSet;
    use fex_core::runner::{RunContext, Runner, SuiteRunner};

    let makefiles = MakefileSet::standard();
    let mut log = Vec::new();
    let mut ctx = RunContext::new(config, &makefiles, &mut log);
    let mut runner = SuiteRunner::new(fex_suites::micro(), config);
    let df = runner.run(&mut ctx).unwrap();
    (df.to_csv(), ctx.failures.to_csv(), ctx.journal.events().to_vec())
}

/// A small matrix with both a persistently-faulting benchmark (retries,
/// quarantine, failure records) and healthy ones.
fn faulty_config() -> ExperimentConfig {
    ExperimentConfig::new("micro")
        .types(vec!["gcc_native", "clang_native"])
        .input(InputSize::Test)
        .repetitions(2)
        .fault(FaultInjection::for_benchmark("ptrchase", FaultPlan::persistent(FaultKind::Trap)))
}

fn event_kind_counts(events: &[JournalEvent]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for e in events {
        *counts.entry(e.kind()).or_insert(0) += 1;
    }
    counts
}

/// The schedule-independent fingerprint of a journal: every event with
/// worker id, durations and job count zeroed, serialized and sorted.
fn normalized_stream(events: &[JournalEvent]) -> Vec<String> {
    let mut stream: Vec<String> = events
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.normalize();
            e.to_json()
        })
        .collect();
    stream.sort();
    stream
}

#[test]
fn journal_off_leaves_results_and_failures_byte_identical() {
    for jobs in [1, 8] {
        for faulty in [false, true] {
            let mut base = faulty_config();
            if !faulty {
                base.fault = None;
            }
            let on = base.clone().jobs(jobs).journal(true);
            let off = base.jobs(jobs).journal(false);
            let (on_csv, on_failures, on_events) = run_micro(&on);
            let (off_csv, off_failures, off_events) = run_micro(&off);
            assert_eq!(on_csv, off_csv, "results drifted (jobs={jobs}, faulty={faulty})");
            assert_eq!(
                on_failures, off_failures,
                "failures drifted (jobs={jobs}, faulty={faulty})"
            );
            assert!(!on_events.is_empty(), "journaling on must record events");
            assert!(off_events.is_empty(), "--no-journal must record nothing");
        }
    }
}

#[test]
fn journal_event_counts_are_invariant_across_worker_counts() {
    let base = faulty_config();
    let (seq_csv, seq_failures, seq_events) = run_micro(&base.clone().jobs(1));
    let (par_csv, par_failures, par_events) = run_micro(&base.jobs(8));

    assert_eq!(seq_csv, par_csv);
    assert_eq!(seq_failures, par_failures);
    assert_eq!(
        event_kind_counts(&seq_events),
        event_kind_counts(&par_events),
        "per-kind event counts must not depend on --jobs"
    );
}

#[test]
fn normalized_journal_streams_are_identical_across_worker_counts() {
    let base = faulty_config();
    let (_, _, seq_events) = run_micro(&base.clone().jobs(1));
    let (_, _, par_events) = run_micro(&base.jobs(8));
    assert_eq!(
        normalized_stream(&seq_events),
        normalized_stream(&par_events),
        "after zeroing worker/wall-time/jobs, the streams must match event for event"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full differential property: for random matrices, transient
    /// fault rates, retry budgets and seeds, journaling on vs off and
    /// jobs 1 vs 8 all produce byte-identical results and failures CSVs,
    /// and the journal's per-kind event counts are jobs-invariant.
    #[test]
    fn journaling_is_byte_invisible_and_schedule_independent(
        types_pick in 0usize..3,
        reps in 1usize..3,
        inject in 0usize..2,
        rate in 0.0f64..0.8,
        fault_seed in 0u64..1000,
        retries in 0usize..4,
        experiment_seed in 0u64..1000,
    ) {
        let types = match types_pick {
            0 => vec!["gcc_native"],
            1 => vec!["clang_native"],
            _ => vec!["gcc_native", "clang_native"],
        };
        let mut base = ExperimentConfig::new("micro")
            .types(types)
            .input(InputSize::Test)
            .repetitions(reps)
            .resilience(RunPolicy::default().retries(retries));
        base.seed = experiment_seed;
        if inject == 1 {
            base = base.fault(FaultInjection::everywhere(FaultPlan::spurious(
                rate,
                FaultKind::Trap,
                fault_seed,
            )));
        }

        let (seq_csv, seq_failures, seq_events) = run_micro(&base.clone().jobs(1));
        let (par_csv, par_failures, par_events) = run_micro(&base.clone().jobs(8));
        let (off_csv, off_failures, off_events) = run_micro(&base.jobs(1).journal(false));

        prop_assert_eq!(&seq_csv, &par_csv);
        prop_assert_eq!(&seq_failures, &par_failures);
        prop_assert_eq!(&seq_csv, &off_csv);
        prop_assert_eq!(&seq_failures, &off_failures);
        prop_assert!(off_events.is_empty());
        prop_assert_eq!(event_kind_counts(&seq_events), event_kind_counts(&par_events));
        prop_assert_eq!(normalized_stream(&seq_events), normalized_stream(&par_events));
    }
}
