//! Resilient experiment execution: retry, backoff, quarantine and
//! partial-result bookkeeping.
//!
//! The paper's Fig 4 loop aborts a whole suite run on the first failed
//! repetition; large campaigns need the opposite — per-unit failure
//! isolation. This module supplies the pieces the
//! [`Runner`](crate::runner::Runner) loop threads together:
//!
//! * [`RunPolicy`] — how hard to try: retry count, exponential backoff
//!   (expressed in *simulated* cycles, so resilience costs show up in the
//!   same currency as everything else), an optional per-run instruction
//!   budget (watchdog against hangs), and the failure threshold after
//!   which a benchmark is quarantined.
//! * [`execute_with_retry_value`] — drives one run action through the
//!   policy.
//! * [`QuarantineBook`] — tracks per-benchmark failures and decides when
//!   a benchmark is excluded from the rest of the experiment.
//! * [`FailureReport`] / [`FailureRecord`] — the structured account of
//!   everything that went wrong (and was recovered), written by
//!   [`Fex::run`](crate::Fex::run) next to the result CSV.

use std::collections::HashMap;

use crate::collect::{DataFrame, Value};
use crate::error::{FexError, Result};

/// How the experiment loop responds to failing runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPolicy {
    /// Retries per run action after the first attempt.
    pub max_retries: usize,
    /// Base of the exponential backoff charged (in simulated cycles)
    /// before retry `k`: `backoff_base_cycles << k`.
    pub backoff_base_cycles: u64,
    /// Per-run instruction budget (watchdog): overrides the machine's
    /// `max_instructions` when set, so hangs die quickly instead of
    /// burning the 20-billion-instruction default.
    pub run_budget: Option<u64>,
    /// Failed (retry-exhausted) runs a benchmark may accrue before it is
    /// quarantined — skipped for all remaining types, threads and reps.
    pub failure_threshold: usize,
}

impl Default for RunPolicy {
    /// Two retries with 1M-cycle base backoff, no budget override,
    /// quarantine on the first exhausted failure.
    fn default() -> Self {
        RunPolicy {
            max_retries: 2,
            backoff_base_cycles: 1_000_000,
            run_budget: None,
            failure_threshold: 1,
        }
    }
}

impl RunPolicy {
    /// A policy that never retries and never quarantines: the loop then
    /// behaves exactly like the paper's original Fig 4 loop for run
    /// faults too (first failure is recorded, the benchmark quarantines
    /// immediately at threshold 1 — use [`RunPolicy::strict`] to abort
    /// instead).
    pub fn no_retries() -> Self {
        RunPolicy { max_retries: 0, ..RunPolicy::default() }
    }

    /// Sets the retry count.
    pub fn retries(mut self, n: usize) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the per-run instruction budget (hang watchdog).
    pub fn budget(mut self, instructions: u64) -> Self {
        self.run_budget = Some(instructions);
        self
    }

    /// Sets the quarantine threshold (clamped to at least 1).
    pub fn threshold(mut self, failures: usize) -> Self {
        self.failure_threshold = failures.max(1);
        self
    }

    /// Whether a `retry_index`-th retry (0-based) is still allowed.
    pub fn allows_retry(&self, retry_index: usize) -> bool {
        retry_index < self.max_retries
    }

    /// Simulated backoff cost charged before retry `retry_index`.
    pub fn backoff_cycles(&self, retry_index: usize) -> u64 {
        self.backoff_base_cycles
            .saturating_mul(1u64.checked_shl(retry_index as u32).unwrap_or(u64::MAX))
    }
}

/// What one run action did, retries included.
#[derive(Debug)]
pub struct AttemptLog {
    /// Attempts made (1 = clean first-try success).
    pub attempts: usize,
    /// Total simulated backoff cycles charged between attempts.
    pub backoff_cycles: u64,
    /// Error message of each failed attempt, in order.
    pub errors: Vec<String>,
    /// The final outcome: `Ok` (possibly after retries) or the last
    /// error.
    pub result: Result<()>,
}

impl AttemptLog {
    /// Whether retries turned failure into success.
    pub fn recovered(&self) -> bool {
        self.result.is_ok() && self.attempts > 1
    }
}

/// Drives one run action through the retry policy.
///
/// `action` receives the attempt number (0-based) — the scheduler feeds
/// it to the machine's fault plan as the retry salt, so injected
/// transient faults re-roll per attempt. Only *run faults*
/// ([`FexError::Run`]) are retried; configuration, lookup and build
/// errors fail fast on the first attempt.
///
/// Returns the attempt log plus the successful attempt's value (`None`
/// when every attempt failed), which carries each run unit's measurement
/// out of the retry loop.
pub fn execute_with_retry_value<T>(
    policy: &RunPolicy,
    mut action: impl FnMut(u64) -> Result<T>,
) -> (AttemptLog, Option<T>) {
    let mut errors = Vec::new();
    let mut backoff_cycles = 0u64;
    let mut retry_index = 0usize;
    loop {
        match action(retry_index as u64) {
            Ok(value) => {
                let log = AttemptLog {
                    attempts: retry_index + 1,
                    backoff_cycles,
                    errors,
                    result: Ok(()),
                };
                return (log, Some(value));
            }
            Err(e) if e.is_run_fault() && policy.allows_retry(retry_index) => {
                errors.push(e.to_string());
                backoff_cycles = backoff_cycles.saturating_add(policy.backoff_cycles(retry_index));
                retry_index += 1;
            }
            Err(e) => {
                errors.push(e.to_string());
                let log = AttemptLog {
                    attempts: retry_index + 1,
                    backoff_cycles,
                    errors,
                    result: Err(e),
                };
                return (log, None);
            }
        }
    }
}

/// Per-benchmark failure bookkeeping and the quarantine decision.
#[derive(Debug)]
pub struct QuarantineBook {
    threshold: usize,
    failures: HashMap<String, usize>,
    quarantined: Vec<String>,
}

impl QuarantineBook {
    /// Creates a book quarantining after `threshold` exhausted failures
    /// (clamped to at least 1).
    pub fn new(threshold: usize) -> Self {
        QuarantineBook {
            threshold: threshold.max(1),
            failures: HashMap::new(),
            quarantined: Vec::new(),
        }
    }

    /// Records one exhausted (post-retry) failure; returns `true` when
    /// this pushes the benchmark into quarantine.
    pub fn record_failure(&mut self, benchmark: &str) -> bool {
        let count = self.failures.entry(benchmark.to_string()).or_insert(0);
        *count += 1;
        if *count >= self.threshold && !self.is_quarantined(benchmark) {
            self.quarantined.push(benchmark.to_string());
            true
        } else {
            false
        }
    }

    /// Whether the benchmark is quarantined.
    pub fn is_quarantined(&self, benchmark: &str) -> bool {
        self.quarantined.iter().any(|b| b == benchmark)
    }

    /// Quarantined benchmarks, in the order they were quarantined.
    pub fn quarantined(&self) -> &[String] {
        &self.quarantined
    }
}

/// How a troubled run ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Failed at least once, then a retry succeeded.
    Recovered,
    /// All retries failed; the run's measurement is missing from the
    /// frame but the benchmark stayed in the experiment.
    Failed,
    /// All retries failed and the failure threshold was reached: the
    /// benchmark is skipped for the rest of the experiment.
    Quarantined,
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Recovered => write!(f, "recovered"),
            RunOutcome::Failed => write!(f, "failed"),
            RunOutcome::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// One troubled run action (a clean success produces no record).
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// Benchmark name.
    pub benchmark: String,
    /// Build type the run executed under.
    pub build_type: String,
    /// Thread count of the run.
    pub threads: usize,
    /// Repetition index.
    pub rep: usize,
    /// First error message observed.
    pub error: String,
    /// Attempts made (including the final one).
    pub attempts: usize,
    /// How it ended.
    pub outcome: RunOutcome,
}

/// The structured failure account of one experiment.
///
/// `Fex::run` stores it per experiment and writes
/// `/fex/results/<name>.failures.csv` with the schema
/// `benchmark,type,threads,rep,error,attempts,outcome` next to the result
/// CSV.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureReport {
    /// One record per troubled run, in execution order.
    pub records: Vec<FailureRecord>,
    /// Run actions driven (clean successes included).
    pub total_runs: usize,
    /// Attempts made across all run actions (retries included).
    pub total_attempts: usize,
    /// Total simulated backoff cycles charged.
    pub backoff_cycles: u64,
}

/// Column order of [`FailureReport::to_frame`].
pub const FAILURE_COLUMNS: [&str; 7] =
    ["benchmark", "type", "threads", "rep", "error", "attempts", "outcome"];

impl FailureReport {
    /// Accounts for one driven run action.
    pub fn note_run(&mut self, attempts: usize, backoff_cycles: u64) {
        self.total_runs += 1;
        self.total_attempts += attempts;
        self.backoff_cycles = self.backoff_cycles.saturating_add(backoff_cycles);
    }

    /// Appends a troubled-run record.
    pub fn push(&mut self, record: FailureRecord) {
        self.records.push(record);
    }

    /// No failures, no retries.
    pub fn is_clean(&self) -> bool {
        self.records.is_empty()
    }

    /// Extra attempts per driven run: `0.0` means nothing was ever
    /// retried, `0.1` means one retry per ten runs.
    pub fn retry_rate(&self) -> f64 {
        if self.total_runs == 0 {
            0.0
        } else {
            (self.total_attempts - self.total_runs) as f64 / self.total_runs as f64
        }
    }

    /// Benchmarks that ended up quarantined, in order.
    pub fn quarantined_benchmarks(&self) -> Vec<&str> {
        self.records
            .iter()
            .filter(|r| r.outcome == RunOutcome::Quarantined)
            .map(|r| r.benchmark.as_str())
            .collect()
    }

    /// The report as a data frame (schema [`FAILURE_COLUMNS`]).
    pub fn to_frame(&self) -> DataFrame {
        let mut df = DataFrame::new(FAILURE_COLUMNS.to_vec());
        for r in &self.records {
            df.push(vec![
                r.benchmark.as_str().into(),
                r.build_type.as_str().into(),
                (r.threads as i64).into(),
                (r.rep as i64).into(),
                Value::from(r.error.as_str()),
                (r.attempts as i64).into(),
                r.outcome.to_string().as_str().into(),
            ]);
        }
        df
    }

    /// The report as CSV (written alongside the result CSV).
    pub fn to_csv(&self) -> String {
        self.to_frame().to_csv()
    }

    /// One-line summary for the experiment log.
    pub fn summary(&self) -> String {
        let quarantined = self.quarantined_benchmarks();
        format!(
            "resilience: {} runs, {} attempts (retry rate {:.3}), {} failure records, quarantined: {}",
            self.total_runs,
            self.total_attempts,
            self.retry_rate(),
            self.records.len(),
            if quarantined.is_empty() { "none".to_string() } else { quarantined.join(", ") }
        )
    }
}

impl FexError {
    /// Whether this error is a per-run fault — the only class the
    /// resilience layer retries and quarantines; everything else
    /// (configuration, unknown names, build and container errors) fails
    /// the experiment immediately.
    pub fn is_run_fault(&self) -> bool {
        matches!(self, FexError::Run { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_fault(msg: &str) -> FexError {
        FexError::Run {
            benchmark: msg.to_string(),
            build_type: "gcc_native".to_string(),
            source: fex_vm::VmError::Trap(fex_vm::Trap::DivByZero),
        }
    }

    #[test]
    fn clean_success_needs_one_attempt_and_no_backoff() {
        let (log, value) = execute_with_retry_value(&RunPolicy::default(), |_| Ok(7));
        assert_eq!(value, Some(7));
        assert_eq!(log.attempts, 1);
        assert_eq!(log.backoff_cycles, 0);
        assert!(log.result.is_ok() && !log.recovered() && log.errors.is_empty());
    }

    #[test]
    fn transient_failures_recover_within_the_retry_budget() {
        let policy = RunPolicy::default().retries(3);
        let mut calls = 0;
        let (log, value) = execute_with_retry_value(&policy, |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(run_fault("flaky"))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(value, Some(2), "the successful attempt's value comes out");
        assert_eq!(calls, 3);
        assert_eq!(log.attempts, 3);
        assert!(log.recovered());
        assert_eq!(log.errors.len(), 2);
        // Backoff is exponential: base + 2*base.
        assert_eq!(log.backoff_cycles, 1_000_000 + 2_000_000);
    }

    #[test]
    fn persistent_failures_exhaust_retries() {
        let policy = RunPolicy::default().retries(2);
        let mut calls = 0;
        let (log, value) = execute_with_retry_value::<()>(&policy, |_| {
            calls += 1;
            Err(run_fault("broken"))
        });
        assert_eq!(calls, 3, "first attempt + 2 retries");
        assert!(log.result.is_err());
        assert!(value.is_none());
        assert_eq!(log.errors.len(), 3);
    }

    #[test]
    fn non_run_errors_fail_fast() {
        let policy = RunPolicy::default().retries(5);
        let mut calls = 0;
        let (log, _) = execute_with_retry_value::<()>(&policy, |_| {
            calls += 1;
            Err(FexError::Config("bad".into()))
        });
        assert_eq!(calls, 1, "config errors must not be retried");
        assert!(matches!(log.result, Err(FexError::Config(_))));
    }

    #[test]
    fn attempt_numbers_feed_the_fault_salt() {
        let mut seen = Vec::new();
        let _ = execute_with_retry_value::<()>(&RunPolicy::default().retries(2), |attempt| {
            seen.push(attempt);
            Err(run_fault("x"))
        });
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn retry_with_value_carries_the_successful_payload() {
        let policy = RunPolicy::default().retries(2);
        let (log, value) = execute_with_retry_value(&policy, |attempt| {
            if attempt == 0 {
                Err(run_fault("flaky"))
            } else {
                Ok(attempt * 10)
            }
        });
        assert!(log.recovered());
        assert_eq!(value, Some(10));

        let (log, value) = execute_with_retry_value::<u64>(&policy, |_| Err(run_fault("broken")));
        assert!(log.result.is_err());
        assert!(value.is_none());
    }

    #[test]
    fn backoff_growth_is_exponential_and_saturating() {
        let p = RunPolicy { backoff_base_cycles: 1 << 62, ..RunPolicy::default() };
        assert_eq!(p.backoff_cycles(0), 1 << 62);
        assert_eq!(p.backoff_cycles(1), 1 << 63);
        assert_eq!(p.backoff_cycles(2), u64::MAX, "must saturate, not wrap");
        assert_eq!(p.backoff_cycles(100), u64::MAX);
    }

    #[test]
    fn quarantine_fires_at_the_threshold() {
        let mut book = QuarantineBook::new(2);
        assert!(!book.record_failure("fft"));
        assert!(!book.is_quarantined("fft"));
        assert!(book.record_failure("fft"), "second failure hits threshold 2");
        assert!(book.is_quarantined("fft"));
        // Further failures don't re-announce.
        assert!(!book.record_failure("fft"));
        assert_eq!(book.quarantined(), &["fft".to_string()]);
        assert!(!book.is_quarantined("lu"));
    }

    #[test]
    fn zero_threshold_clamps_to_one() {
        let mut book = QuarantineBook::new(0);
        assert!(book.record_failure("x"), "threshold 0 behaves like 1");
    }

    #[test]
    fn report_accounting_and_csv_schema() {
        let mut report = FailureReport::default();
        report.note_run(1, 0);
        report.note_run(3, 3_000_000);
        report.note_run(2, 1_000_000);
        report.push(FailureRecord {
            benchmark: "fft".into(),
            build_type: "gcc_asan".into(),
            threads: 4,
            rep: 1,
            error: "vm trap: injected fault (attempt 2)".into(),
            attempts: 3,
            outcome: RunOutcome::Quarantined,
        });
        assert!(!report.is_clean());
        assert!((report.retry_rate() - 1.0).abs() < 1e-9, "3 extra attempts / 3 runs");
        assert_eq!(report.quarantined_benchmarks(), vec!["fft"]);
        let csv = report.to_csv();
        assert!(csv.starts_with("benchmark,type,threads,rep,error,attempts,outcome"));
        assert!(csv.contains("fft,gcc_asan,4,1,"));
        assert!(csv.contains("quarantined"));
        assert!(report.summary().contains("quarantined: fft"));
    }

    #[test]
    fn empty_report_is_clean_with_zero_retry_rate() {
        let report = FailureReport::default();
        assert!(report.is_clean());
        assert_eq!(report.retry_rate(), 0.0);
        assert_eq!(report.to_frame().len(), 0);
        assert!(report.summary().contains("quarantined: none"));
    }
}
