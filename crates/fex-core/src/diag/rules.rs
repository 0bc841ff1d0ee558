//! The shipped diagnostics rules.
//!
//! Every rule reuses existing machinery rather than re-deriving it: the
//! regression rule drives [`lab::compare`](crate::lab::compare), the
//! flakiness rule reads the journal's
//! [`Metrics`] roll-up, the variance rule runs
//! on the journal's `vm_exec` counters through
//! [`collect::stats`](crate::collect::stats), and the cache rule reads
//! the `metrics.json` roll-ups archived by the run store.
//!
//! Together with `fex compare` these rules are the evaluation-driven
//! development gate of the paper's §VI: CI runs them over the lab.
//!
//! Rules are pure: an inapplicable context (no journal, no store, not
//! enough history) yields no findings. Each rule's tests cover one
//! configuration where it fires and one where it stays quiet.

use std::fmt::Write as _;

use crate::collect::{stats, DataFrame};
use crate::journal::{JournalEvent, Metrics, JOURNAL_VERSION};
use crate::lab::{Comparison, IndexEntry, Verdict};

use super::{cycles_by_cell, parse_reps, DiagCtx, Finding, RepsSpec, Rule, Severity, StoreSource};

/// The rule registry, in evaluation (and SARIF metadata) order.
pub fn registry() -> &'static [&'static dyn Rule] {
    static RULES: &[&dyn Rule] = &[
        &SignificantRegression,
        &Flakiness,
        &VarianceAnomaly,
        &CacheHitRateDrop,
        &AdaptiveNeverConverged,
        &JournalIntegrity,
    ];
    RULES
}

/// True when `id` names a shipped rule.
pub fn known_rule(id: &str) -> bool {
    registry().iter().any(|r| r.id() == id)
}

/// The newest store entry plus the newest *earlier* entry sharing its
/// experiment key — the prev/latest pair the history rules compare.
fn latest_with_prev(store: &StoreSource) -> Option<(&IndexEntry, &IndexEntry)> {
    let latest = store.entries.last()?;
    let prev =
        store.entries[..store.entries.len() - 1].iter().rev().find(|e| e.key == latest.key)?;
    Some((latest, prev))
}

// ---------------------------------------------------------------------
// significant-regression
// ---------------------------------------------------------------------

/// Metric column the regression rule compares.
pub const REGRESSION_METRIC: &str = "time";

/// Welch's t-test between the newest stored run and the previous run of
/// the same experiment key: any `Regressed` cell is an error finding.
pub struct SignificantRegression;

impl Rule for SignificantRegression {
    fn id(&self) -> &'static str {
        "significant-regression"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn describe(&self) -> &'static str {
        "newest stored run regressed significantly against the previous run of the same experiment"
    }
    fn check(&self, ctx: &DiagCtx) -> Vec<Finding> {
        let Some(store) = &ctx.store else { return Vec::new() };
        let Some((latest, prev)) = latest_with_prev(store) else { return Vec::new() };
        let (Ok(base_csv), Ok(cand_csv)) =
            (store.store.results_csv(prev), store.store.results_csv(latest))
        else {
            return Vec::new(); // unreadable artifacts are fsck's beat
        };
        let (Ok(base), Ok(cand)) = (DataFrame::from_csv(&base_csv), DataFrame::from_csv(&cand_csv))
        else {
            return Vec::new();
        };
        let Ok(cmp) = Comparison::compare(&base, &cand, REGRESSION_METRIC, "prev", "latest") else {
            return Vec::new(); // missing metric column / empty frames
        };
        let file = store.store.run_dir(&latest.run_id).join("results.csv");
        cmp.cells
            .iter()
            .filter(|c| c.verdict == Verdict::Regressed)
            .map(|c| Finding {
                rule: self.id(),
                severity: self.severity(),
                file: file.display().to_string(),
                line: 1,
                message: format!(
                    "{}/{}: {} regressed {:+.1}% vs previous stored run \
                     (t={:.2}, prev mean {:.4}, now {:.4})",
                    c.benchmark,
                    c.build_type,
                    REGRESSION_METRIC,
                    c.delta_pct,
                    c.t,
                    c.baseline.mean,
                    c.candidate.mean
                ),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// flakiness
// ---------------------------------------------------------------------

/// Flakiness gate: extra attempts per settled unit tolerated.
pub const MAX_RETRY_RATE: f64 = 0.0;
/// Flakiness gate: quarantined benchmarks tolerated.
pub const MAX_QUARANTINED: usize = 0;

/// The evaluation's flakiness gate, computed from the journal roll-up:
/// the retry rate (extra attempts per settled unit) and the quarantine
/// count against [`MAX_RETRY_RATE`] and [`MAX_QUARANTINED`]. Results obtained through
/// heavy retrying are suspect even when every unit eventually succeeded:
/// whatever made runs fail also perturbs the runs that passed.
pub struct Flakiness;

impl Rule for Flakiness {
    fn id(&self) -> &'static str {
        "flakiness"
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn describe(&self) -> &'static str {
        "retry or quarantine rate above the configured flakiness gate"
    }
    fn check(&self, ctx: &DiagCtx) -> Vec<Finding> {
        let Some(journal) = &ctx.journal else { return Vec::new() };
        let m = &journal.metrics;
        let units: usize = m.retry_histogram.values().sum();
        let attempts: usize = m.retry_histogram.iter().map(|(a, n)| a * n).sum();
        let mut findings = Vec::new();
        if units > 0 {
            let retry_rate = (attempts - units) as f64 / units as f64;
            if retry_rate > MAX_RETRY_RATE {
                findings.push(Finding {
                    rule: self.id(),
                    severity: self.severity(),
                    file: journal.path.clone(),
                    line: 1,
                    message: format!(
                        "retry rate {:.2} ({} extra attempts over {} units) exceeds the \
                         flakiness gate's {:.2}",
                        retry_rate,
                        attempts - units,
                        units,
                        MAX_RETRY_RATE
                    ),
                });
            }
        }
        if m.quarantined.len() > MAX_QUARANTINED {
            findings.push(Finding {
                rule: self.id(),
                severity: self.severity(),
                file: journal.path.clone(),
                line: 1,
                message: format!(
                    "{} quarantined benchmark(s) ({}) exceed the flakiness gate's {}",
                    m.quarantined.len(),
                    m.quarantined.join(", "),
                    MAX_QUARANTINED
                ),
            });
        }
        findings
    }
}

// ---------------------------------------------------------------------
// variance-anomaly
// ---------------------------------------------------------------------

/// Variance rule: coefficient-of-variation ceiling.
pub const MAX_CV: f64 = 0.25;

/// Coefficient of variation of the measured cycles per run-unit cell:
/// a cell whose CV exceeds [`MAX_CV`] points at an unstable
/// measurement (or an unnoticed nondeterminism source).
pub struct VarianceAnomaly;

impl Rule for VarianceAnomaly {
    fn id(&self) -> &'static str {
        "variance-anomaly"
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn describe(&self) -> &'static str {
        "per-cell cycle variance (CV) above the configured threshold"
    }
    fn check(&self, ctx: &DiagCtx) -> Vec<Finding> {
        let Some(journal) = &ctx.journal else { return Vec::new() };
        let mut findings = Vec::new();
        for ((benchmark, build_type, threads), samples) in cycles_by_cell(&journal.events) {
            if samples.len() < 2 {
                continue;
            }
            let mean = stats::mean(&samples);
            if mean <= 0.0 {
                continue;
            }
            let cv = stats::stddev(&samples) / mean;
            if cv > MAX_CV {
                findings.push(Finding {
                    rule: self.id(),
                    severity: self.severity(),
                    file: journal.path.clone(),
                    line: 1,
                    message: format!(
                        "{benchmark}/{build_type} m={threads}: cycles CV {:.1}% over {} reps \
                         exceeds {:.1}%",
                        100.0 * cv,
                        samples.len(),
                        100.0 * MAX_CV
                    ),
                });
            }
        }
        findings
    }
}

// ---------------------------------------------------------------------
// cache-hit-rate-drop
// ---------------------------------------------------------------------

/// Cache rule: tolerated hit-rate drop (in rate points, 0–1).
pub const MAX_HIT_RATE_DROP: f64 = 0.25;

/// Decode-cache / artifact-graph hit rate of the newest stored run fell
/// by more than [`MAX_HIT_RATE_DROP`] against the previous run of the
/// same key — the caches silently stopped working.
pub struct CacheHitRateDrop;

impl Rule for CacheHitRateDrop {
    fn id(&self) -> &'static str {
        "cache-hit-rate-drop"
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn describe(&self) -> &'static str {
        "decode-cache or artifact-graph hit rate dropped vs the previous stored run"
    }
    fn check(&self, ctx: &DiagCtx) -> Vec<Finding> {
        let Some(store) = &ctx.store else { return Vec::new() };
        let Some((latest, prev)) = latest_with_prev(store) else { return Vec::new() };
        let read = |e: &IndexEntry| {
            std::fs::read_to_string(store.store.run_dir(&e.run_id).join("metrics.json")).ok()
        };
        let (Some(prev_text), Some(latest_text)) = (read(prev), read(latest)) else {
            return Vec::new();
        };
        let (Some(p), Some(l)) = (
            Metrics::parse_cache_counters(&prev_text),
            Metrics::parse_cache_counters(&latest_text),
        ) else {
            return Vec::new();
        };
        let file = store.store.run_dir(&latest.run_id).join("metrics.json").display().to_string();
        let mut findings = Vec::new();
        let mut drop_check = |cache: &str, prev_rate: f64, latest_rate: f64, active: bool| {
            if active && prev_rate - latest_rate > MAX_HIT_RATE_DROP {
                findings.push(Finding {
                    rule: "cache-hit-rate-drop",
                    severity: Severity::Warning,
                    file: file.clone(),
                    line: 1,
                    message: format!(
                        "{cache} hit rate dropped from {:.1}% to {:.1}% \
                         (threshold: {:.1} points)",
                        100.0 * prev_rate,
                        100.0 * latest_rate,
                        100.0 * MAX_HIT_RATE_DROP
                    ),
                });
            }
        };
        // Only compare caches that were live on both sides: a warm run
        // that skips decoding entirely is a win, not a drop.
        drop_check(
            "decode-cache",
            p.decode_hit_rate(),
            l.decode_hit_rate(),
            p.decode_served > 0 && l.decode_served > 0,
        );
        drop_check(
            "artifact-graph",
            p.graph_hit_rate(),
            l.graph_hit_rate(),
            p.graph_hits + p.graph_misses > 0 && l.graph_hits + l.graph_misses > 0,
        );
        findings
    }
}

// ---------------------------------------------------------------------
// adaptive-never-converged
// ---------------------------------------------------------------------

/// An adaptively repeated cell that spent its whole repetition budget
/// never reached the CI precision target — its numbers are noisier than
/// the experiment claims.
pub struct AdaptiveNeverConverged;

impl Rule for AdaptiveNeverConverged {
    fn id(&self) -> &'static str {
        "adaptive-never-converged"
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn describe(&self) -> &'static str {
        "an adaptive-repetition cell exhausted its budget without reaching the CI precision target"
    }
    fn check(&self, ctx: &DiagCtx) -> Vec<Finding> {
        let Some(store) = &ctx.store else { return Vec::new() };
        let Some(latest) = store.entries.last() else { return Vec::new() };
        let Some(RepsSpec::Adaptive { min, max }) = parse_reps(&latest.key) else {
            return Vec::new();
        };
        if max <= min {
            return Vec::new(); // a zero-width budget can never converge early
        }
        let Ok(csv) = store.store.results_csv(latest) else { return Vec::new() };
        let Ok(df) = DataFrame::from_csv(&csv) else { return Vec::new() };
        let (Ok(bi), Ok(ti), Ok(mi)) = (df.col("benchmark"), df.col("type"), df.col("threads"))
        else {
            return Vec::new();
        };
        let mut reps: std::collections::BTreeMap<(String, String, String), usize> =
            std::collections::BTreeMap::new();
        for row in df.iter() {
            *reps
                .entry((
                    row[bi].to_cell_string(),
                    row[ti].to_cell_string(),
                    row[mi].to_cell_string(),
                ))
                .or_insert(0) += 1;
        }
        let file = store.store.run_dir(&latest.run_id).join("results.csv").display().to_string();
        reps.into_iter()
            .filter(|(_, n)| *n >= max)
            .map(|((benchmark, build_type, threads), _)| Finding {
                rule: self.id(),
                severity: self.severity(),
                file: file.clone(),
                line: 1,
                message: format!(
                    "{benchmark}/{build_type} m={threads}: used all {max} repetitions without \
                     reaching the 95%-CI precision target"
                ),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// journal-integrity
// ---------------------------------------------------------------------

/// Malformed-line findings are reported individually up to this cap,
/// then summarized — a truncated multi-megabyte journal should not
/// produce a multi-megabyte SARIF.
const MAX_MALFORMED_FINDINGS: usize = 10;

/// Structural health of the journal itself: version skew, malformed
/// lines, and phase gaps (a stream that claims an experiment ran but
/// never closed its phases is truncated or torn).
pub struct JournalIntegrity;

impl Rule for JournalIntegrity {
    fn id(&self) -> &'static str {
        "journal-integrity"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn describe(&self) -> &'static str {
        "journal version skew, malformed lines, or phase gaps"
    }
    fn check(&self, ctx: &DiagCtx) -> Vec<Finding> {
        let Some(journal) = &ctx.journal else { return Vec::new() };
        let finding = |line: usize, message: String| Finding {
            rule: self.id(),
            severity: self.severity(),
            file: journal.path.clone(),
            line,
            message,
        };
        let mut findings = Vec::new();
        if journal.events.is_empty() && journal.issues.is_empty() {
            findings.push(finding(1, "journal contains no events".into()));
            return findings;
        }
        for (line, issue) in journal.issues.iter().take(MAX_MALFORMED_FINDINGS) {
            findings.push(finding(*line, issue.clone()));
        }
        if journal.issues.len() > MAX_MALFORMED_FINDINGS {
            let extra = journal.issues.len() - MAX_MALFORMED_FINDINGS;
            let mut msg = String::new();
            let _ = write!(msg, "{extra} further malformed journal line(s) elided");
            findings.push(finding(journal.issues[MAX_MALFORMED_FINDINGS].0, msg));
        }
        let mut has_start = false;
        let mut has_end = false;
        let mut has_exec = false;
        let mut run_closed = false;
        let mut collect_closed = false;
        for e in &journal.events {
            match e {
                JournalEvent::ExperimentStart { version, .. } => {
                    has_start = true;
                    if *version != JOURNAL_VERSION {
                        findings.push(finding(
                            1,
                            format!(
                                "journal version {version} does not match this reader's \
                                 version {JOURNAL_VERSION}"
                            ),
                        ));
                    }
                }
                JournalEvent::ExperimentEnd { .. } => has_end = true,
                JournalEvent::VmExec { .. } => has_exec = true,
                JournalEvent::PhaseEnd { phase, .. } => match phase.as_str() {
                    "run" => run_closed = true,
                    "collect" => collect_closed = true,
                    _ => {}
                },
                _ => {}
            }
        }
        if !journal.events.is_empty() {
            if !has_start {
                findings.push(finding(1, "no experiment_start event".into()));
            }
            if has_start && !has_end {
                findings
                    .push(finding(1, "journal ends without experiment_end (truncated?)".into()));
            }
            if has_exec && !run_closed {
                findings.push(finding(
                    1,
                    "phase gap: run units executed but the run phase never ended".into(),
                ));
            }
            if has_end && !collect_closed {
                findings.push(finding(
                    1,
                    "phase gap: experiment ended but the collect phase never ended".into(),
                ));
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::diag::tests::TempDir;
    use crate::diag::{DiagConfig, JournalSource};
    use crate::lab::store::RunArtifacts;
    use crate::lab::RunStore;

    fn temp_store(tag: &str) -> (TempDir, StoreSource) {
        let dir = TempDir::new("fex-diag-rules", tag);
        let store = RunStore::open(dir.0.clone()).unwrap();
        (dir, StoreSource { store, entries: Vec::new(), index_warnings: Vec::new() })
    }

    fn rescan(mut source: StoreSource) -> StoreSource {
        let (entries, warnings) = source.store.scan();
        source.entries = entries;
        source.index_warnings = warnings;
        source
    }

    fn ctx_with_store(store: StoreSource) -> DiagCtx {
        DiagCtx { journal: None, store: Some(rescan(store)), config: DiagConfig::default() }
    }

    fn ctx_with_journal(events: Vec<JournalEvent>) -> DiagCtx {
        let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
        DiagCtx {
            journal: Some(JournalSource::parse("test.journal.jsonl", &jsonl)),
            store: None,
            config: DiagConfig::default(),
        }
    }

    fn results_csv(times: &[(&str, &[f64])]) -> String {
        let mut csv = String::from("suite,benchmark,type,threads,input,rep,time\n");
        for (bench, samples) in times {
            for (rep, t) in samples.iter().enumerate() {
                let _ = writeln!(csv, "micro,{bench},gcc_native,1,test,{rep},{t}");
            }
        }
        csv
    }

    fn save(source: &StoreSource, config: &ExperimentConfig, results: &str, metrics: Option<&str>) {
        let art = RunArtifacts {
            results_csv: results,
            failures_csv: "benchmark\n",
            metrics_json: metrics,
            journal_digest: None,
        };
        source.store.save(config, &art).unwrap();
    }

    fn exec(bench: &str, rep: usize, cycles: u64) -> JournalEvent {
        JournalEvent::VmExec {
            benchmark: bench.into(),
            build_type: "gcc_native".into(),
            threads: 1,
            rep: Some(rep),
            instructions: 100,
            cycles,
            l1_misses: 0,
            llc_misses: 0,
            branch_mispredicts: 0,
            faults: 0,
            exit: 0,
        }
    }

    fn outcome(bench: &str, verdict: &str, attempts: usize) -> JournalEvent {
        JournalEvent::UnitOutcome {
            benchmark: bench.into(),
            build_type: "gcc_native".into(),
            threads: 1,
            rep: Some(0),
            outcome: verdict.into(),
            attempts,
            backoff_cycles: 0,
        }
    }

    fn full_journal(mut middle: Vec<JournalEvent>) -> Vec<JournalEvent> {
        let mut events = vec![JournalEvent::ExperimentStart {
            name: "micro".into(),
            jobs: 1,
            seed: 1,
            version: JOURNAL_VERSION,
        }];
        events.append(&mut middle);
        events.push(JournalEvent::PhaseEnd { phase: "run".into(), wall_ns: 0 });
        events.push(JournalEvent::PhaseEnd { phase: "collect".into(), wall_ns: 0 });
        events.push(JournalEvent::ExperimentEnd { rows: 1, failure_records: 0, wall_ns: 0 });
        events
    }

    // --- significant-regression ---

    #[test]
    fn regression_rule_fires_on_a_slower_latest_run() {
        let (_dir, store) = temp_store("reg-fire");
        let config = ExperimentConfig::new("micro").repetitions(3);
        save(&store, &config, &results_csv(&[("a", &[1.0, 1.01, 0.99])]), None);
        save(&store, &config, &results_csv(&[("a", &[2.0, 2.01, 1.99])]), None);
        let ctx = ctx_with_store(store);
        let findings = SignificantRegression.check(&ctx);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(findings[0].message.contains("a/gcc_native"), "{}", findings[0].message);
        assert!(findings[0].file.ends_with("results.csv"));
    }

    #[test]
    fn regression_rule_stays_quiet_on_identical_runs_and_thin_history() {
        let (_dir, store) = temp_store("reg-quiet");
        let config = ExperimentConfig::new("micro").repetitions(3);
        let csv = results_csv(&[("a", &[1.0, 1.01, 0.99])]);
        save(&store, &config, &csv, None);
        let single = ctx_with_store(rescan(store));
        assert!(SignificantRegression.check(&single).is_empty(), "one run has no prev");
        let store = single.store.unwrap();
        save(&store, &config, &csv, None);
        let ctx =
            DiagCtx { journal: None, store: Some(rescan(store)), config: DiagConfig::default() };
        assert!(SignificantRegression.check(&ctx).is_empty(), "identical runs are unchanged");
    }

    // --- flakiness ---

    #[test]
    fn flakiness_rule_fires_on_retries_and_quarantines() {
        let ctx = ctx_with_journal(full_journal(vec![
            outcome("a", "recovered", 3),
            outcome("b", "quarantined", 3),
        ]));
        let findings = Flakiness.check(&ctx);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("retry rate"), "{}", findings[0].message);
        assert!(findings[1].message.contains("quarantined"), "{}", findings[1].message);
    }

    #[test]
    fn flakiness_findings_are_silenced_by_deny() {
        let mut ctx = ctx_with_journal(full_journal(vec![
            outcome("a", "recovered", 3),
            outcome("b", "quarantined", 3),
        ]));
        ctx.config.deny.push("flakiness".into());
        let report = crate::diag::run_diag(&ctx);
        assert!(report.findings.iter().all(|f| f.rule != "flakiness"), "{:?}", report.findings);
    }

    #[test]
    fn flakiness_rule_stays_quiet_on_clean_units() {
        let ctx = ctx_with_journal(full_journal(vec![
            outcome("a", "clean", 1),
            outcome("b", "clean", 1),
        ]));
        assert!(Flakiness.check(&ctx).is_empty());
    }

    // --- variance-anomaly ---

    #[test]
    fn variance_rule_fires_on_a_noisy_cell() {
        let ctx = ctx_with_journal(full_journal(vec![exec("a", 0, 100), exec("a", 1, 300)]));
        let findings = VarianceAnomaly.check(&ctx);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("CV"), "{}", findings[0].message);
    }

    #[test]
    fn variance_rule_stays_quiet_on_stable_cells_and_single_reps() {
        let ctx = ctx_with_journal(full_journal(vec![
            exec("a", 0, 100),
            exec("a", 1, 101),
            exec("b", 0, 5000),
        ]));
        assert!(VarianceAnomaly.check(&ctx).is_empty());
    }

    // --- cache-hit-rate-drop ---

    fn metrics_with(decodes: usize, served: usize, hits: usize, misses: usize) -> String {
        let m = Metrics {
            decodes,
            decode_served: served,
            graph_hits: hits,
            graph_misses: misses,
            ..Metrics::default()
        };
        m.to_json()
    }

    #[test]
    fn cache_rule_fires_when_the_decode_rate_collapses() {
        let (_dir, store) = temp_store("cache-fire");
        let config = ExperimentConfig::new("micro").repetitions(3);
        // Distinct CSVs so the content-addressed saves land in distinct
        // run directories (identical artifacts share one).
        save(&store, &config, &results_csv(&[("a", &[1.0])]), Some(&metrics_with(1, 10, 5, 5)));
        save(&store, &config, &results_csv(&[("a", &[1.01])]), Some(&metrics_with(10, 10, 5, 5)));
        let ctx = ctx_with_store(store);
        let findings = CacheHitRateDrop.check(&ctx);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("decode-cache"), "{}", findings[0].message);
        assert!(findings[0].file.ends_with("metrics.json"));
    }

    #[test]
    fn cache_rule_stays_quiet_when_rates_hold_or_caches_idle() {
        let (_dir, store) = temp_store("cache-quiet");
        let config = ExperimentConfig::new("micro").repetitions(3);
        save(&store, &config, &results_csv(&[("a", &[1.0])]), Some(&metrics_with(1, 10, 5, 5)));
        save(&store, &config, &results_csv(&[("a", &[1.01])]), Some(&metrics_with(1, 10, 5, 5)));
        // A warm third run that skipped decoding entirely: not a drop.
        save(&store, &config, &results_csv(&[("a", &[0.99])]), Some(&metrics_with(0, 0, 10, 0)));
        let ctx = ctx_with_store(store);
        assert!(CacheHitRateDrop.check(&ctx).is_empty());
    }

    // --- adaptive-never-converged ---

    #[test]
    fn adaptive_rule_fires_when_a_cell_spends_its_whole_budget() {
        let (_dir, store) = temp_store("adaptive-fire");
        let config = ExperimentConfig::new("micro").adaptive_repetitions(2, 4, 0.0001);
        save(&store, &config, &results_csv(&[("a", &[1.0, 3.0, 1.0, 3.0])]), None);
        let ctx = ctx_with_store(store);
        let findings = AdaptiveNeverConverged.check(&ctx);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("all 4 repetitions"), "{}", findings[0].message);
    }

    #[test]
    fn adaptive_rule_stays_quiet_on_converged_cells_and_fixed_reps() {
        let (_dir, store) = temp_store("adaptive-quiet");
        let adaptive = ExperimentConfig::new("micro").adaptive_repetitions(2, 4, 0.05);
        save(&store, &adaptive, &results_csv(&[("a", &[1.0, 1.0])]), None);
        let ctx = ctx_with_store(store);
        assert!(AdaptiveNeverConverged.check(&ctx).is_empty(), "2 < 4 reps means it converged");
        let (_dir, store) = temp_store("adaptive-quiet-fixed");
        let fixed = ExperimentConfig::new("micro").repetitions(4);
        save(&store, &fixed, &results_csv(&[("a", &[1.0, 3.0, 1.0, 3.0])]), None);
        let ctx = ctx_with_store(store);
        assert!(AdaptiveNeverConverged.check(&ctx).is_empty(), "fixed reps never converge");
    }

    // --- journal-integrity ---

    #[test]
    fn integrity_rule_fires_on_skew_malformed_and_gaps() {
        // Version skew.
        let mut events = full_journal(vec![]);
        events[0] = JournalEvent::ExperimentStart {
            name: "micro".into(),
            jobs: 1,
            seed: 1,
            version: JOURNAL_VERSION + 1,
        };
        let ctx = ctx_with_journal(events);
        let findings = JournalIntegrity.check(&ctx);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("version"), "{}", findings[0].message);

        // Malformed lines, with 1-based locations.
        let good = full_journal(vec![]);
        let mut jsonl: String = good.iter().map(|e| e.to_json() + "\n").collect();
        jsonl.push_str("garbage\n");
        let ctx = DiagCtx {
            journal: Some(JournalSource::parse("j.jsonl", &jsonl)),
            store: None,
            config: DiagConfig::default(),
        };
        let findings = JournalIntegrity.check(&ctx);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, good.len() + 1);
        assert!(findings[0].message.contains("malformed"), "{}", findings[0].message);

        // Phase gap: executions but no run phase end, no experiment end.
        let ctx = ctx_with_journal(vec![
            JournalEvent::ExperimentStart {
                name: "micro".into(),
                jobs: 1,
                seed: 1,
                version: JOURNAL_VERSION,
            },
            exec("a", 0, 100),
        ]);
        let findings = JournalIntegrity.check(&ctx);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("experiment_end")));
        assert!(findings.iter().any(|f| f.message.contains("phase gap")));

        // Empty journal.
        let ctx = DiagCtx {
            journal: Some(JournalSource::parse("empty.jsonl", "")),
            store: None,
            config: DiagConfig::default(),
        };
        assert_eq!(JournalIntegrity.check(&ctx).len(), 1);
    }

    #[test]
    fn integrity_rule_stays_quiet_on_a_healthy_journal() {
        let ctx = ctx_with_journal(full_journal(vec![exec("a", 0, 100), outcome("a", "clean", 1)]));
        assert!(JournalIntegrity.check(&ctx).is_empty());
    }

    #[test]
    fn malformed_line_findings_are_capped() {
        let good = full_journal(vec![]);
        let mut jsonl: String = good.iter().map(|e| e.to_json() + "\n").collect();
        for _ in 0..25 {
            jsonl.push_str("garbage\n");
        }
        let ctx = DiagCtx {
            journal: Some(JournalSource::parse("j.jsonl", &jsonl)),
            store: None,
            config: DiagConfig::default(),
        };
        let findings = JournalIntegrity.check(&ctx);
        assert_eq!(findings.len(), MAX_MALFORMED_FINDINGS + 1);
        assert!(findings.last().unwrap().message.contains("15 further"), "{findings:?}");
    }

    #[test]
    fn registry_ids_are_unique_and_known() {
        let mut ids: Vec<&str> = registry().iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), 6);
        ids.dedup();
        assert_eq!(ids.len(), 6, "duplicate rule ids");
        assert!(known_rule("flakiness"));
        assert!(!known_rule("sparkles"));
    }
}
