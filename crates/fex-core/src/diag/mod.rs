//! `fex diag` — a rule-based diagnostics engine over fex's own evidence.
//!
//! The pipeline *produces* rich artifacts — typed journals, the
//! content-addressed lab store, compare verdicts, cache accounting — but
//! nothing audits that evidence automatically. This module closes the
//! loop with a linter-style architecture (the rustor idiom): a registry
//! of independently toggleable [`Rule`]s runs over a [`DiagCtx`] (a
//! parsed journal and/or an open lab store) and emits [`Finding`]s with
//! severities, rendered in CI-native formats — SARIF 2.1.0, GitHub
//! Actions annotations, or a human table (see [`output`]).
//!
//! Determinism is a hard invariant, matching the rest of the codebase:
//! findings are sorted by rule id, then location, then message, and no
//! wall-clock or host fields ever reach the output.
//!
//! The module also computes the [`ReproScore`] shown by `fex lab list`:
//! a readiness-vs-outcome split (did the run *record* enough to be
//! reproduced, and did it *behave* reproducibly?) so stored runs rank by
//! reproducibility health.

pub mod output;
pub mod rules;

use std::collections::BTreeMap;

use crate::error::{FexError, Result};
use crate::journal::{self, JournalEvent, Metrics};
use crate::lab::{IndexEntry, RunStore};

pub use output::DiagFormat;
pub use rules::registry;

/// How bad a finding is. Ordering matters: `Error` > `Warning` > `Note`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; never affects the exit code.
    Note,
    /// Suspicious but not disqualifying; `fex diag` still exits 0.
    Warning,
    /// Disqualifying; `fex diag` exits 2.
    Error,
}

impl Severity {
    /// The SARIF `level` string for this severity.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// The GitHub Actions workflow-command name for this severity.
    pub fn github_command(self) -> &'static str {
        match self {
            Severity::Note => "notice",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One diagnostic finding, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Id of the rule that emitted it.
    pub rule: &'static str,
    /// Severity (inherited from the rule).
    pub severity: Severity,
    /// The artifact the finding is about (journal path, stored CSV, …).
    pub file: String,
    /// 1-based line within `file`; 1 when the finding is whole-file.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// One diagnostics rule: a pure function of the [`DiagCtx`].
///
/// Rules must be deterministic and side-effect free; their thresholds
/// are the constants in [`rules`].
pub trait Rule: Sync {
    /// Stable kebab-case identifier (`--rules`/`--deny` and SARIF
    /// `ruleId`).
    fn id(&self) -> &'static str;
    /// Severity of every finding this rule emits.
    fn severity(&self) -> Severity;
    /// One-line description for the SARIF rule metadata.
    fn describe(&self) -> &'static str;
    /// Runs the rule. An inapplicable context (no journal, no store, too
    /// little history) must return an empty vector, not an error.
    fn check(&self, ctx: &DiagCtx) -> Vec<Finding>;
}

/// A parsed run journal, ready for rules to read.
#[derive(Debug, Clone)]
pub struct JournalSource {
    /// Path the journal was read from (used in finding locations).
    pub path: String,
    /// Every event that parsed.
    pub events: Vec<JournalEvent>,
    /// `(1-based line, description)` for every line that did not parse.
    pub issues: Vec<(usize, String)>,
    /// The aggregate roll-up of `events`.
    pub metrics: Metrics,
}

impl JournalSource {
    /// Parses journal text with per-line fault isolation (the same
    /// discipline as `fex report`): malformed lines become issues, not
    /// failures.
    pub fn parse(path: &str, jsonl: &str) -> JournalSource {
        let (events, issues) = journal::parse_jsonl(jsonl);
        let issues = issues.into_iter().map(|(line, issue)| (line, issue.to_string())).collect();
        let metrics = Metrics::from_journal(&events);
        JournalSource { path: path.to_string(), events, issues, metrics }
    }

    /// Reads and parses a journal file.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] naming the path when the file cannot be read
    /// (the `fex diag` exit-1 contract).
    pub fn load(path: &str) -> Result<JournalSource> {
        let jsonl = std::fs::read_to_string(path)
            .map_err(|e| FexError::Data(format!("cannot read journal `{path}`: {e}")))?;
        Ok(JournalSource::parse(path, &jsonl))
    }
}

/// An open lab store plus its scanned index, ready for rules to read.
#[derive(Debug, Clone)]
pub struct StoreSource {
    /// The store handle (for reading per-run artifacts).
    pub store: RunStore,
    /// Index entries in insertion order.
    pub entries: Vec<IndexEntry>,
    /// Warnings from the fault-isolated index scan.
    pub index_warnings: Vec<String>,
}

impl StoreSource {
    /// Opens an existing lab directory.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when `dir` does not exist — `fex diag` must
    /// not conjure an empty store out of a typo (the exit-1 contract).
    pub fn open(dir: &str) -> Result<StoreSource> {
        if !std::path::Path::new(dir).is_dir() {
            return Err(FexError::Data(format!(
                "cannot read lab store `{dir}`: no such directory"
            )));
        }
        let store = RunStore::open(dir)?;
        let (entries, index_warnings) = store.scan();
        Ok(StoreSource { store, entries, index_warnings })
    }
}

/// Which rules run: the `--rules` allow-list and the `--deny` list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiagConfig {
    /// When set, only these rule ids run.
    pub allow: Option<Vec<String>>,
    /// Rule ids that never run (applied after `allow`).
    pub deny: Vec<String>,
}

impl DiagConfig {
    /// True when rule `id` should run under this configuration.
    pub fn enables(&self, id: &str) -> bool {
        !self.deny.iter().any(|d| d == id)
            && self.allow.as_ref().is_none_or(|allow| allow.iter().any(|a| a == id))
    }
}

/// Everything a rule may look at.
#[derive(Debug, Clone)]
pub struct DiagCtx {
    /// The journal under audit, when one was given.
    pub journal: Option<JournalSource>,
    /// The lab store under audit, when one was given.
    pub store: Option<StoreSource>,
    /// Rule selection (`--rules` / `--deny`).
    pub config: DiagConfig,
}

/// The outcome of one diagnostics pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagReport {
    /// All findings, sorted by rule id, then file, then line, then
    /// message.
    pub findings: Vec<Finding>,
    /// Ids of the rules that ran, in registry order.
    pub rules_run: Vec<&'static str>,
}

impl DiagReport {
    /// The most severe finding, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Findings with exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == severity).count()
    }
}

/// Runs every enabled rule over `ctx` and returns the findings sorted
/// by `(rule, file, line, message)`.
pub fn run_diag(ctx: &DiagCtx) -> DiagReport {
    let rules: Vec<&'static dyn Rule> =
        registry().iter().copied().filter(|r| ctx.config.enables(r.id())).collect();
    let rules_run: Vec<&'static str> = rules.iter().map(|r| r.id()).collect();
    let mut findings: Vec<Finding> = rules.iter().flat_map(|r| r.check(ctx)).collect();
    findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.message).cmp(&(b.rule, &b.file, b.line, &b.message))
    });
    DiagReport { findings, rules_run }
}

/// Convenience used by the fuzz oracle: just the `journal-integrity`
/// findings for one parsed journal.
pub fn check_journal_integrity(source: &JournalSource) -> Vec<Finding> {
    let ctx = DiagCtx { journal: Some(source.clone()), store: None, config: DiagConfig::default() };
    rules::JournalIntegrity.check(&ctx)
}

// ---------------------------------------------------------------------
// ReproScore
// ---------------------------------------------------------------------

/// The reproducibility health of one stored run, split ReproScore-style
/// into *readiness* (did the run record enough to be reproduced?) and
/// *outcome* (did it behave reproducibly?). Each half is 0–50; the total
/// is 0–100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReproScore {
    /// Readiness points (max 50): journal digest recorded (+20),
    /// metrics roll-up archived (+10), ≥ 2 repetitions per cell (+10),
    /// adaptive CI-precision policy (+10).
    pub readiness: u32,
    /// Outcome points (max 50): zero failure records (+20), a non-empty
    /// results frame (+15), no quarantined benchmarks (+15).
    pub outcome: u32,
}

impl ReproScore {
    /// Total score out of 100.
    pub fn total(&self) -> u32 {
        self.readiness + self.outcome
    }

    /// The `fex lab list` cell, e.g. `85/100`.
    pub fn render(&self) -> String {
        format!("{}/100", self.total())
    }
}

/// The repetition policy recovered from a stored experiment key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepsSpec {
    /// `reps=Fixed(n)`.
    Fixed(usize),
    /// `reps=Adaptive { min, max, .. }`.
    Adaptive {
        /// Repetition floor.
        min: usize,
        /// Repetition budget per cell.
        max: usize,
    },
}

/// Recovers the repetition policy from the human-readable experiment key
/// archived in the store index (`… reps=Fixed(3) …` or
/// `… reps=Adaptive { min: 2, max: 16, rel_precision: 0.05 } …`).
pub fn parse_reps(key: &str) -> Option<RepsSpec> {
    let rest = key.split("reps=").nth(1)?;
    if let Some(n) = rest.strip_prefix("Fixed(") {
        Some(RepsSpec::Fixed(n.split(')').next()?.trim().parse().ok()?))
    } else if rest.starts_with("Adaptive") {
        let field = |name: &str| -> Option<usize> {
            rest.split(name).nth(1)?.split([',', ' ', '}']).find(|s| !s.is_empty())?.parse().ok()
        };
        Some(RepsSpec::Adaptive { min: field("min: ")?, max: field("max: ")? })
    } else {
        None
    }
}

/// Extracts the `quarantined` array from a stored `metrics.json`.
/// Returns `None` when the text has no such line (corrupt or foreign
/// file), `Some(true)` when the array is empty.
fn metrics_quarantine_clean(metrics_json: &str) -> Option<bool> {
    let line = metrics_json.lines().find(|l| l.trim_start().starts_with("\"quarantined\":"))?;
    Some(line.contains("[]"))
}

/// Scores one stored run. Pure function of the archived artifacts: no
/// wall clocks, no host state, so `fex lab list` output is
/// byte-deterministic for a fixed store.
pub fn repro_score(store: &RunStore, entry: &IndexEntry) -> ReproScore {
    let run_dir = store.run_dir(&entry.run_id);

    // Readiness: what the run recorded about itself.
    let mut readiness = 0;
    let record = std::fs::read_to_string(run_dir.join("record.json")).unwrap_or_default();
    let journal_digest = journal::parse_flat_object(record.trim())
        .ok()
        .and_then(|map| journal::get::<String>(&map, "journal_digest").ok().map(|d| !d.is_empty()))
        .unwrap_or(false);
    if journal_digest {
        readiness += 20;
    }
    let metrics = std::fs::read_to_string(run_dir.join("metrics.json")).ok();
    if metrics.is_some() {
        readiness += 10;
    }
    match parse_reps(&entry.key) {
        Some(RepsSpec::Fixed(n)) if n >= 2 => readiness += 10,
        Some(RepsSpec::Adaptive { .. }) => readiness += 20,
        _ => {}
    }

    // Outcome: how the run behaved.
    let mut outcome = 0;
    if entry.failures == 0 {
        outcome += 20;
    }
    if entry.rows > 0 {
        outcome += 15;
    }
    let quarantine_clean =
        metrics.as_deref().and_then(metrics_quarantine_clean).unwrap_or(entry.failures == 0);
    if quarantine_clean {
        outcome += 15;
    }

    ReproScore { readiness, outcome }
}

/// Groups `vm_exec` cycle samples by run-unit cell (benchmark, build
/// type, threads), skipping dry runs. Shared by the variance rule and
/// its tests.
pub(crate) fn cycles_by_cell(
    events: &[JournalEvent],
) -> BTreeMap<(String, String, usize), Vec<f64>> {
    let mut cells: BTreeMap<(String, String, usize), Vec<f64>> = BTreeMap::new();
    for e in events {
        if let JournalEvent::VmExec {
            benchmark, build_type, threads, rep: Some(_), cycles, ..
        } = e
        {
            cells
                .entry((benchmark.clone(), build_type.clone(), *threads))
                .or_default()
                .push(*cycles as f64);
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::lab::store::RunArtifacts;

    /// A directory under the system temp directory, removed with
    /// everything in it when the guard drops, also when the test fails.
    pub(super) struct TempDir(pub(super) std::path::PathBuf);

    impl TempDir {
        /// `<temp>/<prefix>-<pid>-<tag>`, removing a leftover of the same
        /// name first; the directory itself is left for its user to create.
        pub(super) fn new(prefix: &str, tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("{prefix}-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn temp_store(tag: &str) -> (TempDir, RunStore) {
        let dir = TempDir::new("fex-diag-mod", tag);
        let store = RunStore::open(dir.0.clone()).unwrap();
        (dir, store)
    }

    const CSV: &str =
        "suite,benchmark,type,threads,input,rep,time\nmicro,a,gcc_native,1,test,0,1.0\n";

    #[test]
    fn parse_reps_recovers_both_policies() {
        let key = "micro types=[\"gcc_native\"] bench=* threads=[1] reps=Fixed(3) input=Test seed=1 tool=PerfStat debug=false";
        assert_eq!(parse_reps(key), Some(RepsSpec::Fixed(3)));
        let key = "micro reps=Adaptive { min: 2, max: 16, rel_precision: 0.05 } input=Test";
        assert_eq!(parse_reps(key), Some(RepsSpec::Adaptive { min: 2, max: 16 }));
        assert_eq!(parse_reps("no reps here"), None);
    }

    #[test]
    fn repro_score_rewards_readiness_and_outcome() {
        let (_dir, store) = temp_store("score");
        let config = ExperimentConfig::new("micro").repetitions(3);
        let metrics = "{\n  \"quarantined\": [],\n}\n";
        let full = RunArtifacts {
            results_csv: CSV,
            failures_csv: "benchmark\n",
            metrics_json: Some(metrics),
            journal_digest: Some("fex256:abc"),
        };
        let entry = store.save(&config, &full).unwrap();
        let score = repro_score(&store, &entry);
        assert_eq!(score.readiness, 40, "journal 20 + metrics 10 + reps>=2 10");
        assert_eq!(score.outcome, 50);
        assert_eq!(score.render(), "90/100");

        // A bare run (no journal, single rep, a failure record) scores low.
        let bare = RunArtifacts {
            results_csv: "suite,benchmark,type,threads,input,rep,time\n",
            failures_csv: "benchmark\nx\n",
            metrics_json: None,
            journal_digest: None,
        };
        let entry = store.save(&ExperimentConfig::new("micro"), &bare).unwrap();
        let score = repro_score(&store, &entry);
        assert_eq!(score.readiness, 0);
        assert_eq!(score.outcome, 0, "failure present, no rows, quarantine unknown");
    }

    #[test]
    fn adaptive_policy_maxes_the_repetition_readiness() {
        let (_dir, store) = temp_store("adaptive");
        let config = ExperimentConfig::new("micro").adaptive_repetitions(2, 8, 0.05);
        let art = RunArtifacts {
            results_csv: CSV,
            failures_csv: "benchmark\n",
            metrics_json: None,
            journal_digest: None,
        };
        let entry = store.save(&config, &art).unwrap();
        assert_eq!(repro_score(&store, &entry).readiness, 20);
    }

    #[test]
    fn journal_source_counts_malformed_lines() {
        let good = crate::journal::JournalEvent::DecodeCache { decodes: 1, served: 2 }.to_json();
        let text = format!("{good}\nnot json\n\n{{\"event\": \"martian\"}}\n");
        let src = JournalSource::parse("j.jsonl", &text);
        assert_eq!(src.events.len(), 1);
        assert_eq!(src.issues.len(), 2);
        assert_eq!(src.issues[0].0, 2, "1-based line numbers");
        assert_eq!(src.issues[1].0, 4);
    }

    #[test]
    fn store_source_refuses_missing_directories() {
        let err = StoreSource::open("/nonexistent/fex-diag-lab").unwrap_err();
        assert!(err.to_string().contains("/nonexistent/fex-diag-lab"), "{err}");
    }

    #[test]
    fn defaults_run_every_rule() {
        let config = DiagConfig::default();
        assert!(config.enables("flakiness"));
        assert!(config.enables("journal-integrity"));
    }

    #[test]
    fn allow_and_deny_filter_rules() {
        let config = DiagConfig {
            allow: Some(vec!["flakiness".into(), "variance-anomaly".into()]),
            deny: vec!["variance-anomaly".into()],
        };
        assert!(config.enables("flakiness"));
        assert!(!config.enables("variance-anomaly"), "deny beats allow");
        assert!(!config.enables("journal-integrity"), "not in allow list");
    }
}
