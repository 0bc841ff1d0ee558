//! `fex fuzz` — seeded scenario fuzzing with an invariant oracle.
//!
//! The framework's trustworthiness rests on a handful of *golden-free*
//! invariants: performance toggles and scheduler width must never change
//! measured bytes, the journal roll-up must agree with the CSVs, and the
//! result store must round-trip losslessly. This module generates
//! random-but-valid experiments ([`gen`]) — every generated program
//! parses, compiles under every build type and terminates inside an
//! instruction budget by construction — pushes each through the **real**
//! build→run→collect→store pipeline ([`crate::workflow::Fex::run_suite`]),
//! and checks the oracle registry:
//!
//! | oracle     | invariant                                                       |
//! |------------|-----------------------------------------------------------------|
//! | `toggles`  | `.passes(PassMask::none()).decode_cache(false)`                 |
//! |            | → identical CSVs                                                |
//! | `jobs`     | `--jobs N` vs `--jobs 1` → identical CSVs and journal streams   |
//! | `metrics`  | journal roll-up jobs-invariant and consistent with CSV totals   |
//! | `store`    | write→read lossless, identical reruns share a run id, no false  |
//! |            | regression from the compare gate                                |
//! | `warm`     | a rerun against the populated artifact graph is byte-identical  |
//! |            | to cold (CSVs + normalized journal), as is a dirty rerun after  |
//! |            | a semantically neutral source edit                              |
//! | `recovery` | every injected disk corruption is detected by `fex lab fsck`    |
//! |            | and quarantine restores a clean store                           |
//! | `diag`     | the journal re-parses under the diagnostics reader with zero    |
//! |            | journal-integrity findings (`fex diag` never flags a journal    |
//! |            | the real pipeline wrote)                                        |
//! | `serve`    | the scenario submitted through an in-process `fex serve` daemon |
//! |            | matches the direct pipeline output byte-for-byte, and an        |
//! |            | identical cross-tenant resubmission is 100% cache-served        |
//!
//! A failing case is **shrunk** — programs, build types, statement
//! blocks, helper functions, faults and repetition policies are greedily
//! dropped while the failure reproduces — and the minimal scenario is
//! written as a repro bundle (`repro.txt` + `.cmm` sources). Committed
//! regressions live in `tests/fuzz_regressions.txt` as `<seed> <case>`
//! lines and are replayed by tier-1 tests.
//!
//! The `FEX_FUZZ_BREAK` environment variable ([`BreakMode`]) arms a
//! test-only, driver-level mutation that deliberately violates one
//! invariant — proving end to end that the oracles *can* fail and that
//! the shrinker converges. The measurement path itself is never touched.

pub mod gen;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use crate::collect::DataFrame;
use crate::config::Repetitions;
use crate::error::{FexError, Result};
use crate::journal::{self, JournalEvent, Metrics};
use crate::lab::{fsck, Comparison, RunStore};
use crate::workflow::Fex;
use fex_vm::PassMask;

pub use gen::{GenProgram, Rng, Scenario};

/// A deliberate, driver-level invariant breach for testing the fuzzer
/// itself (armed via `FEX_FUZZ_BREAK=fusion|jobs`). The mutation happens
/// to the *collected artifacts*, after the pipeline ran — the
/// measurement path stays untouched — so a caught break demonstrates
/// oracle sensitivity, not a planted product bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakMode {
    /// Corrupt one numeric cell of the toggles-off results CSV, as a
    /// fusion-dependent measurement drift would.
    Fusion,
    /// Drop the last journal event of the `--jobs 1` rerun, as a lost
    /// merge would.
    Jobs,
}

impl BreakMode {
    /// Parses the `FEX_FUZZ_BREAK` environment variable.
    pub fn from_env() -> Option<BreakMode> {
        match std::env::var("FEX_FUZZ_BREAK").ok()?.as_str() {
            "fusion" => Some(BreakMode::Fusion),
            "jobs" => Some(BreakMode::Jobs),
            _ => None,
        }
    }
}

/// Options of one `fex fuzz` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOptions {
    /// Master seed; case `i` derives its own seed from `(seed, i)`.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: usize,
    /// Where repro bundles of failing cases are written.
    pub bundle_dir: PathBuf,
    /// Cap on shrink-candidate evaluations per failing case.
    pub max_shrink: usize,
    /// Deliberate invariant breach (test-only).
    pub break_mode: Option<BreakMode>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 42,
            cases: 25,
            bundle_dir: PathBuf::from("target/fex-fuzz"),
            max_shrink: 48,
            break_mode: None,
        }
    }
}

/// One oracle violation.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// Which oracle fired (`toggles`, `jobs`, `metrics`, `diag`,
    /// `store`, `warm`, `recovery`, `serve`, or `pipeline` for a
    /// scenario that errored the pipeline outright).
    pub oracle: &'static str,
    /// What disagreed.
    pub detail: String,
}

/// One failing case: the original hit, the shrunk repro and its bundle.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Case index within the run.
    pub case_index: usize,
    /// The case's own seed (replayable as `<seed> <case>`).
    pub case_seed: u64,
    /// The violation (re-checked on the shrunk scenario).
    pub failure: OracleFailure,
    /// The minimal scenario that still fails.
    pub shrunk: Scenario,
    /// Where the repro bundle was written, if it could be.
    pub bundle: Option<PathBuf>,
}

/// The outcome of a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Master seed.
    pub seed: u64,
    /// Cases checked.
    pub cases: usize,
    /// Violations found (empty on a clean run).
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Whether every case passed every oracle.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the `fex fuzz` output. Deterministic for a given seed and
    /// case count — no wall times, no absolute paths beyond the bundle.
    pub fn render(&self) -> String {
        let mut s = format!("fex fuzz: seed {}, {} case(s)\n", self.seed, self.cases);
        for f in &self.failures {
            let _ = writeln!(
                s,
                "\ncase {} (seed {:#018x}) FAILED oracle `{}`:\n  {}",
                f.case_index, f.case_seed, f.failure.oracle, f.failure.detail
            );
            let _ = writeln!(s, "shrunk repro:");
            for line in f.shrunk.describe().lines() {
                let _ = writeln!(s, "  {line}");
            }
            if let Some(b) = &f.bundle {
                let _ = writeln!(s, "bundle: {}", b.display());
            }
        }
        if self.ok() {
            let _ = writeln!(s, "all {} case(s) passed all oracles", self.cases);
        } else {
            let _ = writeln!(
                s,
                "\n{} of {} case(s) failed; replay with `fex fuzz --seed <case-seed> --cases 1` \
                 or commit `<seed> <case>` to tests/fuzz_regressions.txt",
                self.failures.len(),
                self.cases
            );
        }
        s
    }
}

/// Runs the fuzzer: generates `opts.cases` scenarios, checks every
/// oracle on each, shrinks failures and writes repro bundles.
///
/// # Errors
///
/// Only on infrastructure failures (bundle directory not writable);
/// oracle violations and pipeline errors are reported, not returned.
pub fn fuzz(opts: &FuzzOptions) -> Result<FuzzReport> {
    let mut failures = Vec::new();
    for index in 0..opts.cases {
        let scenario = Scenario::generate(opts.seed, index);
        let Some(first) = case_verdict(&scenario, opts.break_mode) else { continue };
        let shrunk = shrink(&scenario, opts.break_mode, opts.max_shrink);
        let failure = case_verdict(&shrunk, opts.break_mode).unwrap_or(first);
        let bundle = write_bundle(&opts.bundle_dir, opts.seed, index, &shrunk, &failure).ok();
        failures.push(FuzzFailure {
            case_index: index,
            case_seed: scenario.case_seed,
            failure,
            shrunk,
            bundle,
        });
    }
    Ok(FuzzReport { seed: opts.seed, cases: opts.cases, failures })
}

/// Replays committed regression seeds from a `<seed> <case>` file
/// (`#`-comments and blank lines allowed).
///
/// # Errors
///
/// [`FexError::Data`] when the file is unreadable or a line is not two
/// integers.
pub fn replay_regressions(path: &Path, opts: &FuzzOptions) -> Result<FuzzReport> {
    let text = fs::read_to_string(path)
        .map_err(|e| FexError::Data(format!("cannot read `{}`: {e}", path.display())))?;
    let mut failures = Vec::new();
    let mut cases = 0;
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let bad = || {
            FexError::Data(format!(
                "{}:{}: expected `<seed> <case>`, got `{line}`",
                path.display(),
                n + 1
            ))
        };
        let seed: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let index: usize = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        cases += 1;
        let scenario = Scenario::generate(seed, index);
        if let Some(failure) = case_verdict(&scenario, opts.break_mode) {
            failures.push(FuzzFailure {
                case_index: index,
                case_seed: scenario.case_seed,
                failure,
                shrunk: scenario,
                bundle: None,
            });
        }
    }
    Ok(FuzzReport { seed: opts.seed, cases, failures })
}

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

/// The collected artifacts of one pipeline run.
struct CaseRun {
    results: String,
    failures: String,
    events: Vec<JournalEvent>,
}

/// Pushes one configuration of the scenario's suite through the full
/// `Fex` pipeline and collects what landed in the container.
fn run_scenario(suite: &fex_suites::Suite, config: crate::ExperimentConfig) -> Result<CaseRun> {
    let mut fex = Fex::new();
    fex.run_suite(&config, suite.clone())?;
    let results = fex.result_csv("fuzz").unwrap_or_default();
    let failures = fex.failure_csv("fuzz").unwrap_or_default();
    let (events, issues) = journal::parse_jsonl(&fex.journal_jsonl("fuzz").unwrap_or_default());
    if let Some((_, issue)) = issues.first() {
        return Err(FexError::Data(format!("unreadable journal line: {issue}")));
    }
    Ok(CaseRun { results, failures, events })
}

fn event_kind_counts(events: &[JournalEvent]) -> std::collections::BTreeMap<&'static str, usize> {
    let mut counts = std::collections::BTreeMap::new();
    for e in events {
        *counts.entry(e.kind()).or_insert(0) += 1;
    }
    counts
}

/// Events with schedule-dependent fields (worker, wall times, jobs)
/// zeroed — the jobs-invariant fingerprint.
fn normalized(events: &[JournalEvent]) -> Vec<JournalEvent> {
    events
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.normalize();
            e
        })
        .collect()
}

/// First line where two texts disagree, for oracle diagnostics.
fn first_diff(label: &str, a: &str, b: &str) -> String {
    for (n, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("{label} line {}: `{la}` vs `{lb}`", n + 1);
        }
    }
    format!("{label}: lengths differ ({} vs {} lines)", a.lines().count(), b.lines().count())
}

/// Checks every oracle on one scenario. `Ok(None)` means all invariants
/// held; `Ok(Some(_))` is a violation; `Err` is a pipeline failure
/// (which [`case_verdict`] also treats as a violation — generated
/// scenarios are valid by construction).
pub fn check_case(
    scenario: &Scenario,
    break_mode: Option<BreakMode>,
) -> Result<Option<OracleFailure>> {
    let suite = scenario.suite();
    let base_cfg = scenario.config();
    let fail = |oracle: &'static str, detail: String| Ok(Some(OracleFailure { oracle, detail }));

    let base = run_scenario(&suite, base_cfg.clone())?;

    // Oracle `toggles`: the decode passes and the decode cache are
    // performance-only — disabling both must not move a byte.
    let mut toggles =
        run_scenario(&suite, base_cfg.clone().passes(PassMask::none()).decode_cache(false))?;
    if break_mode == Some(BreakMode::Fusion) {
        toggles.results.push_str("tampered,row,by,FEX_FUZZ_BREAK,0,0,0\n");
    }
    if base.results != toggles.results {
        return fail("toggles", first_diff("results.csv", &base.results, &toggles.results));
    }
    if base.failures != toggles.failures {
        return fail("toggles", first_diff("failures.csv", &base.failures, &toggles.failures));
    }

    // Oracle `jobs`: the parallel scheduler is an implementation detail —
    // CSVs byte-identical, journal streams identical after normalizing
    // the schedule-dependent fields.
    let mut jobs1 = run_scenario(&suite, base_cfg.clone().jobs(1))?;
    if break_mode == Some(BreakMode::Jobs) {
        jobs1.events.pop();
    }
    if base.results != jobs1.results {
        return fail("jobs", first_diff("results.csv", &base.results, &jobs1.results));
    }
    if base.failures != jobs1.failures {
        return fail("jobs", first_diff("failures.csv", &base.failures, &jobs1.failures));
    }
    let (kinds_n, kinds_1) = (event_kind_counts(&base.events), event_kind_counts(&jobs1.events));
    if kinds_n != kinds_1 {
        return fail("jobs", format!("event kind counts drifted: {kinds_n:?} vs {kinds_1:?}"));
    }
    let (norm_n, norm_1) = (normalized(&base.events), normalized(&jobs1.events));
    {
        let mut sn: Vec<String> = norm_n.iter().map(JournalEvent::to_json).collect();
        let mut s1: Vec<String> = norm_1.iter().map(JournalEvent::to_json).collect();
        sn.sort();
        s1.sort();
        if sn != s1 {
            let witness = sn
                .iter()
                .zip(&s1)
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("`{a}` vs `{b}`"))
                .unwrap_or_else(|| "stream lengths differ".into());
            return fail("jobs", format!("normalized journal streams drifted: {witness}"));
        }
    }

    // Oracle `metrics`: the roll-up is a pure function of the normalized
    // stream (hence jobs-invariant) and must agree with the CSV totals.
    let (m_n, m_1) = (Metrics::from_journal(&norm_n), Metrics::from_journal(&norm_1));
    if m_n != m_1 {
        return fail("metrics", format!("roll-up is not jobs-invariant: {m_n:?} vs {m_1:?}"));
    }
    let csv_rows = base.results.lines().count().saturating_sub(1);
    let csv_failures = base.failures.lines().count().saturating_sub(1);
    if m_n.rows != csv_rows || m_n.failure_records != csv_failures {
        return fail(
            "metrics",
            format!(
                "roll-up says {} rows / {} failures, CSVs have {csv_rows} / {csv_failures}",
                m_n.rows, m_n.failure_records
            ),
        );
    }

    // Oracle `diag`: every generated scenario's journal must round-trip
    // through the diagnostics reader with zero journal-integrity
    // findings — fex's own auditor must never flag a journal the real
    // pipeline just wrote.
    {
        let jsonl: String = base.events.iter().map(|e| e.to_json() + "\n").collect();
        let source = crate::diag::JournalSource::parse("fuzz.journal.jsonl", &jsonl);
        if !source.issues.is_empty() {
            let (line, issue) = &source.issues[0];
            return fail("diag", format!("journal line {line} did not re-parse: {issue}"));
        }
        let findings = crate::diag::check_journal_integrity(&source);
        if let Some(f) = findings.first() {
            return fail(
                "diag",
                format!("journal-integrity finding on a pipeline journal: {}", f.message),
            );
        }
    }

    // Oracles `store` and `recovery` work on a throwaway lab directory.
    let lab_dir = std::env::temp_dir().join(format!(
        "fex-fuzz-{}-{:x}",
        std::process::id(),
        scenario.case_seed
    ));
    let _ = fs::remove_dir_all(&lab_dir);
    let verdict = store_and_recovery_oracles(scenario, &suite, &base, &lab_dir);
    let _ = fs::remove_dir_all(&lab_dir);
    if let Ok(None) = &verdict {
        // Oracle `serve`: the daemon is a transport + cache layer in
        // front of the same pipeline, so serving the scenario must not
        // move a byte, and an identical cross-tenant resubmission must
        // come wholly from the cache.
        if scenario.serve {
            let serve_dir = std::env::temp_dir().join(format!(
                "fex-fuzz-serve-{}-{:x}",
                std::process::id(),
                scenario.case_seed
            ));
            let _ = fs::remove_dir_all(&serve_dir);
            let serve_verdict = serve_oracle(scenario, &serve_dir);
            let _ = fs::remove_dir_all(&serve_dir);
            return serve_verdict;
        }
    }
    verdict
}

/// Translates a fuzzed scenario into a serve-protocol [`Submission`]:
/// inline programs carry the generated sources, the repetition policy
/// flattens to the protocol's integer fields, and the fault plan is
/// deliberately *not* transmitted — faults are a pipeline-internal
/// debugging axis the protocol does not model, and fault-armed units
/// bypass the artifact graph, which would make the 100%-cache-serve
/// invariant vacuous.
fn serve_submission(scenario: &Scenario) -> crate::serve::Submission {
    let mut sub = crate::serve::Submission::new("a", "inline");
    sub.programs = scenario.programs.iter().map(|p| (p.name.clone(), p.source())).collect();
    sub.build_types = scenario.build_types.iter().map(|s| s.to_string()).collect();
    sub.threads = scenario.threads.clone();
    match scenario.repetitions {
        Repetitions::Fixed(n) => sub.reps = n,
        Repetitions::Adaptive { min, max, rel_precision } => {
            sub.reps = min;
            sub.max_reps = max;
            sub.precision_permille = (rel_precision * 1000.0).round() as u64;
        }
    }
    sub.seed = scenario.experiment_seed;
    sub.jobs = scenario.jobs;
    sub.budget = gen::FUZZ_INSTRUCTION_BUDGET;
    sub.tool = scenario.tool.name().to_string();
    sub
}

/// Oracle `serve`: both the daemon-side and the direct reference run
/// derive from the *same* [`Submission`] (one `f64` reconstruction of
/// the adaptive precision, one program emission), so any byte of drift
/// is the daemon's fault, not an encoding artifact.
fn serve_oracle(scenario: &Scenario, dir: &Path) -> Result<Option<OracleFailure>> {
    use crate::serve::{self, ServeOptions, Server};
    let fail = |detail: String| Ok(Some(OracleFailure { oracle: "serve", detail }));
    let sub = serve_submission(scenario);

    // Direct reference: the same submission pushed straight through the
    // pipeline, no daemon, no lab.
    let cfg = sub.config(None);
    let mut fex = Fex::new();
    fex.run_suite(&cfg, sub.suite()?)?;
    let direct_results = fex.result_csv(&cfg.name).unwrap_or_default();
    let direct_failures = fex.failure_csv(&cfg.name).unwrap_or_default();

    let opts = ServeOptions {
        socket: dir.join("serve.sock"),
        lab: dir.join("lab").to_string_lossy().into_owned(),
        workers: 2,
        queue_cap: 8,
    };
    let handle = Server::start(opts)?;
    let socket = handle.socket().to_path_buf();
    let first = serve::submit(&socket, &sub);
    let mut resub = sub.clone();
    resub.tenant = "b".into();
    let second = serve::submit(&socket, &resub);
    serve::shutdown(&socket)?;
    let summary = handle.wait()?;
    let (first, second) = (first?, second?);

    if first.results_csv != direct_results {
        return fail(first_diff("served results.csv", &first.results_csv, &direct_results));
    }
    if first.failures_csv != direct_failures {
        return fail(first_diff("served failures.csv", &first.failures_csv, &direct_failures));
    }
    if !second.store_hit {
        return fail("identical cross-tenant resubmission was not store-served".into());
    }
    if second.results_csv != first.results_csv || second.failures_csv != first.failures_csv {
        return fail(first_diff(
            "cache-served results.csv",
            &second.results_csv,
            &first.results_csv,
        ));
    }
    if summary.store_hits != 1 || summary.completed != 2 {
        return fail(format!(
            "daemon accounting drifted: {} store hits / {} completed (want 1 / 2)",
            summary.store_hits, summary.completed
        ));
    }
    Ok(None)
}

/// Oracle `store` (archival round-trip + rerun identity + quiet compare
/// gate) and oracle `recovery` (injected corruption is detected and
/// quarantinable), sharing one temp store.
fn store_and_recovery_oracles(
    scenario: &Scenario,
    suite: &fex_suites::Suite,
    base: &CaseRun,
    lab_dir: &Path,
) -> Result<Option<OracleFailure>> {
    let fail = |oracle: &'static str, detail: String| Ok(Some(OracleFailure { oracle, detail }));
    let store_cfg = scenario.config().lab(lab_dir.to_string_lossy());
    let s1 = run_scenario(suite, store_cfg.clone())?;
    let s2 = run_scenario(suite, store_cfg.clone())?;
    if s1.results != base.results || s2.results != base.results {
        return fail("store", "archival changed the collected results".into());
    }
    let store = RunStore::open(lab_dir)?;
    let entries = store.list()?;
    if entries.len() != 2 {
        return fail("store", format!("expected 2 index entries, found {}", entries.len()));
    }
    if entries[0].run_id != entries[1].run_id {
        return fail(
            "store",
            format!(
                "identical reruns got different ids: {} vs {}",
                entries[0].run_id, entries[1].run_id
            ),
        );
    }
    let stored = store.results_csv(&entries[1])?;
    if stored != s2.results {
        return fail("store", first_diff("stored results.csv", &stored, &s2.results));
    }
    // A persistent fault can legitimately fail every unit, leaving a
    // header-only CSV with nothing for the t-test to chew on — the quiet
    // gate check only applies when the runs produced rows.
    if s1.results.lines().count() > 1 {
        let frame_a = DataFrame::from_csv(&s1.results)?;
        let frame_b = DataFrame::from_csv(&s2.results)?;
        let cmp = Comparison::compare(&frame_a, &frame_b, "time", "baseline", "rerun")?;
        if cmp.has_regression() {
            return fail(
                "store",
                "compare gate flagged a regression between identical runs".into(),
            );
        }
    }

    // Oracle `warm`: the s2 rerun above replayed against the artifact
    // graph s1 populated — its CSVs already matched; the normalized
    // journal streams (graph hits rewrite to misses) must match too.
    {
        let mut w1: Vec<String> =
            normalized(&s1.events).iter().map(JournalEvent::to_json).collect();
        let mut w2: Vec<String> =
            normalized(&s2.events).iter().map(JournalEvent::to_json).collect();
        w1.sort();
        w2.sort();
        if w1 != w2 {
            let witness = w1
                .iter()
                .zip(&w2)
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("`{a}` vs `{b}`"))
                .unwrap_or_else(|| "stream lengths differ".into());
            return fail("warm", format!("warm journal stream drifted from cold: {witness}"));
        }
    }
    // Dirty-rerun axis: a semantically neutral source edit (trailing
    // newline) re-keys one program's whole node chain; the recomputed
    // cells must merge with the served ones into byte-identical CSVs.
    if scenario.dirty_rerun {
        let mut dirty_suite = suite.clone();
        if let Some(p) = dirty_suite.programs.first_mut() {
            p.source = Box::leak(format!("{}\n", p.source).into_boxed_str());
        }
        let dirty = run_scenario(&dirty_suite, store_cfg)?;
        if dirty.results != base.results {
            return fail(
                "warm",
                first_diff("dirty-rerun results.csv", &dirty.results, &base.results),
            );
        }
        if dirty.failures != base.failures {
            return fail(
                "warm",
                first_diff("dirty-rerun failures.csv", &dirty.failures, &base.failures),
            );
        }
    }

    // Oracle `recovery`: pick one corruption deterministically from the
    // case seed, inject it, and demand detection + clean quarantine.
    let mut r = Rng::new(scenario.case_seed ^ 0xfee1_dead_cafe_f00d);
    let corruption = *r.pick(&fsck::Corruption::ALL);
    fsck::inject(&store, corruption)?;
    let report = fsck::check(&store);
    if report.clean() {
        return fail("recovery", format!("injected {corruption} went undetected by fsck"));
    }
    // The hardened readers must shrug the damage off, not error out.
    let (_, _) = store.scan();
    store.list()?;
    let fixed = fsck::fsck(&store, true)?;
    if fixed.clean() {
        return fail("recovery", format!("{corruption}: fsck(quarantine) lost the issue list"));
    }
    let after = fsck::check(&store);
    if !after.clean() {
        return fail(
            "recovery",
            format!("{corruption}: store still dirty after quarantine:\n{}", after.render()),
        );
    }
    Ok(None)
}

/// [`check_case`] with pipeline errors folded into the verdict: a
/// scenario the pipeline rejects *is* a fuzz finding (the generator
/// guarantees validity).
pub fn case_verdict(scenario: &Scenario, break_mode: Option<BreakMode>) -> Option<OracleFailure> {
    match check_case(scenario, break_mode) {
        Ok(v) => v,
        Err(e) => Some(OracleFailure { oracle: "pipeline", detail: e.to_string() }),
    }
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Greedily minimises a failing scenario: repeatedly applies the first
/// simplification that still trips the *same oracle* as the original
/// failure, until none does or the evaluation budget is spent. Pinning
/// the oracle keeps the shrinker honest — a candidate that merely fails
/// differently (e.g. a dropped statement orphaning a variable turns a
/// `jobs` violation into a `pipeline` compile error) is discarded, not
/// adopted.
pub fn shrink(scenario: &Scenario, break_mode: Option<BreakMode>, max_evals: usize) -> Scenario {
    let Some(original) = case_verdict(scenario, break_mode) else {
        return scenario.clone();
    };
    let mut current = scenario.clone();
    let mut evals = 1;
    loop {
        let mut improved = false;
        for candidate in shrink_candidates(&current) {
            if evals >= max_evals {
                return current;
            }
            evals += 1;
            if case_verdict(&candidate, break_mode).is_some_and(|f| f.oracle == original.oracle) {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// The simplification passes, biggest wins first.
fn shrink_candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // Drop whole programs.
    if s.programs.len() > 1 {
        for i in 0..s.programs.len() {
            let mut c = s.clone();
            c.programs.remove(i);
            // A fault scoped to the removed benchmark can't fire anymore.
            if let Some(f) = &c.fault {
                if f.benchmark.as_deref().is_some_and(|b| c.programs.iter().all(|p| p.name != b)) {
                    c.fault = None;
                }
            }
            out.push(c);
        }
    }
    // Drop build types.
    if s.build_types.len() > 1 {
        for i in 0..s.build_types.len() {
            let mut c = s.clone();
            c.build_types.remove(i);
            out.push(c);
        }
    }
    // Collapse the repetition policy.
    if s.repetitions != Repetitions::Fixed(1) {
        let mut c = s.clone();
        c.repetitions = Repetitions::Fixed(1);
        out.push(c);
    }
    // Disarm the fault plan.
    if s.fault.is_some() {
        let mut c = s.clone();
        c.fault = None;
        out.push(c);
    }
    // Flatten the thread sweep.
    if s.threads != vec![1] {
        let mut c = s.clone();
        c.threads = vec![1];
        out.push(c);
    }
    // Narrow the scheduler.
    if s.jobs > 2 {
        let mut c = s.clone();
        c.jobs = 2;
        out.push(c);
    }
    // Neutralise the decode pass subset.
    if s.passes != PassMask::all() {
        let mut c = s.clone();
        c.passes = PassMask::all();
        out.push(c);
    }
    // Skip the dirty rerun.
    if s.dirty_rerun {
        let mut c = s.clone();
        c.dirty_rerun = false;
        out.push(c);
    }
    // Skip the serve round-trip.
    if s.serve {
        let mut c = s.clone();
        c.serve = false;
        out.push(c);
    }
    // Drop statement blocks from each program's `main` (the fixed
    // checksum tail stays).
    for (pi, p) in s.programs.iter().enumerate() {
        for si in 0..p.shrinkable_stmts() {
            let mut c = s.clone();
            if let Some(main) = c.programs[pi].unit.funcs.iter_mut().find(|f| f.name == "main") {
                main.body.remove(si);
                out.push(c);
            }
        }
        // Drop helper/worker functions (dangling calls make the candidate
        // a pipeline error with a different shape; `shrink` only keeps it
        // if it still fails).
        if p.unit.funcs.len() > 1 {
            for fi in 0..p.unit.funcs.len() {
                if p.unit.funcs[fi].name == "main" {
                    continue;
                }
                let mut c = s.clone();
                c.programs[pi].unit.funcs.remove(fi);
                out.push(c);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Repro bundles
// ---------------------------------------------------------------------

/// Writes a minimal repro bundle: `repro.txt` (coordinates, oracle,
/// scenario description, replay instructions) plus one `.cmm` file per
/// generated program.
fn write_bundle(
    dir: &Path,
    seed: u64,
    case_index: usize,
    scenario: &Scenario,
    failure: &OracleFailure,
) -> Result<PathBuf> {
    let bundle = dir.join(format!("seed{seed}-case{case_index}"));
    let io = |e: std::io::Error| FexError::Data(format!("cannot write repro bundle: {e}"));
    fs::create_dir_all(&bundle).map_err(io)?;
    let mut repro = String::new();
    let _ = writeln!(repro, "fex fuzz repro");
    let _ = writeln!(repro, "seed: {seed}");
    let _ = writeln!(repro, "case: {case_index}");
    let _ = writeln!(repro, "oracle: {}", failure.oracle);
    let _ = writeln!(repro, "detail: {}", failure.detail);
    let _ = writeln!(repro);
    let _ = writeln!(repro, "replay: fex fuzz --seed {seed} --cases {}", case_index + 1);
    let _ = writeln!(repro, "pin:    echo \"{seed} {case_index}\" >> tests/fuzz_regressions.txt");
    let _ = writeln!(repro);
    repro.push_str(&scenario.describe());
    fs::write(bundle.join("repro.txt"), repro).map_err(io)?;
    for p in &scenario.programs {
        fs::write(bundle.join(format!("{}.cmm", p.name)), p.source()).map_err(io)?;
    }
    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn break_mode_parses_the_env_convention() {
        // Direct constructor checks only: env vars are process-global and
        // the test harness is multi-threaded.
        assert_eq!(BreakMode::Fusion, BreakMode::Fusion);
        assert_ne!(
            std::mem::discriminant(&BreakMode::Fusion),
            std::mem::discriminant(&BreakMode::Jobs)
        );
    }

    #[test]
    fn shrink_candidates_cover_every_axis() {
        let scenario = (0..64)
            .map(|i| Scenario::generate(7, i))
            .find(|s| s.programs.len() > 1 && s.fault.is_some())
            .expect("64 cases should include a multi-program faulted scenario");
        let cands = shrink_candidates(&scenario);
        assert!(cands.len() > scenario.programs.len(), "expected many candidates");
        assert!(cands.iter().any(|c| c.programs.len() < scenario.programs.len()));
        assert!(cands.iter().any(|c| c.fault.is_none()));
        assert!(cands.iter().any(|c| c.repetitions == Repetitions::Fixed(1)));
    }

    #[test]
    fn report_rendering_is_deterministic() {
        let report = FuzzReport { seed: 9, cases: 3, failures: vec![] };
        assert!(report.ok());
        assert_eq!(report.render(), report.render());
        assert!(report.render().contains("all 3 case(s) passed"));
    }

    #[test]
    fn bundle_writes_repro_and_sources() {
        let scenario = Scenario::generate(5, 0);
        let failure = OracleFailure { oracle: "toggles", detail: "test".into() };
        let dir = std::env::temp_dir().join(format!("fex-fuzz-bundle-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let bundle = write_bundle(&dir, 5, 0, &scenario, &failure).unwrap();
        let repro = fs::read_to_string(bundle.join("repro.txt")).unwrap();
        assert!(repro.contains("oracle: toggles"));
        assert!(repro.contains("fex fuzz --seed 5"));
        assert!(bundle.join("gen0.cmm").is_file());
        let _ = fs::remove_dir_all(&dir);
    }
}
