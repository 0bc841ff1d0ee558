//! The on-disk run store.
//!
//! Layout (everything under the store root, default `.fex-lab/`):
//!
//! ```text
//! .fex-lab/
//!   index.json                 # one flat JSON object per line, append-only
//!   runs/<digest>/results.csv  # the collected frame
//!   runs/<digest>/failures.csv # the failure report
//!   runs/<digest>/metrics.json # journal metrics roll-up (when journaled)
//!   runs/<digest>/record.json  # the journal digest; written last, it marks the run complete
//! ```
//!
//! Runs are **content addressed**: the run id is a digest over the
//! experiment key (name, build matrix, benchmark filter, thread sweep,
//! repetition policy, input, seed, tool, debug) *and* the result bytes, so
//! re-running a deterministic configuration produces the same id. The
//! index is append-only with a monotonic `seq` per line — no wall-clock
//! timestamps, so stored artifacts stay byte-reproducible. Duplicate run
//! ids are allowed (two identical runs are two index lines), which is
//! exactly what a "compare the same commit twice, expect unchanged" CI
//! smoke test needs. Like an artifact-graph node, a run directory is
//! written once: the first save of an id writes it, and a later save of
//! the same id appends only its index line, so `record.json` keeps the
//! first save's journal digest and `metrics.json` its roll-up. Every
//! write goes through a [`Lab`](super::Lab), which holds the lab lock.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use fex_container::DigestBuilder;

use crate::config::ExperimentConfig;
use crate::error::{FexError, Result};
use crate::journal::{self, Json, JsonLine};

/// Artifacts of one completed experiment, borrowed from the workflow.
#[derive(Debug, Clone, Copy)]
pub struct RunArtifacts<'a> {
    /// The results frame as CSV.
    pub results_csv: &'a str,
    /// The failure report as CSV (header-only when clean).
    pub failures_csv: &'a str,
    /// The journal metrics roll-up, when journaling was on.
    pub metrics_json: Option<&'a str>,
    /// Digest of the journal stream, when journaling was on.
    pub journal_digest: Option<&'a str>,
}

/// One line of the store index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Monotonic sequence number (insertion order).
    pub seq: u64,
    /// Content-addressed run id (`fex256:…`).
    pub run_id: String,
    /// Experiment name.
    pub experiment: String,
    /// Human-readable experiment key (the digested configuration axes).
    pub key: String,
    /// Rows in the stored results CSV.
    pub rows: usize,
    /// Records in the stored failure report.
    pub failures: usize,
}

impl IndexEntry {
    pub(crate) fn to_json(&self) -> String {
        let mut w = JsonLine::object("run_id", &self.run_id);
        w.field("seq", &self.seq)
            .str("experiment", &self.experiment)
            .str("key", &self.key)
            .field("rows", &self.rows)
            .field("failures", &self.failures);
        w.finish()
    }

    pub(crate) fn parse(line: &str) -> Result<IndexEntry> {
        let bad = |i: journal::ParseIssue| FexError::Data(format!("corrupt store index: {i}"));
        let map = journal::parse_flat_object(line).map_err(bad)?;
        Ok(IndexEntry {
            seq: journal::get(&map, "seq").map_err(bad)?,
            run_id: journal::get(&map, "run_id").map_err(bad)?,
            experiment: journal::get(&map, "experiment").map_err(bad)?,
            key: journal::get(&map, "key").map_err(bad)?,
            rows: journal::get(&map, "rows").map_err(bad)?,
            failures: journal::get(&map, "failures").map_err(bad)?,
        })
    }
}

/// The content-addressed archive of completed experiments.
#[derive(Debug, Clone)]
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// Default store directory, relative to the working directory.
    pub const DEFAULT_DIR: &'static str = ".fex-lab";

    /// Opens the store rooted at `dir`. Nothing is created: the first
    /// save creates the directory, `index.json` and `runs/`.
    ///
    /// # Errors
    ///
    /// Kept for API stability; opening reads nothing and never fails.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Ok(RunStore { root: dir.into() })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The human-readable experiment key digested into the run id.
    pub fn experiment_key(config: &ExperimentConfig) -> String {
        let mut key = String::new();
        let _ = write!(
            key,
            "{} types={:?} bench={} threads={:?} reps={:?} input={:?} seed={} tool={:?} debug={}",
            config.name,
            config.build_types,
            config.benchmark.as_deref().unwrap_or("*"),
            config.threads,
            config.repetitions,
            config.input,
            config.seed,
            config.tool,
            config.debug,
        );
        key
    }

    /// The content-addressed run id of a configuration + its results.
    pub fn run_id(config: &ExperimentConfig, art: &RunArtifacts<'_>) -> String {
        Self::run_id_from_parts(&Self::experiment_key(config), art.results_csv, art.failures_csv)
    }

    /// The run id recomputed from its stored parts: the experiment key
    /// (as archived in the index) and the artifact bytes. `fex lab fsck`
    /// uses this to detect silently-edited artifacts.
    pub fn run_id_from_parts(key: &str, results_csv: &str, failures_csv: &str) -> String {
        let mut d = DigestBuilder::new();
        d.update_str(key).update_str(results_csv).update_str(failures_csv);
        d.finish().to_string()
    }

    /// Archives one completed run through a [`Lab`](super::Lab) opened
    /// for this save alone: takes the lab lock, then writes the run at
    /// the next free seq. Returns the new entry.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] on filesystem failures.
    pub fn save(&self, config: &ExperimentConfig, art: &RunArtifacts<'_>) -> Result<IndexEntry> {
        super::Lab::open(&self.root, false)?.save(config, art)
    }

    /// All index entries in insertion order.
    ///
    /// Corrupt lines are skipped (see [`RunStore::scan`]); an interrupted
    /// append — a truncated or garbage trailing line — must not take the
    /// whole store down with it.
    ///
    /// # Errors
    ///
    /// Kept for API stability; the skip-and-warn reader never fails.
    pub fn list(&self) -> Result<Vec<IndexEntry>> {
        Ok(self.scan().0)
    }

    /// Reads the index with per-line fault isolation: every parseable
    /// entry, plus one warning per skipped line — the same discipline as
    /// the journal reader. A store whose last append was torn by a crash
    /// stays listable, resolvable and appendable.
    pub fn scan(&self) -> (Vec<IndexEntry>, Vec<String>) {
        super::scan_index(&self.index_path(), "index", IndexEntry::parse)
    }

    /// Resolves a selector to an index entry: `latest` (newest entry),
    /// `prev` (second newest), or a unique `run_id` prefix (with or
    /// without the `fex256:` prefix).
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when the store is empty, nothing matches, or a
    /// prefix is ambiguous.
    pub fn resolve(&self, selector: &str) -> Result<IndexEntry> {
        let entries = self.list()?;
        if entries.is_empty() {
            return Err(FexError::Data(format!(
                "store `{}` is empty; run with --lab first",
                self.root.display()
            )));
        }
        match selector {
            "latest" => Ok(entries[entries.len() - 1].clone()),
            "prev" => entries
                .len()
                .checked_sub(2)
                .map(|i| entries[i].clone())
                .ok_or_else(|| FexError::Data("store has only one run; no `prev`".into())),
            prefix => {
                let wanted = prefix.trim_start_matches("fex256:");
                let mut matches: Vec<&IndexEntry> = entries
                    .iter()
                    .filter(|e| e.run_id.trim_start_matches("fex256:").starts_with(wanted))
                    .collect();
                // The same run id may be stored several times; those are
                // interchangeable, so keep the newest.
                matches.dedup_by(|a, b| a.run_id == b.run_id);
                match matches[..] {
                    [] => Err(FexError::Data(format!("no stored run matches `{selector}`"))),
                    [one] => Ok(one.clone()),
                    _ => Err(FexError::Data(format!(
                        "run id prefix `{selector}` is ambiguous ({} matches)",
                        matches.len()
                    ))),
                }
            }
        }
    }

    /// Reads the stored results CSV of an entry.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] naming the corrupt run when the artifact is
    /// missing or unreadable (`fex lab fsck` finds and quarantines such
    /// runs).
    pub fn results_csv(&self, entry: &IndexEntry) -> Result<String> {
        let path = self.run_dir(&entry.run_id).join("results.csv");
        fs::read_to_string(&path).map_err(|e| {
            FexError::Data(format!(
                "run {} is corrupt: cannot read `{}`: {e}; try `fex lab fsck`",
                entry.run_id,
                path.display()
            ))
        })
    }

    /// Garbage-collects the store under the lab lock: per experiment key,
    /// keeps the newest `keep` entries and deletes the rest (index lines
    /// and, when no surviving entry references them, artifact
    /// directories). Returns the number of index entries removed.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] on filesystem failures or a corrupt index.
    pub fn gc(&self, keep: usize) -> Result<usize> {
        let _lab = super::Lab::open(&self.root, false)?;
        let entries = self.list()?;
        let mut kept: Vec<&IndexEntry> = Vec::new();
        // Walk newest-first so "the newest `keep` per key" is a simple
        // counter; then restore insertion order.
        let mut seen: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for e in entries.iter().rev() {
            let n = seen.entry(e.key.as_str()).or_insert(0);
            if *n < keep {
                kept.push(e);
                *n += 1;
            }
        }
        kept.reverse();
        let removed = entries.len() - kept.len();
        let live: std::collections::BTreeSet<&str> =
            kept.iter().map(|e| e.run_id.as_str()).collect();
        for e in &entries {
            if !live.contains(e.run_id.as_str()) {
                let _ = fs::remove_dir_all(self.run_dir(&e.run_id));
            }
        }
        let index: String = kept.iter().map(|e| e.to_json() + "\n").collect();
        fs::write(self.index_path(), index)
            .map_err(|e| FexError::Data(format!("store write failed: {e}")))?;
        Ok(removed)
    }

    /// Renders `fex lab list` output. The `repro` column is the
    /// [`ReproScore`](crate::diag::ReproScore) — readiness + outcome out
    /// of 100 — so stored runs rank by reproducibility health.
    pub fn render_list(&self, entries: &[IndexEntry]) -> String {
        if entries.is_empty() {
            return "(store is empty)\n".to_string();
        }
        let mut s = format!(
            "{:<5} {:<40} {:<12} {:>6} {:>9} {:>8}\n",
            "seq", "run id", "experiment", "rows", "failures", "repro"
        );
        for e in entries {
            let score = crate::diag::repro_score(self, e);
            let _ = writeln!(
                s,
                "{:<5} {:<40} {:<12} {:>6} {:>9} {:>8}",
                e.seq,
                e.run_id,
                e.experiment,
                e.rows,
                e.failures,
                score.render()
            );
        }
        s
    }

    /// Renders `fex lab list --json`: one flat-JSON object per line with
    /// the table's fields plus the split repro score, so CI scripts can
    /// consume the store without screen-scraping.
    pub fn render_list_json(&self, entries: &[IndexEntry]) -> String {
        let mut s = String::new();
        for e in entries {
            let score = crate::diag::repro_score(self, e);
            let mut w = JsonLine::object("run_id", &e.run_id);
            w.field("seq", &e.seq)
                .str("experiment", &e.experiment)
                .str("key", &e.key)
                .field("rows", &e.rows)
                .field("failures", &e.failures)
                .field("repro", &score.total())
                .field("readiness", &score.readiness)
                .field("outcome", &score.outcome);
            s.push_str(&w.finish());
            s.push('\n');
        }
        s
    }

    /// Renders `fex lab show <selector>` output.
    pub fn render_show(&self, entry: &IndexEntry) -> Result<String> {
        let mut s = String::new();
        let _ = writeln!(s, "run id:     {}", entry.run_id);
        let _ = writeln!(s, "seq:        {}", entry.seq);
        let _ = writeln!(s, "experiment: {}", entry.experiment);
        let _ = writeln!(s, "key:        {}", entry.key);
        let _ = writeln!(s, "rows:       {}", entry.rows);
        let _ = writeln!(s, "failures:   {}", entry.failures);
        let record = self.run_dir(&entry.run_id).join("record.json");
        if let Ok(text) = fs::read_to_string(&record) {
            if let Ok(map) = journal::parse_flat_object(text.trim()) {
                if let Some(Json::Str(d)) = map.get("journal_digest") {
                    if !d.is_empty() {
                        let _ = writeln!(s, "journal:    {d}");
                    }
                }
            }
        }
        Ok(s)
    }

    pub(crate) fn index_path(&self) -> PathBuf {
        self.root.join("index.json")
    }

    pub(crate) fn run_dir(&self, run_id: &str) -> PathBuf {
        self.root.join("runs").join(run_id.trim_start_matches("fex256:"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fex_suites::InputSize;

    fn temp_store(tag: &str) -> RunStore {
        let dir = std::env::temp_dir().join(format!("fex-lab-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    fn art(results: &'static str) -> RunArtifacts<'static> {
        RunArtifacts {
            results_csv: results,
            failures_csv: "benchmark,type,threads,rep,error,attempts,outcome\n",
            metrics_json: Some("{}"),
            journal_digest: Some("fex256:00000000000000000000000000000abc"),
        }
    }

    #[test]
    fn save_list_resolve_roundtrip() {
        let store = temp_store("roundtrip");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let a = store.save(&cfg, &art("h\n1\n2\n")).unwrap();
        let b = store.save(&cfg.clone().seed(43), &art("h\n3\n")).unwrap();
        assert_eq!((a.seq, b.seq), (0, 1));
        assert_ne!(a.run_id, b.run_id, "different seeds, different ids");
        assert_eq!(a.rows, 2);

        let entries = store.list().unwrap();
        assert_eq!(entries, vec![a.clone(), b.clone()]);
        assert_eq!(store.resolve("latest").unwrap(), b);
        assert_eq!(store.resolve("prev").unwrap(), a);
        assert_eq!(store.resolve(&a.run_id).unwrap(), a);
        let prefix = &a.run_id.trim_start_matches("fex256:")[..12];
        assert_eq!(store.resolve(prefix).unwrap(), a);
        assert!(store.resolve("zzzz").is_err());
        assert_eq!(store.results_csv(&a).unwrap(), "h\n1\n2\n");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn identical_runs_share_an_id_but_not_an_index_line() {
        let store = temp_store("dup");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let a = store.save(&cfg, &art("h\n1\n")).unwrap();
        let rerun = RunArtifacts { metrics_json: Some("{\"rerun\": 1}"), ..art("h\n1\n") };
        let b = store.save(&cfg, &rerun).unwrap();
        assert_eq!(a.run_id, b.run_id);
        assert_eq!(store.list().unwrap().len(), 2);
        // A shared id resolves to the duplicate, not an ambiguity error.
        assert_eq!(store.resolve(&a.run_id).unwrap().run_id, a.run_id);
        // The first save wrote the run directory; the rerun only appended
        // its index line. The record holds the journal digest alone.
        let dir = store.run_dir(&a.run_id);
        assert_eq!(fs::read_to_string(dir.join("metrics.json")).unwrap(), "{}");
        let record = fs::read_to_string(dir.join("record.json")).unwrap();
        assert_eq!(record, "{\"journal_digest\": \"fex256:00000000000000000000000000000abc\"}\n");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_keeps_the_newest_per_key() {
        let store = temp_store("gc");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        store.save(&cfg, &art("h\n1\n")).unwrap();
        store.save(&cfg, &art("h\n2\n")).unwrap();
        let other = store.save(&cfg.clone().seed(99), &art("h\n3\n")).unwrap();
        let removed = store.gc(1).unwrap();
        assert_eq!(removed, 1, "one of the two same-key entries goes");
        let left = store.list().unwrap();
        assert_eq!(left.len(), 2);
        assert!(left.iter().any(|e| e.run_id == other.run_id));
        // Survivors keep their artifacts readable.
        for e in &left {
            assert!(store.results_csv(e).is_ok());
        }
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_keeps_the_record_of_an_id_whose_first_line_goes() {
        let store = temp_store("gc-record");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        store.save(&cfg, &art("h\n1\n")).unwrap();
        let newest = store.save(&cfg, &art("h\n1\n")).unwrap();
        assert_eq!(store.gc(1).unwrap(), 1);
        assert_eq!(store.list().unwrap(), vec![newest.clone()]);
        let record = fs::read_to_string(store.run_dir(&newest.run_id).join("record.json")).unwrap();
        assert!(
            record.contains("00000000000000000000000000000abc"),
            "journal digest kept: {record}"
        );
        assert!(super::super::fsck::check(&store).clean());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_trailing_index_line_is_skipped_with_a_warning() {
        let store = temp_store("truncated");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let a = store.save(&cfg, &art("h\n1\n")).unwrap();
        let b = store.save(&cfg.clone().seed(99), &art("h\n2\n")).unwrap();

        // Tear the last append mid-byte, as a crash during `save` would.
        let index = fs::read_to_string(store.index_path()).unwrap();
        fs::write(store.index_path(), &index[..index.len() - 9]).unwrap();

        let (entries, warnings) = store.scan();
        assert_eq!(entries, vec![a.clone()], "the intact entry survives");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("index line 2"), "{warnings:?}");

        // Every reader path stays functional on the torn store.
        assert_eq!(store.list().unwrap(), vec![a.clone()]);
        assert_eq!(store.resolve("latest").unwrap(), a);
        let c = store.save(&cfg.clone().seed(7), &art("h\n3\n")).unwrap();
        assert_eq!(c.seq, b.seq, "torn seq is reusable");
        assert_eq!(store.list().unwrap(), vec![a, c], "appends still work");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn garbage_index_lines_do_not_poison_the_store() {
        let store = temp_store("garbage");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let a = store.save(&cfg, &art("h\n1\n")).unwrap();
        let mut index = fs::read_to_string(store.index_path()).unwrap();
        index.push_str("{\"run_id\": 12, not json at all\n");
        index.push('\n'); // blank lines are fine, not warnings
        fs::write(store.index_path(), index).unwrap();
        let (entries, warnings) = store.scan();
        assert_eq!(entries, vec![a]);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_non_utf8_byte_costs_only_its_own_line() {
        let store = temp_store("non-utf8");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let a = store.save(&cfg, &art("h\n1\n")).unwrap();
        store.save(&cfg.clone().seed(43), &art("h\n2\n")).unwrap();
        let c = store.save(&cfg.clone().seed(44), &art("h\n3\n")).unwrap();

        // One bad byte inside the middle line.
        let mut index = fs::read(store.index_path()).unwrap();
        let first_len = index.iter().position(|&x| x == b'\n').unwrap() + 1;
        index[first_len + 5] = 0xFF;
        fs::write(store.index_path(), &index).unwrap();

        let (entries, warnings) = store.scan();
        assert_eq!(entries, vec![a.clone(), c.clone()], "the other lines survive the scan");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].starts_with("skipping index line 2: invalid utf-8"), "{warnings:?}");

        // The next append leaves every earlier byte, the bad one included,
        // where it was.
        let d = store.save(&cfg.clone().seed(45), &art("h\n4\n")).unwrap();
        assert_eq!(d.seq, c.seq + 1, "seq continues past the surviving lines");
        let after = fs::read(store.index_path()).unwrap();
        assert_eq!(&after[..index.len()], &index[..]);
        assert_eq!(store.list().unwrap(), vec![a, c, d]);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn missing_artifact_error_names_the_run() {
        let store = temp_store("missing-artifact");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let a = store.save(&cfg, &art("h\n1\n")).unwrap();
        fs::remove_file(store.run_dir(&a.run_id).join("results.csv")).unwrap();
        let err = store.results_csv(&a).unwrap_err().to_string();
        assert!(err.contains(&a.run_id), "{err}");
        assert!(err.contains("fsck"), "{err}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn empty_store_reports_clearly() {
        let store = temp_store("empty");
        assert!(store.list().unwrap().is_empty());
        let err = store.resolve("latest").unwrap_err().to_string();
        assert!(err.contains("empty"), "{err}");
        assert!(store.render_list(&[]).contains("empty"));
        let _ = fs::remove_dir_all(store.root());
    }
}
