//! The run store: the run lines of the lab index and their blobs.
//!
//! A stored run is one line of `<lab>/index.json` naming one range of
//! `<lab>/pack` (see [`lab`](super)): the results CSV, the failures CSV
//! and the journal metrics roll-up, back to back. The line carries the
//! index fields, the journal digest, and the range's offset, length and
//! digest with the lengths of the two CSVs.
//!
//! Runs are **content addressed**: the run id is a digest over the
//! experiment key (name, build matrix, benchmark filter, thread sweep,
//! repetition policy, input, seed, tool, debug) *and* the result bytes, so
//! re-running a deterministic configuration produces the same id. The
//! index is append-only with a monotonic `seq` per run line — no
//! wall-clock timestamps, so stored artifacts stay byte-reproducible.
//! Duplicate run ids are allowed (two identical runs are two index
//! lines), which is exactly what a "compare the same commit twice, expect
//! unchanged" CI smoke test needs. Like an artifact-graph node, a run's
//! blob is written once: the first save of an id appends it, and a later
//! save of the same id appends only its run line, which names the first
//! save's blob and journal digest. Every write goes through a
//! [`Lab`](super::Lab), which holds the lab lock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use fex_container::DigestBuilder;

use crate::config::ExperimentConfig;
use crate::error::{FexError, Result};
use crate::flatjson::{get, FlatObject, JsonLine};
use crate::journal::ParseIssue;

use super::{Line, PackRange};

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

/// One run line of the lab index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Monotonic sequence number (insertion order among run lines).
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
    /// Digest of the run's journal stream; empty when journaling was off.
    pub journal_digest: String,
    /// The run's blob in the pack: results CSV, failures CSV, metrics.
    pub range: PackRange,
    /// Bytes of the results CSV at the blob's start.
    pub results_len: u64,
    /// Bytes of the failures CSV after it; the metrics roll-up, when
    /// stored, is the rest of the blob.
    pub failures_len: u64,
}

impl IndexEntry {
    pub(crate) fn to_json(&self) -> String {
        let mut w = JsonLine::object("run_id", &self.run_id);
        w.field("seq", &self.seq)
            .str("experiment", &self.experiment)
            .str("key", &self.key)
            .field("rows", &self.rows)
            .field("failures", &self.failures)
            .str("journal_digest", &self.journal_digest);
        self.range.write(&mut w);
        w.field("results_len", &self.results_len).field("failures_len", &self.failures_len);
        w.finish()
    }

    pub(crate) fn parse(
        obj: &FlatObject<'_>,
        range: PackRange,
    ) -> std::result::Result<IndexEntry, ParseIssue> {
        Ok(IndexEntry {
            seq: get(obj, "seq")?,
            run_id: get(obj, "run_id")?,
            experiment: get(obj, "experiment")?,
            key: get(obj, "key")?,
            rows: get(obj, "rows")?,
            failures: get(obj, "failures")?,
            journal_digest: get(obj, "journal_digest")?,
            range,
            results_len: get(obj, "results_len")?,
            failures_len: get(obj, "failures_len")?,
        })
    }

    /// Splits the run's blob into its results CSV, failures CSV and
    /// metrics roll-up (empty when none was stored). `None` when the
    /// lengths do not fit the bytes or a part is not UTF-8.
    pub(crate) fn split<'b>(&self, blob: &'b [u8]) -> Option<(&'b str, &'b str, &'b str)> {
        let results = usize::try_from(self.results_len).ok()?;
        let failures = results.checked_add(usize::try_from(self.failures_len).ok()?)?;
        let text = |r: std::ops::Range<usize>| std::str::from_utf8(blob.get(r)?).ok();
        Some((text(0..results)?, text(results..failures)?, text(failures..blob.len())?))
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
    /// save creates the directory, `index.json` and `pack`.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when `dir` holds the layout of an older fex
    /// (`runs/` or `graph/`).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let root = dir.into();
        super::refuse_old_layout(&root)?;
        Ok(RunStore { root })
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
    /// (as archived in the index) and the CSV bytes. `fex lab fsck` uses
    /// this to detect a run line that no longer matches its blob.
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
        let (lines, warnings) = super::scan(&self.root, true);
        let runs = lines
            .into_iter()
            .filter_map(|line| match line {
                Line::Run(e) => Some(e),
                Line::Unit(_) => None,
            })
            .collect();
        (runs, warnings)
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
    /// [`FexError::Data`] naming the corrupt run when its blob is not in
    /// the pack whole or no longer hashes to its digest (`fex lab fsck`
    /// finds and quarantines such runs).
    pub fn results_csv(&self, entry: &IndexEntry) -> Result<String> {
        let blob = self.blob(entry);
        let results = blob.as_deref().and_then(|b| entry.split(b)).map(|(r, _, _)| r.to_string());
        results.ok_or_else(|| {
            FexError::Data(format!(
                "run {} is corrupt: its blob at offset {} of `{}` is missing or damaged; \
                 try `fex lab fsck`",
                entry.run_id,
                entry.range.offset,
                self.root.join(super::PACK).display()
            ))
        })
    }

    /// The stored metrics roll-up of an entry, when the run was journaled
    /// and its blob is intact.
    pub fn metrics_json(&self, entry: &IndexEntry) -> Option<String> {
        let blob = self.blob(entry)?;
        let (_, _, metrics) = entry.split(&blob)?;
        (!metrics.is_empty()).then(|| metrics.to_string())
    }

    /// An entry's blob, when the pack holds it whole and it still hashes
    /// to its digest.
    fn blob(&self, entry: &IndexEntry) -> Option<Vec<u8>> {
        entry.range.read_verified(&super::open_pack(&self.root, false).ok()?)
    }

    /// The 1-based line of `entry`'s run line in the lab index (`fex
    /// diag` findings point at it); 1 when no line matches.
    pub fn index_line(&self, entry: &IndexEntry) -> usize {
        let text = fs::read(self.index_path()).unwrap_or_default();
        let wanted = entry.to_json();
        text.split(|&b| b == b'\n').position(|line| line == wanted.as_bytes()).map_or(1, |i| i + 1)
    }

    /// Garbage-collects the store under the lab lock: per experiment key,
    /// keeps the newest `keep` run lines and drops the rest, then
    /// rewrites the lab so the pack keeps only the blobs and payloads
    /// that surviving lines name. Returns the number of run lines
    /// removed.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] on filesystem failures.
    pub fn gc(&self, keep: usize) -> Result<usize> {
        let _lab = super::Lab::open(&self.root, false)?;
        let (lines, _) = super::scan(&self.root, true);
        let before = lines.len();
        // Walk newest-first so "the newest `keep` per key" is a simple
        // counter; then restore file order.
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        let mut kept: Vec<Line> = lines
            .into_iter()
            .rev()
            .filter(|line| match line {
                Line::Run(e) => {
                    let n = seen.entry(e.key.clone()).or_insert(0);
                    *n += 1;
                    *n <= keep
                }
                Line::Unit(_) => true,
            })
            .collect();
        let removed = before - kept.len();
        kept.reverse();
        super::rewrite(&self.root, kept)
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
        if !entry.journal_digest.is_empty() {
            let _ = writeln!(s, "journal:    {}", entry.journal_digest);
        }
        Ok(s)
    }

    /// The lab index the run lines live in.
    pub fn index_path(&self) -> PathBuf {
        self.root.join(super::INDEX)
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

    /// A save opens the lab without its graph and skips the unit lines
    /// unread: among thousands of them, a corrupt one changes neither the
    /// seq the save lands at nor what the index warns, and the graph
    /// still reads every unit line.
    #[test]
    fn saves_skip_unit_lines_without_changing_seqs_or_warnings() {
        use crate::graph::{ArtifactGraph, GraphIndexEntry};
        use crate::NodeKind;
        let store = temp_store("units");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        store.save(&cfg, &art("h\n1\n")).unwrap();
        let mut units = String::new();
        for i in 0..3000u128 {
            let range = PackRange { offset: 0, len: 1, digest: fex_container::Digest(i) };
            let unit = GraphIndexEntry {
                digest: format!("fex256:{i:032x}"),
                kind: NodeKind::RunUnit,
                range,
            };
            let line = unit.to_json();
            units.push_str(&if i == 1500 {
                line.replace("\"len\": 1", "\"len\": -1")
            } else {
                line
            });
            units.push('\n');
        }
        fs::OpenOptions::new()
            .append(true)
            .open(store.index_path())
            .and_then(|mut f| std::io::Write::write_all(&mut f, units.as_bytes()))
            .unwrap();
        let before = store.scan().1;
        assert_eq!(before, ["skipping index line 1502: data error: corrupt lab index: malformed journal line: field `len` is negative"]);
        let entry = store.save(&cfg.clone().seed(43), &art("h\n3\n")).unwrap();
        assert_eq!(entry.seq, 1);
        let (runs, after) = store.scan();
        assert_eq!(runs.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(after, before);
        let graph = ArtifactGraph::open(store.root()).unwrap();
        assert_eq!((graph.len(), graph.warnings()), (2999, &before[..]));
        let _ = fs::remove_dir_all(store.root());
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
        let rerun = RunArtifacts {
            metrics_json: Some("{\"rerun\": 1}"),
            journal_digest: Some("fex256:def"),
            ..art("h\n1\n")
        };
        let b = store.save(&cfg, &rerun).unwrap();
        assert_eq!(a.run_id, b.run_id);
        assert_eq!(store.list().unwrap().len(), 2);
        // A shared id resolves to the duplicate, not an ambiguity error.
        assert_eq!(store.resolve(&a.run_id).unwrap().run_id, a.run_id);
        // The first save wrote the blob; the rerun only appended its index
        // line, which names the first blob and journal digest.
        assert_eq!(b, IndexEntry { seq: 1, ..a.clone() });
        assert_eq!(store.metrics_json(&b).unwrap(), "{}");
        assert!(store.render_show(&b).unwrap().contains("fex256:00000000000000000000000000000abc"));
        let _ = fs::remove_dir_all(store.root());
    }

    /// One save is one pack append (the blob and its newline) followed by
    /// one index append (the run line); a re-save appends its line only.
    #[test]
    fn a_save_is_one_pack_append_then_one_index_append() {
        let store = temp_store("appends");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        store.save(&cfg.clone().seed(1), &art("h\n0\n")).unwrap();
        let read = |name: &str| fs::read(store.root().join(name)).unwrap();
        let (pack, index) = (read("pack"), read("index.json"));
        let a = store.save(&cfg, &art("h\n1\n")).unwrap();
        let blob = "h\n1\nbenchmark,type,threads,rep,error,attempts,outcome\n{}\n";
        assert_eq!(read("pack"), [&pack[..], blob.as_bytes()].concat());
        assert_eq!(a.range.offset, pack.len() as u64);
        assert_eq!(read("index.json"), [&index[..], (a.to_json() + "\n").as_bytes()].concat());
        let (pack, index) = (read("pack"), read("index.json"));
        let b = store.save(&cfg, &art("h\n1\n")).unwrap();
        assert_eq!(read("pack"), pack, "a re-save appends no blob");
        assert_eq!(read("index.json"), [&index[..], (b.to_json() + "\n").as_bytes()].concat());
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
        let store = temp_store("gc-blob");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        store.save(&cfg.clone().seed(5), &art("h\n0\n")).unwrap();
        store.save(&cfg, &art("h\n1\n")).unwrap();
        let newest = store.save(&cfg, &art("h\n1\n")).unwrap();
        assert_eq!(store.gc(1).unwrap(), 1);
        let left = store.list().unwrap();
        assert_eq!(left.len(), 2);
        let moved = &left[1];
        assert_eq!(moved.run_id, newest.run_id);
        assert_eq!(moved.journal_digest, "fex256:00000000000000000000000000000abc");
        assert_eq!(store.results_csv(moved).unwrap(), "h\n1\n");
        assert_eq!(store.metrics_json(moved).unwrap(), "{}");
        let pack = fs::metadata(store.root().join("pack")).unwrap().len();
        assert_eq!(pack, left.iter().map(|e| e.range.len + 1).sum::<u64>(), "gc freed the blob");
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
        let store = temp_store("torn-blob");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let a = store.save(&cfg, &art("h\n1\n")).unwrap();
        let pack = fs::OpenOptions::new().write(true).open(store.root().join("pack")).unwrap();
        pack.set_len(a.range.len / 2).unwrap();
        let err = store.results_csv(&a).unwrap_err().to_string();
        assert!(err.contains(&a.run_id), "{err}");
        assert!(err.contains("fsck"), "{err}");
        assert_eq!(store.metrics_json(&a), None);
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
