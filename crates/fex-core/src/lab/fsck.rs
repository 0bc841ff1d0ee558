//! `fex lab fsck` — store integrity checking, quarantine, and the disk
//! fault injector that tests it.
//!
//! The store is append-only and content-addressed, which makes every
//! corruption *detectable*: a torn index append, a run directory lost to
//! a partial `rm`, an artifact edited behind the store's back — each
//! breaks an invariant this module recomputes from scratch. `check`
//! reports; `fsck(store, quarantine=true)` additionally moves the broken
//! runs into `<root>/quarantine/` and rewrites the index to the surviving
//! entries, restoring a clean store without deleting evidence.
//!
//! [`Corruption`] is the matching fault injector — the same torn-write
//! and missing-file shapes the checker must catch, applied
//! deterministically so both the unit tests here and the `fex fuzz`
//! recovery oracle can drive the checker against every failure mode.

use std::collections::btree_map::Entry;
use std::fmt;
use std::fs;

use crate::error::{FexError, Result};
use crate::graph;
use crate::journal::{self, Json};

use super::store::{IndexEntry, RunStore};

/// What kind of damage an [`FsckIssue`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// An index line that does not parse (torn append, editor damage).
    CorruptIndexLine,
    /// An index entry whose artifact directory is gone.
    MissingRunDir,
    /// A run directory missing one of its artifact files.
    MissingArtifact,
    /// Artifact bytes that no longer hash to the entry's run id.
    DigestMismatch,
    /// Row/failure counts in the index disagreeing with the stored CSVs.
    CountMismatch,
    /// An unreadable or unparseable `record.json`.
    CorruptRecord,
    /// A `runs/` directory no surviving index entry references.
    OrphanRunDir,
    /// An index line whose `seq` an earlier line already holds (two
    /// writers raced without the lab lock).
    DuplicateSeq,
    /// A graph index line that does not parse (torn append).
    CorruptGraphIndexLine,
    /// A graph index entry whose payload range runs past the pack's end.
    MissingGraphNode,
    /// Payload range bytes that no longer hash to the indexed payload
    /// digest (the pack was edited or torn behind the graph's back).
    GraphDigestMismatch,
    /// A leftover `graph/nodes/` tree from before the pack layout, which
    /// nothing reads.
    OrphanGraphNode,
}

impl IssueKind {
    /// Whether this issue lives in the artifact graph (subjects are node
    /// digests, or `graph/nodes`) rather than the run store (subjects
    /// are run ids).
    fn is_graph(self) -> bool {
        matches!(
            self,
            IssueKind::CorruptGraphIndexLine
                | IssueKind::MissingGraphNode
                | IssueKind::GraphDigestMismatch
                | IssueKind::OrphanGraphNode
        )
    }
}

impl fmt::Display for IssueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IssueKind::CorruptIndexLine => "corrupt-index-line",
            IssueKind::MissingRunDir => "missing-run-dir",
            IssueKind::MissingArtifact => "missing-artifact",
            IssueKind::DigestMismatch => "digest-mismatch",
            IssueKind::CountMismatch => "count-mismatch",
            IssueKind::CorruptRecord => "corrupt-record",
            IssueKind::OrphanRunDir => "orphan-run-dir",
            IssueKind::DuplicateSeq => "duplicate-seq",
            IssueKind::CorruptGraphIndexLine => "corrupt-graph-index-line",
            IssueKind::MissingGraphNode => "missing-graph-node",
            IssueKind::GraphDigestMismatch => "graph-digest-mismatch",
            IssueKind::OrphanGraphNode => "orphan-graph-node",
        })
    }
}

/// One detected integrity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckIssue {
    /// What is wrong.
    pub kind: IssueKind,
    /// The run id (or `index line N` for index-level damage).
    pub subject: String,
    /// Human-readable detail.
    pub detail: String,
}

/// The result of one integrity pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Index entries examined.
    pub entries_checked: usize,
    /// Artifact-graph nodes examined (0 when the lab has no graph).
    pub graph_nodes_checked: usize,
    /// Everything found wrong, in detection order.
    pub issues: Vec<FsckIssue>,
    /// Run ids (and orphan directory names) moved to `quarantine/`.
    pub quarantined: Vec<String>,
}

impl FsckReport {
    /// Whether the store passed without findings.
    pub fn clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Renders the `fex lab fsck` output.
    pub fn render(&self) -> String {
        let mut s = format!("checked {} index entries\n", self.entries_checked);
        if self.graph_nodes_checked > 0 {
            s.push_str(&format!("checked {} graph nodes\n", self.graph_nodes_checked));
        }
        for issue in &self.issues {
            s.push_str(&format!("{}: {} ({})\n", issue.kind, issue.subject, issue.detail));
        }
        if !self.quarantined.is_empty() {
            s.push_str(&format!(
                "quarantined {} corrupt entries (moved under quarantine/)\n",
                self.quarantined.len()
            ));
        }
        if self.clean() {
            s.push_str("store is clean\n");
        } else {
            s.push_str(&format!("{} issues found\n", self.issues.len()));
        }
        s
    }
}

/// Checks every invariant of the store without touching it.
pub fn check(store: &RunStore) -> FsckReport {
    let mut report = FsckReport::default();
    let (entries, warnings) = store.scan();
    report.entries_checked = entries.len();
    push_index_line_issues(IssueKind::CorruptIndexLine, &warnings, &mut report);
    for entry in &entries {
        check_entry(store, entry, &mut report);
    }
    let mut holders = std::collections::BTreeMap::new();
    for entry in &entries {
        match holders.entry(entry.seq) {
            Entry::Vacant(slot) => {
                slot.insert(&entry.run_id);
            }
            Entry::Occupied(first) => report.issues.push(FsckIssue {
                kind: IssueKind::DuplicateSeq,
                subject: entry.run_id.clone(),
                detail: format!("seq {} is also held by {}", entry.seq, first.get()),
            }),
        }
    }
    // Orphans: artifact directories no parseable entry references.
    let referenced: std::collections::BTreeSet<String> =
        entries.iter().map(|e| e.run_id.trim_start_matches("fex256:").to_string()).collect();
    if let Ok(dirs) = fs::read_dir(store.root().join("runs")) {
        let mut orphans: Vec<String> = dirs
            .filter_map(|d| d.ok())
            .map(|d| d.file_name().to_string_lossy().into_owned())
            .filter(|name| !referenced.contains(name))
            .collect();
        orphans.sort();
        for name in orphans {
            report.issues.push(FsckIssue {
                kind: IssueKind::OrphanRunDir,
                subject: format!("fex256:{name}"),
                detail: "no index entry references this directory".into(),
            });
        }
    }
    check_graph(store, &mut report);
    report
}

/// One `kind` finding per line [`super::scan_index`] skipped. Its
/// warnings read `skipping <index> line N: <error>`, so the subject is
/// `<index> line N` and the detail the error — a line that is not UTF-8
/// is reported like any other unparseable one.
fn push_index_line_issues(kind: IssueKind, warnings: &[String], report: &mut FsckReport) {
    for warning in warnings {
        let rest = warning.strip_prefix("skipping ").unwrap_or(warning);
        let (subject, detail) = rest.split_once(": ").unwrap_or((rest, "unparseable"));
        report.issues.push(FsckIssue { kind, subject: subject.into(), detail: detail.into() });
    }
}

/// The artifact-graph pass: same invariants as the run store, applied to
/// `<root>/graph/`. A lab without a graph (pre-graph labs, `--no-graph`
/// runs) skips silently.
fn check_graph(store: &RunStore, report: &mut FsckReport) {
    let groot = store.root().join(graph::ArtifactGraph::SUBDIR);
    if !groot.is_dir() {
        return;
    }
    let (entries, warnings) = graph::ArtifactGraph::scan_at(&groot);
    report.graph_nodes_checked = entries.len();
    push_index_line_issues(IssueKind::CorruptGraphIndexLine, &warnings, report);
    let pack = fs::File::open(groot.join(graph::ArtifactGraph::PACK)).ok();
    for entry in &entries {
        let bytes = range_bytes(pack.as_ref(), entry);
        let (kind, detail) = if (bytes.len() as u64) < entry.len {
            let held = bytes.len();
            let detail = format!(
                "the pack holds {held} of the {} payload bytes at offset {}",
                entry.len, entry.offset
            );
            (IssueKind::MissingGraphNode, detail)
        } else {
            let recomputed = fex_container::digest_bytes(&bytes).to_string();
            if recomputed == entry.payload_digest {
                continue;
            }
            let detail = format!("payload hashes to {recomputed}; the node was edited or torn");
            (IssueKind::GraphDigestMismatch, detail)
        };
        report.issues.push(FsckIssue { kind, subject: entry.digest.clone(), detail });
    }
    if groot.join("nodes").exists() {
        report.issues.push(FsckIssue {
            kind: IssueKind::OrphanGraphNode,
            subject: "graph/nodes".into(),
            detail: "per-node payloads from before the pack layout; nothing reads them".into(),
        });
    }
}

/// The readable bytes of an entry's payload range: all of them, or as
/// many as lie before the pack's end (none when there is no pack).
fn range_bytes(pack: Option<&fs::File>, entry: &graph::GraphIndexEntry) -> Vec<u8> {
    pack.and_then(|p| graph::read_range(p, entry.offset, entry.len).ok()).unwrap_or_default()
}

/// Checks one index line's run.
fn check_entry(store: &RunStore, entry: &IndexEntry, report: &mut FsckReport) {
    let dir = store.run_dir(&entry.run_id);
    let mut issue = |kind, detail: String| {
        report.issues.push(FsckIssue { kind, subject: entry.run_id.clone(), detail });
    };
    if !dir.is_dir() {
        issue(IssueKind::MissingRunDir, format!("`{}` does not exist", dir.display()));
        return;
    }
    let read = |name: &str| fs::read_to_string(dir.join(name));
    let results = read("results.csv");
    let failures = read("failures.csv");
    for (name, content) in [("results.csv", &results), ("failures.csv", &failures)] {
        if let Err(e) = content {
            issue(IssueKind::MissingArtifact, format!("cannot read `{name}`: {e}"));
        }
    }
    if let (Ok(results), Ok(failures)) = (&results, &failures) {
        let recomputed = RunStore::run_id_from_parts(&entry.key, results, failures);
        if recomputed != entry.run_id {
            issue(
                IssueKind::DigestMismatch,
                format!("artifacts hash to {recomputed}; the run was edited or torn"),
            );
        }
        let rows = results.lines().count().saturating_sub(1);
        let failure_rows = failures.lines().count().saturating_sub(1);
        if rows != entry.rows || failure_rows != entry.failures {
            issue(
                IssueKind::CountMismatch,
                format!(
                    "index says {} rows / {} failures, artifacts have {rows} / {failure_rows}",
                    entry.rows, entry.failures
                ),
            );
        }
    }
    match read("record.json") {
        Err(e) => issue(IssueKind::CorruptRecord, format!("cannot read `record.json`: {e}")),
        Ok(text) => match journal::parse_flat_object(text.trim()) {
            Err(e) => issue(IssueKind::CorruptRecord, format!("unparseable: {e}")),
            // A journaled run must keep its metrics roll-up.
            Ok(map) => {
                if matches!(map.get("journal_digest"), Some(Json::Str(d)) if !d.is_empty())
                    && !dir.join("metrics.json").is_file()
                {
                    issue(
                        IssueKind::MissingArtifact,
                        "journaled run lost its `metrics.json`".into(),
                    );
                }
            }
        },
    }
}

/// Checks the store and, when `quarantine` is set, moves every corrupt
/// run directory (and orphan) under `<root>/quarantine/` and rewrites the
/// index to the clean entries, giving each line whose seq an earlier one
/// holds the next free seq. Returns the final report.
///
/// # Errors
///
/// [`FexError::Data`] on filesystem failures while quarantining.
pub fn fsck(store: &RunStore, quarantine: bool) -> Result<FsckReport> {
    let mut report = check(store);
    if !quarantine || report.clean() {
        return Ok(report);
    }
    let qdir = store.root().join("quarantine");
    fs::create_dir_all(&qdir)
        .map_err(|e| FexError::Data(format!("cannot create `{}`: {e}", qdir.display())))?;
    let bad_runs: std::collections::BTreeSet<&str> = report
        .issues
        .iter()
        .filter(|i| {
            !matches!(i.kind, IssueKind::CorruptIndexLine | IssueKind::DuplicateSeq)
                && !i.kind.is_graph()
        })
        .map(|i| i.subject.as_str())
        .collect();
    for run_id in &bad_runs {
        let short = run_id.trim_start_matches("fex256:");
        let src = store.run_dir(run_id);
        if src.is_dir() {
            fs::rename(&src, qdir.join(short)).map_err(|e| {
                FexError::Data(format!("cannot quarantine `{}`: {e}", src.display()))
            })?;
        }
        report.quarantined.push((*run_id).to_string());
    }
    // Rewriting the index drops corrupt lines and bad entries in one go,
    // and renumbers a repeated seq past every seq in use.
    let (entries, _) = store.scan();
    let mut next_free = entries.iter().map(|e| e.seq).max().map_or(0, |m| m + 1);
    let mut taken = std::collections::BTreeSet::new();
    let survivors: String = entries
        .into_iter()
        .filter(|e| !bad_runs.contains(e.run_id.as_str()))
        .map(|mut e| {
            if !taken.insert(e.seq) {
                e.seq = next_free;
                next_free += 1;
            }
            e.to_json() + "\n"
        })
        .collect();
    fs::write(store.index_path(), survivors)
        .map_err(|e| FexError::Data(format!("store write failed: {e}")))?;
    // The graph gets the same treatment: the readable bytes of each bad
    // range are kept as `quarantine/graph-<digest>`, a leftover
    // `graph/nodes/` tree moves to `quarantine/graph-nodes`, and the graph
    // index is rewritten to its survivors. The pack is never compacted.
    let groot = store.root().join(graph::ArtifactGraph::SUBDIR);
    if groot.is_dir() && report.issues.iter().any(|i| i.kind.is_graph()) {
        let bad_nodes: std::collections::BTreeSet<&str> = report
            .issues
            .iter()
            .filter(|i| {
                matches!(i.kind, IssueKind::MissingGraphNode | IssueKind::GraphDigestMismatch)
            })
            .map(|i| i.subject.as_str())
            .collect();
        let (entries, _) = graph::ArtifactGraph::scan_at(&groot);
        let pack = fs::File::open(groot.join(graph::ArtifactGraph::PACK)).ok();
        let (bad, good): (Vec<_>, Vec<_>) =
            entries.iter().partition(|e| bad_nodes.contains(e.digest.as_str()));
        for entry in bad {
            let short = entry.digest.trim_start_matches("fex256:");
            let evidence = qdir.join(format!("graph-{short}"));
            fs::write(&evidence, range_bytes(pack.as_ref(), entry)).map_err(|e| {
                FexError::Data(format!("cannot quarantine `{}`: {e}", evidence.display()))
            })?;
            report.quarantined.push(entry.digest.clone());
        }
        let nodes = groot.join("nodes");
        if nodes.exists() {
            fs::rename(&nodes, qdir.join("graph-nodes")).map_err(|e| {
                FexError::Data(format!("cannot quarantine `{}`: {e}", nodes.display()))
            })?;
            report.quarantined.push("graph/nodes".into());
        }
        let survivors: String = good.iter().map(|e| e.to_json() + "\n").collect();
        fs::write(groot.join("index.json"), survivors)
            .map_err(|e| FexError::Data(format!("graph index write failed: {e}")))?;
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// Disk fault injection
// ---------------------------------------------------------------------

/// A deterministic store corruption, for tests and the fuzz recovery
/// oracle. Each variant is one realistic failure shape; [`inject`]
/// applies it to the newest run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Tear the final index append mid-record (crash during `save`).
    TruncatedIndex,
    /// Append a non-JSON line to the index (editor/merge damage).
    GarbageIndexLine,
    /// Delete the newest run's `results.csv`.
    MissingResultsCsv,
    /// Delete the newest run's whole artifact directory.
    MissingRunDir,
    /// Tear the newest run's `record.json` in half (partial write).
    TornRecord,
    /// Delete the newest journaled run's `metrics.json`.
    MissingMetrics,
    /// Append the newest index line a second time, seq included (two
    /// identical runs saved without the lab lock).
    DuplicateSeq,
}

impl Corruption {
    /// Every injectable corruption, in a stable order (the fuzzer indexes
    /// into this with its seeded dice).
    pub const ALL: [Corruption; 7] = [
        Corruption::TruncatedIndex,
        Corruption::GarbageIndexLine,
        Corruption::MissingResultsCsv,
        Corruption::MissingRunDir,
        Corruption::TornRecord,
        Corruption::MissingMetrics,
        Corruption::DuplicateSeq,
    ];
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Corruption::TruncatedIndex => "truncated-index",
            Corruption::GarbageIndexLine => "garbage-index-line",
            Corruption::MissingResultsCsv => "missing-results-csv",
            Corruption::MissingRunDir => "missing-run-dir",
            Corruption::TornRecord => "torn-record",
            Corruption::MissingMetrics => "missing-metrics",
            Corruption::DuplicateSeq => "duplicate-seq",
        })
    }
}

/// Applies `corruption` to the newest run of `store`.
///
/// # Errors
///
/// [`FexError::Data`] when the store is empty or the filesystem refuses.
pub fn inject(store: &RunStore, corruption: Corruption) -> Result<()> {
    let latest = store.resolve("latest")?;
    let dir = store.run_dir(&latest.run_id);
    let io = |e: std::io::Error| FexError::Data(format!("fault injection failed: {e}"));
    match corruption {
        Corruption::TruncatedIndex => {
            let index = fs::read_to_string(store.index_path()).map_err(io)?;
            let torn = index.len().saturating_sub(9);
            fs::write(store.index_path(), &index[..torn]).map_err(io)?;
        }
        Corruption::GarbageIndexLine => {
            let mut index = fs::read_to_string(store.index_path()).map_err(io)?;
            index.push_str("{\"run_id\": 42, definitely not an index line\n");
            fs::write(store.index_path(), index).map_err(io)?;
        }
        Corruption::MissingResultsCsv => {
            fs::remove_file(dir.join("results.csv")).map_err(io)?;
        }
        Corruption::MissingRunDir => {
            fs::remove_dir_all(&dir).map_err(io)?;
        }
        Corruption::TornRecord => {
            let record = fs::read_to_string(dir.join("record.json")).map_err(io)?;
            fs::write(dir.join("record.json"), &record[..record.len() / 2]).map_err(io)?;
        }
        Corruption::MissingMetrics => {
            fs::remove_file(dir.join("metrics.json")).map_err(io)?;
        }
        Corruption::DuplicateSeq => {
            super::append_index_line(&store.index_path(), &latest.to_json()).map_err(io)?;
        }
    }
    Ok(())
}

/// A deterministic artifact-graph corruption. Kept separate from
/// [`Corruption`]: the fuzz `recovery` oracle's seeded dice pick from
/// [`Corruption::ALL`] by position, so that array only ever grows at its
/// end, and only by store damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphCorruption {
    /// Tear the final graph index append mid-record.
    TruncatedGraphIndex,
    /// Append a non-JSON line to the graph index.
    GarbageGraphIndexLine,
    /// Truncate the pack inside the newest node's payload range.
    MissingNodePayload,
    /// Flip one byte inside the newest node's payload range (silent
    /// edit).
    EditedNodePayload,
    /// Plant a leftover `graph/nodes/` tree from before the pack layout.
    OrphanNodeDir,
}

impl GraphCorruption {
    /// Every injectable graph corruption, in a stable order.
    pub const ALL: [GraphCorruption; 5] = [
        GraphCorruption::TruncatedGraphIndex,
        GraphCorruption::GarbageGraphIndexLine,
        GraphCorruption::MissingNodePayload,
        GraphCorruption::EditedNodePayload,
        GraphCorruption::OrphanNodeDir,
    ];
}

impl fmt::Display for GraphCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GraphCorruption::TruncatedGraphIndex => "truncated-graph-index",
            GraphCorruption::GarbageGraphIndexLine => "garbage-graph-index-line",
            GraphCorruption::MissingNodePayload => "missing-node-payload",
            GraphCorruption::EditedNodePayload => "edited-node-payload",
            GraphCorruption::OrphanNodeDir => "orphan-node-dir",
        })
    }
}

/// Applies `corruption` to the newest node of `store`'s artifact graph.
///
/// # Errors
///
/// [`FexError::Data`] when the graph is missing or empty, or the
/// filesystem refuses.
pub fn inject_graph(store: &RunStore, corruption: GraphCorruption) -> Result<()> {
    let groot = store.root().join(graph::ArtifactGraph::SUBDIR);
    let index_path = groot.join("index.json");
    let pack_path = groot.join(graph::ArtifactGraph::PACK);
    let io = |e: std::io::Error| FexError::Data(format!("graph fault injection failed: {e}"));
    let (entries, _) = graph::ArtifactGraph::scan_at(&groot);
    let newest = || {
        entries
            .iter()
            .max_by_key(|e| e.seq)
            .ok_or_else(|| FexError::Data("the artifact graph is empty".into()))
    };
    match corruption {
        GraphCorruption::TruncatedGraphIndex => {
            let index = fs::read_to_string(&index_path).map_err(io)?;
            let torn = index.len().saturating_sub(9);
            fs::write(&index_path, &index[..torn]).map_err(io)?;
        }
        GraphCorruption::GarbageGraphIndexLine => {
            let mut index = fs::read_to_string(&index_path).map_err(io)?;
            index.push_str("{\"digest\": 42, definitely not a graph entry\n");
            fs::write(&index_path, index).map_err(io)?;
        }
        GraphCorruption::MissingNodePayload => {
            let entry = newest()?;
            let pack = fs::OpenOptions::new().write(true).open(&pack_path).map_err(io)?;
            pack.set_len(entry.offset + entry.len / 2).map_err(io)?;
        }
        GraphCorruption::EditedNodePayload => {
            let entry = newest()?;
            let mut pack = fs::read(&pack_path).map_err(io)?;
            let at = usize::try_from(entry.offset + entry.len / 2)
                .ok()
                .filter(|&at| at < pack.len())
                .ok_or_else(|| FexError::Data("the newest payload is not in the pack".into()))?;
            pack[at] ^= 1;
            fs::write(&pack_path, pack).map_err(io)?;
        }
        GraphCorruption::OrphanNodeDir => {
            let dir = groot.join("nodes").join("00000000000000000000000000000bad");
            fs::create_dir_all(&dir).map_err(io)?;
            fs::write(dir.join("payload.json"), "{\"node\":\"stray\"}\n").map_err(io)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::lab::RunArtifacts;
    use fex_suites::InputSize;

    fn temp_store(tag: &str) -> RunStore {
        let dir = std::env::temp_dir().join(format!("fex-fsck-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    fn populated(tag: &str) -> RunStore {
        let store = temp_store(tag);
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let art = |results: &'static str| RunArtifacts {
            results_csv: results,
            failures_csv: "benchmark,type,threads,rep,error,attempts,outcome\n",
            metrics_json: Some("{}"),
            journal_digest: Some("fex256:00000000000000000000000000000abc"),
        };
        store.save(&cfg, &art("h\n1\n")).unwrap();
        store.save(&cfg.clone().seed(99), &art("h\n2\n")).unwrap();
        store
    }

    #[test]
    fn clean_store_passes() {
        let store = populated("clean");
        let report = check(&store);
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.entries_checked, 2);
        assert!(report.render().contains("store is clean"));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn every_injected_corruption_is_detected() {
        for corruption in Corruption::ALL {
            let store = populated(&format!("inject-{corruption}"));
            inject(&store, corruption).unwrap();
            let report = check(&store);
            assert!(!report.clean(), "{corruption} went undetected");
            let expected = match corruption {
                Corruption::TruncatedIndex => IssueKind::CorruptIndexLine,
                Corruption::GarbageIndexLine => IssueKind::CorruptIndexLine,
                Corruption::MissingResultsCsv => IssueKind::MissingArtifact,
                Corruption::MissingRunDir => IssueKind::MissingRunDir,
                Corruption::TornRecord => IssueKind::CorruptRecord,
                Corruption::MissingMetrics => IssueKind::MissingArtifact,
                Corruption::DuplicateSeq => IssueKind::DuplicateSeq,
            };
            assert!(
                report.issues.iter().any(|i| i.kind == expected),
                "{corruption}: wanted {expected}, got {}",
                report.render()
            );
            let _ = fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn edited_artifacts_fail_the_digest_check() {
        let store = populated("digest");
        let latest = store.resolve("latest").unwrap();
        let path = store.run_dir(&latest.run_id).join("results.csv");
        fs::write(&path, "h\n2\n# tampered\n").unwrap();
        let report = check(&store);
        let kinds: Vec<IssueKind> = report.issues.iter().map(|i| i.kind).collect();
        assert!(kinds.contains(&IssueKind::DigestMismatch), "{}", report.render());
        assert!(kinds.contains(&IssueKind::CountMismatch), "{}", report.render());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn quarantine_restores_a_clean_store() {
        let store = populated("quarantine");
        inject(&store, Corruption::MissingResultsCsv).unwrap();
        let report = fsck(&store, true).unwrap();
        assert!(!report.clean());
        assert_eq!(report.quarantined.len(), 1);
        // The quarantined run's remains are preserved, not deleted.
        let short = report.quarantined[0].trim_start_matches("fex256:");
        assert!(store.root().join("quarantine").join(short).is_dir());
        // And a second pass finds nothing left to complain about.
        let after = check(&store);
        assert!(after.clean(), "{}", after.render());
        assert_eq!(after.entries_checked, 1, "the intact run survived");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_duplicate_seq_names_both_runs_and_quarantine_renumbers_the_later() {
        let store = populated("dup-seq");
        let first = store.resolve("prev").unwrap();
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test).seed(7);
        let art = RunArtifacts {
            results_csv: "h\n3\n",
            failures_csv: "benchmark,type,threads,rep,error,attempts,outcome\n",
            metrics_json: None,
            journal_digest: None,
        };
        // A writer that raced the first save derived the same seq.
        let late = IndexEntry { seq: first.seq, ..store.save(&cfg, &art).unwrap() };
        let index = fs::read_to_string(store.index_path()).unwrap();
        let kept = index.lines().take(2).map(|l| l.to_string() + "\n").collect::<String>();
        fs::write(store.index_path(), kept + &late.to_json() + "\n").unwrap();
        let report = check(&store);
        let dup: Vec<&FsckIssue> =
            report.issues.iter().filter(|i| i.kind == IssueKind::DuplicateSeq).collect();
        assert_eq!(dup.len(), 1, "{}", report.render());
        assert_eq!(dup[0].subject, late.run_id);
        assert!(dup[0].detail.contains(&first.run_id), "{}", dup[0].detail);
        let fixed = fsck(&store, true).unwrap();
        assert!(fixed.quarantined.is_empty(), "no run is dropped");
        let after = check(&store);
        assert!(after.clean(), "{}", after.render());
        let seqs: Vec<u64> = store.list().unwrap().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "the later line took the next free seq");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_record_from_an_older_lab_passes_fsck() {
        let store = populated("old-record");
        let first = store.resolve("prev").unwrap();
        // Older builds repeated the id's index line in `record.json`, and a
        // second save of the id could leave a later seq there. Only the
        // journal digest is read, so such a record is clean.
        let record = "{\"run_id\": \"fex256:0\", \"seq\": 9, \"experiment\": \"micro\", \
                      \"key\": \"k\", \"rows\": 1, \"failures\": 0, \
                      \"journal_digest\": \"fex256:00000000000000000000000000000abc\"}\n";
        let path = store.run_dir(&first.run_id).join("record.json");
        fs::write(&path, record).unwrap();
        let report = fsck(&store, true).unwrap();
        assert!(report.clean(), "{}", report.render());
        assert_eq!(fs::read_to_string(&path).unwrap(), record, "fsck leaves the record alone");
        assert!(store.render_show(&first).unwrap().contains("journal:    fex256:"));
        fs::remove_file(store.run_dir(&first.run_id).join("metrics.json")).unwrap();
        let kinds: Vec<IssueKind> = check(&store).issues.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, vec![IssueKind::MissingArtifact], "its digest still marks it journaled");
        let _ = fs::remove_dir_all(store.root());
    }

    /// Overwrites byte 5 (inside line 1) of `path` with `0xFF`, so the
    /// line is no longer UTF-8.
    fn break_utf8(path: &std::path::Path) {
        let mut bytes = fs::read(path).unwrap();
        bytes[5] = 0xFF;
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn a_non_utf8_index_line_is_reported_with_its_line_number() {
        let store = populated("non-utf8");
        break_utf8(&store.index_path());
        let report = check(&store);
        let corrupt: Vec<&FsckIssue> =
            report.issues.iter().filter(|i| i.kind == IssueKind::CorruptIndexLine).collect();
        assert_eq!(corrupt.len(), 1, "{}", report.render());
        assert_eq!(corrupt[0].subject, "index line 1");
        assert!(corrupt[0].detail.contains("utf-8"), "{}", corrupt[0].detail);
        // The run the line described is now an orphan; quarantine repairs
        // both and keeps the intact run.
        assert!(report.issues.iter().any(|i| i.kind == IssueKind::OrphanRunDir));
        fsck(&store, true).unwrap();
        let after = check(&store);
        assert!(after.clean(), "{}", after.render());
        assert_eq!(after.entries_checked, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_non_utf8_graph_index_line_is_reported_with_its_line_number() {
        let store = populated_with_graph("graph-non-utf8");
        break_utf8(&store.root().join(graph::ArtifactGraph::SUBDIR).join("index.json"));
        let report = check(&store);
        let corrupt: Vec<&FsckIssue> =
            report.issues.iter().filter(|i| i.kind == IssueKind::CorruptGraphIndexLine).collect();
        assert_eq!(corrupt.len(), 1, "{}", report.render());
        assert_eq!(corrupt[0].subject, "graph index line 1");
        assert!(corrupt[0].detail.contains("utf-8"), "{}", corrupt[0].detail);
        fsck(&store, true).unwrap();
        let after = check(&store);
        assert!(after.clean(), "{}", after.render());
        assert_eq!(after.graph_nodes_checked, 2);
        let _ = fs::remove_dir_all(store.root());
    }

    /// A populated store with a small artifact graph beside it: one node
    /// per kind layer, stored through the real graph API so index lines
    /// and payload digests are genuine.
    fn populated_with_graph(tag: &str) -> RunStore {
        use fex_container::Digest;
        let store = populated(tag);
        let mut g = graph::ArtifactGraph::open(store.root()).unwrap();
        g.store_node(graph::NodeKind::Source, &Digest(1), "{\"node\":\"source\"}\n").unwrap();
        g.store_node(graph::NodeKind::Compiled, &Digest(2), "{\"node\":\"compiled\"}\n").unwrap();
        g.store_node(graph::NodeKind::RunUnit, &Digest(3), "{\"node\":\"run\"}\n").unwrap();
        store
    }

    #[test]
    fn clean_graph_passes() {
        let store = populated_with_graph("graph-clean");
        let report = check(&store);
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.graph_nodes_checked, 3);
        assert!(report.render().contains("checked 3 graph nodes"));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn every_injected_graph_corruption_is_detected() {
        for corruption in GraphCorruption::ALL {
            let store = populated_with_graph(&format!("graph-inject-{corruption}"));
            inject_graph(&store, corruption).unwrap();
            let report = check(&store);
            assert!(!report.clean(), "{corruption} went undetected");
            let expected = match corruption {
                GraphCorruption::TruncatedGraphIndex => IssueKind::CorruptGraphIndexLine,
                GraphCorruption::GarbageGraphIndexLine => IssueKind::CorruptGraphIndexLine,
                GraphCorruption::MissingNodePayload => IssueKind::MissingGraphNode,
                GraphCorruption::EditedNodePayload => IssueKind::GraphDigestMismatch,
                GraphCorruption::OrphanNodeDir => IssueKind::OrphanGraphNode,
            };
            assert!(
                report.issues.iter().any(|i| i.kind == expected),
                "{corruption}: wanted {expected}, got {}",
                report.render()
            );
            let _ = fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn graph_quarantine_restores_a_clean_store() {
        for corruption in GraphCorruption::ALL {
            let store = populated_with_graph(&format!("graph-quarantine-{corruption}"));
            inject_graph(&store, corruption).unwrap();
            let report = fsck(&store, true).unwrap();
            assert!(!report.clean(), "{corruption}");
            let after = check(&store);
            assert!(after.clean(), "{corruption}: {}", after.render());
            // Graph damage must never quarantine run directories: the two
            // intact runs survive every graph corruption.
            assert_eq!(after.entries_checked, 2, "{corruption} touched the run store");
            let _ = fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn graph_quarantine_preserves_evidence() {
        let store = populated_with_graph("graph-evidence");
        inject_graph(&store, GraphCorruption::EditedNodePayload).unwrap();
        let report = fsck(&store, true).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        let short = report.quarantined[0].trim_start_matches("fex256:");
        let moved = store.root().join("quarantine").join(format!("graph-{short}"));
        let evidence = fs::read(&moved).expect("edited range kept as evidence");
        assert_eq!(evidence.len(), "{\"node\":\"run\"}\n".len());
        assert_ne!(evidence, b"{\"node\":\"run\"}\n", "the evidence is the edited bytes");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn quarantine_sweeps_orphan_directories() {
        let store = populated("orphan");
        inject(&store, Corruption::TruncatedIndex).unwrap();
        let report = check(&store);
        // The torn entry's directory is now unreferenced.
        assert!(report.issues.iter().any(|i| i.kind == IssueKind::CorruptIndexLine));
        assert!(report.issues.iter().any(|i| i.kind == IssueKind::OrphanRunDir));
        let fixed = fsck(&store, true).unwrap();
        assert!(!fixed.quarantined.is_empty());
        assert!(check(&store).clean());
        let _ = fs::remove_dir_all(store.root());
    }
}
