//! `fex lab fsck` — lab integrity checking, quarantine, and the disk
//! fault injector that tests it.
//!
//! A lab is one append-only, content-addressed log, which makes every
//! corruption *detectable*: a torn index append, a pack cut short by a
//! crash, a byte edited behind the lab's back — each breaks an invariant
//! this module recomputes from scratch in one index scan and one pack
//! walk. `check` reports; `fsck(store, quarantine=true)` additionally
//! keeps the readable bytes of every bad line under `<root>/quarantine/`
//! and rewrites the lab to the surviving lines, restoring a clean lab
//! without deleting evidence.
//!
//! [`Corruption`] is the matching fault injector — the torn-write and
//! edited-byte shapes the checker must catch, applied deterministically
//! so both the unit tests here and the `fex fuzz` recovery oracle can
//! drive the checker against every failure mode.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{self, File};

use crate::error::{FexError, Result};

use super::store::RunStore;
use super::{Line, INDEX, PACK};

/// What kind of damage an [`FsckIssue`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// An index line that does not parse (torn append, editor damage).
    CorruptIndexLine,
    /// An index line whose range runs past the pack's end.
    RangePastEnd,
    /// A range whose bytes no longer hash to its line's digest, or a
    /// run whose CSVs no longer hash to its run id.
    DigestMismatch,
    /// Row/failure counts in a run line disagreeing with its CSVs.
    CountMismatch,
    /// A run line whose `seq` an earlier line already holds (two writers
    /// raced without the lab lock).
    DuplicateSeq,
    /// Pack bytes no index line names: the torn tail a crashed write
    /// leaves.
    UnreferencedPackBytes,
}

impl fmt::Display for IssueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IssueKind::CorruptIndexLine => "corrupt-index-line",
            IssueKind::RangePastEnd => "range-past-end",
            IssueKind::DigestMismatch => "digest-mismatch",
            IssueKind::CountMismatch => "count-mismatch",
            IssueKind::DuplicateSeq => "duplicate-seq",
            IssueKind::UnreferencedPackBytes => "unreferenced-pack-bytes",
        })
    }
}

/// One detected integrity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckIssue {
    /// What is wrong.
    pub kind: IssueKind,
    /// The run id or node digest, `index line N` for a line that does
    /// not parse, or `pack bytes A..B`.
    pub subject: String,
    /// Human-readable detail.
    pub detail: String,
}

/// The result of one integrity pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Run lines examined.
    pub entries_checked: usize,
    /// Unit lines examined (0 when the lab has no graph).
    pub graph_nodes_checked: usize,
    /// Everything found wrong, in detection order.
    pub issues: Vec<FsckIssue>,
    /// Run ids and node digests whose bytes moved to `quarantine/`.
    pub quarantined: Vec<String>,
}

impl FsckReport {
    /// Whether the lab passed without findings.
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

/// Checks every invariant of the lab without touching it: one scan of
/// the index, then one walk over the pack ranges its lines name.
pub fn check(store: &RunStore) -> FsckReport {
    let mut report = FsckReport::default();
    let (lines, warnings) = super::scan(store.root(), true);
    // A line that does not parse reads `skipping index line N: <error>`.
    for warning in warnings {
        let rest = warning.strip_prefix("skipping ").unwrap_or(&warning);
        let (subject, detail) = rest.split_once(": ").unwrap_or((rest, "unparseable"));
        let (subject, detail) = (subject.into(), detail.into());
        report.issues.push(FsckIssue { kind: IssueKind::CorruptIndexLine, subject, detail });
    }
    let pack = File::open(store.root().join(PACK)).ok();
    let mut seqs = BTreeMap::new();
    for line in &lines {
        let mut issue = |kind, detail: String| {
            report.issues.push(FsckIssue { kind, subject: line.id().into(), detail });
        };
        if let Line::Run(e) = line {
            match seqs.get(&e.seq) {
                Some(first) => {
                    issue(IssueKind::DuplicateSeq, format!("seq {} is also held by {first}", e.seq))
                }
                None => {
                    seqs.insert(e.seq, e.run_id.as_str());
                }
            }
        }
        let range = line.range();
        let bytes = pack.as_ref().and_then(|p| range.read(p).ok()).unwrap_or_default();
        if (bytes.len() as u64) < range.len {
            let held = bytes.len();
            let detail = format!(
                "the pack holds {held} of the {} bytes at offset {}",
                range.len, range.offset
            );
            issue(IssueKind::RangePastEnd, detail);
            continue;
        }
        let recomputed = fex_container::digest_bytes(&bytes);
        if recomputed != range.digest {
            issue(IssueKind::DigestMismatch, format!("bytes hash to {recomputed}; edited or torn"));
        }
        let Line::Run(entry) = line else { continue };
        let Some((results, failures, _)) = entry.split(&bytes) else {
            issue(IssueKind::DigestMismatch, "the CSV lengths do not fit the blob".into());
            continue;
        };
        let recomputed = RunStore::run_id_from_parts(&entry.key, results, failures);
        if recomputed != entry.run_id {
            issue(IssueKind::DigestMismatch, format!("the CSVs hash to run id {recomputed}"));
        }
        let rows = results.lines().count().saturating_sub(1);
        let failure_rows = failures.lines().count().saturating_sub(1);
        if rows != entry.rows || failure_rows != entry.failures {
            let detail = format!(
                "index says {} rows / {} failures, the blob has {rows} / {failure_rows}",
                entry.rows, entry.failures
            );
            issue(IssueKind::CountMismatch, detail);
        }
    }
    report.entries_checked = lines.iter().filter_map(run_seq).count();
    report.graph_nodes_checked = lines.len() - report.entries_checked;
    // The pack walk: every byte lies in some line's range or in the
    // newline after it, or no line names it.
    let pack_len = pack.and_then(|p| p.metadata().ok()).map_or(0, |m| m.len());
    let mut spans: Vec<(u64, u64)> = lines
        .iter()
        .map(|l| l.range())
        .map(|r| (r.offset, r.offset.saturating_add(r.len).saturating_add(1)))
        .collect();
    spans.sort_unstable();
    let mut covered = 0;
    for (start, end) in spans.into_iter().chain([(u64::MAX, u64::MAX)]) {
        if covered < start.min(pack_len) {
            let gap = (covered, start.min(pack_len));
            report.issues.push(FsckIssue {
                kind: IssueKind::UnreferencedPackBytes,
                subject: format!("pack bytes {}..{}", gap.0, gap.1),
                detail: format!("no index line names these {} bytes", gap.1 - gap.0),
            });
        }
        covered = covered.max(end);
    }
    report
}

/// Checks the lab and, when `quarantine` is set, writes the readable
/// bytes of every line with a bad range to `<root>/quarantine/<hex>`,
/// named by the digest the line recorded for them (never by a name read
/// from the index, which could point outside the lab),
/// gives each run line whose seq an earlier one holds the next free seq,
/// and rewrites the lab to the surviving lines — which drops corrupt
/// lines and unreferenced pack bytes too. Returns the report of the
/// check.
///
/// # Errors
///
/// [`FexError::Data`] on filesystem failures while quarantining.
pub fn fsck(store: &RunStore, quarantine: bool) -> Result<FsckReport> {
    let mut report = check(store);
    if !quarantine || report.clean() {
        return Ok(report);
    }
    let io = |e: std::io::Error| FexError::Data(format!("cannot quarantine: {e}"));
    let qdir = store.root().join("quarantine");
    fs::create_dir_all(&qdir).map_err(io)?;
    let bad: BTreeSet<String> = report
        .issues
        .iter()
        .filter(|i| {
            matches!(
                i.kind,
                IssueKind::RangePastEnd | IssueKind::DigestMismatch | IssueKind::CountMismatch
            )
        })
        .map(|i| i.subject.clone())
        .collect();
    let (lines, _) = super::scan(store.root(), true);
    let pack = File::open(store.root().join(PACK)).ok();
    let mut next_free = lines.iter().filter_map(run_seq).max().map_or(0, |m| m + 1);
    let mut taken = BTreeSet::new();
    let mut survivors = Vec::new();
    for mut line in lines {
        if bad.contains(line.id()) {
            if !report.quarantined.iter().any(|q| q == line.id()) {
                let bytes = pack.as_ref().and_then(|p| line.range().read(p).ok());
                let name = format!("{:032x}", line.range().digest.0);
                fs::write(qdir.join(name), bytes.unwrap_or_default()).map_err(io)?;
                report.quarantined.push(line.id().into());
            }
            continue;
        }
        if let Line::Run(e) = &mut line {
            if !taken.insert(e.seq) {
                e.seq = next_free;
                next_free += 1;
            }
        }
        survivors.push(line);
    }
    super::rewrite(store.root(), survivors)
        .map_err(|e| FexError::Data(format!("store write failed: {e}")))?;
    Ok(report)
}

fn run_seq(line: &Line) -> Option<u64> {
    match line {
        Line::Run(e) => Some(e.seq),
        Line::Unit(_) => None,
    }
}

// ---------------------------------------------------------------------
// Disk fault injection
// ---------------------------------------------------------------------

/// A deterministic lab corruption, for tests and the fuzz recovery
/// oracle. Each variant is one realistic failure shape, applied to the
/// newest write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Tear the final index append mid-line (crash during a write).
    TruncatedIndex,
    /// Append a non-JSON line to the index (editor/merge damage).
    GarbageIndexLine,
    /// Cut the pack inside its newest range (crash, lost tail).
    TornPack,
    /// Flip one byte inside the newest range (silent edit).
    FlippedPackByte,
    /// Append the newest run line a second time, seq included (two
    /// identical runs saved without the lab lock).
    DuplicateSeq,
}

impl Corruption {
    /// Every injectable corruption, in a stable order (the fuzzer indexes
    /// into this with its seeded dice).
    pub const ALL: [Corruption; 5] = [
        Corruption::TruncatedIndex,
        Corruption::GarbageIndexLine,
        Corruption::TornPack,
        Corruption::FlippedPackByte,
        Corruption::DuplicateSeq,
    ];
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Corruption::TruncatedIndex => "truncated-index",
            Corruption::GarbageIndexLine => "garbage-index-line",
            Corruption::TornPack => "torn-pack",
            Corruption::FlippedPackByte => "flipped-pack-byte",
            Corruption::DuplicateSeq => "duplicate-seq",
        })
    }
}

/// Applies `corruption` to the newest write of `store`'s lab.
///
/// # Errors
///
/// [`FexError::Data`] when the lab holds no line to damage (no run, for
/// [`Corruption::DuplicateSeq`]) or the filesystem refuses.
pub fn inject(store: &RunStore, corruption: Corruption) -> Result<()> {
    let (index, pack) = (store.root().join(INDEX), store.root().join(PACK));
    let io = |e: std::io::Error| FexError::Data(format!("fault injection failed: {e}"));
    let (lines, _) = super::scan(store.root(), true);
    let newest = lines.iter().map(Line::range).max_by_key(|r| r.offset);
    let middle = newest.map_or(0, |r| r.offset + r.len / 2);
    match corruption {
        Corruption::TruncatedIndex => {
            let text = fs::read_to_string(&index).map_err(io)?;
            fs::write(&index, &text[..text.len().saturating_sub(9)]).map_err(io)?;
        }
        Corruption::GarbageIndexLine => {
            let mut text = fs::read_to_string(&index).map_err(io)?;
            text.push_str("{\"run_id\": 42, definitely not an index line\n");
            fs::write(&index, text).map_err(io)?;
        }
        Corruption::TornPack => {
            fs::OpenOptions::new()
                .write(true)
                .open(&pack)
                .map_err(io)?
                .set_len(middle)
                .map_err(io)?;
        }
        Corruption::FlippedPackByte => {
            let mut bytes = fs::read(&pack).map_err(io)?;
            let byte = usize::try_from(middle).ok().and_then(|at| bytes.get_mut(at));
            *byte.ok_or_else(|| FexError::Data("the newest range is not in the pack".into()))? ^= 1;
            fs::write(&pack, bytes).map_err(io)?;
        }
        Corruption::DuplicateSeq => {
            let latest = store.resolve("latest")?;
            super::append_index_line(store.root(), &latest.to_json()).map_err(io)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::graph;
    use crate::lab::{IndexEntry, PackRange, RunArtifacts};
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

    /// The kind `check` must report for each injected corruption.
    fn expected(corruption: Corruption) -> IssueKind {
        match corruption {
            Corruption::TruncatedIndex => IssueKind::CorruptIndexLine,
            Corruption::GarbageIndexLine => IssueKind::CorruptIndexLine,
            Corruption::TornPack => IssueKind::RangePastEnd,
            Corruption::FlippedPackByte => IssueKind::DigestMismatch,
            Corruption::DuplicateSeq => IssueKind::DuplicateSeq,
        }
    }

    fn kinds(report: &FsckReport) -> Vec<IssueKind> {
        report.issues.iter().map(|i| i.kind).collect()
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
            let want = expected(corruption);
            assert!(
                kinds(&report).contains(&want),
                "{corruption}: wanted {want}, got {}",
                report.render()
            );
            let _ = fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn edited_artifacts_fail_the_digest_check() {
        let store = populated("digest");
        let latest = store.resolve("latest").unwrap();
        // Append a row to the stored results CSV and re-digest the range,
        // as an editor that knew the pack format would: the CSVs then no
        // longer hash to the run id and the counts no longer match.
        let pack_path = store.root().join(PACK);
        let mut pack = fs::read(&pack_path).unwrap();
        let at = (latest.range.offset + latest.results_len) as usize;
        pack.splice(at..at, b"3\n".iter().copied());
        fs::write(&pack_path, &pack).unwrap();
        let start = latest.range.offset as usize;
        let blob = &pack[start..start + latest.range.len as usize + 2];
        let edited = IndexEntry {
            range: PackRange {
                len: latest.range.len + 2,
                digest: fex_container::digest_bytes(blob),
                ..latest.range
            },
            results_len: latest.results_len + 2,
            ..latest.clone()
        };
        let index = fs::read_to_string(store.index_path()).unwrap();
        fs::write(store.index_path(), index.replace(&latest.to_json(), &edited.to_json())).unwrap();
        let report = check(&store);
        assert_eq!(
            kinds(&report),
            [IssueKind::DigestMismatch, IssueKind::CountMismatch],
            "{}",
            report.render()
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn quarantine_restores_a_clean_store() {
        let store = populated("quarantine");
        inject(&store, Corruption::FlippedPackByte).unwrap();
        let victim = store.resolve("latest").unwrap();
        let report = fsck(&store, true).unwrap();
        assert!(!report.clean());
        assert_eq!(report.quarantined, std::slice::from_ref(&victim.run_id));
        // The quarantined run's bytes are preserved, not deleted.
        let name = format!("{:032x}", victim.range.digest.0);
        let kept = fs::read(store.root().join("quarantine").join(name)).unwrap();
        assert_eq!(kept.len() as u64, victim.range.len);
        // And a second pass finds nothing left to complain about.
        let after = check(&store);
        assert!(after.clean(), "{}", after.render());
        assert_eq!(after.entries_checked, 1, "the intact run survived");
        assert_eq!(store.results_csv(&store.resolve("latest").unwrap()).unwrap(), "h\n1\n");
        let _ = fs::remove_dir_all(store.root());
    }

    /// A run id read from the index never names a file: evidence of a
    /// forged line whose id walks out of the lab stays in `quarantine/`.
    #[test]
    fn quarantine_names_evidence_by_digest_not_by_index_text() {
        let store = populated("escape");
        let latest = store.resolve("latest").unwrap();
        let forged = IndexEntry { run_id: "fex256:../../escaped".into(), seq: 9, ..latest };
        super::super::append_index_line(store.root(), &forged.to_json()).unwrap();
        let report = fsck(&store, true).unwrap();
        assert_eq!(report.quarantined, [forged.run_id]);
        let parent = store.root().parent().unwrap();
        assert!(!parent.join("escaped").exists() && !store.root().join("escaped").exists());
        assert_eq!(fs::read_dir(store.root().join("quarantine")).unwrap().count(), 1);
        assert!(check(&store).clean());
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

    /// Overwrites byte 5 of line `n` (1-based) of the lab index with
    /// `0xFF`, so the line is no longer UTF-8.
    fn break_utf8(store: &RunStore, n: usize) {
        let path = store.index_path();
        let mut bytes = fs::read(&path).unwrap();
        let start: usize =
            bytes.split(|&b| b == b'\n').take(n - 1).map(|line| line.len() + 1).sum();
        bytes[start + 5] = 0xFF;
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn a_non_utf8_index_line_is_reported_with_its_line_number() {
        let store = populated("non-utf8");
        break_utf8(&store, 1);
        let report = check(&store);
        assert_eq!(report.issues[0].kind, IssueKind::CorruptIndexLine, "{}", report.render());
        assert_eq!(report.issues[0].subject, "index line 1");
        assert!(report.issues[0].detail.contains("utf-8"), "{}", report.issues[0].detail);
        // The run the line described left its blob unnamed; quarantine
        // drops both and keeps the intact run.
        assert_eq!(kinds(&report)[1..], [IssueKind::UnreferencedPackBytes], "{}", report.render());
        fsck(&store, true).unwrap();
        let after = check(&store);
        assert!(after.clean(), "{}", after.render());
        assert_eq!(after.entries_checked, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_non_utf8_graph_index_line_is_reported_with_its_line_number() {
        let store = populated_with_graph("graph-non-utf8");
        break_utf8(&store, 3);
        let report = check(&store);
        let corrupt: Vec<&FsckIssue> =
            report.issues.iter().filter(|i| i.kind == IssueKind::CorruptIndexLine).collect();
        assert_eq!(corrupt.len(), 1, "{}", report.render());
        assert_eq!(corrupt[0].subject, "index line 3");
        assert!(corrupt[0].detail.contains("utf-8"), "{}", corrupt[0].detail);
        fsck(&store, true).unwrap();
        let after = check(&store);
        assert!(after.clean(), "{}", after.render());
        assert_eq!((after.entries_checked, after.graph_nodes_checked), (2, 2));
        let _ = fs::remove_dir_all(store.root());
    }

    /// A populated store with a small artifact graph beside it, stored
    /// through the real graph API so unit lines and payload digests are
    /// genuine; the newest write is a unit.
    fn populated_with_graph(tag: &str) -> RunStore {
        use fex_container::Digest;
        let store = populated(tag);
        let mut g = graph::ArtifactGraph::open(store.root()).unwrap();
        g.store_node(graph::NodeKind::Source, &Digest(1), "{\"node\":\"source\"}").unwrap();
        g.store_node(graph::NodeKind::Compiled, &Digest(2), "{\"node\":\"compiled\"}").unwrap();
        g.store_node(graph::NodeKind::RunUnit, &Digest(3), "{\"node\":\"run\"}").unwrap();
        store
    }

    #[test]
    fn clean_graph_passes() {
        let store = populated_with_graph("graph-clean");
        let report = check(&store);
        assert!(report.clean(), "{}", report.render());
        assert_eq!((report.entries_checked, report.graph_nodes_checked), (2, 3));
        assert!(report.render().contains("checked 3 graph nodes"));
        let _ = fs::remove_dir_all(store.root());
    }

    /// With a unit as the newest write, the pack corruptions land in a
    /// unit's payload.
    #[test]
    fn every_injected_graph_corruption_is_detected() {
        for corruption in Corruption::ALL {
            let store = populated_with_graph(&format!("graph-inject-{corruption}"));
            inject(&store, corruption).unwrap();
            let report = check(&store);
            let want = expected(corruption);
            assert!(
                kinds(&report).contains(&want),
                "{corruption}: wanted {want}, got {}",
                report.render()
            );
            let _ = fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn graph_quarantine_restores_a_clean_store() {
        for corruption in Corruption::ALL {
            let store = populated_with_graph(&format!("graph-quarantine-{corruption}"));
            inject(&store, corruption).unwrap();
            let report = fsck(&store, true).unwrap();
            assert!(!report.clean(), "{corruption}");
            let after = check(&store);
            assert!(after.clean(), "{corruption}: {}", after.render());
            // Damage to the newest unit never costs a run: the two intact
            // runs survive every corruption and read back.
            assert!(after.entries_checked >= 2, "{corruption} dropped a run");
            for e in store.list().unwrap() {
                assert!(store.results_csv(&e).is_ok(), "{corruption}");
            }
            let _ = fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn graph_quarantine_preserves_evidence() {
        let store = populated_with_graph("graph-evidence");
        inject(&store, Corruption::FlippedPackByte).unwrap();
        let report = fsck(&store, true).unwrap();
        assert_eq!(report.quarantined, [fex_container::Digest(3).to_string()]);
        let payload = fex_container::digest_bytes(b"{\"node\":\"run\"}");
        let name = format!("{:032x}", payload.0);
        let evidence = fs::read(store.root().join("quarantine").join(name)).unwrap();
        assert_eq!(evidence.len(), "{\"node\":\"run\"}".len());
        assert_ne!(evidence, b"{\"node\":\"run\"}", "the evidence is the edited bytes");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn quarantine_sweeps_unreferenced_pack_bytes() {
        let store = populated("unreferenced");
        let pack_len = fs::metadata(store.root().join(PACK)).unwrap().len();
        inject(&store, Corruption::TruncatedIndex).unwrap();
        let report = check(&store);
        // The torn line's blob is now named by no line.
        assert_eq!(
            kinds(&report),
            [IssueKind::CorruptIndexLine, IssueKind::UnreferencedPackBytes],
            "{}",
            report.render()
        );
        let first = store.resolve("latest").unwrap();
        let tail = format!("pack bytes {}..{pack_len}", first.range.len + 1);
        assert_eq!(report.issues[1].subject, tail);
        fsck(&store, true).unwrap();
        assert!(check(&store).clean());
        let left = fs::metadata(store.root().join(PACK)).unwrap().len();
        assert_eq!(left, first.range.len + 1, "the torn blob's bytes are gone");
        let _ = fs::remove_dir_all(store.root());
    }
}
