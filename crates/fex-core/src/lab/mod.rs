//! The lab subsystem: a persistent, content-addressed result store plus
//! the statistical comparison workflow built on top of it.
//!
//! The paper treats every `fex run` as ephemeral — results live in the
//! simulated container and vanish with the process. The lab closes the
//! loop for the paper's "evaluation-driven development" vision: completed
//! experiments are archived on the real filesystem (default `.fex-lab/`)
//! keyed by a content digest of their configuration and results, and
//! `fex compare <baseline> <candidate>` replays Welch's t-test over any
//! two archived (or on-disk CSV) runs to produce a per-benchmark verdict
//! table, a CI-whisker comparison plot, and a nonzero exit status on a
//! statistically significant regression — a regression gate that drops
//! straight into CI. This is fex's only regression gate: `fex diag`'s
//! `significant-regression` rule runs the same comparison over the
//! newest two archived runs, and its `flakiness` rule gates retries and
//! quarantines from the run journal.
//!
//! A lab is one append-only log:
//!
//! ```text
//! <lab>/
//!   lock         # the write lock every writer holds
//!   index.json   # one flat JSON object per line, append-only: run lines
//!                # (the run store's) and unit lines (the artifact graph's)
//!   pack         # every blob and payload, appended in write order, each
//!                # followed by a newline
//! ```
//!
//! Every index line names one byte range of the pack and the digest its
//! bytes hash to. A write appends its bytes to the pack first and its
//! index line second, so a crash between the two leaves pack bytes no
//! line names; the next write lands after them. Only this module and
//! [`crate::graph`] know the layout.
//!
//! * [`store`] — the [`RunStore`]: the run lines and their blobs,
//! * [`compare`] — the [`Comparison`] engine: per-(benchmark, build type)
//!   Welch's t-test, relative delta, Cohen's d effect size and a
//!   four-way [`Verdict`],
//! * [`fsck`] — `fex lab fsck`: integrity checking, quarantine, and the
//!   deterministic disk-corruption injector that exercises both,
//! * [`Lab`] — the lab's one writer: the write lock (`<lab>/lock`), the
//!   run store's next seq and the artifact graph, held together.

pub mod compare;
pub mod fsck;
pub mod store;

pub use compare::{CellComparison, Comparison, SampleStats, Verdict};
pub use fsck::{Corruption, FsckIssue, FsckReport, IssueKind};
pub use store::{IndexEntry, RunArtifacts, RunStore};

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

use fex_container::{digest_bytes, Digest};

use crate::config::ExperimentConfig;
use crate::error::{FexError, Result};
use crate::graph::{ArtifactGraph, GraphIndexEntry};
use crate::journal::{self, Json, JsonLine};

/// The index's file name under the lab root.
pub(crate) const INDEX: &str = "index.json";
/// The pack's file name under the lab root.
pub(crate) const PACK: &str = "pack";

/// The lab's one writer. Index seqs derive from what is on disk, so
/// every writer (a run, `gc`, `fsck`, the serve daemon for its lifetime)
/// holds a `Lab`: the write lock on `<dir>/lock`, the run store with its
/// next seq, and the artifact graph when asked for.
#[derive(Debug)]
pub struct Lab {
    store: RunStore,
    graph: Option<ArtifactGraph>,
    next_seq: u64,
    /// The first run line of each stored run id: a later save of the id
    /// reuses its blob.
    saved: HashMap<String, IndexEntry>,
    _lock: fs::File,
}

impl Lab {
    /// Opens the lab at `dir` for writing, creating the directory: takes
    /// the write lock (saying so on stderr if it has to wait), scans the
    /// index once for the next seq and the stored runs, and, when `graph`
    /// is set, builds the graph from the same scan. Each lock is a file
    /// description of its own, so it serializes threads as well as
    /// processes: a thread holding a `Lab` must not open a second one on
    /// the same directory.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when `dir` holds an older lab layout, the lock
    /// cannot be taken or the pack cannot be opened.
    pub fn open(dir: impl AsRef<Path>, graph: bool) -> Result<Lab> {
        let dir = dir.as_ref();
        let store = RunStore::open(dir)?;
        let lock = lock(dir)?;
        let (lines, warnings) = scan(dir);
        let mut saved = HashMap::new();
        let mut next_seq = 0;
        for line in &lines {
            if let Line::Run(e) = line {
                next_seq = next_seq.max(e.seq + 1);
                saved.entry(e.run_id.clone()).or_insert_with(|| e.clone());
            }
        }
        let graph = graph.then(|| ArtifactGraph::from_scan(dir, &lines, warnings)).transpose()?;
        Ok(Lab { store, graph, next_seq, saved, _lock: lock })
    }

    /// The run store.
    pub fn store(&self) -> &RunStore {
        &self.store
    }

    /// The artifact graph, when the lab was opened with one.
    pub(crate) fn graph_mut(&mut self) -> Option<&mut ArtifactGraph> {
        self.graph.as_mut()
    }

    /// The seq the next [`Lab::save`] archives at.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Archives one completed run at the next seq: appends its blob (the
    /// results CSV, the failures CSV and the metrics roll-up) to the
    /// pack, unless an earlier save of the id stored one, and then its
    /// run line to the index. A re-saved id's line reuses the first
    /// save's blob and journal digest. Returns the new entry.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] on filesystem failures.
    pub fn save(
        &mut self,
        config: &ExperimentConfig,
        art: &RunArtifacts<'_>,
    ) -> Result<IndexEntry> {
        let io = |e: io::Error| FexError::Data(format!("store write failed: {e}"));
        let run_id = RunStore::run_id(config, art);
        let entry = match self.saved.get(&run_id) {
            Some(first) => IndexEntry { seq: self.next_seq, ..first.clone() },
            None => {
                let blob =
                    [art.results_csv, art.failures_csv, art.metrics_json.unwrap_or("")].concat();
                let mut pack = open_pack(self.store.root(), true).map_err(io)?;
                IndexEntry {
                    seq: self.next_seq,
                    run_id: run_id.clone(),
                    experiment: config.name.clone(),
                    key: RunStore::experiment_key(config),
                    rows: art.results_csv.lines().count().saturating_sub(1),
                    failures: art.failures_csv.lines().count().saturating_sub(1),
                    journal_digest: art.journal_digest.unwrap_or("").to_string(),
                    range: append_pack(&mut pack, blob.as_bytes()).map_err(io)?,
                    results_len: art.results_csv.len() as u64,
                    failures_len: art.failures_csv.len() as u64,
                }
            }
        };
        append_index_line(self.store.root(), &entry.to_json()).map_err(io)?;
        self.saved.entry(run_id).or_insert_with(|| entry.clone());
        self.next_seq += 1;
        Ok(entry)
    }
}

/// Refuses a lab directory in the layout older builds wrote: one
/// directory per run under `runs/` and the artifact graph under `graph/`.
pub(crate) fn refuse_old_layout(root: &Path) -> Result<()> {
    match ["runs", "graph"].into_iter().find(|d| root.join(d).is_dir()) {
        Some(old) => Err(FexError::Data(format!(
            "lab `{}` has the layout of an older fex (it holds `{old}/`); this fex keeps a lab \
             as one `index.json` and `pack`: move the directory aside and re-run its \
             experiments into a new lab",
            root.display()
        ))),
        None => Ok(()),
    }
}

/// Takes the exclusive advisory lock on `<dir>/lock`, held until the
/// returned file drops. When another holder has it, prints one line to
/// stderr and blocks.
fn lock(dir: &Path) -> Result<fs::File> {
    let io =
        |e: std::io::Error| FexError::Data(format!("cannot lock lab `{}`: {e}", dir.display()));
    fs::create_dir_all(dir).map_err(io)?;
    let file = fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join("lock"))
        .map_err(io)?;
    match file.try_lock() {
        Ok(()) => {}
        Err(fs::TryLockError::WouldBlock) => {
            eprintln!("waiting for the lab lock on {}", dir.display());
            file.lock().map_err(io)?;
        }
        Err(fs::TryLockError::Error(e)) => return Err(io(e)),
    }
    Ok(file)
}

// ---------------------------------------------------------------------
// The index and the pack
// ---------------------------------------------------------------------

/// A byte range of the lab's pack and the digest its bytes hash to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackRange {
    /// Where the range starts in the pack.
    pub offset: u64,
    /// Its length in bytes (the newline after it excluded).
    pub len: u64,
    /// Digest of the bytes as written.
    pub digest: Digest,
}

impl PackRange {
    pub(crate) fn write(&self, w: &mut JsonLine) {
        w.str("payload", &self.digest.to_string())
            .field("offset", &self.offset)
            .field("len", &self.len);
    }

    fn parse(map: &BTreeMap<String, Json>) -> Result<PackRange> {
        let bad = |i: journal::ParseIssue| FexError::Data(format!("corrupt lab index: {i}"));
        let payload: String = journal::get(map, "payload").map_err(bad)?;
        Ok(PackRange {
            digest: crate::graph::parse_digest(&payload).ok_or_else(|| {
                FexError::Data(format!("corrupt lab index: bad payload digest `{payload}`"))
            })?,
            offset: journal::get(map, "offset").map_err(bad)?,
            len: journal::get(map, "len").map_err(bad)?,
        })
    }

    /// The range's bytes, or as many of them as lie before the pack's
    /// end: a range past the end reads short (or empty).
    pub(crate) fn read(&self, pack: &File) -> io::Result<Vec<u8>> {
        let readable = pack.metadata()?.len().saturating_sub(self.offset).min(self.len);
        let mut bytes = vec![0; readable as usize];
        pack.read_exact_at(&mut bytes, self.offset)?;
        Ok(bytes)
    }

    /// The range's bytes when the pack holds all of them and they still
    /// hash to the range's digest.
    pub(crate) fn read_verified(&self, pack: &File) -> Option<Vec<u8>> {
        self.read(pack)
            .ok()
            .filter(|bytes| bytes.len() as u64 == self.len && digest_bytes(bytes) == self.digest)
    }
}

/// One line of the lab index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Line {
    /// A stored run (it has a `run_id`).
    Run(IndexEntry),
    /// An artifact-graph node.
    Unit(GraphIndexEntry),
}

impl Line {
    fn parse(text: &str) -> Result<Line> {
        let bad = |i: journal::ParseIssue| FexError::Data(format!("corrupt lab index: {i}"));
        let map = journal::parse_flat_object(text).map_err(bad)?;
        let range = PackRange::parse(&map)?;
        if map.contains_key("run_id") {
            IndexEntry::parse(&map, range).map(Line::Run).map_err(bad)
        } else {
            GraphIndexEntry::parse(&map, range).map(Line::Unit)
        }
    }

    pub(crate) fn to_json(&self) -> String {
        match self {
            Line::Run(e) => e.to_json(),
            Line::Unit(e) => e.to_json(),
        }
    }

    /// The run id or node digest the line stores.
    pub(crate) fn id(&self) -> &str {
        match self {
            Line::Run(e) => &e.run_id,
            Line::Unit(e) => &e.digest,
        }
    }

    pub(crate) fn range(&self) -> &PackRange {
        match self {
            Line::Run(e) => &e.range,
            Line::Unit(e) => &e.range,
        }
    }

    fn range_mut(&mut self) -> &mut PackRange {
        match self {
            Line::Run(e) => &mut e.range,
            Line::Unit(e) => &mut e.range,
        }
    }
}

/// Reads the lab index under `root` with per-line fault isolation: every
/// line that parses, in file order, plus one `skipping index line N: …`
/// warning per line that does not or is not UTF-8. Blank lines are
/// skipped silently and a missing index reads as empty.
pub(crate) fn scan(root: &Path) -> (Vec<Line>, Vec<String>) {
    let Ok(bytes) = fs::read(root.join(INDEX)) else {
        return (Vec::new(), Vec::new());
    };
    let mut lines = Vec::new();
    let mut warnings = Vec::new();
    for (i, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
        let parsed = match std::str::from_utf8(raw) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => Line::parse(line).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        match parsed {
            Ok(line) => lines.push(line),
            Err(e) => warnings.push(format!("skipping index line {}: {e}", i + 1)),
        }
    }
    (lines, warnings)
}

/// Appends one line to the lab index with a single `O_APPEND` write.
/// Only the file's last byte is read: when a previous append was torn
/// mid-line (crash), a newline seals the torn fragment onto its own line
/// so the new entry stays parseable.
pub(crate) fn append_index_line(root: &Path, line: &str) -> io::Result<()> {
    let mut file =
        fs::OpenOptions::new().read(true).append(true).create(true).open(root.join(INDEX))?;
    let mut record = String::with_capacity(line.len() + 2);
    if file.metadata()?.len() > 0 {
        let mut last = [0u8; 1];
        file.seek(SeekFrom::End(-1))?;
        file.read_exact(&mut last)?;
        if last[0] != b'\n' {
            record.push('\n');
        }
    }
    record.push_str(line);
    record.push('\n');
    file.write_all(record.as_bytes())
}

/// Opens the pack under `root` for reads and appends, creating it (and
/// `root`) when `create` is set.
pub(crate) fn open_pack(root: &Path, create: bool) -> io::Result<File> {
    if create {
        fs::create_dir_all(root)?;
    }
    fs::OpenOptions::new().read(true).append(true).create(create).open(root.join(PACK))
}

/// Appends `bytes` and a newline to the pack in one write and returns
/// the range they occupy.
pub(crate) fn append_pack(pack: &mut File, bytes: &[u8]) -> io::Result<PackRange> {
    let offset = pack.seek(SeekFrom::End(0))?;
    let mut record = Vec::with_capacity(bytes.len() + 1);
    record.extend_from_slice(bytes);
    record.push(b'\n');
    pack.write_all(&record)?;
    Ok(PackRange { offset, len: bytes.len() as u64, digest: digest_bytes(bytes) })
}

/// Rewrites the lab under `root` to hold exactly `lines`, in order: each
/// range they name is copied once into a new pack (lines sharing a range
/// keep sharing it), the lines are pointed at the new offsets, and the
/// new pack and then the new index are renamed into place. A line whose
/// range the pack no longer holds in full is dropped. Serves `gc` and
/// `fsck --quarantine`; the caller holds the lab lock.
pub(crate) fn rewrite(root: &Path, lines: Vec<Line>) -> io::Result<()> {
    let old = File::open(root.join(PACK)).ok();
    let (pack_tmp, index_tmp) = (root.join("pack.new"), root.join("index.json.new"));
    let mut pack = BufWriter::new(File::create(&pack_tmp)?);
    let mut moved: HashMap<(u64, u64), u64> = HashMap::new();
    let mut end = 0;
    let mut index = String::new();
    for mut line in lines {
        let range = line.range_mut();
        let offset = match moved.get(&(range.offset, range.len)) {
            Some(&offset) => offset,
            None => {
                let bytes = old.as_ref().and_then(|p| range.read(p).ok());
                let Some(bytes) = bytes.filter(|b| b.len() as u64 == range.len) else {
                    continue;
                };
                pack.write_all(&bytes)?;
                pack.write_all(b"\n")?;
                let offset = end;
                moved.insert((range.offset, range.len), offset);
                end += range.len + 1;
                offset
            }
        };
        range.offset = offset;
        index.push_str(&line.to_json());
        index.push('\n');
    }
    pack.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
    fs::write(&index_tmp, index)?;
    fs::rename(pack_tmp, root.join(PACK))?;
    fs::rename(index_tmp, root.join(INDEX))
}
