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
//! * [`store`] — the [`RunStore`]: append-only flat-JSON index plus one
//!   directory per archived run,
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
pub use fsck::{Corruption, FsckIssue, FsckReport, GraphCorruption, IssueKind};
pub use store::{IndexEntry, RunArtifacts, RunStore};

use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::config::ExperimentConfig;
use crate::error::{FexError, Result};
use crate::graph::ArtifactGraph;
use crate::journal::JsonLine;

/// The lab's one writer. Index seqs and pack offsets derive from what is
/// on disk, so every writer (a run, `gc`, `fsck`, the serve daemon for
/// its lifetime) holds a `Lab`: the write lock on `<dir>/lock`, the run
/// store with its next seq, and the artifact graph when asked for.
#[derive(Debug)]
pub struct Lab {
    store: RunStore,
    graph: Option<ArtifactGraph>,
    next_seq: u64,
    _lock: fs::File,
}

impl Lab {
    /// Opens the lab at `dir` for writing, creating the directory: takes
    /// the write lock (saying so on stderr if it has to wait), opens the
    /// store, scanning its index once for the next seq, and, when
    /// `graph` is set, the graph. Each lock is a file description of its
    /// own, so it serializes threads as well as processes: a thread
    /// holding a `Lab` must not open a second one on the same directory.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when the lock cannot be taken or the graph
    /// cannot be opened.
    pub fn open(dir: impl AsRef<Path>, graph: bool) -> Result<Lab> {
        let dir = dir.as_ref();
        let lock = lock(dir)?;
        let store = RunStore::open(dir)?;
        let next_seq = store.scan().0.iter().map(|e| e.seq).max().map_or(0, |m| m + 1);
        let graph = graph.then(|| ArtifactGraph::open(dir)).transpose()?;
        Ok(Lab { store, graph, next_seq, _lock: lock })
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

    /// Archives one completed run at the next seq: writes its artifact
    /// directory, unless an earlier save of the id completed it
    /// (`record.json`, written last, is present), and appends its index
    /// line. Returns the new entry.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] on filesystem failures.
    pub fn save(
        &mut self,
        config: &ExperimentConfig,
        art: &RunArtifacts<'_>,
    ) -> Result<IndexEntry> {
        let run_id = RunStore::run_id(config, art);
        let entry = IndexEntry {
            seq: self.next_seq,
            run_id: run_id.clone(),
            experiment: config.name.clone(),
            key: RunStore::experiment_key(config),
            rows: art.results_csv.lines().count().saturating_sub(1),
            failures: art.failures_csv.lines().count().saturating_sub(1),
        };
        let dir = self.store.run_dir(&run_id);
        let io = |e: std::io::Error| FexError::Data(format!("store write failed: {e}"));
        if !dir.join("record.json").is_file() {
            fs::create_dir_all(&dir).map_err(io)?;
            fs::write(dir.join("results.csv"), art.results_csv).map_err(io)?;
            fs::write(dir.join("failures.csv"), art.failures_csv).map_err(io)?;
            if let Some(m) = art.metrics_json {
                fs::write(dir.join("metrics.json"), m).map_err(io)?;
            }
            let record = JsonLine::object("journal_digest", art.journal_digest.unwrap_or(""));
            fs::write(dir.join("record.json"), record.finish() + "\n").map_err(io)?;
        }
        append_index_line(&self.store.index_path(), &entry.to_json()).map_err(io)?;
        self.next_seq += 1;
        Ok(entry)
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

/// Reads an append-only flat-JSON index (the run store's or the artifact
/// graph's) with per-line fault isolation: every line `parse` accepts,
/// plus one `skipping <what> line N: …` warning per line it rejects or
/// that is not UTF-8. Blank lines are skipped silently and a missing file
/// reads as empty.
pub(crate) fn scan_index<T>(
    path: &Path,
    what: &str,
    parse: impl Fn(&str) -> Result<T>,
) -> (Vec<T>, Vec<String>) {
    let Ok(bytes) = fs::read(path) else {
        return (Vec::new(), Vec::new());
    };
    let mut entries = Vec::new();
    let mut warnings = Vec::new();
    for (i, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
        let parsed = match std::str::from_utf8(raw) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => parse(line).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        match parsed {
            Ok(e) => entries.push(e),
            Err(e) => warnings.push(format!("skipping {what} line {}: {e}", i + 1)),
        }
    }
    (entries, warnings)
}

/// Appends one line to an append-only index file with a single
/// `O_APPEND` write. Only the file's last byte is read: when a previous
/// append was torn mid-line (crash), a newline seals the torn fragment
/// onto its own line so the new entry stays parseable.
pub(crate) fn append_index_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut file = fs::OpenOptions::new().read(true).append(true).create(true).open(path)?;
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
