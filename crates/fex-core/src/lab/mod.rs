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
//! * [`lock`] — the lab's one write lock (`<lab>/lock`), which every
//!   writer of the run store and the artifact graph holds.

pub mod compare;
pub mod fsck;
pub mod store;

pub use compare::{CellComparison, Comparison, SampleStats, Verdict};
pub use fsck::{Corruption, FsckIssue, FsckReport, GraphCorruption, IssueKind};
pub use store::{IndexEntry, RunArtifacts, RunStore};

use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::error::{FexError, Result};

/// Takes the write lock of the lab at `dir`: an exclusive advisory lock
/// on `<dir>/lock`, held until the returned file is dropped. Blocks
/// while another holder has it. Index seqs and pack offsets are derived
/// from what is on disk, so each write section (a run from the graph
/// open through the store save, `gc`, `fsck`) holds it throughout. Each
/// call opens its own file description, so the lock serializes threads
/// of one process as well as processes; a thread that already holds it
/// must not take it again, or it waits on itself.
///
/// # Errors
///
/// [`FexError::Data`] when the lock file cannot be created or locked.
pub fn lock(dir: impl AsRef<Path>) -> Result<fs::File> {
    let dir = dir.as_ref();
    let io =
        |e: std::io::Error| FexError::Data(format!("cannot lock lab `{}`: {e}", dir.display()));
    fs::create_dir_all(dir).map_err(io)?;
    let file = fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join("lock"))
        .map_err(io)?;
    file.lock().map_err(io)?;
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
