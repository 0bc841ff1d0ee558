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
//! straight into CI.
//!
//! * [`store`] — the [`RunStore`]: append-only flat-JSON index plus one
//!   directory per archived run,
//! * [`compare`] — the [`Comparison`] engine: per-(benchmark, build type)
//!   Welch's t-test, relative delta, Cohen's d effect size and a
//!   four-way [`Verdict`],
//! * [`fsck`] — `fex lab fsck`: integrity checking, quarantine, and the
//!   deterministic disk-corruption injector that exercises both.

pub mod compare;
pub mod fsck;
pub mod store;

pub use compare::{CellComparison, Comparison, SampleStats, Verdict};
pub use fsck::{Corruption, FsckIssue, FsckReport, GraphCorruption, IssueKind};
pub use store::{IndexEntry, RunArtifacts, RunStore};

use std::fs;
use std::path::Path;

use crate::error::Result;

/// Reads an append-only flat-JSON index (the run store's or the artifact
/// graph's) with per-line fault isolation: every line `parse` accepts,
/// plus one `skipping <what> line N: …` warning per line it rejects.
/// Blank lines are skipped silently and a missing file reads as empty.
pub(crate) fn scan_index<T>(
    path: &Path,
    what: &str,
    parse: impl Fn(&str) -> Result<T>,
) -> (Vec<T>, Vec<String>) {
    let Ok(text) = fs::read_to_string(path) else {
        return (Vec::new(), Vec::new());
    };
    let mut entries = Vec::new();
    let mut warnings = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Ok(e) => entries.push(e),
            Err(e) => warnings.push(format!("skipping {what} line {}: {e}", i + 1)),
        }
    }
    (entries, warnings)
}

/// Appends one line to an append-only index file.
pub(crate) fn append_index_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut index = fs::read_to_string(path).unwrap_or_default();
    if !index.is_empty() && !index.ends_with('\n') {
        // A previous append was torn mid-line (crash); seal the torn
        // fragment onto its own line so the new entry stays parseable.
        index.push('\n');
    }
    index.push_str(line);
    index.push('\n');
    fs::write(path, index)
}
