//! The evaluation matrix `M` and the labs it runs against.
//!
//! `M` is Phoenix (7 benchmarks) plus SPLASH (12) × {gcc, clang} ×
//! {native, asan} × small input × 3 repetitions × 1 thread: 76 builds,
//! 228 measured run units and Phoenix's 28 dry-run units.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use fex_core::journal::parse_line;
use fex_core::{ExperimentConfig, Fex, JournalEvent, PlotRequest};
use fex_suites::{InputSize, Suite};

/// Build types of `M`.
pub const TYPES: [&str; 4] = ["gcc_native", "clang_native", "gcc_asan", "clang_asan"];
/// Repetitions per cell.
pub const REPS: usize = 3;
/// Scheduler workers: the host's two cores.
pub const JOBS: usize = 2;
/// Install scripts `M` needs.
pub const SCRIPTS: [&str; 4] = ["gcc-6.1", "clang-3.8", "phoenix_inputs", "splash_inputs"];

/// The suites of `M`.
pub fn suites() -> Vec<Suite> {
    vec![fex_suites::phoenix(), fex_suites::splash()]
}

/// Every benchmark of `M` as (suite index, name), in suite order.
pub fn benchmarks() -> Vec<(usize, &'static str)> {
    suites()
        .iter()
        .enumerate()
        .flat_map(|(s, suite)| suite.programs.iter().map(move |p| (s, p.name)))
        .collect()
}

/// Run units `M` has for one benchmark: 3 reps per type, plus one dry run
/// per type for Phoenix.
pub fn units_of(suite: usize, bench: &str) -> usize {
    let dry = suites()[suite].program(bench).is_some_and(|p| p.dry_run);
    TYPES.len() * (REPS + usize::from(dry))
}

/// The experiment configuration of one suite of `M`.
pub fn config(suite: &str, lab: Option<&Path>) -> ExperimentConfig {
    let cfg = ExperimentConfig::new(suite)
        .types(TYPES.to_vec())
        .input(InputSize::Small)
        .repetitions(REPS)
        .jobs(JOBS);
    match lab {
        Some(dir) => cfg.lab(dir.to_string_lossy()),
        None => cfg,
    }
}

/// Boots `Fex` and runs the install scripts `M` needs.
pub fn boot() -> Result<Fex, String> {
    let mut fex = Fex::new();
    for script in SCRIPTS {
        fex.install(script).map_err(|e| format!("install {script}: {e}"))?;
    }
    Ok(fex)
}

/// `M` with benchmark `bench` given a unique, semantically neutral
/// trailing comment, so its sources re-key and nothing else does.
pub fn edited(bench: (usize, &str), edit: u64) -> Vec<Suite> {
    let mut all = suites();
    let prog = all[bench.0]
        .programs
        .iter_mut()
        .find(|p| p.name == bench.1)
        .expect("edited benchmark is in M");
    prog.source =
        Box::leak(format!("{}\n// benchmark edit {edit}\n", prog.source).into_boxed_str());
    all
}

/// Work counts of one evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Compilations.
    pub builds: usize,
    /// Decodes.
    pub decodes: usize,
    /// Artifact-graph lookups served.
    pub graph_hits: usize,
    /// Artifact-graph lookups that missed.
    pub graph_misses: usize,
    /// Run units executed or served (`vm_exec` events).
    pub vm_execs: usize,
    /// Graph misses per benchmark.
    pub missed: BTreeMap<String, usize>,
}

impl Counts {
    /// The counts recorded in one experiment journal.
    pub fn from_journal(jsonl: &str) -> Counts {
        let mut c = Counts::default();
        for event in jsonl.lines().filter_map(|l| parse_line(l).ok()) {
            match event {
                JournalEvent::Build { .. } => c.builds += 1,
                JournalEvent::DecodeCache { decodes, .. } => c.decodes += decodes,
                JournalEvent::GraphHit { .. } => c.graph_hits += 1,
                JournalEvent::GraphMiss { benchmark, .. } => {
                    c.graph_misses += 1;
                    *c.missed.entry(benchmark).or_insert(0) += 1;
                }
                JournalEvent::VmExec { .. } => c.vm_execs += 1,
                _ => {}
            }
        }
        c
    }

    /// Adds another evaluation's counts.
    pub fn add(&mut self, other: &Counts) {
        self.builds += other.builds;
        self.decodes += other.decodes;
        self.graph_hits += other.graph_hits;
        self.graph_misses += other.graph_misses;
        self.vm_execs += other.vm_execs;
        for (bench, n) in &other.missed {
            *self.missed.entry(bench.clone()).or_insert(0) += n;
        }
    }
}

/// What one evaluation of `M` produced.
#[derive(Debug, Clone, Default)]
pub struct Output {
    /// Results CSV per suite.
    pub results: Vec<String>,
    /// Failures CSV per suite.
    pub failures: Vec<String>,
    /// Perf plot SVG per suite.
    pub svgs: Vec<String>,
    /// Work counts from the journals.
    pub counts: Counts,
}

/// Evaluates `suites` against the lab at `lab`, then renders each suite's
/// Perf plot: the paper's build-run-collect-plot loop.
pub fn evaluate(fex: &mut Fex, suites: &[Suite], lab: &Path) -> Result<Output, String> {
    let mut out = Output::default();
    for suite in suites {
        let name = suite.name;
        fex.run_suite(&config(name, Some(lab)), suite.clone())
            .map_err(|e| format!("{name}: {e}"))?;
        let missing = |what: &str| format!("{name}: no {what} after the run");
        out.results.push(fex.result_csv(name).ok_or_else(|| missing("results CSV"))?);
        out.failures.push(fex.failure_csv(name).ok_or_else(|| missing("failures CSV"))?);
        let journal = fex.journal_jsonl(name).ok_or_else(|| missing("journal"))?;
        out.counts.add(&Counts::from_journal(&journal));
    }
    for suite in suites {
        let plot = fex.plot(suite.name, PlotRequest::Perf).map_err(|e| e.to_string())?;
        out.svgs.push(plot.to_svg());
    }
    Ok(out)
}

/// Whether a failures CSV holds its header only.
pub fn header_only(csv: &str) -> bool {
    csv.lines().count() == 1
}

/// Removes `dir` if present and creates it empty.
pub fn reset(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir)
}

/// Makes the tree at `dst` a copy of the tree at `src`. Only what differs
/// is deleted or copied: an op changes a few dozen of a lab's hundreds of
/// files, and deleting files is slow on some file systems.
pub fn restore(src: &Path, dst: &Path) -> io::Result<()> {
    fs::create_dir_all(dst)?;
    for entry in fs::read_dir(dst)? {
        let entry = entry?;
        let from = src.join(entry.file_name());
        let (is_dir, was_dir) = (entry.file_type()?.is_dir(), from.is_dir());
        if !from.exists() || is_dir != was_dir {
            if is_dir {
                fs::remove_dir_all(entry.path())?;
            } else {
                fs::remove_file(entry.path())?;
            }
        }
    }
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            restore(&entry.path(), &to)?;
        } else if fs::read(&to).ok() != Some(fs::read(entry.path())?) {
            fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// Lines of the lab's store index and graph index.
pub fn index_lines(lab: &Path) -> (usize, usize) {
    let lines = |p: &Path| fs::read_to_string(p).map_or(0, |text| text.lines().count());
    (lines(&lab.join("index.json")), lines(&lab.join("graph").join("index.json")))
}

/// Size of a file in KiB (0 when absent).
pub fn file_kb(path: &Path) -> f64 {
    fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_makes_an_exact_copy() {
        let root = std::env::temp_dir().join(format!("fexperf-restore-{}", std::process::id()));
        let (src, dst) = (root.join("src"), root.join("dst"));
        reset(&src).unwrap();
        fs::create_dir_all(src.join("a/b")).unwrap();
        fs::write(src.join("a/b/f"), "one").unwrap();
        fs::write(src.join("index"), "1\n").unwrap();
        restore(&src, &dst).unwrap();
        fs::write(dst.join("index"), "1\n2\n").unwrap();
        fs::create_dir_all(dst.join("new")).unwrap();
        fs::write(dst.join("new/g"), "x").unwrap();
        fs::write(dst.join("a/b/f"), "two").unwrap();
        restore(&src, &dst).unwrap();
        assert_eq!(fs::read_to_string(dst.join("index")).unwrap(), "1\n");
        assert_eq!(fs::read_to_string(dst.join("a/b/f")).unwrap(), "one");
        assert!(!dst.join("new").exists());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn matrix_shape() {
        assert_eq!(benchmarks().len(), 19);
        let units: usize = benchmarks().iter().map(|(s, b)| units_of(*s, b)).sum();
        assert_eq!(units, 228 + 28);
    }

    #[test]
    fn edits_touch_one_benchmark() {
        let clean = suites();
        let dirty = edited((1, "fft"), 5);
        for (c, d) in clean.iter().zip(&dirty) {
            for (pc, pd) in c.programs.iter().zip(&d.programs) {
                assert_eq!(pc.source == pd.source, pc.name != "fft", "{}", pc.name);
            }
        }
        assert_ne!(
            edited((1, "fft"), 6)[1].program("fft").map(|p| p.source),
            dirty[1].program("fft").map(|p| p.source)
        );
    }
}
