//! The `Fex` orchestrator: the paper's `fex.py` entry point.
//!
//! Owns the container, the makefile layers and the results store, and
//! dispatches the `install` / `run` / `plot` / `list` / `report` actions.
//! All experiments execute "inside" the simulated container; results are
//! written to its filesystem as CSV (`/fex/results/<name>.csv`) along with
//! the experiment log and the environment report (§VI: "FEX outputs
//! various environment details, so that the complete experimental setup is
//! stored in the log file").

use std::collections::HashMap;

use fex_container::{Container, Image, PackageRegistry};
use fex_netsim::ServerKind;
use fex_suites::InputSize;
use fex_vm::PassMask;

use crate::build::MakefileSet;
use crate::collect::DataFrame;
use crate::config::ExperimentConfig;
use crate::error::{FexError, Result};
use crate::install::{required_scripts, run_script};
use crate::journal::{JournalEvent, Metrics, JOURNAL_VERSION};
use crate::lab::Lab;
use crate::plot::{
    bar_height, barplot_from_frame, check_bar_cells, lineplot_from_frame, normalize_against, Plot,
    PlotKind, Series,
};
use crate::registry::{experiment, ExperimentKind};
use crate::resilience::FailureReport;
use crate::runner::{
    RunContext, Runner, SecurityRunner, ServerRunner, SuiteRunner, VariableInputRunner,
};

/// Plot requests (`fex plot -n <name> -t <kind>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlotRequest {
    /// Performance-overhead barplot, normalised against the first build
    /// type (Fig 6).
    Perf,
    /// Throughput-latency scatterline (Fig 7).
    ThroughputLatency,
    /// Runtime vs thread count lineplot.
    Scaling,
    /// Cache statistics stacked-grouped barplot.
    CacheStats,
    /// Memory overhead (max RSS) barplot.
    Memory,
}

impl PlotRequest {
    /// Parses the CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "perf" => PlotRequest::Perf,
            "tlat" | "throughput-latency" => PlotRequest::ThroughputLatency,
            "scaling" => PlotRequest::Scaling,
            "cache" => PlotRequest::CacheStats,
            "mem" | "memory" => PlotRequest::Memory,
            _ => return None,
        })
    }

    /// Renders this plot of experiment `name`'s result frame `df` (the
    /// frame `fex run` prints and writes to `<name>.csv`).
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when the frame lacks the needed columns.
    pub fn render(self, name: &str, df: &DataFrame) -> Result<Plot> {
        match self {
            Self::Perf => {
                let baseline = df
                    .distinct("type")?
                    .first()
                    .cloned()
                    .ok_or_else(|| FexError::Data("no build types in results".into()))?;
                let norm = normalize_against(df, "benchmark", "type", "time", &baseline)?;
                let mut plot = barplot_from_frame(
                    &norm,
                    "benchmark",
                    "type",
                    "normalized_time",
                    &format!("{name}: normalized runtime (w.r.t. {baseline})"),
                )?;
                plot.ylabel = format!("Normalized runtime (w.r.t. {baseline})");
                plot.hline = Some(1.0);
                Ok(plot)
            }
            Self::ThroughputLatency => {
                let mut plot =
                    Plot::new(PlotKind::ScatterLine, format!("{name}: throughput vs latency"));
                plot.xlabel = "Throughput (msg/s)".into();
                plot.ylabel = "Latency (ms)".into();
                for ty in df.distinct("type")? {
                    let sub = df.filter_eq("type", &ty)?;
                    let ti = sub.col("throughput")?;
                    let li = sub.col("mean_ms")?;
                    let pts: Vec<(f64, f64)> = sub
                        .iter()
                        .map(|r| (r[ti].as_num().unwrap_or(0.0), r[li].as_num().unwrap_or(0.0)))
                        .collect();
                    plot.series.push(Series::line(ty, pts));
                }
                Ok(plot)
            }
            Self::Scaling => {
                lineplot_from_frame(df, "threads", "type", "time", &format!("{name}: scaling"))
            }
            Self::CacheStats => {
                // Stacked-grouped: stack = miss level, group = build type.
                let mut plot = Plot::new(
                    PlotKind::StackedGroupedBar,
                    format!("{name}: cache misses by level"),
                );
                plot.categories = df.distinct("benchmark")?;
                plot.ylabel = "misses".into();
                let levels = ["l1_misses", "l2_misses", "llc_misses"];
                for level in levels {
                    check_bar_cells(df, level)?;
                }
                for ty in df.distinct("type")? {
                    for level in levels {
                        let sub = df.filter_eq("type", &ty)?;
                        let agg =
                            sub.group_agg(&["benchmark"], level, crate::collect::stats::mean)?;
                        let mut values = Vec::new();
                        for cat in &plot.categories {
                            let v = agg
                                .filter_eq("benchmark", cat)?
                                .iter()
                                .next()
                                .and_then(|r| r[1].as_num())
                                .unwrap_or(0.0);
                            values.push(bar_height(v, cat, &format!("{ty}:{level}"))?);
                        }
                        plot.series.push(Series {
                            name: format!("{ty}:{level}"),
                            values,
                            xs: None,
                            stack: Some(ty.clone()),
                            whiskers: None,
                        });
                    }
                }
                Ok(plot)
            }
            Self::Memory => {
                let baseline = df
                    .distinct("type")?
                    .first()
                    .cloned()
                    .ok_or_else(|| FexError::Data("no build types in results".into()))?;
                let norm = normalize_against(df, "benchmark", "type", "maxrss_bytes", &baseline)?;
                let mut plot = barplot_from_frame(
                    &norm,
                    "benchmark",
                    "type",
                    "normalized_maxrss_bytes",
                    &format!("{name}: normalized memory (w.r.t. {baseline})"),
                )?;
                plot.hline = Some(1.0);
                Ok(plot)
            }
        }
    }
}

/// The framework instance.
pub struct Fex {
    container: Container,
    registry: PackageRegistry,
    makefiles: MakefileSet,
    results: HashMap<String, DataFrame>,
    failure_reports: HashMap<String, FailureReport>,
    log: Vec<String>,
}

impl Fex {
    /// Boots the framework: starts a container from the shipping image.
    pub fn new() -> Self {
        Fex {
            container: Container::start(&Image::fex_shipping_image()),
            registry: PackageRegistry::standard(),
            makefiles: MakefileSet::standard(),
            results: HashMap::new(),
            failure_reports: HashMap::new(),
            log: Vec::new(),
        }
    }

    /// The container (environment inspection).
    pub fn container(&self) -> &Container {
        &self.container
    }

    /// The experiment log so far.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// `fex install -n <name>`.
    ///
    /// # Errors
    ///
    /// Unknown scripts, unknown packages and version conflicts.
    pub fn install(&mut self, script: &str) -> Result<()> {
        run_script(&mut self.container, &self.registry, script)?;
        self.log.push(format!("installed `{script}`"));
        Ok(())
    }

    /// `fex run` — executes an experiment and stores its frame (and CSV in
    /// the container).
    ///
    /// # Errors
    ///
    /// Configuration errors, missing installations, build failures and
    /// run faults.
    pub fn run(&mut self, config: &ExperimentConfig) -> Result<&DataFrame> {
        config.validate()?;
        let entry = experiment(&config.name).ok_or_else(|| FexError::UnknownName {
            kind: "experiment",
            name: config.name.clone(),
        })?;
        // Setup stage must have happened: compilers and inputs installed.
        for script in required_scripts(&config.name, &config.build_types) {
            let satisfied = crate::install::script(script)
                .map(|s| s.packages.iter().all(|(p, v)| self.container.installed(p, v)))
                .unwrap_or(false);
            if !satisfied {
                return Err(FexError::Config(format!(
                    "experiment `{}` needs `fex install -n {script}` first",
                    config.name
                )));
            }
        }
        let runner: Box<dyn Runner> = match entry.kind {
            ExperimentKind::SuitePerformance => {
                Box::new(SuiteRunner::new(suite_by_name(&config.name)?, config))
            }
            ExperimentKind::VariableInput => {
                let base = config.name.trim_end_matches("_var");
                Box::new(VariableInputRunner::new(
                    suite_by_name(base)?,
                    config,
                    vec![InputSize::Test, InputSize::Small, InputSize::Native],
                ))
            }
            ExperimentKind::Server => Box::new(ServerRunner::new(server_kind(&config.name)?)),
            ExperimentKind::Security => Box::new(SecurityRunner::new()),
        };
        let mut lab = config.lab.as_ref().map(|dir| Lab::open(dir, config.graph)).transpose()?;
        self.run_pipeline(config, runner, lab.as_mut())
    }

    /// Runs an ad-hoc [`Suite`](fex_suites::Suite) through the exact
    /// pipeline `fex run` uses — build, run, collect, journal, store —
    /// without requiring the suite to be in the experiment registry or
    /// backed by install scripts (the build system needs no container
    /// packages). This is the entry point `fex fuzz` pushes generated
    /// scenarios through, so fuzzed runs exercise the same code paths as
    /// ordinary experiments.
    ///
    /// # Errors
    ///
    /// Configuration errors, build failures and run faults, exactly as
    /// [`Fex::run`].
    pub fn run_suite(
        &mut self,
        config: &ExperimentConfig,
        suite: fex_suites::Suite,
    ) -> Result<&DataFrame> {
        config.validate()?;
        let mut lab = config.lab.as_ref().map(|dir| Lab::open(dir, config.graph)).transpose()?;
        self.run_pipeline(config, Box::new(SuiteRunner::new(suite, config)), lab.as_mut())
    }

    /// [`Fex::run_suite`] against a lab the caller holds open, so a
    /// long-lived caller (the serve daemon) neither reopens the graph nor
    /// rescans the store index per run. `config.graph` still decides
    /// whether the run consults the lab's graph.
    pub(crate) fn run_suite_in(
        &mut self,
        config: &ExperimentConfig,
        suite: fex_suites::Suite,
        lab: &mut Lab,
    ) -> Result<&DataFrame> {
        config.validate()?;
        self.run_pipeline(config, Box::new(SuiteRunner::new(suite, config)), Some(lab))
    }

    /// The shared tail of every experiment: environment recording, the
    /// journalled run phase, collection, store archival into `lab` (the
    /// run's own, opened per run by `run` and `run_suite`) and container
    /// filesystem writes.
    fn run_pipeline(
        &mut self,
        config: &ExperimentConfig,
        mut runner: Box<dyn Runner>,
        mut lab: Option<&mut Lab>,
    ) -> Result<&DataFrame> {
        // Record environment details in the log (reproducibility, §VI).
        for ty in &config.build_types {
            let env = crate::env::environment_for(ty);
            self.container.set_env("BUILD_TYPE", ty.clone());
            for (k, v) in env.spec().resolve(config.debug) {
                self.container.set_env(k, v);
            }
        }
        self.log.push(format!("environment digest: {}", self.container.environment_digest()));

        let experiment_started = std::time::Instant::now();
        // Attach the lab's artifact graph unless `--no-graph` was given:
        // run units whose whole derivation is unchanged are served from
        // the node cache. A resident graph counts every run's lookups, so
        // this run's share is the difference.
        let mut graph = lab.as_deref_mut().and_then(Lab::graph_mut).filter(|_| config.graph);
        let counted = graph.as_ref().map(|g| (g.hits(), g.misses()));
        let (frame, failures, mut journal) = {
            let mut ctx = RunContext::new(config, &self.makefiles, &mut self.log);
            ctx.graph = graph.as_deref_mut();
            ctx.journal.emit(JournalEvent::ExperimentStart {
                name: config.name.clone(),
                jobs: config.effective_jobs(),
                seed: config.seed,
                version: JOURNAL_VERSION,
            });
            ctx.journal.phase_start("run");
            let frame = runner.run(&mut ctx)?;
            ctx.journal.phase_end("run");
            (frame, std::mem::take(&mut ctx.failures), std::mem::take(&mut ctx.journal))
        };
        if let (Some(g), Some((hits_before, misses_before))) = (&graph, counted) {
            for warning in g.warnings() {
                self.log.push(format!("artifact graph: {warning}"));
            }
            let (hits, misses) = (g.hits() - hits_before, g.misses() - misses_before);
            if hits + misses > 0 {
                self.log.push(format!(
                    "artifact graph: {hits} hits / {misses} misses ({:.1}% unit hit rate)",
                    100.0 * hits as f64 / (hits + misses) as f64
                ));
            }
        }
        if !failures.is_clean() {
            self.log.push(failures.summary());
        }
        if journal.enabled() {
            // Decoded-artifact cache accounting for the whole experiment:
            // one artifact resolved per `build` event, compiled and
            // decoded unless the graph served the pair (`cache_hit`);
            // every successful execution with the cache on was served a
            // pre-decoded program.
            let count = |pred: fn(&JournalEvent) -> bool| {
                journal.events().iter().filter(|e| pred(e)).count()
            };
            let decodes = count(|e| matches!(e, JournalEvent::Build { .. }));
            let served = if config.decode_cache {
                count(|e| matches!(e, JournalEvent::VmExec { .. }))
            } else {
                0
            };
            journal.emit(JournalEvent::DecodeCache { decodes, served });
        }
        // Persist the CSV and the logs into the container's filesystem,
        // like the paper's collect stage. The failure report rides along
        // (header-only when the run was clean) so partial results are
        // always accompanied by the account of what is missing and why.
        journal.phase_start("collect");
        let results_csv = frame.to_csv();
        let failures_csv = failures.to_csv();
        journal.phase_end("collect");
        journal.emit(JournalEvent::ExperimentEnd {
            rows: frame.len(),
            failure_records: failures.records.len(),
            wall_ns: experiment_started.elapsed().as_nanos() as u64,
        });
        // Archive into the lab store, if requested. The store-write event
        // is emitted before the journal is serialized so the recorded
        // stream (in the container and in the store) accounts for the
        // archive itself.
        if let Some(lab) = &lab {
            if journal.enabled() {
                let art = crate::lab::RunArtifacts {
                    results_csv: &results_csv,
                    failures_csv: &failures_csv,
                    metrics_json: None,
                    journal_digest: None,
                };
                journal.emit(JournalEvent::StoreWrite {
                    experiment: config.name.clone(),
                    run_id: crate::lab::RunStore::run_id(config, &art),
                    seq: lab.next_seq(),
                });
            }
        }
        let (journal_jsonl, metrics_json) = if journal.enabled() {
            let metrics = Metrics::from_journal(journal.events());
            (Some(journal.to_jsonl()), Some(metrics.to_json()))
        } else {
            (None, None)
        };
        if let Some(lab) = lab {
            let digest = journal_jsonl
                .as_deref()
                .map(|j| fex_container::digest_bytes(j.as_bytes()).to_string());
            let art = crate::lab::RunArtifacts {
                results_csv: &results_csv,
                failures_csv: &failures_csv,
                metrics_json: metrics_json.as_deref(),
                journal_digest: digest.as_deref(),
            };
            let entry = lab.save(config, &art)?;
            self.log.push(format!(
                "stored run {} (seq {}) in `{}`",
                entry.run_id,
                entry.seq,
                lab.store().root().display()
            ));
        }
        self.container
            .fs_mut()
            .write(format!("/fex/results/{}.csv", config.name), results_csv.into_bytes());
        self.container
            .fs_mut()
            .write(format!("/fex/results/{}.failures.csv", config.name), failures_csv.into_bytes());
        let log_blob =
            (self.log.join("\n") + "\n" + &self.container.environment_report()).into_bytes();
        self.container.fs_mut().write(format!("/fex/results/{}.log", config.name), log_blob);
        if let (Some(jsonl), Some(metrics)) = (journal_jsonl, metrics_json) {
            // The journal and its metrics roll-up land next to the
            // results CSV; both are derived observations and never feed
            // back into the CSVs.
            self.container
                .fs_mut()
                .write(format!("/fex/results/{}.journal.jsonl", config.name), jsonl.into_bytes());
            self.container
                .fs_mut()
                .write(format!("/fex/results/{}.metrics.json", config.name), metrics.into_bytes());
        }
        self.results.insert(config.name.clone(), frame);
        self.failure_reports.insert(config.name.clone(), failures);
        Ok(&self.results[&config.name])
    }

    /// A stored result frame.
    pub fn result(&self, name: &str) -> Option<&DataFrame> {
        self.results.get(name)
    }

    /// The CSV stored in the container for an experiment.
    pub fn result_csv(&self, name: &str) -> Option<String> {
        self.container
            .fs()
            .read(&format!("/fex/results/{name}.csv"))
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// The failure report of an experiment's last run.
    pub fn failure_report(&self, name: &str) -> Option<&FailureReport> {
        self.failure_reports.get(name)
    }

    /// The failure-report CSV stored in the container for an experiment
    /// (`/fex/results/<name>.failures.csv`).
    pub fn failure_csv(&self, name: &str) -> Option<String> {
        self.container
            .fs()
            .read(&format!("/fex/results/{name}.failures.csv"))
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// The run journal stored in the container for an experiment
    /// (`/fex/results/<name>.journal.jsonl`); `None` when the run used
    /// `--no-journal` (or never happened).
    pub fn journal_jsonl(&self, name: &str) -> Option<String> {
        self.container
            .fs()
            .read(&format!("/fex/results/{name}.journal.jsonl"))
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// The metrics roll-up stored in the container for an experiment
    /// (`/fex/results/<name>.metrics.json`).
    pub fn metrics_json(&self, name: &str) -> Option<String> {
        self.container
            .fs()
            .read(&format!("/fex/results/{name}.metrics.json"))
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// `fex plot -n <name> -t <kind>` — builds the requested plot from the
    /// experiment's result in this process.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when the experiment has not been run or the
    /// frame lacks the needed columns.
    pub fn plot(&self, name: &str, request: PlotRequest) -> Result<Plot> {
        let df = self.results.get(name).ok_or_else(|| {
            FexError::Data(format!("experiment `{name}` has no results; run it first"))
        })?;
        request.render(name, df)
    }

    /// `fex test -n <suite>` (§III-A): short runs with tiny inputs that
    /// check makefiles, sources and scripts, cross-validating the exit
    /// checksum of every benchmark across all standard build types.
    ///
    /// # Errors
    ///
    /// Build or run failures; [`FexError::Data`] listing benchmarks whose
    /// builds disagree.
    pub fn selftest(&self, suite_name: &str) -> Result<String> {
        let suite = suite_by_name(suite_name)?;
        if suite.proprietary {
            return Err(FexError::Config(format!("suite `{suite_name}` is proprietary")));
        }
        let types = ["gcc_native", "gcc_asan", "clang_native", "clang_asan"];
        let mut report = String::new();
        let mut bad = Vec::new();
        for prog in &suite.programs {
            let mut exits = Vec::new();
            for ty in types {
                let artifact =
                    self.makefiles.build(prog.name, prog.source, ty, false, PassMask::all())?;
                let machine = fex_vm::Machine::new(fex_vm::MachineConfig::with_cores(2));
                let run = machine
                    .load(&artifact.program)
                    .run_entry(prog.args(InputSize::Test))
                    .map_err(|source| FexError::Run {
                        benchmark: prog.name.to_string(),
                        build_type: ty.to_string(),
                        source,
                    })?;
                exits.push(run.exit);
            }
            let consistent = exits.windows(2).all(|w| w[0] == w[1]);
            report.push_str(&format!(
                "{:<20} {}  (checksum {})\n",
                prog.name,
                if consistent { "ok" } else { "MISMATCH" },
                exits[0]
            ));
            if !consistent {
                bad.push(prog.name);
            }
        }
        if bad.is_empty() {
            Ok(report)
        } else {
            Err(FexError::Data(format!("self-test mismatches in: {bad:?}\n{report}")))
        }
    }

    /// `fex list` — registered experiments.
    pub fn list(&self) -> String {
        let mut s = String::new();
        for e in crate::registry::experiments() {
            s.push_str(&format!("{:<14} {}\n", e.name, e.description));
        }
        s
    }

    /// `fex report` — Table I plus the environment report.
    pub fn report(&self) -> String {
        format!("{}\n{}", crate::registry::table_one(), self.container.environment_report())
    }
}

impl Default for Fex {
    fn default() -> Self {
        Self::new()
    }
}

fn suite_by_name(name: &str) -> Result<fex_suites::Suite> {
    fex_suites::all_suites()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| FexError::UnknownName { kind: "suite", name: name.to_string() })
}

fn server_kind(name: &str) -> Result<ServerKind> {
    Ok(match name {
        "nginx" => ServerKind::Nginx,
        "apache" => ServerKind::Apache,
        "memcached" => ServerKind::Memcached,
        other => return Err(FexError::UnknownName { kind: "server", name: other.to_string() }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{run_diag, DiagConfig, DiagCtx, Finding, JournalSource};
    use fex_vm::MeasureTool;

    fn fex_with_compilers() -> Fex {
        let mut fex = Fex::new();
        fex.install("gcc-6.1").unwrap();
        fex.install("clang-3.8").unwrap();
        fex
    }

    /// Runs against one held lab share its graph, whose counters cover
    /// every run; each run's log line still counts only its own lookups,
    /// and each save takes the next seq without a rescan.
    #[test]
    fn runs_in_a_held_lab_log_their_own_graph_lookups() {
        let dir = std::env::temp_dir().join(format!("fex-held-lab-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test).lab(dir.to_string_lossy());
        let mut lab = Lab::open(&dir, true).unwrap();
        let mut lines = Vec::new();
        for _ in 0..2 {
            let mut fex = Fex::new();
            fex.run_suite_in(&cfg, fex_suites::micro(), &mut lab).unwrap();
            let graph = fex.log().iter().filter(|l| l.contains(" hits / ")).cloned().collect();
            let stored = fex.log().iter().filter(|l| l.starts_with("stored run")).count();
            lines.push((graph, stored));
        }
        let line = |hits, misses, rate| {
            vec![format!("artifact graph: {hits} hits / {misses} misses ({rate}% unit hit rate)")]
        };
        assert_eq!(lines, vec![(line(0, 4, "0.0"), 1), (line(4, 0, "100.0"), 1)]);
        let seqs: Vec<u64> = lab.store().list().unwrap().iter().map(|e| e.seq).collect();
        assert_eq!((seqs, lab.next_seq()), (vec![0, 1], 2));
        drop(lab);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_log_counts_each_experiments_own_decodes() {
        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test).repetitions(2);
        fex.run(&cfg).unwrap();
        fex.run(&cfg).unwrap();
        let line = fex.log().iter().rev().find(|l| l.starts_with("decoded-artifact cache:"));
        assert_eq!(
            line.map(String::as_str),
            Some("decoded-artifact cache: 4 decodes served 8 run units (4 reuses, 50.0% hit rate)")
        );
        // A warm `--lab` rerun builds and decodes nothing: each pair logs
        // that the graph served it instead.
        let lab = std::env::temp_dir().join(format!("fex-decode-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&lab);
        let labbed = cfg.lab(lab.to_string_lossy());
        fex.run(&labbed).unwrap();
        let from = fex.log().len();
        fex.run(&labbed).unwrap();
        let warm = &fex.log()[from..];
        let unbuilt = warm.iter().filter(|l| l.starts_with("not rebuilt `")).count();
        assert_eq!(unbuilt, 4, "{warm:#?}");
        assert!(
            !warm.iter().any(|l| l.starts_with("built `") || l.starts_with("decoded-artifact")),
            "{warm:#?}"
        );
        let _ = std::fs::remove_dir_all(&lab);
    }

    #[test]
    fn run_requires_setup_stage() {
        let mut fex = Fex::new();
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let err = fex.run(&cfg).unwrap_err();
        assert!(err.to_string().contains("fex install"), "{err}");
    }

    #[test]
    fn micro_experiment_end_to_end() {
        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "clang_native"])
            .input(InputSize::Test)
            .benchmark("arrayread");
        let df = fex.run(&cfg).unwrap();
        assert_eq!(df.len(), 2);
        // CSV persisted inside the container.
        let csv = fex.result_csv("micro").unwrap();
        assert!(csv.starts_with("suite,benchmark,type"));
        // Log carries the environment digest.
        assert!(fex.log().iter().any(|l| l.contains("environment digest")));
    }

    #[test]
    fn perf_plot_normalises_against_first_type() {
        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "clang_native"])
            .input(InputSize::Test);
        fex.run(&cfg).unwrap();
        let plot = fex.plot("micro", PlotRequest::Perf).unwrap();
        assert_eq!(plot.hline, Some(1.0));
        assert_eq!(plot.series.len(), 2);
        // The gcc series is the baseline: all ones.
        assert!(plot.series[0].values.iter().all(|v| (*v - 1.0).abs() < 1e-9));
        let svg = plot.to_svg();
        assert!(svg.contains("<svg"));
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let mut fex = Fex::new();
        let cfg = ExperimentConfig::new("quake3");
        assert!(matches!(fex.run(&cfg), Err(FexError::UnknownName { .. })));
        assert!(fex.plot("quake3", PlotRequest::Perf).is_err());
    }

    #[test]
    fn list_and_report_render() {
        let fex = Fex::new();
        assert!(fex.list().contains("ripe"));
        let report = fex.report();
        assert!(report.contains("SPEC CPU2006*"));
        assert!(report.contains("image: fex"));
    }

    #[test]
    fn selftest_validates_a_suite_across_types() {
        let fex = fex_with_compilers();
        let report = fex.selftest("micro").unwrap();
        assert_eq!(report.matches(" ok ").count(), 4, "{report}");
        assert!(fex.selftest("spec_cpu2006").is_err());
    }

    /// `fex diag`'s flakiness findings over an experiment's journal.
    fn flakiness_findings(fex: &Fex, name: &str, config: DiagConfig) -> Vec<Finding> {
        let jsonl = fex.journal_jsonl(name).expect("journal");
        let journal = Some(JournalSource::parse(name, &jsonl));
        let ctx = DiagCtx { journal, store: None, config };
        run_diag(&ctx).findings.into_iter().filter(|f| f.rule == "flakiness").collect()
    }

    #[test]
    fn failure_report_rides_along_with_results() {
        use crate::config::FaultInjection;
        use fex_vm::{FaultKind, FaultPlan};

        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "clang_native"])
            .input(InputSize::Test)
            .fault(FaultInjection::for_benchmark(
                "ptrchase",
                FaultPlan::persistent(FaultKind::Trap),
            ));
        let df = fex.run(&cfg).unwrap();
        // Partial frame: 3 surviving benchmarks × 2 types.
        assert_eq!(df.len(), 6);

        let report = fex.failure_report("micro").unwrap();
        assert_eq!(report.quarantined_benchmarks(), vec!["ptrchase"]);
        let csv = fex.failure_csv("micro").unwrap();
        assert!(csv.starts_with("benchmark,type,threads,rep,error,attempts,outcome"));
        assert!(csv.contains("ptrchase"));
        assert!(csv.contains("quarantined"));
        // The log carries the resilience summary.
        assert!(fex.log().iter().any(|l| l.contains("quarantined: ptrchase")));

        // Flakiness: the fixed thresholds flag the run; `--deny flakiness`
        // is how a chaos run is accepted.
        let flagged = flakiness_findings(&fex, "micro", DiagConfig::default());
        assert_eq!(flagged.len(), 2, "{flagged:?}");
        assert!(flagged[0].message.contains("(ptrchase)"), "{}", flagged[0].message);
        assert!(flagged[1].message.starts_with("retry rate"), "{}", flagged[1].message);
        let denied = DiagConfig { allow: None, deny: vec!["flakiness".into()] };
        assert_eq!(flakiness_findings(&fex, "micro", denied), vec![]);
    }

    #[test]
    fn disabled_injection_is_byte_identical_to_no_injection() {
        use crate::config::FaultInjection;
        use fex_vm::FaultPlan;

        let mut plain = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro").types(vec!["gcc_native"]).input(InputSize::Test);
        plain.run(&cfg).unwrap();
        let baseline_csv = plain.result_csv("micro").unwrap();

        let mut armed = fex_with_compilers();
        let cfg_disabled = cfg.clone().fault(FaultInjection::everywhere(FaultPlan::none()));
        armed.run(&cfg_disabled).unwrap();
        assert_eq!(armed.result_csv("micro").unwrap(), baseline_csv);

        // Clean runs still persist a (header-only) failure report.
        let fcsv = armed.failure_csv("micro").unwrap();
        assert_eq!(fcsv.trim(), "benchmark,type,threads,rep,error,attempts,outcome");
        assert!(armed.failure_report("micro").unwrap().is_clean());
        assert_eq!(flakiness_findings(&armed, "micro", DiagConfig::default()), vec![]);
    }

    #[test]
    fn lab_flag_archives_runs_and_journals_the_store_write() {
        let dir = std::env::temp_dir().join(format!("fex-lab-wf-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro")
            .types(vec!["gcc_native"])
            .benchmark("arrayread")
            .input(InputSize::Test)
            .lab(dir.to_string_lossy());
        fex.run(&cfg).unwrap();
        fex.run(&cfg).unwrap();
        let store = crate::lab::RunStore::open(&dir).unwrap();
        let entries = store.list().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].run_id, entries[1].run_id, "deterministic rerun, same content id");
        // The journal records the archive, and the stored artifacts match
        // the container's.
        assert!(fex.journal_jsonl("micro").unwrap().contains("\"store_write\""));
        assert_eq!(store.results_csv(&entries[1]).unwrap(), fex.result_csv("micro").unwrap());
        assert!(fex.log().iter().any(|l| l.contains("stored run")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_plot_uses_the_time_tool_columns() {
        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "gcc_asan"])
            .input(InputSize::Test)
            .benchmark("arraywrite")
            .tool(MeasureTool::Time);
        fex.run(&cfg).unwrap();
        let plot = fex.plot("micro", PlotRequest::Memory).unwrap();
        // ASan redzones make the instrumented build use more memory.
        let asan = &plot.series[1];
        assert!(asan.values[0] > 1.0, "asan rss ratio {:?}", asan.values);
    }
}
