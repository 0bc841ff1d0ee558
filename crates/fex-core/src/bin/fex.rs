//! The `fex` command-line tool (the paper's `fex.py`).

use std::process::ExitCode;

use fex_core::cli::{parse, Action, LabCommand, USAGE};
use fex_core::lab::{Comparison, RunStore};
use fex_core::{Fex, FexError};

/// Where `fex run` leaves its results CSV, journal and metrics.
const RESULTS_DIR: &str = "target/fex-results";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fex: {e}");
            if matches!(e, FexError::Config(_)) {
                eprintln!("\n{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, FexError> {
    let action = parse(args)?;
    // Only `fex run --lab` creates a lab. A command that reads one refuses
    // a directory without a lab index, so a mistyped `--lab` cannot pass
    // as an empty, clean lab (`fex compare` needs one only to resolve a
    // selector).
    let read_lab = match &action {
        Action::Lab { dir, .. } | Action::Graph { dir } => Some(dir.as_str()),
        Action::Diag { lab, .. } => lab.as_deref(),
        Action::Compare { baseline, candidate, dir, .. } => {
            let is_selector = |side: &String| !std::path::Path::new(side).is_file();
            [baseline, candidate].into_iter().any(is_selector).then_some(dir.as_str())
        }
        _ => None,
    };
    if let Some(dir) = read_lab.map(std::path::Path::new) {
        if !RunStore::open(dir)?.index_path().is_file() {
            let why = if dir.is_dir() {
                "no run store or artifact graph index"
            } else {
                "the directory does not exist"
            };
            return Err(FexError::Data(format!("no lab at `{}`: {why}", dir.display())));
        }
    }
    let mut fex = Fex::new();
    match action {
        Action::List => print!("{}", fex.list()),
        Action::SelfTest { name } => {
            fex.install("gcc-6.1")?;
            fex.install("clang-3.8")?;
            print!("{}", fex.selftest(&name)?);
        }
        Action::Report { journal: Some(path) } => {
            let jsonl = std::fs::read_to_string(&path)
                .map_err(|e| FexError::Data(format!("cannot read journal `{path}`: {e}")))?;
            let rendered = fex_core::journal::render_report(&jsonl);
            for warning in &rendered.warnings {
                eprintln!("fex: warning: {warning}");
            }
            if rendered.events == 0 {
                return Err(FexError::Data(format!(
                    "journal `{path}` contains no parseable events \
                     ({} malformed line(s) skipped)",
                    rendered.warnings.len()
                )));
            }
            print!("{}", rendered.report);
        }
        Action::Report { journal: None } => print!("{}", fex.report()),
        Action::Install { names } => {
            for name in names {
                fex.install(&name)?;
                println!("installed {name}");
            }
        }
        Action::Run(config) => {
            // The CLI is a fresh process each time, so perform the setup
            // stage implicitly (a long-lived embedding would call
            // `install` explicitly, as the library examples do).
            for script in fex_core::install::required_scripts(&config.name, &config.build_types) {
                fex.install(script)?;
            }
            let frame = fex.run(&config)?;
            let csv = frame.to_csv();
            println!("collected {} rows for `{}`:", frame.len(), config.name);
            print!("{csv}");
            for line in fex.log().iter().filter(|l| l.contains("stored run")) {
                eprintln!("{line}");
            }
            // Surface the results CSV and the run journal on the host
            // filesystem so `fex plot` and `fex report <path>` work
            // across processes.
            let dir = std::path::Path::new(RESULTS_DIR);
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(dir.join(format!("{}.csv", config.name)), csv);
            if let Some(jsonl) = fex.journal_jsonl(&config.name) {
                let journal_path = dir.join(format!("{}.journal.jsonl", config.name));
                if std::fs::write(&journal_path, jsonl).is_ok() {
                    eprintln!("journal: {}", journal_path.display());
                }
                if let Some(metrics) = fex.metrics_json(&config.name) {
                    let _ =
                        std::fs::write(dir.join(format!("{}.metrics.json", config.name)), metrics);
                }
            }
        }
        Action::Plot { name, request } => {
            // Each invocation is a fresh process: plot the CSV the last
            // `fex run -n <name>` in this directory wrote.
            let path = std::path::Path::new(RESULTS_DIR).join(format!("{name}.csv"));
            let csv = std::fs::read_to_string(&path).map_err(|e| {
                FexError::Data(format!(
                    "cannot read `{}` ({e}); `fex run -n {name}` writes it",
                    path.display()
                ))
            })?;
            let plot = request.render(&name, &fex_core::collect::DataFrame::from_csv(&csv)?)?;
            println!("{}", plot.to_ascii());
            println!("--- svg ---");
            println!("{}", plot.to_svg());
        }
        Action::Lab { cmd, dir } => {
            let store = RunStore::open(&dir)?;
            match cmd {
                LabCommand::List { json } => {
                    let (entries, warnings) = store.scan();
                    for w in &warnings {
                        eprintln!("fex: warning: {w}");
                    }
                    if json {
                        print!("{}", store.render_list_json(&entries));
                    } else {
                        print!("{}", store.render_list(&entries));
                    }
                }
                LabCommand::Show { selector } => {
                    let entry = store.resolve(&selector)?;
                    print!("{}", store.render_show(&entry)?);
                }
                LabCommand::Gc { keep } => {
                    let removed = store.gc(keep)?;
                    println!("removed {removed} stored runs (kept {keep} per experiment key)");
                }
                LabCommand::Fsck { quarantine } => {
                    let lab = fex_core::lab::Lab::open(&dir, false)?;
                    let report = fex_core::lab::fsck::fsck(lab.store(), quarantine)?;
                    print!("{}", report.render());
                    if !report.clean() && !quarantine {
                        eprintln!("fex: run `fex lab fsck --quarantine` to repair");
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
        }
        Action::Graph { dir } => {
            let graph = fex_core::ArtifactGraph::open(&dir)?;
            for w in graph.warnings() {
                eprintln!("fex: warning: {w}");
            }
            print!("{}", graph.render_stats());
        }
        Action::Fuzz { opts, regressions } => {
            let mut opts = opts;
            opts.break_mode = fex_core::BreakMode::from_env();
            let report = match regressions {
                Some(path) => {
                    fex_core::fuzz::replay_regressions(std::path::Path::new(&path), &opts)?
                }
                None => fex_core::fuzz::fuzz(&opts)?,
            };
            print!("{}", report.render());
            if !report.ok() {
                return Ok(ExitCode::FAILURE);
            }
        }
        Action::Serve { opts } => {
            let handle = fex_core::Server::start(opts)?;
            eprintln!("fex serve: listening on {}", handle.socket().display());
            eprintln!("fex serve: send {{\"op\": \"shutdown\"}} to drain and exit");
            let summary = handle.wait()?;
            println!(
                "served {} submissions ({} completed, {} store hits, {} evicted) \
                 across {} tenants",
                summary.submissions,
                summary.completed,
                summary.store_hits,
                summary.evictions,
                summary.tenants.len()
            );
            for (tenant, stats) in &summary.tenants {
                println!(
                    "  {tenant}: {} submissions, {} store hits, {} graph hits, {} graph misses",
                    stats.submissions, stats.store_hits, stats.graph_hits, stats.graph_misses
                );
            }
        }
        Action::Compare { baseline, candidate, dir, metric, svg } => {
            let (base_label, base_csv) = load_side(&dir, &baseline)?;
            let (cand_label, cand_csv) = load_side(&dir, &candidate)?;
            let base = fex_core::collect::DataFrame::from_csv(&base_csv)?;
            let cand = fex_core::collect::DataFrame::from_csv(&cand_csv)?;
            let cmp = Comparison::compare(&base, &cand, &metric, base_label, cand_label)?;
            print!("{}", cmp.to_table());
            let plot = cmp.to_plot();
            println!("\n{}", plot.to_ascii());
            let svg_path = svg.unwrap_or_else(|| "target/fex-results/compare.svg".to_string());
            if let Some(parent) = std::path::Path::new(&svg_path).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            std::fs::write(&svg_path, plot.to_svg())
                .map_err(|e| FexError::Data(format!("cannot write `{svg_path}`: {e}")))?;
            eprintln!("comparison plot: {svg_path}");
            if cmp.has_regression() {
                eprintln!("fex: significant regression detected");
                return Ok(ExitCode::from(2));
            }
        }
        Action::Diag { journal, lab, format, rules, deny } => {
            for id in rules.iter().chain(&deny) {
                if !fex_core::diag::rules::known_rule(id) {
                    return Err(FexError::Config(format!("unknown diag rule `{id}`")));
                }
            }
            let allow = (!rules.is_empty()).then_some(rules);
            let ctx = fex_core::DiagCtx {
                journal: journal.as_deref().map(fex_core::diag::JournalSource::load).transpose()?,
                store: lab.as_deref().map(fex_core::diag::StoreSource::open).transpose()?,
                config: fex_core::DiagConfig { allow, deny },
            };
            if let Some(store) = &ctx.store {
                for w in &store.index_warnings {
                    eprintln!("fex: warning: {w}");
                }
            }
            let report = fex_core::diag::run_diag(&ctx);
            print!("{}", fex_core::diag::output::render(&report, format));
            if report.worst() == Some(fex_core::Severity::Error) {
                eprintln!(
                    "fex: {} error-severity finding(s)",
                    report.count(fex_core::Severity::Error)
                );
                return Ok(ExitCode::from(2));
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Resolves one side of a comparison: an on-disk CSV path wins, anything
/// else is a selector (`latest`, `prev`, or a run-id prefix) in the store
/// at `lab`.
fn load_side(lab: &str, selector: &str) -> Result<(String, String), FexError> {
    if std::path::Path::new(selector).is_file() {
        let csv = std::fs::read_to_string(selector)
            .map_err(|e| FexError::Data(format!("cannot read `{selector}`: {e}")))?;
        return Ok((selector.to_string(), csv));
    }
    let store = RunStore::open(lab)?;
    let entry = store.resolve(selector)?;
    let short = entry.run_id.trim_start_matches("fex256:");
    let label = format!("{selector} ({}…)", &short[..12.min(short.len())]);
    Ok((label, store.results_csv(&entry)?))
}
