//! Command-line parsing for the `fex` binary, mirroring `fex.py`:
//!
//! ```text
//! fex install -n gcc-6.1
//! fex run -n phoenix -t gcc_native gcc_asan [-b histogram] [-m 1 2 4]
//!         [-r 10] [-i test] [-v] [-d] [--tool time]
//! fex plot -n phoenix -t perf
//! fex list
//! fex report
//! ```
//!
//! Every action reads its arguments through one `Flags` cursor, so a
//! missing value (`{flag} needs {what}`) and a malformed number
//! (``bad {noun} `{value}` ``) are spelled once. The CLI carries only
//! what a workload sets; the VM's debug switches (pass subsets, the
//! decoded-program cache) and the scheduler's claim size are
//! [`ExperimentConfig`] builders for the code that measures them.

use std::iter::Peekable;
use std::slice::Iter;
use std::str::FromStr;

use crate::config::{input_from_name, tool_from_name, ExperimentConfig, Repetitions};
use crate::error::{FexError, Result};
use crate::lab::RunStore;
use crate::workflow::PlotRequest;

/// A parsed CLI action.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// `fex install -n <name>` (repeatable names).
    Install {
        /// Script names.
        names: Vec<String>,
    },
    /// `fex run …`.
    Run(Box<ExperimentConfig>),
    /// `fex plot -n <name> -t <kind>`.
    Plot {
        /// Experiment name.
        name: String,
        /// Plot kind.
        request: PlotRequest,
    },
    /// `fex test -n <suite>` — tiny-input self-checks (§III-A).
    SelfTest {
        /// Suite name.
        name: String,
    },
    /// `fex list`.
    List,
    /// `fex report [journal]`: with a path, render that run journal's
    /// phase/time breakdown and per-unit timeline; bare, print the
    /// support matrix + environment.
    Report {
        /// Path to a `journal.jsonl` to render.
        journal: Option<String>,
    },
    /// `fex lab <list|show|gc>`: inspect the on-disk run store.
    Lab {
        /// Subcommand.
        cmd: LabCommand,
        /// Store directory (`--lab`, default `.fex-lab`).
        dir: String,
    },
    /// `fex fuzz [--seed S] [--cases N]`: seeded scenario fuzzing of the
    /// whole pipeline against the invariant oracle, or
    /// `--regressions <file>` to replay committed seeds.
    Fuzz {
        /// Fuzzing options (seed, case count, bundle dir, shrink cap).
        opts: crate::fuzz::FuzzOptions,
        /// Replay a `<seed> <case>` regression file instead of fuzzing.
        regressions: Option<String>,
    },
    /// `fex graph stats`: per-kind node counts and size of the
    /// content-addressed artifact graph inside a lab directory.
    Graph {
        /// Lab directory holding the graph (`--lab`, default
        /// `.fex-lab`).
        dir: String,
    },
    /// `fex compare <baseline> <candidate>`: per-benchmark Welch's
    /// t-test with a verdict table and comparison plots.
    Compare {
        /// Baseline selector: a CSV path, a run-id prefix, `latest` or
        /// `prev`.
        baseline: String,
        /// Candidate selector, same forms.
        candidate: String,
        /// Store directory selectors resolve in (`--lab`).
        dir: String,
        /// Metric column compared (`--metric`, default `time`).
        metric: String,
        /// Where the SVG comparison plot is written (`--svg`).
        svg: Option<String>,
    },
    /// `fex serve`: run the multi-tenant experiment daemon until a
    /// client sends `{"op": "shutdown"}`.
    Serve {
        /// Daemon options (socket path, lab dir, worker count, queue
        /// capacity).
        opts: crate::serve::ServeOptions,
    },
    /// `fex diag [journal] [--lab [dir]]`: run the diagnostics rule
    /// registry over a journal and/or the lab store. Exits 2 on any
    /// error-severity finding, 1 on unreadable input, 0 otherwise.
    Diag {
        /// Journal path to audit.
        journal: Option<String>,
        /// Lab store to audit (`--lab`, optional value, default
        /// `.fex-lab`).
        lab: Option<String>,
        /// Output format (`--format`, default human).
        format: crate::diag::DiagFormat,
        /// Allow-list override (`--rules`, comma-separated ids).
        rules: Vec<String>,
        /// Deny-list additions (`--deny`, comma-separated ids).
        deny: Vec<String>,
    },
}

/// A `fex lab` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum LabCommand {
    /// `fex lab list`: one line per archived run.
    List {
        /// Emit one flat-JSON object per line instead of the table.
        json: bool,
    },
    /// `fex lab show <selector>`: summary statistics of one run.
    Show {
        /// Run-id prefix, `latest` or `prev`.
        selector: String,
    },
    /// `fex lab gc --keep <n>`: drop all but the newest `n` runs per
    /// experiment key.
    Gc {
        /// Runs kept per key.
        keep: usize,
    },
    /// `fex lab fsck [--quarantine]`: check store integrity; with
    /// `--quarantine`, move damaged runs aside and rewrite the index.
    Fsck {
        /// Repair mode: quarantine damaged runs instead of just
        /// reporting.
        quarantine: bool,
    },
}

/// Usage text.
pub const USAGE: &str = "\
usage: fex <action> [options]

actions:
  install -n <script>...          install compilers/dependencies/benchmarks
  run     -n <experiment> [opts]  build + run + collect an experiment
  plot    -n <experiment> -t <perf|tlat|scaling|cache|mem>
  test    -n <suite>              tiny-input self-checks across all types
  list                            list registered experiments
  report [journal.jsonl]          render a run journal (phase breakdown +
                                  per-unit timeline); bare: print the
                                  support matrix + environment
  lab <list|show|gc|fsck>         inspect / repair the result store
  graph stats                     artifact-graph node counts (incremental
                                  evaluation cache inside the lab)
  compare <baseline> <candidate>  per-benchmark Welch's t-test between two
                                  runs; exits 2 on significant regression
  fuzz [opts]                     seeded scenario fuzzing with an invariant
                                  oracle; exits 1 on an oracle violation
  serve [opts]                    multi-tenant experiment daemon on a local
                                  socket; identical submissions are served
                                  from the shared graph/store cache
  diag [journal] [--lab [dir]]    audit a run journal and/or the lab store
                                  with the diagnostics rule registry;
                                  exits 2 on an error-severity finding

run options:
  -t <type>...   build types (default gcc_native)
  -b <name>      single benchmark
  -m <n>...      thread counts (default 1)
  -r <n>         repetitions (default 1; with --adaptive: the minimum)
  --adaptive <pct>  adaptive repetitions: repeat each cell until the 95%
                 CI half-width is <= pct% of the mean, or --max-reps
  --max-reps <n> adaptive repetition budget per cell (default 16)
  -i <size>      input size: test | small | native (default native)
  --tool <t>     perf-stat | perf-stat-mem | time (default perf-stat)
  -v             verbose
  -d             debug builds
  --jobs <n>     parallel run-unit workers; 0 = auto
                 (default: available cores, capped at 16)
  --no-journal   skip the structured run journal (journal.jsonl +
                 metrics.json); result CSVs are identical either way
  --lab [dir]    archive results into the run store (default .fex-lab)
  --no-graph     skip the artifact graph: execute every run unit even
                 when its cached result is bit-identical (results are
                 the same either way; warm re-runs just get slower)

lab / compare options:
  --lab <dir>    result store directory (default .fex-lab)
  --json         lab list: one flat-JSON object per line instead of the
                 table (fields + the repro score, CI-consumable)
  --keep <n>     lab gc: runs kept per experiment key (default 1)
  --quarantine   lab fsck: move damaged runs aside and rewrite the index
  --metric <m>   compare: metric column to test (default time)
  --svg <path>   compare: write the SVG comparison plot here
                 (default target/fex-results/compare.svg)

fuzz options:
  --seed <n>          master seed (default 42)
  --cases <n>         scenarios to generate and check (default 25)
  --bundle <dir>      repro bundle directory (default target/fex-fuzz)
  --max-shrink <n>    shrink-candidate evaluation cap (default 48)
  --regressions <f>   replay `<seed> <case>` lines from a file instead

serve options:
  --socket <path>  Unix socket to listen on (default .fex-serve.sock)
  --lab <dir>      shared store + artifact graph (default .fex-lab)
  --workers <n>    worker threads draining the queue (default 2)
  --queue <n>      bounded queue capacity; overflow submissions are
                   refused and journaled as evictions (default 64)

diag options:
  --lab [dir]      audit this lab store (default .fex-lab); history rules
                   (regression, cache drop) need at least two stored runs
  --format <f>     human | sarif | github (default human)
  --rules <ids>    comma-separated allow-list; only these rules run
  --deny <ids>     comma-separated deny-list; these rules never run

compare selectors are CSV paths, archived run-id prefixes, `latest`, or
`prev` (the two newest store entries).
";

/// Parses `args` (without the program name).
///
/// # Errors
///
/// [`FexError::Config`] with a message suitable for printing alongside
/// [`USAGE`].
pub fn parse(args: &[String]) -> Result<Action> {
    let mut flags = Flags(args.iter().peekable());
    let action = flags.next().ok_or_else(|| config("missing action"))?;
    match action {
        "list" => Ok(Action::List),
        "test" => {
            let mut name = None;
            while let Some(flag) = flags.next() {
                match flag {
                    "-n" => name = flags.next().map(String::from),
                    other => return Err(unknown("test", other)),
                }
            }
            Ok(Action::SelfTest { name: name.ok_or_else(|| config("test needs -n <suite>"))? })
        }
        "report" => {
            let journal = flags.next().map(String::from);
            if let Some(extra) = flags.next() {
                return Err(config(format!("unexpected report argument `{extra}`")));
            }
            Ok(Action::Report { journal })
        }
        "lab" => {
            let sub = flags
                .next()
                .ok_or_else(|| config("lab needs a subcommand: list | show | gc | fsck"))?;
            let mut dir = String::from(RunStore::DEFAULT_DIR);
            let (mut keep, mut quarantine, mut json) = (1, false, false);
            let mut positional: Vec<String> = Vec::new();
            while let Some(tok) = flags.next() {
                match tok {
                    "--quarantine" => quarantine = true,
                    "--json" => json = true,
                    "--lab" => dir = flags.value(tok, "a directory")?,
                    "--keep" => keep = flags.num(tok, "a count", "keep count")?,
                    other if !other.starts_with('-') => positional.push(other.to_string()),
                    other => return Err(unknown("lab", other)),
                }
            }
            let cmd = match sub {
                "list" => LabCommand::List { json },
                "show" => LabCommand::Show {
                    selector: positional
                        .pop()
                        .ok_or_else(|| config("lab show needs a run selector"))?,
                },
                "gc" => LabCommand::Gc { keep },
                "fsck" => LabCommand::Fsck { quarantine },
                other => return Err(config(format!("unknown lab subcommand `{other}`"))),
            };
            if let Some(extra) = positional.first() {
                return Err(config(format!("unexpected `{extra}`")));
            }
            Ok(Action::Lab { cmd, dir })
        }
        "graph" => {
            let sub = flags.next().ok_or_else(|| config("graph needs a subcommand: stats"))?;
            if sub != "stats" {
                return Err(config(format!("unknown graph subcommand `{sub}`")));
            }
            let mut dir = String::from(RunStore::DEFAULT_DIR);
            while let Some(tok) = flags.next() {
                match tok {
                    "--lab" => dir = flags.value(tok, "a directory")?,
                    other => return Err(unknown("graph", other)),
                }
            }
            Ok(Action::Graph { dir })
        }
        "fuzz" => {
            let mut opts = crate::fuzz::FuzzOptions::default();
            let mut regressions = None;
            while let Some(tok) = flags.next() {
                match tok {
                    "--seed" => opts.seed = flags.num(tok, "a value", "seed")?,
                    "--cases" => opts.cases = flags.num(tok, "a value", "case count")?,
                    "--bundle" => opts.bundle_dir = flags.value(tok, "a value")?.into(),
                    "--max-shrink" => opts.max_shrink = flags.num(tok, "a value", "shrink cap")?,
                    "--regressions" => regressions = Some(flags.value(tok, "a value")?),
                    other => return Err(unknown("fuzz", other)),
                }
            }
            Ok(Action::Fuzz { opts, regressions })
        }
        "serve" => {
            let mut opts = crate::serve::ServeOptions::default();
            while let Some(tok) = flags.next() {
                match tok {
                    "--socket" => opts.socket = flags.value(tok, "a value")?.into(),
                    "--lab" => opts.lab = flags.value(tok, "a value")?,
                    "--workers" => opts.workers = flags.num(tok, "a value", "worker count")?,
                    "--queue" => opts.queue_cap = flags.num(tok, "a value", "queue capacity")?,
                    other => return Err(unknown("serve", other)),
                }
            }
            if opts.queue_cap == 0 {
                return Err(config("--queue must be at least 1"));
            }
            Ok(Action::Serve { opts })
        }
        "diag" => {
            let mut journal: Option<String> = None;
            let mut lab: Option<String> = None;
            let mut format = crate::diag::DiagFormat::Human;
            let mut rules: Vec<String> = Vec::new();
            let mut deny: Vec<String> = Vec::new();
            while let Some(tok) = flags.next() {
                match tok {
                    "--lab" => lab = Some(flags.optional_lab()),
                    "--format" => {
                        format = crate::diag::DiagFormat::parse(&flags.value(tok, "a name")?)?;
                    }
                    "--rules" => rules.extend(rule_ids(tok, flags.next())?),
                    "--deny" => deny.extend(rule_ids(tok, flags.next())?),
                    other if !other.starts_with('-') => {
                        if journal.replace(other.to_string()).is_some() {
                            return Err(config(format!(
                                "diag takes one journal path; unexpected `{other}`"
                            )));
                        }
                    }
                    other => return Err(unknown("diag", other)),
                }
            }
            if journal.is_none() && lab.is_none() {
                return Err(config("diag needs a journal path and/or --lab <dir>"));
            }
            Ok(Action::Diag { journal, lab, format, rules, deny })
        }
        "compare" => {
            let mut dir = String::from(RunStore::DEFAULT_DIR);
            let mut metric = String::from("time");
            let mut svg: Option<String> = None;
            let mut positional: Vec<String> = Vec::new();
            while let Some(tok) = flags.next() {
                match tok {
                    "--lab" => dir = flags.value(tok, "a directory")?,
                    "--metric" => metric = flags.value(tok, "a name")?,
                    "--svg" => svg = Some(flags.value(tok, "a path")?),
                    other if !other.starts_with('-') => positional.push(other.to_string()),
                    other => return Err(unknown("compare", other)),
                }
            }
            let [baseline, candidate] = <[String; 2]>::try_from(positional)
                .map_err(|_| config("compare needs <baseline> <candidate>"))?;
            Ok(Action::Compare { baseline, candidate, dir, metric, svg })
        }
        "install" => {
            let mut names = Vec::new();
            while let Some(tok) = flags.next() {
                match tok {
                    "-n" => names.extend(flags.bare()),
                    other => return Err(config(format!("unexpected `{other}`"))),
                }
            }
            if names.is_empty() {
                return Err(config("install needs -n <script>"));
            }
            Ok(Action::Install { names })
        }
        "plot" => {
            let (mut name, mut kind) = (None, None);
            while let Some(flag) = flags.next() {
                match flag {
                    "-n" => name = flags.next().map(String::from),
                    "-t" => kind = flags.next(),
                    other => return Err(unknown("plot", other)),
                }
            }
            let name = name.ok_or_else(|| config("plot needs -n <name>"))?;
            let kind = kind.ok_or_else(|| config("plot needs -t <kind>"))?;
            let request = PlotRequest::parse(kind)
                .ok_or_else(|| config(format!("unknown plot kind `{kind}`")))?;
            Ok(Action::Plot { name, request })
        }
        "run" => parse_run(flags),
        other => Err(config(format!("unknown action `{other}`"))),
    }
}

/// `fex run …`: the flags map onto an [`ExperimentConfig`], which then
/// validates itself.
fn parse_run(mut flags: Flags<'_>) -> Result<Action> {
    let mut name: Option<String> = None;
    let mut types: Vec<String> = Vec::new();
    let mut threads: Vec<usize> = Vec::new();
    let mut reps: Option<usize> = None;
    let mut adaptive_pct: Option<f64> = None;
    let mut max_reps: Option<usize> = None;
    let mut cfg = ExperimentConfig::new("");
    while let Some(flag) = flags.next() {
        match flag {
            "-n" => name = flags.next().map(String::from),
            "-t" => types = flags.bare(),
            "-m" => {
                threads = flags
                    .bare()
                    .iter()
                    .map(|s| number(s, "thread count"))
                    .collect::<Result<_>>()?;
            }
            "-b" => cfg.benchmark = Some(flags.value(flag, "a benchmark")?),
            "-r" => reps = Some(flags.num(flag, "a count", "repetitions")?),
            "--adaptive" => {
                adaptive_pct = Some(flags.num(flag, "a precision percentage", "precision")?);
            }
            "--max-reps" => max_reps = Some(flags.num(flag, "a count", "rep budget")?),
            "--lab" => cfg.lab = Some(flags.optional_lab()),
            "-i" => cfg.input = input_from_name(&flags.value(flag, "a size")?)?,
            "--tool" => cfg.tool = tool_from_name(&flags.value(flag, "a name")?)?,
            "-v" => cfg.verbose = true,
            "-d" => cfg.debug = true,
            "--jobs" => cfg.jobs = flags.num(flag, "a count", "job count")?,
            "--no-journal" => cfg.journal = false,
            "--no-graph" => cfg.graph = false,
            other => return Err(unknown("run", other)),
        }
    }
    cfg.name = name.ok_or_else(|| config("run needs -n <experiment>"))?;
    if !types.is_empty() {
        cfg.build_types = types;
    }
    if !threads.is_empty() {
        cfg.threads = threads;
    }
    cfg.repetitions = match adaptive_pct {
        Some(pct) => Repetitions::Adaptive {
            // `-r` is the floor under --adaptive; variance needs at
            // least 2 samples.
            min: reps.unwrap_or(2).max(2),
            max: max_reps.unwrap_or(16),
            rel_precision: pct / 100.0,
        },
        None if max_reps.is_some() => return Err(config("--max-reps needs --adaptive")),
        None => Repetitions::Fixed(reps.unwrap_or(1)),
    };
    cfg.validate()?;
    Ok(Action::Run(Box::new(cfg)))
}

/// A cursor over one action's arguments.
struct Flags<'a>(Peekable<Iter<'a, String>>);

impl<'a> Flags<'a> {
    /// The next token, whatever it is.
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value `flag` requires: `{flag} needs {what}` when the
    /// arguments end first.
    fn value(&mut self, flag: &str, what: &str) -> Result<String> {
        self.next().map(String::from).ok_or_else(|| config(format!("{flag} needs {what}")))
    }

    /// [`Flags::value`] parsed as a number named `noun` in its error.
    fn num<T: FromStr>(&mut self, flag: &str, what: &str, noun: &str) -> Result<T> {
        number(&self.value(flag, what)?, noun)
    }

    /// The directory of `--lab [dir]`: the next token unless it is a
    /// flag, else the default lab.
    fn optional_lab(&mut self) -> String {
        self.bare_one().unwrap_or_else(|| RunStore::DEFAULT_DIR.into())
    }

    /// The values up to the next `-`-prefixed token.
    fn bare(&mut self) -> Vec<String> {
        std::iter::from_fn(|| self.bare_one()).collect()
    }

    fn bare_one(&mut self) -> Option<String> {
        self.0.next_if(|v| !v.starts_with('-')).cloned()
    }
}

fn number<T: FromStr>(value: &str, noun: &str) -> Result<T> {
    value.parse().map_err(|_| config(format!("bad {noun} `{value}`")))
}

/// The ids of a comma-separated `--rules`/`--deny` list. A restriction
/// that names no rule is a mistake, not "all rules".
fn rule_ids(flag: &str, list: Option<&str>) -> Result<Vec<String>> {
    let ids: Vec<String> = list
        .into_iter()
        .flat_map(|l| l.split(','))
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if ids.is_empty() {
        return Err(config(format!("{flag} needs rule ids")));
    }
    Ok(ids)
}

fn unknown(action: &str, flag: &str) -> FexError {
    config(format!("unknown {action} flag `{flag}`"))
}

fn config(msg: impl Into<String>) -> FexError {
    FexError::Config(msg.into())
}

#[cfg(test)]
mod tests {
    use fex_vm::{MeasureTool, PassMask};

    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_rejects_unbounded_jobs_and_threads() {
        let err = parse(&argv("run -n micro --jobs 100000")).unwrap_err().to_string();
        assert!(err.contains("`jobs` must be at most"), "{err}");
        let err = parse(&argv("run -n micro -m 1 100000")).unwrap_err().to_string();
        assert!(err.contains("`threads` must be at most"), "{err}");
        assert!(parse(&argv("run -n micro --jobs 256 -m 1 64")).is_ok());
    }

    #[test]
    fn parses_the_papers_example_invocations() {
        // ">> fex.py run -n phoenix -t gcc_native"
        let Action::Run(cfg) = parse(&argv("run -n phoenix -t gcc_native")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(cfg.name, "phoenix");
        assert_eq!(cfg.build_types, vec!["gcc_native"]);

        // ">> fex.py run -n splash -t gcc_native clang_native"
        let Action::Run(cfg) = parse(&argv("run -n splash -t gcc_native clang_native")).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(cfg.build_types.len(), 2);

        // ">> fex.py install -n gcc-6.1"
        assert_eq!(
            parse(&argv("install -n gcc-6.1")).unwrap(),
            Action::Install { names: vec!["gcc-6.1".into()] }
        );

        // ">> fex.py plot -n phoenix -t perf"
        assert_eq!(
            parse(&argv("plot -n phoenix -t perf")).unwrap(),
            Action::Plot { name: "phoenix".into(), request: PlotRequest::Perf }
        );
    }

    #[test]
    fn parses_all_run_flags() {
        let Action::Run(cfg) = parse(&argv(
            "run -n phoenix -t gcc_native gcc_asan -b histogram -m 1 2 4 -r 10 -i test -v -d --tool time --jobs 4",
        ))
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(cfg.benchmark.as_deref(), Some("histogram"));
        assert_eq!(cfg.threads, vec![1, 2, 4]);
        assert_eq!(cfg.repetitions, Repetitions::Fixed(10));
        assert!(cfg.verbose && cfg.debug);
        assert_eq!(cfg.tool, MeasureTool::Time);
        assert_eq!(cfg.jobs, 4);
        assert_eq!(cfg.lab, None, "runs stay ephemeral unless --lab is given");
        // Every experiment rebuilds; there is no flag to skip it. The VM
        // debug switches and the claim size are library settings only.
        for removed in [
            "--no-build",
            "--no-fusion",
            "--passes none",
            "--no-pass fuse",
            "--no-mru",
            "--no-decode-cache",
            "--chunk 8",
        ] {
            let err = parse(&argv(&format!("run -n micro {removed}"))).unwrap_err();
            let flag = removed.split(' ').next().unwrap();
            assert!(err.to_string().contains(&format!("unknown run flag `{flag}`")), "{err}");
        }
    }

    #[test]
    fn parses_adaptive_repetition_flags() {
        let Action::Run(cfg) = parse(&argv("run -n micro --adaptive 5")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(cfg.repetitions, Repetitions::Adaptive { min: 2, max: 16, rel_precision: 0.05 });
        let Action::Run(cfg) =
            parse(&argv("run -n micro -r 3 --adaptive 2.5 --max-reps 8")).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(cfg.repetitions, Repetitions::Adaptive { min: 3, max: 8, rel_precision: 0.025 });
        // --max-reps is meaningless without --adaptive; garbage rejected.
        assert!(parse(&argv("run -n micro --max-reps 8")).is_err());
        assert!(parse(&argv("run -n micro --adaptive never")).is_err());
        assert!(parse(&argv("run -n micro --adaptive 0")).is_err(), "validation rejects pct 0");
    }

    #[test]
    fn lab_flag_takes_an_optional_directory() {
        let Action::Run(cfg) = parse(&argv("run -n micro --lab")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(cfg.lab.as_deref(), Some(".fex-lab"));
        let Action::Run(cfg) = parse(&argv("run -n micro --lab /tmp/store -v")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(cfg.lab.as_deref(), Some("/tmp/store"));
        assert!(cfg.verbose, "flags after --lab still parse");
    }

    #[test]
    fn parses_lab_subcommands() {
        assert_eq!(
            parse(&argv("lab list")).unwrap(),
            Action::Lab { cmd: LabCommand::List { json: false }, dir: ".fex-lab".into() }
        );
        assert_eq!(
            parse(&argv("lab list --json --lab /tmp/store")).unwrap(),
            Action::Lab { cmd: LabCommand::List { json: true }, dir: "/tmp/store".into() }
        );
        assert_eq!(
            parse(&argv("lab show latest --lab /tmp/store")).unwrap(),
            Action::Lab {
                cmd: LabCommand::Show { selector: "latest".into() },
                dir: "/tmp/store".into()
            }
        );
        assert_eq!(
            parse(&argv("lab gc --keep 3")).unwrap(),
            Action::Lab { cmd: LabCommand::Gc { keep: 3 }, dir: ".fex-lab".into() }
        );
        assert!(parse(&argv("lab")).is_err());
        assert!(parse(&argv("lab show")).is_err(), "show needs a selector");
        assert!(parse(&argv("lab frobnicate")).is_err());
        assert!(parse(&argv("lab list extra")).is_err());
    }

    #[test]
    fn parses_lab_fsck() {
        assert_eq!(
            parse(&argv("lab fsck")).unwrap(),
            Action::Lab { cmd: LabCommand::Fsck { quarantine: false }, dir: ".fex-lab".into() }
        );
        assert_eq!(
            parse(&argv("lab fsck --quarantine --lab /tmp/store")).unwrap(),
            Action::Lab { cmd: LabCommand::Fsck { quarantine: true }, dir: "/tmp/store".into() }
        );
        assert!(parse(&argv("lab fsck extra")).is_err());
    }

    #[test]
    fn parses_diag() {
        let Action::Diag { journal, lab, format, rules, deny } =
            parse(&argv("diag target/fex-results/micro.journal.jsonl")).unwrap()
        else {
            panic!("expected diag");
        };
        assert_eq!(journal.as_deref(), Some("target/fex-results/micro.journal.jsonl"));
        assert_eq!(lab, None);
        assert_eq!(format, crate::diag::DiagFormat::Human);
        assert!(rules.is_empty() && deny.is_empty());
    }

    #[test]
    fn parses_diag_flags() {
        let Action::Diag { journal, lab, format, rules, deny } = parse(&argv(
            "diag j.jsonl --lab /tmp/store --format sarif \
             --rules flakiness,variance-anomaly --deny variance-anomaly",
        ))
        .unwrap() else {
            panic!("expected diag");
        };
        assert_eq!(journal.as_deref(), Some("j.jsonl"));
        assert_eq!(lab.as_deref(), Some("/tmp/store"));
        assert_eq!(format, crate::diag::DiagFormat::Sarif);
        assert_eq!(rules, vec!["flakiness".to_string(), "variance-anomaly".to_string()]);
        assert_eq!(deny, vec!["variance-anomaly".to_string()]);
    }

    #[test]
    fn diag_lab_takes_an_optional_value() {
        let Action::Diag { journal, lab, .. } = parse(&argv("diag --lab --format github")).unwrap()
        else {
            panic!("expected diag");
        };
        assert_eq!(journal, None);
        assert_eq!(lab.as_deref(), Some(".fex-lab"), "bare --lab defaults");
    }

    #[test]
    fn diag_rejects_bad_invocations() {
        assert!(parse(&argv("diag")).is_err(), "needs a journal or --lab");
        assert!(parse(&argv("diag a.jsonl b.jsonl")).is_err(), "one journal only");
        assert!(parse(&argv("diag j.jsonl --format xml")).is_err());
        assert!(parse(&argv("diag j.jsonl --frobnicate")).is_err());
        // Removed flags fail loudly rather than being ignored.
        for removed in ["--config x", "--jobs 2"] {
            let err = parse(&argv(&format!("diag j.jsonl {removed}"))).unwrap_err();
            assert!(err.to_string().contains("unknown diag flag"), "{err}");
        }
        // A restriction that names nothing is an error, not "every rule".
        for flag in ["--rules", "--deny"] {
            for list in [None, Some(""), Some(","), Some(" , ")] {
                let mut args = argv(&format!("diag j.jsonl {flag}"));
                args.extend(list.map(String::from));
                let err = parse(&args).unwrap_err();
                assert!(err.to_string().contains(&format!("{flag} needs rule ids")), "{err}");
            }
        }
    }

    #[test]
    fn parses_graph_stats() {
        assert_eq!(parse(&argv("graph stats")).unwrap(), Action::Graph { dir: ".fex-lab".into() });
        assert_eq!(
            parse(&argv("graph stats --lab /tmp/store")).unwrap(),
            Action::Graph { dir: "/tmp/store".into() }
        );
        assert!(parse(&argv("graph")).is_err());
        assert!(parse(&argv("graph prune")).is_err());
        assert!(parse(&argv("graph stats --frob")).is_err());
    }

    #[test]
    fn parses_no_graph() {
        let Action::Run(cfg) = parse(&argv("run -n micro")).unwrap() else {
            panic!("expected run");
        };
        assert!(cfg.graph, "the artifact graph is on by default");
        let Action::Run(cfg) = parse(&argv("run -n micro --no-graph")).unwrap() else {
            panic!("expected run");
        };
        assert!(!cfg.graph);
    }

    #[test]
    fn parses_fuzz() {
        let Action::Fuzz { opts, regressions } = parse(&argv("fuzz")).unwrap() else {
            panic!("expected fuzz");
        };
        assert_eq!((opts.seed, opts.cases), (42, 25), "CI smoke defaults");
        assert_eq!(regressions, None);

        let Action::Fuzz { opts, regressions } = parse(&argv(
            "fuzz --seed 7 --cases 3 --bundle /tmp/bundles --max-shrink 10 \
             --regressions tests/fuzz_regressions.txt",
        ))
        .unwrap() else {
            panic!("expected fuzz");
        };
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.cases, 3);
        assert_eq!(opts.bundle_dir, std::path::PathBuf::from("/tmp/bundles"));
        assert_eq!(opts.max_shrink, 10);
        assert_eq!(regressions.as_deref(), Some("tests/fuzz_regressions.txt"));

        assert!(parse(&argv("fuzz --seed")).is_err());
        assert!(parse(&argv("fuzz --cases soon")).is_err());
        assert!(parse(&argv("fuzz --sparkle")).is_err());
    }

    #[test]
    fn parses_compare() {
        assert_eq!(
            parse(&argv("compare prev latest")).unwrap(),
            Action::Compare {
                baseline: "prev".into(),
                candidate: "latest".into(),
                dir: ".fex-lab".into(),
                metric: "time".into(),
                svg: None,
            }
        );
        assert_eq!(
            parse(&argv("compare a.csv b.csv --lab /s --metric cycles --svg out.svg")).unwrap(),
            Action::Compare {
                baseline: "a.csv".into(),
                candidate: "b.csv".into(),
                dir: "/s".into(),
                metric: "cycles".into(),
                svg: Some("out.svg".into()),
            }
        );
        assert!(parse(&argv("compare onlyone")).is_err());
        assert!(parse(&argv("compare a b c")).is_err());
        assert!(parse(&argv("compare a b --sparkle")).is_err());
    }

    #[test]
    fn hot_path_optimisations_are_on_by_default() {
        let Action::Run(cfg) = parse(&argv("run -n micro")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(cfg.passes, PassMask::all());
        assert!(cfg.decode_cache);
    }

    #[test]
    fn jobs_flag_defaults_to_auto_and_rejects_garbage() {
        let Action::Run(cfg) = parse(&argv("run -n micro")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(cfg.jobs, 0, "auto by default");
        let Action::Run(cfg) = parse(&argv("run -n micro --jobs 0")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(cfg.jobs, 0, "explicit auto");
        assert!(parse(&argv("run -n micro --jobs")).is_err());
        assert!(parse(&argv("run -n micro --jobs many")).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run -t gcc_native")).is_err(), "missing -n");
        assert!(parse(&argv("run -n x -m zero")).is_err());
        assert!(parse(&argv("plot -n x -t sparkline")).is_err());
        assert!(parse(&argv("run -n x -i huge")).is_err());
        assert!(parse(&argv("install")).is_err());
    }

    #[test]
    fn list_and_report_are_bare() {
        assert_eq!(parse(&argv("list")).unwrap(), Action::List);
        assert_eq!(parse(&argv("report")).unwrap(), Action::Report { journal: None });
    }

    #[test]
    fn report_takes_an_optional_journal_path() {
        assert_eq!(
            parse(&argv("report target/fex-results/micro.journal.jsonl")).unwrap(),
            Action::Report { journal: Some("target/fex-results/micro.journal.jsonl".into()) }
        );
        assert!(parse(&argv("report a.jsonl b.jsonl")).is_err(), "at most one journal");
    }

    #[test]
    fn serve_defaults_and_flags_parse() {
        let Action::Serve { opts } = parse(&argv("serve")).unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(opts, crate::serve::ServeOptions::default());
        let Action::Serve { opts } =
            parse(&argv("serve --socket /tmp/s.sock --lab /tmp/lab --workers 4 --queue 9"))
                .unwrap()
        else {
            panic!("expected serve");
        };
        assert_eq!(opts.socket, std::path::PathBuf::from("/tmp/s.sock"));
        assert_eq!(opts.lab, "/tmp/lab");
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.queue_cap, 9);
    }

    #[test]
    fn serve_rejects_bad_flags_and_degenerate_queues() {
        assert!(parse(&argv("serve --port 80")).is_err());
        assert!(parse(&argv("serve --workers many")).is_err());
        assert!(parse(&argv("serve --queue 0")).is_err(), "a zero-capacity queue serves nobody");
        assert!(parse(&argv("serve --socket")).is_err(), "--socket needs a value");
    }

    /// The exact message of every missing, malformed or stray value, per
    /// action: each row is an argument line and the `FexError::Config`
    /// text it must produce.
    #[test]
    fn every_flag_error_message_is_pinned() {
        let table = [
            ("", "missing action"),
            ("frobnicate", "unknown action `frobnicate`"),
            // test
            ("test", "test needs -n <suite>"),
            ("test -n", "test needs -n <suite>"),
            ("test -x", "unknown test flag `-x`"),
            // report
            ("report a b", "unexpected report argument `b`"),
            // install
            ("install", "install needs -n <script>"),
            ("install -n", "install needs -n <script>"),
            ("install gcc", "unexpected `gcc`"),
            ("install -n gcc -x", "unexpected `-x`"),
            // plot
            ("plot -t perf", "plot needs -n <name>"),
            ("plot -t perf -n", "plot needs -n <name>"),
            ("plot -n micro", "plot needs -t <kind>"),
            ("plot -n micro -t", "plot needs -t <kind>"),
            ("plot -n micro -t pie", "unknown plot kind `pie`"),
            ("plot -x", "unknown plot flag `-x`"),
            // lab
            ("lab", "lab needs a subcommand: list | show | gc | fsck"),
            ("lab list --lab", "--lab needs a directory"),
            ("lab gc --keep", "--keep needs a count"),
            ("lab gc --keep x", "bad keep count `x`"),
            ("lab show", "lab show needs a run selector"),
            ("lab prune", "unknown lab subcommand `prune`"),
            ("lab list extra", "unexpected `extra`"),
            ("lab list -x", "unknown lab flag `-x`"),
            // graph
            ("graph", "graph needs a subcommand: stats"),
            ("graph prune", "unknown graph subcommand `prune`"),
            ("graph stats --lab", "--lab needs a directory"),
            ("graph stats -x", "unknown graph flag `-x`"),
            // fuzz
            ("fuzz --seed", "--seed needs a value"),
            ("fuzz --seed x", "bad seed `x`"),
            ("fuzz --cases", "--cases needs a value"),
            ("fuzz --cases x", "bad case count `x`"),
            ("fuzz --bundle", "--bundle needs a value"),
            ("fuzz --max-shrink", "--max-shrink needs a value"),
            ("fuzz --max-shrink x", "bad shrink cap `x`"),
            ("fuzz --regressions", "--regressions needs a value"),
            ("fuzz -x", "unknown fuzz flag `-x`"),
            // serve
            ("serve --socket", "--socket needs a value"),
            ("serve --lab", "--lab needs a value"),
            ("serve --workers", "--workers needs a value"),
            ("serve --workers x", "bad worker count `x`"),
            ("serve --queue", "--queue needs a value"),
            ("serve --queue x", "bad queue capacity `x`"),
            ("serve --queue 0", "--queue must be at least 1"),
            ("serve -x", "unknown serve flag `-x`"),
            // diag
            ("diag", "diag needs a journal path and/or --lab <dir>"),
            ("diag j --format", "--format needs a name"),
            ("diag j --format xml", "unknown diag format `xml` (expected human, sarif or github)"),
            ("diag j --rules", "--rules needs rule ids"),
            ("diag j --deny", "--deny needs rule ids"),
            ("diag j k", "diag takes one journal path; unexpected `k`"),
            ("diag j -x", "unknown diag flag `-x`"),
            // compare
            ("compare a b --lab", "--lab needs a directory"),
            ("compare a b --metric", "--metric needs a name"),
            ("compare a b --svg", "--svg needs a path"),
            ("compare a", "compare needs <baseline> <candidate>"),
            ("compare a b -x", "unknown compare flag `-x`"),
            // run
            ("run", "run needs -n <experiment>"),
            ("run -n", "run needs -n <experiment>"),
            ("run -n micro -b", "-b needs a benchmark"),
            ("run -n micro -r", "-r needs a count"),
            ("run -n micro -r x", "bad repetitions `x`"),
            ("run -n micro -m 1 x", "bad thread count `x`"),
            ("run -n micro --adaptive", "--adaptive needs a precision percentage"),
            ("run -n micro --adaptive x", "bad precision `x`"),
            ("run -n micro --max-reps", "--max-reps needs a count"),
            ("run -n micro --max-reps x", "bad rep budget `x`"),
            ("run -n micro --max-reps 8", "--max-reps needs --adaptive"),
            ("run -n micro -i", "-i needs a size"),
            ("run -n micro -i huge", "unknown input size `huge`"),
            ("run -n micro --tool", "--tool needs a name"),
            ("run -n micro --tool x", "unknown tool `x`"),
            ("run -n micro --jobs", "--jobs needs a count"),
            ("run -n micro --jobs x", "bad job count `x`"),
            ("run -n micro -x", "unknown run flag `-x`"),
        ];
        for (line, want) in table {
            match parse(&argv(line)) {
                Err(FexError::Config(got)) => assert_eq!(got, want, "`fex {line}`"),
                other => panic!("`fex {line}`: expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn journal_is_on_by_default_with_an_escape_hatch() {
        let Action::Run(cfg) = parse(&argv("run -n micro")).unwrap() else {
            panic!("expected run");
        };
        assert!(cfg.journal);
        let Action::Run(cfg) = parse(&argv("run -n micro --no-journal")).unwrap() else {
            panic!("expected run");
        };
        assert!(!cfg.journal);
    }
}
