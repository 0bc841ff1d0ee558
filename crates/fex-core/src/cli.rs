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

use fex_vm::PassMask;

use crate::config::{input_from_name, tool_from_name, ExperimentConfig, Repetitions};
use crate::error::{FexError, Result};
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
  --chunk <n>    units each worker claims per grab; 0 = auto
                 (tuned from the matrix width)
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

debug escape hatches (measured results are identical either way):
  --passes <list>    decode pass pipeline subset, comma-separated in
                     pipeline order (trace,fuse), or all/none
  --no-pass <name>   drop one pass from the pipeline (repeatable)
  --no-mru           disable the cache simulator's MRU fast path
  --no-decode-cache  re-decode programs on every run unit
";

/// Parses `args` (without the program name).
///
/// # Errors
///
/// [`FexError::Config`] with a message suitable for printing alongside
/// [`USAGE`].
pub fn parse(args: &[String]) -> Result<Action> {
    let mut it = args.iter().peekable();
    let action = it.next().ok_or_else(|| FexError::Config("missing action".into()))?;
    match action.as_str() {
        "list" => Ok(Action::List),
        "test" => {
            let mut name = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "-n" => name = it.next().cloned(),
                    other => return Err(FexError::Config(format!("unknown test flag `{other}`"))),
                }
            }
            let name = name.ok_or_else(|| FexError::Config("test needs -n <suite>".into()))?;
            Ok(Action::SelfTest { name })
        }
        "report" => {
            let journal = it.next().cloned();
            if let Some(extra) = it.next() {
                return Err(FexError::Config(format!("unexpected report argument `{extra}`")));
            }
            Ok(Action::Report { journal })
        }
        "lab" => {
            let sub = it.next().cloned().ok_or_else(|| {
                FexError::Config("lab needs a subcommand: list | show | gc | fsck".into())
            })?;
            let mut dir = String::from(".fex-lab");
            let mut keep: Option<usize> = None;
            let mut quarantine = false;
            let mut json = false;
            let mut positional: Vec<String> = Vec::new();
            while let Some(tok) = it.next() {
                match tok.as_str() {
                    "--quarantine" => quarantine = true,
                    "--json" => json = true,
                    "--lab" => {
                        dir = it
                            .next()
                            .cloned()
                            .ok_or_else(|| FexError::Config("--lab needs a directory".into()))?;
                    }
                    "--keep" => {
                        let v = it
                            .next()
                            .ok_or_else(|| FexError::Config("--keep needs a count".into()))?;
                        keep = Some(
                            v.parse()
                                .map_err(|_| FexError::Config(format!("bad keep count `{v}`")))?,
                        );
                    }
                    other if !other.starts_with('-') => positional.push(other.to_string()),
                    other => return Err(FexError::Config(format!("unknown lab flag `{other}`"))),
                }
            }
            let cmd = match sub.as_str() {
                "list" => LabCommand::List { json },
                "show" => {
                    let selector = positional
                        .pop()
                        .ok_or_else(|| FexError::Config("lab show needs a run selector".into()))?;
                    LabCommand::Show { selector }
                }
                "gc" => LabCommand::Gc { keep: keep.unwrap_or(1) },
                "fsck" => LabCommand::Fsck { quarantine },
                other => return Err(FexError::Config(format!("unknown lab subcommand `{other}`"))),
            };
            if !positional.is_empty() {
                return Err(FexError::Config(format!("unexpected `{}`", positional[0])));
            }
            Ok(Action::Lab { cmd, dir })
        }
        "graph" => {
            let sub = it
                .next()
                .cloned()
                .ok_or_else(|| FexError::Config("graph needs a subcommand: stats".into()))?;
            if sub != "stats" {
                return Err(FexError::Config(format!("unknown graph subcommand `{sub}`")));
            }
            let mut dir = String::from(".fex-lab");
            while let Some(tok) = it.next() {
                match tok.as_str() {
                    "--lab" => {
                        dir = it
                            .next()
                            .cloned()
                            .ok_or_else(|| FexError::Config("--lab needs a directory".into()))?;
                    }
                    other => return Err(FexError::Config(format!("unknown graph flag `{other}`"))),
                }
            }
            Ok(Action::Graph { dir })
        }
        "fuzz" => {
            let mut opts = crate::fuzz::FuzzOptions::default();
            let mut regressions = None;
            while let Some(tok) = it.next() {
                let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
                             flag: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| FexError::Config(format!("{flag} needs a value")))
                };
                match tok.as_str() {
                    "--seed" => {
                        let v = value(&mut it, "--seed")?;
                        opts.seed =
                            v.parse().map_err(|_| FexError::Config(format!("bad seed `{v}`")))?;
                    }
                    "--cases" => {
                        let v = value(&mut it, "--cases")?;
                        opts.cases = v
                            .parse()
                            .map_err(|_| FexError::Config(format!("bad case count `{v}`")))?;
                    }
                    "--bundle" => opts.bundle_dir = value(&mut it, "--bundle")?.into(),
                    "--max-shrink" => {
                        let v = value(&mut it, "--max-shrink")?;
                        opts.max_shrink = v
                            .parse()
                            .map_err(|_| FexError::Config(format!("bad shrink cap `{v}`")))?;
                    }
                    "--regressions" => regressions = Some(value(&mut it, "--regressions")?),
                    other => return Err(FexError::Config(format!("unknown fuzz flag `{other}`"))),
                }
            }
            Ok(Action::Fuzz { opts, regressions })
        }
        "serve" => {
            let mut opts = crate::serve::ServeOptions::default();
            while let Some(tok) = it.next() {
                let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
                             flag: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| FexError::Config(format!("{flag} needs a value")))
                };
                match tok.as_str() {
                    "--socket" => opts.socket = value(&mut it, "--socket")?.into(),
                    "--lab" => opts.lab = value(&mut it, "--lab")?,
                    "--workers" => {
                        let v = value(&mut it, "--workers")?;
                        opts.workers = v
                            .parse()
                            .map_err(|_| FexError::Config(format!("bad worker count `{v}`")))?;
                    }
                    "--queue" => {
                        let v = value(&mut it, "--queue")?;
                        opts.queue_cap = v
                            .parse()
                            .map_err(|_| FexError::Config(format!("bad queue capacity `{v}`")))?;
                    }
                    other => return Err(FexError::Config(format!("unknown serve flag `{other}`"))),
                }
            }
            if opts.queue_cap == 0 {
                return Err(FexError::Config("--queue must be at least 1".into()));
            }
            Ok(Action::Serve { opts })
        }
        "diag" => {
            let mut journal: Option<String> = None;
            let mut lab: Option<String> = None;
            let mut format = crate::diag::DiagFormat::Human;
            let mut rules: Vec<String> = Vec::new();
            let mut deny: Vec<String> = Vec::new();
            // A restriction that names no rule is a mistake, not "all rules".
            let ids = |flag: &str, list: Option<&String>| -> Result<Vec<String>> {
                let ids: Vec<String> = list
                    .into_iter()
                    .flat_map(|l| l.split(','))
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if ids.is_empty() {
                    return Err(FexError::Config(format!("{flag} needs rule ids")));
                }
                Ok(ids)
            };
            while let Some(tok) = it.next() {
                match tok.as_str() {
                    "--lab" => {
                        lab = Some(match it.peek() {
                            Some(v) if !v.starts_with('-') => it.next().expect("peeked").clone(),
                            _ => String::from(".fex-lab"),
                        });
                    }
                    "--format" => {
                        let v = it
                            .next()
                            .ok_or_else(|| FexError::Config("--format needs a name".into()))?;
                        format = crate::diag::DiagFormat::parse(v)?;
                    }
                    "--rules" => rules.extend(ids("--rules", it.next())?),
                    "--deny" => deny.extend(ids("--deny", it.next())?),
                    other if !other.starts_with('-') => {
                        if journal.replace(other.to_string()).is_some() {
                            return Err(FexError::Config(format!(
                                "diag takes one journal path; unexpected `{other}`"
                            )));
                        }
                    }
                    other => return Err(FexError::Config(format!("unknown diag flag `{other}`"))),
                }
            }
            if journal.is_none() && lab.is_none() {
                return Err(FexError::Config(
                    "diag needs a journal path and/or --lab <dir>".into(),
                ));
            }
            Ok(Action::Diag { journal, lab, format, rules, deny })
        }
        "compare" => {
            let mut dir = String::from(".fex-lab");
            let mut metric = String::from("time");
            let mut svg: Option<String> = None;
            let mut positional: Vec<String> = Vec::new();
            while let Some(tok) = it.next() {
                match tok.as_str() {
                    "--lab" => {
                        dir = it
                            .next()
                            .cloned()
                            .ok_or_else(|| FexError::Config("--lab needs a directory".into()))?;
                    }
                    "--metric" => {
                        metric = it
                            .next()
                            .cloned()
                            .ok_or_else(|| FexError::Config("--metric needs a name".into()))?;
                    }
                    "--svg" => {
                        svg = Some(
                            it.next()
                                .cloned()
                                .ok_or_else(|| FexError::Config("--svg needs a path".into()))?,
                        );
                    }
                    other if !other.starts_with('-') => positional.push(other.to_string()),
                    other => {
                        return Err(FexError::Config(format!("unknown compare flag `{other}`")))
                    }
                }
            }
            if positional.len() != 2 {
                return Err(FexError::Config("compare needs <baseline> <candidate>".into()));
            }
            let candidate = positional.pop().expect("length checked");
            let baseline = positional.pop().expect("length checked");
            Ok(Action::Compare { baseline, candidate, dir, metric, svg })
        }
        "install" => {
            let names = take_values(&mut it, "-n")?;
            if names.is_empty() {
                return Err(FexError::Config("install needs -n <script>".into()));
            }
            Ok(Action::Install { names })
        }
        "plot" => {
            let mut name = None;
            let mut kind = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "-n" => name = it.next().cloned(),
                    "-t" => kind = it.next().cloned(),
                    other => return Err(FexError::Config(format!("unknown plot flag `{other}`"))),
                }
            }
            let name = name.ok_or_else(|| FexError::Config("plot needs -n <name>".into()))?;
            let kind = kind.ok_or_else(|| FexError::Config("plot needs -t <kind>".into()))?;
            let request = PlotRequest::parse(&kind)
                .ok_or_else(|| FexError::Config(format!("unknown plot kind `{kind}`")))?;
            Ok(Action::Plot { name, request })
        }
        "run" => {
            let mut name: Option<String> = None;
            let mut config_types: Vec<String> = Vec::new();
            let mut threads: Vec<usize> = Vec::new();
            let mut reps: Option<usize> = None;
            let mut adaptive_pct: Option<f64> = None;
            let mut max_reps: Option<usize> = None;
            let mut cfg = ExperimentConfig::new("");
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "-n" => name = it.next().cloned(),
                    "-t" => config_types = collect_bare(&mut it),
                    "-m" => {
                        threads = collect_bare(&mut it)
                            .iter()
                            .map(|s| {
                                s.parse::<usize>().map_err(|_| {
                                    FexError::Config(format!("bad thread count `{s}`"))
                                })
                            })
                            .collect::<Result<_>>()?;
                    }
                    "-b" => {
                        cfg.benchmark = Some(
                            it.next()
                                .cloned()
                                .ok_or_else(|| FexError::Config("-b needs a benchmark".into()))?,
                        )
                    }
                    "-r" => {
                        let v =
                            it.next().ok_or_else(|| FexError::Config("-r needs a count".into()))?;
                        reps = Some(
                            v.parse()
                                .map_err(|_| FexError::Config(format!("bad repetitions `{v}`")))?,
                        );
                    }
                    "--adaptive" => {
                        let v = it.next().ok_or_else(|| {
                            FexError::Config("--adaptive needs a precision percentage".into())
                        })?;
                        adaptive_pct = Some(
                            v.parse::<f64>()
                                .map_err(|_| FexError::Config(format!("bad precision `{v}`")))?,
                        );
                    }
                    "--max-reps" => {
                        let v = it
                            .next()
                            .ok_or_else(|| FexError::Config("--max-reps needs a count".into()))?;
                        max_reps = Some(
                            v.parse()
                                .map_err(|_| FexError::Config(format!("bad rep budget `{v}`")))?,
                        );
                    }
                    "--lab" => {
                        cfg.lab = Some(match it.peek() {
                            Some(v) if !v.starts_with('-') => it.next().expect("peeked").clone(),
                            _ => String::from(".fex-lab"),
                        });
                    }
                    "-i" => {
                        let v =
                            it.next().ok_or_else(|| FexError::Config("-i needs a size".into()))?;
                        cfg.input = input_from_name(v)?;
                    }
                    "--tool" => {
                        let v = it
                            .next()
                            .ok_or_else(|| FexError::Config("--tool needs a name".into()))?;
                        cfg.tool = tool_from_name(v)?;
                    }
                    "-v" => cfg.verbose = true,
                    "-d" => cfg.debug = true,
                    "--jobs" => {
                        let v = it
                            .next()
                            .ok_or_else(|| FexError::Config("--jobs needs a count".into()))?;
                        cfg.jobs = v
                            .parse()
                            .map_err(|_| FexError::Config(format!("bad job count `{v}`")))?;
                    }
                    "--chunk" => {
                        let v = it
                            .next()
                            .ok_or_else(|| FexError::Config("--chunk needs a size".into()))?;
                        cfg.chunk = v
                            .parse()
                            .map_err(|_| FexError::Config(format!("bad chunk size `{v}`")))?;
                    }
                    "--passes" => {
                        let v = it
                            .next()
                            .ok_or_else(|| FexError::Config("--passes needs a list".into()))?;
                        let names: Vec<&str> =
                            v.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
                        cfg.passes = PassMask::from_names(names)
                            .map_err(|e| FexError::Config(e.to_string()))?;
                    }
                    "--no-pass" => {
                        let v = it
                            .next()
                            .ok_or_else(|| FexError::Config("--no-pass needs a name".into()))?;
                        cfg.passes =
                            cfg.passes.without(v).map_err(|e| FexError::Config(e.to_string()))?;
                    }
                    "--no-mru" => cfg.mru_fast_path = false,
                    "--no-decode-cache" => cfg.decode_cache = false,
                    "--no-journal" => cfg.journal = false,
                    "--no-graph" => cfg.graph = false,
                    other => return Err(FexError::Config(format!("unknown run flag `{other}`"))),
                }
            }
            cfg.name = name.ok_or_else(|| FexError::Config("run needs -n <experiment>".into()))?;
            if !config_types.is_empty() {
                cfg.build_types = config_types;
            }
            if !threads.is_empty() {
                cfg.threads = threads;
            }
            cfg.repetitions = match adaptive_pct {
                Some(pct) => Repetitions::Adaptive {
                    // `-r` is the floor under --adaptive; variance needs
                    // at least 2 samples.
                    min: reps.unwrap_or(2).max(2),
                    max: max_reps.unwrap_or(16),
                    rel_precision: pct / 100.0,
                },
                None if max_reps.is_some() => {
                    return Err(FexError::Config("--max-reps needs --adaptive".into()));
                }
                None => Repetitions::Fixed(reps.unwrap_or(1)),
            };
            cfg.validate()?;
            Ok(Action::Run(Box::new(cfg)))
        }
        other => Err(FexError::Config(format!("unknown action `{other}`"))),
    }
}

/// Collects the values following a flag until the next `-`-prefixed token.
fn collect_bare(it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>) -> Vec<String> {
    let mut out = Vec::new();
    while let Some(next) = it.peek() {
        if next.starts_with('-') {
            break;
        }
        out.push(it.next().expect("peeked").clone());
    }
    out
}

fn take_values(
    it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
    flag: &str,
) -> Result<Vec<String>> {
    let mut out = Vec::new();
    while let Some(next) = it.next() {
        if next == flag {
            out.extend(collect_bare(it));
        } else {
            return Err(FexError::Config(format!("unexpected `{next}`")));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use fex_vm::MeasureTool;

    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
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
            "run -n phoenix -t gcc_native gcc_asan -b histogram -m 1 2 4 -r 10 -i test -v -d --tool time --jobs 4 --passes none --no-mru --no-decode-cache",
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
        assert_eq!(cfg.passes, PassMask::none());
        assert!(!cfg.mru_fast_path && !cfg.decode_cache);
        assert_eq!(cfg.lab, None, "runs stay ephemeral unless --lab is given");
        // Every experiment rebuilds; there is no flag to skip it.
        let err = parse(&argv("run -n micro --no-build")).unwrap_err();
        assert!(err.to_string().contains("unknown run flag `--no-build`"), "{err}");
    }

    #[test]
    fn pass_pipeline_flags_select_subsets() {
        let Action::Run(cfg) = parse(&argv("run -n micro --passes trace")).unwrap() else {
            panic!("expected run");
        };
        assert!(cfg.passes.enables("trace"));
        assert!(!cfg.passes.enables("fuse"));
        let Action::Run(cfg) = parse(&argv("run -n micro --no-pass fuse")).unwrap() else {
            panic!("expected run");
        };
        assert!(!cfg.passes.enables("fuse"));
        assert!(cfg.passes.enables("trace"));
        let Action::Run(cfg) = parse(&argv("run -n micro --passes none")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(cfg.passes, PassMask::none());
        let Action::Run(cfg) = parse(&argv("run -n micro --chunk 8")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(cfg.chunk, 8);
    }

    #[test]
    fn pass_pipeline_flags_reject_malformed_selections() {
        let err = parse(&argv("run -n micro --passes bogus")).unwrap_err();
        assert!(err.to_string().contains("unknown pass `bogus`"), "{err}");
        let err = parse(&argv("run -n micro --passes fuse,fuse")).unwrap_err();
        assert!(err.to_string().contains("duplicate pass"), "{err}");
        let err = parse(&argv("run -n micro --passes fuse,trace")).unwrap_err();
        assert!(err.to_string().contains("out of pipeline order"), "{err}");
        for flags in ["--passes immfold", "--no-pass immfold"] {
            let err = parse(&argv(&format!("run -n micro {flags}"))).unwrap_err();
            assert!(err.to_string().contains("unknown pass `immfold`"), "{err}");
        }
        let err = parse(&argv("run -n micro --no-fusion")).unwrap_err();
        assert!(err.to_string().contains("unknown run flag `--no-fusion`"), "{err}");
        assert!(parse(&argv("run -n micro --no-pass bogus")).is_err());
        assert!(parse(&argv("run -n micro --passes")).is_err());
        assert!(parse(&argv("run -n micro --chunk many")).is_err());
        assert!(parse(&argv("run -n micro --chunk")).is_err());
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
        assert!(cfg.mru_fast_path && cfg.decode_cache);
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
