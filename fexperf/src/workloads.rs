//! The three workloads, their output checks and the traced replay of
//! their ops.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fex_core::serve::{self, Submission};
use fex_core::ExperimentConfig;
use fex_suites::Suite;

use crate::calib::{self, Timed, CALIB_REF_MS};
use crate::matrix::{self, Counts, Output};
use crate::seq::{edit_cycle, Class};
use crate::serve_mix::{self, Daemon, Sample};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer, Volumes};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ops per client of the serve probe in traced `cold_matrix`/`edit_loop`
/// runs.
const PROBE_OPS: usize = 12;
/// Submissions per class the traced `serve_mix` run replays.
const SERVE_REPLAYS: usize = 12;

/// Run parameters from the command line.
pub struct Args {
    /// Workload seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory of this run.
    pub work: PathBuf,
}

/// A metric as reported: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one run measured.
#[derive(Default)]
pub struct Run {
    /// Set-up timings.
    pub setup: Vec<Timed>,
    /// Untraced op timings.
    pub ops: Vec<Timed>,
    /// Completed ops per calibrated second.
    pub ops_per_s: f64,
    /// Ops attempted.
    pub attempted: usize,
    /// Ops that errored or failed their output check.
    pub failed: usize,
    /// The first few failures, for the log.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

impl Run {
    fn verdict(&mut self, what: impl Into<String>, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.problems.len() < 5 {
                self.problems.push(format!("{}: {e}", what.into()));
            }
        }
    }

    /// Ops per calibrated second of op time (single-stream workloads).
    fn serial_rate(&mut self) {
        let busy_s: f64 = self.ops.iter().map(|t| t.ms() / 1e3).sum();
        self.ops_per_s = self.ops.len() as f64 / busy_s;
    }
}

/// Whether to start another op (or cycle) taking about `last`: the run
/// may overshoot its window by at most half of one.
fn another(start: Instant, seconds: f64, last: Duration) -> bool {
    start.elapsed().as_secs_f64() + last.as_secs_f64() / 2.0 <= seconds
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

/// Trace state of a traced run.
#[derive(Default)]
struct Traced {
    t: Tracer,
    vol: Volumes,
    /// Replayed ops.
    replays: usize,
    /// Evaluations replayed against a lab.
    evals: usize,
    /// Traced boots.
    boots: usize,
    /// Graph lookups that hit / were made.
    hits: usize,
    lookups: usize,
    /// Replayed op timings and their untraced op timings.
    replayed: Vec<Timed>,
    untraced: Vec<Timed>,
    /// Serve submissions the serve metrics come from.
    serve: Vec<Sample>,
}

impl Traced {
    /// Replays one op and checks it reproduced the untraced op.
    fn replay(
        &mut self,
        runs: &[(ExperimentConfig, Suite)],
        untraced: Timed,
        results: &[String],
        svgs: Option<&[String]>,
        counts: Option<&Counts>,
    ) -> Result<Counts, String> {
        let (replayed, timed) = calib::time(|| trace::replay(&mut self.t, runs, &mut self.vol));
        let replayed = replayed?;
        self.replays += 1;
        self.evals += runs.iter().filter(|(c, _)| c.lab.is_some()).count();
        self.hits += replayed.counts.graph_hits;
        self.lookups += replayed.counts.graph_hits + replayed.counts.graph_misses;
        self.replayed.push(timed);
        self.untraced.push(untraced);
        if replayed.results != results {
            return Err("replayed CSV differs from the untraced op".into());
        }
        if svgs.is_some_and(|s| s != replayed.svgs) {
            return Err("replayed SVG differs from the untraced op".into());
        }
        match counts {
            Some(c) if *c != replayed.counts => Err(format!(
                "replayed counts {:?} differ from the journal's {c:?}",
                replayed.counts
            )),
            _ => Ok(replayed.counts),
        }
    }

    /// Starts a daemon over a copy of `lab`, runs a few clients' worth of
    /// the serve stream against it and checks the replies.
    fn serve_probe(
        &mut self,
        run: &mut Run,
        a: &Args,
        lab: &Path,
        m_csvs: &[String],
    ) -> Result<(), String> {
        let daemon = Daemon::start(&a.work.join("probe"))?;
        matrix::restore(lab, &daemon.lab).map_err(io)?;
        let far = Instant::now() + Duration::from_secs(3600);
        let samples = serve_mix::drive(&daemon.socket, a.seed, &[], far, PROBE_OPS);
        daemon.stop()?;
        for s in &samples {
            run.verdict(format!("probe {}", s.class.name()), serve_mix::check(s, m_csvs));
        }
        self.serve = samples;
        Ok(())
    }

    fn layers(&self, run: &Run) -> Vec<Metric> {
        let roll = self.t.rollup();
        let calib_ms = median(&run.ops.iter().map(|t| t.calib_ms).collect::<Vec<_>>());
        let k = CALIB_REF_MS / calib_ms;
        let total = |name: &str| roll.get(name).map_or(0.0, |r| r.0) * k;
        let own = |name: &str| roll.get(name).map_or(0.0, |r| r.1) * k;
        let calls = |name: &str| roll.get(name).map_or(0, |r| r.2) as f64;
        let n = self.replays.max(1) as f64;
        let evals = self.evals.max(1) as f64;
        let boots = self.boots.max(1) as f64;
        let v = &self.vol;
        let exec_ms = total("sched.execute_units");
        let wall_ms = total("sched.pool");
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut out = vec![
            ("container.boot_ms", own("container.boot") / boots, "ms"),
            ("container.install_ms", own("container.install") / boots, "ms"),
            ("cc.builds", calls("cc.compile") / n, "count"),
            ("cc.compile_ms", own("cc.compile") / n, "ms"),
            ("decode.count", calls("decode") / n, "count"),
            ("decode.ms", own("decode") / n, "ms"),
            ("vm.units", v.vm_units as f64 / n, "count"),
            ("vm.instructions", v.vm_instructions as f64 / n, "count"),
            ("vm.exec_ms", exec_ms / n, "ms"),
            ("vm.minstr_per_s", ratio(v.vm_instructions as f64 / 1e6, exec_ms / 1e3), "Minstr/s"),
            ("sched.wall_ms", wall_ms / n, "ms"),
            ("sched.efficiency", ratio(exec_ms, v.jobs as f64 * wall_ms), "ratio"),
            ("graph.open_ms", own("graph.open") / n, "ms"),
            ("graph.lookups", calls("graph.lookup_run") / n, "count"),
            ("graph.lookup_ms", own("graph.lookup_run") / n, "ms"),
            ("graph.hit_ratio", ratio(self.hits as f64, self.lookups as f64), "ratio"),
            ("graph.stores", v.graph_stores as f64 / n, "count"),
            ("graph.store_ms", (own("graph.store_run") + own("graph.store_node")) / n, "ms"),
            ("graph.index_kb", v.graph_index_kb / evals, "KiB"),
            ("store.save_ms", own("store.save") / n, "ms"),
            ("store.index_kb", v.store_index_kb / evals, "KiB"),
            ("journal.events", v.journal_events as f64 / n, "count"),
            ("journal.kb", v.journal_kb / n, "KiB"),
            ("journal.serialize_ms", (own("journal.to_jsonl") + own("journal.metrics")) / n, "ms"),
            ("collect.rows", v.rows as f64 / n, "count"),
            ("collect.ms", own("collect") / n, "ms"),
            ("plot.ms", own("plot") / n, "ms"),
            ("plot.svg_kb", v.svg_kb / n, "KiB"),
        ];
        out.extend(serve_layers(&self.serve));
        let p50 = |ts: &[Timed]| median(&ts.iter().map(Timed::ms).collect::<Vec<_>>());
        out.extend([
            ("host.calib_ms", calib_ms, "ms"),
            (
                "host.op_raw_p50_ms",
                median(&run.ops.iter().map(|t| t.raw_ms).collect::<Vec<_>>()),
                "ms",
            ),
            ("trace.overhead_pct", (p50(&self.replayed) / p50(&self.untraced) - 1.0) * 100.0, "%"),
        ]);
        out
    }
}

/// The serve-layer metrics of a set of submissions.
pub fn serve_layers(samples: &[Sample]) -> Vec<Metric> {
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.reply.is_ok()).collect();
    let p = |v: Vec<f64>, q: f64| if v.is_empty() { 0.0 } else { percentile(&v, q) };
    let class_p50 =
        |c: Class| p(ok.iter().filter(|s| s.class == c).map(|s| s.timed.ms()).collect(), 50.0);
    let waits: Vec<f64> = ok.iter().filter_map(|s| s.wait_ms()).collect();
    let replies = ok.iter().filter_map(|s| s.reply.as_ref().ok());
    let (hits, lookups) = replies
        .clone()
        .fold((0, 0), |(h, l), o| (h + o.graph_hits, l + o.graph_hits + o.graph_misses));
    let store_hits = replies.filter(|o| o.store_hit).count();
    let share = |a: usize, b: usize| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    vec![
        ("serve.wait_p50_ms", p(waits.clone(), 50.0), "ms"),
        ("serve.wait_p90_ms", p(waits, 90.0), "ms"),
        ("serve.dup_p50_ms", class_p50(Class::Dup), "ms"),
        ("serve.warm_p50_ms", class_p50(Class::Warm), "ms"),
        ("serve.dirty_p50_ms", class_p50(Class::Dirty), "ms"),
        ("serve.op_p90_ms", p(ok.iter().map(|s| s.timed.ms()).collect(), 90.0), "ms"),
        ("serve.store_hit_ratio", share(store_hits, ok.len()), "ratio"),
        ("serve.graph_hit_ratio", share(hits, lookups), "ratio"),
    ]
}

fn m_runs(suites: &[Suite], lab: &Path) -> Vec<(ExperimentConfig, Suite)> {
    suites.iter().map(|s| (matrix::config(s.name, Some(lab)), s.clone())).collect()
}

/// Times `SETUPS` set-ups: `prepare` runs untimed before each, `build`
/// is the timed set-up, `check` inspects its state and `retire` disposes
/// of a state the next set-up replaces. Returns the last state.
fn setups<S>(
    run: &mut Run,
    mut prepare: impl FnMut(usize) -> Result<(), String>,
    mut build: impl FnMut(usize) -> Result<S, String>,
    mut check: impl FnMut(usize, &S) -> Result<(), String>,
    mut retire: impl FnMut(S) -> Result<(), String>,
) -> Result<S, String> {
    let mut last = None;
    for k in 0..SETUPS {
        prepare(k)?;
        let (state, timed) = calib::time(|| build(k));
        let state = state?;
        check(k, &state)?;
        run.setup.push(timed);
        if let Some(previous) = last.replace(state) {
            retire(previous)?;
        }
    }
    last.ok_or_else(|| "no set-up ran".into())
}

fn check_output(out: &Output, reference: &Output) -> Result<(), String> {
    if out.results != reference.results {
        return Err("results CSV differs from the reference".into());
    }
    if !out.failures.iter().all(|f| matrix::header_only(f)) {
        return Err("failures CSV is not header-only".into());
    }
    Ok(())
}

/// `cold_matrix`: each op evaluates `M` from scratch into a fresh lab and
/// plots it.
pub fn cold_matrix(a: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    let suites = matrix::suites();
    let setup_lab = |k: usize| a.work.join(format!("setup{k}"));
    let mut first_warmup: Option<Output> = None;
    let (mut fex, reference) = setups(
        &mut run,
        |k| matrix::reset(&setup_lab(k)).map_err(io),
        |k| {
            let mut fex = matrix::boot()?;
            let out = matrix::evaluate(&mut fex, &suites, &setup_lab(k))?;
            Ok((fex, out))
        },
        |_, (_, out)| check_output(out, first_warmup.get_or_insert_with(|| out.clone())),
        |_| Ok(()),
    )?;
    let mut tr = a.trace.then(Traced::default);
    if let Some(tr) = tr.as_mut() {
        for _ in 0..SETUPS {
            trace::boot(&mut tr.t)?;
            tr.boots += 1;
        }
    }
    let lab = a.work.join("lab");
    let start = Instant::now();
    let mut last = Duration::ZERO;
    while run.attempted == 0 || another(start, a.seconds, last) {
        let began = Instant::now();
        matrix::reset(&lab).map_err(io)?;
        let at_start = matrix::index_lines(&lab);
        let (out, timed) = calib::time(|| matrix::evaluate(&mut fex, &suites, &lab));
        let result = out.and_then(|out| {
            if at_start != (0, 0) {
                return Err(format!("lab not empty at op start: {at_start:?}"));
            }
            check_output(&out, &reference)?;
            if out.counts.graph_hits != 0 || out.counts.builds != 76 {
                return Err(format!(
                    "a cold op must build everything and hit nothing: {:?}",
                    out.counts
                ));
            }
            run.ops.push(timed);
            match tr.as_mut() {
                Some(tr) => {
                    matrix::reset(&lab).map_err(io)?;
                    let runs = m_runs(&suites, &lab);
                    tr.replay(&runs, timed, &out.results, Some(&out.svgs), Some(&out.counts))
                        .map(drop)
                }
                None => Ok(()),
            }
        });
        run.verdict("cold op", result);
        last = began.elapsed();
    }
    run.serial_rate();
    if let Some(mut tr) = tr {
        tr.serve_probe(&mut run, a, &setup_lab(SETUPS - 1), &reference.results)?;
        run.layers = tr.layers(&run);
    }
    Ok(run)
}

/// `edit_loop`: each op restores the populated lab, edits one benchmark,
/// re-evaluates `M` and plots it.
pub fn edit_loop(a: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    let suites = matrix::suites();
    let benches = matrix::benchmarks();
    let snap = |k: usize| a.work.join(format!("snapshot{k}"));
    let (mut fex, reference) = setups(
        &mut run,
        |k| matrix::reset(&snap(k)).map_err(io),
        |k| {
            let mut fex = matrix::boot()?;
            let out = matrix::evaluate(&mut fex, &suites, &snap(k))?;
            Ok((fex, out))
        },
        |_, (_, out)| check_output(out, out),
        |_| Ok(()),
    )?;
    let snapshot = snap(SETUPS - 1);
    let snapshot_lines = matrix::index_lines(&snapshot);
    let mut tr = a.trace.then(Traced::default);
    if let Some(tr) = tr.as_mut() {
        for _ in 0..SETUPS {
            trace::boot(&mut tr.t)?;
            tr.boots += 1;
        }
    }
    let lab = a.work.join("lab");
    let total_units: usize = benches.iter().map(|(s, b)| matrix::units_of(*s, b)).sum();
    let start = Instant::now();
    let mut cycle = 0u64;
    loop {
        let began = Instant::now();
        for (pos, &b) in edit_cycle(a.seed, cycle, benches.len()).iter().enumerate() {
            let bench = benches[b];
            let edit = cycle * benches.len() as u64 + pos as u64;
            matrix::restore(&snapshot, &lab).map_err(io)?;
            let at_start = matrix::index_lines(&lab);
            let edited = matrix::edited(bench, edit);
            let (out, timed) = calib::time(|| matrix::evaluate(&mut fex, &edited, &lab));
            let result = out.and_then(|out| {
                if at_start != snapshot_lines {
                    return Err(format!(
                        "lab at op start {at_start:?} is not the snapshot's {snapshot_lines:?}"
                    ));
                }
                check_output(&out, &reference)?;
                let dirty = matrix::units_of(bench.0, bench.1);
                let c = &out.counts;
                if c.missed.len() != 1
                    || c.missed.get(bench.1) != Some(&dirty)
                    || c.graph_hits != total_units - dirty
                {
                    return Err(format!(
                        "editing {} must miss exactly its {dirty} units: {c:?}",
                        bench.1
                    ));
                }
                run.ops.push(timed);
                match tr.as_mut() {
                    Some(tr) => {
                        matrix::restore(&snapshot, &lab).map_err(io)?;
                        let runs = m_runs(&edited, &lab);
                        tr.replay(&runs, timed, &out.results, Some(&out.svgs), Some(&out.counts))
                            .map(drop)
                    }
                    None => Ok(()),
                }
            });
            run.verdict(format!("edit {}", bench.1), result);
        }
        cycle += 1;
        if !another(start, a.seconds, began.elapsed()) {
            break;
        }
    }
    run.serial_rate();
    if let Some(mut tr) = tr {
        tr.serve_probe(&mut run, a, &snapshot, &reference.results)?;
        run.layers = tr.layers(&run);
    }
    Ok(run)
}

/// `serve_mix`: two closed-loop clients submit the seeded dup/warm/dirty
/// stream to a daemon over the populated lab.
pub fn serve_mix(a: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    let suites = matrix::suites();
    let dir = |k: usize| a.work.join(format!("serve{k}"));
    let mut population_lines = None;
    let (daemon, population) = setups(
        &mut run,
        |k| matrix::reset(&dir(k)).map_err(io),
        |k| {
            matrix::boot()?;
            let daemon = Daemon::start(&dir(k))?;
            let mut population = Vec::new();
            for suite in &suites {
                let sub = serve_mix::m_submission(suite.name);
                let reply = serve::submit(&daemon.socket, &sub).map_err(|e| e.to_string())?;
                population.push((sub, reply.results_csv));
            }
            Ok((daemon, population))
        },
        |k, (daemon, _)| {
            let lines = matrix::index_lines(&daemon.lab);
            if *population_lines.get_or_insert(lines) != lines {
                return Err(format!(
                    "set-up {k} left index lines {lines:?}, not {population_lines:?}"
                ));
            }
            Ok(())
        },
        |(daemon, _)| {
            let lab_dir = daemon.lab.parent().map(Path::to_path_buf);
            daemon.stop()?;
            lab_dir.map_or(Ok(()), |d| std::fs::remove_dir_all(d).map_err(io))
        },
    )?;
    let start = Instant::now();
    let samples = serve_mix::drive(
        &daemon.socket,
        a.seed,
        &population,
        start + Duration::from_secs_f64(a.seconds),
        usize::MAX,
    );
    let window_s = start.elapsed().as_secs_f64();
    let lab = daemon.lab.clone();
    daemon.stop()?;

    // Direct references, outside the timed window.
    let mut fex = matrix::boot()?;
    let mut m_csvs = Vec::new();
    for suite in &suites {
        let config = matrix::config(suite.name, None);
        fex.run_suite(&config, suite.clone()).map_err(|e| e.to_string())?;
        m_csvs.push(fex.result_csv(suite.name).unwrap_or_default());
    }
    if population.iter().map(|(_, csv)| csv).ne(m_csvs.iter()) {
        return Err("populating through the daemon gave other CSVs than the direct run".into());
    }
    for s in &samples {
        run.verdict(s.class.name(), serve_mix::check(s, &m_csvs));
        if s.reply.is_ok() {
            run.ops.push(s.timed);
        }
    }
    let calib = median(&run.ops.iter().map(|t| t.calib_ms).collect::<Vec<_>>());
    run.ops_per_s = run.ops.len() as f64 / calib::scale(window_s, calib);

    if a.trace {
        let mut tr = Traced::default();
        for _ in 0..SETUPS {
            trace::boot(&mut tr.t)?;
            tr.boots += 1;
        }
        let copy = a.work.join("replay-lab");
        matrix::restore(&lab, &copy).map_err(io)?;
        for class in [Class::Warm, Class::Dirty] {
            for s in samples.iter().filter(|s| s.class == class).take(SERVE_REPLAYS) {
                let Ok(reply) = &s.reply else { continue };
                let result = replay_submission(&mut tr, &s.sub, s.timed, reply, &copy);
                run.verdict(format!("replay {}", class.name()), result);
            }
        }
        tr.serve = samples;
        run.layers = tr.layers(&run);
    }
    Ok(run)
}

/// Replays one served submission against a copy of the daemon's lab. A
/// dirty one runs with the graph off, since its units are in the copy.
fn replay_submission(
    tr: &mut Traced,
    sub: &Submission,
    untraced: Timed,
    reply: &fex_core::ServeOutcome,
    lab: &Path,
) -> Result<(), String> {
    let mut config = sub.config(Some(&lab.to_string_lossy()));
    let warm = sub.suite != "inline";
    config.graph = warm;
    let suite = sub.suite().map_err(|e| e.to_string())?;
    let results = std::slice::from_ref(&reply.results_csv);
    let c = tr.replay(&[(config, suite)], untraced, results, None, None)?;
    // Served units must be served again; executed ones executed again.
    let (hits, executed) = if warm { (c.graph_hits, c.graph_misses) } else { (0, c.vm_execs) };
    if (hits, executed) != (reply.graph_hits, reply.graph_misses) {
        return Err(format!(
            "replay served {hits} and executed {executed} units, the daemon {} and {}",
            reply.graph_hits, reply.graph_misses
        ));
    }
    Ok(())
}
