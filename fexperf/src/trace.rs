//! The traced replay: an op re-run through each layer's public entry
//! point, with a span around every call.
//!
//! Spans are kept in memory and rolled up when the run ends. A span's
//! self time is its duration minus the part of it its children cover.
//! The replay must reproduce the untraced op's CSVs byte for byte, so the
//! spans time the same work the op did.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fex_container::{digest_bytes, Container, Digest, Image, PackageRegistry};
use fex_core::build::MakefileSet;
use fex_core::collect::Collector;
use fex_core::config::input_name;
use fex_core::graph::{compiled_key, decoded_key, unit_key};
use fex_core::lab::RunArtifacts;
use fex_core::plot::{barplot_from_frame, normalize_against};
use fex_core::sched::{execute_units, RunUnit, UnitWork};
use fex_core::{
    ArtifactGraph, ExperimentConfig, FailureReport, Journal, JournalEvent, Metrics, NodeKind,
    Repetitions, RunStore,
};
use fex_suites::Suite;
use fex_vm::{decode_program_passes, CostModel, RunResult};

use crate::matrix::{file_kb, Counts, SCRIPTS};

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Records a finished call, made on another thread, under the open
    /// span.
    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.duration_since(self.origin);
        let span = Span { name, start: at(start), end: at(end), parent: self.open.last().copied() };
        self.spans.push(span);
    }

    /// Per span name: (total ms, self ms, calls).
    pub fn rollup(&self) -> BTreeMap<&'static str, (f64, f64, usize)> {
        let mut children: HashMap<usize, Vec<(Duration, Duration)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let total = s.end - s.start;
            let covered = children.get(&id).map_or(Duration::ZERO, |c| union(c));
            let e = out.entry(s.name).or_default();
            e.0 += total.as_secs_f64() * 1e3;
            e.1 += total.saturating_sub(covered).as_secs_f64() * 1e3;
            e.2 += 1;
        }
        out
    }
}

/// Length of the union of intervals (children of a pool overlap).
fn union(intervals: &[(Duration, Duration)]) -> Duration {
    let mut v = intervals.to_vec();
    v.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Duration, Duration)> = None;
    for (s, e) in v {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(Duration::ZERO, |(s, e)| e - s)
}

/// Work volumes the replay saw, summed over its ops.
#[derive(Debug, Clone, Default)]
pub struct Volumes {
    /// Run units executed on the VM.
    pub vm_units: usize,
    /// Instructions those units retired.
    pub vm_instructions: u64,
    /// Graph nodes written.
    pub graph_stores: usize,
    /// Graph index size after each evaluation, KiB.
    pub graph_index_kb: f64,
    /// Store index size after each evaluation, KiB.
    pub store_index_kb: f64,
    /// Journal events serialized.
    pub journal_events: usize,
    /// Journal bytes serialized, KiB.
    pub journal_kb: f64,
    /// Rows collected.
    pub rows: usize,
    /// SVG rendered, KiB.
    pub svg_kb: f64,
    /// Scheduler workers (for efficiency).
    pub jobs: usize,
}

/// What a replayed evaluation produced.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    /// Results CSV per experiment.
    pub results: Vec<String>,
    /// Perf plot SVG per experiment.
    pub svgs: Vec<String>,
    /// Work counts, comparable with the untraced op's journal counts.
    pub counts: Counts,
}

/// Replays the `Fex::new` boot and the install scripts.
pub fn boot(t: &mut Tracer) -> Result<(), String> {
    let registry = PackageRegistry::standard();
    let mut container =
        t.scope("container.boot", |_| Container::start(&Image::fex_shipping_image()));
    for script in SCRIPTS {
        t.scope("container.install", |_| {
            fex_core::install::run_script(&mut container, &registry, script)
        })
        .map_err(|e| format!("install {script}: {e}"))?;
    }
    Ok(())
}

/// Replays evaluations of `runs` (each a config with its suite) through
/// the layers, then renders each Perf plot.
pub fn replay(
    t: &mut Tracer,
    runs: &[(ExperimentConfig, Suite)],
    vol: &mut Volumes,
) -> Result<Replayed, String> {
    let mut out = Replayed::default();
    for (config, suite) in runs {
        let (csv, svg) = replay_one(t, config, suite, vol, &mut out.counts)?;
        out.results.push(csv);
        out.svgs.push(svg);
    }
    Ok(out)
}

struct Unit {
    artifact: usize,
    threads: usize,
    rep: Option<usize>,
}

struct Artifact {
    bench: &'static str,
    ty: String,
    args: Vec<i64>,
    program: Arc<fex_vm::Program>,
    decoded: Arc<fex_vm::DecodedProgram>,
    digest: Digest,
}

fn replay_one(
    t: &mut Tracer,
    config: &ExperimentConfig,
    suite: &Suite,
    vol: &mut Volumes,
    counts: &mut Counts,
) -> Result<(String, String), String> {
    let err = |e: fex_core::FexError| e.to_string();
    let Repetitions::Fixed(reps) = config.repetitions else {
        return Err("the replay covers fixed repetition policies only".into());
    };
    let lab = config.lab.as_deref().map(Path::new);
    let mut graph = match lab {
        Some(dir) if config.graph => {
            Some(t.scope("graph.open", |_| ArtifactGraph::open(dir)).map_err(err)?)
        }
        _ => None,
    };
    let nodes_before = graph.as_ref().map_or(0, ArtifactGraph::len);
    let input = input_name(config.input);
    let makefiles = MakefileSet::standard();
    let mut journal = Journal::new(true);

    // Build: compile and decode every (type, benchmark), recording the
    // provenance chain as graph nodes like the runner does.
    let mut artifacts = Vec::new();
    let mut units = Vec::new();
    for ty in &config.build_types {
        let opts = makefiles.build_options(ty, config.debug).map_err(err)?;
        for p in &suite.programs {
            if config.benchmark.as_deref().is_some_and(|b| b != p.name) {
                continue;
            }
            let program = t
                .scope("cc.compile", |_| fex_cc::compile(p.source, &opts))
                .map_err(|e| format!("{} [{ty}]: {e}", p.name))?;
            let decoded = t
                .scope("decode", |_| {
                    decode_program_passes(&program, &CostModel::default(), config.passes)
                })
                .map_err(|e| format!("{} [{ty}]: {e}", p.name))?;
            counts.builds += 1;
            counts.decodes += 1;
            let source_key = fex_cc::source_digest(p.name, p.source);
            let compiled = compiled_key(
                source_key,
                opts.backend.name,
                opts.backend.version,
                opts.opt_level,
                opts.asan,
                opts.debug,
            );
            let digest =
                decoded_key(compiled, config.passes.bits(), CostModel::default().fingerprint());
            if let Some(g) = graph.as_mut() {
                let nodes = [
                    (NodeKind::Source, source_key, node_json("source", &[("benchmark", p.name)])),
                    (
                        NodeKind::Compiled,
                        compiled,
                        node_json(
                            "compiled",
                            &[("benchmark", p.name), ("build_info", &opts.build_info())],
                        ),
                    ),
                    (
                        NodeKind::Decoded,
                        digest,
                        node_json("decoded", &[("benchmark", p.name), ("build_type", ty)]),
                    ),
                ];
                for (kind, key, payload) in nodes {
                    t.scope("graph.store_node", |_| g.store_node(kind, &key, &payload))
                        .map_err(err)?;
                }
            }
            journal.emit(JournalEvent::Build {
                benchmark: p.name.to_string(),
                build_type: ty.clone(),
                digest: digest.to_string(),
                cache_hit: false,
                wall_ns: 0,
            });
            let artifact = artifacts.len();
            if p.dry_run {
                units.push(Unit { artifact, threads: 1, rep: None });
            }
            for &threads in &config.threads {
                units.extend((0..reps).map(|rep| Unit { artifact, threads, rep: Some(rep) }));
            }
            artifacts.push(Artifact {
                bench: p.name,
                ty: ty.clone(),
                args: p.args(config.input).to_vec(),
                program: Arc::new(program),
                decoded: Arc::new(decoded),
                digest,
            });
        }
    }

    // Graph lookups in matrix order; misses go to the scheduler.
    let mut results: Vec<Option<RunResult>> = Vec::with_capacity(units.len());
    let mut keys = Vec::with_capacity(units.len());
    for u in &units {
        let a = &artifacts[u.artifact];
        let key = unit_key(
            a.digest,
            config.unit_seed(a.bench, &a.ty, u.threads, u.rep),
            u.threads,
            u.rep,
            input,
            &a.args,
            config.resilience.run_budget,
        );
        let served = match graph.as_mut() {
            Some(g) => {
                let hit = t.scope("graph.lookup_run", |_| g.lookup_run(&key));
                if hit.is_some() {
                    counts.graph_hits += 1;
                } else {
                    counts.graph_misses += 1;
                    *counts.missed.entry(a.bench.to_string()).or_insert(0) += 1;
                }
                hit
            }
            None => None,
        };
        journal.emit(if served.is_some() {
            JournalEvent::GraphHit {
                benchmark: a.bench.to_string(),
                build_type: a.ty.clone(),
                threads: u.threads,
                rep: u.rep,
            }
        } else {
            JournalEvent::GraphMiss {
                benchmark: a.bench.to_string(),
                build_type: a.ty.clone(),
                threads: u.threads,
                rep: u.rep,
            }
        });
        results.push(served);
        keys.push(key);
    }
    let pending: Vec<usize> = (0..units.len()).filter(|&i| results[i].is_none()).collect();
    let exec: Vec<RunUnit> = pending
        .iter()
        .map(|&i| {
            let (u, a) = (&units[i], &artifacts[units[i].artifact]);
            RunUnit {
                ty: a.ty.clone(),
                bench: a.bench.to_string(),
                threads: u.threads,
                rep: u.rep,
                input,
                record: u.rep.is_some(),
                line: None,
                work: Some(UnitWork {
                    program: a.program.clone(),
                    decoded: config.decode_cache.then(|| a.decoded.clone()),
                    args: a.args.clone(),
                    config: config.unit_machine_config(a.bench, &a.ty, u.threads, u.rep, 0),
                }),
            }
        })
        .collect();
    let jobs = config.effective_jobs();
    vol.jobs = jobs;
    let outcomes = t.scope("sched.pool", |t| pool(t, &exec, config, jobs));
    for ((&i, unit), outcome) in pending.iter().zip(&exec).zip(outcomes) {
        let run = outcome.result.ok_or_else(|| {
            format!("{} [{}] failed: {:?}", unit.bench, unit.ty, outcome.log.errors)
        })?;
        vol.vm_units += 1;
        vol.vm_instructions += run.counters.instructions;
        if let Some(g) = graph.as_mut() {
            if outcome.log.attempts == 1 && outcome.log.errors.is_empty() {
                t.scope("graph.store_run", |_| g.store_run(&keys[i], &run)).map_err(err)?;
            }
        }
        journal.extend(outcome.events);
        results[i] = Some(run);
    }
    for (u, run) in units.iter().zip(&results) {
        let a = &artifacts[u.artifact];
        let run = run.as_ref().expect("every unit is served or executed");
        journal.emit(JournalEvent::vm_exec(a.bench, &a.ty, u.threads, u.rep, run));
    }
    counts.vm_execs += units.len();

    // Collect in matrix order.
    let frame = t.scope("collect", |_| {
        let mut collector = Collector::new(config.tool);
        for (u, run) in units.iter().zip(&results) {
            if let (Some(rep), Some(run)) = (u.rep, run) {
                let a = &artifacts[u.artifact];
                collector.record(suite.name, a.bench, &a.ty, u.threads, input, rep, run);
            }
        }
        collector.into_frame()
    });
    let results_csv = t.scope("collect", |_| frame.to_csv());
    vol.rows += frame.len();
    let failures_csv = FailureReport::default().to_csv();

    let jsonl = t.scope("journal.to_jsonl", |_| journal.to_jsonl());
    let metrics = t.scope("journal.metrics", |_| Metrics::from_journal(journal.events()).to_json());
    vol.journal_events += journal.len();
    vol.journal_kb += jsonl.len() as f64 / 1024.0;

    if let Some(dir) = lab {
        let store = RunStore::open(dir).map_err(err)?;
        let digest = digest_bytes(jsonl.as_bytes()).to_string();
        let art = RunArtifacts {
            results_csv: &results_csv,
            failures_csv: &failures_csv,
            metrics_json: Some(&metrics),
            journal_digest: Some(&digest),
        };
        t.scope("store.save", |_| store.save(config, &art)).map_err(err)?;
        vol.store_index_kb += file_kb(&dir.join("index.json"));
        if let Some(g) = graph.as_mut() {
            let run_id = RunStore::run_id(
                config,
                &RunArtifacts { metrics_json: None, journal_digest: None, ..art },
            );
            if let Some(key) =
                run_id.strip_prefix("fex256:").and_then(|h| u128::from_str_radix(h, 16).ok())
            {
                let payload = format!(
                    "{{\"node\": \"aggregate\", \"experiment\": \"{}\", \"rows\": {}}}",
                    config.name,
                    frame.len()
                );
                t.scope("graph.store_node", |_| {
                    g.store_node(NodeKind::Aggregate, &Digest(key), &payload)
                })
                .map_err(err)?;
            }
            vol.graph_stores += g.len() - nodes_before;
            vol.graph_index_kb += file_kb(&g.root().join("index.json"));
        }
    }

    // Plot: the Perf request, as `Fex::plot` builds it.
    let svg = t
        .scope("plot", |_| -> Result<String, fex_core::FexError> {
            let baseline = frame.distinct("type")?.first().cloned().unwrap_or_default();
            let norm = normalize_against(&frame, "benchmark", "type", "time", &baseline)?;
            let mut plot = barplot_from_frame(
                &norm,
                "benchmark",
                "type",
                "normalized_time",
                &format!("{}: normalized runtime (w.r.t. {baseline})", config.name),
            )?;
            plot.ylabel = format!("Normalized runtime (w.r.t. {baseline})");
            plot.hline = Some(1.0);
            Ok(plot.to_svg())
        })
        .map_err(err)?;
    vol.svg_kb += svg.len() as f64 / 1024.0;
    Ok((results_csv, svg))
}

/// Runs units over `jobs` workers, one `execute_units` call per unit so
/// each unit's VM time shows as its own span.
fn pool(
    t: &mut Tracer,
    units: &[RunUnit],
    config: &ExperimentConfig,
    jobs: usize,
) -> Vec<fex_core::sched::UnitOutcome> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(units.len()));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= units.len() {
                    break;
                }
                let start = Instant::now();
                let outcome = execute_units(&units[i..=i], &config.resilience, 1, true, 0)
                    .pop()
                    .expect("one outcome per unit");
                let end = Instant::now();
                done.lock().expect("pool results lock").push((i, outcome, start, end));
            });
        }
    });
    let mut done = done.into_inner().expect("pool results lock");
    done.sort_by_key(|d| d.0);
    done.into_iter()
        .map(|(_, outcome, start, end)| {
            t.record("sched.execute_units", start, end);
            outcome
        })
        .collect()
}

fn node_json(node: &str, fields: &[(&str, &str)]) -> String {
    let mut s = format!("{{\"node\": \"{node}\"");
    for (k, v) in fields {
        s.push_str(&format!(", \"{k}\": \"{v}\""));
    }
    s + "}"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let ms = Duration::from_millis;
        assert_eq!(union(&[(ms(0), ms(10)), (ms(5), ms(15)), (ms(20), ms(30))]), ms(25));
        assert_eq!(union(&[]), Duration::ZERO);
        let mut t = Tracer::default();
        t.scope("outer", |t| {
            t.scope("inner", |_| std::thread::sleep(ms(20)));
            std::thread::sleep(ms(10));
        });
        let r = t.rollup();
        let (outer_total, outer_self, _) = r["outer"];
        let (inner_total, _, calls) = r["inner"];
        assert_eq!(calls, 1);
        assert!((outer_total - outer_self - inner_total).abs() < 1e-6);
        assert!(outer_self >= 10.0 && inner_total >= 20.0);
    }
}
