//! Differential tests for the artifact graph: incremental evaluation
//! must be invisible.
//!
//! Invariants locked down here:
//!
//! 1. **Warm == cold** — re-running an experiment against a populated
//!    graph serves every clean unit from the node cache, and the
//!    observable artifacts — results CSV, failures CSV, the normalized
//!    journal stream and the metrics roll-up computed from it — are
//!    byte-identical to the cold run, across worker counts, pass
//!    subsets and fault injection.
//! 2. **Precise invalidation** — changing one derivation input (a
//!    cost-model knob, the pass subset) dirties exactly the dependent
//!    node layers and nothing upstream.
//! 3. **Demand-driven builds** — a (benchmark, type) pair compiles only
//!    when one of its units is not served by the graph; every pair still
//!    emits its `build` event, with `cache_hit` set when it was left
//!    unbuilt.

use std::path::Path;

use proptest::prelude::*;

use fex_core::build::MakefileSet;
use fex_core::config::FaultInjection;
use fex_core::lab::{fsck, GraphCorruption, IssueKind, RunStore};
use fex_core::runner::{RunContext, Runner, SuiteRunner};
use fex_core::{ArtifactGraph, ExperimentConfig, JournalEvent, Metrics, NodeKind};
use fex_suites::{InputSize, Suite};
use fex_vm::{CostModel, FaultKind, FaultPlan, PassMask};

/// Runs `suite` with the artifact graph attached at `lab`, and returns
/// the observable artifacts plus the graph's session hit/miss counters.
fn run_graphed(
    config: &ExperimentConfig,
    suite: Suite,
    lab: &Path,
) -> (String, String, Vec<JournalEvent>, (u64, u64)) {
    let makefiles = MakefileSet::standard();
    let mut log = Vec::new();
    let mut graph = ArtifactGraph::open(lab).unwrap();
    let mut ctx = RunContext::new(config, &makefiles, &mut log);
    ctx.graph = Some(&mut graph);
    let mut runner = SuiteRunner::new(suite, config);
    let df = runner.run(&mut ctx).unwrap();
    let graph = ctx.graph.take().unwrap();
    let session = (graph.hits(), graph.misses());
    (df.to_csv(), ctx.failures.to_csv(), ctx.journal.events().to_vec(), session)
}

/// The normalized journal stream, in emission order: graph hits rewrite
/// to misses, schedule-dependent fields zero out. Cold and warm runs of
/// the same experiment must produce byte-identical streams.
fn normalized_stream(events: &[JournalEvent]) -> Vec<String> {
    events
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.normalize();
            e.to_json()
        })
        .collect()
}

/// The metrics roll-up over the normalized stream (stored metrics carry
/// wall clocks and live cache state; the normalized roll-up is the
/// schedule- and cache-independent view golden tests compare).
fn normalized_metrics(events: &[JournalEvent]) -> String {
    let normalized: Vec<JournalEvent> = events
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.normalize();
            e
        })
        .collect();
    Metrics::from_journal(&normalized).to_json()
}

/// The `(benchmark, build type)` pairs whose `build` event says they
/// compiled (`cache_hit` false), in emission order.
fn compiled_pairs(events: &[JournalEvent]) -> Vec<(String, String)> {
    events
        .iter()
        .filter_map(|e| match e {
            JournalEvent::Build { benchmark, build_type, cache_hit: false, .. } => {
                Some((benchmark.clone(), build_type.clone()))
            }
            _ => None,
        })
        .collect()
}

/// `(builds, build_cache_hits)` of the metrics roll-up.
fn build_counts(events: &[JournalEvent]) -> (usize, usize) {
    let m = Metrics::from_journal(events);
    (m.builds, m.build_cache_hits)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fex-graph-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Warm re-runs are byte-identical to cold across the scheduling
    /// and configuration axes, and — without faults armed — serve every
    /// run unit from the graph.
    #[test]
    fn warm_rerun_is_byte_identical_to_cold(
        jobs_pick in 0usize..2,
        passes_pick in 0usize..2,
        faulty_pick in 0usize..2,
        seed in 0u64..1000,
    ) {
        let jobs = [1usize, 8][jobs_pick];
        let passes = if passes_pick == 0 { PassMask::all() } else { PassMask::none() };
        let faulty = faulty_pick == 1;
        let mut config = ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "clang_native"])
            .input(InputSize::Test)
            .repetitions(2)
            .seed(seed)
            .jobs(jobs)
            .passes(passes);
        if faulty {
            config = config.fault(FaultInjection::for_benchmark(
                "ptrchase",
                FaultPlan::persistent(FaultKind::Trap),
            ));
        }
        let lab = temp_dir(&format!("warm-{jobs}-{faulty}-{seed}"));
        let (cold_csv, cold_fail, cold_events, (cold_hits, _)) =
            run_graphed(&config, fex_suites::micro(), &lab);
        let (warm_csv, warm_fail, warm_events, (warm_hits, warm_misses)) =
            run_graphed(&config, fex_suites::micro(), &lab);

        prop_assert_eq!(cold_hits, 0, "a fresh graph cannot hit");
        prop_assert_eq!(&warm_csv, &cold_csv, "warm results CSV must be byte-identical");
        prop_assert_eq!(&warm_fail, &cold_fail, "warm failures CSV must be byte-identical");
        prop_assert_eq!(
            normalized_stream(&warm_events),
            normalized_stream(&cold_events),
            "normalized journal streams must be byte-identical"
        );
        prop_assert_eq!(
            normalized_metrics(&warm_events),
            normalized_metrics(&cold_events),
            "normalized metrics roll-ups must be byte-identical"
        );
        if !faulty {
            prop_assert_eq!(warm_misses, 0, "every clean unit must be served on warm re-run");
            prop_assert!(warm_hits > 0);
        }
        let _ = std::fs::remove_dir_all(&lab);
    }
}

/// The Phoenix 7 benchmarks × 4 build types matrix against one lab:
/// the warm re-run serves all 84 units with byte-identical artifacts,
/// and dirtying one benchmark recomputes only its 12 units (an 85.7%
/// unit hit rate) without moving the results CSV.
#[test]
fn phoenix_matrix_warm_and_dirty_reruns_are_served_from_the_graph() {
    let config = ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native", "clang_native", "gcc_asan", "clang_asan"])
        .input(InputSize::Test)
        .repetitions(2)
        .jobs(1);
    let lab = temp_dir("phoenix");
    let (cold_csv, cold_fail, cold_events, cold_session) =
        run_graphed(&config, fex_suites::phoenix(), &lab);
    assert_eq!(cold_session, (0, 84), "a fresh graph cannot hit");
    let (warm_csv, warm_fail, warm_events, warm_session) =
        run_graphed(&config, fex_suites::phoenix(), &lab);
    assert_eq!(warm_session, (84, 0), "every stored unit is served back");
    assert_eq!(warm_csv, cold_csv, "warm results CSV must be byte-identical");
    assert_eq!(warm_fail, cold_fail, "warm failures CSV must be byte-identical");
    assert_eq!(
        normalized_stream(&warm_events),
        normalized_stream(&cold_events),
        "normalized journal streams must be byte-identical"
    );
    assert_eq!(compiled_pairs(&cold_events).len(), 28, "a cold run compiles every pair");
    assert_eq!(build_counts(&cold_events), (28, 0));
    assert!(compiled_pairs(&warm_events).is_empty(), "a fully served pair is not rebuilt");
    assert_eq!(build_counts(&warm_events), (28, 28), "every pair still reports its build");

    // A trailing newline is semantically neutral, but it re-keys the
    // source digest and every node downstream of it.
    let mut dirty = fex_suites::phoenix();
    let prog = dirty.programs.iter_mut().find(|p| p.name == "histogram").unwrap();
    prog.source = Box::leak(format!("{}\n", prog.source).into_boxed_str());
    let (dirty_csv, _, dirty_events, dirty_session) = run_graphed(&config, dirty, &lab);
    assert_eq!(dirty_session, (72, 12), "only histogram's units recompute");
    assert_eq!(dirty_csv, cold_csv, "the dirty re-run's results CSV must match cold");
    let histogram: Vec<(String, String)> = ["gcc_native", "clang_native", "gcc_asan", "clang_asan"]
        .iter()
        .map(|ty| ("histogram".to_string(), ty.to_string()))
        .collect();
    assert_eq!(compiled_pairs(&dirty_events), histogram, "only histogram's pairs compile");
    assert_eq!(build_counts(&dirty_events), (28, 24));
    let _ = std::fs::remove_dir_all(&lab);
}

/// A run unit whose pack range was torn after the cold run is a miss: its
/// pair compiles, the unit re-executes, and the results match cold.
#[test]
fn a_torn_unit_rebuilds_only_its_pair() {
    let config = ExperimentConfig::new("micro")
        .types(vec!["gcc_native", "clang_native"])
        .input(InputSize::Test)
        .repetitions(2);
    let lab = temp_dir("torn-unit");
    let (cold_csv, cold_fail, cold_events, (_, units)) =
        run_graphed(&config, fex_suites::micro(), &lab);
    // The newest node is the last run unit the cold run stored.
    let store = RunStore::open(&lab).unwrap();
    fsck::inject_graph(&store, GraphCorruption::EditedNodePayload).unwrap();
    let (warm_csv, warm_fail, warm_events, session) =
        run_graphed(&config, fex_suites::micro(), &lab);
    assert_eq!(session, (units - 1, 1), "only the torn unit misses");
    let missed: Vec<(String, String)> = warm_events
        .iter()
        .filter_map(|e| match e {
            JournalEvent::GraphMiss { benchmark, build_type, .. } => {
                Some((benchmark.clone(), build_type.clone()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(compiled_pairs(&warm_events), missed, "the torn unit's pair, and only it, compiles");
    let (builds, _) = build_counts(&cold_events);
    assert_eq!(build_counts(&warm_events), (builds, builds - 1));
    assert_eq!(warm_csv, cold_csv, "the re-executed unit reproduces the cold results");
    assert_eq!(warm_fail, cold_fail);
    assert_eq!(normalized_stream(&warm_events), normalized_stream(&cold_events));
    let _ = std::fs::remove_dir_all(&lab);
}

/// One program whose run length its seed picks (through `rand`), so an
/// adaptive policy's samples vary and its later rounds run.
fn noisy_suite() -> Suite {
    let mut suite = fex_suites::micro();
    suite.programs.truncate(1);
    suite.programs[0].name = "noisy";
    suite.programs[0].source = r#"
fn main(n) -> int {
  var k = n + rand(n * 4);
  var s = 0;
  var i = 0;
  while (i < k) { s += i; i += 1; }
  return s % 1000000007;
}
"#;
    suite
}

/// An adaptive rerun over a lab that holds only the first reps: round 0
/// is served, so no pair compiles up front; a later round misses, and
/// its pair compiles then, with a second `build` event. The results
/// equal a cold run of the adaptive configuration.
#[test]
fn a_later_adaptive_round_builds_its_pair_on_demand() {
    let fixed = ExperimentConfig::new("micro")
        .types(vec!["gcc_native", "clang_native"])
        .input(InputSize::Test)
        .repetitions(2);
    let adaptive = fixed.clone().adaptive_repetitions(2, 4, 1e-9);
    let cold_lab = temp_dir("adaptive-cold");
    let (cold_csv, cold_fail, cold_events, _) = run_graphed(&adaptive, noisy_suite(), &cold_lab);
    assert!(cold_csv.lines().count() > 5, "the samples vary, so later rounds run:\n{cold_csv}");
    let lab = temp_dir("adaptive-warm");
    run_graphed(&fixed, noisy_suite(), &lab);
    let (warm_csv, warm_fail, warm_events, (_, misses)) =
        run_graphed(&adaptive, noisy_suite(), &lab);
    assert!(misses > 0, "the later rounds must miss for this test to mean anything");
    assert_eq!(warm_csv, cold_csv, "on-demand builds reproduce the cold results");
    assert_eq!(warm_fail, cold_fail);
    let pairs = ["gcc_native", "clang_native"].map(|ty| ("noisy".to_string(), ty.to_string()));
    assert_eq!(build_counts(&cold_events), (2, 0));
    let compiled = compiled_pairs(&warm_events);
    assert_eq!(compiled, pairs, "each pair builds once, when its first rep misses");
    assert_eq!(build_counts(&warm_events), (4, 2));
    // The round-0 events come first, one per pair, all unbuilt; each
    // on-demand build follows them.
    let builds: Vec<&JournalEvent> =
        warm_events.iter().filter(|e| matches!(e, JournalEvent::Build { .. })).collect();
    assert!(builds[..2].iter().all(|e| matches!(e, JournalEvent::Build { cache_hit: true, .. })));
    let _ = std::fs::remove_dir_all(&cold_lab);
    let _ = std::fs::remove_dir_all(&lab);
}

/// Fault-armed benchmarks bypass the graph entirely: their retries and
/// failure records replay on every run, while healthy benchmarks are
/// still served.
#[test]
fn fault_armed_benchmarks_bypass_the_graph() {
    let config = ExperimentConfig::new("micro")
        .types(vec!["gcc_native"])
        .input(InputSize::Test)
        .repetitions(2)
        .fault(FaultInjection::for_benchmark("ptrchase", FaultPlan::persistent(FaultKind::Trap)));
    let lab = temp_dir("fault-bypass");
    let (_, cold_fail, cold_events, _) = run_graphed(&config, fex_suites::micro(), &lab);
    let (_, warm_fail, warm_events, (hits, misses)) =
        run_graphed(&config, fex_suites::micro(), &lab);
    assert!(!cold_fail.lines().skip(1).collect::<Vec<_>>().is_empty(), "fault plan must fire");
    assert_eq!(warm_fail, cold_fail, "failure records must replay identically warm");
    assert_eq!(misses, 0, "fault-armed units never consult the graph");
    assert!(hits > 0, "healthy benchmarks are still served");
    let faulty_graph_events = warm_events.iter().any(|e| {
        matches!(
            e,
            JournalEvent::GraphHit { benchmark, .. } | JournalEvent::GraphMiss { benchmark, .. }
                if benchmark == "ptrchase"
        )
    });
    assert!(!faulty_graph_events, "fault-armed units emit no graph events");
    // Uncacheable units need their program, so the armed pair compiles
    // on every run while the healthy pairs are left unbuilt.
    let (builds, _) = build_counts(&cold_events);
    assert_eq!(compiled_pairs(&cold_events).len(), builds);
    let ptrchase = [("ptrchase".to_string(), "gcc_native".to_string())];
    assert_eq!(compiled_pairs(&warm_events), ptrchase, "the armed pair compiles warm too");
    assert_eq!(build_counts(&warm_events), (builds, builds - 1));
    let _ = std::fs::remove_dir_all(&lab);
}

/// A cost-model knob change re-keys the decoded layer and everything
/// downstream of it — and nothing upstream: source and compiled keys
/// keep their digests, so a warm re-run after a cost change re-executes
/// only the run cells below the new decoded key.
#[test]
fn cost_knob_change_dirties_exactly_the_dependent_nodes() {
    use fex_core::graph::{compiled_key, decoded_key, unit_key};

    let source = fex_cc::source_digest("fft", "int main() { return fft(); }");
    let compiled = compiled_key(source, "gcc", "6.1.0", 2, false, false);

    let base = CostModel::default();
    let mut tweaked = CostModel::default();
    tweaked.fdiv += 1;
    assert_ne!(base.fingerprint(), tweaked.fingerprint(), "knob must move the fingerprint");

    let decoded_base = decoded_key(compiled, PassMask::all().bits(), base.fingerprint());
    let decoded_tweaked = decoded_key(compiled, PassMask::all().bits(), tweaked.fingerprint());
    assert_ne!(decoded_base, decoded_tweaked, "decoded layer must be dirtied");

    let unit_base = unit_key(decoded_base, 7, 1, Some(0), "test", &[64], None);
    let unit_tweaked = unit_key(decoded_tweaked, 7, 1, Some(0), "test", &[64], None);
    assert_ne!(unit_base, unit_tweaked, "run units downstream must be dirtied");

    // Upstream layers are untouched: the same source and compiled keys
    // are derived regardless of the cost model.
    let source_again = fex_cc::source_digest("fft", "int main() { return fft(); }");
    let compiled_again = compiled_key(source_again, "gcc", "6.1.0", 2, false, false);
    assert_eq!(source, source_again);
    assert_eq!(compiled, compiled_again);
}

/// Changing the pass subset between runs re-keys the decoded layer, so
/// every run unit is stored again under the new subset and nothing else
/// is stored; re-running either configuration afterwards is fully warm.
#[test]
fn pass_subset_change_dirties_decoded_and_run_layers_only() {
    let base = ExperimentConfig::new("micro").types(vec!["gcc_native"]).input(InputSize::Test);
    let lab = temp_dir("passes");
    let all = base.clone().passes(PassMask::all());
    let none = base.clone().passes(PassMask::none());

    let (_, _, _, (h1, m1)) = run_graphed(&all, fex_suites::micro(), &lab);
    assert_eq!(h1, 0);
    let (_, _, _, (h2, m2)) = run_graphed(&none, fex_suites::micro(), &lab);
    assert_eq!(h2, 0, "a different pass subset shares no run-unit nodes");
    assert_eq!(m1, m2, "same unit count under both subsets");

    let graph = ArtifactGraph::open(&lab).unwrap();
    let micro_benches = m1 as usize;
    assert_eq!(
        graph.node_counts(),
        [(NodeKind::RunUnit, 2 * micro_benches)].into(),
        "the lab holds run units only, one per unit under each pass subset"
    );

    let (_, _, _, (h3, m3)) = run_graphed(&all, fex_suites::micro(), &lab);
    let (_, _, _, (h4, m4)) = run_graphed(&none, fex_suites::micro(), &lab);
    assert_eq!((m3, m4), (0, 0), "both configurations stay warm");
    assert_eq!((h3, h4), (h2 + m2, h2 + m2));
    let _ = std::fs::remove_dir_all(&lab);
}

/// `--no-graph` disables lookups and stores even with the graph
/// attached, and the CSVs are byte-identical either way. Without the
/// graph — `--no-graph`, or no lab at all — every pair compiles, the
/// paper's rebuild-everything rule, even over a populated graph.
#[test]
fn no_graph_escape_hatch_is_byte_invisible() {
    let on = ExperimentConfig::new("micro").types(vec!["gcc_native"]).input(InputSize::Test);
    let off = on.clone().graph(false);
    let lab_on = temp_dir("hatch-on");
    let lab_off = temp_dir("hatch-off");
    let (csv_on, fail_on, _, _) = run_graphed(&on, fex_suites::micro(), &lab_on);
    let (csv_off, fail_off, _, (hits, misses)) = run_graphed(&off, fex_suites::micro(), &lab_off);
    assert_eq!(csv_on, csv_off);
    assert_eq!(fail_on, fail_off);
    assert_eq!((hits, misses), (0, 0), "--no-graph must not consult the cache");
    assert!(ArtifactGraph::open(&lab_off).unwrap().is_empty(), "--no-graph must not store");
    let (_, _, off_events, _) = run_graphed(&off, fex_suites::micro(), &lab_on);
    let (builds, hits) = build_counts(&off_events);
    assert!(builds > 0);
    assert_eq!(hits, 0, "--no-graph never leaves a pair unbuilt");
    let makefiles = MakefileSet::standard();
    let mut log = Vec::new();
    let mut ctx = RunContext::new(&on, &makefiles, &mut log);
    SuiteRunner::new(fex_suites::micro(), &on).run(&mut ctx).unwrap();
    assert_eq!(build_counts(ctx.journal.events()), (builds, 0), "no lab, no unbuilt pair");
    let _ = std::fs::remove_dir_all(&lab_on);
    let _ = std::fs::remove_dir_all(&lab_off);
}

/// A lab written before payloads moved into the pack — one
/// `nodes/<digest>/payload.json` per node and index lines without
/// `offset`/`len` — keeps working: its lines are skipped with one
/// warning, its units re-execute once into the pack and are served from
/// then on, and `fex lab fsck --quarantine` drops the old lines and moves
/// the node tree aside, leaving a clean lab.
#[test]
fn pre_pack_labs_re_store_their_units_and_fsck_cleans_them() {
    use std::fs;

    let config = ExperimentConfig::new("micro")
        .types(vec!["gcc_native"])
        .input(InputSize::Test)
        .repetitions(2);
    // A donor run supplies genuine nodes, written back in the old layout.
    let donor = temp_dir("pre-pack-donor");
    let (cold_csv, _, _, (_, units)) = run_graphed(&config, fex_suites::micro(), &donor);
    let donor_graph = donor.join(ArtifactGraph::SUBDIR);
    let (entries, _) = ArtifactGraph::scan_at(&donor_graph);
    let pack = fs::read(donor_graph.join(ArtifactGraph::PACK)).unwrap();
    let lab = temp_dir("pre-pack");
    let graph_root = lab.join(ArtifactGraph::SUBDIR);
    let mut index = String::new();
    for e in &entries {
        let node = graph_root.join("nodes").join(e.digest.trim_start_matches("fex256:"));
        fs::create_dir_all(&node).unwrap();
        let range = e.offset as usize..(e.offset + e.len) as usize;
        fs::write(node.join("payload.json"), &pack[range]).unwrap();
        index += &format!(
            "{{\"digest\": \"{}\", \"seq\": {}, \"kind\": \"{}\", \"payload\": \"{}\"}}\n",
            e.digest, e.seq, e.kind, e.payload_digest
        );
    }
    fs::write(graph_root.join("index.json"), index).unwrap();

    let opened = ArtifactGraph::open(&lab).unwrap();
    assert!(opened.is_empty());
    assert_eq!(
        opened.warnings(),
        [format!(
            "{} graph entries predate the pack layout; `fex lab fsck --quarantine` drops them",
            entries.len()
        )]
    );
    drop(opened);
    let (first_csv, _, _, first) = run_graphed(&config, fex_suites::micro(), &lab);
    assert_eq!(first, (0, units), "pre-pack entries are never served");
    let (warm_csv, _, _, warm) = run_graphed(&config, fex_suites::micro(), &lab);
    assert_eq!(warm, (units, 0), "re-stored units are served from the pack");
    assert_eq!(first_csv, cold_csv);
    assert_eq!(warm_csv, cold_csv);

    let store = RunStore::open(&lab).unwrap();
    let report = fsck::check(&store);
    let count = |kind| report.issues.iter().filter(|i| i.kind == kind).count();
    assert_eq!(count(IssueKind::CorruptGraphIndexLine), entries.len(), "{}", report.render());
    assert_eq!(count(IssueKind::OrphanGraphNode), 1, "{}", report.render());
    assert_eq!(report.issues.len(), entries.len() + 1, "{}", report.render());
    fsck::fsck(&store, true).unwrap();
    let after = fsck::check(&store);
    assert!(after.clean(), "{}", after.render());
    assert_eq!(after.graph_nodes_checked, entries.len());
    assert!(!graph_root.join("nodes").exists());
    assert!(lab.join("quarantine").join("graph-nodes").is_dir(), "old payloads kept as evidence");
    assert!(ArtifactGraph::open(&lab).unwrap().warnings().is_empty());
    let (_, _, _, repaired) = run_graphed(&config, fex_suites::micro(), &lab);
    assert_eq!(repaired, (units, 0), "quarantine keeps every packed node");
    let _ = fs::remove_dir_all(&donor);
    let _ = fs::remove_dir_all(&lab);
}

/// A lab written while the graph also stored provenance — a `source`,
/// `compiled` and `decoded` node per pair, written at build time, and an
/// `aggregate` node per result set — opens without warnings, passes
/// fsck clean and serves every unit warm without storing anything new.
/// `fex graph stats` counts the four old kinds as `retired`.
#[test]
fn a_lab_holding_retired_node_kinds_opens_clean_and_serves_warm() {
    use fex_container::Digest;
    use fex_core::graph::compiled_key;
    use fex_core::lab::RunArtifacts;

    let config = ExperimentConfig::new("micro")
        .types(vec!["gcc_native", "gcc_asan"])
        .input(InputSize::Test)
        .repetitions(2);
    let lab = temp_dir("retired-kinds");
    let makefiles = MakefileSet::standard();
    let programs = fex_suites::micro().programs;
    let mut graph = ArtifactGraph::open(&lab).unwrap();
    for ty in &config.build_types {
        let opts = makefiles.build_options(ty, false).unwrap();
        for p in &programs {
            let (b, backend) = (p.name, &opts.backend);
            let source = fex_cc::source_digest(b, p.source);
            let compiled = compiled_key(
                source,
                backend.name,
                backend.version,
                opts.opt_level,
                opts.asan,
                opts.debug,
            );
            let decoded = makefiles.artifact_digest(b, p.source, ty, false, config.passes).unwrap();
            let info = opts.build_info();
            for (kind, key, payload) in [
                (NodeKind::Source, source, format!(r#"{{"node": "source", "benchmark": "{b}"}}"#)),
                (
                    NodeKind::Compiled,
                    compiled,
                    format!(
                        r#"{{"node": "compiled", "benchmark": "{b}", "build_info": "{info}"}}"#
                    ),
                ),
                (
                    NodeKind::Decoded,
                    decoded,
                    format!(r#"{{"node": "decoded", "benchmark": "{b}", "build_type": "{ty}"}}"#),
                ),
            ] {
                graph.store_node(kind, &key, &payload).unwrap();
            }
        }
    }
    drop(graph);
    let (cold_csv, cold_fail, _, (_, units)) = run_graphed(&config, fex_suites::micro(), &lab);
    let art = RunArtifacts {
        results_csv: &cold_csv,
        failures_csv: &cold_fail,
        metrics_json: None,
        journal_digest: None,
    };
    let run_id = RunStore::run_id(&config, &art);
    let aggregate = Digest(u128::from_str_radix(run_id.trim_start_matches("fex256:"), 16).unwrap());
    let payload = format!(r#"{{"node": "aggregate", "experiment": "micro", "rows": {units}}}"#);
    let mut graph = ArtifactGraph::open(&lab).unwrap();
    graph.store_node(NodeKind::Aggregate, &aggregate, &payload).unwrap();
    drop(graph);

    let graph = ArtifactGraph::open(&lab).unwrap();
    assert!(graph.warnings().is_empty(), "{:?}", graph.warnings());
    let (benches, pairs, units) = (programs.len(), 2 * programs.len(), units as usize);
    assert_eq!(
        graph.node_counts(),
        [
            (NodeKind::Source, benches),
            (NodeKind::Compiled, pairs),
            (NodeKind::Decoded, pairs),
            (NodeKind::RunUnit, units),
            (NodeKind::Aggregate, 1),
        ]
        .into()
    );
    let retired = benches + 2 * pairs + 1;
    let stats = graph.render_stats();
    let rows: Vec<&str> = stats.lines().skip(1).collect();
    assert_eq!(
        rows,
        [
            "kind        nodes".to_string(),
            format!("run_unit   {units:>6}"),
            format!("retired    {retired:>6}"),
            format!("total      {:>6}", units + retired),
        ]
    );
    drop(graph);

    let report = fsck::check(&RunStore::open(&lab).unwrap());
    assert!(report.clean(), "{}", report.render());
    assert_eq!(report.graph_nodes_checked, units + retired);
    let (warm_csv, warm_fail, warm_events, warm) = run_graphed(&config, fex_suites::micro(), &lab);
    assert_eq!(warm, (units as u64, 0), "every unit is served warm");
    assert_eq!((warm_csv, warm_fail), (cold_csv, cold_fail));
    assert_eq!(build_counts(&warm_events), (pairs, pairs), "no pair is rebuilt");
    assert_eq!(ArtifactGraph::open(&lab).unwrap().len(), units + retired, "nothing new stored");
    let _ = std::fs::remove_dir_all(&lab);
}
