//! The structured run journal: a machine-readable account of what ran,
//! where the time went, and why a unit was retried or quarantined.
//!
//! Fex's value proposition is trustworthy, reproducible measurement, yet
//! log lines alone cannot be replayed or audited. This module adds the
//! missing observability layer:
//!
//! * [`JournalEvent`] — the typed event vocabulary. Every run unit leaves
//!   a trail: build start/end with content digest and cache-hit flag,
//!   unit claim (which worker picked it up), VM execution with the
//!   machine's cycle/cache/fault counters, one `run_fault` per faulted
//!   attempt, the unit's final outcome (clean / recovered / failed /
//!   quarantined), merge-time quarantine skips, and experiment/phase
//!   bookkeeping.
//! * [`Journal`] — the per-experiment event buffer threaded through
//!   [`RunContext`](crate::runner::RunContext). The parallel scheduler
//!   keeps its `--jobs N` hot path lock-free by accumulating each unit's
//!   events in the worker that ran it (carried home inside the unit's
//!   outcome) and splicing them into the journal at merge time, in
//!   matrix order — so the journal of a `--jobs 8` run contains exactly
//!   the events of a `--jobs 1` run, worker ids and wall times aside.
//! * [`Metrics`] — the roll-up written to `metrics.json` next to the
//!   results CSV: phase wall times, decode-cache hit rate, the retry
//!   histogram and per-benchmark cycle totals.
//! * [`render_report`] — the `fex report <journal>` renderer: rebuilds
//!   the phase/time breakdown and the per-unit timeline from a
//!   `journal.jsonl` alone, skipping malformed lines and unknown event
//!   types with warnings instead of panicking.
//!
//! The journal is strictly an observer: journaling on vs off
//! (`--no-journal`) leaves the results and failure CSVs byte-identical,
//! which `tests/journal_diff.rs` locks down.
//!
//! Events serialize as one flat JSON object per line (`journal.jsonl`).
//! Serialization is hand-rolled (the workspace builds offline, without
//! serde); the private parser below understands exactly the flat-object
//! subset the writer emits.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use fex_vm::{RunResult, UnitCounters};

use crate::error::FexError;

/// Journal format version, recorded in the `experiment_start` event so
/// future readers can dispatch on schema changes.
///
/// Version 2 added the `store_write` event (the run was archived into
/// the result store). Version 3 added the `graph_hit`/`graph_miss` pair
/// (artifact-graph lookups in front of run-unit execution). Version 4
/// added the `serve_*` family (`serve_submit`, `serve_enqueue`,
/// `serve_dispatch`, `serve_stream`, `serve_evict`) emitted by the
/// `fex serve` daemon's own journal.
pub const JOURNAL_VERSION: u64 = 4;

/// Declares the journal schema once. Each entry names a variant, its
/// `"event"` wire name and its fields in JSON key order; a field marked
/// `[volatile]` legitimately differs between observationally identical
/// runs and [`JournalEvent::normalize`] resets it to its default. The
/// macro generates the enum, `kind`, `to_json`, [`parse_line`] and the
/// volatile reset from that one table, so they cannot drift apart.
macro_rules! journal_schema {
    (
        $(#[$enum_meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident = $wire:literal {
                    $(
                        $(#[$field_meta:meta])*
                        $([$volatile:ident])? $field:ident: $ty:ty
                    ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$enum_meta])*
        pub enum $name {
            $(
                $(#[$variant_meta])*
                $variant { $( $(#[$field_meta])* $field: $ty, )* },
            )*
        }

        impl $name {
            /// The event's `"event"` discriminator string.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => $wire, )*
                }
            }

            /// Serializes the event as one JSON line (no trailing newline).
            pub fn to_json(&self) -> String {
                let mut w = JsonLine::new(self.kind());
                match self {
                    $( $name::$variant { $($field),* } => {
                        $( w.field(stringify!($field), $field); )*
                    } )*
                }
                w.finish()
            }

            /// Resets every `[volatile]` field to its type's default.
            fn reset_volatile(&mut self) {
                match self {
                    $( $name::$variant { $($field),* } => {
                        $( reset_if_volatile!($($volatile)? $field); )*
                    } )*
                }
            }
        }

        /// Parses one `journal.jsonl` line back into an event. Every field
        /// is required except `Option` ones, which read a missing key as
        /// `None`.
        ///
        /// # Errors
        ///
        /// [`ParseIssue::Malformed`] on broken JSON or missing fields,
        /// [`ParseIssue::UnknownEvent`] on an unrecognized `"event"` value.
        pub fn parse_line(line: &str) -> std::result::Result<$name, ParseIssue> {
            let map = parse_flat_object(line)?;
            let kind: String = get(&map, "event")?;
            Ok(match kind.as_str() {
                $( $wire => $name::$variant { $( $field: get(&map, stringify!($field))?, )* }, )*
                other => return Err(ParseIssue::UnknownEvent(other.to_string())),
            })
        }
    };
}

/// One field of [`journal_schema!`]'s volatile reset: zero it when it is
/// marked `[volatile]`, leave it alone otherwise.
macro_rules! reset_if_volatile {
    (volatile $field:ident) => {
        *$field = Default::default()
    };
    ($field:ident) => {
        let _ = $field;
    };
}

journal_schema! {
    /// One typed journal event. Field names match the JSON keys.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JournalEvent {
        /// The experiment began: identity and effective scheduler width.
        ExperimentStart = "experiment_start" {
            /// Experiment name (`-n`).
            name: String,
            /// Effective worker count (`--jobs` after auto resolution).
            [volatile] jobs: usize,
            /// Experiment seed.
            seed: u64,
            /// Journal schema version ([`JOURNAL_VERSION`]).
            version: u64,
        },
        /// One benchmark × type artifact was resolved: compiled, or left
        /// unbuilt because the artifact graph served every unit.
        Build = "build" {
            /// Benchmark name.
            benchmark: String,
            /// Build type.
            build_type: String,
            /// Content digest of the artifact (cache key).
            digest: String,
            /// Whether the pair was left unbuilt because the artifact
            /// graph served every one of its units (only with `--lab`);
            /// `false` when it compiled. Normalizes to `false`.
            cache_hit: bool,
            /// Wall time of the build step.
            [volatile] wall_ns: u64,
        },
        /// A worker claimed an executable run unit.
        UnitClaim = "unit_claim" {
            /// Benchmark name.
            benchmark: String,
            /// Build type.
            build_type: String,
            /// Thread (core) count.
            threads: usize,
            /// Repetition index; `None` for benchmark-level units (dry runs).
            rep: Option<usize>,
            /// Worker index that ran the unit (always 0 at `--jobs 1`;
            /// varies with `--jobs`).
            [volatile] worker: usize,
        },
        /// The VM executed a run unit successfully: the measured counters.
        VmExec = "vm_exec" {
            /// Benchmark name.
            benchmark: String,
            /// Build type.
            build_type: String,
            /// Thread (core) count.
            threads: usize,
            /// Repetition index; `None` for dry runs.
            rep: Option<usize>,
            /// Retired instructions.
            instructions: u64,
            /// Elapsed cycles on the main timeline.
            cycles: u64,
            /// L1D misses.
            l1_misses: u64,
            /// LLC misses.
            llc_misses: u64,
            /// Mispredicted branches.
            branch_mispredicts: u64,
            /// Security/fault events the machine observed during the run.
            faults: u64,
            /// Entry-function exit value.
            exit: i64,
        },
        /// One faulted attempt of a run unit (the retry/backoff trail).
        RunFault = "run_fault" {
            /// Benchmark name.
            benchmark: String,
            /// Build type.
            build_type: String,
            /// Thread (core) count.
            threads: usize,
            /// Repetition index; `None` for benchmark-level units.
            rep: Option<usize>,
            /// 0-based attempt index that faulted.
            attempt: u64,
            /// The attempt's error message.
            error: String,
        },
        /// A run unit settled: the final resilience verdict.
        UnitOutcome = "unit_outcome" {
            /// Benchmark name.
            benchmark: String,
            /// Build type.
            build_type: String,
            /// Thread (core) count.
            threads: usize,
            /// Repetition index; `None` for benchmark-level units.
            rep: Option<usize>,
            /// `clean`, `recovered`, `failed` or `quarantined`.
            outcome: String,
            /// Attempts spent (1 = clean first try).
            attempts: usize,
            /// Simulated backoff cycles charged between attempts.
            backoff_cycles: u64,
        },
        /// A quarantined benchmark was skipped for a whole build type.
        QuarantineSkip = "quarantine_skip" {
            /// Benchmark name.
            benchmark: String,
            /// Build type whose runs were skipped.
            build_type: String,
        },
        /// The artifact graph served this run unit's cached result; the VM
        /// was not entered. Whether a unit hits or misses is cache state, not
        /// behaviour, so `normalize()` rewrites hits to misses — warm and
        /// cold normalized streams are byte-identical.
        GraphHit = "graph_hit" {
            /// Benchmark name.
            benchmark: String,
            /// Build type.
            build_type: String,
            /// Thread (core) count.
            threads: usize,
            /// Repetition index; `None` for dry runs.
            rep: Option<usize>,
        },
        /// The artifact graph had no node for this run unit; it executed on
        /// the VM (and, when clean, was stored for the next warm run).
        GraphMiss = "graph_miss" {
            /// Benchmark name.
            benchmark: String,
            /// Build type.
            build_type: String,
            /// Thread (core) count.
            threads: usize,
            /// Repetition index; `None` for dry runs.
            rep: Option<usize>,
        },
        /// Decoded-artifact cache accounting for the whole experiment.
        DecodeCache = "decode_cache" {
            /// Artifacts resolved, one per `build` event; metrics.json's
            /// `build_cache_hits` says how many the graph served.
            decodes: usize,
            /// Run units served a pre-decoded program (their `vm_exec`
            /// events, execution twins included).
            served: usize,
        },
        /// The completed experiment was archived into the result store.
        StoreWrite = "store_write" {
            /// Experiment name.
            experiment: String,
            /// Content-addressed run id (`fex256:…`).
            run_id: String,
            /// Monotonic sequence number assigned by the store index. Where
            /// in the index the run landed is history, not run behaviour: an
            /// archival rerun appends at a later position while producing
            /// identical artifacts.
            [volatile] seq: u64,
        },
        // Serve-side nondeterminism: tenant identity, the daemon's
        // submission counter, queue depth/latency and worker ids are all
        // scheduling history, and cache accounting is cache state — two
        // clients submitting the same work in any order, served hot or
        // cold, must normalize to the same events.
        /// A tenant's experiment submission arrived over the serve socket.
        ServeSubmit = "serve_submit" {
            /// Tenant identity, as claimed by the client.
            [volatile] tenant: String,
            /// Daemon-assigned submission sequence number.
            [volatile] submission: u64,
            /// Content-addressed submission key (`fex256:…` over the suite
            /// sources and every config axis).
            key: String,
        },
        /// The submission entered the bounded priority/FIFO queue.
        ServeEnqueue = "serve_enqueue" {
            /// Submission sequence number.
            [volatile] submission: u64,
            /// Client-requested priority (higher dispatches first).
            priority: i64,
            /// Queue depth after insertion.
            [volatile] depth: usize,
        },
        /// A serve worker pulled the submission off the queue.
        ServeDispatch = "serve_dispatch" {
            /// Submission sequence number.
            [volatile] submission: u64,
            /// Worker index that claimed it.
            [volatile] worker: usize,
            /// Queue latency: enqueue → dispatch wall time.
            [volatile] wait_ns: u64,
        },
        /// The submission's result stream went back to its client, with the
        /// per-tenant cache accounting.
        ServeStream = "serve_stream" {
            /// Tenant identity.
            [volatile] tenant: String,
            /// Submission sequence number.
            [volatile] submission: u64,
            /// Journal events streamed live over the connection.
            [volatile] events: usize,
            /// Run units the shared artifact graph served from cache.
            [volatile] graph_hits: usize,
            /// Run units the graph had to execute.
            [volatile] graph_misses: usize,
            /// Whether the whole submission was served from the store layer
            /// without running anything.
            [volatile] store_hit: bool,
        },
        /// A submission was evicted instead of queued (bounded queue
        /// overflow, or the daemon was draining).
        ServeEvict = "serve_evict" {
            /// Submission sequence number.
            [volatile] submission: u64,
            /// Why it was turned away.
            reason: String,
        },
        /// A pipeline phase finished.
        PhaseEnd = "phase_end" {
            /// Phase name (`run`, `collect`).
            phase: String,
            /// Wall time of the phase.
            [volatile] wall_ns: u64,
        },
        /// The experiment finished.
        ExperimentEnd = "experiment_end" {
            /// Rows in the results frame.
            rows: usize,
            /// Records in the failure report.
            failure_records: usize,
            /// Wall time of the whole experiment.
            [volatile] wall_ns: u64,
        },
    }
}

impl JournalEvent {
    /// A `vm_exec` event from a run unit's measured result, with the
    /// counters exported by [`fex_vm::UnitCounters`].
    pub fn vm_exec(
        benchmark: &str,
        build_type: &str,
        threads: usize,
        rep: Option<usize>,
        run: &RunResult,
    ) -> JournalEvent {
        let c = UnitCounters::of(run);
        JournalEvent::VmExec {
            benchmark: benchmark.to_string(),
            build_type: build_type.to_string(),
            threads,
            rep,
            instructions: c.instructions,
            cycles: c.cycles,
            l1_misses: c.l1_misses,
            llc_misses: c.llc_misses,
            branch_mispredicts: c.branch_mispredicts,
            faults: c.fault_events,
            exit: run.exit,
        }
    }

    /// Zeroes the fields that legitimately differ between observationally
    /// identical runs — the schema's `[volatile]` fields: wall times,
    /// worker ids, the effective job count, store and serve bookkeeping —
    /// so differential tests can compare full event streams.
    pub fn normalize(&mut self) {
        self.reset_volatile();
        // Hit-vs-miss is artifact-cache state, not run behaviour: a warm
        // run that serves a unit from the graph, or leaves a pair it
        // fully serves unbuilt, is observationally identical to the cold
        // run that computed it, so normalized streams erase the
        // distinction.
        match self {
            JournalEvent::GraphHit { benchmark, build_type, threads, rep } => {
                *self = JournalEvent::GraphMiss {
                    benchmark: std::mem::take(benchmark),
                    build_type: std::mem::take(build_type),
                    threads: *threads,
                    rep: *rep,
                };
            }
            JournalEvent::Build { cache_hit, .. } => *cache_hit = false,
            _ => {}
        }
    }
}

/// Why a journal line could not be turned into an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseIssue {
    /// The line is not a well-formed flat JSON object, or a required
    /// field is missing or mistyped.
    Malformed(String),
    /// The line parses but names an event type this reader does not know
    /// (e.g. a journal written by a newer version).
    UnknownEvent(String),
}

impl std::fmt::Display for ParseIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseIssue::Malformed(m) => write!(f, "malformed journal line: {m}"),
            ParseIssue::UnknownEvent(k) => write!(f, "unknown event type `{k}`"),
        }
    }
}

/// A bad field in a protocol line that shares the journal's flat-JSON
/// grammar (the serve wire format) is a configuration error naming it.
impl From<ParseIssue> for FexError {
    fn from(issue: ParseIssue) -> Self {
        match issue {
            ParseIssue::Malformed(m) => FexError::Config(m),
            other => FexError::Config(other.to_string()),
        }
    }
}

// ---------------------------------------------------------------------
// The journal buffer
// ---------------------------------------------------------------------

/// The per-experiment event buffer.
///
/// Disabled journals (`--no-journal`) drop every emission, so call sites
/// that would allocate to *construct* an event should guard on
/// [`enabled`](Journal::enabled) first.
#[derive(Debug, Default)]
pub struct Journal {
    enabled: bool,
    events: Vec<JournalEvent>,
    phase_starts: Vec<(&'static str, Instant)>,
}

impl Journal {
    /// Creates a journal; a disabled one ignores all emissions.
    pub fn new(enabled: bool) -> Self {
        Journal { enabled, events: Vec::new(), phase_starts: Vec::new() }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends one event (no-op when disabled).
    pub fn emit(&mut self, event: JournalEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Splices a batch of events recorded elsewhere (a worker's
    /// per-unit buffer) into the journal, preserving their order.
    pub fn extend(&mut self, events: Vec<JournalEvent>) {
        if self.enabled {
            self.events.extend(events);
        }
    }

    /// Marks the start of a named phase.
    pub fn phase_start(&mut self, phase: &'static str) {
        if self.enabled {
            self.phase_starts.push((phase, Instant::now()));
        }
    }

    /// Ends the innermost matching phase, emitting a
    /// [`JournalEvent::PhaseEnd`] with its wall time.
    pub fn phase_end(&mut self, phase: &'static str) {
        if !self.enabled {
            return;
        }
        if let Some(pos) = self.phase_starts.iter().rposition(|(p, _)| *p == phase) {
            let (_, start) = self.phase_starts.remove(pos);
            self.emit(JournalEvent::PhaseEnd {
                phase: phase.to_string(),
                wall_ns: start.elapsed().as_nanos() as u64,
            });
        }
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[JournalEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the journal as JSON lines (one event per line).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            s.push_str(&e.to_json());
            s.push('\n');
        }
        s
    }
}

// ---------------------------------------------------------------------
// Metrics roll-up
// ---------------------------------------------------------------------

/// The aggregate view of one journal, written as `metrics.json` next to
/// the results CSV.
///
/// Pure function of the event stream, so `fex report` can recompute it
/// from `journal.jsonl` alone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Experiment name (from `experiment_start`).
    pub experiment: String,
    /// Effective scheduler width.
    pub jobs: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Total events in the journal.
    pub events: usize,
    /// Summed build wall time.
    pub build_wall_ns: u64,
    /// Run-phase wall time.
    pub run_wall_ns: u64,
    /// Collect-phase wall time.
    pub collect_wall_ns: u64,
    /// Whole-experiment wall time.
    pub experiment_wall_ns: u64,
    /// Artifacts resolved (`build` events).
    pub builds: usize,
    /// Those left unbuilt because the artifact graph served every unit.
    pub build_cache_hits: usize,
    /// Artifacts resolved, one per `build` event (`decode_cache`);
    /// `build_cache_hits` says how many the graph served.
    pub decodes: usize,
    /// Run units served a pre-decoded program.
    pub decode_served: usize,
    /// Run units served a cached result by the artifact graph.
    pub graph_hits: usize,
    /// Run units the artifact graph had no node for.
    pub graph_misses: usize,
    /// attempts → number of units that settled with that many attempts.
    pub retry_histogram: BTreeMap<usize, usize>,
    /// outcome name → unit count.
    pub unit_outcomes: BTreeMap<String, usize>,
    /// Quarantined benchmarks, in quarantine order (deduplicated).
    pub quarantined: Vec<String>,
    /// benchmark → total measured cycles across its executions.
    pub per_benchmark_cycles: BTreeMap<String, u64>,
    /// Rows in the results frame.
    pub rows: usize,
    /// Records in the failure report.
    pub failure_records: usize,
    /// Total simulated backoff cycles charged.
    pub backoff_cycles: u64,
    /// Total faulted attempts (`run_fault` events).
    pub run_faults: usize,
}

impl Metrics {
    /// Aggregates a journal's event stream.
    pub fn from_journal(events: &[JournalEvent]) -> Metrics {
        let mut m = Metrics { events: events.len(), ..Metrics::default() };
        for e in events {
            match e {
                JournalEvent::ExperimentStart { name, jobs, seed, .. } => {
                    m.experiment = name.clone();
                    m.jobs = *jobs;
                    m.seed = *seed;
                }
                JournalEvent::Build { cache_hit, wall_ns, .. } => {
                    m.builds += 1;
                    m.build_cache_hits += usize::from(*cache_hit);
                    m.build_wall_ns += wall_ns;
                }
                JournalEvent::VmExec { benchmark, cycles, .. } => {
                    *m.per_benchmark_cycles.entry(benchmark.clone()).or_insert(0) += cycles;
                }
                JournalEvent::RunFault { .. } => m.run_faults += 1,
                JournalEvent::UnitOutcome {
                    benchmark, outcome, attempts, backoff_cycles, ..
                } => {
                    *m.retry_histogram.entry(*attempts).or_insert(0) += 1;
                    *m.unit_outcomes.entry(outcome.clone()).or_insert(0) += 1;
                    m.backoff_cycles = m.backoff_cycles.saturating_add(*backoff_cycles);
                    if outcome == "quarantined" && !m.quarantined.contains(benchmark) {
                        m.quarantined.push(benchmark.clone());
                    }
                }
                JournalEvent::GraphHit { .. } => m.graph_hits += 1,
                JournalEvent::GraphMiss { .. } => m.graph_misses += 1,
                JournalEvent::DecodeCache { decodes, served } => {
                    m.decodes = *decodes;
                    m.decode_served = *served;
                }
                JournalEvent::PhaseEnd { phase, wall_ns } => match phase.as_str() {
                    "run" => m.run_wall_ns = *wall_ns,
                    "collect" => m.collect_wall_ns = *wall_ns,
                    _ => {}
                },
                JournalEvent::ExperimentEnd { rows, failure_records, wall_ns } => {
                    m.rows = *rows;
                    m.failure_records = *failure_records;
                    m.experiment_wall_ns = *wall_ns;
                }
                _ => {}
            }
        }
        m
    }

    /// Decode-cache hit rate in `[0, 1]`: the fraction of served
    /// executions that reused an existing decode pass.
    pub fn decode_hit_rate(&self) -> f64 {
        if self.decode_served == 0 {
            0.0
        } else {
            self.decode_served.saturating_sub(self.decodes) as f64 / self.decode_served as f64
        }
    }

    /// Artifact-graph hit rate in `[0, 1]`: the fraction of graph lookups
    /// that served a cached run-unit result.
    pub fn graph_hit_rate(&self) -> f64 {
        let lookups = self.graph_hits + self.graph_misses;
        if lookups == 0 {
            0.0
        } else {
            self.graph_hits as f64 / lookups as f64
        }
    }

    /// Serializes as stable, human-diffable JSON. Keys ending in `_ns`
    /// carry wall times and are the only volatile fields; golden tests
    /// normalize them to 0.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"experiment\": {},", json_str(&self.experiment));
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"events\": {},", self.events);
        let _ = writeln!(s, "  \"build_wall_ns\": {},", self.build_wall_ns);
        let _ = writeln!(s, "  \"run_wall_ns\": {},", self.run_wall_ns);
        let _ = writeln!(s, "  \"collect_wall_ns\": {},", self.collect_wall_ns);
        let _ = writeln!(s, "  \"experiment_wall_ns\": {},", self.experiment_wall_ns);
        let _ = writeln!(s, "  \"builds\": {},", self.builds);
        let _ = writeln!(s, "  \"build_cache_hits\": {},", self.build_cache_hits);
        let _ = writeln!(s, "  \"decode_cache\": {{");
        let _ = writeln!(s, "    \"decodes\": {},", self.decodes);
        let _ = writeln!(s, "    \"served\": {},", self.decode_served);
        let _ = writeln!(s, "    \"hit_rate\": {:.4}", self.decode_hit_rate());
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"artifact_graph\": {{");
        let _ = writeln!(s, "    \"hits\": {},", self.graph_hits);
        let _ = writeln!(s, "    \"misses\": {},", self.graph_misses);
        let _ = writeln!(s, "    \"hit_rate\": {:.4}", self.graph_hit_rate());
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"retry_histogram\": {{");
        write_map(&mut s, self.retry_histogram.iter().map(|(k, v)| (k.to_string(), v.to_string())));
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"unit_outcomes\": {{");
        write_map(&mut s, self.unit_outcomes.iter().map(|(k, v)| (k.clone(), v.to_string())));
        let _ = writeln!(s, "  }},");
        let quarantined: Vec<String> = self.quarantined.iter().map(|b| json_str(b)).collect();
        let _ = writeln!(s, "  \"quarantined\": [{}],", quarantined.join(", "));
        let _ = writeln!(s, "  \"per_benchmark_cycles\": {{");
        write_map(
            &mut s,
            self.per_benchmark_cycles.iter().map(|(k, v)| (k.clone(), v.to_string())),
        );
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"rows\": {},", self.rows);
        let _ = writeln!(s, "  \"failure_records\": {},", self.failure_records);
        let _ = writeln!(s, "  \"backoff_cycles\": {},", self.backoff_cycles);
        let _ = writeln!(s, "  \"run_faults\": {}", self.run_faults);
        s.push_str("}\n");
        s
    }

    /// Reads the `decode_cache` and `artifact_graph` counters back out of
    /// [`to_json`](Metrics::to_json) text (the lab archives it as
    /// `metrics.json`): a `Metrics` with `decodes`, `decode_served`,
    /// `graph_hits` and `graph_misses` set and every other field default.
    /// `None` unless all four counters are present.
    pub fn parse_cache_counters(metrics_json: &str) -> Option<Metrics> {
        let mut m = Metrics::default();
        let mut section = "";
        let mut seen = 0;
        for line in metrics_json.lines() {
            let line = line.trim();
            if line.starts_with("\"decode_cache\":") {
                section = "decode";
            } else if line.starts_with("\"artifact_graph\":") {
                section = "graph";
            } else if line.starts_with('}') {
                section = "";
            }
            let mut take = |name: &str, slot: fn(&mut Metrics) -> &mut usize| {
                let value = line.strip_prefix(&format!("\"{name}\": "))?;
                *slot(&mut m) = value.trim_end_matches(',').parse().ok()?;
                seen += 1;
                Some(())
            };
            match section {
                "decode" => {
                    take("decodes", |m| &mut m.decodes);
                    take("served", |m| &mut m.decode_served);
                }
                "graph" => {
                    take("hits", |m| &mut m.graph_hits);
                    take("misses", |m| &mut m.graph_misses);
                }
                _ => {}
            }
        }
        (seen == 4).then_some(m)
    }
}

/// Writes `"key": value,` lines for a JSON sub-object, without a
/// trailing comma on the last entry.
fn write_map(s: &mut String, entries: impl Iterator<Item = (String, String)>) {
    let entries: Vec<(String, String)> = entries.collect();
    let last = entries.len().saturating_sub(1);
    for (i, (k, v)) in entries.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        let _ = writeln!(s, "    {}: {}{}", json_str(k), v, comma);
    }
}

// ---------------------------------------------------------------------
// `fex report <journal>` rendering
// ---------------------------------------------------------------------

/// A rendered journal report plus the warnings produced while reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderedReport {
    /// The ASCII phase/time breakdown and per-unit timeline.
    pub report: String,
    /// One warning per skipped line (malformed JSON or unknown event).
    pub warnings: Vec<String>,
    /// Events that parsed. `0` means the journal was empty or entirely
    /// malformed — callers should refuse to render such a report.
    pub events: usize,
}

/// Formats a nanosecond wall time for the phase table.
fn fmt_ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

/// Describes a unit's coordinates for the timeline.
fn unit_coord(benchmark: &str, build_type: &str, threads: usize, rep: Option<usize>) -> String {
    let rep = rep.map_or_else(|| "-".to_string(), |r| r.to_string());
    format!("{build_type}/{benchmark} m={threads} rep={rep}")
}

/// Parses `journal.jsonl` text with per-line fault isolation: blank
/// lines are skipped, and every line that does not parse becomes a
/// `(1-based line, issue)` pair instead of a failure.
pub fn parse_jsonl(jsonl: &str) -> (Vec<JournalEvent>, Vec<(usize, ParseIssue)>) {
    let mut events = Vec::new();
    let mut issues = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(e) => events.push(e),
            Err(issue) => issues.push((i + 1, issue)),
        }
    }
    (events, issues)
}

/// Renders the `fex report <journal>` view from `journal.jsonl` text:
/// experiment identity, the phase/time table, unit-outcome counts, the
/// retry histogram, decode-cache accounting and the per-unit timeline
/// with every unit's retry/quarantine history.
///
/// Malformed lines and unknown event types are skipped with a warning —
/// a truncated or future-versioned journal still renders everything that
/// can be read.
pub fn render_report(jsonl: &str) -> RenderedReport {
    let (events, issues) = parse_jsonl(jsonl);
    let warnings: Vec<String> = issues
        .iter()
        .map(|(line, issue)| format!("journal line {line}: skipped: {issue}"))
        .collect();
    let m = Metrics::from_journal(&events);

    let mut out = String::new();
    if m.experiment.is_empty() {
        let _ = writeln!(out, "experiment <unknown> (no experiment_start event)");
    } else {
        let _ = writeln!(out, "experiment `{}` — seed {}, jobs {}", m.experiment, m.seed, m.jobs);
    }
    let _ = writeln!(out, "journal: {} events, {} lines skipped", m.events, warnings.len());
    let _ = writeln!(out);

    // Phase/time breakdown.
    let _ = writeln!(out, "{:<12} {:>14}", "phase", "wall time");
    let _ = writeln!(out, "{:<12} {:>14}", "build", fmt_ms(m.build_wall_ns));
    let _ = writeln!(out, "{:<12} {:>14}", "run", fmt_ms(m.run_wall_ns));
    let _ = writeln!(out, "{:<12} {:>14}", "collect", fmt_ms(m.collect_wall_ns));
    let _ = writeln!(out, "{:<12} {:>14}", "total", fmt_ms(m.experiment_wall_ns));
    let _ = writeln!(out);

    // Roll-ups.
    let units: usize = m.unit_outcomes.values().sum();
    let counts: Vec<String> = ["clean", "recovered", "failed", "quarantined"]
        .iter()
        .filter_map(|k| m.unit_outcomes.get(*k).map(|n| format!("{n} {k}")))
        .collect();
    let _ = writeln!(out, "units: {units} settled — {}", counts.join(", "));
    let histogram: Vec<String> =
        m.retry_histogram.iter().map(|(attempts, n)| format!("{attempts}\u{d7}{n}")).collect();
    let _ = writeln!(out, "retry histogram (attempts\u{d7}units): {}", histogram.join("  "));
    if m.decode_served > 0 {
        let _ = writeln!(
            out,
            "decoded-artifact cache: {} decodes served {} executions ({:.1}% hit rate)",
            m.decodes,
            m.decode_served,
            100.0 * m.decode_hit_rate()
        );
    }
    if m.graph_hits + m.graph_misses > 0 {
        let _ = writeln!(
            out,
            "artifact graph: {} hits / {} misses ({:.1}% hit rate)",
            m.graph_hits,
            m.graph_misses,
            100.0 * m.graph_hit_rate()
        );
    }
    if !m.quarantined.is_empty() {
        let _ = writeln!(out, "quarantined: {}", m.quarantined.join(", "));
    }
    let _ = writeln!(out, "rows collected: {}, failure records: {}", m.rows, m.failure_records);
    let _ = writeln!(out);

    // Per-unit timeline: events arrive grouped per unit (claim, exec,
    // faults, outcome); accumulate the pending unit and flush a line at
    // its outcome.
    let _ = writeln!(out, "per-unit timeline:");
    let mut pending_worker: Option<usize> = None;
    let mut pending_cycles: Option<u64> = None;
    let mut pending_faults: Vec<(u64, String)> = Vec::new();
    for e in &events {
        match e {
            JournalEvent::UnitClaim { worker, .. } => pending_worker = Some(*worker),
            JournalEvent::VmExec { cycles, .. } => pending_cycles = Some(*cycles),
            JournalEvent::RunFault { attempt, error, .. } => {
                pending_faults.push((*attempt, error.clone()));
            }
            JournalEvent::UnitOutcome {
                benchmark,
                build_type,
                threads,
                rep,
                outcome,
                attempts,
                ..
            } => {
                let coord = unit_coord(benchmark, build_type, *threads, *rep);
                let mut line = format!("  {coord:<44} {outcome:<12} {attempts} attempt(s)");
                if let Some(c) = pending_cycles.take() {
                    let _ = write!(line, "  {c} cycles");
                }
                if let Some(w) = pending_worker.take() {
                    let _ = write!(line, "  [worker {w}]");
                }
                let _ = writeln!(out, "{line}");
                for (attempt, error) in pending_faults.drain(..) {
                    let _ = writeln!(out, "      attempt {attempt} faulted: {error}");
                }
            }
            JournalEvent::QuarantineSkip { benchmark, build_type } => {
                let _ = writeln!(
                    out,
                    "  {:<44} skipped (benchmark quarantined)",
                    format!("{build_type}/{benchmark}")
                );
            }
            _ => {}
        }
    }
    RenderedReport { report: out, warnings, events: events.len() }
}

// ---------------------------------------------------------------------
// Minimal flat-JSON plumbing (the workspace builds offline, no serde)
// ---------------------------------------------------------------------

/// Escapes a string as a JSON string literal (quotes included).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Builder for one `{"event": "...", ...}` JSON line.
pub(crate) struct JsonLine {
    buf: String,
}

impl JsonLine {
    pub(crate) fn new(kind: &str) -> Self {
        JsonLine { buf: format!("{{\"event\": {}", json_str(kind)) }
    }

    /// Starts an object whose first key is `key` rather than `"event"`.
    pub(crate) fn object(key: &str, val: &str) -> Self {
        JsonLine { buf: format!("{{{}: {}", json_str(key), json_str(val)) }
    }

    pub(crate) fn str(&mut self, key: &str, val: &str) -> &mut Self {
        let _ = write!(self.buf, ", {}: {}", json_str(key), json_str(val));
        self
    }

    /// Appends one typed field.
    pub(crate) fn field<T: Field>(&mut self, key: &str, val: &T) -> &mut Self {
        let _ = write!(self.buf, ", {}: ", json_str(key));
        val.write(&mut self.buf);
        self
    }

    pub(crate) fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed flat JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Str(String),
    /// An integer in `i64::MIN..=u64::MAX`, so both signed and unsigned
    /// 64-bit fields round-trip.
    Int(i128),
    Bool(bool),
    Null,
}

fn malformed(msg: impl Into<String>) -> ParseIssue {
    ParseIssue::Malformed(msg.into())
}

/// Parses a single-line flat JSON object (string / integer / bool / null
/// values only — exactly what the journal writer emits).
pub(crate) fn parse_flat_object(
    line: &str,
) -> std::result::Result<BTreeMap<String, Json>, ParseIssue> {
    let mut chars = line.trim().chars().peekable();
    let mut map = BTreeMap::new();
    if chars.next() != Some('{') {
        return Err(malformed("expected `{`"));
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return finishing(chars, map);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(malformed(format!("expected `:` after key `{key}`")));
        }
        skip_ws(&mut chars);
        let val = parse_value(&mut chars)?;
        map.insert(key, val);
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => return finishing(chars, map),
            other => return Err(malformed(format!("expected `,` or `}}`, got {other:?}"))),
        }
    }
}

fn finishing(
    mut chars: std::iter::Peekable<std::str::Chars<'_>>,
    map: BTreeMap<String, Json>,
) -> std::result::Result<BTreeMap<String, Json>, ParseIssue> {
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err(malformed("trailing characters after object"));
    }
    Ok(map)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> std::result::Result<String, ParseIssue> {
    if chars.next() != Some('"') {
        return Err(malformed("expected string"));
    }
    let mut s = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(s),
            Some('\\') => match chars.next() {
                Some('"') => s.push('"'),
                Some('\\') => s.push('\\'),
                Some('/') => s.push('/'),
                Some('n') => s.push('\n'),
                Some('r') => s.push('\r'),
                Some('t') => s.push('\t'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| malformed(format!("bad \\u escape `{hex}`")))?;
                    s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(malformed(format!("bad escape {other:?}"))),
            },
            Some(c) => s.push(c),
            None => return Err(malformed("unterminated string")),
        }
    }
}

fn parse_value(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> std::result::Result<Json, ParseIssue> {
    match chars.peek() {
        Some('"') => Ok(Json::Str(parse_string(chars)?)),
        Some('t') | Some('f') | Some('n') => {
            let mut word = String::new();
            while chars.peek().is_some_and(|c| c.is_ascii_alphabetic()) {
                word.push(chars.next().expect("peeked"));
            }
            match word.as_str() {
                "true" => Ok(Json::Bool(true)),
                "false" => Ok(Json::Bool(false)),
                "null" => Ok(Json::Null),
                other => Err(malformed(format!("unknown literal `{other}`"))),
            }
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let mut num = String::new();
            while chars.peek().is_some_and(|c| *c == '-' || c.is_ascii_digit()) {
                num.push(chars.next().expect("peeked"));
            }
            match num.parse::<i128>() {
                Ok(n) if (i128::from(i64::MIN)..=i128::from(u64::MAX)).contains(&n) => {
                    Ok(Json::Int(n))
                }
                _ => Err(malformed(format!("bad number `{num}`"))),
            }
        }
        other => Err(malformed(format!("unexpected value start {other:?}"))),
    }
}

/// One field type of the flat-JSON grammar: how a value is written into
/// a [`JsonLine`] and read back out of a parsed object.
pub(crate) trait Field: Sized {
    /// Appends the value's JSON text.
    fn write(&self, out: &mut String);

    /// Decodes the present value of field `key`.
    fn read(value: &Json, key: &str) -> std::result::Result<Self, ParseIssue>;

    /// The value of an absent field; required fields are malformed.
    fn absent(key: &str) -> std::result::Result<Self, ParseIssue> {
        Err(malformed(format!("missing field `{key}`")))
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        out.push_str(&json_str(self));
    }

    fn read(value: &Json, key: &str) -> std::result::Result<Self, ParseIssue> {
        match value {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(malformed(format!("field `{key}` is not a string"))),
        }
    }
}

impl Field for bool {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(value: &Json, key: &str) -> std::result::Result<Self, ParseIssue> {
        match value {
            Json::Bool(b) => Ok(*b),
            _ => Err(malformed(format!("field `{key}` is not a bool"))),
        }
    }
}

/// Reads an integer field, narrowing it to `T`.
fn read_int<T: TryFrom<i128>>(value: &Json, key: &str) -> std::result::Result<T, ParseIssue> {
    match value {
        Json::Int(n) => T::try_from(*n).map_err(|_| {
            let why = if *n < 0 { "negative" } else { "out of range" };
            malformed(format!("field `{key}` is {why}"))
        }),
        _ => Err(malformed(format!("field `{key}` is not a number"))),
    }
}

macro_rules! int_field {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read(value: &Json, key: &str) -> std::result::Result<Self, ParseIssue> {
                read_int(value, key)
            }
        }
    )*};
}

int_field!(u64, u32, usize, i64);

/// `null` or absent reads as `None`.
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }

    fn read(value: &Json, key: &str) -> std::result::Result<Self, ParseIssue> {
        match value {
            Json::Null => Ok(None),
            v => T::read(v, key).map(Some),
        }
    }

    fn absent(_key: &str) -> std::result::Result<Self, ParseIssue> {
        Ok(None)
    }
}

/// Reads field `key` of a parsed flat object.
pub(crate) fn get<T: Field>(
    map: &BTreeMap<String, Json>,
    key: &str,
) -> std::result::Result<T, ParseIssue> {
    match map.get(key) {
        Some(v) => T::read(v, key),
        None => T::absent(key),
    }
}

/// Reads an optional field: absent or `null` yields `default`.
pub(crate) fn get_or<T: Field>(
    map: &BTreeMap<String, Json>,
    key: &str,
    default: T,
) -> std::result::Result<T, ParseIssue> {
    match map.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => T::read(v, key),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::ExperimentStart {
                name: "micro".into(),
                jobs: 4,
                seed: 42,
                version: JOURNAL_VERSION,
            },
            JournalEvent::Build {
                benchmark: "arrayread".into(),
                build_type: "gcc_native".into(),
                digest: "fex256:00ff".into(),
                cache_hit: false,
                wall_ns: 1200,
            },
            JournalEvent::GraphMiss {
                benchmark: "arrayread".into(),
                build_type: "gcc_native".into(),
                threads: 2,
                rep: Some(0),
            },
            JournalEvent::UnitClaim {
                benchmark: "arrayread".into(),
                build_type: "gcc_native".into(),
                threads: 2,
                rep: Some(0),
                worker: 3,
            },
            JournalEvent::VmExec {
                benchmark: "arrayread".into(),
                build_type: "gcc_native".into(),
                threads: 2,
                rep: Some(0),
                instructions: 1000,
                cycles: 2500,
                l1_misses: 10,
                llc_misses: 2,
                branch_mispredicts: 1,
                faults: 0,
                exit: 7,
            },
            JournalEvent::UnitOutcome {
                benchmark: "arrayread".into(),
                build_type: "gcc_native".into(),
                threads: 2,
                rep: Some(0),
                outcome: "clean".into(),
                attempts: 1,
                backoff_cycles: 0,
            },
            JournalEvent::RunFault {
                benchmark: "ptrchase".into(),
                build_type: "gcc_native".into(),
                threads: 1,
                rep: None,
                attempt: 0,
                error: "vm trap: injected fault \"quoted\"\n".into(),
            },
            JournalEvent::UnitOutcome {
                benchmark: "ptrchase".into(),
                build_type: "gcc_native".into(),
                threads: 1,
                rep: None,
                outcome: "quarantined".into(),
                attempts: 3,
                backoff_cycles: 3_000_000,
            },
            JournalEvent::QuarantineSkip {
                benchmark: "ptrchase".into(),
                build_type: "clang_native".into(),
            },
            JournalEvent::DecodeCache { decodes: 2, served: 8 },
            JournalEvent::PhaseEnd { phase: "run".into(), wall_ns: 5_000_000 },
            JournalEvent::ExperimentEnd { rows: 8, failure_records: 1, wall_ns: 6_000_000 },
        ]
    }

    #[test]
    fn every_event_round_trips_through_json() {
        let max_seed = JournalEvent::ExperimentStart {
            name: "micro".into(),
            jobs: 1,
            seed: u64::MAX,
            version: JOURNAL_VERSION,
        };
        for e in sample_events().into_iter().chain([max_seed]) {
            let line = e.to_json();
            let back = parse_line(&line).unwrap_or_else(|i| panic!("{i} for {line}"));
            assert_eq!(e, back, "round trip of {line}");
        }
    }

    #[test]
    fn store_write_round_trips_through_json() {
        let e = JournalEvent::StoreWrite {
            experiment: "micro".into(),
            run_id: "fex256:00000000000000000000000000abcdef".into(),
            seq: 7,
        };
        assert_eq!(e.kind(), "store_write");
        let back = parse_line(&e.to_json()).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn string_escapes_survive_the_round_trip() {
        let e = JournalEvent::RunFault {
            benchmark: "a\\b".into(),
            build_type: "t\"y".into(),
            threads: 1,
            rep: Some(2),
            attempt: 1,
            error: "line1\nline2\ttab \u{1} control".into(),
        };
        let back = parse_line(&e.to_json()).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn malformed_lines_are_reported_not_panicked() {
        for bad in [
            "",
            "{",
            "not json at all",
            "{\"event\": \"vm_exec\"",               // truncated
            "{\"event\": \"vm_exec\"} trailing",     // garbage after
            "{\"event\": \"build\", \"wall_ns\": }", // missing value
            "{\"event\": \"build\"}",                // missing fields
            "{\"event\": \"phase_end\", \"phase\": \"run\", \"wall_ns\": \"soon\"}", // mistyped
            "{\"event\": \"phase_end\", \"phase\": \"run\", \"wall_ns\": -5}", // negative
            "{\"event\": \"phase_end\", \"phase\": \"run\", \"wall_ns\": 18446744073709551616}",
        ] {
            match parse_line(bad) {
                Err(ParseIssue::Malformed(_)) => {}
                other => panic!("expected Malformed for {bad:?}, got {other:?}"),
            }
        }
    }

    /// Re-emits a parsed flat object without `key`.
    fn line_without(map: &BTreeMap<String, Json>, key: &str) -> String {
        let fields: Vec<String> = map
            .iter()
            .filter(|(k, _)| k.as_str() != key)
            .map(|(k, v)| {
                let v = match v {
                    Json::Str(s) => json_str(s),
                    Json::Int(n) => n.to_string(),
                    Json::Bool(b) => b.to_string(),
                    Json::Null => "null".into(),
                };
                format!("{}: {v}", json_str(k))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    #[test]
    fn every_field_is_required_except_options() {
        let rest = [
            JournalEvent::GraphHit {
                benchmark: "fft".into(),
                build_type: "gcc_native".into(),
                threads: 2,
                rep: Some(1),
            },
            JournalEvent::StoreWrite {
                experiment: "micro".into(),
                run_id: "fex256:00000000000000000000000000abcdef".into(),
                seq: 7,
            },
        ];
        let events: Vec<JournalEvent> =
            sample_events().into_iter().chain(serve_events()).chain(rest).collect();
        let kinds: std::collections::BTreeSet<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), 18, "every event kind is exercised: {kinds:?}");
        for e in &events {
            let map = parse_flat_object(&e.to_json()).unwrap();
            for key in map.keys() {
                let line = line_without(&map, key);
                match parse_line(&line) {
                    // `rep` is the schema's only `Option` field.
                    Ok(back) if key == "rep" => {
                        assert!(back.to_json().contains("\"rep\": null"), "{line}");
                    }
                    Err(ParseIssue::Malformed(m)) => {
                        assert!(m.contains(&format!("`{key}`")), "{m} for {line}");
                    }
                    other => panic!("dropping `{key}` from {line} gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unknown_event_types_are_distinguished_from_malformed() {
        let line = "{\"event\": \"teleport\", \"to\": \"mars\"}";
        assert_eq!(parse_line(line), Err(ParseIssue::UnknownEvent("teleport".into())));
    }

    #[test]
    fn disabled_journal_drops_everything() {
        let mut j = Journal::new(false);
        j.emit(JournalEvent::DecodeCache { decodes: 1, served: 1 });
        j.phase_start("run");
        j.phase_end("run");
        j.extend(sample_events());
        assert!(j.is_empty());
        assert_eq!(j.to_jsonl(), "");
    }

    #[test]
    fn phase_timing_emits_matched_pairs() {
        let mut j = Journal::new(true);
        j.phase_start("run");
        j.phase_end("run");
        j.phase_end("never_started"); // silently ignored
        assert_eq!(j.len(), 1);
        assert!(matches!(&j.events()[0], JournalEvent::PhaseEnd { phase, .. } if phase == "run"));
    }

    #[test]
    fn metrics_aggregate_the_stream() {
        let m = Metrics::from_journal(&sample_events());
        assert_eq!(m.experiment, "micro");
        assert_eq!(m.jobs, 4);
        assert_eq!(m.events, 12);
        assert_eq!((m.graph_hits, m.graph_misses), (0, 1));
        assert_eq!(m.retry_histogram.get(&1), Some(&1));
        assert_eq!(m.unit_outcomes.get("clean"), Some(&1));
        assert_eq!(m.builds, 1);
        assert_eq!(m.build_wall_ns, 1200);
        assert_eq!(m.run_wall_ns, 5_000_000);
        assert_eq!(m.rows, 8);
        assert_eq!(m.retry_histogram.get(&3), Some(&1));
        assert_eq!(m.unit_outcomes.get("quarantined"), Some(&1));
        assert_eq!(m.quarantined, vec!["ptrchase"]);
        assert_eq!(m.per_benchmark_cycles.get("arrayread"), Some(&2500));
        assert_eq!(m.run_faults, 1);
        assert!((m.decode_hit_rate() - 0.75).abs() < 1e-12);

        let json = m.to_json();
        assert!(json.contains("\"experiment\": \"micro\""));
        assert!(json.contains("\"hit_rate\": 0.7500"));
        assert!(json.contains("\"quarantined\": [\"ptrchase\"]"));
    }

    #[test]
    fn cache_counters_round_trip_through_metrics_json() {
        let mut m = Metrics::from_journal(&sample_events());
        (m.decodes, m.decode_served, m.graph_hits, m.graph_misses) = (3, 12, 7, 5);
        // Later sections whose keys collide with the counters' names.
        m.per_benchmark_cycles.insert("hits".into(), 99);
        m.unit_outcomes.insert("served".into(), 98);
        let back = Metrics::parse_cache_counters(&m.to_json()).expect("all four counters");
        assert_eq!(
            (back.decodes, back.decode_served, back.graph_hits, back.graph_misses),
            (3, 12, 7, 5)
        );
        assert_eq!(back.decode_hit_rate(), m.decode_hit_rate());
        assert_eq!(back.graph_hit_rate(), m.graph_hit_rate());
        assert_eq!(Metrics::parse_cache_counters("{\n  \"decode_cache\": {\n  },\n}\n"), None);
    }

    #[test]
    fn normalize_zeroes_only_the_volatile_fields() {
        let mut events = sample_events();
        for e in &mut events {
            e.normalize();
        }
        let m = Metrics::from_journal(&events);
        assert_eq!(m.build_wall_ns, 0);
        assert_eq!(m.run_wall_ns, 0);
        assert_eq!(m.jobs, 0);
        // Measured counters are untouched.
        assert_eq!(m.per_benchmark_cycles.get("arrayread"), Some(&2500));
        assert_eq!(m.backoff_cycles, 3_000_000);
    }

    #[test]
    fn graph_events_round_trip_and_normalize_to_misses() {
        let hit = JournalEvent::GraphHit {
            benchmark: "fft".into(),
            build_type: "gcc_native".into(),
            threads: 2,
            rep: None,
        };
        let miss = JournalEvent::GraphMiss {
            benchmark: "fft".into(),
            build_type: "gcc_native".into(),
            threads: 2,
            rep: None,
        };
        assert_eq!((hit.kind(), miss.kind()), ("graph_hit", "graph_miss"));
        assert_eq!(parse_line(&hit.to_json()).unwrap(), hit);
        assert_eq!(parse_line(&miss.to_json()).unwrap(), miss);
        // Warm runs differ from cold only in hit-vs-miss; normalization
        // must erase exactly that and nothing else.
        let mut normalized = hit.clone();
        normalized.normalize();
        assert_eq!(normalized, miss);
        let mut miss_normalized = miss.clone();
        miss_normalized.normalize();
        assert_eq!(miss_normalized, miss);
    }

    #[test]
    fn an_unbuilt_pair_normalizes_to_a_compiled_one() {
        let build = |cache_hit, wall_ns| JournalEvent::Build {
            benchmark: "fft".into(),
            build_type: "gcc_native".into(),
            digest: "fex256:00ff".into(),
            cache_hit,
            wall_ns,
        };
        let skipped = build(true, 40);
        assert_eq!(parse_line(&skipped.to_json()).unwrap(), skipped);
        let mut normalized = skipped.clone();
        normalized.normalize();
        assert_eq!(normalized, build(false, 0));
        let m = Metrics::from_journal(&[skipped, build(false, 1200)]);
        assert_eq!((m.builds, m.build_cache_hits), (2, 1));
    }

    fn serve_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::ServeSubmit {
                tenant: "alice".into(),
                submission: 3,
                key: "fex256:00000000000000000000000000000abc".into(),
            },
            JournalEvent::ServeEnqueue { submission: 3, priority: 5, depth: 2 },
            JournalEvent::ServeDispatch { submission: 3, worker: 1, wait_ns: 120_000 },
            JournalEvent::ServeStream {
                tenant: "alice".into(),
                submission: 3,
                events: 17,
                graph_hits: 8,
                graph_misses: 0,
                store_hit: true,
            },
            JournalEvent::ServeEvict { submission: 4, reason: "queue full".into() },
        ]
    }

    #[test]
    fn serve_events_round_trip_through_json() {
        let kinds: Vec<&str> = serve_events().iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            ["serve_submit", "serve_enqueue", "serve_dispatch", "serve_stream", "serve_evict"]
        );
        for e in serve_events() {
            let line = e.to_json();
            let back = parse_line(&line).unwrap_or_else(|i| panic!("{i} for {line}"));
            assert_eq!(e, back, "round trip of {line}");
        }
    }

    #[test]
    fn serve_normalization_erases_tenant_queue_and_cache_state() {
        // Two tenants submitting the same work in any order, served hot
        // or cold, must normalize to identical serve streams — the same
        // order-invariance contract StoreWrite's zeroed seq provides.
        let mut normalized = serve_events();
        for e in &mut normalized {
            e.normalize();
        }
        assert_eq!(
            normalized,
            vec![
                JournalEvent::ServeSubmit {
                    tenant: String::new(),
                    submission: 0,
                    key: "fex256:00000000000000000000000000000abc".into(),
                },
                JournalEvent::ServeEnqueue { submission: 0, priority: 5, depth: 0 },
                JournalEvent::ServeDispatch { submission: 0, worker: 0, wait_ns: 0 },
                JournalEvent::ServeStream {
                    tenant: String::new(),
                    submission: 0,
                    events: 0,
                    graph_hits: 0,
                    graph_misses: 0,
                    store_hit: false,
                },
                JournalEvent::ServeEvict { submission: 0, reason: "queue full".into() },
            ]
        );
        // The content-addressed key and the client-chosen priority are
        // submission identity, not scheduling history — they survive.
    }

    #[test]
    fn report_renders_phases_and_per_unit_history_from_jsonl_alone() {
        let jsonl: String = sample_events().iter().map(|e| e.to_json() + "\n").collect::<String>();
        let rendered = render_report(&jsonl);
        assert!(rendered.warnings.is_empty(), "{:?}", rendered.warnings);
        let r = &rendered.report;
        assert!(r.contains("experiment `micro` — seed 42, jobs 4"), "{r}");
        assert!(r.contains(&format!("{:<12} {:>14}", "run", "5.000 ms")), "{r}");
        assert!(r.contains(&format!("{:<12} {:>14}", "total", "6.000 ms")), "{r}");
        assert!(r.contains("quarantined: ptrchase"), "{r}");
        assert!(r.contains("gcc_native/arrayread m=2 rep=0"), "{r}");
        assert!(r.contains("[worker 3]"), "{r}");
        assert!(r.contains("attempt 0 faulted: vm trap: injected fault"), "{r}");
        assert!(r.contains("clang_native/ptrchase"), "{r}");
        assert!(r.contains("skipped (benchmark quarantined)"), "{r}");
    }

    #[test]
    fn report_skips_malformed_and_unknown_lines_with_warnings() {
        let mut jsonl = String::new();
        jsonl.push_str(&sample_events()[0].to_json());
        jsonl.push('\n');
        jsonl.push_str("{\"event\": \"vm_exec\", \"benchmark\": \"trunc"); // truncated JSON
        jsonl.push('\n');
        jsonl.push_str("{\"event\": \"from_the_future\", \"x\": 1}\n");
        jsonl.push('\n'); // blank lines are fine
        jsonl.push_str(&sample_events()[11].to_json());
        jsonl.push('\n');
        let rendered = render_report(&jsonl);
        assert_eq!(rendered.warnings.len(), 2, "{:?}", rendered.warnings);
        assert!(rendered.warnings[0].contains("line 2"));
        assert!(rendered.warnings[0].contains("malformed"));
        assert!(rendered.warnings[1].contains("unknown event type `from_the_future`"));
        assert!(rendered.report.contains("experiment `micro`"));
        assert!(rendered.report.contains("rows collected: 8"));
    }
}
