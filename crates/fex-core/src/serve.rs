//! `fex serve` — the multi-tenant experiment service.
//!
//! The batch CLI runs one experiment per process; this module promotes it
//! into a long-running daemon with campaign bookkeeping at scale:
//!
//! * **Protocol** — newline-delimited flat JSON over a Unix domain
//!   socket, reusing the journal's hand-rolled JSON discipline (the
//!   workspace builds offline, no serde). One request object per line;
//!   replies stream back over the same connection. The grammar is the
//!   journal's flat-object subset: string / integer / bool / null values
//!   only, so lists travel as comma-separated strings and the adaptive
//!   precision as a permille integer. A `submit` line carrying a key
//!   that is not a submission field is rejected by name.
//! * **Tenancy & queueing** — every submission gets a daemon-assigned
//!   submission id and carries a client-chosen tenant. Submissions wait
//!   in a *bounded* priority queue (higher [`Submission::priority`]
//!   first, FIFO within a priority); overflow is refused and journaled
//!   as a `serve_evict` event rather than silently dropped.
//! * **Cross-tenant cache reuse** — submissions are content-addressed
//!   ([`Submission::key`] digests the suite sources and every config
//!   axis, but *not* the tenant), so identical work from different
//!   tenants is served from the daemon's store layer without running
//!   anything, and partially-overlapping work is served per run unit by
//!   the lab's shared artifact graph. Both layers are
//!   journaled per tenant (`serve_stream` carries the hit accounting).
//! * **Worker pool** — real worker threads drain the queue. Every
//!   submission runs the full pipeline against one [`Lab`]: the daemon
//!   opens it on its first submission (not at start, so a lab restored
//!   into an idle daemon's directory is what it serves) and holds it,
//!   with the lab's write lock, until it exits. Workers take turns on the
//!   lab, so no submission reopens the graph or rescans the store index,
//!   while each still fans its run units out over `--jobs` workers
//!   inside the pipeline. A CLI writer on the same lab waits for the
//!   daemon to exit.
//!
//! Clean shutdown (`{"op": "shutdown"}`) stops intake, drains every
//! queued submission to its client, then exits; the daemon's own journal
//! is written to `<lab>/serve.journal.jsonl` on the way out.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use fex_container::DigestBuilder;
use fex_suites::{BenchProgram, InputSize, Suite};
use fex_vm::MeasureTool;

use crate::config::{input_from_name, tool_from_name, ExperimentConfig, Repetitions};
use crate::error::{FexError, Result};
use crate::flatjson::{get, get_or, FlatObject, Json, JsonLine};
use crate::journal::{self, Journal, JournalEvent};
use crate::lab::Lab;
use crate::resilience::RunPolicy;
use crate::workflow::Fex;

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Unix socket path the daemon listens on.
    pub socket: PathBuf,
    /// Shared lab directory: the store + artifact graph every submission
    /// consults and populates.
    pub lab: String,
    /// Worker threads draining the submission queue.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are evicted.
    pub queue_cap: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: PathBuf::from(".fex-serve.sock"),
            lab: ".fex-lab".into(),
            workers: 2,
            queue_cap: 64,
        }
    }
}

/// The keys a `submit` line may carry besides `program.<name>`. Any other
/// key is rejected by name, so a misspelt or retired field fails instead
/// of silently running with the default.
const SUBMIT_FIELDS: [&str; 16] = [
    "op",
    "tenant",
    "suite",
    "benchmark",
    "types",
    "threads",
    "reps",
    "max_reps",
    "precision_permille",
    "seed",
    "jobs",
    "budget",
    "input",
    "tool",
    "priority",
    "stream",
];

/// One experiment submission, as carried by the wire protocol.
///
/// Lists travel as comma-separated strings and the adaptive repetition
/// precision as a permille integer because the protocol's flat-JSON
/// grammar has no arrays or floats. Inline program sources ride along as
/// `program.<name>` keys, letting clients submit suites the daemon has
/// never seen.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// Client-chosen tenant identity (per-tenant cache accounting).
    pub tenant: String,
    /// Registered suite name (`micro`, `phoenix`, …) or `inline` for
    /// submissions carrying their own `program.<name>` sources.
    pub suite: String,
    /// Inline programs `(name, Cmm source)`, sorted by name.
    pub programs: Vec<(String, String)>,
    /// Restrict to a single benchmark.
    pub benchmark: Option<String>,
    /// Build types under test.
    pub build_types: Vec<String>,
    /// Thread sweep.
    pub threads: Vec<usize>,
    /// Fixed repetition count, or the adaptive minimum when
    /// `precision_permille > 0`.
    pub reps: usize,
    /// Adaptive repetition budget per cell (only with
    /// `precision_permille > 0`).
    pub max_reps: usize,
    /// Adaptive CI95 precision target in permille of the mean;
    /// `0` keeps the fixed policy.
    pub precision_permille: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Scheduler width inside the pipeline (`0` = auto).
    pub jobs: usize,
    /// Per-run instruction budget (`0` = the default policy).
    pub budget: u64,
    /// Input size name (`test` | `small` | `native`).
    pub input: String,
    /// Measurement tool name (`perf-stat` | `perf-stat-mem` | `time`).
    pub tool: String,
    /// Queue priority: higher dispatches first (FIFO within a level).
    pub priority: i64,
    /// Whether journal events stream back live before the result.
    pub stream: bool,
}

impl Submission {
    /// A minimal submission: one suite, framework defaults everywhere.
    pub fn new(tenant: impl Into<String>, suite: impl Into<String>) -> Submission {
        Submission {
            tenant: tenant.into(),
            suite: suite.into(),
            programs: Vec::new(),
            benchmark: None,
            build_types: vec!["gcc_native".into()],
            threads: vec![1],
            reps: 1,
            max_reps: 16,
            precision_permille: 0,
            seed: 42,
            jobs: 0,
            budget: 0,
            input: "test".into(),
            tool: "perf-stat".into(),
            priority: 0,
            stream: true,
        }
    }

    /// Serializes the submission as one protocol line (no newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonLine::object("op", "submit");
        w.str("tenant", &self.tenant)
            .str("suite", &self.suite)
            .str("benchmark", self.benchmark.as_deref().unwrap_or(""))
            .str("types", &self.build_types.join(","))
            .str("threads", &join_nums(&self.threads))
            .field("reps", &self.reps)
            .field("max_reps", &self.max_reps)
            .field("precision_permille", &self.precision_permille)
            .field("seed", &self.seed)
            .field("jobs", &self.jobs)
            .field("budget", &self.budget)
            .str("input", &self.input)
            .str("tool", &self.tool)
            .field("priority", &self.priority)
            .field("stream", &self.stream);
        for (name, source) in &self.programs {
            w.str(&format!("program.{name}"), source);
        }
        w.finish()
    }

    /// Parses a submission out of a decoded protocol object. The error
    /// names the offending field — the message is relayed verbatim in
    /// the daemon's `error` reply.
    pub(crate) fn parse(obj: &FlatObject<'_>) -> Result<Submission> {
        let mut sub = Submission::new(get::<String>(obj, "tenant")?, get::<String>(obj, "suite")?);
        if sub.tenant.is_empty() {
            return Err(FexError::Config("submission needs a non-empty tenant".into()));
        }
        let non_empty = |key| -> Result<Option<String>> {
            Ok(get::<Option<String>>(obj, key)?.filter(|s| !s.is_empty()))
        };
        if let Some(b) = non_empty("benchmark")? {
            sub.benchmark = Some(b);
        }
        if let Some(t) = non_empty("types")? {
            sub.build_types = t.split(',').map(str::to_string).collect();
        }
        if let Some(t) = non_empty("threads")? {
            sub.threads = split_nums(&t, "threads")?;
        }
        sub.reps = get_or(obj, "reps", sub.reps)?;
        sub.max_reps = get_or(obj, "max_reps", sub.max_reps)?;
        sub.precision_permille = get_or(obj, "precision_permille", sub.precision_permille)?;
        sub.seed = get_or(obj, "seed", sub.seed)?;
        sub.jobs = get_or(obj, "jobs", sub.jobs)?;
        sub.budget = get_or(obj, "budget", sub.budget)?;
        sub.input = get_or(obj, "input", sub.input)?;
        sub.tool = get_or(obj, "tool", sub.tool)?;
        sub.priority = get_or(obj, "priority", sub.priority)?;
        sub.stream = get_or(obj, "stream", sub.stream)?;
        // Key order, each repeated key at its last value: the first
        // unknown field named is the same whatever order the line has.
        for (k, v) in obj.by_key() {
            if let Some(name) = k.strip_prefix("program.") {
                match v {
                    Json::Str(src) => sub.programs.push((name.to_string(), src.to_string())),
                    _ => {
                        return Err(FexError::Config(format!("field `{k}` is not a string")));
                    }
                }
            } else if !SUBMIT_FIELDS.contains(&k) {
                return Err(FexError::Config(format!("unknown submission field `{k}`")));
            }
        }
        sub.programs.sort();
        if sub.reps == 0 {
            return Err(FexError::Config("reps must be at least 1".into()));
        }
        if sub.suite == "inline" {
            if sub.programs.is_empty() {
                return Err(FexError::Config(
                    "inline submissions need at least one `program.<name>` source".into(),
                ));
            }
        } else {
            // Reject unservable suites at the protocol boundary, before
            // the submission ever reaches the queue.
            registered_suite(&sub.suite)?;
        }
        input_from_name(&sub.input)?;
        tool_from_name(&sub.tool)?;
        Ok(sub)
    }

    /// The content-addressed submission key: a `fex256` digest over the
    /// suite identity (inline sources included) and every config axis
    /// that can change the result — but *not* the tenant, priority or
    /// streaming preference, so identical work from different tenants
    /// shares one cache cell.
    pub fn key(&self) -> String {
        let mut d = DigestBuilder::new();
        d.update_str(&self.suite);
        for (name, src) in &self.programs {
            d.update_str(name).update_str(src);
        }
        d.update_str(self.benchmark.as_deref().unwrap_or(""));
        for ty in &self.build_types {
            d.update_str(ty);
        }
        d.update_str(&join_nums(&self.threads));
        d.update(&(self.reps as u64).to_le_bytes());
        d.update(&(self.max_reps as u64).to_le_bytes());
        d.update(&self.precision_permille.to_le_bytes());
        d.update(&self.seed.to_le_bytes());
        d.update(&self.budget.to_le_bytes());
        d.update_str(&self.input);
        d.update_str(&self.tool);
        d.finish().to_string()
    }

    /// The experiment configuration this submission runs under. `lab`
    /// attaches the daemon's shared store + graph; `None` keeps the run
    /// ephemeral (direct differential reruns).
    pub fn config(&self, lab: Option<&str>) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(format!("serve-{}", self.suite))
            .types(self.build_types.clone())
            .threads(self.threads.clone())
            .seed(self.seed)
            .jobs(self.jobs)
            .input(input_from_name(&self.input).unwrap_or(InputSize::Test))
            .tool(tool_from_name(&self.tool).unwrap_or(MeasureTool::PerfStat));
        cfg.repetitions = if self.precision_permille > 0 {
            Repetitions::Adaptive {
                min: self.reps,
                max: self.max_reps.max(self.reps),
                rel_precision: self.precision_permille as f64 / 1000.0,
            }
        } else {
            Repetitions::Fixed(self.reps)
        };
        if let Some(b) = &self.benchmark {
            cfg = cfg.benchmark(b.clone());
        }
        if self.budget > 0 {
            cfg = cfg.resilience(RunPolicy::default().budget(self.budget));
        }
        if let Some(dir) = lab {
            cfg = cfg.lab(dir);
        }
        cfg
    }

    /// Materialises the submission's suite: a registered, open suite by
    /// name, or the inline programs (sources leak into `'static`, the
    /// same discipline the fuzz generator uses).
    ///
    /// # Errors
    ///
    /// [`FexError::Config`] for unknown or proprietary suites and empty
    /// inline submissions.
    pub fn suite(&self) -> Result<Suite> {
        if self.suite == "inline" {
            if self.programs.is_empty() {
                return Err(FexError::Config("inline submission has no programs".into()));
            }
            let programs = self
                .programs
                .iter()
                .map(|(name, src)| BenchProgram {
                    name: Box::leak(name.clone().into_boxed_str()),
                    description: "serve inline submission",
                    source: Box::leak(src.clone().into_boxed_str()),
                    test_args: vec![],
                    small_args: vec![],
                    native_args: vec![],
                    dry_run: false,
                })
                .collect();
            return Ok(Suite {
                name: "inline",
                description: "serve inline submission",
                programs,
                multithreaded: self.threads.iter().any(|&m| m > 1),
                proprietary: false,
            });
        }
        registered_suite(&self.suite)
    }
}

/// The registered, open suite called `name`.
fn registered_suite(name: &str) -> Result<Suite> {
    let suite = fex_suites::all_suites()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| FexError::Config(format!("unknown suite `{name}`")))?;
    if suite.proprietary {
        return Err(FexError::Config(format!(
            "suite `{name}` is proprietary and cannot be served"
        )));
    }
    Ok(suite)
}

/// How a completed submission was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Executed {
    /// Whole-submission store-layer serve: nothing ran.
    pub store_hit: bool,
    /// Run units the shared artifact graph served from cache.
    pub graph_hits: usize,
    /// Run units that executed on the VM.
    pub graph_misses: usize,
    /// Content-addressed run id of the archived run.
    pub run_id: String,
    /// Rows in the result frame.
    pub rows: usize,
    /// Failure-report records.
    pub failures: usize,
    /// Result CSV.
    pub results_csv: String,
    /// Failure CSV.
    pub failures_csv: String,
    /// The run's journal lines, streamed to the client when requested.
    pub journal_lines: Vec<String>,
}

impl Executed {
    /// The store-layer serve of this cached result: same artifacts, no
    /// journal to stream, flagged as a hit.
    fn served(&self) -> Executed {
        Executed {
            store_hit: true,
            graph_hits: 0,
            graph_misses: 0,
            journal_lines: Vec::new(),
            ..self.clone()
        }
    }
}

/// One submission's outcome, as seen by a protocol client.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Daemon-assigned submission id.
    pub submission: u64,
    /// Queue latency (enqueue → dispatch) reported by the daemon.
    pub wait_ns: u64,
    /// Whole-submission store serve.
    pub store_hit: bool,
    /// Artifact-graph unit hits.
    pub graph_hits: usize,
    /// Artifact-graph unit misses.
    pub graph_misses: usize,
    /// Archived run id.
    pub run_id: String,
    /// Result rows.
    pub rows: usize,
    /// Failure records.
    pub failures: usize,
    /// Result CSV.
    pub results_csv: String,
    /// Failure CSV.
    pub failures_csv: String,
    /// Journal lines streamed before the result.
    pub events: Vec<String>,
}

/// Per-tenant accounting, reported in the summary and by `stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Submissions completed for this tenant.
    pub submissions: u64,
    /// Whole-submission store serves.
    pub store_hits: u64,
    /// Artifact-graph unit hits across this tenant's runs.
    pub graph_hits: u64,
    /// Artifact-graph unit misses.
    pub graph_misses: u64,
}

/// The daemon's exit report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeSummary {
    /// Submissions accepted (including evicted ones).
    pub submissions: u64,
    /// Submissions completed to a result.
    pub completed: u64,
    /// Whole-submission store serves.
    pub store_hits: u64,
    /// Submissions evicted (queue overflow or draining).
    pub evictions: u64,
    /// Per-tenant accounting.
    pub tenants: BTreeMap<String, TenantStats>,
    /// The daemon's own journal (serve events).
    pub journal: Vec<JournalEvent>,
}

struct QueueEntry {
    submission: u64,
    priority: i64,
    sub: Submission,
    enqueued: Instant,
    reply: mpsc::Sender<WorkerMsg>,
}

enum WorkerMsg {
    Done { executed: Arc<Executed>, wait_ns: u64 },
    Failed(String),
}

#[derive(Default)]
struct QueueState {
    entries: Vec<QueueEntry>,
    draining: bool,
}

/// Index of the next entry to dispatch: highest priority, FIFO within a
/// priority level.
fn best_index(entries: &[QueueEntry]) -> Option<usize> {
    entries
        .iter()
        .enumerate()
        .max_by_key(|(_, e)| (e.priority, std::cmp::Reverse(e.submission)))
        .map(|(i, _)| i)
}

struct Inner {
    opts: ServeOptions,
    queue: Mutex<QueueState>,
    available: Condvar,
    journal: Mutex<Journal>,
    /// Completed submissions by key, in their store-serve form (no
    /// journal lines: a duplicate streams nothing).
    served: Mutex<HashMap<String, Arc<Executed>>>,
    tenants: Mutex<BTreeMap<String, TenantStats>>,
    /// The lab submissions run against: opened by the first one, then
    /// held, with its write lock, until the daemon exits. A run that
    /// panicked leaves it valid (a save bumps the seq only after its
    /// index line is appended), so a poisoned lock is taken over.
    lab: Mutex<Option<Lab>>,
    /// Live connections: each handler thread with a clone of its stream,
    /// so drain can EOF clients idling between requests without cutting
    /// in-flight result writes. Finished entries are dropped on accept.
    conns: Mutex<Vec<(std::thread::JoinHandle<()>, UnixStream)>>,
    next_submission: AtomicU64,
    completed: AtomicU64,
    store_hits: AtomicU64,
    evictions: AtomicU64,
}

impl Inner {
    fn emit(&self, event: JournalEvent) {
        self.journal.lock().expect("journal lock").emit(event);
    }

    fn begin_drain(&self) {
        let mut q = self.queue.lock().expect("queue lock");
        q.draining = true;
        self.available.notify_all();
        // Unblock the accept loop so it can observe the drain flag.
        drop(q);
        let _ = UnixStream::connect(&self.opts.socket);
    }

    fn execute(&self, sub: &Submission) -> Result<Arc<Executed>> {
        let key = sub.key();
        if let Some(hit) = self.served.lock().expect("served lock").get(&key) {
            self.store_hits.fetch_add(1, Ordering::SeqCst);
            return Ok(Arc::clone(hit));
        }
        let executed = self.execute_local(sub)?;
        self.served.lock().expect("served lock").insert(key, Arc::new(executed.served()));
        Ok(Arc::new(executed))
    }

    /// Runs the full build–run–collect pipeline against the daemon's lab,
    /// so the artifact graph serves every unchanged unit and the store
    /// archives the aggregate.
    fn execute_local(&self, sub: &Submission) -> Result<Executed> {
        let cfg = sub.config(Some(&self.opts.lab));
        let suite = sub.suite()?;
        let mut fex = Fex::new();
        {
            let mut held = self.lab.lock().unwrap_or_else(PoisonError::into_inner);
            let lab = match &mut *held {
                Some(lab) => lab,
                none => none.insert(Lab::open(&self.opts.lab, true)?),
            };
            fex.run_suite_in(&cfg, suite, lab)?;
        }
        let results_csv = fex.result_csv(&cfg.name).unwrap_or_default();
        let failures_csv = fex.failure_csv(&cfg.name).unwrap_or_default();
        let jsonl = fex.journal_jsonl(&cfg.name).unwrap_or_default();
        let mut graph_hits = 0;
        let mut graph_misses = 0;
        let mut run_id = String::new();
        for line in jsonl.lines() {
            match journal::parse_line(line) {
                Ok(JournalEvent::GraphHit { .. }) => graph_hits += 1,
                Ok(JournalEvent::GraphMiss { .. }) => graph_misses += 1,
                Ok(JournalEvent::StoreWrite { run_id: id, .. }) => run_id = id,
                _ => {}
            }
        }
        Ok(Executed {
            store_hit: false,
            graph_hits,
            graph_misses,
            run_id,
            rows: results_csv.lines().count().saturating_sub(1),
            failures: failures_csv.lines().count().saturating_sub(1),
            results_csv,
            failures_csv,
            journal_lines: jsonl.lines().map(str::to_string).collect(),
        })
    }

    fn record(&self, tenant: &str, executed: &Executed) {
        let mut tenants = self.tenants.lock().expect("tenants lock");
        let stats = tenants.entry(tenant.to_string()).or_default();
        stats.submissions += 1;
        stats.store_hits += u64::from(executed.store_hit);
        stats.graph_hits += executed.graph_hits as u64;
        stats.graph_misses += executed.graph_misses as u64;
    }
}

/// A running daemon: join it with [`ServerHandle::wait`].
pub struct ServerHandle {
    inner: Arc<Inner>,
    accept: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The socket the daemon listens on.
    pub fn socket(&self) -> &Path {
        &self.inner.opts.socket
    }

    /// Blocks until a client's `shutdown` drains the daemon, then
    /// writes `<lab>/serve.journal.jsonl` and reports the summary.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when the serve journal cannot be written.
    pub fn wait(self) -> Result<ServeSummary> {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
        // The queue is drained and every result message is in its
        // connection's channel; clients idling between requests would
        // block their handler threads in `read` forever. Shutting down
        // the read side EOFs those loops while in-flight result writes
        // still flush.
        let conns = std::mem::take(&mut *self.inner.conns.lock().expect("conns lock"));
        for (_, stream) in &conns {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        for (conn, _) in conns {
            let _ = conn.join();
        }
        let _ = std::fs::remove_file(&self.inner.opts.socket);
        // Every worker has finished, so the lab and its lock can go.
        drop(self.inner.lab.lock().unwrap_or_else(PoisonError::into_inner).take());
        let journal = std::mem::take(&mut *self.inner.journal.lock().expect("journal lock"));
        let jsonl = journal.to_jsonl();
        let path = Path::new(&self.inner.opts.lab).join("serve.journal.jsonl");
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, jsonl)
            .map_err(|e| FexError::Data(format!("cannot write `{}`: {e}", path.display())))?;
        Ok(ServeSummary {
            submissions: self.inner.next_submission.load(Ordering::SeqCst),
            completed: self.inner.completed.load(Ordering::SeqCst),
            store_hits: self.inner.store_hits.load(Ordering::SeqCst),
            evictions: self.inner.evictions.load(Ordering::SeqCst),
            tenants: self.inner.tenants.lock().expect("tenants lock").clone(),
            journal: journal.events().to_vec(),
        })
    }
}

/// The serve daemon.
pub struct Server;

impl Server {
    /// Binds the socket and starts the accept loop + worker pool.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when the socket cannot be bound.
    pub fn start(opts: ServeOptions) -> Result<ServerHandle> {
        let _ = std::fs::remove_file(&opts.socket);
        if let Some(parent) = opts.socket.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let listener = UnixListener::bind(&opts.socket).map_err(|e| {
            FexError::Data(format!("cannot bind serve socket `{}`: {e}", opts.socket.display()))
        })?;
        let workers = opts.workers.max(1);
        let inner = Arc::new(Inner {
            opts,
            queue: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            journal: Mutex::new(Journal::new(true)),
            served: Mutex::new(HashMap::new()),
            tenants: Mutex::new(BTreeMap::new()),
            lab: Mutex::new(None),
            conns: Mutex::new(Vec::new()),
            next_submission: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        });
        let worker_handles = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::spawn(move || worker_loop(&inner, i))
            })
            .collect();
        let accept_inner = inner.clone();
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_inner));
        Ok(ServerHandle { inner, accept, workers: worker_handles })
    }
}

fn accept_loop(listener: &UnixListener, inner: &Arc<Inner>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if inner.queue.lock().expect("queue lock").draining {
            return;
        }
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let conn_inner = inner.clone();
        let handle = std::thread::spawn(move || handle_connection(stream, &conn_inner));
        let mut conns = inner.conns.lock().expect("conns lock");
        conns.retain(|(h, _)| !h.is_finished());
        conns.push((handle, clone));
    }
}

fn worker_loop(inner: &Arc<Inner>, worker: usize) {
    loop {
        let entry = {
            let mut q = inner.queue.lock().expect("queue lock");
            loop {
                if let Some(i) = best_index(&q.entries) {
                    break q.entries.remove(i);
                }
                if q.draining {
                    return;
                }
                q = inner.available.wait(q).expect("queue wait");
            }
        };
        let wait_ns = entry.enqueued.elapsed().as_nanos() as u64;
        inner.emit(JournalEvent::ServeDispatch { submission: entry.submission, worker, wait_ns });
        match inner.execute(&entry.sub) {
            Ok(executed) => {
                inner.record(&entry.sub.tenant, &executed);
                inner.emit(JournalEvent::ServeStream {
                    tenant: entry.sub.tenant.clone(),
                    submission: entry.submission,
                    events: executed.journal_lines.len(),
                    graph_hits: executed.graph_hits,
                    graph_misses: executed.graph_misses,
                    store_hit: executed.store_hit,
                });
                inner.completed.fetch_add(1, Ordering::SeqCst);
                let _ = entry.reply.send(WorkerMsg::Done { executed, wait_ns });
            }
            Err(e) => {
                let _ = entry.reply.send(WorkerMsg::Failed(e.to_string()));
            }
        }
    }
}

fn handle_connection(stream: UnixStream, inner: &Arc<Inner>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let reader = BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else {
            return;
        };
        if line.trim().is_empty() {
            continue;
        }
        let result = handle_request(&line, &mut writer, inner);
        match result {
            Ok(true) => {}
            Ok(false) => return, // shutdown acknowledged; close
            Err(e) => {
                if write_line(&mut writer, &error_reply(0, &e.to_string())).is_err() {
                    return;
                }
            }
        }
    }
}

/// One decoded protocol request.
#[derive(Debug)]
pub(crate) enum Request {
    Submit(Box<Submission>),
    Stats,
    Shutdown,
}

impl Request {
    /// Decodes one request line; the error is the daemon's `error`
    /// reply message.
    pub(crate) fn parse(line: &str) -> Result<Request> {
        let obj = FlatObject::parse(line)
            .map_err(|e| FexError::Config(format!("malformed submission: {e}")))?;
        let op: String = get(&obj, "op")?;
        match op.as_str() {
            "submit" => Ok(Request::Submit(Box::new(Submission::parse(&obj)?))),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(FexError::Config(format!("unknown op `{other}`"))),
        }
    }
}

/// Handles one request line. Returns `Ok(false)` when the connection
/// should close (after a `shutdown` acknowledgement).
fn handle_request(line: &str, writer: &mut UnixStream, inner: &Arc<Inner>) -> Result<bool> {
    match Request::parse(line)? {
        Request::Submit(sub) => {
            let submission = inner.next_submission.fetch_add(1, Ordering::SeqCst) + 1;
            inner.emit(JournalEvent::ServeSubmit {
                tenant: sub.tenant.clone(),
                submission,
                key: sub.key(),
            });
            let (tx, rx) = mpsc::channel();
            {
                let mut q = inner.queue.lock().expect("queue lock");
                let reason = if q.draining {
                    Some("daemon is draining")
                } else if q.entries.len() >= inner.opts.queue_cap {
                    Some("queue full")
                } else {
                    None
                };
                if let Some(reason) = reason {
                    drop(q);
                    inner.evictions.fetch_add(1, Ordering::SeqCst);
                    inner.emit(JournalEvent::ServeEvict { submission, reason: reason.into() });
                    write_line(writer, &error_reply(submission, reason))?;
                    return Ok(true);
                }
                inner.emit(JournalEvent::ServeEnqueue {
                    submission,
                    priority: sub.priority,
                    depth: q.entries.len() + 1,
                });
                q.entries.push(QueueEntry {
                    submission,
                    priority: sub.priority,
                    sub: (*sub).clone(),
                    enqueued: Instant::now(),
                    reply: tx,
                });
                inner.available.notify_one();
            }
            let mut accepted = JsonLine::object("reply", "accepted");
            accepted
                .str("tenant", &sub.tenant)
                .field("submission", &submission)
                .str("key", &sub.key());
            write_line(writer, &accepted.finish())?;
            match rx.recv() {
                Ok(WorkerMsg::Done { executed, wait_ns }) => {
                    if sub.stream {
                        for jline in &executed.journal_lines {
                            let mut ev = JsonLine::object("reply", "event");
                            ev.field("submission", &submission).str("line", jline);
                            write_line(writer, &ev.finish())?;
                        }
                    }
                    write_line(writer, &result_reply(submission, wait_ns, &executed))?;
                }
                Ok(WorkerMsg::Failed(message)) => {
                    write_line(writer, &error_reply(submission, &message))?;
                }
                Err(_) => {
                    write_line(writer, &error_reply(submission, "daemon shut down mid-run"))?;
                }
            }
            Ok(true)
        }
        Request::Stats => {
            let depth = inner.queue.lock().expect("queue lock").entries.len();
            let mut w = JsonLine::object("reply", "stats");
            w.field("submissions", &inner.next_submission.load(Ordering::SeqCst))
                .field("completed", &inner.completed.load(Ordering::SeqCst))
                .field("store_hits", &inner.store_hits.load(Ordering::SeqCst))
                .field("evictions", &inner.evictions.load(Ordering::SeqCst))
                .field("depth", &depth)
                .field("tenants", &inner.tenants.lock().expect("tenants lock").len());
            write_line(writer, &w.finish())?;
            Ok(true)
        }
        Request::Shutdown => {
            inner.begin_drain();
            let mut w = JsonLine::object("reply", "shutdown");
            w.field("draining", &true);
            write_line(writer, &w.finish())?;
            Ok(false)
        }
    }
}

fn result_reply(submission: u64, wait_ns: u64, executed: &Executed) -> String {
    let mut w = JsonLine::object("reply", "result");
    w.field("submission", &submission)
        .field("wait_ns", &wait_ns)
        .field("store_hit", &executed.store_hit)
        .field("graph_hits", &executed.graph_hits)
        .field("graph_misses", &executed.graph_misses)
        .str("run_id", &executed.run_id)
        .field("rows", &executed.rows)
        .field("failures", &executed.failures)
        .str("results_csv", &executed.results_csv)
        .str("failures_csv", &executed.failures_csv);
    w.finish()
}

fn error_reply(submission: u64, message: &str) -> String {
    let mut w = JsonLine::object("reply", "error");
    w.field("submission", &submission).str("message", message);
    w.finish()
}

fn write_line(writer: &mut UnixStream, line: &str) -> Result<()> {
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .map_err(|e| FexError::Data(format!("serve connection write failed: {e}")))
}

// ---------------------------------------------------------------------
// Protocol client (tests, benches and the fuzz serve oracle)
// ---------------------------------------------------------------------

/// Submits one experiment and blocks until its result (or error) reply.
///
/// # Errors
///
/// [`FexError::Data`] on connection failures and daemon-side errors
/// (the daemon's message is relayed).
pub fn submit(socket: &Path, sub: &Submission) -> Result<ServeOutcome> {
    let mut stream = UnixStream::connect(socket)
        .map_err(|e| FexError::Data(format!("cannot connect to `{}`: {e}", socket.display())))?;
    write_line(&mut stream, &sub.to_json())?;
    let read_half = stream
        .try_clone()
        .map_err(|e| FexError::Data(format!("serve connection clone failed: {e}")))?;
    let reader = BufReader::new(read_half);
    let mut submission = 0;
    let mut events = Vec::new();
    for line in reader.lines() {
        let line = line.map_err(|e| FexError::Data(format!("serve connection read: {e}")))?;
        let obj = FlatObject::parse(&line)
            .map_err(|e| FexError::Data(format!("bad reply `{line}`: {e}")))?;
        match get::<String>(&obj, "reply")?.as_str() {
            "accepted" => submission = get_or(&obj, "submission", 0)?,
            "event" => events.push(get(&obj, "line")?),
            "result" => {
                return Ok(ServeOutcome {
                    submission: get_or(&obj, "submission", submission)?,
                    wait_ns: get_or(&obj, "wait_ns", 0)?,
                    store_hit: get_or(&obj, "store_hit", false)?,
                    graph_hits: get_or(&obj, "graph_hits", 0)?,
                    graph_misses: get_or(&obj, "graph_misses", 0)?,
                    run_id: get_or(&obj, "run_id", String::new())?,
                    rows: get_or(&obj, "rows", 0)?,
                    failures: get_or(&obj, "failures", 0)?,
                    results_csv: get_or(&obj, "results_csv", String::new())?,
                    failures_csv: get_or(&obj, "failures_csv", String::new())?,
                    events,
                });
            }
            "error" => {
                let message: String = get_or(&obj, "message", String::new())?;
                return Err(FexError::Data(format!("serve rejected submission: {message}")));
            }
            other => return Err(FexError::Data(format!("unexpected reply `{other}`"))),
        }
    }
    Err(FexError::Data("serve connection closed before a result".into()))
}

/// Asks the daemon to drain and exit.
///
/// # Errors
///
/// [`FexError::Data`] on connection failures.
pub fn shutdown(socket: &Path) -> Result<()> {
    let mut stream = UnixStream::connect(socket)
        .map_err(|e| FexError::Data(format!("cannot connect to `{}`: {e}", socket.display())))?;
    write_line(&mut stream, "{\"op\": \"shutdown\"}")?;
    let mut reply = String::new();
    let _ = BufReader::new(stream).read_line(&mut reply);
    Ok(())
}

fn join_nums(nums: &[usize]) -> String {
    nums.iter().map(usize::to_string).collect::<Vec<_>>().join(",")
}

fn split_nums(s: &str, field: &str) -> Result<Vec<usize>> {
    s.split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map_err(|_| FexError::Config(format!("bad {field} value `{part}`")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fex-serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn micro_sub(tenant: &str) -> Submission {
        let mut sub = Submission::new(tenant, "micro");
        sub.benchmark = Some("arrayread".into());
        sub
    }

    #[test]
    fn submissions_round_trip_through_the_wire_format() {
        let mut sub = Submission::new("alice", "inline");
        sub.programs.push(("gen0".into(), "int main() { return 0; }\n".into()));
        sub.build_types = vec!["gcc_native".into(), "clang_asan".into()];
        sub.threads = vec![1, 2];
        sub.reps = 3;
        sub.precision_permille = 150;
        sub.seed = 1 << 63;
        sub.jobs = 2;
        sub.budget = 4_000_000;
        sub.priority = 9;
        sub.tool = "time".into();
        let line = sub.to_json();
        let obj = FlatObject::parse(&line).unwrap();
        assert_eq!(get::<String>(&obj, "op").unwrap(), "submit");
        let back = Submission::parse(&obj).unwrap();
        assert_eq!(back, sub);
    }

    #[test]
    fn submission_keys_are_tenant_invariant_and_content_sensitive() {
        let a = micro_sub("alice");
        let mut b = micro_sub("bob");
        b.priority = 3; // scheduling preference, not work content
        b.stream = false;
        assert_eq!(a.key(), b.key(), "identical work shares one cache cell across tenants");
        let mut c = micro_sub("alice");
        c.seed = 43;
        assert_ne!(a.key(), c.key());
        let mut d = micro_sub("alice");
        d.budget = 10_000;
        assert_ne!(a.key(), d.key(), "the instruction budget changes the executed campaign");
    }

    #[test]
    fn malformed_submissions_name_the_offending_field() {
        let cases = [
            ("{\"op\": \"submit\", \"suite\": \"micro\"}", "tenant"),
            ("{\"op\": \"submit\", \"tenant\": \"\", \"suite\": \"micro\"}", "tenant"),
            ("{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"inline\"}", "program"),
            ("{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"micro\", \"reps\": 0}", "reps"),
            (
                "{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"micro\", \
                 \"input\": \"huge\"}",
                "input",
            ),
            (
                "{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"micro\", \
                 \"tool\": \"strace\"}",
                "tool",
            ),
            (
                "{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"micro\", \
                 \"threads\": \"1,x\"}",
                "threads",
            ),
            (
                "{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"nope\"}",
                "unknown suite `nope`",
            ),
            (
                "{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"spec_cpu2006\"}",
                "suite `spec_cpu2006` is proprietary and cannot be served",
            ),
            (
                "{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"micro\", \"fleet\": 3}",
                "unknown submission field `fleet`",
            ),
            (
                "{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"micro\", \
                 \"type\": \"clang_asan\"}",
                "unknown submission field `type`",
            ),
        ];
        for (line, field) in cases {
            let obj = FlatObject::parse(line).unwrap();
            let err = Submission::parse(&obj).unwrap_err().to_string();
            assert!(err.contains(field), "`{line}` should fail on `{field}`, got: {err}");
        }
        // Unknown suites fail at materialisation.
        assert!(Submission::new("a", "nope").suite().is_err());
        assert!(Submission::new("a", "spec_cpu2006").suite().is_err(), "proprietary");
    }

    /// A submission's `jobs` and `threads` are bounded before any worker
    /// or machine exists: the run's `validate` rejects them by name.
    #[test]
    fn oversized_submissions_fail_validation_by_field() {
        let cases = [
            (
                "\"program.r\": \"fn main() -> int { return rand(); }\", \"reps\": 100000, \
              \"jobs\": 100000",
                "`jobs`",
            ),
            ("\"threads\": \"1,100000\"", "`threads`"),
        ];
        for (fields, field) in cases {
            let line = format!(
                "{{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"inline\", \
                 \"program.p\": \"fn main() -> int {{ return 0; }}\", {fields}}}"
            );
            let obj = FlatObject::parse(&line).unwrap();
            let sub = Submission::parse(&obj).unwrap();
            let err = sub.config(None).validate().unwrap_err().to_string();
            assert!(err.contains(field), "`{line}` should fail on {field}, got: {err}");
        }
    }

    #[test]
    fn queue_dispatches_by_priority_then_fifo() {
        let entry = |submission, priority| QueueEntry {
            submission,
            priority,
            sub: micro_sub("t"),
            enqueued: Instant::now(),
            reply: mpsc::channel().0,
        };
        let entries = vec![entry(1, 0), entry(2, 5), entry(3, 5), entry(4, 1)];
        assert_eq!(entries[best_index(&entries).unwrap()].submission, 2, "priority wins");
        let entries = vec![entry(7, 2), entry(8, 2)];
        assert_eq!(entries[best_index(&entries).unwrap()].submission, 7, "FIFO within a level");
        assert_eq!(best_index(&[]), None);
    }

    /// In-process end-to-end smoke: two tenants, identical work, the
    /// second serve comes wholly from the cache layer.
    #[test]
    fn daemon_serves_identical_work_across_tenants() {
        let dir = temp_dir("e2e");
        let opts = ServeOptions {
            socket: dir.join("serve.sock"),
            lab: dir.join("lab").to_string_lossy().into_owned(),
            workers: 2,
            queue_cap: 8,
        };
        let handle = Server::start(opts).unwrap();
        let socket = handle.socket().to_path_buf();

        let first = submit(&socket, &micro_sub("alice")).unwrap();
        assert!(!first.store_hit);
        assert!(first.rows > 0);
        assert!(!first.events.is_empty(), "journal events stream before the result");
        assert!(!first.run_id.is_empty(), "local runs archive into the store");

        let second = submit(&socket, &micro_sub("bob")).unwrap();
        assert!(second.store_hit, "identical cross-tenant work is cache-served");
        assert_eq!(second.results_csv, first.results_csv, "byte-identical artifacts");
        assert_eq!(second.failures_csv, first.failures_csv);
        assert!(second.events.is_empty(), "nothing ran, nothing streams");

        shutdown(&socket).unwrap();
        let summary = handle.wait().unwrap();
        assert_eq!(summary.completed, 2);
        assert_eq!(summary.store_hits, 1);
        assert_eq!(summary.tenants["bob"].store_hits, 1);
        assert_eq!(summary.tenants["alice"].store_hits, 0);
        let kinds: Vec<&str> = summary.journal.iter().map(JournalEvent::kind).collect();
        assert!(kinds.contains(&"serve_submit"));
        assert!(kinds.contains(&"serve_enqueue"));
        assert!(kinds.contains(&"serve_dispatch"));
        assert!(kinds.contains(&"serve_stream"));
        // The daemon's journal survives on disk next to the store.
        let jsonl =
            std::fs::read_to_string(Path::new(&dir).join("lab").join("serve.journal.jsonl"))
                .unwrap();
        assert!(jsonl.lines().count() >= 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The daemon releases a connection's handler thread and stream once
    /// the connection is done: after 40 sequential submissions it holds
    /// entries only for connections still being served.
    #[test]
    fn finished_connections_are_released() {
        let dir = temp_dir("conns");
        let handle = Server::start(ServeOptions {
            socket: dir.join("serve.sock"),
            lab: dir.join("lab").to_string_lossy().into_owned(),
            workers: 1,
            queue_cap: 8,
        })
        .unwrap();
        let socket = handle.socket().to_path_buf();
        let mut sub = micro_sub("alice");
        sub.stream = false;
        for _ in 0..40 {
            assert!(submit(&socket, &sub).unwrap().rows > 0);
        }
        let live = handle.inner.conns.lock().unwrap().len();
        assert!(live < 8, "{live} connection entries held after 40 sequential submissions");
        shutdown(&socket).unwrap();
        handle.wait().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `served` map caches the store-serve form of a result: no
    /// journal lines, while the first reply still streams its events and
    /// a duplicate's reply is the store serve of the first.
    #[test]
    fn served_map_holds_no_journal_lines() {
        let dir = temp_dir("served");
        let handle = Server::start(ServeOptions {
            socket: dir.join("serve.sock"),
            lab: dir.join("lab").to_string_lossy().into_owned(),
            workers: 1,
            queue_cap: 8,
        })
        .unwrap();
        let sub = micro_sub("alice");
        let first = handle.inner.execute(&sub).unwrap();
        assert!(!first.store_hit);
        assert!(!first.journal_lines.is_empty(), "the first reply streams its events");
        let cached = handle.inner.served.lock().unwrap()[&sub.key()].clone();
        assert!(cached.journal_lines.is_empty(), "the cached entry holds no journal lines");
        let dup = handle.inner.execute(&sub).unwrap();
        let expected = Executed {
            store_hit: true,
            graph_hits: 0,
            graph_misses: 0,
            journal_lines: Vec::new(),
            ..(*first).clone()
        };
        assert_eq!(result_reply(2, 0, &dup), result_reply(2, 0, &expected));
        shutdown(handle.socket()).unwrap();
        handle.wait().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
