//! The content-addressed artifact graph: incremental evaluation's
//! memoization table.
//!
//! Each run unit's measured result is a *node* keyed by a `fex256`
//! digest over the digests of its inputs plus exactly the configuration
//! bits that affect it. The key derivation is layered so a change dirties
//! precisely its own subtree and nothing else:
//!
//! | layer      | key = digest over                                        |
//! |------------|----------------------------------------------------------|
//! | source     | benchmark name, Cmm source bytes ([`fex_cc::source_digest`]) |
//! | compiled   | source key, backend name+version, `-O` level, asan, debug |
//! | decoded    | compiled key, pass mask bits, cost-model fingerprint      |
//! | `run_unit` | decoded key, unit seed, threads, rep, input, args, budget |
//!
//! Only `run_unit` nodes are stored. The layers above them are keys, not
//! nodes: the decoded key is the artifact digest each `build` journal
//! event carries, so the derivation is on record without a node of its
//! own.
//!
//! The graph lives under `<lab>/graph/` with the same append-only
//! flat-JSON index discipline as [`lab::store`](crate::lab::store): one
//! object per line, monotonic `seq`, no wall clocks, torn appends sealed
//! onto their own line, per-line fault isolation on read. Payloads share
//! one append-only `pack` file; each index line names its payload's byte
//! range and digest, and a range is served only if its bytes still hash
//! to that digest. `fex lab fsck` walks it (ranges past the pack's end,
//! payload digest mismatches) with the same detect/quarantine treatment
//! as run dirs.
//!
//! Only *clean* run units are cached: first-attempt successes of
//! fault-free units. Fault-armed or failing units bypass the graph
//! entirely and re-execute on warm runs, so retry, backoff and
//! quarantine behaviour is identical cold and warm — which is what makes
//! warm CSVs, normalized journal streams and metrics roll-ups
//! byte-identical to cold ones (locked by `tests/graph_diff.rs` and the
//! fuzzer's `warm` oracle).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, Seek, SeekFrom, Write as _};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use fex_container::{digest_bytes, Digest, DigestBuilder};
use fex_vm::{CacheStats, HeapStats, PerfCounters, RunResult};

use crate::error::{FexError, Result};
use crate::journal::{self, JsonLine};

/// What a graph node is, and therefore what its payload holds.
///
/// The pipeline stores only [`NodeKind::RunUnit`], the one kind a lookup
/// reads. The other four are retired provenance kinds: they still parse,
/// because labs written before their retirement hold them and the
/// benchmark's trace replay still writes them, and `fex graph stats`
/// counts them as `retired`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeKind {
    /// A benchmark's source bytes (retired).
    Source,
    /// A compiled program for one build type (retired).
    Compiled,
    /// A decoded program for one pass mask and cost model (retired).
    Decoded,
    /// One run unit's measured [`RunResult`].
    RunUnit,
    /// One experiment's aggregate results frame (retired).
    Aggregate,
}

impl NodeKind {
    /// Every kind, in display order.
    pub const ALL: [NodeKind; 5] = [
        NodeKind::Source,
        NodeKind::Compiled,
        NodeKind::Decoded,
        NodeKind::RunUnit,
        NodeKind::Aggregate,
    ];

    /// The stable name recorded in the graph index.
    pub fn as_str(self) -> &'static str {
        match self {
            NodeKind::Source => "source",
            NodeKind::Compiled => "compiled",
            NodeKind::Decoded => "decoded",
            NodeKind::RunUnit => "run_unit",
            NodeKind::Aggregate => "aggregate",
        }
    }

    /// Parses a stable name back.
    pub fn parse(s: &str) -> Option<NodeKind> {
        NodeKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl std::fmt::Display for NodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------

fn feed(d: &mut DigestBuilder, upstream: Digest) {
    d.update(&upstream.0.to_le_bytes());
}

/// The compiled-program key: the source key plus every build option that
/// changes the emitted bytecode (or its provenance).
pub fn compiled_key(
    source: Digest,
    backend_name: &str,
    backend_version: &str,
    opt_level: u8,
    asan: bool,
    debug: bool,
) -> Digest {
    let mut d = DigestBuilder::new();
    feed(&mut d, source);
    d.update_str(backend_name).update_str(backend_version);
    d.update(&[opt_level, u8::from(asan), u8::from(debug)]);
    d.finish()
}

/// The decoded-program key: the compiled key plus the peephole pass mask
/// and the cost-model fingerprint. A cost-model knob change dirties every
/// decoded program (block cycle totals are pre-summed at decode time) but
/// no compiled program.
pub fn decoded_key(compiled: Digest, pass_bits: u8, cost_fingerprint: u64) -> Digest {
    let mut d = DigestBuilder::new();
    feed(&mut d, compiled);
    d.update(&[pass_bits]);
    d.update(&cost_fingerprint.to_le_bytes());
    d.finish()
}

/// One run unit's key: the decoded key plus the unit's full coordinates —
/// its derived seed, thread count, repetition tag (`None` is distinct
/// from every `Some(_)`), workload input and arguments, and the
/// resilience instruction budget (the only policy knob that can change a
/// clean run's outcome).
///
/// Deliberately excluded: `--jobs`, the chunk size and the decode cache
/// (all proven result-neutral by the differential suites),
/// the measurement tool (extraction happens at collect time from the same
/// [`RunResult`]), and the retry attempt (only first attempts are
/// cached).
pub fn unit_key(
    decoded: Digest,
    unit_seed: u64,
    threads: usize,
    rep: Option<usize>,
    input: &str,
    args: &[i64],
    run_budget: Option<u64>,
) -> Digest {
    let mut d = DigestBuilder::new();
    feed(&mut d, decoded);
    d.update(&unit_seed.to_le_bytes());
    d.update(&(threads as u64).to_le_bytes());
    d.update(&rep.map_or(0u64, |r| r as u64 + 1).to_le_bytes());
    d.update_str(input);
    for a in args {
        d.update(&a.to_le_bytes());
    }
    d.update(&run_budget.map_or(0u64, |b| b + 1).to_le_bytes());
    d.finish()
}

// ---------------------------------------------------------------------
// The on-disk node cache
// ---------------------------------------------------------------------

/// One line of the graph index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphIndexEntry {
    /// Monotonic sequence number (insertion order).
    pub seq: u64,
    /// The node's key (`fex256:…`).
    pub digest: String,
    /// What the node is.
    pub kind: NodeKind,
    /// Digest of the payload bytes as written — lookups and `fex lab
    /// fsck` recompute it to catch silently-edited or torn payloads.
    pub payload_digest: String,
    /// Where the payload starts in the pack.
    pub offset: u64,
    /// The payload's length in bytes (its separating newline excluded).
    pub len: u64,
}

/// Why an index line written before payloads moved into the pack (it
/// has no `offset`/`len`) does not parse.
const PRE_PACK: &str = "entry predates the pack layout (no offset/len)";

impl GraphIndexEntry {
    pub(crate) fn to_json(&self) -> String {
        let mut w = JsonLine::object("digest", &self.digest);
        w.field("seq", &self.seq)
            .str("kind", self.kind.as_str())
            .str("payload", &self.payload_digest)
            .field("offset", &self.offset)
            .field("len", &self.len);
        w.finish()
    }

    pub(crate) fn parse(line: &str) -> Result<GraphIndexEntry> {
        let bad = |i: journal::ParseIssue| FexError::Data(format!("corrupt graph index: {i}"));
        let map = journal::parse_flat_object(line).map_err(bad)?;
        let kind_name: String = journal::get(&map, "kind").map_err(bad)?;
        let kind = NodeKind::parse(&kind_name).ok_or_else(|| {
            FexError::Data(format!("corrupt graph index: unknown kind `{kind_name}`"))
        })?;
        if !map.contains_key("offset") && !map.contains_key("len") {
            return Err(FexError::Data(PRE_PACK.into()));
        }
        Ok(GraphIndexEntry {
            seq: journal::get(&map, "seq").map_err(bad)?,
            digest: journal::get(&map, "digest").map_err(bad)?,
            kind,
            payload_digest: journal::get(&map, "payload").map_err(bad)?,
            offset: journal::get(&map, "offset").map_err(bad)?,
            len: journal::get(&map, "len").map_err(bad)?,
        })
    }
}

/// An indexed node: its kind, the digest its payload must hash to, and
/// the payload's byte range in the pack.
#[derive(Debug)]
struct PackedNode {
    kind: NodeKind,
    payload: Option<Digest>,
    offset: u64,
    len: u64,
}

/// The artifact graph's node cache, rooted at `<lab>/graph/`.
///
/// ```text
/// <lab>/graph/
///   index.json   # one flat JSON object per line: seq, digest, kind,
///                # payload digest, and the payload's offset and len
///   pack         # every payload, appended in store order, one per line
/// ```
///
/// The pack is only ever appended to. A store writes its payload first
/// and its index line second, so a crash between the two leaves bytes no
/// line names; the next store lands after them.
#[derive(Debug)]
pub struct ArtifactGraph {
    root: PathBuf,
    /// The payload pack, open for reads and appends while the handle
    /// lives; `None` until the first store creates it.
    pack: Option<File>,
    /// digest value → indexed node, for O(1) lookups that verify what
    /// they serve.
    index: HashMap<u128, PackedNode>,
    next_seq: u64,
    warnings: Vec<String>,
    hits: u64,
    misses: u64,
}

impl ArtifactGraph {
    /// The graph's directory name under the lab root.
    pub const SUBDIR: &'static str = "graph";
    /// The payload pack's file name under the graph root.
    pub const PACK: &'static str = "pack";

    /// Opens the graph under the lab rooted at `lab_root`. Nothing is
    /// created: the first store creates `graph/` and the pack. Corrupt
    /// index lines are skipped with a warning, the same per-line fault
    /// isolation as the run store; lines written before the pack layout
    /// are skipped with one summary warning.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when an existing pack cannot be opened.
    pub fn open(lab_root: impl AsRef<Path>) -> Result<Self> {
        let root = lab_root.as_ref().join(Self::SUBDIR);
        let pack = match Self::open_pack(&root, false) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            pack => Some(pack.map_err(|e| {
                FexError::Data(format!("cannot open graph at `{}`: {e}", root.display()))
            })?),
        };
        let (entries, mut warnings) = Self::scan_at(&root);
        let scanned = warnings.len();
        warnings.retain(|w| !w.ends_with(PRE_PACK));
        let pre_pack = scanned - warnings.len();
        if pre_pack > 0 {
            warnings.push(format!(
                "{pre_pack} graph entries predate the pack layout; \
                 `fex lab fsck --quarantine` drops them"
            ));
        }
        let next_seq = entries.iter().map(|e| e.seq).max().map_or(0, |m| m + 1);
        let index = entries
            .iter()
            .filter_map(|e| {
                let node = PackedNode {
                    kind: e.kind,
                    payload: parse_digest(&e.payload_digest),
                    offset: e.offset,
                    len: e.len,
                };
                parse_digest(&e.digest).map(|d| (d.0, node))
            })
            .collect();
        Ok(ArtifactGraph { root, pack, index, next_seq, warnings, hits: 0, misses: 0 })
    }

    /// Opens the pack under `root` for reads and appends, creating it
    /// (and `root`) when `create` is set.
    fn open_pack(root: &Path, create: bool) -> io::Result<File> {
        if create {
            fs::create_dir_all(root)?;
        }
        fs::OpenOptions::new().read(true).append(true).create(create).open(root.join(Self::PACK))
    }

    /// The graph's root directory (`<lab>/graph`).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Reads a graph index with per-line fault isolation: every parseable
    /// entry plus one warning per skipped line.
    pub fn scan_at(root: &Path) -> (Vec<GraphIndexEntry>, Vec<String>) {
        crate::lab::scan_index(&root.join("index.json"), "graph index", GraphIndexEntry::parse)
    }

    /// Warnings accumulated while opening (corrupt index lines).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Whether a node with this key exists.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.index.contains_key(&digest.0)
    }

    /// Nodes currently indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the graph holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Run units served from the cache this session.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Run-unit lookups that found no (usable) node this session.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Looks up a cached run-unit result, counting a session hit or miss.
    /// Only a payload range whose bytes hash to the digest indexed for it
    /// is served: a range past the pack's end, a short read, or torn or
    /// edited bytes degrade to a miss — the unit simply re-executes —
    /// never an error.
    pub fn lookup_run(&mut self, digest: &Digest) -> Option<RunResult> {
        let served = match self.index.get(&digest.0) {
            Some(node) if node.kind == NodeKind::RunUnit => self
                .pack
                .as_ref()
                .and_then(|pack| read_range(pack, node.offset, node.len).ok())
                .filter(|bytes| {
                    bytes.len() as u64 == node.len && Some(digest_bytes(bytes)) == node.payload
                })
                .and_then(|bytes| String::from_utf8(bytes).ok())
                .and_then(|text| run_from_json(&text)),
            _ => None,
        };
        match served {
            Some(run) => {
                self.hits += 1;
                Some(run)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a clean run unit's result under its key. Idempotent: a key
    /// already present is left untouched (content-addressed nodes are
    /// immutable).
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] on filesystem failures.
    pub fn store_run(&mut self, digest: &Digest, run: &RunResult) -> Result<()> {
        self.store_node(NodeKind::RunUnit, digest, &run_to_json(run))
    }

    /// Stores a node payload of any kind. Idempotent like [`store_run`],
    /// its only caller in the pipeline. The payload and its newline go to
    /// the pack's end in one write, then the index line that names their
    /// range.
    ///
    /// [`store_run`]: ArtifactGraph::store_run
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] on filesystem failures.
    pub fn store_node(&mut self, kind: NodeKind, digest: &Digest, payload: &str) -> Result<()> {
        if self.contains(digest) {
            return Ok(());
        }
        let io = |e: io::Error| FexError::Data(format!("graph write failed: {e}"));
        let pack = match &mut self.pack {
            Some(pack) => pack,
            none => none.insert(Self::open_pack(&self.root, true).map_err(io)?),
        };
        let offset = pack.seek(SeekFrom::End(0)).map_err(io)?;
        pack.write_all(format!("{payload}\n").as_bytes()).map_err(io)?;
        let payload_digest = digest_bytes(payload.as_bytes());
        let len = payload.len() as u64;
        let entry = GraphIndexEntry {
            seq: self.next_seq,
            digest: digest.to_string(),
            kind,
            payload_digest: payload_digest.to_string(),
            offset,
            len,
        };
        crate::lab::append_index_line(&self.index_path(), &entry.to_json()).map_err(io)?;
        self.index
            .insert(digest.0, PackedNode { kind, payload: Some(payload_digest), offset, len });
        self.next_seq += 1;
        Ok(())
    }

    /// Node counts per kind, for `fex graph stats`.
    pub fn node_counts(&self) -> BTreeMap<NodeKind, usize> {
        let mut counts = BTreeMap::new();
        for node in self.index.values() {
            *counts.entry(node.kind).or_insert(0) += 1;
        }
        counts
    }

    /// Renders `fex graph stats` output: run units, the nodes of every
    /// retired kind (see [`NodeKind`]) as one count, and the total.
    pub fn render_stats(&self) -> String {
        let mut s = format!("artifact graph at `{}`\n", self.root.display());
        let units = self.index.values().filter(|n| n.kind == NodeKind::RunUnit).count();
        let _ = writeln!(s, "{:<10} {:>6}", "kind", "nodes");
        for (label, nodes) in
            [("run_unit", units), ("retired", self.len() - units), ("total", self.len())]
        {
            let _ = writeln!(s, "{label:<10} {nodes:>6}");
        }
        for w in &self.warnings {
            let _ = writeln!(s, "warning: {w}");
        }
        s
    }

    pub(crate) fn index_path(&self) -> PathBuf {
        self.root.join("index.json")
    }
}

/// Reads the `len` bytes at `offset` of a pack, or as many of them as
/// lie before its end: a range past the end reads short (or empty).
pub(crate) fn read_range(pack: &File, offset: u64, len: u64) -> io::Result<Vec<u8>> {
    let readable = pack.metadata()?.len().saturating_sub(offset).min(len);
    let mut bytes = vec![0; readable as usize];
    pack.read_exact_at(&mut bytes, offset)?;
    Ok(bytes)
}

/// Parses a `fex256:<hex>` digest string back into a [`Digest`].
pub(crate) fn parse_digest(s: &str) -> Option<Digest> {
    u128::from_str_radix(s.strip_prefix("fex256:")?, 16).ok().map(Digest)
}

// ---------------------------------------------------------------------
// Run-unit payload (de)serialization
// ---------------------------------------------------------------------

/// Serializes a clean run's measured result as one flat JSON line.
///
/// `wall_seconds` is stored as its IEEE bit pattern so the round trip is
/// bit-exact; `per_core`, `attack_events` and `hijacks` are *not* stored —
/// only fault-free units are cached (the latter two are empty by the
/// cacheability check) and nothing downstream of the collector reads
/// per-core counters.
fn run_to_json(run: &RunResult) -> String {
    let c = &run.counters;
    let h = &run.heap;
    let mut w = JsonLine::object("node", NodeKind::RunUnit.as_str());
    w.field("exit", &run.exit)
        .str("stdout", &run.stdout)
        .field("elapsed_cycles", &run.elapsed_cycles)
        .field("wall_seconds_bits", &run.wall_seconds.to_bits())
        .field("maxrss_bytes", &run.maxrss_bytes)
        .field("ctr_instructions", &c.instructions)
        .field("ctr_cycles", &c.cycles)
        .field("ctr_loads", &c.loads)
        .field("ctr_stores", &c.stores)
        .field("ctr_branches", &c.branches)
        .field("ctr_branch_mispredicts", &c.branch_mispredicts)
        .field("ctr_l1_misses", &c.l1_misses)
        .field("ctr_l2_misses", &c.l2_misses)
        .field("ctr_llc_misses", &c.llc_misses)
        .field("ctr_l1_accesses", &c.l1_accesses)
        .field("ctr_calls", &c.calls)
        .field("ctr_allocs", &c.allocs)
        .field("ctr_alloc_bytes", &c.alloc_bytes)
        .field("ctr_asan_checks", &c.asan_checks)
        .field("heap_allocs", &h.allocs)
        .field("heap_frees", &h.frees)
        .field("heap_payload_bytes", &h.payload_bytes)
        .field("heap_redzone_bytes", &h.redzone_bytes)
        .field("heap_peak_reserved", &h.peak_reserved)
        .field("l1_accesses", &run.l1.accesses)
        .field("l1_hits", &run.l1.hits)
        .field("l2_accesses", &run.l2.accesses)
        .field("l2_hits", &run.l2.hits)
        .field("llc_accesses", &run.llc.accesses)
        .field("llc_hits", &run.llc.hits);
    w.finish()
}

/// Parses a cached run payload back. `None` on any damage — the caller
/// treats that as a miss and re-executes.
fn run_from_json(line: &str) -> Option<RunResult> {
    let map = journal::parse_flat_object(line).ok()?;
    let uint = |k: &str| journal::get(&map, k).ok();
    Some(RunResult {
        exit: journal::get(&map, "exit").ok()?,
        stdout: journal::get(&map, "stdout").ok()?,
        counters: PerfCounters {
            instructions: uint("ctr_instructions")?,
            cycles: uint("ctr_cycles")?,
            loads: uint("ctr_loads")?,
            stores: uint("ctr_stores")?,
            branches: uint("ctr_branches")?,
            branch_mispredicts: uint("ctr_branch_mispredicts")?,
            l1_misses: uint("ctr_l1_misses")?,
            l2_misses: uint("ctr_l2_misses")?,
            llc_misses: uint("ctr_llc_misses")?,
            l1_accesses: uint("ctr_l1_accesses")?,
            calls: uint("ctr_calls")?,
            allocs: uint("ctr_allocs")?,
            alloc_bytes: uint("ctr_alloc_bytes")?,
            asan_checks: uint("ctr_asan_checks")?,
        },
        per_core: Vec::new(),
        elapsed_cycles: uint("elapsed_cycles")?,
        wall_seconds: f64::from_bits(uint("wall_seconds_bits")?),
        heap: HeapStats {
            allocs: uint("heap_allocs")?,
            frees: uint("heap_frees")?,
            payload_bytes: uint("heap_payload_bytes")?,
            redzone_bytes: uint("heap_redzone_bytes")?,
            peak_reserved: uint("heap_peak_reserved")?,
        },
        maxrss_bytes: uint("maxrss_bytes")?,
        l1: CacheStats { accesses: uint("l1_accesses")?, hits: uint("l1_hits")? },
        l2: CacheStats { accesses: uint("l2_accesses")?, hits: uint("l2_hits")? },
        llc: CacheStats { accesses: uint("llc_accesses")?, hits: uint("llc_hits")? },
        attack_events: Vec::new(),
        hijacks: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_lab(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fex-graph-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_run() -> RunResult {
        RunResult {
            exit: 7,
            stdout: "norm: 3.5\n".into(),
            counters: PerfCounters {
                instructions: 1000,
                cycles: 2500,
                loads: 120,
                stores: 80,
                branches: 200,
                branch_mispredicts: 12,
                l1_misses: 10,
                l2_misses: 4,
                llc_misses: 2,
                l1_accesses: 200,
                calls: 9,
                allocs: 3,
                alloc_bytes: 192,
                asan_checks: 0,
            },
            per_core: Vec::new(),
            elapsed_cycles: 2500,
            wall_seconds: 2500.0 / 3.0e9,
            heap: HeapStats {
                allocs: 3,
                frees: 3,
                payload_bytes: 192,
                redzone_bytes: 0,
                peak_reserved: 256,
            },
            maxrss_bytes: 65536,
            l1: CacheStats { accesses: 200, hits: 190 },
            l2: CacheStats { accesses: 10, hits: 6 },
            llc: CacheStats { accesses: 4, hits: 2 },
            attack_events: Vec::new(),
            hijacks: Vec::new(),
        }
    }

    #[test]
    fn key_derivation_layers_dirty_exactly_their_subtree() {
        let src = fex_cc::source_digest("fft", "fn main() -> int { return 0; }");
        let compiled = compiled_key(src, "gcc", "6.1.0", 2, false, false);
        let decoded = decoded_key(compiled, 0b111, 42);
        let unit = unit_key(decoded, 7, 2, Some(0), "native", &[64], None);

        // Same inputs, same keys: pure functions.
        assert_eq!(compiled, compiled_key(src, "gcc", "6.1.0", 2, false, false));
        assert_eq!(decoded, decoded_key(compiled, 0b111, 42));
        assert_eq!(unit, unit_key(decoded, 7, 2, Some(0), "native", &[64], None));

        // Source edits dirty the whole chain.
        let src2 = fex_cc::source_digest("fft", "fn main() -> int { return 1; }");
        assert_ne!(src, src2);
        assert_ne!(compiled, compiled_key(src2, "gcc", "6.1.0", 2, false, false));

        // Build options dirty compiled and below, not source.
        assert_ne!(compiled, compiled_key(src, "clang", "3.8.0", 2, false, false));
        assert_ne!(compiled, compiled_key(src, "gcc", "6.1.0", 2, true, false));

        // Pass mask and cost model dirty decoded and below, not compiled.
        assert_ne!(decoded, decoded_key(compiled, 0b011, 42));
        assert_ne!(decoded, decoded_key(compiled, 0b111, 43));

        // Every unit coordinate matters, and rep None ≠ rep Some(0).
        assert_ne!(unit, unit_key(decoded, 8, 2, Some(0), "native", &[64], None));
        assert_ne!(unit, unit_key(decoded, 7, 4, Some(0), "native", &[64], None));
        assert_ne!(unit, unit_key(decoded, 7, 2, Some(1), "native", &[64], None));
        assert_ne!(unit, unit_key(decoded, 7, 2, None, "native", &[64], None));
        assert_ne!(unit, unit_key(decoded, 7, 2, Some(0), "test", &[64], None));
        assert_ne!(unit, unit_key(decoded, 7, 2, Some(0), "native", &[32], None));
        assert_ne!(unit, unit_key(decoded, 7, 2, Some(0), "native", &[64], Some(50_000)));
    }

    #[test]
    fn run_payload_round_trips_bit_exact() {
        let run = sample_run();
        let back = run_from_json(&run_to_json(&run)).expect("parses");
        assert_eq!(run, back);
        assert_eq!(run.wall_seconds.to_bits(), back.wall_seconds.to_bits());
    }

    #[test]
    fn store_and_lookup_roundtrip_with_session_accounting() {
        let lab = temp_lab("roundtrip");
        let mut g = ArtifactGraph::open(&lab).unwrap();
        let key = unit_key(Digest(1), 7, 1, Some(0), "native", &[], None);
        assert!(g.lookup_run(&key).is_none());
        assert_eq!((g.hits(), g.misses()), (0, 1));

        let run = sample_run();
        g.store_run(&key, &run).unwrap();
        assert_eq!(g.lookup_run(&key), Some(run.clone()));
        assert_eq!((g.hits(), g.misses()), (1, 1));

        // Storing again is an idempotent no-op.
        g.store_run(&key, &run).unwrap();
        assert_eq!(g.len(), 1);

        // A fresh open replays the index from disk.
        let mut g2 = ArtifactGraph::open(&lab).unwrap();
        assert!(g2.warnings().is_empty());
        assert_eq!(g2.lookup_run(&key), Some(run));
        assert_eq!(g2.node_counts().get(&NodeKind::RunUnit), Some(&1));
        assert!(g2.render_stats().contains("run_unit"));
        let _ = fs::remove_dir_all(&lab);
    }

    #[test]
    fn torn_index_and_payload_degrade_to_misses_not_errors() {
        let lab = temp_lab("torn");
        let mut g = ArtifactGraph::open(&lab).unwrap();
        let key_a = unit_key(Digest(1), 1, 1, None, "native", &[], None);
        let key_b = unit_key(Digest(2), 2, 1, None, "native", &[], None);
        g.store_run(&key_a, &sample_run()).unwrap();
        g.store_run(&key_b, &sample_run()).unwrap();

        // Tear the last index append mid-line.
        let index_path = g.index_path();
        let index = fs::read_to_string(&index_path).unwrap();
        fs::write(&index_path, &index[..index.len() - 9]).unwrap();

        let mut g2 = ArtifactGraph::open(&lab).unwrap();
        assert_eq!(g2.warnings().len(), 1, "{:?}", g2.warnings());
        assert!(g2.lookup_run(&key_a).is_some(), "intact node survives");
        assert!(g2.lookup_run(&key_b).is_none(), "torn entry is a miss");
        // Appends still work after the torn line is sealed.
        g2.store_run(&key_b, &sample_run()).unwrap();
        assert!(ArtifactGraph::open(&lab).unwrap().lookup_run(&key_b).is_some());

        // A torn payload is a miss too, never a panic or error: cut the
        // pack inside the newest range (key_b's second copy).
        let pack = g2.root().join(ArtifactGraph::PACK);
        let len = fs::metadata(&pack).unwrap().len();
        fs::OpenOptions::new().write(true).open(&pack).unwrap().set_len(len - 20).unwrap();
        let mut g3 = ArtifactGraph::open(&lab).unwrap();
        assert!(g3.lookup_run(&key_b).is_none());
        assert!(g3.lookup_run(&key_a).is_some(), "earlier ranges survive the cut");
        let _ = fs::remove_dir_all(&lab);
    }

    #[test]
    fn an_edited_payload_is_a_miss() {
        let lab = temp_lab("edited");
        let mut g = ArtifactGraph::open(&lab).unwrap();
        let key = unit_key(Digest(3), 3, 1, Some(0), "native", &[], None);
        g.store_run(&key, &sample_run()).unwrap();
        // Change one digit of the cycle counter: the payload still
        // parses, but no longer hashes to its indexed digest.
        let pack = g.root().join(ArtifactGraph::PACK);
        let text = fs::read_to_string(&pack).unwrap();
        let edited = text.replace("\"ctr_cycles\": 2500", "\"ctr_cycles\": 2600");
        assert_ne!(edited, text);
        assert!(run_from_json(edited.trim()).is_some(), "the edit keeps the payload parseable");
        fs::write(&pack, edited).unwrap();
        let mut g2 = ArtifactGraph::open(&lab).unwrap();
        assert!(g2.lookup_run(&key).is_none(), "an edited payload is never served");
        assert_eq!((g2.hits(), g2.misses()), (0, 1));
        let _ = fs::remove_dir_all(&lab);
    }

    #[test]
    fn torn_stores_and_ranges_past_the_end_are_misses() {
        let lab = temp_lab("crash");
        let mut g = ArtifactGraph::open(&lab).unwrap();
        g.store_run(&Digest(21), &sample_run()).unwrap();
        let (pack, index) = (g.root().join(ArtifactGraph::PACK), g.index_path());
        drop(g);

        // A torn store: half a payload reached the pack, its index line
        // never did.
        let payload = run_to_json(&sample_run());
        let mut file = fs::OpenOptions::new().append(true).open(&pack).unwrap();
        file.write_all(&payload.as_bytes()[..payload.len() / 2]).unwrap();
        let torn_end = fs::metadata(&pack).unwrap().len();
        // Two index lines whose ranges run past the pack's end.
        let past = |seq, key: Digest, offset, len| GraphIndexEntry {
            seq,
            digest: key.to_string(),
            kind: NodeKind::RunUnit,
            payload_digest: digest_bytes(payload.as_bytes()).to_string(),
            offset,
            len,
        };
        for entry in [
            past(1, Digest(22), torn_end - 10, payload.len() as u64),
            past(2, Digest(23), u64::MAX, u64::MAX),
        ] {
            crate::lab::append_index_line(&index, &entry.to_json()).unwrap();
        }

        let mut g2 = ArtifactGraph::open(&lab).unwrap();
        assert!(g2.warnings().is_empty(), "{:?}", g2.warnings());
        assert_eq!(g2.lookup_run(&Digest(21)), Some(sample_run()));
        assert!(g2.lookup_run(&Digest(22)).is_none(), "a range past the end is a miss");
        assert!(g2.lookup_run(&Digest(23)).is_none(), "so is one that starts past it");
        assert_eq!((g2.hits(), g2.misses()), (1, 2));

        // The next store lands after the torn bytes and is served after a
        // reopen.
        g2.store_run(&Digest(24), &sample_run()).unwrap();
        let (entries, _) = ArtifactGraph::scan_at(g2.root());
        let stored = entries.iter().find(|e| e.digest == Digest(24).to_string()).unwrap();
        assert_eq!(stored.offset, torn_end);
        let mut g3 = ArtifactGraph::open(&lab).unwrap();
        assert_eq!(g3.lookup_run(&Digest(24)), Some(sample_run()));
        assert!(g3.lookup_run(&Digest(22)).is_none());
        let _ = fs::remove_dir_all(&lab);
    }

    #[test]
    fn a_non_utf8_byte_costs_only_its_own_line() {
        let lab = temp_lab("non-utf8");
        let mut g = ArtifactGraph::open(&lab).unwrap();
        let keys: Vec<Digest> = (1..=3).map(Digest).collect();
        for key in &keys {
            g.store_run(key, &sample_run()).unwrap();
        }

        // One bad byte inside the first line.
        let index_path = g.index_path();
        let mut index = fs::read(&index_path).unwrap();
        index[5] = 0xFF;
        fs::write(&index_path, &index).unwrap();

        let mut g2 = ArtifactGraph::open(&lab).unwrap();
        assert_eq!(g2.warnings().len(), 1, "{:?}", g2.warnings());
        assert!(g2.warnings()[0].starts_with("skipping graph index line 1: invalid utf-8"));
        assert!(g2.lookup_run(&keys[0]).is_none(), "the damaged line is a miss");
        assert!(g2.lookup_run(&keys[1]).is_some(), "later lines survive the scan");
        assert!(g2.lookup_run(&keys[2]).is_some());

        // The next append leaves every earlier byte where it was.
        g2.store_run(&Digest(4), &sample_run()).unwrap();
        let after = fs::read(&index_path).unwrap();
        assert_eq!(&after[..index.len()], &index[..]);
        let (entries, warnings) = ArtifactGraph::scan_at(g2.root());
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        let mut g3 = ArtifactGraph::open(&lab).unwrap();
        for key in keys[1..].iter().chain([&Digest(4)]) {
            assert!(g3.lookup_run(key).is_some());
        }
        let _ = fs::remove_dir_all(&lab);
    }

    #[test]
    fn seq_is_monotonic_across_reopens() {
        let lab = temp_lab("seq");
        let mut g = ArtifactGraph::open(&lab).unwrap();
        g.store_run(&Digest(10), &sample_run()).unwrap();
        let mut g2 = ArtifactGraph::open(&lab).unwrap();
        g2.store_run(&Digest(11), &sample_run()).unwrap();
        let (entries, _) = ArtifactGraph::scan_at(g2.root());
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        let _ = fs::remove_dir_all(&lab);
    }
}
