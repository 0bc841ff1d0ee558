//! # fex-core — the Fex software systems evaluation framework
//!
//! A Rust reproduction of *Fex: A Software Systems Evaluator* (Oleksenko,
//! Kuvaiskii, Bhatotia, Fetzer — DSN 2017): an **extensible**,
//! **practical** and **reproducible** framework that unifies the whole
//! build–run–collect–plot evaluation pipeline across benchmark suites and
//! real-world applications.
//!
//! The subsystems mirror the paper's architecture:
//!
//! * [`env`](mod@env) — four-layer environment-variable model (§II-B),
//! * [`build`] — the three-layer makefile hierarchy (Fig 2) feeding the
//!   [`fex-cc`](fex_cc) compiler substrate,
//! * [`runner`] — the `Runner` class hierarchy running the Fig 4
//!   experiment matrix as one run-unit pipeline at every `--jobs`,
//!   including `VariableInputRunner`,
//! * [`collect`] — log → [`DataFrame`](collect::DataFrame) → CSV, with the
//!   statistics module covering the paper's "future work" items (CIs,
//!   Welch's t-test),
//! * [`plot`] — the five generic plot kinds of Table I plus the
//!   throughput-latency scatterline, rendered to SVG and ASCII,
//! * [`journal`] — the structured run journal (`journal.jsonl` +
//!   `metrics.json` next to the results CSV) and the `fex report`
//!   renderer,
//! * [`graph`] — the content-addressed artifact graph: incremental
//!   evaluation with dirty-cell reuse on warm re-runs,
//! * [`lab`] — the persistent content-addressed result store, the
//!   adaptive repetition policy's statistics, the `fex compare`
//!   regression gate and the `fex lab fsck` integrity checker,
//! * [`diag`] — `fex diag`: rules over a run journal and the lab
//!   (significant regression, flakiness, variance, cache hit rates);
//!   with `fex compare` it is the evaluation-driven development gate
//!   of §VI,
//! * [`fuzz`] — `fex fuzz`: seeded scenario fuzzing of the whole
//!   pipeline against a golden-free invariant oracle, with shrinking
//!   and repro bundles,
//! * [`serve`] — the `fex serve` daemon: a multi-tenant experiment
//!   service with a bounded priority queue and cross-tenant graph/store
//!   cache reuse,
//! * [`workflow`] — the [`Fex`] orchestrator (`fex.py`), running
//!   everything inside the simulated [`fex-container`](fex_container)
//!   with pinned-version [install scripts](install),
//! * [`registry`] — the Table I support matrix.
//!
//! ## Quickstart
//!
//! ```
//! use fex_core::{ExperimentConfig, Fex, PlotRequest};
//! use fex_suites::InputSize;
//!
//! let mut fex = Fex::new();
//! // Setup stage: install pinned toolchains inside the container.
//! fex.install("gcc-6.1")?;
//! fex.install("clang-3.8")?;
//! // Run stage: build + run + collect.
//! let config = ExperimentConfig::new("micro")
//!     .types(vec!["gcc_native", "clang_native"])
//!     .input(InputSize::Test)
//!     .benchmark("arrayread");
//! fex.run(&config)?;
//! // Plot stage.
//! let plot = fex.plot("micro", PlotRequest::Perf)?;
//! println!("{}", plot.to_ascii());
//! # Ok::<(), fex_core::FexError>(())
//! ```

pub mod build;
pub mod cli;
pub mod collect;
pub mod config;
pub mod diag;
pub mod env;
mod error;
mod flatjson;
pub mod fuzz;
pub mod graph;
pub mod install;
pub mod journal;
pub mod lab;
pub mod plot;
pub mod registry;
pub mod resilience;
pub mod runner;
pub mod sched;
pub mod serve;
pub mod workflow;

pub use config::{ExperimentConfig, Repetitions};
pub use diag::{DiagConfig, DiagCtx, DiagFormat, DiagReport, Finding, ReproScore, Severity};
pub use error::{FexError, Result};
pub use fuzz::{BreakMode, FuzzOptions, FuzzReport};
pub use graph::{ArtifactGraph, NodeKind};
pub use journal::{Journal, JournalEvent, Metrics};
pub use lab::{Comparison, RunStore, Verdict};
pub use resilience::{FailureRecord, FailureReport, RunOutcome, RunPolicy};
pub use serve::{ServeOptions, ServeOutcome, ServeSummary, Server, ServerHandle, Submission};
pub use workflow::{Fex, PlotRequest};
