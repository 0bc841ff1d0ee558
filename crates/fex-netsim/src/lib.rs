//! # fex-netsim — server workloads as discrete-event simulation
//!
//! The paper's real-world applications (Apache, Nginx, Memcached) are
//! driven by a remote client over a 1 Gb network (§IV-B, Fig 7). This
//! sandbox has neither servers nor a second machine, so the crate builds
//! the closest synthetic equivalent that exercises the same code paths:
//!
//! * per-request **CPU cost comes from really executing** the server's
//!   request-handler program (written in Cmm, compiled by the selected
//!   compiler profile) on the [`fex-vm`](fex_vm) machine — so "Nginx built
//!   with clang" is genuinely slower per request than "built with gcc";
//! * a **discrete-event queueing simulation** ([`Simulation`]) models
//!   worker concurrency (event-driven Nginx vs thread-pool Apache), link
//!   bandwidth and RTT, driven by an open-loop Poisson client;
//! * sweeping offered load produces the **throughput–latency curves** of
//!   Fig 7, including the saturation knee;
//! * a **security probe** reproduces the CVE-style experiments the paper
//!   runs against vulnerable server versions: the vulnerable handler
//!   contains a real stack overflow a crafted request can trigger.
//!
//! ## Example
//!
//! ```
//! use fex_netsim::{ServerKind, ServerBuild, Simulation, Workload};
//! use fex_cc::BuildOptions;
//!
//! let build = ServerBuild::compile(ServerKind::Nginx, &BuildOptions::gcc())?;
//! let m = Simulation::new(&build, Workload::default()).run(20_000.0);
//! assert!(m.throughput > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod client;
mod handlers;
mod server;
mod sim;

pub use client::Workload;
pub use handlers::{handler_source, vulnerable_handler_source};
pub use server::{SecurityOutcome, ServerBuild, ServerKind};
pub use sim::{Metrics, Simulation, SweepPoint};
