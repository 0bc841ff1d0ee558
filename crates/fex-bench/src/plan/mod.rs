//! The paper plan: one entry per table/figure regenerator, run in order on
//! one [`Fex`] by the `all_experiments` binary.
//!
//! An entry's error stays its own: the plan reports it and goes on with
//! the next entry.

use fex_core::{Fex, FexError, Result};

mod asan_overhead;
mod cache_stats;
mod case_study_loc;
mod fig6_splash;
mod fig7_nginx;
mod report_tables;
mod table2_ripe;
mod thread_scaling;

/// One plan entry: regenerates its artifacts on the shared framework
/// instance (installed with [`crate::fex_with_standard_setup`]).
pub type Entry = fn(&mut Fex) -> Result<()>;

/// Every entry under its name, in the order the plan runs them.
pub const PLAN: [(&str, Entry); 8] = [
    ("report_tables", report_tables::run),
    ("case_study_loc", case_study_loc::run),
    ("fig6_splash", fig6_splash::run),
    ("fig7_nginx", fig7_nginx::run),
    ("table2_ripe", table2_ripe::run),
    ("asan_overhead", asan_overhead::run),
    ("thread_scaling", thread_scaling::run),
    ("cache_stats", cache_stats::run),
];

/// The result CSV the last run of experiment `name` stored.
fn result_csv(fex: &Fex, name: &str) -> Result<String> {
    fex.result_csv(name)
        .ok_or_else(|| FexError::Data(format!("experiment `{name}` stored no result CSV")))
}
