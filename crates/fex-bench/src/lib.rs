//! # fex-bench — regenerators for every table and figure of the paper
//!
//! The paper plan ([`plan::PLAN`]) holds one entry per artifact; the
//! `all_experiments` binary runs every entry, or the ones it is named,
//! on one [`Fex`] (`cargo run --release -p fex-bench --bin
//! all_experiments [-- <entry>...]`). Five more binaries sit beside it:
//! `ablation` and four layer benches. End-to-end and per-layer pipeline
//! timing lives in `fexperf/`.
//!
//! | plan entry        | artifact |
//! |-------------------|----------|
//! | `report_tables`   | Table I + the §II-A image-size footnote |
//! | `case_study_loc`  | §IV LoC-effort case studies |
//! | `fig6_splash`     | Fig 6 — SPLASH-3 Clang vs GCC normalized runtime |
//! | `fig7_nginx`      | Fig 7 — Nginx throughput-latency curves |
//! | `table2_ripe`     | Table II — RIPE successful/failed attacks |
//! | `asan_overhead`   | §III-C ASan performance/memory overheads (X1) |
//! | `thread_scaling`  | §III-C multithreading lineplot (X2) |
//! | `cache_stats`     | §III-C cache-miss stacked-grouped plot (X3) |
//!
//! | binary            | runs |
//! |-------------------|------|
//! | `all_experiments` | the paper plan, writes `target/fex-results/` |
//! | `ablation`        | per-pass attribution of the GCC/Clang gap (A1) |
//! | `sched_scaling`   | `--jobs` matrix throughput + interpreter dispatch rate |
//! | `vm_hotpath`      | run-phase throughput with fusion, MRU and decode cache on vs off |
//! | `journal_overhead` | run-phase cost of the structured journal, on vs off |
//! | `fuzz_throughput` | `fex fuzz` oracle cases per second |
//!
//! Output convention: each entry and binary prints the paper-style
//! rows/series to stdout and writes SVG/CSV artifacts under
//! `target/fex-results/`.

use std::path::Path;

use fex_core::collect::DataFrame;
use fex_core::{Fex, FexError, Result};

pub mod plan;

/// Writes an artifact file under `target/fex-results/` and reports it on
/// stdout.
pub fn write_artifact(name: &str, contents: &str) -> Result<()> {
    let dir = Path::new("target/fex-results");
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|e| FexError::Data(format!("cannot write `{}`: {e}", path.display())))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// A framework instance with the full standard setup stage performed.
pub fn fex_with_standard_setup() -> Fex {
    let mut fex = Fex::new();
    for script in [
        "gcc-6.1",
        "clang-3.8",
        "phoenix_inputs",
        "splash_inputs",
        "parsec_inputs",
        "nginx",
        "apache",
        "memcached",
        "ripe",
        "perf",
    ] {
        fex.install(script).expect("standard setup scripts install");
    }
    fex
}

/// Pretty-prints a frame as an aligned text table.
pub fn print_frame(df: &DataFrame) {
    let widths: Vec<usize> = df
        .columns()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            df.iter().map(|r| r[i].to_cell_string().len()).chain([c.len()]).max().unwrap_or(8)
        })
        .collect();
    let header: Vec<String> =
        df.columns().iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
    println!("{}", header.join("  "));
    for row in df.iter() {
        let cells: Vec<String> =
            row.iter().zip(&widths).map(|(v, w)| format!("{:>w$}", v.to_cell_string())).collect();
        println!("{}", cells.join("  "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_setup_installs_everything() {
        let fex = fex_with_standard_setup();
        assert!(fex.container().installed("gcc", "6.1.0"));
        assert!(fex.container().installed("ripe", "2015.04"));
    }
}
