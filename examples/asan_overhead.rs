//! AddressSanitizer performance and memory overheads on Phoenix — the
//! §III-A walkthrough experiment ("the performance overhead of Google's
//! AddressSanitizer on the Phoenix benchmark suite").
//!
//! ```text
//! >> fex.py run -n phoenix -t gcc_native gcc_asan
//! ```
//!
//! Run with: `cargo run --release --example asan_overhead`. It writes
//! `target/fex-results/asan_overhead_example.svg`, beside the paper
//! plan's X1 artifact (`asan_memory_overhead.svg`, native inputs, 3
//! repetitions) rather than over it.

use fex_core::collect::stats;
use fex_core::plot::normalize_against;
use fex_core::{ExperimentConfig, Fex, PlotRequest};
use fex_suites::InputSize;
use fex_vm::MeasureTool;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut fex = Fex::new();
    fex.install("gcc-6.1")?;
    fex.install("phoenix_inputs")?;

    // Performance overhead (perf-stat tool).
    let config = ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native", "gcc_asan"])
        .input(InputSize::Small)
        .repetitions(2);
    let frame = fex.run(&config)?.clone();
    let norm = normalize_against(&frame, "benchmark", "type", "time", "gcc_native")?;
    let asan = norm.filter_eq("type", "gcc_asan")?;
    println!("AddressSanitizer runtime overhead (w.r.t. native GCC):");
    let mut ratios = Vec::new();
    for row in asan.iter() {
        let r = row[2].as_num().unwrap_or(0.0);
        ratios.push(r);
        println!("  {:<20} {r:>6.2}x", row[0].to_cell_string());
    }
    println!("  {:<20} {:>6.2}x (geomean)", "All", stats::geomean(&ratios));

    // Memory overhead (time tool / max RSS).
    let mem_cfg = ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native", "gcc_asan"])
        .input(InputSize::Small)
        .tool(MeasureTool::Time);
    let mem_frame = fex.run(&mem_cfg)?.clone();
    let mem_norm =
        normalize_against(&mem_frame, "benchmark", "type", "maxrss_bytes", "gcc_native")?;
    let asan_mem = mem_norm.filter_eq("type", "gcc_asan")?;
    println!("\nAddressSanitizer memory overhead (max RSS, w.r.t. native GCC):");
    for row in asan_mem.iter() {
        println!("  {:<20} {:>6.2}x", row[0].to_cell_string(), row[2].as_num().unwrap_or(0.0));
    }

    let plot = fex.plot("phoenix", PlotRequest::Memory)?;
    let out = std::path::Path::new("target/fex-results");
    std::fs::create_dir_all(out)?;
    std::fs::write(out.join("asan_overhead_example.svg"), plot.to_svg())?;
    println!("\nwrote target/fex-results/asan_overhead_example.svg");
    Ok(())
}
