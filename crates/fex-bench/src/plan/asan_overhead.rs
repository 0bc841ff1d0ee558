//! X1: AddressSanitizer performance and memory overheads on Phoenix —
//! the paper's walkthrough experiment type (§III-A / §III-C).

use fex_core::collect::stats;
use fex_core::plot::normalize_against;
use fex_core::{ExperimentConfig, Fex, PlotRequest, Result};
use fex_suites::InputSize;
use fex_vm::MeasureTool;

use crate::write_artifact;

pub(super) fn run(fex: &mut Fex) -> Result<()> {
    // `fex.py run -n phoenix -t gcc_native gcc_asan`
    let config = ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native", "gcc_asan"])
        .input(InputSize::Native)
        .repetitions(3);
    let frame = fex.run(&config)?.clone();
    let norm = normalize_against(&frame, "benchmark", "type", "time", "gcc_native")?;
    let asan = norm.filter_eq("type", "gcc_asan")?;

    println!("X1a: AddressSanitizer runtime overhead on Phoenix (w.r.t. native GCC)\n");
    let mut ratios = Vec::new();
    let mut csv = String::from("benchmark,runtime_overhead,memory_overhead\n");
    let mut runtime = std::collections::BTreeMap::new();
    for row in asan.iter() {
        let bench = row[0].to_cell_string();
        let r = row[2].as_num().unwrap_or(0.0);
        println!("  {bench:<20} {r:>6.2}x");
        ratios.push(r);
        runtime.insert(bench, r);
    }
    println!("  {:<20} {:>6.2}x  (geomean)", "All", stats::geomean(&ratios));

    // Memory overhead with the `time` tool.
    let mem_cfg = ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native", "gcc_asan"])
        .input(InputSize::Native)
        .tool(MeasureTool::Time);
    let mem = fex.run(&mem_cfg)?.clone();
    let mem_norm = normalize_against(&mem, "benchmark", "type", "maxrss_bytes", "gcc_native")?;
    let asan_mem = mem_norm.filter_eq("type", "gcc_asan")?;
    println!("\nX1b: AddressSanitizer memory overhead (max RSS)\n");
    for row in asan_mem.iter() {
        let bench = row[0].to_cell_string();
        let m = row[2].as_num().unwrap_or(0.0);
        println!("  {bench:<20} {m:>6.2}x");
        csv.push_str(&format!(
            "{bench},{:.4},{m:.4}\n",
            runtime.get(&bench).copied().unwrap_or(0.0)
        ));
    }
    let plot = fex.plot("phoenix", PlotRequest::Memory)?;
    write_artifact("asan_overhead.csv", &csv)?;
    write_artifact("asan_memory_overhead.svg", &plot.to_svg())
}
