//! X3: cache-miss statistics with the perf-stat(memory) tool and the
//! stacked-grouped barplot — Table I's "stacked-grouped barplot (for
//! complicated statistics such as cache misses at different levels)".

use fex_core::collect::stats;
use fex_core::{ExperimentConfig, Fex, PlotRequest, Result};
use fex_suites::InputSize;
use fex_vm::MeasureTool;

use super::result_csv;
use crate::{print_frame, write_artifact};

pub(super) fn run(fex: &mut Fex) -> Result<()> {
    let config = ExperimentConfig::new("micro")
        .types(vec!["gcc_native", "gcc_asan"])
        .input(InputSize::Native)
        .tool(MeasureTool::PerfStatMemory);
    let frame = fex.run(&config)?.clone();

    println!("X3: cache misses per level (perf-stat memory tool)\n");
    let agg = frame.group_agg(&["benchmark", "type"], "l1_misses", stats::mean)?;
    print_frame(&agg);

    println!("\nmiss ratios:");
    for bench in frame.distinct("benchmark")? {
        for ty in frame.distinct("type")? {
            let sub = frame.filter_eq("benchmark", &bench)?.filter_eq("type", &ty)?;
            let v = |c: &str| -> Result<f64> {
                Ok(sub.column_values(c)?.iter().filter_map(|v| v.as_num()).next().unwrap_or(0.0))
            };
            println!(
                "  {bench:<12} {ty:<12} l1 {:>6.2}%  llc {:>6.2}%",
                v("l1_miss_ratio")? * 100.0,
                v("llc_miss_ratio")? * 100.0
            );
        }
    }

    let plot = fex.plot("micro", PlotRequest::CacheStats)?;
    write_artifact("cache_stats.svg", &plot.to_svg())?;
    write_artifact("cache_stats.csv", &result_csv(fex, "micro")?)
}
