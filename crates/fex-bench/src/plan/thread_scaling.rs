//! X2: the multithreading experiment (`-m 1 2 4`) with its lineplot —
//! Table I's "Lineplot (for multithreading overheads)".

use fex_core::collect::stats;
use fex_core::{ExperimentConfig, Fex, PlotRequest, Result};
use fex_suites::InputSize;

use super::result_csv;
use crate::{print_frame, write_artifact};

pub(super) fn run(fex: &mut Fex) -> Result<()> {
    // `fex.py run -n splash -t gcc_native clang_native -m 1 2 4`
    let config = ExperimentConfig::new("splash")
        .types(vec!["gcc_native", "clang_native"])
        .benchmark("barnes")
        .threads(vec![1, 2, 4, 8])
        .input(InputSize::Small)
        .repetitions(2);
    let frame = fex.run(&config)?.clone();

    println!("X2: barnes runtime vs thread count\n");
    let agg = frame.group_agg(&["type", "threads"], "time", stats::mean)?;
    print_frame(&agg);

    // Speedup summary.
    println!();
    for ty in frame.distinct("type")? {
        let t = |m: &str| -> Result<f64> {
            Ok(agg
                .filter_eq("type", &ty)?
                .filter_eq("threads", m)?
                .iter()
                .next()
                .and_then(|r| r[2].as_num())
                .unwrap_or(0.0))
        };
        println!("{ty:<16} speedup at 8 threads: {:.2}x", t("1")? / t("8")?);
    }

    let plot = fex.plot("splash", PlotRequest::Scaling)?;
    println!("\n{}", plot.to_ascii());
    write_artifact("thread_scaling.svg", &plot.to_svg())?;
    write_artifact("thread_scaling.csv", &result_csv(fex, "splash")?)
}
