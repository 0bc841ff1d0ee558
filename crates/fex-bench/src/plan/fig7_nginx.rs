//! Fig 7: "Example throughput-latency plot of Nginx produced by FEX.
//! Remote clients fetch a 2K static web-page over a 1Gb network."

use fex_core::{ExperimentConfig, Fex, PlotRequest, Result};

use super::result_csv;
use crate::{print_frame, write_artifact};

pub(super) fn run(fex: &mut Fex) -> Result<()> {
    // `fex.py run -n nginx -t gcc_native clang_native`
    let config = ExperimentConfig::new("nginx").types(vec!["gcc_native", "clang_native"]);
    let frame = fex.run(&config)?.clone();

    println!("FIG 7: Nginx throughput-latency (2 KB static page, 1 Gb link)\n");
    print_frame(&frame);

    // Headline numbers: saturation throughput per build.
    println!();
    for ty in frame.distinct("type")? {
        let sub = frame.filter_eq("type", &ty)?;
        let max_tput =
            sub.column_values("throughput")?.iter().filter_map(|v| v.as_num()).fold(0.0, f64::max);
        println!("{ty:<16} saturates at {:>8.1}k msg/s", max_tput / 1000.0);
    }

    let plot = fex.plot("nginx", PlotRequest::ThroughputLatency)?;
    println!("\n{}", plot.to_ascii());
    write_artifact("fig7_nginx.svg", &plot.to_svg())?;
    write_artifact("fig7_nginx.csv", &result_csv(fex, "nginx")?)
}
