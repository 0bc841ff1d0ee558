//! The §IV-B case study: Nginx throughput-latency under GCC vs Clang
//! builds (Fig 7 — "remote clients fetch a 2K static web-page over a 1Gb
//! network").
//!
//! ```text
//! >> fex.py run -n nginx -t gcc_native clang_native
//! ```
//!
//! Run with: `cargo run --release --example nginx_throughput`. It writes
//! `target/fex-results/nginx_throughput_example.svg`, beside the paper
//! plan's Fig 7 artifact (`fig7_nginx.svg`) rather than over it.

use fex_core::{ExperimentConfig, Fex, PlotRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut fex = Fex::new();
    fex.install("gcc-6.1")?;
    fex.install("clang-3.8")?;
    fex.install("nginx")?;

    let config = ExperimentConfig::new("nginx").types(vec!["gcc_native", "clang_native"]);
    let frame = fex.run(&config)?;

    println!("throughput-latency sweep:");
    println!(
        "{:<14} {:>12} {:>12} {:>9} {:>9}",
        "type", "offered/s", "achieved/s", "mean ms", "p99 ms"
    );
    for row in frame.iter() {
        let ty = row[1].to_cell_string();
        let offered = row[2].as_num().unwrap_or(0.0);
        let tput = row[3].as_num().unwrap_or(0.0);
        let mean = row[4].as_num().unwrap_or(0.0);
        let p99 = row[7].as_num().unwrap_or(0.0);
        println!("{ty:<14} {offered:>12.0} {tput:>12.0} {mean:>9.3} {p99:>9.3}");
    }

    let plot = fex.plot("nginx", PlotRequest::ThroughputLatency)?;
    println!("\n{}", plot.to_ascii());
    let out = std::path::Path::new("target/fex-results");
    std::fs::create_dir_all(out)?;
    std::fs::write(out.join("nginx_throughput_example.svg"), plot.to_svg())?;
    println!("wrote target/fex-results/nginx_throughput_example.svg");
    Ok(())
}
