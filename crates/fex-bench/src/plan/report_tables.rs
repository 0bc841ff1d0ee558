//! Table I (the supported-experiments matrix) and the §II-A image-size
//! footnote ("Our current image is 1.04GB, with 122MB Ubuntu files, 300MB
//! of benchmarks' source files, and the rest helper packages" / "the
//! Docker image would swell to approx. 17GB if all dependencies would be
//! built-in").

use fex_container::{Image, PackageRegistry};
use fex_core::registry::table_one;
use fex_core::{Fex, Result};

use crate::write_artifact;

const MIB: f64 = 1024.0 * 1024.0;
const GIB: f64 = 1024.0 * MIB;

pub(super) fn run(_fex: &mut Fex) -> Result<()> {
    println!("TABLE I: currently supported experiments\n");
    let t1 = table_one();
    println!("{t1}");
    write_artifact("table1_support_matrix.txt", &t1)?;

    println!("\nS1: container image size accounting (§II-A footnote)\n");
    let image = Image::fex_shipping_image();
    println!("shipping image `{}`  digest {}", image.name(), image.digest());
    let mut csv = String::from("layer,bytes\n");
    for (step, bytes) in image.size_breakdown() {
        println!("  {:>8.0} MiB  {step}", bytes as f64 / MIB);
        csv.push_str(&format!("\"{step}\",{bytes}\n"));
    }
    println!("  {:>8.2} GiB  total (paper: 1.04 GB)", image.size() as f64 / GIB);

    let registry = PackageRegistry::standard();
    let all_in = image.size() + registry.total_size();
    println!(
        "\nwith every dependency baked in: {:.1} GiB (paper estimate: ~17 GB)",
        all_in as f64 / GIB
    );
    csv.push_str(&format!("total,{}\n", image.size()));
    csv.push_str(&format!("all_dependencies_baked_in,{all_in}\n"));
    write_artifact("image_size.csv", &csv)
}
