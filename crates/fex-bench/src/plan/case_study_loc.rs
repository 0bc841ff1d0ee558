//! §IV case studies: end-user effort (in LoC) to integrate SPLASH-3,
//! Nginx and RIPE — the paper's headline extensibility numbers
//! (326, 166 and 75 LoC respectively).
//!
//! In this reproduction the analogous end-user surface is:
//!
//! * the suite/benchmark **registration glue** (the `pub fn splash()`
//!   block, the server handler program, the security runner),
//! * and the **experiment driver** the user writes against the public API
//!   (the corresponding `examples/*.rs`).
//!
//! This entry counts those lines from the actual sources in the
//! repository, so the numbers stay honest as the code evolves.

use fex_core::{Fex, FexError, Result};

use crate::write_artifact;

const SPLASH_RS: &str = include_str!("../../../fex-suites/src/splash.rs");
const HANDLERS_RS: &str = include_str!("../../../fex-netsim/src/handlers.rs");
const RUNNER_RS: &str = include_str!("../../../fex-core/src/runner.rs");
const EX_SPLASH: &str = include_str!("../../../../examples/splash_compare.rs");
const EX_NGINX: &str = include_str!("../../../../examples/nginx_throughput.rs");
const EX_RIPE: &str = include_str!("../../../../examples/ripe_security.rs");

/// Counts non-blank, non-comment lines.
fn loc(text: &str) -> usize {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("//!"))
        .count()
}

/// Extracts a brace-balanced block starting at the line containing
/// `marker`.
fn block(text: &str, marker: &str) -> Result<String> {
    let start = find(text, marker)?;
    let rest = &text[start..];
    let mut depth = 0usize;
    let mut seen_open = false;
    let mut out = String::new();
    for line in rest.lines() {
        out.push_str(line);
        out.push('\n');
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    seen_open = true;
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if seen_open && depth == 0 {
            break;
        }
    }
    Ok(out)
}

/// Extracts a `const NAME: &str = r#"…"#;` item, including the raw string
/// (brace counting would stop inside the embedded program text).
fn raw_string_item(text: &str, marker: &str) -> Result<String> {
    let rest = &text[find(text, marker)?..];
    let end = rest.find("\"#;").map(|i| i + 3).unwrap_or(rest.len());
    Ok(rest[..end].to_string())
}

/// The byte offset of `marker` in `text`.
fn find(text: &str, marker: &str) -> Result<usize> {
    text.find(marker).ok_or_else(|| FexError::Data(format!("marker `{marker}` not found")))
}

pub(super) fn run(_fex: &mut Fex) -> Result<()> {
    // SPLASH: registration glue (suite constructor; the Cmm programs are
    // the benchmark *sources*, which the paper also excludes from its 326
    // — it counts build-system/runner/plot glue, not SPLASH's own code).
    let splash_glue = loc(&block(SPLASH_RS, "pub fn splash()")?);
    let splash_total = splash_glue + loc(EX_SPLASH);

    // Nginx: the server registration (handler program is the analogue of
    // the paper's makefile + run.py server-side setup) plus the driver.
    let nginx_glue = loc(&raw_string_item(HANDLERS_RS, "const NGINX_HANDLER")?);
    let nginx_total = nginx_glue + loc(EX_NGINX);

    // RIPE: the security runner plus the driver.
    let ripe_glue = loc(&block(RUNNER_RS, "impl Runner for SecurityRunner")?);
    let ripe_total = ripe_glue + loc(EX_RIPE);

    println!("CASE STUDIES (§IV): end-user integration effort in LoC\n");
    println!("{:<12} {:>12} {:>12} {:>12} {:>14}", "extension", "glue", "driver", "total", "paper");
    let rows = [
        ("splash", splash_glue, loc(EX_SPLASH), splash_total, 326),
        ("nginx", nginx_glue, loc(EX_NGINX), nginx_total, 166),
        ("ripe", ripe_glue, loc(EX_RIPE), ripe_total, 75),
    ];
    let mut csv = String::from("extension,glue_loc,driver_loc,total_loc,paper_loc\n");
    for (name, glue, driver, total, paper) in rows {
        println!("{name:<12} {glue:>12} {driver:>12} {total:>12} {paper:>14}");
        csv.push_str(&format!("{name},{glue},{driver},{total},{paper}\n"));
    }
    println!(
        "\nSame order of magnitude as the paper (tens to low hundreds of\n\
         LoC per extension); absolute numbers are smaller because the\n\
         framework's generic runners and typed registries absorb most of\n\
         the per-suite boilerplate the paper had to write in Bash/Make."
    );
    write_artifact("case_study_loc.csv", &csv)
}
