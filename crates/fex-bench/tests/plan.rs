//! The paper plan's selection contract: `all_experiments <entry>...` runs
//! only the named entries, and an unknown name fails before anything runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fex-plan-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn all_experiments(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("all_experiments starts")
}

fn sorted_entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn named_entries_run_alone() {
    let dir = temp_dir("named");
    let out = all_experiments(&dir, &["report_tables", "case_study_loc"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("### report_tables\n"), "{stdout}");
    assert!(stdout.contains("### case_study_loc\n"), "{stdout}");
    assert_eq!(stdout.matches("### ").count(), 2, "{stdout}");
    assert_eq!(
        sorted_entries(&dir.join("target/fex-results")),
        ["case_study_loc.csv", "image_size.csv", "table1_support_matrix.txt"]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unknown_name_fails_before_anything_runs() {
    let dir = temp_dir("unknown");
    let out = all_experiments(&dir, &["nope"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`nope`"), "{stderr}");
    for name in [
        "report_tables",
        "case_study_loc",
        "fig6_splash",
        "fig7_nginx",
        "table2_ripe",
        "asan_overhead",
        "thread_scaling",
        "cache_stats",
    ] {
        assert!(stderr.contains(name), "`{name}` missing from: {stderr}");
    }
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(sorted_entries(&dir).is_empty(), "wrote {:?}", sorted_entries(&dir));
    std::fs::remove_dir_all(&dir).unwrap();
}
