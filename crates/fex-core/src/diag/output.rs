//! Finding renderers: SARIF 2.1.0, GitHub Actions annotations, and a
//! human table.
//!
//! All three formats are **byte-deterministic** for a fixed report: no
//! wall-clock, host, or version fields appear anywhere, key order is
//! fixed, and findings arrive pre-sorted from
//! [`run_diag`](super::run_diag). CI can therefore diff two SARIF files
//! to answer "did anything change?" without a JSON-aware comparator.

use std::fmt::Write as _;

use crate::error::{FexError, Result};
use crate::journal::json_str;

use super::{rules, DiagReport, Finding, Rule, Severity};

/// Output format of `fex diag`, selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiagFormat {
    /// Severity/rule/location/message table plus a summary line.
    #[default]
    Human,
    /// SARIF 2.1.0 (static-analysis results interchange format).
    Sarif,
    /// GitHub Actions `::error`/`::warning`/`::notice` workflow commands.
    Github,
}

impl DiagFormat {
    /// Parses a `--format` operand.
    ///
    /// # Errors
    ///
    /// [`FexError::Config`] on an unknown format name.
    pub fn parse(name: &str) -> Result<DiagFormat> {
        match name {
            "human" => Ok(DiagFormat::Human),
            "sarif" => Ok(DiagFormat::Sarif),
            "github" => Ok(DiagFormat::Github),
            other => Err(FexError::Config(format!(
                "unknown diag format `{other}` (expected human, sarif or github)"
            ))),
        }
    }
}

/// Renders a report in the requested format. The result always ends in
/// a newline.
pub fn render(report: &DiagReport, format: DiagFormat) -> String {
    match format {
        DiagFormat::Human => render_human(report),
        DiagFormat::Sarif => render_sarif(report),
        DiagFormat::Github => render_github(report),
    }
}

fn render_human(report: &DiagReport) -> String {
    let mut out = String::new();
    if report.findings.is_empty() {
        let _ = writeln!(out, "fex diag: no findings ({} rules ran)", report.rules_run.len());
        return out;
    }
    let sev = |s: Severity| match s {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Note => "note",
    };
    let loc_width = report
        .findings
        .iter()
        .map(|f| f.file.len() + 1 + f.line.to_string().len())
        .max()
        .unwrap_or(8)
        .max("location".len());
    let rule_width =
        report.findings.iter().map(|f| f.rule.len()).max().unwrap_or(4).max("rule".len());
    let _ = writeln!(
        out,
        "{:<8} {:<rule_width$} {:<loc_width$} message",
        "severity", "rule", "location"
    );
    for f in &report.findings {
        let loc = format!("{}:{}", f.file, f.line);
        let _ = writeln!(
            out,
            "{:<8} {:<rule_width$} {:<loc_width$} {}",
            sev(f.severity),
            f.rule,
            loc,
            f.message
        );
    }
    let _ = writeln!(
        out,
        "\n{} error(s), {} warning(s), {} note(s) from {} rules",
        report.count(Severity::Error),
        report.count(Severity::Warning),
        report.count(Severity::Note),
        report.rules_run.len()
    );
    out
}

fn render_github(report: &DiagReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        // Workflow-command data: escape %, \r and \n per the GitHub
        // runner's command grammar.
        let esc = |s: &str| s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A");
        let _ = writeln!(
            out,
            "::{} file={},line={},title={}::{}",
            f.severity.github_command(),
            esc(&f.file),
            f.line,
            esc(f.rule),
            esc(&f.message)
        );
    }
    if report.findings.is_empty() {
        let _ = writeln!(out, "::notice title=fex diag::no findings");
    }
    out
}

fn render_sarif(report: &DiagReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n");
    out.push_str("    {\n");
    out.push_str("      \"tool\": {\n");
    out.push_str("        \"driver\": {\n");
    out.push_str("          \"name\": \"fex diag\",\n");
    out.push_str("          \"informationUri\": \"https://github.com/fex/fex\",\n");
    out.push_str("          \"rules\": [\n");
    // Rule metadata in registry order, restricted to the rules that ran
    // (so `--rules`/`--deny` change the metadata block too).
    let ran: Vec<&&dyn Rule> = rules::registry()
        .iter()
        .filter(|r| report.rules_run.iter().any(|id| *id == r.id()))
        .collect();
    for (i, r) in ran.iter().enumerate() {
        let comma = if i + 1 == ran.len() { "" } else { "," };
        let _ = writeln!(out, "            {{");
        let _ = writeln!(out, "              \"id\": {},", json_str(r.id()));
        let _ = writeln!(
            out,
            "              \"shortDescription\": {{ \"text\": {} }},",
            json_str(r.describe())
        );
        let _ = writeln!(
            out,
            "              \"defaultConfiguration\": {{ \"level\": {} }}",
            json_str(r.severity().sarif_level())
        );
        let _ = writeln!(out, "            }}{comma}");
    }
    out.push_str("          ]\n");
    out.push_str("        }\n");
    out.push_str("      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let comma = if i + 1 == report.findings.len() { "" } else { "," };
        out.push_str(&sarif_result(f));
        let _ = writeln!(out, "        }}{comma}");
    }
    out.push_str("      ]\n");
    out.push_str("    }\n");
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn sarif_result(f: &Finding) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "        {{");
    let _ = writeln!(s, "          \"ruleId\": {},", json_str(f.rule));
    let _ = writeln!(s, "          \"level\": {},", json_str(f.severity.sarif_level()));
    let _ = writeln!(s, "          \"message\": {{ \"text\": {} }},", json_str(&f.message));
    let _ = writeln!(s, "          \"locations\": [");
    let _ = writeln!(s, "            {{");
    let _ = writeln!(s, "              \"physicalLocation\": {{");
    let _ =
        writeln!(s, "                \"artifactLocation\": {{ \"uri\": {} }},", json_str(&f.file));
    let _ = writeln!(s, "                \"region\": {{ \"startLine\": {} }}", f.line);
    let _ = writeln!(s, "              }}");
    let _ = writeln!(s, "            }}");
    let _ = writeln!(s, "          ]");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> DiagReport {
        DiagReport {
            findings: vec![
                Finding {
                    rule: "flakiness",
                    severity: Severity::Warning,
                    file: "j.jsonl".into(),
                    line: 1,
                    message: "retry rate 0.50 exceeds 0.00".into(),
                },
                Finding {
                    rule: "journal-integrity",
                    severity: Severity::Error,
                    file: "j.jsonl".into(),
                    line: 7,
                    message: "malformed journal line: not an object".into(),
                },
            ],
            rules_run: rules::registry().iter().map(|r| r.id()).collect(),
        }
    }

    #[test]
    fn format_names_parse() {
        assert_eq!(DiagFormat::parse("human").unwrap(), DiagFormat::Human);
        assert_eq!(DiagFormat::parse("sarif").unwrap(), DiagFormat::Sarif);
        assert_eq!(DiagFormat::parse("github").unwrap(), DiagFormat::Github);
        assert!(DiagFormat::parse("xml").is_err());
    }

    #[test]
    fn sarif_has_the_2_1_0_shape() {
        let sarif = render(&report(), DiagFormat::Sarif);
        assert!(sarif.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"runs\": ["));
        assert!(sarif.contains("\"name\": \"fex diag\""));
        assert!(sarif.contains("\"ruleId\": \"journal-integrity\""));
        assert!(sarif.contains("\"level\": \"error\""));
        assert!(sarif.contains("\"artifactLocation\": { \"uri\": \"j.jsonl\" }"));
        assert!(sarif.contains("\"startLine\": 7"));
        // One metadata entry per rule that ran.
        assert_eq!(sarif.matches("\"shortDescription\"").count(), rules::registry().len());
    }

    #[test]
    fn sarif_is_stable_across_calls() {
        let a = render(&report(), DiagFormat::Sarif);
        let b = render(&report(), DiagFormat::Sarif);
        assert_eq!(a, b);
    }

    #[test]
    fn github_annotations_escape_command_data() {
        let mut r = report();
        r.findings[0].message = "50% slower\nthan before".into();
        let gh = render(&r, DiagFormat::Github);
        assert!(
            gh.contains("::warning file=j.jsonl,line=1,title=flakiness::50%25 slower%0Athan"),
            "{gh}"
        );
        assert!(gh.contains("::error file=j.jsonl,line=7,title=journal-integrity::"));
    }

    #[test]
    fn github_and_human_report_clean_runs() {
        let clean = DiagReport { findings: Vec::new(), rules_run: vec!["flakiness"] };
        assert!(render(&clean, DiagFormat::Github).contains("::notice title=fex diag::no findings"));
        assert!(render(&clean, DiagFormat::Human).contains("no findings (1 rules ran)"));
    }

    #[test]
    fn human_table_lists_every_finding_and_counts() {
        let table = render(&report(), DiagFormat::Human);
        assert!(table.contains("severity"));
        assert!(table.contains("warning"));
        assert!(table.contains("j.jsonl:7"));
        assert!(table.contains("1 error(s), 1 warning(s), 0 note(s)"));
    }
}
