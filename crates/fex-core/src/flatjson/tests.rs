//! The codec's own properties, and no-panic fuzzing of the reader through
//! each of its consumers: the journal's `parse_line`, the lab index's
//! `Line::parse`, the graph's payload decode and the serve daemon's
//! request decode.

use proptest::prelude::*;

use fex_container::Digest;
use fex_vm::{CacheStats, HeapStats, PerfCounters, RunResult};

use super::*;
use crate::graph::{run_from_json, run_to_json, GraphIndexEntry};
use crate::journal::{parse_line, JournalEvent};
use crate::lab::{IndexEntry, Line, PackRange};
use crate::serve::{Request, Submission};
use crate::NodeKind;

/// Inputs pinned because a reader once got them wrong, or because they
/// reach a path where a byte-level reader could slice inside a char.
/// Every other line is one input, taken verbatim.
const REGRESSIONS: &str = include_str!("../../../../tests/flatjson_regressions.txt");

/// Feeds `text` to the reader and to every consumer. Each returns `Ok`,
/// a `ParseIssue`, a `FexError` or (the payload decode) `None`; none may
/// panic.
fn feed(text: &str) {
    let _ = FlatObject::parse(text);
    let _ = parse_line(text);
    let _ = Line::parse(text);
    let _ = run_from_json(text);
    let _ = Request::parse(text);
}

/// Text that reaches every branch of the escaper and the reader:
/// quotes, backslashes, control characters, Unicode whitespace and
/// multi-byte chars of every length.
const AWKWARD: &str = "q\"b\\s/n\nr\rt\tc\u{1}\u{1f}\u{7f} \u{a0}\u{85}\u{2028}é日😀\u{fffd}";

fn sample_run(stdout: &str, exit: i64, n: u64) -> RunResult {
    RunResult {
        exit,
        stdout: stdout.into(),
        counters: PerfCounters {
            instructions: n,
            cycles: n / 2,
            loads: n / 3,
            stores: 1,
            branches: u64::MAX,
            branch_mispredicts: 0,
            l1_misses: n ^ 0x5555,
            l2_misses: n.rotate_left(7),
            llc_misses: n >> 9,
            l1_accesses: n.wrapping_mul(3),
            calls: 9,
            allocs: n % 17,
            alloc_bytes: n.wrapping_add(1),
            asan_checks: i64::MAX as u64,
        },
        per_core: Vec::new(),
        elapsed_cycles: n,
        wall_seconds: f64::from_bits(n & 0x7fef_ffff_ffff_ffff),
        heap: HeapStats {
            allocs: n,
            frees: n / 5,
            payload_bytes: n.rotate_right(3),
            redzone_bytes: 0,
            peak_reserved: u64::MAX - n,
        },
        maxrss_bytes: n.wrapping_mul(4096),
        l1: CacheStats { accesses: n, hits: n / 2 },
        l2: CacheStats { accesses: n / 4, hits: n / 8 },
        llc: CacheStats { accesses: n / 16, hits: 0 },
        attack_events: Vec::new(),
        hijacks: Vec::new(),
    }
}

fn index_entry(text: &str, n: u64) -> IndexEntry {
    IndexEntry {
        seq: n,
        run_id: format!("fex256:{n:032x}"),
        experiment: text.into(),
        key: format!("{text}/{n}"),
        rows: n as usize,
        failures: (n % 3) as usize,
        journal_digest: text.chars().rev().collect(),
        range: PackRange { offset: n, len: u64::MAX - n, digest: Digest(u128::from(n) << 64) },
        results_len: n / 2,
        failures_len: u64::MAX,
    }
}

/// One line of every format the reader serves, each holding escapes and
/// multi-byte text.
fn real_lines() -> Vec<String> {
    let fault = JournalEvent::RunFault {
        benchmark: "é日".into(),
        build_type: "gcc_native".into(),
        threads: 2,
        rep: Some(1),
        attempt: u64::MAX,
        error: AWKWARD.into(),
    };
    let exec = JournalEvent::VmExec {
        benchmark: "fft".into(),
        build_type: "clang_asan".into(),
        threads: 1,
        rep: None,
        instructions: 1,
        cycles: u64::MAX,
        l1_misses: 0,
        llc_misses: 3,
        branch_mispredicts: 4,
        faults: 5,
        exit: i64::MIN,
    };
    let unit = GraphIndexEntry {
        digest: "fex256:0000000000000000000000000000beef".into(),
        kind: NodeKind::RunUnit,
        range: PackRange { offset: 7, len: 300, digest: Digest(u128::MAX) },
    };
    let mut sub = Submission::new("tenant é", "inline");
    sub.programs = vec![
        ("a".into(), "fn main() -> int {\n  return 0; // 日\n}\n".into()),
        ("b".into(), AWKWARD.into()),
    ];
    vec![
        fault.to_json(),
        exec.to_json(),
        index_entry(AWKWARD, 42).to_json(),
        unit.to_json(),
        run_to_json(&sample_run(AWKWARD, -1, 123_456_789)),
        sub.to_json(),
    ]
}

#[test]
fn every_prefix_of_a_real_line_is_read_without_panicking() {
    for line in real_lines() {
        for (at, _) in line.char_indices() {
            feed(&line[..at]);
            feed(&line[at..]);
        }
        feed(&line);
    }
}

/// Flips bits of every byte, inside multi-byte chars too. A flip that
/// leaves invalid UTF-8 is read through its lossy decoding, which puts a
/// three-byte U+FFFD where the damage is.
#[test]
fn every_byte_flip_of_a_real_line_is_read_without_panicking() {
    for line in real_lines() {
        for at in 0..line.len() {
            for mask in [0x01, 0x02, 0x20, 0x40, 0x80, 0xff] {
                let mut bytes = line.clone().into_bytes();
                bytes[at] ^= mask;
                feed(&String::from_utf8_lossy(&bytes));
            }
        }
    }
}

#[test]
fn pinned_regressions_are_read_without_panicking() {
    let cases: Vec<&str> =
        REGRESSIONS.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    assert!(cases.len() >= 10, "the regressions file lost its cases");
    for case in cases {
        feed(case);
    }
}

/// Random text drawn mostly from the grammar's own tokens, so that inputs
/// get deep into objects before they break.
fn arbitrary_text() -> BoxedStrategy<String> {
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "\"",
        ":",
        ",",
        " ",
        "\\",
        "\\u",
        "\\u00",
        "\\n",
        "\\\"",
        "-",
        "0",
        "7",
        "18446744073709551616",
        "-9223372036854775809",
        "true",
        "fals",
        "null",
        "\"event\"",
        "\"run_id\"",
        "\"digest\"",
        "\"op\"",
        "\"submit\"",
        "\"payload\"",
        "é",
        "日",
        "😀",
        "\u{a0}",
        "\u{85}",
        "\u{2028}",
        "\u{1}",
        "\t",
    ];
    BoxedStrategy::from_fn(|rng| {
        let mut text = String::new();
        for _ in 0..rng.below(24) {
            if rng.chance(0.2) {
                text.extend(char::from_u32(rng.below(0x11_0000) as u32));
            } else {
                text.push_str(TOKENS[rng.below(TOKENS.len() as u64) as usize]);
            }
        }
        text
    })
}

/// Strings over the characters the escaper treats specially, plus
/// arbitrary chars.
fn arbitrary_string() -> BoxedStrategy<String> {
    BoxedStrategy::from_fn(|rng| {
        let awkward: Vec<char> = AWKWARD.chars().collect();
        (0..rng.below(12))
            .map(|_| match rng.below(3) {
                0 => awkward[rng.below(awkward.len() as u64) as usize],
                1 => char::from(rng.below(0x20) as u8),
                _ => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

/// A `u64` at an edge of its range, or anywhere in it.
fn edge_u64() -> BoxedStrategy<u64> {
    BoxedStrategy::from_fn(|rng| match rng.below(4) {
        0 => u64::MAX,
        1 => 0,
        2 => i64::MAX as u64 + rng.below(3),
        _ => rng.next_u64() >> rng.below(64),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_text_is_read_without_panicking(text in arbitrary_text()) {
        feed(&text);
        feed(&format!("{{\"event\": {text}"));
        feed(&format!("{{\"op\": \"submit\", {text}}}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn journal_events_round_trip(s in arbitrary_string(), n in edge_u64(), t in arbitrary_string()) {
        let signed = n as i64;
        let events = [
            JournalEvent::RunFault {
                benchmark: s.clone(),
                build_type: t.clone(),
                threads: n as usize,
                rep: n.is_multiple_of(2).then_some(n as usize),
                attempt: n,
                error: format!("{s}{t}"),
            },
            JournalEvent::VmExec {
                benchmark: t.clone(),
                build_type: s.clone(),
                threads: 1,
                rep: None,
                instructions: n,
                cycles: u64::MAX,
                l1_misses: 0,
                llc_misses: n / 3,
                branch_mispredicts: 1,
                faults: 2,
                exit: signed,
            },
            JournalEvent::Build {
                benchmark: s.clone(),
                build_type: t.clone(),
                digest: s.clone(),
                cache_hit: n.is_multiple_of(3),
                wall_ns: n,
            },
            JournalEvent::ServeEnqueue { submission: n, priority: signed, depth: 0 },
            JournalEvent::ServeEnqueue { submission: 0, priority: i64::MIN, depth: n as usize },
        ];
        for event in events {
            let line = event.to_json();
            prop_assert_eq!(parse_line(&line), Ok(event), "{}", line);
        }
    }

    #[test]
    fn run_payloads_round_trip(s in arbitrary_string(), n in edge_u64()) {
        for exit in [n as i64, i64::MIN, i64::MAX] {
            let run = sample_run(&s, exit, n);
            let line = run_to_json(&run);
            let back = run_from_json(&line);
            prop_assert_eq!(back.as_ref().map(|r| r.wall_seconds.to_bits()), Some(run.wall_seconds.to_bits()));
            prop_assert_eq!(back, Some(run), "{}", line);
        }
    }

    #[test]
    fn index_entries_round_trip(s in arbitrary_string(), n in edge_u64()) {
        let entry = index_entry(&s, n);
        let line = entry.to_json();
        prop_assert_eq!(Line::parse(&line).ok(), Some(Line::Run(entry)), "{}", line);
    }
}

#[test]
fn a_repeated_key_reads_as_its_last_value() {
    for width in [2, 40] {
        let fields: Vec<String> = (0..width).map(|i| format!("\"k{i}\": {i}")).collect();
        let line = format!("{{\"k1\": \"first\", {}, \"k1\": \"last\"}}", fields.join(", "));
        let obj = FlatObject::parse(&line).unwrap();
        assert_eq!(obj.value("k1"), Some(&Json::Str("last".into())), "{line}");
        assert_eq!(obj.value("k0"), Some(&Json::Int(0)));
        assert_eq!(obj.value("k"), None);
        let keys: Vec<&str> = obj.by_key().into_iter().map(|(k, _)| k).collect();
        let mut expected: Vec<String> = (0..width).map(|i| format!("k{i}")).collect();
        expected.sort();
        assert_eq!(keys, expected);
    }
}

#[test]
fn plain_strings_borrow_from_the_line_and_escaped_ones_are_decoded() {
    let line = r#"{"plain": "abc", "esc\"aped": "a\u00e9\n\/", "n": -9223372036854775808}"#;
    let obj = FlatObject::parse(line).unwrap();
    let keys: Vec<&str> = obj.fields.iter().map(|(k, _)| k.as_ref()).collect();
    assert_eq!(keys, ["plain", "esc\"aped", "n"], "fields stay in line order");
    assert!(matches!(obj.fields[0], (Cow::Borrowed(_), Json::Str(Cow::Borrowed("abc")))));
    assert_eq!(obj.value("esc\"aped"), Some(&Json::Str(Cow::Owned("aé\n/".into()))));
    assert_eq!(obj.value("n"), Some(&Json::Int(i128::from(i64::MIN))));
}

/// Error messages name what was expected and the char found, whole.
#[test]
fn messages_quote_whole_chars() {
    for (line, message) in [
        ("", "expected `{`"),
        ("{\"a\" 1}", "expected `:` after key `a`"),
        ("{\"a\": 1é}", "expected `,` or `}`, got Some('é')"),
        ("{\"a\": 1", "expected `,` or `}`, got None"),
        ("{\"a\": é}", "unexpected value start Some('é')"),
        ("{\"a\": \"\\é\"}", "bad escape Some('é')"),
        ("{\"a\": \"\\u日本語x\"}", "bad \\u escape `日本語x`"),
        ("{\"a\": tru日}", "unknown literal `tru`"),
        ("{\"a\": 1-2}", "bad number `1-2`"),
        ("{\"a\": 18446744073709551616}", "bad number `18446744073709551616`"),
        ("{\"a\": -9223372036854775809}", "bad number `-9223372036854775809`"),
        ("{\"a\": \"x", "unterminated string"),
        ("{\"a\": 1} x", "trailing characters after object"),
        ("{1: 2}", "expected string"),
    ] {
        assert_eq!(FlatObject::parse(line).unwrap_err(), malformed(message), "{line}");
    }
    // Unicode whitespace separates tokens, and `\u` takes a sign as
    // `from_str_radix` does.
    let obj = FlatObject::parse("\u{85}{\"a\":\u{2028}\"\\u+041\"}\u{a0}").unwrap();
    assert_eq!(obj.value("a"), Some(&Json::Str("\u{41}".into())));
}
