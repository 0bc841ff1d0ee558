//! Service-level integration tests for `fex serve`: the real binary's
//! daemon lifecycle (submit → stream → result, cross-tenant cache
//! serving, malformed-submission rejection, drain-on-shutdown), a
//! concurrent load test against an in-process daemon, the daemon's
//! hold on its lab, and in-process submissions that check the budget
//! and benchmark filter reach the run.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fex_core::serve::{self, Submission};
use fex_core::{ServeOptions, ServeOutcome, Server};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fex-serve-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns the real `fex serve` daemon and waits until its socket accepts
/// connections.
fn spawn_daemon(dir: &Path, workers: &str, queue: &str) -> (Child, PathBuf) {
    let socket = dir.join("serve.sock");
    let child = Command::new(env!("CARGO_BIN_EXE_fex"))
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--lab",
            dir.join("lab").to_str().unwrap(),
            "--workers",
            workers,
            "--queue",
            queue,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fex serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if UnixStream::connect(&socket).is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "daemon never bound {}", socket.display());
        std::thread::sleep(Duration::from_millis(25));
    }
    (child, socket)
}

/// Shuts the daemon down and asserts a clean exit.
fn finish_daemon(mut child: Child, socket: &Path) -> String {
    serve::shutdown(socket).expect("shutdown daemon");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("wait on daemon") {
            assert!(status.success(), "daemon exited with {status}");
            break;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("daemon did not exit after shutdown");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let mut out = String::new();
    use std::io::Read;
    if let Some(mut stdout) = child.stdout.take() {
        let _ = stdout.read_to_string(&mut out);
    }
    out
}

fn micro_sub(tenant: &str) -> Submission {
    let mut sub = Submission::new(tenant, "micro");
    sub.benchmark = Some("arrayread".into());
    sub
}

/// Submit → stream → result against the real binary, then an identical
/// suite from a second tenant: the rerun must be a 100% cache serve with
/// byte-identical CSVs, and the daemon's summary must account it to the
/// right tenant.
#[test]
fn round_trip_and_cross_tenant_cache_serve() {
    let dir = temp_dir("roundtrip");
    let (child, socket) = spawn_daemon(&dir, "2", "8");

    let first = serve::submit(&socket, &micro_sub("alice")).unwrap();
    assert!(!first.store_hit, "a cold submission executes");
    assert!(first.rows > 0, "the result frame has rows");
    assert!(!first.events.is_empty(), "journal events stream back before the result");
    assert!(
        first.events.iter().any(|e| e.contains("experiment_start")),
        "the streamed journal covers the run, got: {:?}",
        first.events.first()
    );
    assert!(first.run_id.starts_with("fex256:"), "the run archives into the shared store");
    assert!(first.graph_misses > 0, "a cold run computes its units");

    let second = serve::submit(&socket, &micro_sub("bob")).unwrap();
    assert!(second.store_hit, "identical work from another tenant is served from cache");
    assert_eq!(second.results_csv, first.results_csv, "byte-identical results CSV");
    assert_eq!(second.failures_csv, first.failures_csv, "byte-identical failures CSV");
    assert!(second.events.is_empty(), "nothing executed, nothing streams");

    let summary = finish_daemon(child, &socket);
    assert!(summary.contains("served 2 submissions"), "summary:\n{summary}");
    assert!(summary.contains("bob: 1 submissions, 1 store hits"), "summary:\n{summary}");
    assert!(summary.contains("alice: 1 submissions, 0 store hits"), "summary:\n{summary}");
    // The daemon's own journal lands next to the store.
    let jsonl = std::fs::read_to_string(dir.join("lab/serve.journal.jsonl")).unwrap();
    for kind in ["serve_submit", "serve_enqueue", "serve_dispatch", "serve_stream"] {
        assert!(jsonl.contains(kind), "serve journal misses `{kind}`:\n{jsonl}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed line gets an error reply naming the problem, the
/// connection and daemon both survive, and valid work still runs
/// afterwards — on the same connection and on fresh ones.
#[test]
fn malformed_submissions_are_rejected_without_killing_the_daemon() {
    let dir = temp_dir("malformed");
    let (child, socket) = spawn_daemon(&dir, "1", "8");

    let mut stream = UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    for (line, expect) in [
        ("this is not json", "malformed"),
        ("{\"op\": \"launch\"}", "unknown op"),
        ("{\"op\": \"submit\", \"suite\": \"micro\"}", "tenant"),
        ("{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"nope\"}", "unknown suite"),
        (
            "{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"micro\", \"fleet\": 3}",
            "unknown submission field `fleet`",
        ),
        (
            "{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"micro\", \
             \"type\": \"clang_asan\"}",
            "unknown submission field `type`",
        ),
    ] {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"reply\": \"error\""), "`{line}` got: {reply}");
        assert!(reply.contains(expect), "`{line}` should mention `{expect}`, got: {reply}");
    }
    drop(stream);

    let outcome = serve::submit(&socket, &micro_sub("carol")).unwrap();
    assert!(outcome.rows > 0, "the daemon still serves after rejections");
    finish_daemon(child, &socket);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon reads a request in key order: whatever order a line holds
/// its fields in, the unknown field it names is the first in key order, a
/// repeated key reads as its last value, and `program.*` sources are
/// taken in name order. The replies are pinned byte for byte.
#[test]
fn requests_read_in_key_order_with_the_last_of_a_repeated_key() {
    let dir = temp_dir("key-order");
    let (handle, socket) = start_daemon(&dir, 1);
    let mut stream = UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut exchange = |line: &str| {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };
    let error = |message: &str| {
        format!(
            "{{\"reply\": \"error\", \"submission\": 0, \"message\": \
             \"invalid configuration: {message}\"}}"
        )
    };
    let unknown =
        r#"{"op": "submit", "zeta": 1, "tenant": "", "suite": "micro", "alpha": 2, "tenant": "a"}"#;
    assert_eq!(exchange(unknown), error("unknown submission field `alpha`"));
    let emptied =
        r#"{"op": "submit", "zeta": 1, "tenant": "a", "suite": "micro", "alpha": 2, "tenant": ""}"#;
    assert_eq!(exchange(emptied), error("submission needs a non-empty tenant"));

    let source = "fn main() -> int { return 0; }";
    let programs = format!(
        "\"program.b\": \"{source}\", \"program.a\": 5, \"stream\": false, \
         \"program.a\": \"{source}\""
    );
    let mut sub = Submission::new("a", "inline");
    sub.programs = vec![("a".into(), source.into()), ("b".into(), source.into())];
    sub.stream = false;
    let accepted = format!(
        "{{\"reply\": \"accepted\", \"tenant\": \"a\", \"submission\": 1, \"key\": \"{}\"}}",
        sub.key()
    );
    let line =
        format!("{{\"op\": \"submit\", \"tenant\": \"a\", \"suite\": \"inline\", {programs}}}");
    assert_eq!(exchange(&line), accepted);
    let mut result = String::new();
    reader.read_line(&mut result).unwrap();
    assert!(result.starts_with("{\"reply\": \"result\", \"submission\": 1, "), "{result}");
    assert!(result.contains("\"rows\": 2, \"failures\": 0, "), "{result}");
    drop((stream, reader));
    serve::shutdown(&socket).unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CLI's own error contract: bad serve flags exit non-zero with the
/// usage text, without ever binding a socket.
#[test]
fn bad_serve_flags_fail_fast_with_usage() {
    for args in [
        vec!["serve", "--queue", "0"],
        vec!["serve", "--port", "80"],
        vec!["serve", "--workers", "many"],
        vec!["serve", "--socket"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fex")).args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: fex"), "{args:?} should print usage, got:\n{stderr}");
    }
}

/// Shutdown drains: submissions already queued when the drain begins
/// still complete to their clients, late submissions are refused, and
/// the daemon exits cleanly.
#[test]
fn shutdown_drains_queued_submissions() {
    let dir = temp_dir("drain");
    // One worker so concurrent submissions actually pile up in the queue.
    let (child, socket) = spawn_daemon(&dir, "1", "16");

    let clients: Vec<_> = (0..3)
        .map(|i| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut sub = micro_sub("drain");
                sub.seed = 100 + i; // distinct work: each must execute
                serve::submit(&socket, &sub)
            })
        })
        .collect();
    // Let the submissions reach the queue before draining begins.
    std::thread::sleep(Duration::from_millis(500));
    let summary = finish_daemon(child, &socket);
    for client in clients {
        let outcome = client.join().unwrap().expect("queued submission drains to a result");
        assert!(outcome.rows > 0);
    }
    assert!(summary.contains("3 completed"), "summary:\n{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Load gate against an in-process daemon: 60 distinct micro
/// submissions, then the same 60 from shuffled tenants, fanned out over
/// 8 concurrent clients, 4 workers and a 32-slot queue. Every unique
/// submission executes, every duplicate is a byte-identical store serve,
/// and the bounded queue never evicts.
#[test]
fn concurrent_duplicates_are_store_served_without_evictions() {
    const CLIENTS: usize = 8;
    const UNIQUE: usize = 60;
    const BENCHES: [&str; 4] = ["arrayread", "arraywrite", "ptrchase", "branches"];
    let dir = temp_dir("load");
    let handle = Server::start(ServeOptions {
        socket: dir.join("serve.sock"),
        lab: dir.join("lab").to_string_lossy().into_owned(),
        workers: 4,
        queue_cap: 4 * CLIENTS,
    })
    .unwrap();
    let socket = handle.socket().to_path_buf();
    let subs = |tenant: fn(usize) -> String| -> Vec<Submission> {
        (0..UNIQUE)
            .map(|i| {
                let mut sub = Submission::new(tenant(i), "micro");
                sub.benchmark = Some(BENCHES[i % BENCHES.len()].into());
                sub.seed = 1_000 + (i / BENCHES.len()) as u64;
                sub.priority = (i % 3) as i64;
                sub.stream = false;
                sub
            })
            .collect()
    };
    // Client `c` submits every `CLIENTS`-th submission, sequentially.
    let submit_all = |subs: &[Submission]| -> Vec<ServeOutcome> {
        let mut outcomes: Vec<Option<ServeOutcome>> = vec![None; subs.len()];
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let socket = &socket;
                    scope.spawn(move || {
                        (c..subs.len())
                            .step_by(CLIENTS)
                            .map(|i| (i, serve::submit(socket, &subs[i]).unwrap()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for client in clients {
                for (i, outcome) in client.join().unwrap() {
                    outcomes[i] = Some(outcome);
                }
            }
        });
        outcomes.into_iter().map(Option::unwrap).collect()
    };

    let cold = submit_all(&subs(|i| format!("t{}", i % CLIENTS)));
    assert!(cold.iter().all(|o| !o.store_hit), "distinct submissions must all execute");
    assert!(cold.iter().all(|o| o.rows > 0), "every unique submission yields rows");
    let warm = submit_all(&subs(|i| format!("u{}", (i + 1) % CLIENTS)));
    for (dup, original) in warm.iter().zip(&cold) {
        assert!(dup.store_hit, "every duplicate is served from the cross-tenant cache");
        assert_eq!(dup.results_csv, original.results_csv, "byte-identical results CSV");
        assert_eq!(dup.failures_csv, original.failures_csv, "byte-identical failures CSV");
    }

    serve::shutdown(&socket).unwrap();
    let summary = handle.wait().unwrap();
    assert_eq!(summary.completed, 2 * UNIQUE as u64);
    assert_eq!(summary.store_hits, UNIQUE as u64);
    assert_eq!(summary.evictions, 0, "the bounded queue never overflowed");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The daemon's lab
// ---------------------------------------------------------------------

/// Starts an in-process daemon with `workers` workers over `<dir>/lab`.
fn start_daemon(dir: &Path, workers: usize) -> (fex_core::ServerHandle, PathBuf) {
    let handle = Server::start(ServeOptions {
        socket: dir.join("serve.sock"),
        lab: dir.join("lab").to_string_lossy().into_owned(),
        workers,
        queue_cap: 64,
    })
    .unwrap();
    let socket = handle.socket().to_path_buf();
    (handle, socket)
}

/// Tries to take `<lab>/lock` the way a second writer would.
fn try_lab_lock(lab: &Path) -> Result<(), std::fs::TryLockError> {
    std::fs::create_dir_all(lab).unwrap();
    let file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(lab.join("lock"))
        .unwrap();
    file.try_lock()
}

/// The daemon opens its lab on the first local submission and holds the
/// lab lock from then until it exits, so no other writer can interleave
/// with it.
#[test]
fn the_daemon_holds_the_lab_lock_from_its_first_local_submission_until_it_exits() {
    let dir = temp_dir("lab-lock");
    let lab = dir.join("lab");
    let (handle, socket) = start_daemon(&dir, 1);
    assert!(try_lab_lock(&lab).is_ok(), "an idle daemon holds no lock");
    let outcome = serve::submit(&socket, &micro_sub("t")).unwrap();
    assert!(!outcome.store_hit && outcome.rows > 0);
    assert!(
        matches!(try_lab_lock(&lab), Err(std::fs::TryLockError::WouldBlock)),
        "the daemon holds the lab lock after its first local submission"
    );
    serve::shutdown(&socket).unwrap();
    handle.wait().unwrap();
    assert!(try_lab_lock(&lab).is_ok(), "the lock goes with the daemon");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two clients send 40 distinct warm and dirty submissions to one
/// daemon. Its lab counts seqs from one index scan, so the store ends
/// with every seq from 0 taken exactly once, and fsck finds it clean.
#[test]
fn concurrent_submissions_take_every_store_seq_once() {
    const BENCHES: [&str; 4] = ["arrayread", "arraywrite", "ptrchase", "branches"];
    let types: [&[&str]; 4] = [
        &["gcc_native"],
        &["clang_native"],
        &["gcc_native", "clang_native"],
        &["clang_native", "gcc_native"],
    ];
    let dir = temp_dir("seqs");
    let (handle, socket) = start_daemon(&dir, 2);
    let mut populate = Submission::new("p", "micro");
    populate.build_types = vec!["gcc_native".into(), "clang_native".into()];
    populate.reps = 2;
    populate.stream = false;
    serve::submit(&socket, &populate).unwrap();
    let subs: Vec<Submission> = (0..40)
        .map(|i| {
            let mut sub = if i % 3 == 2 {
                let mut sub = Submission::new("c", "inline");
                let source = format!("fn main() -> int {{\n  return {i};\n}}\n");
                sub.programs = vec![(format!("dirty{i}"), source)];
                sub
            } else {
                let mut sub = populate.clone();
                sub.benchmark = Some(BENCHES[i % 4].into());
                sub.build_types = types[i / 4 % 4].iter().map(|t| t.to_string()).collect();
                sub.reps = 1 + i / 16 % 2;
                // Fixed repetitions ignore `max_reps`, so it only makes
                // the key distinct.
                sub.max_reps = 16 + i;
                sub
            };
            sub.tenant = format!("client{}", i % 2);
            sub.stream = false;
            sub
        })
        .collect();
    let outcomes: Vec<(usize, ServeOutcome)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let (socket, subs) = (&socket, &subs);
                scope.spawn(move || {
                    (c..subs.len())
                        .step_by(2)
                        .map(|i| (i, serve::submit(socket, &subs[i]).unwrap()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });
    serve::shutdown(&socket).unwrap();
    handle.wait().unwrap();
    for (i, outcome) in &outcomes {
        assert!(!outcome.store_hit, "submission {i} is distinct");
        if subs[*i].suite == "micro" {
            assert_eq!(outcome.graph_misses, 0, "warm submission {i} is served from the graph");
        }
    }
    let store = fex_core::RunStore::open(dir.join("lab")).unwrap();
    let mut seqs: Vec<u64> = store.list().unwrap().iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..41).collect::<Vec<u64>>(), "each seq exactly once");
    let report = fex_core::lab::fsck::check(&store);
    assert!(report.clean(), "{}", report.render());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Copies the directory tree at `from` to `to`.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// A populated lab copied into a started daemon's lab directory before
/// its first submission is the lab it serves: the daemon opens its lab
/// lazily, so every unit of warm work is a graph hit.
#[test]
fn a_lab_restored_into_an_idle_daemon_serves_warm_work_from_its_graph() {
    let dir = temp_dir("restored");
    let mut sub = Submission::new("t", "micro");
    sub.build_types = vec!["gcc_native".into(), "clang_native".into()];
    sub.stream = false;
    let populated = dir.join("populated");
    let config = sub.config(Some(&populated.to_string_lossy()));
    fex_core::Fex::new().run_suite(&config, sub.suite().unwrap()).unwrap();

    let (handle, socket) = start_daemon(&dir, 1);
    copy_tree(&populated, &dir.join("lab"));
    let mut narrower = sub.clone();
    narrower.benchmark = Some("ptrchase".into());
    let outcomes = [serve::submit(&socket, &sub), serve::submit(&socket, &narrower)];
    serve::shutdown(&socket).unwrap();
    handle.wait().unwrap();
    for outcome in outcomes {
        let outcome = outcome.unwrap();
        assert!(!outcome.store_hit, "the daemon has served nothing yet");
        assert!(outcome.graph_hits > 0);
        assert_eq!(outcome.graph_misses, 0, "every unit is served from the restored graph");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Submissions reach the run
// ---------------------------------------------------------------------

/// Starts an in-process daemon, submits `sub` once, shuts down and
/// returns the submission's outcome.
fn submit_once(tag: &str, sub: &Submission) -> fex_core::Result<ServeOutcome> {
    let dir = temp_dir(tag);
    let handle = Server::start(ServeOptions {
        socket: dir.join("serve.sock"),
        lab: dir.join("lab").to_string_lossy().into_owned(),
        workers: 1,
        queue_cap: 8,
    })
    .unwrap();
    let socket = handle.socket().to_path_buf();
    let outcome = serve::submit(&socket, sub);
    serve::shutdown(&socket).unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// A submission runs under its instruction budget: a loop that
/// terminates, but only after far more than 10,000 instructions, is cut
/// off by the watchdog and quarantined, leaving no result rows.
#[test]
fn submissions_run_under_the_budget() {
    let mut sub = Submission::new("ops", "inline");
    sub.programs = vec![(
        "spin".into(),
        "fn main() -> int {\n  var i = 0;\n  var s = 0;\n  \
         while (i < 100000) { s += i; i += 1; }\n  return s % 7;\n}\n"
            .into(),
    )];
    sub.budget = 10_000;
    let outcome = submit_once("budget", &sub).unwrap();
    assert_eq!(outcome.rows, 0, "results: {}", outcome.results_csv);
    let failures = &outcome.failures_csv;
    assert!(failures.contains("instruction limit of 10000 exceeded"), "failures: {failures}");
    assert!(failures.contains("quarantined"), "failures: {failures}");
}

/// A submission restricted to one benchmark runs only that benchmark.
#[test]
fn submissions_honour_the_benchmark_filter() {
    let mut sub = Submission::new("ops", "micro");
    sub.benchmark = Some("arrayread".into());
    let outcome = submit_once("bench", &sub).unwrap();
    assert!(outcome.rows > 0);
    let benches: Vec<&str> =
        outcome.results_csv.lines().skip(1).filter_map(|l| l.split(',').nth(1)).collect();
    assert_eq!(benches.len(), outcome.rows);
    assert!(benches.iter().all(|b| *b == "arrayread"), "rows: {benches:?}");
}
