//! `serve_mix` traffic: closed-loop clients submitting a seeded stream to
//! an in-process `fex serve` daemon, and the checks on every reply.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fex_core::fuzz::gen::{Scenario, FUZZ_INSTRUCTION_BUDGET};
use fex_core::serve::{self, ServeOptions, ServeOutcome, Server, ServerHandle, Submission};
use fex_core::Fex;

use crate::calib::{self, Timed};
use crate::matrix::{self, JOBS, REPS, TYPES};
use crate::seq::{Class, ClassStream, Rng};

/// Closed-loop clients: one per core.
pub const CLIENTS: u64 = 2;

/// The submission of one suite of `M`.
pub fn m_submission(suite: &str) -> Submission {
    let mut sub = Submission::new("populate", suite);
    sub.build_types = TYPES.iter().map(|t| t.to_string()).collect();
    sub.reps = REPS;
    sub.input = "small".into();
    sub.jobs = JOBS;
    sub.stream = false;
    sub
}

/// An in-process daemon over its own lab.
pub struct Daemon {
    handle: ServerHandle,
    /// The daemon's socket.
    pub socket: PathBuf,
    /// The daemon's lab.
    pub lab: PathBuf,
}

impl Daemon {
    /// Starts a daemon with 2 workers over a fresh lab under `dir`.
    pub fn start(dir: &Path) -> Result<Daemon, String> {
        matrix::reset(dir).map_err(|e| e.to_string())?;
        let socket = dir.join("serve.sock");
        let lab = dir.join("lab");
        let handle = Server::start(ServeOptions {
            socket: socket.clone(),
            lab: lab.to_string_lossy().into_owned(),
            workers: 2,
            queue_cap: 64,
        })
        .map_err(|e| e.to_string())?;
        Ok(Daemon { handle, socket, lab })
    }

    /// Drains and joins the daemon.
    pub fn stop(self) -> Result<(), String> {
        serve::shutdown(&self.socket).map_err(|e| e.to_string())?;
        self.handle.wait().map(drop).map_err(|e| e.to_string())
    }
}

/// A key no earlier submission used: one benchmark of `M`, a non-empty
/// list of distinct build types in some order, and a repetition count.
/// Every unit of it is in the populated graph; the type order only orders
/// the reply's rows.
#[derive(Debug, Clone)]
pub struct WarmKey {
    suite: usize,
    bench: &'static str,
    types: Vec<&'static str>,
    reps: usize,
}

impl WarmKey {
    /// Graph lookups the key's submission makes.
    fn units(&self) -> usize {
        let dry = matrix::suites()[self.suite].program(self.bench).is_some_and(|p| p.dry_run);
        self.types.len() * (self.reps + usize::from(dry))
    }

    fn submission(&self, tenant: &str) -> Submission {
        let mut sub = m_submission(matrix::suites()[self.suite].name);
        sub.tenant = tenant.to_string();
        sub.benchmark = Some(self.bench.to_string());
        sub.build_types = self.types.iter().map(|t| t.to_string()).collect();
        sub.reps = self.reps;
        sub
    }
}

/// Client `client`'s share of the seeded warm keys.
pub fn warm_keys(seed: u64, client: u64) -> Vec<WarmKey> {
    let mut keys = Vec::new();
    for (suite, bench) in matrix::benchmarks() {
        for types in type_lists(&TYPES) {
            for reps in 1..=REPS {
                keys.push(WarmKey { suite, bench, types: types.clone(), reps });
            }
        }
    }
    Rng::new(seed, 0x3a3a).shuffle(&mut keys);
    keys.into_iter().skip(client as usize).step_by(CLIENTS as usize).collect()
}

/// Every non-empty ordered list of distinct items.
fn type_lists(items: &[&'static str]) -> Vec<Vec<&'static str>> {
    let mut lists = Vec::new();
    for (i, first) in items.iter().enumerate() {
        lists.push(vec![*first]);
        let rest: Vec<&str> =
            items.iter().enumerate().filter(|(j, _)| *j != i).map(|(_, t)| *t).collect();
        for mut tail in type_lists(&rest) {
            tail.insert(0, *first);
            lists.push(tail);
        }
    }
    lists
}

/// An inline submission of one never-seen generated program under one
/// build type. One program and one type per submission keep the cost of
/// `dirty` submissions, which hold the lab gate while they execute, from
/// varying with the seed as much as whole fuzz scenarios do.
pub fn dirty_submission(seed: u64, index: usize, tenant: &str) -> Submission {
    let program = &Scenario::generate(seed, index).programs[0];
    let mut sub = Submission::new(tenant, "inline");
    sub.programs = vec![(program.name.clone(), program.source())];
    sub.build_types = vec![TYPES[index % TYPES.len()].to_string()];
    sub.budget = FUZZ_INSTRUCTION_BUDGET;
    sub.jobs = JOBS;
    sub.stream = false;
    sub
}

/// One submission and its reply.
pub struct Sample {
    /// Its class.
    pub class: Class,
    /// What was submitted.
    pub sub: Submission,
    /// The reply, or the error.
    pub reply: Result<ServeOutcome, String>,
    /// Submission latency at the client.
    pub timed: Timed,
    /// For a dup: the results CSV of the submission it repeats.
    pub expect: Option<String>,
    /// For a warm key: the key.
    pub warm: Option<WarmKey>,
}

impl Sample {
    /// Queue wait reported in the result frame, calibrated like the op.
    pub fn wait_ms(&self) -> Option<f64> {
        let wait = self.reply.as_ref().ok()?.wait_ns as f64 / 1e6;
        Some(calib::scale(wait, self.timed.calib_ms))
    }
}

/// One closed-loop client: submits until `until` or `max_ops`.
/// `history` holds completed (submission, results CSV) pairs that dups
/// may repeat.
pub fn client(
    socket: &Path,
    seed: u64,
    client: u64,
    mut history: Vec<(Submission, String)>,
    until: Instant,
    max_ops: usize,
) -> Vec<Sample> {
    let mut classes = ClassStream::new(seed, client);
    let mut pick = Rng::new(seed, 0xd0d0 + client);
    let mut warm = warm_keys(seed, client).into_iter();
    let mut dirty = 0;
    let mut samples = Vec::new();
    let tenant = format!("client{client}");
    while samples.len() < max_ops && Instant::now() < until {
        let mut class = classes.next().expect("the class stream is endless");
        if class == Class::Dup && history.is_empty() {
            class = Class::Warm;
        }
        let (mut expect, mut key) = (None, None);
        let sub = match class {
            Class::Dup => {
                let (sub, csv) = &history[pick.below(history.len())];
                expect = Some(csv.clone());
                Submission { tenant: format!("{tenant}-dup"), ..sub.clone() }
            }
            Class::Warm => {
                let Some(k) = warm.next() else { break };
                let sub = k.submission(&tenant);
                key = Some(k);
                sub
            }
            Class::Dirty => {
                dirty += 1;
                dirty_submission(seed, ((dirty - 1) * CLIENTS + client) as usize, &tenant)
            }
        };
        let (reply, timed) = calib::time(|| serve::submit(socket, &sub));
        let reply = reply.map_err(|e| e.to_string());
        if let (Ok(o), false) = (&reply, class == Class::Dup) {
            history.push((sub.clone(), o.results_csv.clone()));
        }
        samples.push(Sample { class, sub, reply, timed, expect, warm: key });
    }
    samples
}

/// Runs the clients in parallel and returns all samples.
pub fn drive(
    socket: &Path,
    seed: u64,
    history: &[(Submission, String)],
    until: Instant,
    max_ops: usize,
) -> Vec<Sample> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(socket, seed, c, history.to_vec(), until, max_ops)))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// The rows of `M`'s direct results CSV a warm key covers, in the key's
/// type order.
fn project(m_csv: &str, key: &WarmKey) -> String {
    let mut lines = m_csv.lines();
    let mut out = format!("{}\n", lines.next().unwrap_or_default());
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    for ty in &key.types {
        for row in &rows {
            let rep: usize = row.get(5).and_then(|r| r.parse().ok()).unwrap_or(usize::MAX);
            if row.get(1) == Some(&key.bench) && row.get(2) == Some(ty) && rep < key.reps {
                out.push_str(&row.join(","));
                out.push('\n');
            }
        }
    }
    out
}

/// Checks one reply against direct references: `m_csvs` are `M`'s results
/// from a direct `Fex::run_suite` per suite.
pub fn check(sample: &Sample, m_csvs: &[String]) -> Result<(), String> {
    let o = sample.reply.as_ref()?;
    if o.failures != 0 {
        return Err(format!("{} failures in the reply", o.failures));
    }
    match sample.class {
        Class::Dup => {
            if !o.store_hit {
                return Err("dup was not served from the served map".into());
            }
            if Some(&o.results_csv) != sample.expect.as_ref() {
                return Err("dup CSV differs from the original reply".into());
            }
        }
        Class::Warm => {
            let key = sample.warm.as_ref().expect("warm samples carry their key");
            if o.graph_misses != 0 || o.graph_hits != key.units() {
                return Err(format!(
                    "warm reply had {} hits, {} misses",
                    o.graph_hits, o.graph_misses
                ));
            }
            if o.results_csv != project(&m_csvs[key.suite], key) {
                return Err(format!("warm CSV for {} differs from the direct run", key.bench));
            }
        }
        Class::Dirty => {
            let config = sample.sub.config(None);
            let mut fex = Fex::new();
            fex.run_suite(&config, sample.sub.suite().map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            if fex.result_csv(&config.name).as_ref() != Some(&o.results_csv) {
                return Err("dirty CSV differs from the direct run".into());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_keys_are_seeded_disjoint_and_cover_the_space() {
        let names = |seed, c| {
            warm_keys(seed, c)
                .iter()
                .map(|k| format!("{}{:?}{}", k.bench, k.types, k.reps))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(1, 0), names(1, 0));
        assert_ne!(names(1, 0), names(2, 0));
        let (a, b) = (names(1, 0), names(1, 1));
        // 64 ordered type lists of 4 types, 3 rep counts, 19 benchmarks.
        assert_eq!(a.len() + b.len(), 19 * 64 * 3);
        assert!(a.iter().all(|k| !b.contains(k)));
    }

    #[test]
    fn dirty_submissions_are_seeded_and_distinct() {
        let key = |seed, i| dirty_submission(seed, i, "t").key();
        assert_eq!(key(1, 0), key(1, 0));
        assert_ne!(key(1, 0), key(1, 1));
        assert_ne!(key(1, 0), key(2, 0));
    }
}
