//! Distributed experiments — the paper's §VI future-work item ("FEX
//! supports only single-machine experiments. We are investigating ways to
//! build distributed experiments, e.g., using the Fabric library").
//!
//! In this reproduction a *host* is a simulated machine shape
//! ([`FleetHost`]: core count and clock — heterogeneous clusters are the
//! interesting case). A [`DistributedRun`] partitions a suite's
//! benchmarks across hosts round-robin (Fabric-style fan-out) and is
//! otherwise an ordinary experiment: each benchmark's run units take
//! their host's machine shape and go through the same execute stage as
//! every other experiment ([`execute_units`]), so budgets, retries,
//! fault plans and `--jobs` apply unchanged. The merged frame comes out
//! in matrix order with a `host` column, so cross-host comparisons use
//! the same collect/plot pipeline as everything else.
//!
//! Host failures can be injected with [`DistributedRun::kill_host`]: a
//! dead host's partition is re-distributed round-robin across the
//! survivors before execution, and the merged frame marks those runs in
//! its `rescheduled` column so the re-distribution is auditable.

use fex_netsim::fleet::FleetHost;
use fex_suites::Suite;

use crate::build::MakefileSet;
use crate::collect::{run_sample, DataFrame};
use crate::config::{input_name, ExperimentConfig};
use crate::error::{FexError, Result};
use crate::sched::{execute_units, RunUnit, UnitWork};

/// A host's share of the work: each benchmark is flagged with whether it
/// was rescheduled off a dead host.
pub type HostPartition<'a> = (&'a FleetHost, Vec<(&'static str, bool)>);

/// A distributed experiment over one suite.
#[derive(Debug)]
pub struct DistributedRun {
    suite: Suite,
    hosts: Vec<FleetHost>,
    dead: Vec<String>,
}

impl DistributedRun {
    /// Creates a distributed run.
    ///
    /// # Errors
    ///
    /// [`FexError::Config`] when no hosts are given or the suite is
    /// proprietary.
    pub fn new(suite: Suite, hosts: Vec<FleetHost>) -> Result<Self> {
        if hosts.is_empty() {
            return Err(FexError::Config("a distributed run needs at least one host".into()));
        }
        if suite.proprietary {
            return Err(FexError::Config(format!(
                "suite `{}` is proprietary and cannot be distributed",
                suite.name
            )));
        }
        Ok(DistributedRun { suite, hosts, dead: Vec::new() })
    }

    /// Injects a host failure: `name` is considered dead and its
    /// partition is re-distributed to the surviving hosts. Unknown names
    /// are ignored (a host that never existed cannot fail).
    pub fn kill_host(mut self, name: impl Into<String>) -> Self {
        let name = name.into();
        if self.hosts.iter().any(|h| h.name == name) && !self.dead.contains(&name) {
            self.dead.push(name);
        }
        self
    }

    /// Hosts marked as failed.
    pub fn dead_hosts(&self) -> &[String] {
        &self.dead
    }

    fn is_dead(&self, name: &str) -> bool {
        self.dead.iter().any(|d| d == name)
    }

    /// The benchmark partition for each host (round-robin), ignoring
    /// host failures.
    pub fn partition(&self) -> Vec<(&FleetHost, Vec<&'static str>)> {
        let mut parts: Vec<(&FleetHost, Vec<&'static str>)> =
            self.hosts.iter().map(|h| (h, Vec::new())).collect();
        for (i, prog) in self.suite.programs.iter().enumerate() {
            parts[i % self.hosts.len()].1.push(prog.name);
        }
        parts
    }

    /// The partition actually executed: dead hosts' benchmarks are
    /// re-distributed round-robin across the survivors. Each benchmark
    /// carries a flag saying whether it was rescheduled off a dead host.
    ///
    /// # Errors
    ///
    /// [`FexError::Config`] when every host is dead.
    pub fn effective_partition(&self) -> Result<Vec<HostPartition<'_>>> {
        let mut survivors: Vec<HostPartition<'_>> =
            self.hosts.iter().filter(|h| !self.is_dead(&h.name)).map(|h| (h, Vec::new())).collect();
        if survivors.is_empty() {
            return Err(FexError::Config(
                "every host in the cluster has failed; nothing can execute".into(),
            ));
        }
        let mut orphans = Vec::new();
        for (host, benches) in self.partition() {
            if self.is_dead(&host.name) {
                orphans.extend(benches);
            } else if let Some(entry) = survivors.iter_mut().find(|(h, _)| h.name == host.name) {
                entry.1.extend(benches.into_iter().map(|b| (b, false)));
            }
        }
        let n = survivors.len();
        for (i, bench) in orphans.into_iter().enumerate() {
            survivors[i % n].1.push((bench, true));
        }
        Ok(survivors)
    }

    /// Executes the distributed experiment: every benchmark builds with
    /// the same pinned toolchain (reproducibility is preserved by
    /// construction), and the matrix — build type, benchmark
    /// (`config.benchmark` when set), rep — expands into run units, each
    /// under its host's cores and clock, that run through the shared
    /// execute stage. Rows come out in matrix order whatever the
    /// placement. There is no adaptive controller here: every cell runs
    /// the policy's floor count (the exact count for `Fixed` policies).
    ///
    /// # Errors
    ///
    /// Build failures, unknown benchmarks, and the first unit (in matrix
    /// order) that still fails after its retries.
    pub fn execute(&self, makefiles: &MakefileSet, config: &ExperimentConfig) -> Result<DataFrame> {
        config.validate()?;
        let placement: Vec<(&FleetHost, &str, bool)> = self
            .effective_partition()?
            .into_iter()
            .flat_map(|(host, benches)| benches.into_iter().map(move |(b, r)| (host, b, r)))
            .collect();
        let programs = match &config.benchmark {
            Some(name) => vec![self
                .suite
                .program(name)
                .ok_or_else(|| FexError::UnknownName { kind: "benchmark", name: name.clone() })?],
            None => self.suite.programs.iter().collect(),
        };
        let mut units = Vec::new();
        let mut placed = Vec::new();
        for ty in &config.build_types {
            for prog in &programs {
                let &(host, _, rescheduled) = placement
                    .iter()
                    .find(|(_, b, _)| *b == prog.name)
                    .expect("every suite benchmark is placed on a survivor");
                // Decoded the way the units' machines run them.
                let artifact =
                    makefiles.build(prog.name, prog.source, ty, config.debug, config.passes)?;
                for rep in 0..config.repetitions.min_reps() {
                    let mut mc =
                        config.unit_machine_config(prog.name, ty, host.cores, Some(rep), 0);
                    mc.freq_hz = host.freq_hz;
                    units.push(RunUnit {
                        ty: ty.clone(),
                        bench: prog.name.to_string(),
                        threads: host.cores,
                        rep: Some(rep),
                        input: input_name(config.input),
                        record: true,
                        line: None,
                        work: Some(UnitWork {
                            program: artifact.program.clone(),
                            decoded: config.decode_cache.then(|| artifact.decoded.clone()),
                            args: prog.args(config.input).to_vec(),
                            config: mc,
                        }),
                    });
                    placed.push((host, rescheduled));
                }
            }
        }
        let outcomes = execute_units(&units, &config.resilience, config.effective_jobs(), false, 0);
        // `rescheduled` comes last so positional consumers of the
        // original schema keep working.
        let columns = "host,suite,benchmark,type,input,rep,time,cycles,rescheduled";
        let mut df = DataFrame::new(columns.split(',').map(String::from).collect());
        for ((unit, outcome), (host, rescheduled)) in units.iter().zip(outcomes).zip(placed) {
            outcome.log.result?;
            let run = outcome.result.expect("a successful unit carries its run");
            df.push(vec![
                host.name.as_str().into(),
                self.suite.name.into(),
                unit.bench.as_str().into(),
                unit.ty.as_str().into(),
                unit.input.into(),
                (unit.rep.unwrap_or(0) as i64).into(),
                run_sample(config.tool, &run).into(),
                (run.elapsed_cycles as i64).into(),
                (rescheduled as i64).into(),
            ]);
        }
        Ok(df)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fex_suites::InputSize;

    fn hosts() -> Vec<FleetHost> {
        vec![FleetHost::new("node-a", 4, 3.0e9), FleetHost::new("node-b", 2, 2.0e9)]
    }

    #[test]
    fn partition_is_round_robin_and_total() {
        let run = DistributedRun::new(fex_suites::micro(), hosts()).unwrap();
        let parts = run.partition();
        let total: usize = parts.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 4);
        assert_eq!(parts[0].1, vec!["arrayread", "ptrchase"]);
        assert_eq!(parts[1].1, vec!["arraywrite", "branches"]);
    }

    #[test]
    fn executes_across_heterogeneous_hosts() {
        let run = DistributedRun::new(fex_suites::micro(), hosts()).unwrap();
        let config = ExperimentConfig::new("micro")
            .types(vec!["gcc_native"])
            .input(InputSize::Test)
            .repetitions(2);
        let df = run.execute(&MakefileSet::standard(), &config).unwrap();
        // 4 benchmarks × 1 type × 2 reps.
        assert_eq!(df.len(), 8);
        assert_eq!(df.distinct("host").unwrap(), vec!["node-a", "node-b"]);
        // The slower-clocked host reports proportionally larger times for
        // identical cycle counts.
        let t = |host: &str, bench: &str| -> (f64, f64) {
            let sub = df.filter_eq("host", host).unwrap().filter_eq("benchmark", bench).unwrap();
            let row = sub.iter().next().unwrap().to_vec();
            (row[6].as_num().unwrap(), row[7].as_num().unwrap())
        };
        let (ta, ca) = t("node-a", "arrayread");
        assert!((ta - ca / 3.0e9).abs() / ta < 1e-9, "time must be cycles/freq");
        let (tb, cb) = t("node-b", "arraywrite");
        assert!((tb - cb / 2.0e9).abs() / tb < 1e-9);
    }

    #[test]
    fn invalid_cluster_configs_are_rejected() {
        assert!(DistributedRun::new(fex_suites::micro(), vec![]).is_err());
        assert!(DistributedRun::new(fex_suites::spec_cpu2006(), hosts()).is_err());
    }

    #[test]
    fn dead_host_work_is_redistributed_to_survivors() {
        let run = DistributedRun::new(fex_suites::micro(), hosts())
            .unwrap()
            .kill_host("node-b")
            .kill_host("node-b") // idempotent
            .kill_host("never-existed"); // ignored
        assert_eq!(run.dead_hosts(), &["node-b".to_string()]);

        let parts = run.effective_partition().unwrap();
        assert_eq!(parts.len(), 1, "only node-a survives");
        assert_eq!(parts[0].0.name, "node-a");
        // node-a keeps its own benches un-flagged and inherits node-b's
        // flagged as rescheduled.
        assert_eq!(
            parts[0].1,
            vec![
                ("arrayread", false),
                ("ptrchase", false),
                ("arraywrite", true),
                ("branches", true),
            ]
        );

        let config =
            ExperimentConfig::new("micro").types(vec!["gcc_native"]).input(InputSize::Test);
        let df = run.execute(&MakefileSet::standard(), &config).unwrap();
        // No work is lost: all 4 benchmarks still execute.
        assert_eq!(df.len(), 4);
        assert_eq!(df.distinct("host").unwrap(), vec!["node-a"]);
        let ri = df.col("rescheduled").unwrap();
        let rescheduled: Vec<String> =
            df.iter().filter(|r| r[ri].as_num() == Some(1.0)).map(|r| r[2].to_string()).collect();
        assert_eq!(rescheduled, vec!["arraywrite", "branches"]);
    }

    #[test]
    fn a_fully_dead_cluster_cannot_execute() {
        let run = DistributedRun::new(fex_suites::micro(), hosts())
            .unwrap()
            .kill_host("node-a")
            .kill_host("node-b");
        assert!(matches!(run.effective_partition(), Err(FexError::Config(_))));
        let config = ExperimentConfig::new("micro").input(InputSize::Test);
        assert!(run.execute(&MakefileSet::standard(), &config).is_err());
    }

    #[test]
    fn healthy_clusters_report_no_rescheduling() {
        let run = DistributedRun::new(fex_suites::micro(), hosts()).unwrap();
        let config =
            ExperimentConfig::new("micro").types(vec!["gcc_native"]).input(InputSize::Test);
        let df = run.execute(&MakefileSet::standard(), &config).unwrap();
        let ri = df.col("rescheduled").unwrap();
        assert!(df.iter().all(|r| r[ri].as_num() == Some(0.0)));
    }
}
