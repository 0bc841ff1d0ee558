//! Attack execution and testbed aggregation.

use std::collections::BTreeMap;

use fex_cc::{compile, BuildOptions};
use fex_vm::{AttackEvent, Machine, MachineConfig, Mitigations, Trap, VmError};

use crate::genprog::generate_program;
use crate::spec::{all_attacks, AttackSpec};

/// What happened when an attack ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The payload executed (dummy file created / shellcode ran).
    Succeeded,
    /// The program ran to completion without the payload executing
    /// (truncated copy, unreachable target, bounded routine…).
    NoEffect,
    /// The program crashed before the payload ran.
    Crashed(String),
    /// A mitigation detected the attack (canary, ASan).
    Detected(String),
}

impl AttackOutcome {
    /// RIPE's binary classification: only `Succeeded` counts as a
    /// successful attack.
    pub fn successful(&self) -> bool {
        matches!(self, AttackOutcome::Succeeded)
    }
}

/// Machine configuration for a testbed run.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Exploit mitigations active on the machine.
    pub mitigations: Mitigations,
    /// RNG seed (relevant with ASLR).
    pub seed: u64,
}

impl TestbedConfig {
    /// The paper's configuration: "Ubuntu 16.04 with disabled ASLR and
    /// building with disabled stack canaries and enabled executable
    /// stack".
    pub fn paper() -> Self {
        TestbedConfig { mitigations: Mitigations::insecure(), seed: 42 }
    }

    /// A modern hardened configuration (extension experiment).
    pub fn hardened() -> Self {
        TestbedConfig { mitigations: Mitigations::hardened(), seed: 42 }
    }

    fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            mitigations: self.mitigations,
            seed: self.seed,
            // Attacks are tiny; keep the backstop tight so a wedged attack
            // cannot stall the whole testbed.
            max_instructions: 10_000_000,
            ..MachineConfig::default()
        }
    }
}

/// Compiles and runs a single attack.
pub fn run_attack(spec: &AttackSpec, opts: &BuildOptions, config: &TestbedConfig) -> AttackOutcome {
    let src = generate_program(spec);
    let program = match compile(&src, opts) {
        Ok(p) => p,
        Err(e) => return AttackOutcome::Crashed(format!("compile error: {e}")),
    };
    let machine = Machine::new(config.machine_config());
    let mut instance = machine.load(&program);
    let result = instance.run_entry(&[]);
    // The payload may have run even if the program crashed afterwards
    // (overflow tails often corrupt more than the target) — RIPE counts
    // payload execution, not clean exits.
    let payload_ran = instance.attack_events().iter().any(|e| {
        matches!(e, AttackEvent::CreatFile { .. } | AttackEvent::ShellcodeExecuted { .. })
    });
    match result {
        _ if payload_ran => AttackOutcome::Succeeded,
        Ok(_) => AttackOutcome::NoEffect,
        Err(VmError::Trap(t @ Trap::CanarySmashed { .. })) => {
            AttackOutcome::Detected(t.to_string())
        }
        Err(VmError::Trap(t @ Trap::AsanViolation { .. })) => {
            AttackOutcome::Detected(t.to_string())
        }
        Err(VmError::Trap(t)) => AttackOutcome::Crashed(t.to_string()),
        Err(e) => AttackOutcome::Crashed(e.to_string()),
    }
}

/// Aggregated results of one testbed run (one build, one machine config).
#[derive(Debug, Clone)]
pub struct TestbedSummary {
    /// Compiler/build identification.
    pub build_info: String,
    /// Total attacks attempted.
    pub total: usize,
    /// Attacks whose payload executed.
    pub successful: usize,
    /// Attacks that did not achieve payload execution (for any reason).
    pub failed: usize,
    /// Of the failed ones, how many a mitigation explicitly detected.
    pub detected: usize,
    /// Successes broken down by `(technique, location)`.
    pub by_dimension: BTreeMap<String, usize>,
    /// Every attack with its outcome, in matrix order.
    pub outcomes: Vec<(AttackSpec, AttackOutcome)>,
}

/// Runs the full attack matrix for one build.
pub fn run_testbed(opts: &BuildOptions, config: &TestbedConfig) -> TestbedSummary {
    let mut outcomes = Vec::new();
    let mut by_dimension: BTreeMap<String, usize> = BTreeMap::new();
    let mut successful = 0;
    let mut detected = 0;
    for spec in all_attacks() {
        let outcome = run_attack(&spec, opts, config);
        if outcome.successful() {
            successful += 1;
            *by_dimension
                .entry(format!("{:?}/{:?}", spec.technique, spec.location))
                .or_insert(0) += 1;
        }
        if matches!(outcome, AttackOutcome::Detected(_)) {
            detected += 1;
        }
        outcomes.push((spec, outcome));
    }
    let total = outcomes.len();
    TestbedSummary {
        build_info: opts.build_info(),
        total,
        successful,
        failed: total - successful,
        detected,
        by_dimension,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AttackFunction, Location, Payload, Target, Technique};

    fn spec(
        technique: Technique,
        location: Location,
        target: Target,
        function: AttackFunction,
        payload: Payload,
    ) -> AttackSpec {
        AttackSpec { technique, location, target, function, payload }
    }

    #[test]
    fn memcpy_ret2libc_on_stack_succeeds_in_the_paper_config() {
        let s = spec(
            Technique::Direct,
            Location::Stack,
            Target::ReturnAddress,
            AttackFunction::Memcpy,
            Payload::ReturnIntoLibc,
        );
        let out = run_attack(&s, &BuildOptions::gcc(), &TestbedConfig::paper());
        assert_eq!(out, AttackOutcome::Succeeded);
    }

    #[test]
    fn shellcode_on_stack_needs_an_executable_stack() {
        let s = spec(
            Technique::Direct,
            Location::Stack,
            Target::ReturnAddress,
            AttackFunction::Memcpy,
            Payload::Shellcode,
        );
        let insecure = run_attack(&s, &BuildOptions::gcc(), &TestbedConfig::paper());
        assert_eq!(insecure, AttackOutcome::Succeeded);
        // NX alone defeats the shellcode (it faults on execute).
        let mut nx = TestbedConfig::paper();
        nx.mitigations.nx = true;
        let blocked = run_attack(&s, &BuildOptions::gcc(), &nx);
        assert!(matches!(blocked, AttackOutcome::Crashed(_)), "{blocked:?}");
    }

    #[test]
    fn canaries_detect_return_address_smashes() {
        let s = spec(
            Technique::Direct,
            Location::Stack,
            Target::ReturnAddress,
            AttackFunction::Memcpy,
            Payload::ReturnIntoLibc,
        );
        let mut cfg = TestbedConfig::paper();
        cfg.mitigations.canaries = true;
        let out = run_attack(&s, &BuildOptions::gcc(), &cfg);
        assert!(matches!(out, AttackOutcome::Detected(_)), "{out:?}");
    }

    #[test]
    fn strcpy_truncates_pointer_values() {
        let s = spec(
            Technique::Direct,
            Location::Stack,
            Target::ReturnAddress,
            AttackFunction::Strcpy,
            Payload::ReturnIntoLibc,
        );
        let out = run_attack(&s, &BuildOptions::gcc(), &TestbedConfig::paper());
        assert!(!out.successful(), "{out:?}");
    }

    #[test]
    fn bounded_functions_never_overflow() {
        let s = spec(
            Technique::Direct,
            Location::Stack,
            Target::ReturnAddress,
            AttackFunction::Strncpy,
            Payload::ReturnIntoLibc,
        );
        let out = run_attack(&s, &BuildOptions::gcc(), &TestbedConfig::paper());
        assert_eq!(out, AttackOutcome::NoEffect);
    }

    #[test]
    fn rop_gadgets_are_rejected_by_the_machine_model() {
        let s = spec(
            Technique::Direct,
            Location::Stack,
            Target::ReturnAddress,
            AttackFunction::Memcpy,
            Payload::Rop,
        );
        let out = run_attack(&s, &BuildOptions::gcc(), &TestbedConfig::paper());
        assert!(matches!(out, AttackOutcome::Crashed(_)), "{out:?}");
    }

    #[test]
    fn clang_layout_blocks_global_segment_attacks() {
        for technique in [Technique::Direct, Technique::Indirect] {
            let s = spec(
                technique,
                Location::Bss,
                Target::FuncPtr,
                AttackFunction::Memcpy,
                Payload::ReturnIntoLibc,
            );
            let gcc = run_attack(&s, &BuildOptions::gcc(), &TestbedConfig::paper());
            let clang = run_attack(&s, &BuildOptions::clang(), &TestbedConfig::paper());
            assert_eq!(gcc, AttackOutcome::Succeeded, "{technique:?}");
            assert_eq!(clang, AttackOutcome::NoEffect, "{technique:?}");
        }
    }

    #[test]
    fn heap_attacks_work_for_both_compilers() {
        let s = spec(
            Technique::Direct,
            Location::Heap,
            Target::FuncPtr,
            AttackFunction::Homebrew,
            Payload::ReturnIntoLibc,
        );
        for opts in [BuildOptions::gcc(), BuildOptions::clang()] {
            let out = run_attack(&s, &opts, &TestbedConfig::paper());
            assert_eq!(out, AttackOutcome::Succeeded, "{}", opts.build_info());
        }
    }

    #[test]
    fn asan_detects_the_overflow_itself() {
        let s = spec(
            Technique::Direct,
            Location::Stack,
            Target::ReturnAddress,
            AttackFunction::Memcpy,
            Payload::ReturnIntoLibc,
        );
        let out = run_attack(&s, &BuildOptions::gcc().with_asan(), &TestbedConfig::paper());
        assert!(matches!(out, AttackOutcome::Detected(_)), "{out:?}");
    }
}
