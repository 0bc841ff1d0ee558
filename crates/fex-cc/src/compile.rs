//! Top-level compilation API.

use fex_vm::Program;

use crate::backend::BackendProfile;
use crate::errors::CompileError;
use crate::{asan, codegen, layout, lower, parser, passes};

/// Build options: the Cmm equivalent of `CC`/`CFLAGS` chosen by the
/// framework's makefile layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildOptions {
    /// Backend profile (gcc / clang).
    pub backend: BackendProfile,
    /// Enable AddressSanitizer-style instrumentation
    /// (`-fsanitize=address`).
    pub asan: bool,
    /// Optimisation level 0–2 (`-O0`…`-O2`).
    pub opt_level: u8,
    /// Emit debug builds (currently: records the flag in build info; the
    /// framework uses it to select debug environment variables).
    pub debug: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { backend: BackendProfile::gcc(), asan: false, opt_level: 2, debug: false }
    }
}

impl BuildOptions {
    /// `gcc -O2`.
    pub fn gcc() -> Self {
        Self::default()
    }

    /// `clang -O2`.
    pub fn clang() -> Self {
        BuildOptions { backend: BackendProfile::clang(), ..Self::default() }
    }

    /// Adds `-fsanitize=address`.
    pub fn with_asan(mut self) -> Self {
        self.asan = true;
        self
    }

    /// Sets the optimisation level (clamped to 0–2).
    pub fn with_opt_level(mut self, level: u8) -> Self {
        self.opt_level = level.min(2);
        self
    }

    /// The human-readable "command line" recorded in program provenance.
    pub fn build_info(&self) -> String {
        format!(
            "{} {} -O{}{}{}",
            self.backend.name,
            self.backend.version,
            self.opt_level,
            if self.asan { " -fsanitize=address" } else { "" },
            if self.debug { " -g" } else { "" },
        )
    }
}

/// The content digest of one compilation input: the benchmark's name and
/// its Cmm source bytes, nothing else.
///
/// This is the root of the evaluator's artifact graph — compiled and
/// decoded program keys, run-unit keys and aggregate keys all chain off
/// it, so editing a benchmark's source dirties exactly its own subtree.
pub fn source_digest(benchmark: &str, source: &str) -> fex_container::Digest {
    let mut d = fex_container::DigestBuilder::new();
    d.update_str(benchmark).update_str(source);
    d.finish()
}

/// Compiles Cmm source into an executable VM program.
///
/// # Errors
///
/// Returns the first lexical, syntactic or semantic error.
///
/// # Example
///
/// ```
/// use fex_cc::{compile, BuildOptions};
/// use fex_vm::{Machine, MachineConfig};
///
/// let program = compile("fn main() -> int { return 40 + 2; }", &BuildOptions::gcc())?;
/// let mut m = Machine::new(MachineConfig::default());
/// assert_eq!(m.run(&program, &[])?.exit, 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile(source: &str, opts: &BuildOptions) -> Result<Program, CompileError> {
    codegen::emit(compile_ir(source, opts)?, opts.asan, opts.build_info())
}

/// Compiles to optimised (and, if requested, instrumented) IR without
/// emitting bytecode.
fn compile_ir(source: &str, opts: &BuildOptions) -> Result<crate::ir::IrProgram, CompileError> {
    let mut unit = parser::parse(source)?;
    layout::order_globals(&mut unit, opts.backend.layout);
    let mut ir = lower::lower(&unit)?;
    for f in &mut ir.functions {
        passes::run(f, &opts.backend, opts.opt_level);
    }
    if opts.asan {
        asan::instrument(&mut ir);
    }
    Ok(ir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fex_vm::{Machine, MachineConfig};

    fn run(src: &str, opts: &BuildOptions) -> fex_vm::RunResult {
        let p = compile(src, opts).expect("compiles");
        Machine::new(MachineConfig::default()).run(&p, &[]).expect("runs")
    }

    #[test]
    fn end_to_end_arithmetic() {
        for opts in [BuildOptions::gcc(), BuildOptions::clang()] {
            assert_eq!(run("fn main() -> int { return 6 * 7; }", &opts).exit, 42);
        }
    }

    #[test]
    fn loops_and_arrays() {
        let src = "\
            global acc[10];\n\
            fn main() -> int {\n\
              var i = 0;\n\
              while (i < 10) { acc[i] = i * i; i += 1; }\n\
              var s = 0;\n\
              for (j = 0; j < 10; j += 1) { s += acc[j]; }\n\
              return s;\n\
            }";
        for opts in [BuildOptions::gcc(), BuildOptions::clang()] {
            assert_eq!(run(src, &opts).exit, 285);
        }
    }

    #[test]
    fn gcc_and_clang_agree_on_results_but_not_cycles() {
        // FP kernel with a*b+c patterns: both produce identical output; the
        // gcc profile must be faster thanks to FMA fusion.
        let src = "\
            global a[64] : float;\n\
            global b[64] : float;\n\
            fn main() -> int {\n\
              var i = 0;\n\
              while (i < 64) { a[i] = float(i); b[i] = float(i + 1); i += 1; }\n\
              var acc = 0.0;\n\
              var j = 0;\n\
              while (j < 64) { acc = acc + a[j] * b[j]; j += 1; }\n\
              print_float(acc);\n\
              return 0;\n\
            }";
        let g = run(src, &BuildOptions::gcc());
        let c = run(src, &BuildOptions::clang());
        assert_eq!(g.stdout, c.stdout);
        assert!(
            g.elapsed_cycles < c.elapsed_cycles,
            "gcc {} !< clang {}",
            g.elapsed_cycles,
            c.elapsed_cycles
        );
    }

    #[test]
    fn asan_build_is_slower_and_catches_overflow() {
        let ok = "\
            global buf[16];\n\
            fn main() -> int { var i = 0; while (i < 16) { buf[i] = i; i += 1; } return buf[7]; }";
        let native = run(ok, &BuildOptions::gcc());
        let asan = run(ok, &BuildOptions::gcc().with_asan());
        assert_eq!(native.exit, 7);
        assert_eq!(asan.exit, 7);
        assert!(asan.elapsed_cycles > native.elapsed_cycles);
        assert!(asan.counters.asan_checks > 0);

        let bad = "\
            global buf[16];\n\
            fn main() -> int { buf[16] = 1; return 0; }";
        let p = compile(bad, &BuildOptions::gcc().with_asan()).unwrap();
        let err = Machine::new(MachineConfig::default()).run(&p, &[]).unwrap_err();
        assert!(matches!(err, fex_vm::VmError::Trap(fex_vm::Trap::AsanViolation { .. })));
        // The same overflow goes *unnoticed* in the native build — that is
        // exactly the bug class ASan exists for.
        let p = compile(bad, &BuildOptions::gcc()).unwrap();
        assert!(Machine::new(MachineConfig::default()).run(&p, &[]).is_ok());
    }

    #[test]
    fn o0_disables_optimisation() {
        let src = "fn main() -> int { return 2 + 3; }";
        let o0 = compile(src, &BuildOptions::gcc().with_opt_level(0)).unwrap();
        let o2 = compile(src, &BuildOptions::gcc()).unwrap();
        assert!(o0.static_instruction_count() > o2.static_instruction_count());
    }

    #[test]
    fn source_digest_keys_on_name_and_bytes_only() {
        let a = source_digest("fft", "fn main() -> int { return 0; }");
        assert_eq!(a, source_digest("fft", "fn main() -> int { return 0; }"), "pure function");
        assert_ne!(a, source_digest("lu", "fn main() -> int { return 0; }"));
        assert_ne!(a, source_digest("fft", "fn main() -> int { return 1; }"));
    }

    #[test]
    fn build_info_records_flags() {
        let info = BuildOptions::clang().with_asan().build_info();
        assert!(info.contains("clang"));
        assert!(info.contains("-fsanitize=address"));
    }

    #[test]
    fn parfor_program_runs_on_multiple_cores() {
        let src = "\
            global out[32];\n\
            fn worker(i) { out[i] = i * 2; }\n\
            fn main() -> int {\n\
              parfor worker(0, 32);\n\
              var s = 0;\n\
              for (i = 0; i < 32; i += 1) { s += out[i]; }\n\
              return s;\n\
            }";
        let p = compile(src, &BuildOptions::gcc()).unwrap();
        let r1 = Machine::new(MachineConfig::with_cores(1)).run(&p, &[]).unwrap();
        let r4 = Machine::new(MachineConfig::with_cores(4)).run(&p, &[]).unwrap();
        assert_eq!(r1.exit, 992);
        assert_eq!(r4.exit, 992);
    }

    #[test]
    fn recursion_works() {
        let src = "\
            fn fib(n) -> int { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
            fn main() -> int { return fib(12); }";
        assert_eq!(run(src, &BuildOptions::gcc()).exit, 144);
    }

    #[test]
    fn strings_and_heap() {
        let src = "\
            fn main() -> int {\n\
              var p = alloc(64);\n\
              strcpy(p, \"hello\");\n\
              var n = strlen(p);\n\
              print_str(p);\n\
              free(p);\n\
              return n;\n\
            }";
        let r = run(src, &BuildOptions::gcc());
        assert_eq!(r.exit, 5);
        assert_eq!(r.stdout.trim(), "hello");
    }

    #[test]
    fn float_math_builtins() {
        let src = "\
            fn main() -> int {\n\
              var x = sqrt(16.0) + fabs(-2.0) + exp(0.0) + log(1.0);\n\
              if (x > 6.9 && x < 7.1) { return 1; }\n\
              return 0;\n\
            }";
        assert_eq!(run(src, &BuildOptions::gcc()).exit, 1);
    }

    #[test]
    fn global_scalar_as_heap_pointer_indexes_its_value() {
        let src = "\
            global p;\n\
            fn main() -> int {\n\
              p = alloc(80);\n\
              var i = 0;\n\
              while (i < 10) { p[i] = i * 3; i += 1; }\n\
              return p[9];\n\
            }";
        assert_eq!(run(src, &BuildOptions::gcc()).exit, 27);
    }

    #[test]
    fn indirect_calls_through_function_pointers() {
        let src = "\
            global handler = @double_it;\n\
            fn double_it(x) -> int { return x * 2; }\n\
            fn main() -> int { return icall(handler, 21); }";
        for opts in [BuildOptions::gcc(), BuildOptions::clang()] {
            assert_eq!(run(src, &opts).exit, 42);
        }
    }
}
