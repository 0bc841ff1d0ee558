//! # fex-cc — the reproduction's compiler substrate
//!
//! A small but real compiler for **Cmm**, a deliberately memory-unsafe
//! C-like language, targeting the [`fex-vm`](fex_vm) bytecode machine. It
//! stands in for the paper's GCC 6.1 and Clang/LLVM 3.8 toolchains:
//!
//! * two [`BackendProfile`]s run different optimisation pipelines and data
//!   layouts, so "compile with gcc vs clang" produces mechanistically
//!   different binaries (see [`passes`] and [`layout`]);
//! * an [AddressSanitizer-style pass](asan) reproduces the paper's example
//!   instrumentation build type (`-fsanitize=address`).
//!
//! ## Language summary
//!
//! ```text
//! global name[len]? (: int|float|fnptr)? (= init)? ;
//! fn name(params) (-> type)? { stmts }
//! stmts:  var x (: ty)? (= expr)?;   local buf[N] (: ty)?;
//!         x = e;  a[i] op= e;  if/else  while  for  break  continue
//!         return e?;  parfor worker(lo, hi, extra...);
//! exprs:  literals, "strings", name, a[i], &name, @fn, calls,
//!         + - * / % & | ^ << >> == != < <= > >= && || ! ~ -
//! builtins: alloc free memcpy memset strcpy strlen load/store loadb/storeb
//!         loadf/storef icall print_int print_float print_str rand cycles
//!         num_cores sqrt exp log sin cos fabs float int attack_success
//!         creat_file abort
//! ```
//!
//! ## Example
//!
//! ```
//! use fex_cc::{compile, BuildOptions};
//! use fex_vm::{Machine, MachineConfig};
//!
//! let program = compile(
//!     "fn main() -> int { print_str(\"hi\"); return 0; }",
//!     &BuildOptions::clang(),
//! )?;
//! let run = Machine::new(MachineConfig::default()).run(&program, &[])?;
//! assert_eq!(run.stdout.trim(), "hi");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod asan;
pub mod ast;
mod backend;
mod codegen;
mod compile;
pub mod emit;
mod errors;
pub mod ir;
pub mod layout;
pub mod lower;
pub mod parser;
pub mod passes;
mod token;

pub use backend::{BackendProfile, LayoutPolicy};
pub use compile::{compile, source_digest, BuildOptions};
pub use errors::CompileError;
pub use token::Pos;
