//! The three-layer build system (Fig 2 of the paper).
//!
//! Build configurations are literal makefile-like layers:
//!
//! * the **common layer** (`common.mk`) holds flags shared by every build,
//! * **compiler layers** (`gcc_native.mk`, `clang_native.mk`) pin `CC`,
//! * **type layers** (`gcc_asan.mk`, …) include a compiler layer and add
//!   experiment flags (`CFLAGS += -fsanitize=address`),
//! * the **application layer** is each benchmark's own makefile (name and
//!   sources), supplied by the suite registry.
//!
//! Any application can be built with any configuration because the layers
//! compose independently — the paper's central build-system claim. The
//! resolved variable set is translated into [`fex_cc::BuildOptions`],
//! compiled and decoded by [`MakefileSet::build`], one stateless step
//! that every experiment calls afresh: binaries are rebuilt for every
//! experiment (§II-A). Reuse across experiments comes from the lab's
//! artifact graph, which keys run units by the artifact digest.
//! [`MakefileSet::artifact_digest`] derives that digest without
//! compiling, so a lab run builds only the pairs whose units the graph
//! cannot serve.

use std::collections::BTreeMap;
use std::sync::Arc;

use fex_cc::{BackendProfile, BuildOptions, CompileError};
use fex_container::Digest;
use fex_vm::{decode_program_passes, CostModel, DecodedProgram, PassMask, Program};

use crate::error::{FexError, Result};

/// Makefile assignment flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assign {
    /// `VAR := value`
    Set,
    /// `VAR += value`
    Append,
}

/// One makefile layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MakeLayer {
    /// Layer name (`common`, `gcc_native`, `gcc_asan`, …).
    pub name: String,
    /// Included (parent) layer, resolved first.
    pub include: Option<String>,
    /// Variable assignments, applied in order.
    pub vars: Vec<(String, Assign, String)>,
}

/// The set of build-type layers (the `makefiles/` directory).
#[derive(Debug, Clone, Default)]
pub struct MakefileSet {
    layers: BTreeMap<String, MakeLayer>,
}

impl MakefileSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The layers shipped with the framework: common, gcc/clang compiler
    /// layers and the AddressSanitizer type layers.
    pub fn standard() -> Self {
        let mut s = MakefileSet::new();
        s.add(MakeLayer {
            name: "common".into(),
            include: None,
            vars: vec![
                ("OPT".into(), Assign::Set, "-O2".into()),
                ("CFLAGS".into(), Assign::Set, "-O2".into()),
                ("LDFLAGS".into(), Assign::Set, "".into()),
            ],
        });
        s.add(MakeLayer {
            name: "gcc_native".into(),
            include: Some("common".into()),
            vars: vec![
                ("CC".into(), Assign::Set, "gcc".into()),
                ("CXX".into(), Assign::Set, "g++".into()),
            ],
        });
        s.add(MakeLayer {
            name: "clang_native".into(),
            include: Some("common".into()),
            vars: vec![
                ("CC".into(), Assign::Set, "clang".into()),
                ("CXX".into(), Assign::Set, "clang++".into()),
            ],
        });
        s.add(MakeLayer {
            name: "gcc_asan".into(),
            include: Some("gcc_native".into()),
            vars: vec![
                ("CFLAGS".into(), Assign::Append, "-fsanitize=address".into()),
                ("LDFLAGS".into(), Assign::Append, "-fsanitize=address".into()),
            ],
        });
        s.add(MakeLayer {
            name: "clang_asan".into(),
            include: Some("clang_native".into()),
            vars: vec![
                ("CFLAGS".into(), Assign::Append, "-fsanitize=address".into()),
                ("LDFLAGS".into(), Assign::Append, "-fsanitize=address".into()),
            ],
        });
        s
    }

    /// Adds (or replaces) a layer — this is how users register new build
    /// types, the paper's 6-LoC `clang_native.mk` case study.
    pub fn add(&mut self, layer: MakeLayer) {
        self.layers.insert(layer.name.clone(), layer);
    }

    /// Resolves a build type into its flat variable map by walking the
    /// include chain root-first.
    ///
    /// # Errors
    ///
    /// [`FexError::UnknownName`] if the type or an include is missing;
    /// [`FexError::Config`] on include cycles.
    pub fn resolve(&self, type_name: &str) -> Result<BTreeMap<String, String>> {
        let mut chain = Vec::new();
        let mut cur = Some(type_name.to_string());
        while let Some(name) = cur {
            if chain.contains(&name) {
                return Err(FexError::Config(format!("makefile include cycle at `{name}`")));
            }
            let layer = self.layers.get(&name).ok_or_else(|| FexError::UnknownName {
                kind: "build type / makefile layer",
                name: name.clone(),
            })?;
            cur = layer.include.clone();
            chain.push(name);
        }
        let mut vars: BTreeMap<String, String> = BTreeMap::new();
        for name in chain.iter().rev() {
            for (k, assign, v) in &self.layers[name].vars {
                match assign {
                    Assign::Set => {
                        vars.insert(k.clone(), v.clone());
                    }
                    Assign::Append => {
                        let slot = vars.entry(k.clone()).or_default();
                        if !slot.is_empty() && !v.is_empty() {
                            slot.push(' ');
                        }
                        slot.push_str(v);
                    }
                }
            }
        }
        Ok(vars)
    }

    /// Translates a resolved build type into compiler options.
    ///
    /// # Errors
    ///
    /// As [`MakefileSet::resolve`], plus [`FexError::Config`] when `CC` is
    /// not a known compiler.
    pub fn build_options(&self, type_name: &str, debug: bool) -> Result<BuildOptions> {
        let vars = self.resolve(type_name)?;
        let cc = vars.get("CC").map(String::as_str).unwrap_or("gcc");
        let backend = BackendProfile::by_name(cc)
            .ok_or_else(|| FexError::Config(format!("unknown compiler `{cc}`")))?;
        let cflags = vars.get("CFLAGS").map(String::as_str).unwrap_or("");
        let asan = cflags.contains("-fsanitize=address");
        let opt_level = if debug || cflags.contains("-O0") { 0 } else { 2 };
        Ok(BuildOptions { backend, asan, opt_level, debug })
    }

    /// The digest [`MakefileSet::build`] would give this build's
    /// [`Artifact`], derived from the source text, the resolved options
    /// and the pass subset alone — nothing is compiled.
    ///
    /// # Errors
    ///
    /// The resolution errors of [`MakefileSet::build_options`].
    pub fn artifact_digest(
        &self,
        benchmark: &str,
        source: &str,
        type_name: &str,
        debug: bool,
        passes: PassMask,
    ) -> Result<Digest> {
        let opts = self.build_options(type_name, debug)?;
        Ok(artifact_digest(benchmark, source, &opts, passes))
    }

    /// Builds `source` as `benchmark` with the given type: resolves the
    /// layers, compiles, and decodes with the `passes` subset under the
    /// default cost model. Every call compiles afresh — the paper
    /// rebuilds everything at the start of each experiment "otherwise a
    /// mix of old and new compilation flags and/or libraries could skew
    /// the results" (§II-A). Under `--lab` the runner calls it only for
    /// pairs whose units the artifact graph cannot serve.
    ///
    /// # Errors
    ///
    /// [`FexError::Build`] wrapping the compiler diagnostic or naming an
    /// undecodable program, or the resolution errors of
    /// [`MakefileSet::build_options`].
    pub fn build(
        &self,
        benchmark: &str,
        source: &str,
        type_name: &str,
        debug: bool,
        passes: PassMask,
    ) -> Result<Artifact> {
        let opts = self.build_options(type_name, debug)?;
        let fail = |e| FexError::Build {
            benchmark: benchmark.to_string(),
            build_type: type_name.to_string(),
            source: e,
        };
        let program = fex_cc::compile(source, &opts).map_err(fail)?;
        // Decode once, at build time, under the default cost model — the
        // one every experiment-loop machine runs with. A machine whose
        // config diverges falls back to a fresh decode at load.
        let decoded =
            decode_program_passes(&program, &CostModel::default(), passes).map_err(|e| {
                fail(CompileError::general(format!("compiler emitted an undecodable program: {e}")))
            })?;
        Ok(Artifact {
            program: Arc::new(program),
            decoded: Arc::new(decoded),
            digest: artifact_digest(benchmark, source, &opts, passes),
            build_info: opts.build_info(),
        })
    }
}

/// A built binary plus provenance.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The executable program.
    pub program: Arc<Program>,
    /// Hot-loop (decoded) form of `program`, produced once at build time
    /// under the default cost model and shared by every run unit that
    /// executes this artifact — the decoded-artifact cache.
    pub decoded: Arc<DecodedProgram>,
    /// Content digest of (benchmark, source, resolved compiler options,
    /// decode pass subset, cost-model fingerprint): the artifact graph's
    /// decoded-node key for this build.
    pub digest: Digest,
    /// `cc`-style invocation string.
    pub build_info: String,
}

/// The artifact graph's *decoded*-level key for one build, derived
/// source → compiled → decoded so every layer of configuration dirties
/// exactly its own subtree (see [`crate::graph`]).
fn artifact_digest(benchmark: &str, source: &str, opts: &BuildOptions, passes: PassMask) -> Digest {
    let source_key = fex_cc::source_digest(benchmark, source);
    let compiled = crate::graph::compiled_key(
        source_key,
        opts.backend.name,
        opts.backend.version,
        opts.opt_level,
        opts.asan,
        opts.debug,
    );
    // Artifacts are decoded under the default cost model
    // ([`MakefileSet::build`]), so its fingerprint is the one baked into
    // the key.
    crate::graph::decoded_key(compiled, passes.bits(), CostModel::default().fingerprint())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn include_chain_resolves_root_first() {
        let s = MakefileSet::standard();
        let v = s.resolve("gcc_asan").unwrap();
        assert_eq!(v["CC"], "gcc");
        assert_eq!(v["CFLAGS"], "-O2 -fsanitize=address");
        assert_eq!(v["LDFLAGS"], "-fsanitize=address");
    }

    #[test]
    fn any_app_with_any_type() {
        let s = MakefileSet::standard();
        for ty in ["gcc_native", "gcc_asan", "clang_native", "clang_asan"] {
            let o = s.build_options(ty, false).unwrap();
            assert_eq!(o.asan, ty.contains("asan"));
            assert_eq!(o.backend.name, if ty.starts_with("gcc") { "gcc" } else { "clang" });
        }
    }

    #[test]
    fn unknown_type_and_cycles_are_errors() {
        let mut s = MakefileSet::standard();
        assert!(matches!(s.resolve("icc_native"), Err(FexError::UnknownName { .. })));
        s.add(MakeLayer { name: "a".into(), include: Some("b".into()), vars: vec![] });
        s.add(MakeLayer { name: "b".into(), include: Some("a".into()), vars: vec![] });
        assert!(matches!(s.resolve("a"), Err(FexError::Config(_))));
    }

    #[test]
    fn debug_builds_disable_optimisation() {
        let s = MakefileSet::standard();
        assert_eq!(s.build_options("gcc_native", true).unwrap().opt_level, 0);
        assert_eq!(s.build_options("gcc_native", false).unwrap().opt_level, 2);
    }

    #[test]
    fn custom_compiler_layer_in_a_few_lines() {
        // The paper's case study: adding clang took a 6-line makefile.
        let mut s = MakefileSet::new();
        s.add(MakeLayer {
            name: "common".into(),
            include: None,
            vars: vec![("CFLAGS".into(), Assign::Set, "-O2".into())],
        });
        s.add(MakeLayer {
            name: "clang_native".into(),
            include: Some("common".into()),
            vars: vec![("CC".into(), Assign::Set, "clang".into())],
        });
        let o = s.build_options("clang_native", false).unwrap();
        assert_eq!(o.backend.name, "clang");
    }

    #[test]
    fn decoded_artifacts_are_arc_shared_and_counted() {
        let s = MakefileSet::standard();
        let src = "fn main() -> int { return 1; }";
        let all = PassMask::all();
        let a = s.build("t", src, "gcc_native", false, all).unwrap();
        assert_eq!(a.decoded.passes, PassMask::all());
        // Source, build type and pass subset all key the digest.
        let other = s.build("t", "fn main() -> int { return 2; }", "gcc_native", false, all);
        assert_ne!(a.digest, other.unwrap().digest);
        let clang = s.build("t", src, "clang_native", false, all).unwrap();
        assert_ne!(a.digest, clang.digest);
        let unfused = s.build("t", src, "gcc_native", false, PassMask::none()).unwrap();
        assert_ne!(a.digest, unfused.digest);
        assert_eq!(unfused.decoded.passes, PassMask::none());
    }

    #[test]
    fn artifact_digest_is_the_layered_graph_key() {
        let s = MakefileSet::standard();
        let src = "fn main() -> int { return 1; }";
        let a = s.build("t", src, "gcc_asan", false, PassMask::all()).unwrap();
        assert_eq!(
            s.artifact_digest("t", src, "gcc_asan", false, PassMask::all()).unwrap(),
            a.digest
        );
        let opts = s.build_options("gcc_asan", false).unwrap();
        let expected = crate::graph::decoded_key(
            crate::graph::compiled_key(
                fex_cc::source_digest("t", src),
                opts.backend.name,
                opts.backend.version,
                opts.opt_level,
                opts.asan,
                opts.debug,
            ),
            PassMask::all().bits(),
            CostModel::default().fingerprint(),
        );
        assert_eq!(a.digest, expected);
    }

    #[test]
    fn build_errors_carry_context() {
        let s = MakefileSet::standard();
        let err = s.build("bad", "fn main( {", "gcc_native", false, PassMask::all()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bad"));
        assert!(msg.contains("gcc_native"));
    }
}
