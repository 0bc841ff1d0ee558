//! No fused opcode is dead weight: every superinstruction the decode
//! pipeline can emit has at least one static site in the paper's own
//! workloads (micro + Phoenix + SPLASH + PARSEC under every build type).
//!
//! The variants are enumerated by an exhaustive `match` with no
//! wildcard, so a new `DecodedInstr` variant does not compile until it
//! is classified here — and a new fused one then has to show a site.

use fex_core::build::MakefileSet;
use fex_vm::{decode_program, CostModel, DecodedInstr};

const TYPES: [&str; 4] = ["gcc_native", "clang_native", "gcc_asan", "clang_asan"];

/// Every fused variant's name. [`fused_name`] returns only these.
const FUSED: [&str; 5] = ["CmpBr", "LoadBin", "BinBin", "ChkLoad", "BinMovJmp"];

/// The variant's name if it is a fused superinstruction, `None` for a
/// plain one-to-one translation of an `Instr`.
fn fused_name(i: &DecodedInstr) -> Option<&'static str> {
    match i {
        DecodedInstr::Imm { .. }
        | DecodedInstr::FImm { .. }
        | DecodedInstr::Mov { .. }
        | DecodedInstr::Bin { .. }
        | DecodedInstr::FBin { .. }
        | DecodedInstr::FMulAdd { .. }
        | DecodedInstr::FMulSub { .. }
        | DecodedInstr::FNegMulAdd { .. }
        | DecodedInstr::FCmp { .. }
        | DecodedInstr::Un { .. }
        | DecodedInstr::Load { .. }
        | DecodedInstr::Store { .. }
        | DecodedInstr::AsanCheck { .. }
        | DecodedInstr::Jmp { .. }
        | DecodedInstr::BrZero { .. }
        | DecodedInstr::BrNonZero { .. }
        | DecodedInstr::Call { .. }
        | DecodedInstr::CallInd { .. }
        | DecodedInstr::ParFor { .. }
        | DecodedInstr::Ret { .. }
        | DecodedInstr::Syscall { .. }
        | DecodedInstr::FrameAddr { .. }
        | DecodedInstr::GlobalAddr { .. }
        | DecodedInstr::RodataAddr { .. }
        | DecodedInstr::Nop => None,
        DecodedInstr::CmpBr { .. } => Some("CmpBr"),
        DecodedInstr::LoadBin { .. } => Some("LoadBin"),
        DecodedInstr::BinBin { .. } => Some("BinBin"),
        DecodedInstr::ChkLoad { .. } => Some("ChkLoad"),
        DecodedInstr::BinMovJmp { .. } => Some("BinMovJmp"),
    }
}

#[test]
fn every_fused_variant_has_a_site_in_the_paper_workloads() {
    let makefiles = MakefileSet::standard();
    let mut sites = [0usize; FUSED.len()];
    for suite in
        [fex_suites::micro(), fex_suites::phoenix(), fex_suites::splash(), fex_suites::parsec()]
    {
        for prog in &suite.programs {
            for ty in TYPES {
                let opts = makefiles.build_options(ty, false).unwrap();
                let program = fex_cc::compile(prog.source, &opts).unwrap();
                let decoded = decode_program(&program, &CostModel::default()).unwrap();
                for name in decoded.functions.iter().flat_map(|f| &f.code).filter_map(fused_name) {
                    let slot = FUSED.iter().position(|&n| n == name);
                    sites[slot.unwrap_or_else(|| panic!("{name} is missing from FUSED"))] += 1;
                }
            }
        }
    }
    let dead: Vec<&str> =
        FUSED.iter().zip(sites).filter(|&(_, n)| n == 0).map(|(&name, _)| name).collect();
    assert!(dead.is_empty(), "fused variants with no static site: {dead:?}");
}
