//! The attack-matrix dimensions.

use std::fmt;

/// How the corruption reaches the code pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// The overflow runs contiguously from the buffer into the target.
    Direct,
    /// The overflow corrupts an adjacent data pointer; the victim's
    /// subsequent legitimate write through that pointer hits the target
    /// (write-what-where).
    Indirect,
}

/// Where the overflowed buffer lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// A `local` array in the victim's frame.
    Stack,
    /// A heap allocation.
    Heap,
    /// An uninitialised global (BSS).
    Bss,
    /// An initialised global (DATA).
    Data,
}

/// Which code pointer is attacked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// The victim function's saved return address (stack only).
    ReturnAddress,
    /// A bare function pointer.
    FuncPtr,
    /// The code slot of a longjmp buffer.
    LongjmpBuf,
    /// A function pointer embedded in a struct (offset within an object).
    StructFuncPtr,
}

/// The C routine used to perform the overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackFunction {
    /// `memcpy` — length-controlled, copies NUL bytes: the most permissive.
    Memcpy,
    /// `strcpy` — stops at the first NUL; pointer values truncate.
    Strcpy,
    /// `strncpy` — bounded: never overflows the buffer.
    Strncpy,
    /// `sprintf("%s")` — strcpy semantics.
    Sprintf,
    /// `snprintf` — bounded.
    Snprintf,
    /// `strcat` onto an empty buffer — strcpy semantics.
    Strcat,
    /// `strncat` — bounded.
    Strncat,
    /// Homebrew byte loop — length-controlled.
    Homebrew,
}

impl AttackFunction {
    /// Whether this routine honours the destination bound (and therefore
    /// can never overflow).
    pub fn bounded(self) -> bool {
        matches!(self, AttackFunction::Strncpy | AttackFunction::Snprintf | AttackFunction::Strncat)
    }
}

/// What the hijacked control flow should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Payload {
    /// Injected shellcode that creates a dummy file (needs an executable
    /// buffer region).
    Shellcode,
    /// Jump to the `creat`-wrapper "libc" function.
    ReturnIntoLibc,
    /// Return-oriented programming (mid-function gadget chain).
    Rop,
    /// Jump-oriented programming (dispatcher gadget).
    Jop,
}

/// One point of the attack matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttackSpec {
    /// Corruption technique.
    pub technique: Technique,
    /// Buffer location.
    pub location: Location,
    /// Code-pointer target.
    pub target: Target,
    /// Overflow routine.
    pub function: AttackFunction,
    /// Post-hijack payload.
    pub payload: Payload,
}

impl fmt::Display for AttackSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}/{:?}/{:?}/{:?}/{:?}",
            self.technique, self.location, self.target, self.function, self.payload
        )
    }
}

/// The full attack matrix: 832 combinations. The return address is only a
/// valid target for stack buffers (as in RIPE).
pub fn all_attacks() -> Vec<AttackSpec> {
    let mut out = Vec::new();
    for technique in [Technique::Direct, Technique::Indirect] {
        for location in [Location::Stack, Location::Heap, Location::Bss, Location::Data] {
            for target in
                [Target::ReturnAddress, Target::FuncPtr, Target::LongjmpBuf, Target::StructFuncPtr]
            {
                if target == Target::ReturnAddress && location != Location::Stack {
                    continue;
                }
                for function in [
                    AttackFunction::Memcpy,
                    AttackFunction::Strcpy,
                    AttackFunction::Strncpy,
                    AttackFunction::Sprintf,
                    AttackFunction::Snprintf,
                    AttackFunction::Strcat,
                    AttackFunction::Strncat,
                    AttackFunction::Homebrew,
                ] {
                    for payload in
                        [Payload::Shellcode, Payload::ReturnIntoLibc, Payload::Rop, Payload::Jop]
                    {
                        out.push(AttackSpec { technique, location, target, function, payload });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_size_matches_design() {
        // (4 stack targets + 3×3 non-stack targets) × 2 techniques
        //  × 8 functions × 4 payloads = 832.
        assert_eq!(all_attacks().len(), 832);
    }

    #[test]
    fn return_address_only_on_stack() {
        for a in all_attacks() {
            if a.target == Target::ReturnAddress {
                assert_eq!(a.location, Location::Stack);
            }
        }
    }

    #[test]
    fn display_is_informative() {
        let a = all_attacks()[0];
        let s = a.to_string();
        assert!(s.contains("Direct"));
        assert!(s.contains("Stack"));
    }
}
