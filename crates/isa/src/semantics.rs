//! Pure functional semantics of the ISA.
//!
//! These helpers compute the architectural result of an instruction from
//! its operand values, with no machine state involved. Every
//! micro-architecture in the workspace (the reference interpreter used by
//! the hash generator's trace mode and the 6-stage pipeline) delegates
//! here, so the two can never disagree about *what* an instruction does —
//! only about *when*.
//!
//! Every helper is `#[inline]`: a caller that passes an operation fixed
//! at compile time (the pipeline's per-variant executors) keeps only
//! that operation's arm.

use crate::instr::{Funct, IOpcode};

/// Result of an ALU/shift/compare operation, or of a multiply/divide that
/// targets the HI/LO pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AluOut {
    /// A single 32-bit result destined for a general-purpose register.
    Gpr(u32),
    /// A HI:LO pair result from `mult`/`multu`/`div`/`divu`.
    HiLo {
        /// New HI value (high product word, or division remainder).
        hi: u32,
        /// New LO value (low product word, or division quotient).
        lo: u32,
    },
}

/// Compute the result of an R-type ALU operation.
///
/// `a` is the value of `rs`, `b` the value of `rt`, and `shamt` the
/// immediate shift amount. Operations that do not produce a value
/// (`jr`, `syscall`, HI/LO moves) are *not* handled here.
///
/// # Panics
///
/// Panics if called with a non-computational function code; callers route
/// control-flow and HI/LO moves elsewhere.
#[inline]
pub fn alu_r(funct: Funct, a: u32, b: u32, shamt: u8) -> AluOut {
    let s = AluOut::Gpr;
    match funct {
        Funct::Sll => s(b << (shamt & 31)),
        Funct::Srl => s(b >> (shamt & 31)),
        Funct::Sra => s(((b as i32) >> (shamt & 31)) as u32),
        Funct::Sllv => s(b << (a & 31)),
        Funct::Srlv => s(b >> (a & 31)),
        Funct::Srav => s(((b as i32) >> (a & 31)) as u32),
        Funct::Add | Funct::Addu => s(a.wrapping_add(b)),
        Funct::Sub | Funct::Subu => s(a.wrapping_sub(b)),
        Funct::And => s(a & b),
        Funct::Or => s(a | b),
        Funct::Xor => s(a ^ b),
        Funct::Nor => s(!(a | b)),
        Funct::Slt => s(((a as i32) < (b as i32)) as u32),
        Funct::Sltu => s((a < b) as u32),
        Funct::Mult => {
            let p = (a as i32 as i64).wrapping_mul(b as i32 as i64) as u64;
            AluOut::HiLo {
                hi: (p >> 32) as u32,
                lo: p as u32,
            }
        }
        Funct::Multu => {
            let p = (a as u64).wrapping_mul(b as u64);
            AluOut::HiLo {
                hi: (p >> 32) as u32,
                lo: p as u32,
            }
        }
        Funct::Div => {
            // Division by zero leaves an architecturally unspecified
            // HI/LO; we define it as (hi = a, lo = all-ones) so the
            // machine is deterministic.
            if b == 0 {
                AluOut::HiLo {
                    hi: a,
                    lo: u32::MAX,
                }
            } else if (a as i32) == i32::MIN && (b as i32) == -1 {
                AluOut::HiLo {
                    hi: 0,
                    lo: i32::MIN as u32,
                }
            } else {
                AluOut::HiLo {
                    hi: ((a as i32) % (b as i32)) as u32,
                    lo: ((a as i32) / (b as i32)) as u32,
                }
            }
        }
        Funct::Divu => {
            if b == 0 {
                AluOut::HiLo {
                    hi: a,
                    lo: u32::MAX,
                }
            } else {
                AluOut::HiLo {
                    hi: a % b,
                    lo: a / b,
                }
            }
        }
        other => panic!("alu_r called with non-computational funct {other:?}"),
    }
}

/// Compute the result of an I-type ALU operation (`rs` value and raw
/// 16-bit immediate).
///
/// # Panics
///
/// Panics if called with a branch or memory opcode.
#[inline]
pub fn alu_i(opcode: IOpcode, a: u32, imm: u16) -> u32 {
    let se = imm as i16 as i32 as u32; // sign-extended
    let ze = imm as u32; // zero-extended
    match opcode {
        IOpcode::Addi | IOpcode::Addiu => a.wrapping_add(se),
        IOpcode::Slti => ((a as i32) < (se as i32)) as u32,
        IOpcode::Sltiu => (a < se) as u32,
        IOpcode::Andi => a & ze,
        IOpcode::Ori => a | ze,
        IOpcode::Xori => a ^ ze,
        IOpcode::Lui => ze << 16,
        other => panic!("alu_i called with non-ALU opcode {other:?}"),
    }
}

/// Evaluate a conditional branch: does it take?
///
/// `a` is the value of `rs`, `b` the value of `rt` (ignored by the
/// single-register compares).
///
/// # Panics
///
/// Panics if called with a non-branch opcode.
#[inline]
pub fn branch_taken(opcode: IOpcode, a: u32, b: u32) -> bool {
    match opcode {
        IOpcode::Beq => a == b,
        IOpcode::Bne => a != b,
        IOpcode::Blez => (a as i32) <= 0,
        IOpcode::Bgtz => (a as i32) > 0,
        IOpcode::Bltz => (a as i32) < 0,
        IOpcode::Bgez => (a as i32) >= 0,
        other => panic!("branch_taken called with non-branch opcode {other:?}"),
    }
}

/// Effective address of a load or store: base register value plus
/// sign-extended offset.
#[inline]
pub fn effective_address(base: u32, imm: u16) -> u32 {
    base.wrapping_add(imm as i16 as i32 as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_wrap() {
        assert_eq!(alu_r(Funct::Add, u32::MAX, 1, 0), AluOut::Gpr(0));
        assert_eq!(alu_r(Funct::Subu, 0, 1, 0), AluOut::Gpr(u32::MAX));
    }

    #[test]
    fn shifts() {
        assert_eq!(alu_r(Funct::Sll, 0, 1, 4), AluOut::Gpr(16));
        assert_eq!(alu_r(Funct::Srl, 0, 0x8000_0000, 31), AluOut::Gpr(1));
        assert_eq!(alu_r(Funct::Sra, 0, 0x8000_0000, 31), AluOut::Gpr(u32::MAX));
        assert_eq!(alu_r(Funct::Sllv, 4, 1, 0), AluOut::Gpr(16));
        assert_eq!(
            alu_r(Funct::Srav, 34, 0x8000_0000, 0),
            AluOut::Gpr(0xe000_0000)
        );
    }

    #[test]
    fn logic() {
        assert_eq!(alu_r(Funct::And, 0b1100, 0b1010, 0), AluOut::Gpr(0b1000));
        assert_eq!(alu_r(Funct::Or, 0b1100, 0b1010, 0), AluOut::Gpr(0b1110));
        assert_eq!(alu_r(Funct::Xor, 0b1100, 0b1010, 0), AluOut::Gpr(0b0110));
        assert_eq!(alu_r(Funct::Nor, 0, 0, 0), AluOut::Gpr(u32::MAX));
    }

    #[test]
    fn compares_signed_vs_unsigned() {
        assert_eq!(alu_r(Funct::Slt, (-1i32) as u32, 0, 0), AluOut::Gpr(1));
        assert_eq!(alu_r(Funct::Sltu, (-1i32) as u32, 0, 0), AluOut::Gpr(0));
    }

    #[test]
    fn mult_div() {
        assert_eq!(
            alu_r(Funct::Mult, (-3i32) as u32, 4, 0),
            AluOut::HiLo {
                hi: u32::MAX,
                lo: (-12i32) as u32
            }
        );
        assert_eq!(
            alu_r(Funct::Multu, 0xffff_ffff, 2, 0),
            AluOut::HiLo {
                hi: 1,
                lo: 0xffff_fffe
            }
        );
        assert_eq!(
            alu_r(Funct::Div, (-7i32) as u32, 2, 0),
            AluOut::HiLo {
                hi: (-1i32) as u32,
                lo: (-3i32) as u32
            }
        );
        assert_eq!(alu_r(Funct::Divu, 7, 2, 0), AluOut::HiLo { hi: 1, lo: 3 });
    }

    #[test]
    fn div_by_zero_is_deterministic() {
        assert_eq!(
            alu_r(Funct::Div, 42, 0, 0),
            AluOut::HiLo {
                hi: 42,
                lo: u32::MAX
            }
        );
        assert_eq!(
            alu_r(Funct::Divu, 42, 0, 0),
            AluOut::HiLo {
                hi: 42,
                lo: u32::MAX
            }
        );
    }

    #[test]
    fn div_overflow_case() {
        assert_eq!(
            alu_r(Funct::Div, i32::MIN as u32, (-1i32) as u32, 0),
            AluOut::HiLo {
                hi: 0,
                lo: i32::MIN as u32
            }
        );
    }

    #[test]
    fn imm_ops() {
        assert_eq!(alu_i(IOpcode::Addiu, 10, (-3i16) as u16), 7);
        assert_eq!(alu_i(IOpcode::Andi, 0xffff_00ff, 0x0ff0), 0x00f0);
        assert_eq!(alu_i(IOpcode::Ori, 0xf000_0000, 0x00ff), 0xf000_00ff);
        assert_eq!(alu_i(IOpcode::Xori, 0xff, 0x0f), 0xf0);
        assert_eq!(alu_i(IOpcode::Lui, 0, 0x1234), 0x1234_0000);
        assert_eq!(alu_i(IOpcode::Slti, (-5i32) as u32, 0), 1);
        // sltiu compares against the *sign-extended* immediate as unsigned
        assert_eq!(alu_i(IOpcode::Sltiu, 5, 0xffff), 1);
    }

    #[test]
    fn branch_conditions() {
        assert!(branch_taken(IOpcode::Beq, 3, 3));
        assert!(!branch_taken(IOpcode::Beq, 3, 4));
        assert!(branch_taken(IOpcode::Bne, 3, 4));
        assert!(branch_taken(IOpcode::Blez, 0, 99));
        assert!(branch_taken(IOpcode::Blez, (-1i32) as u32, 99));
        assert!(!branch_taken(IOpcode::Blez, 1, 99));
        assert!(branch_taken(IOpcode::Bgtz, 1, 99));
        assert!(branch_taken(IOpcode::Bltz, (-1i32) as u32, 99));
        assert!(branch_taken(IOpcode::Bgez, 0, 99));
    }

    #[test]
    fn effective_addresses() {
        assert_eq!(effective_address(0x1000, 8), 0x1008);
        assert_eq!(effective_address(0x1000, (-8i16) as u16), 0xff8);
    }
}
