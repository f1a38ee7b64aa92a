//! Binary decoding of instruction words.
//!
//! Decoding is the inverse of [`crate::encode`]. Words that do not
//! correspond to any architected instruction yield a [`DecodeError`]; the
//! paper notes (Section 6.3) that such invalid encodings are caught by the
//! baseline micro-architecture itself, so the pipeline treats a decode
//! failure as an *illegal instruction* fault, distinct from — and
//! complementary to — the hash-based integrity checks.

use std::fmt;

use crate::instr::{Funct, IOpcode, IType, Instr, JOpcode, JType, RType};
use crate::reg::Reg;

/// Error produced when an instruction word has no architected meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecodeError {
    /// The major opcode field (bits 31..26) is not assigned.
    UnknownOpcode {
        /// The offending word.
        word: u32,
        /// The unassigned opcode value.
        opcode: u8,
    },
    /// An R-type word (opcode 0) carries an unassigned function code.
    UnknownFunct {
        /// The offending word.
        word: u32,
        /// The unassigned function code.
        funct: u8,
    },
    /// A `REGIMM` word (opcode 1) carries an unassigned `rt` selector.
    UnknownRegimm {
        /// The offending word.
        word: u32,
        /// The unassigned selector value.
        rt: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownOpcode { word, opcode } => {
                write!(f, "unknown opcode {opcode:#04x} in word {word:#010x}")
            }
            DecodeError::UnknownFunct { word, funct } => {
                write!(f, "unknown funct {funct:#04x} in word {word:#010x}")
            }
            DecodeError::UnknownRegimm { word, rt } => {
                write!(f, "unknown regimm selector {rt} in word {word:#010x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl Instr {
    /// Decode a 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the word is not a valid encoding of
    /// any architected instruction. Decoding never panics, for any input
    /// word (verified by property test).
    ///
    /// ```
    /// use cimon_isa::Instr;
    /// let i = Instr::decode(0x8fa8_0008)?; // lw $t0, 8($sp)
    /// assert_eq!(i.to_string(), "lw $t0, 8($sp)");
    /// # Ok::<(), cimon_isa::DecodeError>(())
    /// ```
    pub fn decode(word: u32) -> Result<Instr, DecodeError> {
        let opcode = (word >> 26) as u8;
        let rs = Reg::from_field(word >> 21);
        let rt = Reg::from_field(word >> 16);
        let rd = Reg::from_field(word >> 11);
        let shamt = ((word >> 6) & 0x1f) as u8;
        let imm = (word & 0xffff) as u16;

        match opcode {
            0x00 => {
                let fbits = (word & 0x3f) as u8;
                let funct = Funct::from_code(fbits)
                    .ok_or(DecodeError::UnknownFunct { word, funct: fbits })?;
                Ok(Instr::R(RType {
                    funct,
                    rs,
                    rt,
                    rd,
                    shamt,
                }))
            }
            0x01 => {
                let op = match rt.index() {
                    0 => IOpcode::Bltz,
                    1 => IOpcode::Bgez,
                    sel => {
                        return Err(DecodeError::UnknownRegimm {
                            word,
                            rt: sel as u8,
                        });
                    }
                };
                Ok(Instr::I(IType {
                    opcode: op,
                    rs,
                    rt: Reg::ZERO,
                    imm,
                }))
            }
            0x02 => Ok(Instr::J(JType {
                opcode: JOpcode::J,
                target: word & 0x03ff_ffff,
            })),
            0x03 => Ok(Instr::J(JType {
                opcode: JOpcode::Jal,
                target: word & 0x03ff_ffff,
            })),
            0x04 => Ok(Instr::I(IType {
                opcode: IOpcode::Beq,
                rs,
                rt,
                imm,
            })),
            0x05 => Ok(Instr::I(IType {
                opcode: IOpcode::Bne,
                rs,
                rt,
                imm,
            })),
            0x06 => Ok(Instr::I(IType {
                opcode: IOpcode::Blez,
                rs,
                rt,
                imm,
            })),
            0x07 => Ok(Instr::I(IType {
                opcode: IOpcode::Bgtz,
                rs,
                rt,
                imm,
            })),
            0x08 => Ok(Instr::I(IType {
                opcode: IOpcode::Addi,
                rs,
                rt,
                imm,
            })),
            0x09 => Ok(Instr::I(IType {
                opcode: IOpcode::Addiu,
                rs,
                rt,
                imm,
            })),
            0x0a => Ok(Instr::I(IType {
                opcode: IOpcode::Slti,
                rs,
                rt,
                imm,
            })),
            0x0b => Ok(Instr::I(IType {
                opcode: IOpcode::Sltiu,
                rs,
                rt,
                imm,
            })),
            0x0c => Ok(Instr::I(IType {
                opcode: IOpcode::Andi,
                rs,
                rt,
                imm,
            })),
            0x0d => Ok(Instr::I(IType {
                opcode: IOpcode::Ori,
                rs,
                rt,
                imm,
            })),
            0x0e => Ok(Instr::I(IType {
                opcode: IOpcode::Xori,
                rs,
                rt,
                imm,
            })),
            0x0f => Ok(Instr::I(IType {
                opcode: IOpcode::Lui,
                rs,
                rt,
                imm,
            })),
            0x20 => Ok(Instr::I(IType {
                opcode: IOpcode::Lb,
                rs,
                rt,
                imm,
            })),
            0x21 => Ok(Instr::I(IType {
                opcode: IOpcode::Lh,
                rs,
                rt,
                imm,
            })),
            0x23 => Ok(Instr::I(IType {
                opcode: IOpcode::Lw,
                rs,
                rt,
                imm,
            })),
            0x24 => Ok(Instr::I(IType {
                opcode: IOpcode::Lbu,
                rs,
                rt,
                imm,
            })),
            0x25 => Ok(Instr::I(IType {
                opcode: IOpcode::Lhu,
                rs,
                rt,
                imm,
            })),
            0x28 => Ok(Instr::I(IType {
                opcode: IOpcode::Sb,
                rs,
                rt,
                imm,
            })),
            0x29 => Ok(Instr::I(IType {
                opcode: IOpcode::Sh,
                rs,
                rt,
                imm,
            })),
            0x2b => Ok(Instr::I(IType {
                opcode: IOpcode::Sw,
                rs,
                rt,
                imm,
            })),
            other => Err(DecodeError::UnknownOpcode {
                word,
                opcode: other,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_known_words() {
        assert_eq!(
            Instr::decode(0x0109_5020).unwrap(),
            Instr::R(RType {
                funct: Funct::Add,
                rs: Reg::T0,
                rt: Reg::T1,
                rd: Reg::T2,
                shamt: 0
            })
        );
        assert_eq!(
            Instr::decode(0x27bd_fff8).unwrap(),
            Instr::I(IType {
                opcode: IOpcode::Addiu,
                rs: Reg::SP,
                rt: Reg::SP,
                imm: 0xfff8
            })
        );
    }

    #[test]
    fn decode_nop() {
        assert_eq!(Instr::decode(0).unwrap(), Instr::nop());
    }

    #[test]
    fn unknown_opcode_reported() {
        let err = Instr::decode(0xffff_ffff).unwrap_err();
        assert_eq!(
            err,
            DecodeError::UnknownOpcode {
                word: 0xffff_ffff,
                opcode: 0x3f
            }
        );
        assert!(err.to_string().contains("0x3f"));
    }

    #[test]
    fn unknown_funct_reported() {
        // opcode 0, funct 0x3f unassigned
        let err = Instr::decode(0x0000_003f).unwrap_err();
        assert_eq!(
            err,
            DecodeError::UnknownFunct {
                word: 0x3f,
                funct: 0x3f
            }
        );
    }

    #[test]
    fn unknown_regimm_reported() {
        // opcode 1, rt = 5 unassigned
        let word = (0x01 << 26) | (5 << 16);
        let err = Instr::decode(word).unwrap_err();
        assert_eq!(err, DecodeError::UnknownRegimm { word, rt: 5 });
    }

    #[test]
    fn regimm_rt_is_canonicalised_to_zero() {
        let bgez = (0x01u32 << 26) | (7 << 21) | (1 << 16) | 0x0004;
        match Instr::decode(bgez).unwrap() {
            Instr::I(i) => {
                assert_eq!(i.opcode, IOpcode::Bgez);
                assert_eq!(i.rt, Reg::ZERO);
                assert_eq!(i.rs, Reg::A3);
            }
            other => panic!("expected I-type, got {other:?}"),
        }
    }
}
