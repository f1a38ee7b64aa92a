//! Instruction formats and classification.
//!
//! The ISA uses the three classic fixed-width formats:
//!
//! ```text
//!  31    26 25  21 20  16 15  11 10   6 5     0
//! +--------+------+------+------+------+-------+
//! | opcode |  rs  |  rt  |  rd  |shamt | funct |   R-type (opcode = 0)
//! +--------+------+------+------+------+-------+
//! | opcode |  rs  |  rt  |     immediate       |   I-type
//! +--------+------+------+---------------------+
//! | opcode |            target (26 bits)       |   J-type
//! +--------+-----------------------------------+
//! ```
//!
//! [`Instr`] is the decoded, validated representation used by the
//! assembler, the pipeline, the hash generator and the disassembler.

use crate::reg::Reg;
use crate::INSTR_BYTES;

/// Function codes for R-type instructions (`opcode == 0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Funct {
    /// Shift left logical by immediate amount.
    Sll = 0x00,
    /// Shift right logical by immediate amount.
    Srl = 0x02,
    /// Shift right arithmetic by immediate amount.
    Sra = 0x03,
    /// Shift left logical by register amount.
    Sllv = 0x04,
    /// Shift right logical by register amount.
    Srlv = 0x06,
    /// Shift right arithmetic by register amount.
    Srav = 0x07,
    /// Jump to address in register.
    Jr = 0x08,
    /// Jump to address in register, saving return address in `rd`.
    Jalr = 0x09,
    /// System call (traps to the OS model).
    Syscall = 0x0c,
    /// Breakpoint trap.
    Break = 0x0d,
    /// Move from HI.
    Mfhi = 0x10,
    /// Move to HI.
    Mthi = 0x11,
    /// Move from LO.
    Mflo = 0x12,
    /// Move to LO.
    Mtlo = 0x13,
    /// Signed multiply into HI:LO.
    Mult = 0x18,
    /// Unsigned multiply into HI:LO.
    Multu = 0x19,
    /// Signed divide: LO = quotient, HI = remainder.
    Div = 0x1a,
    /// Unsigned divide: LO = quotient, HI = remainder.
    Divu = 0x1b,
    /// Signed add (same wrap-around semantics as `Addu`; the simulated
    /// machine does not take overflow traps).
    Add = 0x20,
    /// Unsigned add.
    Addu = 0x21,
    /// Signed subtract.
    Sub = 0x22,
    /// Unsigned subtract.
    Subu = 0x23,
    /// Bitwise AND.
    And = 0x24,
    /// Bitwise OR.
    Or = 0x25,
    /// Bitwise XOR.
    Xor = 0x26,
    /// Bitwise NOR.
    Nor = 0x27,
    /// Set `rd` to 1 if `rs < rt` signed, else 0.
    Slt = 0x2a,
    /// Set `rd` to 1 if `rs < rt` unsigned, else 0.
    Sltu = 0x2b,
}

impl Funct {
    /// All R-type function codes, for exhaustive iteration in tests.
    pub const ALL: [Funct; 28] = [
        Funct::Sll,
        Funct::Srl,
        Funct::Sra,
        Funct::Sllv,
        Funct::Srlv,
        Funct::Srav,
        Funct::Jr,
        Funct::Jalr,
        Funct::Syscall,
        Funct::Break,
        Funct::Mfhi,
        Funct::Mthi,
        Funct::Mflo,
        Funct::Mtlo,
        Funct::Mult,
        Funct::Multu,
        Funct::Div,
        Funct::Divu,
        Funct::Add,
        Funct::Addu,
        Funct::Sub,
        Funct::Subu,
        Funct::And,
        Funct::Or,
        Funct::Xor,
        Funct::Nor,
        Funct::Slt,
        Funct::Sltu,
    ];

    /// The variant whose function code (`funct as u8`) is `code`, if
    /// any. A `const fn`, so a code fixed at compile time resolves to
    /// its variant at compile time.
    pub const fn from_code(code: u8) -> Option<Funct> {
        let mut i = 0;
        while i < Funct::ALL.len() {
            if Funct::ALL[i] as u8 == code {
                return Some(Funct::ALL[i]);
            }
            i += 1;
        }
        None
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Funct::Sll => "sll",
            Funct::Srl => "srl",
            Funct::Sra => "sra",
            Funct::Sllv => "sllv",
            Funct::Srlv => "srlv",
            Funct::Srav => "srav",
            Funct::Jr => "jr",
            Funct::Jalr => "jalr",
            Funct::Syscall => "syscall",
            Funct::Break => "break",
            Funct::Mfhi => "mfhi",
            Funct::Mthi => "mthi",
            Funct::Mflo => "mflo",
            Funct::Mtlo => "mtlo",
            Funct::Mult => "mult",
            Funct::Multu => "multu",
            Funct::Div => "div",
            Funct::Divu => "divu",
            Funct::Add => "add",
            Funct::Addu => "addu",
            Funct::Sub => "sub",
            Funct::Subu => "subu",
            Funct::And => "and",
            Funct::Or => "or",
            Funct::Xor => "xor",
            Funct::Nor => "nor",
            Funct::Slt => "slt",
            Funct::Sltu => "sltu",
        }
    }
}

/// Opcodes of I-type instructions.
///
/// The two `REGIMM` branches (`bltz`, `bgez`) share binary opcode `0x01`
/// and are distinguished by the `rt` field; the decoder resolves them to
/// separate variants so downstream code never needs to re-inspect fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IOpcode {
    /// Branch if `rs < 0` (signed). Encoded under `REGIMM` with `rt = 0`.
    Bltz,
    /// Branch if `rs >= 0` (signed). Encoded under `REGIMM` with `rt = 1`.
    Bgez,
    /// Branch if `rs == rt`.
    Beq,
    /// Branch if `rs != rt`.
    Bne,
    /// Branch if `rs <= 0` (signed).
    Blez,
    /// Branch if `rs > 0` (signed).
    Bgtz,
    /// Add immediate (wrap-around, no trap).
    Addi,
    /// Add immediate unsigned.
    Addiu,
    /// Set on less than immediate (signed compare).
    Slti,
    /// Set on less than immediate (unsigned compare, sign-extended imm).
    Sltiu,
    /// AND with zero-extended immediate.
    Andi,
    /// OR with zero-extended immediate.
    Ori,
    /// XOR with zero-extended immediate.
    Xori,
    /// Load upper immediate.
    Lui,
    /// Load byte (sign-extend).
    Lb,
    /// Load halfword (sign-extend).
    Lh,
    /// Load word.
    Lw,
    /// Load byte unsigned.
    Lbu,
    /// Load halfword unsigned.
    Lhu,
    /// Store byte.
    Sb,
    /// Store halfword.
    Sh,
    /// Store word.
    Sw,
}

impl IOpcode {
    /// All I-type opcodes, for exhaustive iteration in tests.
    pub const ALL: [IOpcode; 22] = [
        IOpcode::Bltz,
        IOpcode::Bgez,
        IOpcode::Beq,
        IOpcode::Bne,
        IOpcode::Blez,
        IOpcode::Bgtz,
        IOpcode::Addi,
        IOpcode::Addiu,
        IOpcode::Slti,
        IOpcode::Sltiu,
        IOpcode::Andi,
        IOpcode::Ori,
        IOpcode::Xori,
        IOpcode::Lui,
        IOpcode::Lb,
        IOpcode::Lh,
        IOpcode::Lw,
        IOpcode::Lbu,
        IOpcode::Lhu,
        IOpcode::Sb,
        IOpcode::Sh,
        IOpcode::Sw,
    ];

    /// The variant whose discriminant (`opcode as u8`) is `code`, if
    /// any. Opcodes have no unique binary code (the `REGIMM` branches
    /// share one), so the discriminant names the variant instead. A
    /// `const fn`, so a code fixed at compile time resolves to its
    /// variant at compile time.
    pub const fn from_code(code: u8) -> Option<IOpcode> {
        let mut i = 0;
        while i < IOpcode::ALL.len() {
            if IOpcode::ALL[i] as u8 == code {
                return Some(IOpcode::ALL[i]);
            }
            i += 1;
        }
        None
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IOpcode::Bltz => "bltz",
            IOpcode::Bgez => "bgez",
            IOpcode::Beq => "beq",
            IOpcode::Bne => "bne",
            IOpcode::Blez => "blez",
            IOpcode::Bgtz => "bgtz",
            IOpcode::Addi => "addi",
            IOpcode::Addiu => "addiu",
            IOpcode::Slti => "slti",
            IOpcode::Sltiu => "sltiu",
            IOpcode::Andi => "andi",
            IOpcode::Ori => "ori",
            IOpcode::Xori => "xori",
            IOpcode::Lui => "lui",
            IOpcode::Lb => "lb",
            IOpcode::Lh => "lh",
            IOpcode::Lw => "lw",
            IOpcode::Lbu => "lbu",
            IOpcode::Lhu => "lhu",
            IOpcode::Sb => "sb",
            IOpcode::Sh => "sh",
            IOpcode::Sw => "sw",
        }
    }

    /// Whether this opcode is a conditional branch.
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            IOpcode::Bltz
                | IOpcode::Bgez
                | IOpcode::Beq
                | IOpcode::Bne
                | IOpcode::Blez
                | IOpcode::Bgtz
        )
    }

    /// Whether this opcode reads memory.
    pub fn is_load(self) -> bool {
        matches!(
            self,
            IOpcode::Lb | IOpcode::Lh | IOpcode::Lw | IOpcode::Lbu | IOpcode::Lhu
        )
    }

    /// Whether this opcode writes memory.
    pub fn is_store(self) -> bool {
        matches!(self, IOpcode::Sb | IOpcode::Sh | IOpcode::Sw)
    }
}

/// Opcodes of J-type instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JOpcode {
    /// Unconditional jump to a 26-bit word target within the current
    /// 256 MiB region.
    J,
    /// Jump and link: saves the return address in `$ra`.
    Jal,
}

impl JOpcode {
    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            JOpcode::J => "j",
            JOpcode::Jal => "jal",
        }
    }
}

/// An R-type (register-register) instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RType {
    /// Function code selecting the operation.
    pub funct: Funct,
    /// First source register.
    pub rs: Reg,
    /// Second source register.
    pub rt: Reg,
    /// Destination register.
    pub rd: Reg,
    /// Shift amount for immediate shifts; must be `< 32`.
    pub shamt: u8,
}

/// An I-type (register-immediate) instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IType {
    /// The operation.
    pub opcode: IOpcode,
    /// Source register (base register for loads/stores).
    pub rs: Reg,
    /// Target register (destination for ALU/loads, source for
    /// stores/branches).
    pub rt: Reg,
    /// Raw 16-bit immediate. Interpretation (signed offset, zero-extended
    /// mask, …) depends on `opcode`; see [`crate::semantics`].
    pub imm: u16,
}

impl IType {
    /// The immediate sign-extended to 32 bits.
    pub fn simm(&self) -> i32 {
        self.imm as i16 as i32
    }
}

/// A J-type (jump) instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JType {
    /// The operation.
    pub opcode: JOpcode,
    /// 26-bit word-index target (the low 28 bits of the destination byte
    /// address, shifted right by 2). Always `< 2^26`.
    pub target: u32,
}

impl JType {
    /// Absolute byte address this jump transfers to, given the address of
    /// the jump instruction itself (needed for the region bits).
    pub fn dest_addr(&self, pc: u32) -> u32 {
        ((pc.wrapping_add(INSTR_BYTES)) & 0xf000_0000) | (self.target << 2)
    }
}

/// The register operands an instruction reads, stored inline.
///
/// An instruction reads at most two general-purpose registers, so the
/// set fits in three bytes. The per-cycle loop consults it every
/// instruction; the heap-allocating [`Instr::sources`] exists only for
/// callers that want a `Vec`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Sources {
    regs: [Reg; 2],
    len: u8,
}

impl Sources {
    /// The empty set.
    pub const EMPTY: Sources = Sources {
        regs: [Reg::ZERO, Reg::ZERO],
        len: 0,
    };

    #[inline]
    fn push(&mut self, r: Reg) {
        if !r.is_zero() {
            self.regs[self.len as usize] = r;
            self.len += 1;
        }
    }

    /// The sources as a slice, in field order, `$zero` filtered out.
    #[inline]
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }

    /// Number of (non-`$zero`) sources.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the instruction reads no registers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for Sources {
    fn default() -> Self {
        Sources::EMPTY
    }
}

impl std::ops::Deref for Sources {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        self.as_slice()
    }
}

/// A decoded instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Register-register format.
    R(RType),
    /// Register-immediate format.
    I(IType),
    /// Jump format.
    J(JType),
}

/// Coarse classification of instructions, used by hazard logic, the basic
/// block detector and statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Register-register or register-immediate arithmetic/logic.
    Alu,
    /// Multiply/divide unit operation (including HI/LO moves).
    MulDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch (PC-relative).
    Branch,
    /// Unconditional direct jump (`j`, `jal`).
    Jump,
    /// Indirect jump through a register (`jr`, `jalr`).
    JumpReg,
    /// System call or breakpoint trap.
    Trap,
}

impl Instr {
    /// The coarse class of this instruction.
    pub fn class(&self) -> InstrClass {
        match self {
            Instr::R(r) => match r.funct {
                Funct::Jr | Funct::Jalr => InstrClass::JumpReg,
                Funct::Syscall | Funct::Break => InstrClass::Trap,
                Funct::Mult
                | Funct::Multu
                | Funct::Div
                | Funct::Divu
                | Funct::Mfhi
                | Funct::Mthi
                | Funct::Mflo
                | Funct::Mtlo => InstrClass::MulDiv,
                _ => InstrClass::Alu,
            },
            Instr::I(i) => {
                if i.opcode.is_branch() {
                    InstrClass::Branch
                } else if i.opcode.is_load() {
                    InstrClass::Load
                } else if i.opcode.is_store() {
                    InstrClass::Store
                } else {
                    InstrClass::Alu
                }
            }
            Instr::J(_) => InstrClass::Jump,
        }
    }

    /// Whether this instruction transfers control (branch, jump, indirect
    /// jump, or trap).
    ///
    /// In the paper's monitoring scheme these instructions mark the **end
    /// of a basic block**: when one reaches the decode stage, the code
    /// integrity checker looks up `<STA, PPC, RHASH>` in the internal hash
    /// table (Section 4.3.2). Traps are included because control passes to
    /// the OS; the final block of a program would otherwise go unchecked.
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self.class(),
            InstrClass::Branch | InstrClass::Jump | InstrClass::JumpReg | InstrClass::Trap
        )
    }

    /// The register written by this instruction, if any.
    ///
    /// Writes to `$zero` are reported as `None` since they have no
    /// architectural effect.
    pub fn dest(&self) -> Option<Reg> {
        let d = match self {
            Instr::R(r) => match r.funct {
                Funct::Jr
                | Funct::Syscall
                | Funct::Break
                | Funct::Mthi
                | Funct::Mtlo
                | Funct::Mult
                | Funct::Multu
                | Funct::Div
                | Funct::Divu => return None,
                _ => r.rd,
            },
            Instr::I(i) => match i.opcode {
                IOpcode::Sb | IOpcode::Sh | IOpcode::Sw => return None,
                op if op.is_branch() => return None,
                _ => i.rt,
            },
            Instr::J(j) => match j.opcode {
                JOpcode::J => return None,
                JOpcode::Jal => Reg::RA,
            },
        };
        (!d.is_zero()).then_some(d)
    }

    /// The registers read by this instruction, in field order.
    ///
    /// Allocates; the per-cycle loop uses the inline
    /// [`source_set`](Instr::source_set) instead.
    pub fn sources(&self) -> Vec<Reg> {
        self.source_set().as_slice().to_vec()
    }

    /// The registers read by this instruction as an inline,
    /// allocation-free [`Sources`] set (field order, `$zero` filtered).
    pub fn source_set(&self) -> Sources {
        let mut v = Sources::EMPTY;
        match self {
            Instr::R(r) => match r.funct {
                Funct::Sll | Funct::Srl | Funct::Sra => v.push(r.rt),
                Funct::Sllv | Funct::Srlv | Funct::Srav => {
                    v.push(r.rs);
                    v.push(r.rt);
                }
                Funct::Jr | Funct::Jalr | Funct::Mthi | Funct::Mtlo => v.push(r.rs),
                Funct::Mfhi | Funct::Mflo | Funct::Syscall | Funct::Break => {}
                _ => {
                    v.push(r.rs);
                    v.push(r.rt);
                }
            },
            Instr::I(i) => match i.opcode {
                IOpcode::Lui => {}
                IOpcode::Beq | IOpcode::Bne => {
                    v.push(i.rs);
                    v.push(i.rt);
                }
                IOpcode::Bltz | IOpcode::Bgez | IOpcode::Blez | IOpcode::Bgtz => v.push(i.rs),
                IOpcode::Sb | IOpcode::Sh | IOpcode::Sw => {
                    v.push(i.rs);
                    v.push(i.rt);
                }
                _ => v.push(i.rs),
            },
            Instr::J(_) => {}
        }
        v
    }

    /// For PC-relative branches, the absolute destination byte address
    /// given the branch's own address.
    ///
    /// Returns `None` for non-branch instructions.
    pub fn branch_dest(&self, pc: u32) -> Option<u32> {
        match self {
            Instr::I(i) if i.opcode.is_branch() => Some(
                pc.wrapping_add(INSTR_BYTES)
                    .wrapping_add((i.simm() as u32) << 2),
            ),
            _ => None,
        }
    }

    /// For direct jumps, the absolute destination byte address.
    ///
    /// Returns `None` for non-jump instructions.
    pub fn jump_dest(&self, pc: u32) -> Option<u32> {
        match self {
            Instr::J(j) => Some(j.dest_addr(pc)),
            _ => None,
        }
    }

    /// A canonical no-op: `sll $zero, $zero, 0`, which encodes as `0`.
    pub fn nop() -> Instr {
        Instr::R(RType {
            funct: Funct::Sll,
            rs: Reg::ZERO,
            rt: Reg::ZERO,
            rd: Reg::ZERO,
            shamt: 0,
        })
    }

    /// Whether this is the canonical no-op.
    pub fn is_nop(&self) -> bool {
        *self == Instr::nop()
    }

    /// The assembly mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::R(r) => r.funct.mnemonic(),
            Instr::I(i) => i.opcode.mnemonic(),
            Instr::J(j) => j.opcode.mnemonic(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(funct: Funct) -> Instr {
        Instr::R(RType {
            funct,
            rs: Reg::T0,
            rt: Reg::T1,
            rd: Reg::T2,
            shamt: 0,
        })
    }

    fn i(opcode: IOpcode) -> Instr {
        Instr::I(IType {
            opcode,
            rs: Reg::S0,
            rt: Reg::S1,
            imm: 0x10,
        })
    }

    #[test]
    fn codes_name_their_variants() {
        for f in Funct::ALL {
            assert_eq!(Funct::from_code(f as u8), Some(f));
        }
        for op in IOpcode::ALL {
            assert_eq!(IOpcode::from_code(op as u8), Some(op));
        }
        assert_eq!(Funct::from_code(0x01), None);
        assert_eq!(IOpcode::from_code(IOpcode::ALL.len() as u8), None);
    }

    #[test]
    fn classes() {
        assert_eq!(r(Funct::Add).class(), InstrClass::Alu);
        assert_eq!(r(Funct::Mult).class(), InstrClass::MulDiv);
        assert_eq!(r(Funct::Jr).class(), InstrClass::JumpReg);
        assert_eq!(r(Funct::Syscall).class(), InstrClass::Trap);
        assert_eq!(i(IOpcode::Lw).class(), InstrClass::Load);
        assert_eq!(i(IOpcode::Sw).class(), InstrClass::Store);
        assert_eq!(i(IOpcode::Beq).class(), InstrClass::Branch);
        assert_eq!(i(IOpcode::Addiu).class(), InstrClass::Alu);
        let j = Instr::J(JType {
            opcode: JOpcode::J,
            target: 4,
        });
        assert_eq!(j.class(), InstrClass::Jump);
    }

    #[test]
    fn control_flow_marks_block_ends() {
        assert!(r(Funct::Jr).is_control_flow());
        assert!(r(Funct::Syscall).is_control_flow());
        assert!(i(IOpcode::Bne).is_control_flow());
        assert!(Instr::J(JType {
            opcode: JOpcode::Jal,
            target: 0
        })
        .is_control_flow());
        assert!(!r(Funct::Add).is_control_flow());
        assert!(!i(IOpcode::Lw).is_control_flow());
    }

    #[test]
    fn dest_of_common_instructions() {
        assert_eq!(r(Funct::Add).dest(), Some(Reg::T2));
        assert_eq!(r(Funct::Jr).dest(), None);
        assert_eq!(r(Funct::Mult).dest(), None);
        assert_eq!(i(IOpcode::Lw).dest(), Some(Reg::S1));
        assert_eq!(i(IOpcode::Sw).dest(), None);
        assert_eq!(i(IOpcode::Beq).dest(), None);
        assert_eq!(
            Instr::J(JType {
                opcode: JOpcode::Jal,
                target: 0
            })
            .dest(),
            Some(Reg::RA)
        );
        assert_eq!(
            Instr::J(JType {
                opcode: JOpcode::J,
                target: 0
            })
            .dest(),
            None
        );
    }

    #[test]
    fn dest_to_zero_is_none() {
        let wr_zero = Instr::R(RType {
            funct: Funct::Add,
            rs: Reg::T0,
            rt: Reg::T1,
            rd: Reg::ZERO,
            shamt: 0,
        });
        assert_eq!(wr_zero.dest(), None);
    }

    #[test]
    fn sources_of_common_instructions() {
        assert_eq!(r(Funct::Add).sources(), vec![Reg::T0, Reg::T1]);
        assert_eq!(r(Funct::Jr).sources(), vec![Reg::T0]);
        assert_eq!(r(Funct::Mfhi).sources(), Vec::<Reg>::new());
        assert_eq!(i(IOpcode::Lw).sources(), vec![Reg::S0]);
        assert_eq!(i(IOpcode::Sw).sources(), vec![Reg::S0, Reg::S1]);
        assert_eq!(i(IOpcode::Lui).sources(), Vec::<Reg>::new());
        // Shift-by-immediate reads only rt.
        let sll = Instr::R(RType {
            funct: Funct::Sll,
            rs: Reg::ZERO,
            rt: Reg::T5,
            rd: Reg::T6,
            shamt: 3,
        });
        assert_eq!(sll.sources(), vec![Reg::T5]);
    }

    #[test]
    fn zero_sources_are_filtered() {
        let addz = Instr::R(RType {
            funct: Funct::Add,
            rs: Reg::ZERO,
            rt: Reg::T1,
            rd: Reg::T2,
            shamt: 0,
        });
        assert_eq!(addz.sources(), vec![Reg::T1]);
    }

    #[test]
    fn branch_dest_forward_and_back() {
        let fwd = Instr::I(IType {
            opcode: IOpcode::Beq,
            rs: Reg::T0,
            rt: Reg::T1,
            imm: 3,
        });
        assert_eq!(fwd.branch_dest(0x1000), Some(0x1000 + 4 + 12));
        let back = Instr::I(IType {
            opcode: IOpcode::Bne,
            rs: Reg::T0,
            rt: Reg::T1,
            imm: (-4i16) as u16,
        });
        assert_eq!(back.branch_dest(0x1000), Some(0x1000 + 4 - 16));
        assert_eq!(r(Funct::Add).branch_dest(0x1000), None);
    }

    #[test]
    fn jump_dest_keeps_region() {
        let j = Instr::J(JType {
            opcode: JOpcode::J,
            target: 0x40,
        });
        assert_eq!(j.jump_dest(0x1000_0000), Some(0x1000_0100));
        assert_eq!(j.jump_dest(0x0000_2000), Some(0x0000_0100));
    }

    #[test]
    fn nop_is_zero_sll() {
        assert!(Instr::nop().is_nop());
        assert_eq!(Instr::nop().encode(), 0);
    }

    #[test]
    fn simm_sign_extends() {
        let it = IType {
            opcode: IOpcode::Addi,
            rs: Reg::T0,
            rt: Reg::T1,
            imm: 0xffff,
        };
        assert_eq!(it.simm(), -1);
    }
}
