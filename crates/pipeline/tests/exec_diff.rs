//! Differential oracle for the per-variant executors.
//!
//! Predecoding binds every instruction to an executor function. The
//! ALU, branch and load/store executors are const-generic over the
//! variant's code, one instantiation per function code or opcode, so no
//! executed instruction matches on its operation again. The reference
//! below is the family executors they replaced — one per family,
//! matching on the function code or opcode at run time — moved here
//! against a plain architectural state, with the other executors
//! alongside.
//!
//! For every function code and opcode, then random decodable words,
//! under random registers, HI/LO, data memory and PC, the bound
//! executor and the reference must agree on the result (the control
//! effect or the [`FaultKind`]), the registers, HI/LO, every memory
//! byte (and both text counters), and the console. A last test checks
//! that every decodable word gets its own variant's executor.

use std::collections::BTreeMap;

use proptest::prelude::*;

use cimon_asm::assemble;
use cimon_core::SplitMix64;
use cimon_isa::codec::Enc;
use cimon_isa::{
    semantics, Funct, IOpcode, IType, Instr, JOpcode, JType, RType, Reg, Syscall, INSTR_BYTES,
};
use cimon_mem::image::{DATA_BASE, TEXT_BASE};
use cimon_mem::{Memory, ProgramImage};
use cimon_pipeline::processor::exec_binding;
use cimon_pipeline::{
    ConsoleEvent, FaultKind, PredecodedEntry, Processor, ProcessorConfig, RegFile,
};

/// Bytes of random data placed at the data base before each case.
const DATA_BYTES: usize = 256;

/// Words of text in the harness image, so text addresses are dense.
const TEXT_WORDS: u32 = 64;

/// A control effect: next PC, whether control transferred, exit code.
type Effect = Result<(u32, bool, Option<u32>), FaultKind>;

/// The architectural state the reference executes against.
#[derive(Clone)]
struct Arch {
    regs: RegFile,
    hi: u32,
    lo: u32,
    mem: Memory,
    console: Vec<ConsoleEvent>,
    cycles: u64,
}

fn fall_through(pc: u32) -> (u32, bool, Option<u32>) {
    (pc.wrapping_add(INSTR_BYTES), false, None)
}

/// The reference: the executor the pipeline bound before per-variant
/// binding, for each instruction shape.
fn reference(a: &mut Arch, pc: u32, instr: &Instr) -> Effect {
    match instr {
        Instr::R(r) => match r.funct {
            Funct::Jr => {
                let target = a.regs.read(r.rs);
                if target % 4 != 0 {
                    return Err(FaultKind::AddressError { pc, target });
                }
                Ok((target, true, None))
            }
            Funct::Jalr => {
                let target = a.regs.read(r.rs);
                if target % 4 != 0 {
                    return Err(FaultKind::AddressError { pc, target });
                }
                a.regs.write(r.rd, pc.wrapping_add(INSTR_BYTES));
                Ok((target, true, None))
            }
            Funct::Syscall => exec_syscall(a, pc),
            Funct::Break => Err(FaultKind::BreakTrap { pc }),
            Funct::Mfhi => {
                a.regs.write(r.rd, a.hi);
                Ok(fall_through(pc))
            }
            Funct::Mflo => {
                a.regs.write(r.rd, a.lo);
                Ok(fall_through(pc))
            }
            Funct::Mthi => {
                a.hi = a.regs.read(r.rs);
                Ok(fall_through(pc))
            }
            Funct::Mtlo => {
                a.lo = a.regs.read(r.rs);
                Ok(fall_through(pc))
            }
            _ => exec_alu_r(a, pc, r),
        },
        Instr::I(i) => {
            if i.opcode.is_branch() {
                exec_branch(a, pc, instr, i)
            } else if i.opcode.is_load() || i.opcode.is_store() {
                exec_mem(a, pc, i)
            } else {
                exec_alu_i(a, pc, i)
            }
        }
        Instr::J(j) => {
            let target = instr.jump_dest(pc).expect("a jump has a destination");
            if j.opcode == JOpcode::Jal {
                a.regs.write(Reg::RA, pc.wrapping_add(INSTR_BYTES));
            }
            Ok((target, true, None))
        }
    }
}

fn exec_syscall(a: &mut Arch, pc: u32) -> Effect {
    let number = a.regs.read(Syscall::NUMBER_REG);
    let a0 = a.regs.read(Syscall::ARG0_REG);
    let mut exit = None;
    match Syscall::from_number(number) {
        Some(Syscall::Exit) => exit = Some(a0),
        Some(Syscall::PrintInt) => a.console.push(ConsoleEvent::Int(a0 as i32)),
        Some(Syscall::PrintChar) => a
            .console
            .push(ConsoleEvent::Char((a0 & 0xff) as u8 as char)),
        Some(Syscall::ReadCycles) => a.regs.write(Reg::V0, a.cycles as u32),
        None => return Err(FaultKind::BadSyscall { pc, number }),
    }
    Ok((pc.wrapping_add(INSTR_BYTES), true, exit))
}

/// The R-type ALU family executor: one body, the function code matched
/// at run time.
fn exec_alu_r(a: &mut Arch, pc: u32, r: &RType) -> Effect {
    let x = a.regs.read(r.rs);
    let y = a.regs.read(r.rt);
    match semantics::alu_r(r.funct, x, y, r.shamt) {
        semantics::AluOut::Gpr(v) => a.regs.write(r.rd, v),
        semantics::AluOut::HiLo { hi, lo } => {
            a.hi = hi;
            a.lo = lo;
        }
    }
    Ok(fall_through(pc))
}

/// The branch family executor.
fn exec_branch(a: &mut Arch, pc: u32, instr: &Instr, i: &IType) -> Effect {
    let x = a.regs.read(i.rs);
    let y = a.regs.read(i.rt);
    if semantics::branch_taken(i.opcode, x, y) {
        let target = instr.branch_dest(pc).expect("a branch has a destination");
        Ok((target, true, None))
    } else {
        Ok(fall_through(pc))
    }
}

/// The load/store family executor, with the memory access it shared.
fn exec_mem(a: &mut Arch, pc: u32, i: &IType) -> Effect {
    let addr = semantics::effective_address(a.regs.read(i.rs), i.imm);
    access_memory(a, pc, i.opcode, i.rt, addr)?;
    Ok(fall_through(pc))
}

fn access_memory(a: &mut Arch, pc: u32, op: IOpcode, rt: Reg, addr: u32) -> Result<(), FaultKind> {
    let fault = |_| FaultKind::MemFault { pc };
    match op {
        IOpcode::Lb => {
            let v = a.mem.read_u8(addr) as i8 as i32 as u32;
            a.regs.write(rt, v);
        }
        IOpcode::Lbu => {
            let v = a.mem.read_u8(addr) as u32;
            a.regs.write(rt, v);
        }
        IOpcode::Lh => {
            let v = a.mem.read_u16(addr).map_err(fault)? as i16 as i32 as u32;
            a.regs.write(rt, v);
        }
        IOpcode::Lhu => {
            let v = a.mem.read_u16(addr).map_err(fault)? as u32;
            a.regs.write(rt, v);
        }
        IOpcode::Lw => {
            let v = a.mem.read_u32(addr).map_err(fault)?;
            a.regs.write(rt, v);
        }
        IOpcode::Sb => a.mem.write_u8(addr, a.regs.read(rt) as u8),
        IOpcode::Sh => a
            .mem
            .write_u16(addr, a.regs.read(rt) as u16)
            .map_err(fault)?,
        IOpcode::Sw => a.mem.write_u32(addr, a.regs.read(rt)).map_err(fault)?,
        _ => unreachable!("not a memory opcode"),
    }
    Ok(())
}

/// The I-type ALU family executor.
fn exec_alu_i(a: &mut Arch, pc: u32, i: &IType) -> Effect {
    let v = semantics::alu_i(i.opcode, a.regs.read(i.rs), i.imm);
    a.regs.write(i.rt, v);
    Ok(fall_through(pc))
}

/// The case inputs' seeded stream.
struct Gen(SplitMix64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(SplitMix64(seed))
    }

    fn next(&mut self) -> u32 {
        (self.0.next_u64() >> 32) as u32
    }

    fn below(&mut self, n: u32) -> u32 {
        self.next() % n
    }

    /// A register value: anything, an address in the data or text
    /// region (any alignment), a small or extreme integer, or a
    /// syscall number.
    fn value(&mut self) -> u32 {
        match self.below(6) {
            0 => self.next(),
            1 => DATA_BASE + self.below(DATA_BYTES as u32 + 8),
            2 => TEXT_BASE + self.below(4 * TEXT_WORDS + 8),
            3 => self.below(64).wrapping_sub(32),
            4 => [0, 1, u32::MAX, i32::MIN as u32, i32::MAX as u32][self.below(5) as usize],
            _ => [1, 10, 11, 30, 7][self.below(5) as usize],
        }
    }
}

/// The harness image: a text segment of `TEXT_WORDS` words (so text
/// addresses hit the dense region) and a data segment.
fn image() -> ProgramImage {
    let mut src = String::from("    .data\nbuf: .space 256\n    .text\nmain:\n");
    for _ in 0..TEXT_WORDS {
        src.push_str("    addiu $t0, $t0, 1\n");
    }
    assemble(&src).expect("harness assembles").image
}

/// One case's machine: a processor and the reference's copy of its
/// state, with random registers, HI/LO and data bytes.
fn machine(image: &ProgramImage, g: &mut Gen) -> (Processor, Arch) {
    let mut cpu = Processor::new(image, ProcessorConfig::baseline());
    let mut regs = [0u32; 32];
    for r in regs.iter_mut() {
        *r = g.value();
    }
    let (hi, lo) = (g.value(), g.value());
    cpu.set_arch_regs(regs, hi, lo);
    let data: Vec<u8> = (0..DATA_BYTES).map(|_| g.next() as u8).collect();
    cpu.mem_mut().write_bytes(DATA_BASE, &data);
    let arch = Arch {
        regs: RegFile::from_snapshot(regs),
        hi,
        lo,
        mem: cpu.mem().clone(),
        console: cpu.stats().console,
        cycles: cpu.cycles(),
    };
    (cpu, arch)
}

fn memory_bytes(mem: &Memory) -> Vec<u8> {
    let mut e = Enc::new();
    mem.encode_into(&mut e);
    e.into_bytes()
}

/// Execute `word` at `pc` through the bound executor and the reference
/// and assert they agree on everything.
fn assert_agree(image: &ProgramImage, g: &mut Gen, pc: u32, word: u32) {
    let instr = Instr::decode(word).expect("a decodable word");
    let (mut cpu, mut arch) = machine(image, g);
    let entry = PredecodedEntry::new(pc, word, instr);
    let bound = cpu.exec_entry(pc, &entry);
    let expected = reference(&mut arch, pc, &instr);
    let at = format!("{instr} ({word:#010x}) at {pc:#010x}");
    assert_eq!(bound, expected, "{at}: effect");
    assert_eq!(cpu.regs(), &arch.regs, "{at}: registers");
    assert_eq!(cpu.hi_lo(), (arch.hi, arch.lo), "{at}: HI/LO");
    assert!(
        memory_bytes(cpu.mem()) == memory_bytes(&arch.mem),
        "{at}: memory"
    );
    assert_eq!(cpu.stats().console, arch.console, "{at}: console");
}

/// Every variant, as `(variant, canonical word, mask of the operand
/// bits that may vary)`.
fn shapes() -> Vec<(Variant, u32, u32)> {
    let r = |funct| {
        Instr::R(RType {
            funct,
            rs: Reg::ZERO,
            rt: Reg::ZERO,
            rd: Reg::ZERO,
            shamt: 0,
        })
    };
    let i = |opcode| {
        Instr::I(IType {
            opcode,
            rs: Reg::ZERO,
            rt: Reg::ZERO,
            imm: 0,
        })
    };
    let mut out = Vec::new();
    for f in Funct::ALL {
        out.push((Variant::R(f), r(f).encode(), 0x03ff_ffc0));
    }
    for op in IOpcode::ALL {
        // The `REGIMM` branches keep their `rt` selector.
        let mask = if matches!(op, IOpcode::Bltz | IOpcode::Bgez) {
            0x03e0_ffff
        } else {
            0x03ff_ffff
        };
        out.push((Variant::I(op), i(op).encode(), mask));
    }
    for op in [JOpcode::J, JOpcode::Jal] {
        let j = Instr::J(JType {
            opcode: op,
            target: 0,
        });
        out.push((Variant::J(op), j.encode(), 0x03ff_ffff));
    }
    out
}

/// A PC: in the text region, or anywhere (word-aligned).
fn pc(g: &mut Gen) -> u32 {
    if g.below(2) == 0 {
        TEXT_BASE + 4 * g.below(TEXT_WORDS)
    } else {
        g.next() & !3
    }
}

/// `word`, with a load's or store's offset made small three times in
/// four, so a base register holding a data or text address (see
/// [`Gen::value`]) lands on bytes that are not zero: a random 16-bit
/// offset almost always reads untouched memory, where a signed and an
/// unsigned load agree.
fn near_base(word: u32, g: &mut Gen) -> u32 {
    match Instr::decode(word) {
        Ok(Instr::I(i)) if (i.opcode.is_load() || i.opcode.is_store()) && g.below(4) != 0 => {
            (word & !0xffff) | (g.below(16).wrapping_sub(8) & 0xffff)
        }
        _ => word,
    }
}

#[test]
fn every_variant_matches_the_family_reference() {
    let image = image();
    let mut g = Gen::new(0x5eed);
    for (v, word, mask) in shapes() {
        for _ in 0..256 {
            let word = near_base(word | (g.next() & mask), &mut g);
            let pc = pc(&mut g);
            assert_eq!(variant(&Instr::decode(word).expect("decodes")), v);
            assert_agree(&image, &mut g, pc, word);
        }
    }
}

proptest! {
    #[test]
    fn random_words_match_the_family_reference(seed in any::<u64>()) {
        let image = image();
        let mut g = Gen::new(seed);
        let mut executed = 0;
        while executed < 32 {
            let word = g.next();
            if Instr::decode(word).is_err() {
                continue;
            }
            let word = near_base(word, &mut g);
            let pc = pc(&mut g);
            assert_agree(&image, &mut g, pc, word);
            executed += 1;
        }
    }
}

/// The variant an instruction belongs to: its function code or opcode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Variant {
    R(Funct),
    I(IOpcode),
    J(JOpcode),
}

fn variant(instr: &Instr) -> Variant {
    match instr {
        Instr::R(r) => Variant::R(r.funct),
        Instr::I(i) => Variant::I(i.opcode),
        Instr::J(j) => Variant::J(j.opcode),
    }
}

#[test]
fn every_decodable_word_binds_its_own_variants_executor() {
    let mut g = Gen::new(0xb1d);
    let mut names: BTreeMap<Variant, &'static str> = BTreeMap::new();
    let mut check = |word: u32| {
        let Ok(instr) = Instr::decode(word) else {
            return;
        };
        let name = exec_binding(&instr);
        let first = *names.entry(variant(&instr)).or_insert(name);
        assert_eq!(name, first, "{instr}: one executor per variant");
    };
    for (_, word, mask) in shapes() {
        for _ in 0..32 {
            check(word | (g.next() & mask));
        }
    }
    for _ in 0..20_000 {
        check(g.next());
    }
    let shapes = shapes().len();
    assert_eq!(names.len(), shapes, "every variant was bound");
    let mut distinct: Vec<&str> = names.values().copied().collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), shapes, "no two variants share an executor");
}
