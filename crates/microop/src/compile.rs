//! Micro-program compilation: name-keyed wires lowered to slot indices,
//! then to threaded code.
//!
//! The interpreter in [`crate::exec`] resolves every wire through a
//! linear scan of a [`WireEnv`](crate::exec::WireEnv) — fine for tests
//! and printing, but it costs a `&'static str` comparison per operand
//! per cycle on the simulator's hot path, plus a fresh `Vec` per
//! executed program. Lowering removes that cost in two steps:
//!
//! 1. [`CompiledProgram`] performs the wire resolution once, at
//!    processor construction: each wire becomes an index into a flat
//!    `u32` slot array the caller provides (and reuses across cycles).
//! 2. [`ThreadedProgram::bind`] pre-binds each compiled op to a
//!    monomorphic op function (guard conditions and the `RHASH`-reset
//!    side effect are specialised into distinct functions at bind
//!    time), so [`execute_threaded`] is nothing but a walk over
//!    `(fn pointer, operand block)` pairs — classic threaded code — with
//!    no opcode `match` and no wire lookup.
//!
//! Lowering is semantics-preserving by construction — each op maps 1:1
//! through both steps — and `cimon-pipeline`'s `interp-check` feature
//! cross-executes the threaded tier against the interpreter every cycle
//! to prove it. One
//! deliberate difference: the interpreter panics at run time when a
//! program reads a floating wire, while the lowered forms rely on
//! [`ProcessorSpec::validate`](crate::spec::ProcessorSpec::validate)
//! having rejected such programs statically (a floating read would
//! otherwise observe a stale or zero slot).

use crate::datapath::{DReg, Datapath};
use crate::exec::{ExceptionKind, MicroEnv};
use crate::ops::{Cond, Guard, MicroOp, MicroProgram, Wire};

/// A guard with its wire resolved to a slot index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompiledGuard {
    slot: u16,
    cond: Cond,
}

/// One [`MicroOp`] with every wire resolved to a slot index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CompiledOp {
    Read {
        reg: DReg,
        out: u16,
    },
    Write {
        reg: DReg,
        input: u16,
    },
    WriteGuarded {
        reg: DReg,
        input: u16,
        guard: CompiledGuard,
    },
    Reset {
        reg: DReg,
    },
    IncPc,
    FetchIMem {
        addr: u16,
        out: u16,
    },
    HashOp {
        old: u16,
        instr: u16,
        out: u16,
    },
    IhtLookup {
        start: u16,
        end: u16,
        hash: u16,
        found: u16,
        matched: u16,
    },
    AndNot {
        a: u16,
        b: u16,
        out: u16,
    },
    RaiseException {
        kind: ExceptionKind,
        guard: CompiledGuard,
    },
}

/// A [`MicroProgram`] with every wire resolved to a slot index — the
/// input [`ThreadedProgram::bind`] lowers to threaded code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledProgram {
    name: String,
    ops: Vec<CompiledOp>,
    /// Slot index → the wire it carries (compile-order of first use).
    wires: Vec<Wire>,
}

impl CompiledProgram {
    /// Lower a micro-program: assign every distinct wire a slot and
    /// rewrite each op over slot indices.
    ///
    /// # Panics
    ///
    /// Panics if the program uses more than `u16::MAX` distinct wires —
    /// stage programs have around a dozen.
    pub fn compile(program: &MicroProgram) -> CompiledProgram {
        let mut wires: Vec<Wire> = Vec::new();
        let slot = |w: Wire, wires: &mut Vec<Wire>| -> u16 {
            let i = match wires.iter().position(|x| *x == w) {
                Some(i) => i,
                None => {
                    wires.push(w);
                    wires.len() - 1
                }
            };
            u16::try_from(i)
                .unwrap_or_else(|_| unreachable!("micro-program wire count fits in u16"))
        };
        let guard = |g: &Guard, wires: &mut Vec<Wire>| CompiledGuard {
            slot: slot(g.wire, wires),
            cond: g.cond,
        };
        let ops = program
            .ops
            .iter()
            .map(|op| match op {
                MicroOp::Read { reg, out } => CompiledOp::Read {
                    reg: *reg,
                    out: slot(*out, &mut wires),
                },
                MicroOp::Write {
                    reg,
                    input,
                    guard: None,
                } => CompiledOp::Write {
                    reg: *reg,
                    input: slot(*input, &mut wires),
                },
                MicroOp::Write {
                    reg,
                    input,
                    guard: Some(g),
                } => CompiledOp::WriteGuarded {
                    reg: *reg,
                    input: slot(*input, &mut wires),
                    guard: guard(g, &mut wires),
                },
                MicroOp::Reset { reg } => CompiledOp::Reset { reg: *reg },
                MicroOp::IncPc => CompiledOp::IncPc,
                MicroOp::FetchIMem { addr, out } => CompiledOp::FetchIMem {
                    addr: slot(*addr, &mut wires),
                    out: slot(*out, &mut wires),
                },
                MicroOp::HashOp { old, instr, out } => CompiledOp::HashOp {
                    old: slot(*old, &mut wires),
                    instr: slot(*instr, &mut wires),
                    out: slot(*out, &mut wires),
                },
                MicroOp::IhtLookup {
                    start,
                    end,
                    hash,
                    found,
                    matched,
                } => CompiledOp::IhtLookup {
                    start: slot(*start, &mut wires),
                    end: slot(*end, &mut wires),
                    hash: slot(*hash, &mut wires),
                    found: slot(*found, &mut wires),
                    matched: slot(*matched, &mut wires),
                },
                MicroOp::AndNot { a, b, out } => CompiledOp::AndNot {
                    a: slot(*a, &mut wires),
                    b: slot(*b, &mut wires),
                    out: slot(*out, &mut wires),
                },
                MicroOp::RaiseException { kind, guard: g } => CompiledOp::RaiseException {
                    kind: *kind,
                    guard: guard(g, &mut wires),
                },
            })
            .collect();
        CompiledProgram {
            name: program.name.clone(),
            ops,
            wires,
        }
    }

    /// The source program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of wire slots the executor's scratch array must provide.
    pub fn slot_count(&self) -> usize {
        self.wires.len()
    }

    /// The slot a wire was assigned, if the program mentions it. Used
    /// to pre-seed input wires and to read outputs after execution
    /// (the threaded form keeps the same slot assignment).
    pub fn slot_of(&self, wire: Wire) -> Option<usize> {
        self.wires.iter().position(|w| *w == wire)
    }
}

/// Operand block of one threaded op: every slot index (and, where the
/// op needs them, the datapath register and exception line) resolved at
/// bind time. The meaning of `a`–`e` depends on the op function the
/// block is paired with; unused fields hold zero.
#[derive(Clone, Copy, Debug)]
pub struct OpData {
    a: u16,
    b: u16,
    c: u16,
    d: u16,
    e: u16,
    reg: DReg,
    exc: ExceptionKind,
}

impl OpData {
    fn new() -> OpData {
        OpData {
            a: 0,
            b: 0,
            c: 0,
            d: 0,
            e: 0,
            reg: DReg::Cpc,
            exc: ExceptionKind::HashMiss,
        }
    }
}

/// A threaded op function: monomorphic over the environment type, so
/// the environment's `fetch`/`hash_step` fast paths inline into each op
/// body (trait objects still work through the `?Sized` bound).
pub type OpFn<E> = fn(&OpData, &mut Datapath, &mut E, &mut [u32]);

// The op-function library. Guard conditions are specialised into
// distinct functions at bind time, so no function contains a `match`.
fn op_read<E: MicroEnv + ?Sized>(d: &OpData, dp: &mut Datapath, _env: &mut E, slots: &mut [u32]) {
    slots[d.a as usize] = dp.read(d.reg);
}
fn op_write<E: MicroEnv + ?Sized>(d: &OpData, dp: &mut Datapath, _env: &mut E, slots: &mut [u32]) {
    dp.write(d.reg, slots[d.a as usize]);
}
fn op_write_if_eqz<E: MicroEnv + ?Sized>(
    d: &OpData,
    dp: &mut Datapath,
    _env: &mut E,
    slots: &mut [u32],
) {
    if slots[d.b as usize] == 0 {
        dp.write(d.reg, slots[d.a as usize]);
    }
}
fn op_write_if_nez<E: MicroEnv + ?Sized>(
    d: &OpData,
    dp: &mut Datapath,
    _env: &mut E,
    slots: &mut [u32],
) {
    if slots[d.b as usize] != 0 {
        dp.write(d.reg, slots[d.a as usize]);
    }
}
fn op_reset<E: MicroEnv + ?Sized>(d: &OpData, dp: &mut Datapath, _env: &mut E, _slots: &mut [u32]) {
    dp.reset(d.reg);
}
fn op_reset_rhash<E: MicroEnv + ?Sized>(
    _d: &OpData,
    dp: &mut Datapath,
    env: &mut E,
    _slots: &mut [u32],
) {
    dp.reset(DReg::Rhash);
    env.hash_reset();
}
fn op_inc_pc<E: MicroEnv + ?Sized>(
    _d: &OpData,
    dp: &mut Datapath,
    _env: &mut E,
    _slots: &mut [u32],
) {
    let pc = dp.read(DReg::Cpc);
    dp.write(DReg::Cpc, pc.wrapping_add(cimon_isa::INSTR_BYTES));
}
fn op_fetch<E: MicroEnv + ?Sized>(d: &OpData, _dp: &mut Datapath, env: &mut E, slots: &mut [u32]) {
    slots[d.b as usize] = env.fetch(slots[d.a as usize]);
}
fn op_hash<E: MicroEnv + ?Sized>(d: &OpData, _dp: &mut Datapath, env: &mut E, slots: &mut [u32]) {
    slots[d.c as usize] = env.hash_step(slots[d.a as usize], slots[d.b as usize]);
}
fn op_iht<E: MicroEnv + ?Sized>(d: &OpData, _dp: &mut Datapath, env: &mut E, slots: &mut [u32]) {
    let (f, m) = env.iht_lookup(
        slots[d.a as usize],
        slots[d.b as usize],
        slots[d.c as usize],
    );
    slots[d.d as usize] = f as u32;
    slots[d.e as usize] = m as u32;
}
fn op_andnot<E: MicroEnv + ?Sized>(
    d: &OpData,
    _dp: &mut Datapath,
    _env: &mut E,
    slots: &mut [u32],
) {
    slots[d.c as usize] = ((slots[d.a as usize] != 0) && (slots[d.b as usize] == 0)) as u32;
}
fn op_raise_if_eqz<E: MicroEnv + ?Sized>(
    d: &OpData,
    _dp: &mut Datapath,
    env: &mut E,
    slots: &mut [u32],
) {
    if slots[d.a as usize] == 0 {
        env.raise(d.exc);
    }
}
fn op_raise_if_nez<E: MicroEnv + ?Sized>(
    d: &OpData,
    _dp: &mut Datapath,
    env: &mut E,
    slots: &mut [u32],
) {
    if slots[d.a as usize] != 0 {
        env.raise(d.exc);
    }
}

/// A [`CompiledProgram`] lowered once more, to threaded code: a list of
/// pre-bound `(op function, operand block)` pairs over one environment
/// type. Build with [`ThreadedProgram::bind`], run with
/// [`execute_threaded`].
pub struct ThreadedProgram<E: MicroEnv + ?Sized> {
    name: String,
    ops: Vec<(OpFn<E>, OpData)>,
    slot_count: usize,
}

impl<E: MicroEnv + ?Sized> std::fmt::Debug for ThreadedProgram<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedProgram")
            .field("name", &self.name)
            .field("ops", &self.ops.len())
            .field("slot_count", &self.slot_count)
            .finish()
    }
}

impl<E: MicroEnv + ?Sized> ThreadedProgram<E> {
    /// Pre-bind every op of a compiled program to its monomorphic op
    /// function, with guard conditions and the `RHASH`-reset hook
    /// resolved now rather than per cycle.
    pub fn bind(compiled: &CompiledProgram) -> ThreadedProgram<E> {
        let ops = compiled
            .ops
            .iter()
            .map(|op| {
                let mut d = OpData::new();
                let f: OpFn<E> = match *op {
                    CompiledOp::Read { reg, out } => {
                        d.reg = reg;
                        d.a = out;
                        op_read
                    }
                    CompiledOp::Write { reg, input } => {
                        d.reg = reg;
                        d.a = input;
                        op_write
                    }
                    CompiledOp::WriteGuarded { reg, input, guard } => {
                        d.reg = reg;
                        d.a = input;
                        d.b = guard.slot;
                        match guard.cond {
                            Cond::EqZero => op_write_if_eqz,
                            Cond::NeZero => op_write_if_nez,
                        }
                    }
                    CompiledOp::Reset { reg } => {
                        d.reg = reg;
                        if reg == DReg::Rhash {
                            op_reset_rhash
                        } else {
                            op_reset
                        }
                    }
                    CompiledOp::IncPc => op_inc_pc,
                    CompiledOp::FetchIMem { addr, out } => {
                        d.a = addr;
                        d.b = out;
                        op_fetch
                    }
                    CompiledOp::HashOp { old, instr, out } => {
                        d.a = old;
                        d.b = instr;
                        d.c = out;
                        op_hash
                    }
                    CompiledOp::IhtLookup {
                        start,
                        end,
                        hash,
                        found,
                        matched,
                    } => {
                        d.a = start;
                        d.b = end;
                        d.c = hash;
                        d.d = found;
                        d.e = matched;
                        op_iht
                    }
                    CompiledOp::AndNot { a, b, out } => {
                        d.a = a;
                        d.b = b;
                        d.c = out;
                        op_andnot
                    }
                    CompiledOp::RaiseException { kind, guard } => {
                        d.a = guard.slot;
                        d.exc = kind;
                        match guard.cond {
                            Cond::EqZero => op_raise_if_eqz,
                            Cond::NeZero => op_raise_if_nez,
                        }
                    }
                };
                (f, d)
            })
            .collect();
        ThreadedProgram {
            name: compiled.name.clone(),
            ops,
            slot_count: compiled.slot_count(),
        }
    }

    /// The source program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of wire slots the executor's scratch array must provide
    /// (identical to the source [`CompiledProgram::slot_count`]).
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }
}

/// Execute a threaded program over `dp`, with functional units supplied
/// by `env` and wire storage in `slots`: one indirect call per op, no
/// opcode dispatch. Callers keep one scratch array alive across cycles —
/// nothing here allocates.
///
/// Input wires must be pre-seeded into their
/// [`CompiledProgram::slot_of`] positions; all other slots are written
/// before being read by any program that passes
/// [`ProcessorSpec::validate`].
///
/// [`ProcessorSpec::validate`]: crate::spec::ProcessorSpec::validate
///
/// # Panics
///
/// Panics if `slots` is shorter than [`ThreadedProgram::slot_count`].
pub fn execute_threaded<E: MicroEnv + ?Sized>(
    program: &ThreadedProgram<E>,
    dp: &mut Datapath,
    env: &mut E,
    slots: &mut [u32],
) {
    assert!(
        slots.len() >= program.slot_count,
        "slot scratch too small for `{}`: {} < {}",
        program.name,
        slots.len(),
        program.slot_count,
    );
    for (f, d) in &program.ops {
        f(d, dp, env, slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, WireEnv};
    use crate::spec::{baseline_spec, embed_monitor, MonitorParams};

    /// Scripted environment whose answers depend only on call order, so
    /// the interpreted and threaded executions see identical units.
    struct Script {
        words: Vec<u32>,
        fetches: usize,
        iht: (bool, bool),
        raised: Vec<ExceptionKind>,
    }

    impl Script {
        fn new(words: Vec<u32>, iht: (bool, bool)) -> Script {
            Script {
                words,
                fetches: 0,
                iht,
                raised: Vec::new(),
            }
        }
    }

    impl MicroEnv for Script {
        fn fetch(&mut self, _addr: u32) -> u32 {
            let w = self.words[self.fetches % self.words.len()];
            self.fetches += 1;
            w
        }
        fn hash_step(&mut self, old: u32, instr: u32) -> u32 {
            old.rotate_left(1) ^ instr
        }
        fn iht_lookup(&mut self, _s: u32, _e: u32, _h: u32) -> (bool, bool) {
            self.iht
        }
        fn raise(&mut self, kind: ExceptionKind) {
            self.raised.push(kind);
        }
    }

    /// Run `program` interpreted and threaded from the same start state
    /// and assert identical datapaths and raised exceptions.
    fn differential(program: &MicroProgram, iht: (bool, bool)) {
        let words = vec![0x0109_5020, 0xdead_beef, 0x2508_0001];
        let mut dp_i = Datapath::with_seed(0x5eed);
        dp_i.write(DReg::Cpc, 0x40_0000);
        let mut dp_t = dp_i.clone();

        let mut env_i = Script::new(words.clone(), iht);
        let mut env_t = Script::new(words, iht);

        execute(program, &mut dp_i, &mut env_i, WireEnv::new());

        let compiled = CompiledProgram::compile(program);
        let threaded: ThreadedProgram<Script> = ThreadedProgram::bind(&compiled);
        assert_eq!(threaded.slot_count(), compiled.slot_count());
        assert_eq!(threaded.name(), compiled.name());
        let mut slots = vec![0u32; threaded.slot_count()];
        execute_threaded(&threaded, &mut dp_t, &mut env_t, &mut slots);

        assert_eq!(
            dp_i, dp_t,
            "threaded datapath diverged on `{}`",
            program.name
        );
        assert_eq!(env_i.raised, env_t.raised, "threaded raises diverged");
        assert_eq!(
            env_i.fetches, env_t.fetches,
            "threaded fetch counts diverged"
        );
    }

    #[test]
    fn baseline_if_program_compiles_identically() {
        differential(&baseline_spec().if_program, (true, true));
    }

    #[test]
    fn monitored_programs_compile_identically() {
        let spec = embed_monitor(&baseline_spec(), &MonitorParams::default());
        differential(&spec.if_program, (true, true));
        let check = spec.id_check_program.as_ref().unwrap();
        for iht in [(true, true), (false, false), (true, false)] {
            differential(check, iht);
        }
    }

    #[test]
    fn compiled_ops_repeat_without_allocation_or_staleness() {
        // Re-running with the same scratch must behave like fresh runs:
        // every slot is written before read on validated programs.
        let spec = embed_monitor(&baseline_spec(), &MonitorParams::default());
        let t: ThreadedProgram<Script> =
            ThreadedProgram::bind(&CompiledProgram::compile(&spec.if_program));
        let mut slots = vec![0u32; t.slot_count()];
        let mut dp = Datapath::new();
        dp.write(DReg::Cpc, 0x1000);
        let mut env = Script::new(vec![0x42], (true, true));
        execute_threaded(&t, &mut dp, &mut env, &mut slots);
        let first = dp.clone();
        dp.write(DReg::Cpc, 0x1000);
        dp.write(DReg::Sta, 0);
        dp.write(DReg::Rhash, 0);
        execute_threaded(&t, &mut dp, &mut env, &mut slots);
        assert_eq!(dp.read(DReg::IReg), first.read(DReg::IReg));
        assert_eq!(dp.read(DReg::Cpc), first.read(DReg::Cpc));
    }

    #[test]
    fn slot_of_exposes_inputs_and_outputs() {
        let mut p = MicroProgram::new("io");
        p.push(MicroOp::HashOp {
            old: Wire("a"),
            instr: Wire("b"),
            out: Wire("c"),
        });
        let c = CompiledProgram::compile(&p);
        assert_eq!(c.slot_count(), 3);
        let mut slots = vec![0u32; 3];
        slots[c.slot_of(Wire("a")).unwrap()] = 0x0f0f_0f0f;
        slots[c.slot_of(Wire("b")).unwrap()] = 0x1111_1111;
        let t: ThreadedProgram<Script> = ThreadedProgram::bind(&c);
        let mut dp = Datapath::new();
        let mut env = Script::new(vec![0], (true, true));
        execute_threaded(&t, &mut dp, &mut env, &mut slots);
        assert_eq!(
            slots[c.slot_of(Wire("c")).unwrap()],
            0x0f0f_0f0f_u32.rotate_left(1) ^ 0x1111_1111
        );
        assert_eq!(c.slot_of(Wire("ghost")), None);
        assert_eq!(c.name(), "io");
    }

    #[test]
    #[should_panic(expected = "slot scratch too small")]
    fn threaded_short_scratch_panics() {
        let mut p = MicroProgram::new("t");
        p.push(MicroOp::Read {
            reg: DReg::Cpc,
            out: Wire("pc"),
        });
        let t: ThreadedProgram<Script> = ThreadedProgram::bind(&CompiledProgram::compile(&p));
        let mut dp = Datapath::new();
        let mut env = Script::new(vec![0], (true, true));
        execute_threaded(&t, &mut dp, &mut env, &mut []);
    }

    #[test]
    fn threaded_specialises_guards_and_resets() {
        // A program hitting every specialised op function: guarded
        // writes of both polarities, a non-RHASH reset, an RHASH reset
        // (which must fire the env's hash_reset hook), and both raise
        // polarities.
        let mut p = MicroProgram::new("specialised");
        p.push(MicroOp::Read {
            reg: DReg::Cpc,
            out: Wire("pc"),
        })
        .push(MicroOp::Read {
            reg: DReg::Sta,
            out: Wire("sta"),
        })
        .push(MicroOp::Write {
            reg: DReg::Sta,
            input: Wire("pc"),
            guard: Some(Guard::eq_zero(Wire("sta"))),
        })
        .push(MicroOp::Write {
            reg: DReg::Ppc,
            input: Wire("pc"),
            guard: Some(Guard::ne_zero(Wire("pc"))),
        })
        .push(MicroOp::RaiseException {
            kind: ExceptionKind::HashMiss,
            guard: Guard::eq_zero(Wire("sta")),
        })
        .push(MicroOp::RaiseException {
            kind: ExceptionKind::HashMismatch,
            guard: Guard::ne_zero(Wire("pc")),
        })
        .push(MicroOp::Reset { reg: DReg::Sta })
        .push(MicroOp::Reset { reg: DReg::Rhash });

        /// Counts hash resets so the specialised RHASH hook is proven
        /// to fire through the threaded tier.
        struct Counting {
            inner: Script,
            resets: u32,
        }
        impl MicroEnv for Counting {
            fn fetch(&mut self, addr: u32) -> u32 {
                self.inner.fetch(addr)
            }
            fn hash_step(&mut self, old: u32, instr: u32) -> u32 {
                self.inner.hash_step(old, instr)
            }
            fn hash_reset(&mut self) {
                self.resets += 1;
            }
            fn iht_lookup(&mut self, s: u32, e: u32, h: u32) -> (bool, bool) {
                self.inner.iht_lookup(s, e, h)
            }
            fn raise(&mut self, kind: ExceptionKind) {
                self.inner.raise(kind);
            }
        }

        let mut dp = Datapath::with_seed(0xabcd);
        dp.write(DReg::Cpc, 0x40_0000);
        let t: ThreadedProgram<Counting> = ThreadedProgram::bind(&CompiledProgram::compile(&p));
        let mut slots = vec![0u32; t.slot_count()];
        let mut env = Counting {
            inner: Script::new(vec![0], (true, true)),
            resets: 0,
        };
        execute_threaded(&t, &mut dp, &mut env, &mut slots);
        // eq-zero guard fired (STA was 0, then reset again); ne-zero too.
        assert_eq!(dp.read(DReg::Sta), 0);
        assert_eq!(dp.read(DReg::Ppc), 0x40_0000);
        assert_eq!(dp.read(DReg::Rhash), 0xabcd);
        assert_eq!(env.resets, 1, "RHASH reset must reach the env exactly once");
        assert_eq!(
            env.inner.raised,
            vec![ExceptionKind::HashMiss, ExceptionKind::HashMismatch]
        );
    }

    #[test]
    fn threaded_works_through_trait_objects() {
        // `?Sized` bound: a ThreadedProgram<dyn MicroEnv> runs against
        // any concrete environment behind a &mut dyn.
        let spec = embed_monitor(&baseline_spec(), &MonitorParams::default());
        let compiled = CompiledProgram::compile(&spec.if_program);
        let t: ThreadedProgram<dyn MicroEnv> = ThreadedProgram::bind(&compiled);
        let mut dp = Datapath::new();
        dp.write(DReg::Cpc, 0x1000);
        let mut env = Script::new(vec![0x42], (true, true));
        let mut slots = vec![0u32; t.slot_count()];
        execute_threaded(&t, &mut dp, &mut env as &mut dyn MicroEnv, &mut slots);
        assert_eq!(dp.read(DReg::IReg), 0x42);
        assert_eq!(dp.read(DReg::Cpc), 0x1004);
    }
}
