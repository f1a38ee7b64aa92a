//! Differential property tests for the scheduler's mask and block fast
//! paths.
//!
//! [`Timing::issue`] — the slice-based path the per-instruction
//! processor loop runs — is the oracle. [`Timing::issue_masks`] (the
//! block loop's per-instruction path) and
//! [`Timing::issue_block`]/[`Timing::plan_fits`] (the fused whole-body
//! replay) must assign bit-identical ID cycles to random instruction
//! streams, across `stall()` interleavings, redirect bubbles, multiply
//! and divide latencies, and arbitrary live-in readiness left behind by
//! a random prefix.

use proptest::prelude::*;

use cimon_isa::{Funct, IOpcode, IType, Instr, RType, Reg};
use cimon_pipeline::predecode::PredecodedEntry;
use cimon_pipeline::{BlockPlan, Timing, TimingConfig};

/// Deterministic stream generator (mirrors `block_exec_diff.rs`).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    fn reg(&mut self) -> Reg {
        // A small register pool so streams actually collide on
        // producers/consumers (register 0 excluded: `$zero` never
        // interlocks and the masks never carry it).
        Reg::new(8 + (self.next() % 8) as u8).expect("valid index")
    }
}

/// One random instruction drawn from every timing-relevant shape.
/// `cf_ok` permits control-flow instructions (stream mode); block
/// bodies are straight-line and pass `false`.
fn random_instr(rng: &mut Rng, cf_ok: bool) -> Instr {
    let rs = rng.reg();
    let rt = rng.reg();
    let rd = rng.reg();
    let shapes = if cf_ok { 9 } else { 7 };
    match rng.next() % shapes {
        // ALU register op: two sources, one dest.
        0 => Instr::R(RType {
            funct: Funct::Addu,
            rs,
            rt,
            rd,
            shamt: 0,
        }),
        // Load: EX-level producer with the longer forwarding distance.
        1 => Instr::I(IType {
            opcode: IOpcode::Lw,
            rs,
            rt,
            imm: (rng.next() % 64) as u16 * 4,
        }),
        // Store: reads two registers, writes none.
        2 => Instr::I(IType {
            opcode: IOpcode::Sw,
            rs,
            rt,
            imm: (rng.next() % 64) as u16 * 4,
        }),
        // Multiply / divide: HI/LO writers with configured latency.
        3 => Instr::R(RType {
            funct: if rng.next() % 2 == 0 {
                Funct::Mult
            } else {
                Funct::Div
            },
            rs,
            rt,
            rd: Reg::ZERO,
            shamt: 0,
        }),
        // HI/LO readers.
        4 => Instr::R(RType {
            funct: if rng.next() % 2 == 0 {
                Funct::Mfhi
            } else {
                Funct::Mflo
            },
            rs: Reg::ZERO,
            rt: Reg::ZERO,
            rd,
            shamt: 0,
        }),
        // Immediate ALU op: one source, one dest.
        5 => Instr::I(IType {
            opcode: IOpcode::Addiu,
            rs,
            rt,
            imm: (rng.next() % 100) as u16,
        }),
        // No-source producer (`lui`).
        6 => Instr::I(IType {
            opcode: IOpcode::Lui,
            rs: Reg::ZERO,
            rt,
            imm: (rng.next() % 1000) as u16,
        }),
        // Branch: ID-stage reader, may redirect fetch.
        7 => Instr::I(IType {
            opcode: IOpcode::Beq,
            rs,
            rt,
            imm: 4,
        }),
        // Register jump: ID-stage reader, always redirects.
        _ => Instr::R(RType {
            funct: Funct::Jr,
            rs,
            rt: Reg::ZERO,
            rd: Reg::ZERO,
            shamt: 0,
        }),
    }
}

fn entry(rng: &mut Rng, cf_ok: bool) -> PredecodedEntry {
    // The word/PC feed only decode-identity and branch targets, which
    // the scheduler never reads.
    PredecodedEntry::new(0x0040_0000, 0, random_instr(rng, cf_ok))
}

fn config(rng: &mut Rng) -> TimingConfig {
    // Default latencies plus degenerate single-cycle units.
    match rng.next() % 3 {
        0 => TimingConfig::default(),
        1 => TimingConfig {
            mult_latency: 1,
            div_latency: 1,
        },
        _ => TimingConfig {
            mult_latency: 7,
            div_latency: 23,
        },
    }
}

/// Issue one entry through the slice-based oracle.
fn issue_oracle(t: &mut Timing, e: &PredecodedEntry, taken: bool) -> u64 {
    t.issue(
        e.klass,
        e.sources.as_slice(),
        e.reads_hi,
        e.reads_lo,
        e.dest,
        e.writes_hilo,
        taken,
    )
}

/// Expose both readiness tables of a schedule through architectural
/// probes: the ID cycle of a reader of each register (at the ID and the
/// EX level) is a pure function of the internal state, so two schedules
/// that answer every probe identically — while being mutated
/// identically — are equal where it matters.
fn probe_all(a: &mut Timing, b: &mut Timing) {
    use cimon_pipeline::timing::IssueClass;
    for idx in 0..32u8 {
        let r = Reg::new(idx).expect("valid");
        for class in [IssueClass::IdReader, IssueClass::Alu] {
            let ida = a.issue(class, &[r], false, false, None, false, false);
            let idb = b.issue(class, &[r], false, false, None, false, false);
            assert_eq!(ida, idb, "probe diverged on r{idx} {class:?}");
        }
    }
    for (hi, lo) in [(true, false), (false, true)] {
        for class in [IssueClass::IdReader, IssueClass::Alu] {
            let ida = a.issue(class, &[], hi, lo, None, false, false);
            let idb = b.issue(class, &[], hi, lo, None, false, false);
            assert_eq!(ida, idb, "HI/LO probe diverged");
        }
    }
}

proptest! {
    /// `issue_masks` is cycle- and stat-identical to `issue` on random
    /// streams with stalls and redirect bubbles interleaved.
    #[test]
    fn issue_masks_matches_issue(seed in any::<u64>(), n in 1usize..250) {
        let mut rng = Rng(seed);
        let cfg = config(&mut rng);
        let mut oracle = Timing::new(cfg);
        let mut fast = Timing::new(cfg);
        for _ in 0..n {
            if rng.next() % 8 == 0 {
                let s = (rng.next() % 150) as u64;
                oracle.stall(s);
                fast.stall(s);
                continue;
            }
            let e = entry(&mut rng, true);
            let taken = e.is_control_flow && rng.next() % 2 == 0;
            let id_o = issue_oracle(&mut oracle, &e, taken);
            let id_f = fast.issue_masks(e.klass, e.src_mask, e.dest_mask, taken);
            prop_assert_eq!(id_o, id_f);
        }
        prop_assert_eq!(oracle.cycles(), fast.cycles());
        prop_assert_eq!(oracle.instructions(), fast.instructions());
        prop_assert_eq!(oracle.stall_cycles(), fast.stall_cycles());
        probe_all(&mut oracle, &mut fast);
    }

    /// A planned block body replayed through `issue_block` leaves the
    /// schedule bit-identical to issuing the body sequentially — from
    /// arbitrary live-in readiness (random prefix), with and without a
    /// preceding redirect, across latency configurations. When the plan
    /// does not fit (a live-in interlock binds), the caller's mask-path
    /// fallback must agree too.
    #[test]
    fn issue_block_matches_sequential(
        seed in any::<u64>(),
        prefix_n in 0usize..40,
        body_n in 0usize..24,
    ) {
        let mut rng = Rng(seed);
        let cfg = config(&mut rng);
        let mut oracle = Timing::new(cfg);
        // Random prefix: leaves arbitrary readiness/redirect state.
        for _ in 0..prefix_n {
            if rng.next() % 10 == 0 {
                oracle.stall((rng.next() % 120) as u64);
                continue;
            }
            let e = entry(&mut rng, true);
            let taken = e.is_control_flow && rng.next() % 2 == 0;
            issue_oracle(&mut oracle, &e, taken);
        }
        let mut fast = oracle.clone();

        // A straight-line body, planned once.
        let body: Vec<PredecodedEntry> =
            (0..body_n).map(|_| entry(&mut rng, false)).collect();
        let plan = BlockPlan::build(&body, cfg);
        prop_assert_eq!(plan.body_len(), body.len());

        for e in &body {
            issue_oracle(&mut oracle, e, false);
        }
        let x = fast.block_entry_id();
        let fits = fast.plan_fits(&plan, u64::MAX);
        if fits && !body.is_empty() {
            fast.issue_block(&plan, x);
        } else {
            for e in &body {
                fast.issue_masks(e.klass, e.src_mask, e.dest_mask, false);
            }
        }

        // A dynamic terminator on both sides (the processor always
        // issues the block-ending instruction individually).
        let term = entry(&mut rng, true);
        let taken = term.is_control_flow && rng.next() % 2 == 0;
        let id_o = issue_oracle(&mut oracle, &term, taken);
        let id_f = fast.issue_masks(term.klass, term.src_mask, term.dest_mask, taken);
        prop_assert_eq!(id_o, id_f, "terminator diverged (plan fit: {})", fits);

        prop_assert_eq!(oracle.cycles(), fast.cycles());
        prop_assert_eq!(oracle.instructions(), fast.instructions());
        probe_all(&mut oracle, &mut fast);
    }

    /// `plan_fits` is exact about the cycle budget: whenever it accepts
    /// a block, sequential stepping would not have hit `MaxCycles`
    /// before the terminator's budget poll.
    #[test]
    fn plan_fits_budget_bound_is_exact(seed in any::<u64>(), body_n in 1usize..24) {
        let mut rng = Rng(seed);
        let cfg = TimingConfig::default();
        let mut t = Timing::new(cfg);
        // Warm the schedule a little.
        for _ in 0..(rng.next() % 8) {
            let e = entry(&mut rng, true);
            issue_oracle(&mut t, &e, false);
        }
        let body: Vec<PredecodedEntry> =
            (0..body_n).map(|_| entry(&mut rng, false)).collect();
        let plan = BlockPlan::build(&body, cfg);

        // Replay sequentially and find the cycle count before the
        // terminator's poll.
        let mut seq = t.clone();
        for e in &body {
            issue_oracle(&mut seq, e, false);
        }
        let before_terminator = seq.cycles();

        // plan_fits at exactly that budget must accept; one cycle less
        // must reject (the terminator's poll would fire).
        prop_assert!(t.plan_fits(&plan, before_terminator) || !t.plan_fits(&plan, u64::MAX));
        if t.plan_fits(&plan, u64::MAX) {
            prop_assert!(t.plan_fits(&plan, before_terminator));
            prop_assert!(!t.plan_fits(&plan, before_terminator - 1));
        }
    }
}
