//! Cycle-accurate scheduling model of the 6-stage pipeline.
//!
//! Stage map for instruction `i` whose ID occupies cycle `t`:
//!
//! ```text
//! IF = t-1   ID = t   RR = t+1   EX = t+2   MEM = t+3   WB = t+4
//! ```
//!
//! The model schedules each instruction's **ID cycle** subject to:
//!
//! * **in-order issue** — `id(i) ≥ id(i-1) + 1`;
//! * **redirect bubble** — after a *taken* control transfer resolved in
//!   ID, the next fetch starts a cycle late: `id(i) ≥ id(branch) + 2`;
//! * **ID-operand interlock** — branches, indirect jumps and traps read
//!   their operands in ID. A producer's value becomes forwardable to ID
//!   three cycles after the producer's own ID (from the EX/MEM latch),
//!   four for loads: `id(consumer) ≥ id(producer) + 3 (ALU) / + 4 (load)`;
//! * **load-use interlock** — EX-stage consumers of a loaded value need
//!   `id(consumer) ≥ id(load) + 2` (one bubble when adjacent);
//! * **multi-cycle multiply/divide** — `mfhi`/`mflo` wait for
//!   `id ≥ id(muldiv) + 2 + (latency − 1)`;
//! * **monitoring stalls** — hash-miss exceptions freeze the front end
//!   for the configured OS handling cost (100 cycles in the paper).
//!
//! Total cycle count is the last ID cycle plus the four cycles needed to
//! drain RR/EX/MEM/WB.

use cimon_isa::codec::{CodecError, Dec, Enc};
use cimon_isa::Reg;

use crate::predecode::PredecodedEntry;

/// Latency configuration of the execution units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingConfig {
    /// Extra EX occupancy of `mult`/`multu` beyond one cycle.
    pub mult_latency: u32,
    /// Extra EX occupancy of `div`/`divu` beyond one cycle.
    pub div_latency: u32,
}

impl Default for TimingConfig {
    /// Single-cycle ALU; iterative multiplier (4) and divider (16),
    /// typical of small embedded cores.
    fn default() -> Self {
        TimingConfig {
            mult_latency: 4,
            div_latency: 16,
        }
    }
}

/// Register-transfer timing class of one instruction, as the scheduler
/// sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IssueClass {
    /// Result forwardable like an ALU op (includes `jal`'s link write).
    Alu,
    /// Memory load: value only available after MEM.
    Load,
    /// Multiply/divide writing HI/LO, with configured latency.
    MulDiv {
        /// True for divide (uses `div_latency`), false for multiply.
        is_div: bool,
    },
    /// Reads operands in ID: branch, `jr`/`jalr`, `syscall`/`break`.
    IdReader,
    /// Anything else with no special timing (e.g. stores).
    Other,
}

/// Pseudo-register indices for HI and LO in the readiness tables.
const HI: usize = 32;
const LO: usize = 33;
const NREGS: usize = 34;

/// Bit of HI in a register mask (the GPRs occupy bits 0–31).
pub const MASK_HI: u64 = 1 << HI;
/// Bit of LO in a register mask.
pub const MASK_LO: u64 = 1 << LO;
/// The GPR bits of a register mask.
const MASK_GPR: u64 = u32::MAX as u64;

/// The pipeline scheduling model.
#[derive(Clone, Debug)]
pub struct Timing {
    config: TimingConfig,
    /// Cycle at which each register's value can be forwarded to an
    /// ID-stage reader.
    ready_id: [u64; NREGS],
    /// Earliest ID cycle for an EX-stage consumer of each register.
    ready_ex: [u64; NREGS],
    last_id: u64,
    /// True when the previous instruction redirected fetch.
    redirect: bool,
    stall_cycles: u64,
    instructions: u64,
}

impl Timing {
    /// The configuration this schedule was built with.
    pub fn config(&self) -> TimingConfig {
        self.config
    }

    /// A fresh schedule; the first instruction's ID lands on cycle 1.
    pub fn new(config: TimingConfig) -> Timing {
        Timing {
            config,
            ready_id: [0; NREGS],
            ready_ex: [0; NREGS],
            last_id: 0,
            redirect: false,
            stall_cycles: 0,
            instructions: 0,
        }
    }

    /// Schedule one instruction.
    ///
    /// * `class` — its timing class;
    /// * `sources` — registers read (register operands only);
    /// * `reads_hi`/`reads_lo` — `mfhi`/`mflo` operands;
    /// * `dest` — register written, if any;
    /// * `taken` — whether it redirected fetch (taken branch, jump,
    ///   trap return… anything breaking sequential fetch).
    ///
    /// Returns the ID cycle assigned.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn issue(
        &mut self,
        class: IssueClass,
        sources: &[Reg],
        reads_hi: bool,
        reads_lo: bool,
        dest: Option<Reg>,
        writes_hilo: bool,
        taken: bool,
    ) -> u64 {
        let mut id = self.last_id + if self.redirect { 2 } else { 1 };

        let consider = |id: &mut u64, idx: usize, at_id: bool| {
            let bound = if at_id {
                self.ready_id[idx]
            } else {
                self.ready_ex[idx]
            };
            if bound > *id {
                *id = bound;
            }
        };

        let reads_at_id = matches!(class, IssueClass::IdReader);
        for &r in sources {
            if !r.is_zero() {
                consider(&mut id, r.index(), reads_at_id);
            }
        }
        if reads_hi {
            consider(&mut id, HI, reads_at_id);
        }
        if reads_lo {
            consider(&mut id, LO, reads_at_id);
        }

        self.last_id = id;
        self.redirect = taken;
        self.instructions += 1;

        // Publish readiness of results.
        if let Some(d) = dest {
            if !d.is_zero() {
                match class {
                    IssueClass::Load => {
                        self.ready_id[d.index()] = id + 4;
                        self.ready_ex[d.index()] = id + 2;
                    }
                    _ => {
                        self.ready_id[d.index()] = id + 3;
                        self.ready_ex[d.index()] = 0;
                    }
                }
            }
        }
        if writes_hilo {
            let extra = match class {
                IssueClass::MulDiv { is_div: true } => self.config.div_latency.saturating_sub(1),
                IssueClass::MulDiv { is_div: false } => self.config.mult_latency.saturating_sub(1),
                _ => 0,
            } as u64;
            self.ready_id[HI] = id + 3 + extra;
            self.ready_id[LO] = id + 3 + extra;
            self.ready_ex[HI] = id + extra;
            self.ready_ex[LO] = id + extra;
        }
        id
    }

    /// Schedule one instruction from precomputed register bitmasks —
    /// bit-identical to [`Timing::issue`], without the slice iteration
    /// or the per-source `$zero` branch.
    ///
    /// `src_mask` holds one bit per register read (bit `i` for GPR `i`;
    /// [`MASK_HI`]/[`MASK_LO`] for HI/LO), with `$zero` never set.
    /// `dest_mask` holds the written GPR's bit (if any; `$zero` never
    /// set) plus both HI/LO bits when the instruction writes HI/LO.
    /// The predecode plane computes both masks once per image
    /// ([`PredecodedEntry`]); `crates/pipeline/tests/timing_masks.rs`
    /// proves the two paths cycle-identical on random streams.
    #[inline]
    pub fn issue_masks(
        &mut self,
        class: IssueClass,
        src_mask: u64,
        dest_mask: u64,
        taken: bool,
    ) -> u64 {
        let mut id = self.last_id + if self.redirect { 2 } else { 1 };

        let table = if matches!(class, IssueClass::IdReader) {
            &self.ready_id
        } else {
            &self.ready_ex
        };
        let mut m = src_mask;
        while m != 0 {
            let bound = table[m.trailing_zeros() as usize];
            m &= m - 1;
            if bound > id {
                id = bound;
            }
        }

        self.last_id = id;
        self.redirect = taken;
        self.instructions += 1;

        // Publish readiness of results.
        let gpr = dest_mask & MASK_GPR;
        if gpr != 0 {
            let d = gpr.trailing_zeros() as usize;
            match class {
                IssueClass::Load => {
                    self.ready_id[d] = id + 4;
                    self.ready_ex[d] = id + 2;
                }
                _ => {
                    self.ready_id[d] = id + 3;
                    self.ready_ex[d] = 0;
                }
            }
        }
        if dest_mask & (MASK_HI | MASK_LO) != 0 {
            let extra = match class {
                IssueClass::MulDiv { is_div: true } => self.config.div_latency.saturating_sub(1),
                IssueClass::MulDiv { is_div: false } => self.config.mult_latency.saturating_sub(1),
                _ => 0,
            } as u64;
            self.ready_id[HI] = id + 3 + extra;
            self.ready_id[LO] = id + 3 + extra;
            self.ready_ex[HI] = id + extra;
            self.ready_ex[LO] = id + extra;
        }
        id
    }

    /// The ID cycle the next instruction would be assigned absent any
    /// operand interlock — the anchor `X` a [`BlockPlan`]'s deltas are
    /// replayed against.
    #[inline]
    pub fn block_entry_id(&self) -> u64 {
        self.last_id + if self.redirect { 2 } else { 1 }
    }

    /// Whether a planned block can be replayed in one [`issue_block`]
    /// call from the current state: the cycle budget cannot interrupt
    /// any of the body's per-instruction polls, and no live-in operand
    /// interlock binds (every readiness bound is already at or below
    /// the cycle the plan schedules its first read).
    ///
    /// When this returns `false` the caller must fall back to
    /// per-instruction [`Timing::issue_masks`] calls, which handle interlocked
    /// and budget-interrupted blocks exactly.
    ///
    /// [`issue_block`]: Timing::issue_block
    #[inline]
    pub fn plan_fits(&self, plan: &BlockPlan, max_cycles: u64) -> bool {
        let x = self.block_entry_id();
        self.cycles() <= max_cycles
            && x + plan.delta_end as u64 + 4 <= max_cycles
            && plan.live_in.iter().all(|c| {
                let table = if c.at_id {
                    &self.ready_id
                } else {
                    &self.ready_ex
                };
                table[c.idx as usize] <= x + c.delta as u64
            })
    }

    /// Schedule a whole planned straight-line block in one call.
    ///
    /// `x` is the entry id captured from [`Timing::block_entry_id`]
    /// before the block started. The plan's precomputed schedule is
    /// shift-invariant in `x` (every intra-block constraint is
    /// relative), so replaying it — last ID, instruction count, and the
    /// final readiness publishes, each as `x + delta` — is bit-identical
    /// to issuing the body one instruction at a time, *provided*
    /// [`Timing::plan_fits`] held at entry.
    #[inline]
    pub fn issue_block(&mut self, plan: &BlockPlan, x: u64) {
        self.last_id = x + plan.delta_end as u64;
        self.redirect = false;
        self.instructions += plan.body_len as u64;
        for p in &plan.publishes {
            self.ready_id[p.idx as usize] = x + p.id_delta as u64;
            self.ready_ex[p.idx as usize] = match p.ex_delta {
                ExPublish::Reset => 0,
                ExPublish::Delta(d) => x + d as u64,
            };
        }
    }

    /// Freeze the front end for `n` cycles (monitoring exception
    /// handling by the OS).
    #[inline]
    pub fn stall(&mut self, n: u64) {
        self.last_id += n;
        self.stall_cycles += n;
    }

    /// Total cycles elapsed: last ID plus the drain of RR/EX/MEM/WB.
    #[inline]
    pub fn cycles(&self) -> u64 {
        if self.instructions == 0 {
            0
        } else {
            self.last_id + 4
        }
    }

    /// Instructions scheduled.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Cycles spent frozen in exception handling.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Serialize the complete scheduler state — config, both readiness
    /// tables, the front-end cursor, and the counters — for checkpoint
    /// serialization. Inverse of [`Timing::decode_from`].
    pub fn encode_into(&self, e: &mut Enc) {
        e.u32(self.config.mult_latency);
        e.u32(self.config.div_latency);
        for b in self.ready_id {
            e.u64(b);
        }
        for b in self.ready_ex {
            e.u64(b);
        }
        e.u64(self.last_id);
        e.bool(self.redirect);
        e.u64(self.stall_cycles);
        e.u64(self.instructions);
    }

    /// Rebuild a schedule serialized by [`Timing::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the bytes are truncated or malformed.
    pub fn decode_from(d: &mut Dec<'_>) -> Result<Timing, CodecError> {
        let config = TimingConfig {
            mult_latency: d.u32()?,
            div_latency: d.u32()?,
        };
        let mut ready_id = [0u64; NREGS];
        for b in &mut ready_id {
            *b = d.u64()?;
        }
        let mut ready_ex = [0u64; NREGS];
        for b in &mut ready_ex {
            *b = d.u64()?;
        }
        Ok(Timing {
            config,
            ready_id,
            ready_ex,
            last_id: d.u64()?,
            redirect: d.bool()?,
            stall_cycles: d.u64()?,
            instructions: d.u64()?,
        })
    }
}

impl Default for Timing {
    fn default() -> Self {
        Timing::new(TimingConfig::default())
    }
}

/// One live-in interlock of a planned block: register `idx` is read at
/// scheduled delta `delta` (at the ID or the EX level) before any
/// in-block write to it, so its readiness-table bound must already be
/// satisfied for the precomputed schedule to replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LiveIn {
    idx: u8,
    at_id: bool,
    delta: u32,
}

/// The EX-level readiness a block's last writer of a register leaves
/// behind: ALU-class writes reset the bound to zero, loads and HI/LO
/// writers publish a schedule-relative cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ExPublish {
    Reset,
    Delta(u32),
}

/// One final readiness-table write of a planned block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Publish {
    idx: u8,
    id_delta: u32,
    ex_delta: ExPublish,
}

/// The static schedule of one basic block's straight-line body (every
/// entry but the terminating one), computed once at block-cache build
/// time and replayed per dispatch by [`Timing::issue_block`].
///
/// The body contains no control flow, so — relative to the cycle its
/// first instruction issues — its schedule is a pure function of the
/// instructions and the [`TimingConfig`]: in-order sequencing,
/// intra-block interlocks, and multi-cycle latencies all shift with the
/// entry cycle. What *cannot* be precomputed is folded into two small
/// dynamic checks ([`Timing::plan_fits`]): live-in operand interlocks
/// against the run's readiness tables, and the cycle budget.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockPlan {
    /// Instructions in the planned body.
    body_len: u32,
    /// Schedule delta of the body's last instruction (0 for the first).
    delta_end: u32,
    /// Live-in reads whose readiness bounds must be checked per
    /// dispatch: one per (register, read level), at the earliest delta
    /// that reads it (later reads of the same register at the same
    /// level are implied). Only constraints that can actually bind
    /// under the plan's [`TimingConfig`] are kept: a read so deep into
    /// the block that no reachable readiness bound can exceed its read
    /// cycle is dropped at build time.
    live_in: Vec<LiveIn>,
    /// Final readiness-table state per register the body writes.
    publishes: Vec<Publish>,
}

impl BlockPlan {
    /// Plan a block body by simulating it once on a fresh schedule
    /// (all live-ins ready, entry id 1) and recording deltas, live-in
    /// constraints, and the final readiness publishes.
    pub fn build(body: &[PredecodedEntry], config: TimingConfig) -> BlockPlan {
        let mut t = Timing::new(config);
        let mut written = 0u64;
        let mut live_in: Vec<LiveIn> = Vec::new();
        let mut delta_end = 0u32;
        for e in body {
            let live = e.src_mask & !written;
            let id = t.issue_masks(e.klass, e.src_mask, e.dest_mask, false);
            let delta = (id - 1) as u32;
            delta_end = delta;
            let at_id = matches!(e.klass, IssueClass::IdReader);
            let mut m = live;
            while m != 0 {
                let idx = m.trailing_zeros() as u8;
                m &= m - 1;
                // Keep only the earliest read per (register, level):
                // deltas are monotonic, so it is the binding one.
                if !live_in.iter().any(|c| c.idx == idx && c.at_id == at_id) {
                    live_in.push(LiveIn { idx, at_id, delta });
                }
            }
            written |= e.dest_mask;
        }
        // Drop the provably-dead live-in constraints: a check is dead
        // when no readiness bound reachable at block entry can exceed
        // its read cycle. At entry, `x ≥ last_id + 1` and every
        // producer issued at `id ≤ last_id = x − 1`, so the bounds top
        // out at `x + 3` (GPR at ID, via a load's `id + 4`), `x + 1`
        // (GPR at EX, load's `id + 2`), `x + 2 + extra` (HI/LO at ID)
        // and `x − 1 + extra` (HI/LO at EX), where `extra` is the worst
        // multi-cycle unit latency minus one. Stalls only move
        // `last_id` further past published bounds, never the reverse.
        let extra_max = config
            .mult_latency
            .max(config.div_latency)
            .saturating_sub(1);
        let provably_dead = |c: &LiveIn| {
            let horizon = match ((c.idx as usize) >= HI, c.at_id) {
                (false, true) => 3,
                (false, false) => 1,
                (true, true) => 2 + extra_max,
                (true, false) => extra_max.saturating_sub(1),
            };
            c.delta >= horizon
        };
        live_in.retain(|c| !provably_dead(c));
        let mut publishes = Vec::with_capacity(written.count_ones() as usize);
        let mut m = written;
        while m != 0 {
            let idx = m.trailing_zeros() as usize;
            m &= m - 1;
            publishes.push(Publish {
                idx: idx as u8,
                id_delta: (t.ready_id[idx] - 1) as u32,
                ex_delta: match t.ready_ex[idx] {
                    0 => ExPublish::Reset,
                    v => ExPublish::Delta((v - 1) as u32),
                },
            });
        }
        BlockPlan {
            body_len: body.len() as u32,
            delta_end,
            live_in,
            publishes,
        }
    }

    /// Instructions in the planned body.
    pub fn body_len(&self) -> usize {
        self.body_len as usize
    }

    /// Live-in interlock checks this plan performs per dispatch.
    pub fn live_in_checks(&self) -> usize {
        self.live_in.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu(t: &mut Timing, srcs: &[Reg], dest: Option<Reg>) -> u64 {
        t.issue(IssueClass::Alu, srcs, false, false, dest, false, false)
    }

    #[test]
    fn straight_line_is_one_per_cycle() {
        let mut t = Timing::default();
        assert_eq!(alu(&mut t, &[], Some(Reg::T0)), 1);
        assert_eq!(alu(&mut t, &[Reg::T0], Some(Reg::T1)), 2); // full forwarding
        assert_eq!(alu(&mut t, &[Reg::T1], Some(Reg::T2)), 3);
        assert_eq!(t.cycles(), 3 + 4);
        assert_eq!(t.instructions(), 3);
    }

    #[test]
    fn load_use_costs_one_bubble() {
        let mut t = Timing::default();
        let lid = t.issue(
            IssueClass::Load,
            &[Reg::SP],
            false,
            false,
            Some(Reg::T0),
            false,
            false,
        );
        assert_eq!(lid, 1);
        // Adjacent consumer: id ≥ 1 + 2 = 3 (one bubble).
        assert_eq!(alu(&mut t, &[Reg::T0], Some(Reg::T1)), 3);
    }

    #[test]
    fn load_then_unrelated_then_use_has_no_bubble() {
        let mut t = Timing::default();
        t.issue(
            IssueClass::Load,
            &[Reg::SP],
            false,
            false,
            Some(Reg::T0),
            false,
            false,
        );
        alu(&mut t, &[], Some(Reg::T5));
        assert_eq!(alu(&mut t, &[Reg::T0], Some(Reg::T1)), 3);
    }

    #[test]
    fn branch_waits_for_alu_producer() {
        let mut t = Timing::default();
        alu(&mut t, &[], Some(Reg::T0)); // id 1, forwardable to ID at 4
        let bid = t.issue(
            IssueClass::IdReader,
            &[Reg::T0],
            false,
            false,
            None,
            false,
            true,
        );
        assert_eq!(bid, 4); // two stall cycles over the nominal 2
    }

    #[test]
    fn branch_waits_longer_for_load_producer() {
        let mut t = Timing::default();
        t.issue(
            IssueClass::Load,
            &[Reg::SP],
            false,
            false,
            Some(Reg::T0),
            false,
            false,
        );
        let bid = t.issue(
            IssueClass::IdReader,
            &[Reg::T0],
            false,
            false,
            None,
            false,
            false,
        );
        assert_eq!(bid, 5); // 1 + 4
    }

    #[test]
    fn distant_branch_has_no_stall() {
        let mut t = Timing::default();
        alu(&mut t, &[], Some(Reg::T0)); // 1
        alu(&mut t, &[], Some(Reg::T5)); // 2
        alu(&mut t, &[], Some(Reg::T6)); // 3
        let bid = t.issue(
            IssueClass::IdReader,
            &[Reg::T0],
            false,
            false,
            None,
            false,
            false,
        );
        assert_eq!(bid, 4);
    }

    #[test]
    fn taken_redirect_costs_one_bubble() {
        let mut t = Timing::default();
        t.issue(IssueClass::IdReader, &[], false, false, None, false, true); // id 1
        assert_eq!(alu(&mut t, &[], None), 3); // 1 + 2
                                               // Not-taken: no bubble.
        t.issue(IssueClass::IdReader, &[], false, false, None, false, false); // id 4
        assert_eq!(alu(&mut t, &[], None), 5);
    }

    #[test]
    fn muldiv_latency_delays_mflo() {
        let mut t = Timing::new(TimingConfig {
            mult_latency: 4,
            div_latency: 16,
        });
        t.issue(
            IssueClass::MulDiv { is_div: false },
            &[Reg::T0, Reg::T1],
            false,
            false,
            None,
            true,
            false,
        ); // id 1
           // mflo reads LO at EX: ready_ex = 1 + 3 = 4.
        let m = t.issue(
            IssueClass::Alu,
            &[],
            false,
            true,
            Some(Reg::T2),
            false,
            false,
        );
        assert_eq!(m, 4);

        let mut t = Timing::new(TimingConfig {
            mult_latency: 1,
            div_latency: 1,
        });
        t.issue(
            IssueClass::MulDiv { is_div: false },
            &[Reg::T0, Reg::T1],
            false,
            false,
            None,
            true,
            false,
        );
        let m = t.issue(
            IssueClass::Alu,
            &[],
            false,
            true,
            Some(Reg::T2),
            false,
            false,
        );
        assert_eq!(m, 2); // single-cycle unit: no wait
    }

    #[test]
    fn div_uses_div_latency() {
        let mut t = Timing::new(TimingConfig {
            mult_latency: 4,
            div_latency: 16,
        });
        t.issue(
            IssueClass::MulDiv { is_div: true },
            &[Reg::T0, Reg::T1],
            false,
            false,
            None,
            true,
            false,
        );
        let m = t.issue(
            IssueClass::Alu,
            &[],
            true,
            false,
            Some(Reg::T2),
            false,
            false,
        );
        assert_eq!(m, 16); // 1 + 15
    }

    #[test]
    fn monitor_stall_freezes_front_end() {
        let mut t = Timing::default();
        alu(&mut t, &[], None); // id 1
        t.stall(100);
        assert_eq!(alu(&mut t, &[], None), 102);
        assert_eq!(t.stall_cycles(), 100);
    }

    #[test]
    fn zero_register_never_interlocks() {
        let mut t = Timing::default();
        t.issue(
            IssueClass::Load,
            &[Reg::SP],
            false,
            false,
            Some(Reg::ZERO),
            false,
            false,
        );
        // Consumer of $zero: no hazard even though the load "wrote" it.
        assert_eq!(
            t.issue(
                IssueClass::IdReader,
                &[Reg::ZERO],
                false,
                false,
                None,
                false,
                false
            ),
            2
        );
    }

    #[test]
    fn empty_program_has_zero_cycles() {
        let t = Timing::default();
        assert_eq!(t.cycles(), 0);
    }

    #[test]
    fn encode_decode_round_trips_scheduler_state() {
        let mut t = Timing::default();
        t.issue(
            IssueClass::Load,
            &[Reg::SP],
            false,
            false,
            Some(Reg::T0),
            false,
            false,
        );
        t.issue(
            IssueClass::MulDiv { is_div: true },
            &[Reg::T0, Reg::T1],
            false,
            false,
            None,
            true,
            true,
        );
        t.stall(100);
        let mut e = Enc::new();
        t.encode_into(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let mut back = Timing::decode_from(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.config(), t.config());
        assert_eq!(back.cycles(), t.cycles());
        assert_eq!(back.instructions(), t.instructions());
        assert_eq!(back.stall_cycles(), t.stall_cycles());
        // Every future decision must agree, including the pending
        // HI/LO latency bound and the redirect bubble.
        for i in 0..10u64 {
            let a = t.issue(
                IssueClass::IdReader,
                &[Reg::T0],
                i % 2 == 0,
                false,
                Some(Reg::T3),
                false,
                i % 3 == 0,
            );
            let b = back.issue(
                IssueClass::IdReader,
                &[Reg::T0],
                i % 2 == 0,
                false,
                Some(Reg::T3),
                false,
                i % 3 == 0,
            );
            assert_eq!(a, b, "diverged at instruction {i}");
        }
        assert!(Timing::decode_from(&mut Dec::new(&bytes[..40])).is_err());
    }

    #[test]
    fn provably_dead_live_ins_are_dropped_at_build() {
        use crate::predecode::PredecodedEntry;
        use cimon_isa::Instr;
        // Each `addu $r,$r,$r` below reads a fresh live-in at EX, one
        // instruction deeper than the last: only the read at delta 0 is
        // inside the GPR-at-EX horizon (1). The closing read of
        // $t0/$t1 at delta 5 is dead too.
        let pc = 0x0040_0000;
        let addu = |d: u32, s: u32, t: u32| (s << 21) | (t << 16) | (d << 11) | 0x21;
        let body: Vec<PredecodedEntry> = (0..6u32)
            .map(|i| {
                let w = if i == 5 {
                    addu(10, 8, 9) // reads $t0/$t1 live at delta 5
                } else {
                    addu(11 + i, 11 + i, 11 + i) // self-churn
                };
                PredecodedEntry::new(pc + 4 * i, w, Instr::decode(w).unwrap())
            })
            .collect();
        let plan = BlockPlan::build(&body, TimingConfig::default());
        assert_eq!(plan.live_in_checks(), 1);
        // The kept check binds: right behind a load of $t3 it rejects
        // the replay; behind an unrelated load the plan fits.
        let load = |dest: Reg| {
            let mut t = Timing::default();
            t.issue(
                IssueClass::Load,
                &[Reg::SP],
                false,
                false,
                Some(dest),
                false,
                false,
            );
            t
        };
        assert!(!load(Reg::T3).plan_fits(&plan, u64::MAX));
        assert!(load(Reg::T0).plan_fits(&plan, u64::MAX));
    }
}
