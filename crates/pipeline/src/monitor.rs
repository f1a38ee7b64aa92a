//! The monitor: the paper's Code Integrity Checker plus the OS
//! exception handler, as the pipeline drives it.
//!
//! The paper hard-wires one monitor into the fetch and decode stages:
//! `HASHFU` + `IHTbb` + the comparator, backed by the OS refill and
//! termination protocol. [`CicMonitor`] is that monitor. A processor
//! holds an `Option<CicMonitor>` (`None` is the baseline) and drives it
//! through four events:
//!
//! 1. a word leaves the fetch bus: [`Cic::hash_step`] (`HASHFU.ope`);
//! 2. a block boundary commits: [`Cic::hash_reset`];
//! 3. a control-flow instruction reaches ID: [`Cic::check_block`]
//!    (`IHTbb.lookup`), or [`CicMonitor::observe_check_reset`] for a
//!    whole bulk-validated block;
//! 4. a check raised an exception: [`CicMonitor::resolve`] returns the
//!    [`Verdict`].

use cimon_core::{BlockKey, BlockMemo, Cic};
use cimon_isa::codec::{CodecError, Dec, Enc};
use cimon_microop::ExceptionKind;
use cimon_os::{MissResolution, OsKernel, OsKernelState, TerminationCause};

use crate::processor::MonitorConfig;

/// What the monitor tells the pipeline after an exception it
/// raised has been serviced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Execution continues; the pipeline freezes for `stall_cycles`
    /// (the OS exception-handling cost, 100 cycles in the paper).
    Continue {
        /// Cycles the pipeline stalls while the handler runs.
        stall_cycles: u64,
    },
    /// The program is killed.
    Kill(TerminationCause),
}

/// [`CicMonitor`]'s captured state: the checker hardware — running
/// digest, IHT contents and LRU order, statistics — plus the OS kernel's
/// counters and refill-policy cursor. The FHT stays shared behind its
/// `Arc` and is not copied.
#[derive(Clone, Debug)]
pub struct CicMonitorState {
    cic: Cic,
    os: OsKernelState,
}

impl CicMonitorState {
    /// Serialize the captured state for a checkpoint: the checker
    /// hardware, then the OS kernel state. The FHT is configuration,
    /// not run state, and is not written — a decoded state is
    /// reinstated into a monitor that already owns the table.
    pub fn encode_into(&self, e: &mut Enc) {
        self.cic.encode_into(e);
        self.os.encode_into(e);
    }

    /// Rebuild a state serialized by [`CicMonitorState::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a malformed checker or kernel
    /// payload.
    pub fn decode_from(d: &mut Dec<'_>) -> Result<CicMonitorState, CodecError> {
        let cic = Cic::decode_from(d)?;
        let os = OsKernelState::decode_from(d)?;
        Ok(CicMonitorState { cic, os })
    }
}

/// The paper's monitor: CIC hardware checked against the OS-managed FHT.
pub struct CicMonitor {
    /// The checker hardware; the pipeline calls its hash and lookup
    /// operations directly.
    pub(crate) cic: Cic,
    os: OsKernel,
    stall_cycles: u64,
}

impl std::fmt::Debug for CicMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CicMonitor")
            .field("cic", &self.cic)
            .field("os", &self.os)
            .finish()
    }
}

impl CicMonitor {
    /// Assemble the checker and the OS side from a [`MonitorConfig`].
    pub fn new(config: MonitorConfig) -> CicMonitor {
        let cic = Cic::new(config.cic);
        let mut os = OsKernel::with_policy(config.fht, config.policy.build());
        os.set_exception_cost(config.exception_cost);
        CicMonitor {
            cic,
            os,
            stall_cycles: config.exception_cost.cycles,
        }
    }

    /// The checker hardware.
    pub fn cic(&self) -> &Cic {
        &self.cic
    }

    /// The OS kernel.
    pub fn os(&self) -> &OsKernel {
        &self.os
    }

    /// One whole bulk-validated block as a single transaction: absorb
    /// `words`, check the digest for `key`, restart the digest —
    /// returning `(digest, found, match)`, exactly what the per-word
    /// hash steps, the check and the reset would have produced.
    ///
    /// `memo` is `Some` only when the digest sits at reset on entry and
    /// `words` are the immutable cached words of the one block slot the
    /// memo belongs to, proven equal to memory: the digest and IHT way
    /// are then memoised there ([`Cic::check_block_memo`]).
    pub fn observe_check_reset(
        &mut self,
        words: &[u32],
        key: BlockKey,
        memo: Option<&mut BlockMemo>,
    ) -> (u32, bool, bool) {
        if let Some(memo) = memo {
            return self.cic.check_block_memo(words, key, memo);
        }
        let digest = self.cic.hash_block_step(words);
        let (found, matched) = self.cic.check_block(key, digest);
        self.cic.hash_reset();
        (digest, found, matched)
    }

    /// Service an exception raised by the check program.
    pub fn resolve(&mut self, kind: ExceptionKind, key: BlockKey, hash: u32) -> Verdict {
        match kind {
            ExceptionKind::HashMiss => match self.os.handle_miss(&mut self.cic, key, hash) {
                MissResolution::Refilled { .. } => Verdict::Continue {
                    stall_cycles: self.stall_cycles,
                },
                MissResolution::Terminate(cause) => Verdict::Kill(cause),
            },
            ExceptionKind::HashMismatch => {
                let expected = self
                    .cic
                    .iht()
                    .probe(key)
                    .map(|r| r.hash)
                    .unwrap_or_default();
                Verdict::Kill(self.os.handle_mismatch(key, expected, hash))
            }
        }
    }

    /// Capture the complete run state for a checkpoint.
    pub fn snapshot_state(&self) -> CicMonitorState {
        CicMonitorState {
            cic: self.cic.clone(),
            os: self.os.snapshot_state(),
        }
    }

    /// Reinstate run state captured by [`CicMonitor::snapshot_state`].
    pub fn restore_state(&mut self, state: &CicMonitorState) {
        self.cic = state.cic.clone();
        self.os.restore_state(&state.os);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimon_core::{BlockRecord, CicConfig};
    use cimon_os::FullHashTable;

    fn rec(start: u32, hash: u32) -> BlockRecord {
        BlockRecord {
            key: BlockKey::new(start, start + 8),
            hash,
        }
    }

    #[test]
    fn cic_monitor_miss_refills_then_hits() {
        let fht: FullHashTable = [rec(0x1000, 7)].into_iter().collect();
        let mut m = CicMonitor::new(MonitorConfig::new(CicConfig::with_entries(4), fht));
        assert_eq!(m.cic.config().iht_entries, 4);
        let key = BlockKey::new(0x1000, 0x1008);
        // Cold table: miss, then the OS refill verdict stalls 100 cycles.
        assert_eq!(m.cic.check_block(key, 7), (false, false));
        assert_eq!(
            m.resolve(ExceptionKind::HashMiss, key, 7),
            Verdict::Continue { stall_cycles: 100 }
        );
        assert_eq!(m.cic.check_block(key, 7), (true, true));
        assert_eq!(m.cic.stats().checks, 2);
        assert_eq!(m.os.stats().miss_exceptions, 1);
    }

    #[test]
    fn cic_monitor_mismatch_kills() {
        let fht: FullHashTable = [rec(0x1000, 7)].into_iter().collect();
        let mut m = CicMonitor::new(MonitorConfig::new(CicConfig::with_entries(4), fht));
        let key = BlockKey::new(0x1000, 0x1008);
        m.resolve(ExceptionKind::HashMiss, key, 7); // load the entry
        assert_eq!(m.cic.check_block(key, 9), (true, false));
        match m.resolve(ExceptionKind::HashMismatch, key, 9) {
            Verdict::Kill(TerminationCause::HashMismatch {
                expected, actual, ..
            }) => {
                assert_eq!((expected, actual), (7, 9));
            }
            other => panic!("expected kill, got {other:?}"),
        }
    }

    #[test]
    fn cic_monitor_state_round_trips() {
        let fht: FullHashTable = [rec(0x1000, 7), rec(0x2000, 9)].into_iter().collect();
        let mut m = CicMonitor::new(MonitorConfig::new(CicConfig::with_entries(4), fht));
        let key = BlockKey::new(0x1000, 0x1008);
        m.cic.hash_step(3);
        m.cic.check_block(key, 3);
        m.resolve(ExceptionKind::HashMiss, key, 7); // refill
        m.cic.hash_step(5); // digest mid-block at snapshot time

        let snap = m.snapshot_state();
        let digest = m.cic.hash_value();
        let stats = m.cic.stats();
        let os_stats = m.os.stats();

        // Diverge.
        m.cic.hash_step(0xffff);
        m.cic.hash_reset();
        m.cic.check_block(BlockKey::new(0x2000, 0x2008), 0);
        m.resolve(ExceptionKind::HashMiss, BlockKey::new(0x2000, 0x2008), 9);
        assert_ne!(m.cic.stats(), stats);

        m.restore_state(&snap);
        assert_eq!(m.cic.hash_value(), digest);
        assert_eq!(m.cic.stats(), stats);
        assert_eq!(m.os.stats(), os_stats);
        // Table residency restored: the refilled block hits again.
        assert_eq!(m.cic.check_block(key, 7), (true, true));
    }

    #[test]
    fn monitor_state_encode_decode_round_trips() {
        let fht: FullHashTable = [rec(0x1000, 7), rec(0x2000, 9)].into_iter().collect();
        let mut m = CicMonitor::new(MonitorConfig::new(CicConfig::with_entries(4), fht));
        let key = BlockKey::new(0x1000, 0x1008);
        m.resolve(ExceptionKind::HashMiss, key, 7);
        m.cic.hash_step(5); // mid-block digest at capture time

        let snap = m.snapshot_state();
        let mut e = Enc::new();
        snap.encode_into(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = CicMonitorState::decode_from(&mut d).unwrap();
        d.finish().unwrap();

        let digest = m.cic.hash_value();
        let stats = m.cic.stats();
        m.cic.hash_step(0xffff); // diverge
        m.restore_state(&back);
        assert_eq!(m.cic.hash_value(), digest);
        assert_eq!(m.cic.stats(), stats);
        assert_eq!(m.cic.check_block(key, 7), (true, true));

        assert!(CicMonitorState::decode_from(&mut Dec::new(&bytes[..bytes.len() - 4])).is_err());
    }

    #[test]
    fn cic_monitor_unknown_block_kills() {
        let fht: FullHashTable = [rec(0x1000, 7)].into_iter().collect();
        let mut m = CicMonitor::new(MonitorConfig::new(CicConfig::with_entries(4), fht));
        let key = BlockKey::new(0x9000, 0x9008);
        assert_eq!(
            m.resolve(ExceptionKind::HashMiss, key, 3),
            Verdict::Kill(TerminationCause::UnknownBlock { block: key })
        );
    }
}
