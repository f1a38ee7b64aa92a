//! The monitoring exception handler.
//!
//! [`OsKernel`] owns the FHT and a refill policy and implements the
//! paper's exception protocol: on `exception0` (hash miss) it searches
//! the FHT, refills the IHT, and lets the program continue — or
//! terminates it if the block is unknown or its dynamic hash is wrong;
//! on `exception1` (hash mismatch) it terminates immediately. Every
//! exception costs a fixed number of cycles (100 in the paper's
//! Table 1).

use std::sync::Arc;

use cimon_core::{BlockKey, Cic};
use cimon_isa::codec::{CodecError, Dec, Enc};

use crate::fht::FullHashTable;
use crate::policy::{PolicyState, RefillPolicy, ReplaceHalfLru};

/// Cost model for OS exception handling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExceptionCost {
    /// Cycles charged per monitoring exception (FHT search + refill).
    pub cycles: u64,
}

impl Default for ExceptionCost {
    /// The paper's assumption: 100 cycles per exception.
    fn default() -> Self {
        ExceptionCost { cycles: 100 }
    }
}

/// Why the kernel killed the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminationCause {
    /// Dynamic hash disagreed with the expected hash (in the IHT or,
    /// after a miss, in the FHT): the code was altered.
    HashMismatch {
        /// The block whose check failed.
        block: BlockKey,
        /// Expected hash from the table.
        expected: u32,
        /// Hash computed from the executed instructions.
        actual: u32,
    },
    /// The executed block exists in neither the IHT nor the FHT: the
    /// control flow or code layout deviates from the expected program.
    UnknownBlock {
        /// The offending block key.
        block: BlockKey,
    },
}

/// Outcome of handling a hash-miss exception.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissResolution {
    /// The FHT confirmed the block; the IHT has been refilled and the
    /// program continues.
    Refilled {
        /// Entries the policy wrote into the IHT.
        entries_written: usize,
    },
    /// The program must be terminated.
    Terminate(TerminationCause),
}

/// Kernel counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OsStats {
    /// Hash-miss exceptions handled.
    pub miss_exceptions: u64,
    /// Mismatch exceptions handled (always fatal).
    pub mismatch_exceptions: u64,
    /// Total IHT entries written by refills.
    pub entries_refilled: u64,
    /// Total cycles spent in exception handling.
    pub exception_cycles: u64,
}

/// Captured run state of the kernel: exception counters plus whatever
/// cross-miss state the refill policy carries. The FHT itself is not
/// part of a snapshot — it is immutable once generated and stays shared
/// behind its [`Arc`].
#[derive(Clone, Debug)]
pub struct OsKernelState {
    stats: OsStats,
    policy: PolicyState,
}

impl OsKernelState {
    /// Serialize the captured kernel state for checkpoint serialization.
    pub fn encode_into(&self, e: &mut Enc) {
        e.u64(self.stats.miss_exceptions);
        e.u64(self.stats.mismatch_exceptions);
        e.u64(self.stats.entries_refilled);
        e.u64(self.stats.exception_cycles);
        self.policy.encode_into(e);
    }

    /// Rebuild a state serialized by [`OsKernelState::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a malformed policy state.
    pub fn decode_from(d: &mut Dec<'_>) -> Result<OsKernelState, CodecError> {
        let stats = OsStats {
            miss_exceptions: d.u64()?,
            mismatch_exceptions: d.u64()?,
            entries_refilled: d.u64()?,
            exception_cycles: d.u64()?,
        };
        let policy = PolicyState::decode_from(d)?;
        Ok(OsKernelState { stats, policy })
    }
}

/// The OS model: FHT + refill policy + cost accounting.
///
/// The FHT is held behind an [`Arc`]: it is immutable once generated, so
/// sweeps that run one program across many checker configurations share
/// a single table instead of cloning the whole map per run.
pub struct OsKernel {
    fht: Arc<FullHashTable>,
    policy: Box<dyn RefillPolicy>,
    cost: ExceptionCost,
    stats: OsStats,
}

impl std::fmt::Debug for OsKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OsKernel")
            .field("fht_entries", &self.fht.len())
            .field("policy", &self.policy.name())
            .field("cost", &self.cost)
            .field("stats", &self.stats)
            .finish()
    }
}

impl OsKernel {
    /// A kernel with the paper's defaults: replace-half-LRU refill,
    /// 100-cycle exceptions.
    pub fn new(fht: impl Into<Arc<FullHashTable>>) -> OsKernel {
        OsKernel::with_policy(fht, Box::new(ReplaceHalfLru::default()))
    }

    /// A kernel with a custom refill policy.
    pub fn with_policy(
        fht: impl Into<Arc<FullHashTable>>,
        policy: Box<dyn RefillPolicy>,
    ) -> OsKernel {
        OsKernel {
            fht: fht.into(),
            policy,
            cost: ExceptionCost::default(),
            stats: OsStats::default(),
        }
    }

    /// Override the exception cost model.
    pub fn set_exception_cost(&mut self, cost: ExceptionCost) {
        self.cost = cost;
    }

    /// The loaded FHT.
    pub fn fht(&self) -> &FullHashTable {
        &self.fht
    }

    /// The shared handle to the loaded FHT (for further sharing).
    pub fn fht_arc(&self) -> Arc<FullHashTable> {
        self.fht.clone()
    }

    /// Name of the active refill policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Kernel counters so far.
    pub fn stats(&self) -> OsStats {
        self.stats
    }

    /// Capture the kernel's run state for a checkpoint.
    pub fn snapshot_state(&self) -> OsKernelState {
        OsKernelState {
            stats: self.stats,
            policy: self.policy.snapshot_state(),
        }
    }

    /// Reinstate run state captured by [`OsKernel::snapshot_state`].
    pub fn restore_state(&mut self, state: &OsKernelState) {
        self.stats = state.stats;
        self.policy.restore_state(&state.policy);
    }

    /// Handle `exception0` (hash miss) for the block `key` whose dynamic
    /// hash is `actual`.
    pub fn handle_miss(&mut self, cic: &mut Cic, key: BlockKey, actual: u32) -> MissResolution {
        self.stats.miss_exceptions += 1;
        self.stats.exception_cycles += self.cost.cycles;
        // One binary search finds the record and, right after it, the
        // refill's prefetch candidates.
        let records = self.fht.records();
        let Some(i) = self.fht.find(key) else {
            return MissResolution::Terminate(TerminationCause::UnknownBlock { block: key });
        };
        let expected = records[i];
        if expected.hash != actual {
            return MissResolution::Terminate(TerminationCause::HashMismatch {
                block: key,
                expected: expected.hash,
                actual,
            });
        }
        let written = self
            .policy
            .refill(cic.iht_mut(), &records[i + 1..], expected);
        self.stats.entries_refilled += written as u64;
        MissResolution::Refilled {
            entries_written: written,
        }
    }

    /// Handle `exception1` (hash mismatch): always fatal.
    pub fn handle_mismatch(
        &mut self,
        key: BlockKey,
        expected: u32,
        actual: u32,
    ) -> TerminationCause {
        self.stats.mismatch_exceptions += 1;
        self.stats.exception_cycles += self.cost.cycles;
        TerminationCause::HashMismatch {
            block: key,
            expected,
            actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimon_core::{BlockRecord, CicConfig};

    fn rec(start: u32, hash: u32) -> BlockRecord {
        BlockRecord {
            key: BlockKey::new(start, start + 4),
            hash,
        }
    }

    fn kernel() -> OsKernel {
        OsKernel::new(
            (0..8u32)
                .map(|i| rec(0x1000 + 0x10 * i, 100 + i))
                .collect::<FullHashTable>(),
        )
    }

    #[test]
    fn miss_on_known_block_refills_and_continues() {
        let mut os = kernel();
        let mut cic = Cic::new(CicConfig::with_entries(8));
        let key = BlockKey::new(0x1000, 0x1004);
        match os.handle_miss(&mut cic, key, 100) {
            MissResolution::Refilled { entries_written } => assert_eq!(entries_written, 4),
            other => panic!("unexpected {other:?}"),
        }
        // The missing block is now resident; a re-check hits.
        assert_eq!(cic.check_block(key, 100), (true, true));
        assert_eq!(os.stats().miss_exceptions, 1);
        assert_eq!(os.stats().entries_refilled, 4);
        assert_eq!(os.stats().exception_cycles, 100);
    }

    #[test]
    fn miss_on_unknown_block_terminates() {
        let mut os = kernel();
        let mut cic = Cic::new(CicConfig::with_entries(8));
        let key = BlockKey::new(0x9000, 0x9004);
        assert_eq!(
            os.handle_miss(&mut cic, key, 0),
            MissResolution::Terminate(TerminationCause::UnknownBlock { block: key })
        );
    }

    #[test]
    fn miss_with_wrong_hash_terminates() {
        let mut os = kernel();
        let mut cic = Cic::new(CicConfig::with_entries(8));
        let key = BlockKey::new(0x1000, 0x1004);
        assert_eq!(
            os.handle_miss(&mut cic, key, 0xbad),
            MissResolution::Terminate(TerminationCause::HashMismatch {
                block: key,
                expected: 100,
                actual: 0xbad
            })
        );
    }

    #[test]
    fn mismatch_is_always_fatal_and_costed() {
        let mut os = kernel();
        let key = BlockKey::new(0x1000, 0x1004);
        let cause = os.handle_mismatch(key, 100, 0xbad);
        assert!(matches!(cause, TerminationCause::HashMismatch { .. }));
        assert_eq!(os.stats().mismatch_exceptions, 1);
        assert_eq!(os.stats().exception_cycles, 100);
    }

    #[test]
    fn custom_cost_model() {
        let mut os = kernel();
        os.set_exception_cost(ExceptionCost { cycles: 250 });
        let mut cic = Cic::new(CicConfig::with_entries(2));
        os.handle_miss(&mut cic, BlockKey::new(0x1000, 0x1004), 100);
        assert_eq!(os.stats().exception_cycles, 250);
    }

    #[test]
    fn policy_name_is_reported() {
        assert_eq!(kernel().policy_name(), "replace-half-lru");
    }

    #[test]
    fn snapshot_round_trips_stats_and_policy_cursor() {
        use crate::policy::Fifo;
        let fht: FullHashTable = (0..8u32).map(|i| rec(0x1000 + 0x10 * i, 100 + i)).collect();
        let mut os = OsKernel::with_policy(fht, Box::new(Fifo::default()));
        let mut cic = Cic::new(CicConfig::with_entries(2));
        os.handle_miss(&mut cic, BlockKey::new(0x1000, 0x1004), 100);
        let snap = os.snapshot_state();
        let stats_at_snap = os.stats();
        let cic_at_snap = cic.clone();

        // Diverge: two more misses advance the FIFO cursor and counters.
        os.handle_miss(&mut cic, BlockKey::new(0x1010, 0x1014), 101);
        os.handle_miss(&mut cic, BlockKey::new(0x1020, 0x1024), 102);
        assert_ne!(os.stats(), stats_at_snap);

        os.restore_state(&snap);
        assert_eq!(os.stats(), stats_at_snap);
        // The restored FIFO cursor replays the uninterrupted victim
        // sequence: the next refill takes slot 1, so the first block
        // stays resident alongside the new one.
        let mut cic = cic_at_snap;
        os.handle_miss(&mut cic, BlockKey::new(0x1010, 0x1014), 101);
        assert!(cic.iht().probe(BlockKey::new(0x1000, 0x1004)).is_some());
        assert!(cic.iht().probe(BlockKey::new(0x1010, 0x1014)).is_some());
    }

    #[test]
    fn kernel_state_encode_decode_round_trips() {
        use crate::policy::Fifo;
        use cimon_isa::codec::{Dec, Enc};
        let fht: FullHashTable = (0..8u32).map(|i| rec(0x1000 + 0x10 * i, 100 + i)).collect();
        let mut os = OsKernel::with_policy(fht, Box::new(Fifo::default()));
        let mut cic = Cic::new(CicConfig::with_entries(2));
        os.handle_miss(&mut cic, BlockKey::new(0x1000, 0x1004), 100);
        let snap = os.snapshot_state();
        let mut e = Enc::new();
        snap.encode_into(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = OsKernelState::decode_from(&mut d).unwrap();
        d.finish().unwrap();
        // Restoring the decoded state reproduces stats and the FIFO
        // cursor's next victim.
        let stats_at_snap = os.stats();
        os.handle_miss(&mut cic, BlockKey::new(0x1010, 0x1014), 101);
        os.restore_state(&back);
        assert_eq!(os.stats(), stats_at_snap);
        assert!(OsKernelState::decode_from(&mut Dec::new(&bytes[..7])).is_err());
    }

    #[test]
    fn random_policy_state_round_trips() {
        use crate::policy::RandomReplace;
        let fht: FullHashTable = (0..8u32).map(|i| rec(0x1000 + 0x10 * i, 100 + i)).collect();
        let mut os = OsKernel::with_policy(fht, Box::new(RandomReplace::new(7)));
        let mut cic = Cic::new(CicConfig::with_entries(8));
        os.handle_miss(&mut cic, BlockKey::new(0x1000, 0x1004), 100);
        let snap = os.snapshot_state();

        let resident = |cic: &Cic| {
            let mut v: Vec<u32> = cic.iht().records().map(|r| r.key.start).collect();
            v.sort_unstable();
            v
        };
        // Run the next miss twice from the same captured RNG state; both
        // replays must pick the same victim.
        let mut cic_a = cic.clone();
        os.handle_miss(&mut cic_a, BlockKey::new(0x1010, 0x1014), 101);
        let a = resident(&cic_a);
        os.restore_state(&snap);
        let mut cic_b = cic.clone();
        os.handle_miss(&mut cic_b, BlockKey::new(0x1010, 0x1014), 101);
        assert_eq!(a, resident(&cic_b));
    }
}
