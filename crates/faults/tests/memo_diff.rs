//! Differential oracle for the memoised block check.
//!
//! On the planned block path, a block entered with the hash unit at
//! reset replays a per-slot memoised digest and probes its IHT way hint
//! first instead of hashing its words and scanning the table. Every
//! path where the fetched words can differ from the cached ones —
//! stored-image tampering, fetch-bus fault taps, per-instruction
//! stepping — keeps per-word hashing and full lookups, and per-
//! instruction stepping (`BlockExec::Off`) is the oracle.
//!
//! For random corpus programs under every hash algorithm (random
//! seeds), every refill policy, IHT sizes from 1 to 256 entries, and no
//! fault, a stored-image bit flip, or a stuck-at fetch-bus fault, the
//! block-dispatch run must equal the stepped one in outcome, run
//! statistics, checker and table statistics, LRU order, and snapshot
//! bytes — both at a mid-run cut and at the end, with the block run
//! continued from its cut snapshot in a fresh processor whose memos
//! start empty.

use proptest::prelude::*;

use cimon_core::{CicConfig, HashAlgoKind};
use cimon_faults::{BitFlip, BusFaultMode, PlannedBusTap};
use cimon_hashgen::static_fht;
use cimon_mem::ProgramImage;
use cimon_os::RefillPolicyKind;
use cimon_pipeline::{BlockExec, Processor, ProcessorConfig, ProcessorSnapshot};
use cimon_workloads::corpus::{generate, CorpusSpec};

/// Bytes the dispatch-plane bookkeeping takes at the end of a snapshot
/// of a processor without a block cache, before the trailing checksum:
/// four block-exec counters and an empty validation-epoch vector.
/// These fields legitimately differ between dispatch modes, and so do
/// the datapath's leading fetch-stage scratch registers (`CPC`, `PPC`,
/// `IReg`), which block dispatch writes only when it hands an
/// instruction to the per-instruction path. Every other byte must be
/// equal.
const STEPPED_DISPATCH_TAIL: usize = 4 * 8 + 8;

/// Bytes of the fetch-stage scratch registers leading every snapshot.
const FETCH_SCRATCH_BYTES: usize = 3 * 4;

#[derive(Clone, Copy, Debug)]
enum Fault {
    None,
    Stored(BitFlip),
    Bus(BitFlip),
}

fn config(
    cic: CicConfig,
    policy: RefillPolicyKind,
    image: &ProgramImage,
    on: bool,
) -> ProcessorConfig {
    let (fht, _) = static_fht(image, &[], cic.hash_algo, cic.hash_seed).expect("corpus analyses");
    let mut c = ProcessorConfig::monitored(cic, fht);
    if let Some(m) = c.monitor.as_mut() {
        m.policy = policy;
    }
    c.block_exec = if on { BlockExec::On } else { BlockExec::Off };
    c
}

fn inject(cpu: &mut Processor, fault: Fault) {
    match fault {
        Fault::None => {}
        Fault::Stored(flip) => flip.apply_to_memory(cpu.mem_mut()),
        Fault::Bus(flip) => cpu.set_bus_tap(Box::new(PlannedBusTap::new(
            vec![flip],
            BusFaultMode::StuckAt,
        ))),
    }
}

/// Everything the memo could disturb, compared between the block run
/// and the stepped oracle at the same retired-instruction count.
fn assert_same_state(block: &Processor, stepped: &Processor, at: &str) {
    assert_eq!(block.instret(), stepped.instret(), "{at}: instret");
    assert_eq!(block.stats(), stepped.stats(), "{at}: run stats");
    let (bc, sc) = (
        block.cic().expect("monitored"),
        stepped.cic().expect("monitored"),
    );
    assert_eq!(bc.stats(), sc.stats(), "{at}: checker stats");
    assert_eq!(
        bc.iht().lru_order(),
        sc.iht().lru_order(),
        "{at}: LRU order"
    );
    assert_eq!(
        block.os().map(|o| o.stats()),
        stepped.os().map(|o| o.stats()),
        "{at}: OS stats"
    );
    let (b, s) = (block.snapshot().to_bytes(), stepped.snapshot().to_bytes());
    let core = s.len() - 4 - STEPPED_DISPATCH_TAIL;
    assert_eq!(
        b[FETCH_SCRATCH_BYTES..core],
        s[FETCH_SCRATCH_BYTES..core],
        "{at}: snapshot bytes"
    );
    assert_eq!(
        b[b.len() - 4..],
        s[s.len() - 4..],
        "{at}: snapshot checksum"
    );
}

proptest! {
    #[test]
    fn memoised_block_checks_match_per_instruction_stepping(
        seed in any::<u64>(),
        target in 1_500u64..8_000,
        algo in 0usize..5,
        hash_seed in any::<u32>(),
        iht_entries in prop::sample::select(vec![1usize, 8, 32, 256]),
        policy in 0usize..4,
        policy_seed in any::<u64>(),
        fault_kind in 0usize..3,
        fault_word in any::<u64>(),
        bit in 0u8..32,
        cut_percent in 0u64..100,
    ) {
        let program = generate(&CorpusSpec { seed, target_dynamic_instructions: target });
        let image = program.assemble().image;
        let cic = CicConfig {
            iht_entries,
            hash_algo: HashAlgoKind::ALL[algo],
            hash_seed,
        };
        let policy = [
            RefillPolicyKind::ReplaceHalfLru,
            RefillPolicyKind::SingleLru,
            RefillPolicyKind::Fifo,
            RefillPolicyKind::Random(policy_seed),
        ][policy];
        let (lo, hi) = image.text_range();
        let addr = lo + 4 * (fault_word % u64::from((hi - lo) / 4)) as u32;
        let fault = match fault_kind {
            0 => Fault::None,
            1 => Fault::Stored(BitFlip::new(addr, bit)),
            _ => Fault::Bus(BitFlip::new(addr, bit)),
        };

        let block_cfg = config(cic, policy, &image, true);
        let mut block = Processor::new(&image, block_cfg.clone());
        let mut stepped = Processor::new(&image, config(cic, policy, &image, false));
        inject(&mut block, fault);
        inject(&mut stepped, fault);

        // Mid-run cut: block dispatch stops on the first block boundary
        // at or past the target; stepping stops on exactly that count
        // (or, when the run ended first, runs to its own end).
        let cut = target * cut_percent / 100;
        let block_done = block.run_to_instret(cut);
        let stepped_done = match block_done {
            Some(_) => Some(stepped.run()),
            None => stepped.run_to_instret(block.instret()),
        };
        prop_assert_eq!(block_done, stepped_done);
        assert_same_state(&block, &stepped, "cut");

        // Continue the block run from its snapshot bytes in a fresh
        // processor (memos cold, tap re-installed — a stuck-at tap has
        // no state to carry) and finish both.
        let bytes = block.snapshot().to_bytes();
        let mut resumed = Processor::new(&image, block_cfg);
        if let Fault::Bus(_) = fault {
            inject(&mut resumed, fault);
        }
        let snapshot = ProcessorSnapshot::from_bytes(&bytes).expect("own bytes decode");
        resumed.restore(&snapshot).expect("own snapshot restores");
        let out_block = resumed.run();
        let out_stepped = stepped.run();
        prop_assert_eq!(out_block, out_stepped);
        assert_same_state(&resumed, &stepped, "end");
    }
}
