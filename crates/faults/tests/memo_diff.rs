//! Differential oracle for the memoised block check and the tap-aware
//! block validation.
//!
//! On the planned block path, a block entered with the hash unit at
//! reset replays a per-slot memoised digest and probes its IHT way hint
//! first instead of hashing its words and scanning the table. Every
//! path where the fetched words can differ from the cached ones —
//! stored-image tampering, a fetch-bus tap that can still fire on the
//! block, per-instruction stepping — keeps per-word hashing and full
//! lookups, and per-instruction stepping (`BlockExec::Off`) is the
//! oracle. A bus tap that passes a block's span through unchanged
//! (`BusTap::passes_through`) lets that block take the validated path.
//!
//! For random corpus programs under every hash algorithm (random
//! seeds), every refill policy, IHT sizes from 1 to 256 entries, and no
//! fault, a stored-image bit flip, or a stuck-at fetch-bus fault, the
//! block-dispatch run must equal the stepped one in outcome, run
//! statistics, checker and table statistics, LRU order, and snapshot
//! bytes — both at a mid-run cut and at the end, with the block run
//! continued from its cut snapshot in a fresh processor whose memos
//! start empty. A second property does the same for fetch-bus plans:
//! one-shot and stuck-at taps with one flip, or two flips in one
//! executed block or in two different ones, the one-shot tap's fired
//! state carried across the cut. A third holds corpus programs that
//! store into their own text — the same word or a changed one, inside
//! the storing block or elsewhere — to the same oracle, with and
//! without a tap that passes the stores' spans.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use cimon_core::{CicConfig, HashAlgoKind};
use cimon_faults::{BitFlip, BusFaultMode, PlannedBusTap};
use cimon_hashgen::static_fht;
use cimon_mem::{BusTap, ProgramImage};
use cimon_os::RefillPolicyKind;
use cimon_pipeline::{
    BlockExec, Processor, ProcessorConfig, ProcessorSnapshot, RunOutcome, TimingConfig,
    MAX_BLOCK_LEN,
};
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

#[derive(Clone, Debug)]
enum Fault {
    None,
    Stored(BitFlip),
    Bus(Vec<BitFlip>, BusFaultMode),
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

fn inject(cpu: &mut Processor, fault: &Fault) {
    match fault {
        Fault::None => {}
        Fault::Stored(flip) => flip.apply_to_memory(cpu.mem_mut()),
        Fault::Bus(flips, mode) => {
            cpu.set_bus_tap(Box::new(PlannedBusTap::new(flips.clone(), *mode)));
        }
    }
}

/// A [`PlannedBusTap`] the test keeps a handle on, so a run continued
/// from a snapshot can take over the tap's state (which flips already
/// fired) at the cut.
struct SharedTap(Rc<RefCell<PlannedBusTap>>);

impl BusTap for SharedTap {
    fn on_fetch(&mut self, addr: u32, word: u32) -> u32 {
        self.0.borrow_mut().on_fetch(addr, word)
    }

    fn passes_through(&self, start: u32, end: u32) -> bool {
        self.0.borrow().passes_through(start, end)
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
            _ => Fault::Bus(vec![BitFlip::new(addr, bit)], BusFaultMode::StuckAt),
        };

        let block_cfg = config(cic, policy, &image, true);
        let mut block = Processor::new(&image, block_cfg.clone());
        let mut stepped = Processor::new(&image, config(cic, policy, &image, false));
        inject(&mut block, &fault);
        inject(&mut stepped, &fault);

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
        if let Fault::Bus(..) = fault {
            inject(&mut resumed, &fault);
        }
        let snapshot = ProcessorSnapshot::from_bytes(&bytes).expect("own bytes decode");
        resumed.restore(&snapshot).expect("own snapshot restores");
        let out_block = resumed.run();
        let out_stepped = stepped.run();
        prop_assert_eq!(out_block, out_stepped);
        assert_same_state(&resumed, &stepped, "end");
    }
    #[test]
    fn bus_fault_taps_match_per_instruction_stepping(
        seed in any::<u64>(),
        target in 1_500u64..8_000,
        algo in 0usize..5,
        iht_entries in prop::sample::select(vec![1usize, 8, 32]),
        one_shot in any::<bool>(),
        shape in 0usize..3,
        first_block in any::<u64>(),
        second_block in any::<u64>(),
        offsets in (any::<u64>(), any::<u64>()),
        bits in (0u8..32, 0u8..32),
        cut_percent in 0u64..100,
    ) {
        let program = generate(&CorpusSpec { seed, target_dynamic_instructions: target });
        let image = program.assemble().image;
        let cic = CicConfig {
            iht_entries,
            hash_algo: HashAlgoKind::ALL[algo],
            hash_seed: 0,
        };
        let policy = RefillPolicyKind::ReplaceHalfLru;

        // Place the flips in blocks the clean run executes, so that the
        // taps fire (and one-shot flips are spent) mid-run.
        let mut reference = Processor::new(
            &image,
            ProcessorConfig { record_blocks: true, ..config(cic, policy, &image, false) },
        );
        reference.run();
        let mut executed: Vec<(u32, u32)> =
            reference.blocks().iter().map(|e| (e.key.start, e.key.end)).collect();
        executed.sort_unstable();
        executed.dedup();
        assert!(!executed.is_empty(), "every run ends a block");
        let pick = |block: u64| executed[(block % executed.len() as u64) as usize];
        let word_in = |(start, end): (u32, u32), offset: u64| {
            start + 4 * (offset % u64::from((end - start) / 4 + 1)) as u32
        };
        let a = pick(first_block);
        let first = BitFlip::new(word_in(a, offsets.0), bits.0);
        let flips = match shape {
            // One flip.
            0 => vec![first],
            // Two flips in one executed block.
            1 => vec![first, BitFlip::new(word_in(a, offsets.1), bits.1)],
            // Two flips in (usually) different executed blocks.
            _ => vec![first, BitFlip::new(word_in(pick(second_block), offsets.1), bits.1)],
        };
        let mode = if one_shot { BusFaultMode::OneShot } else { BusFaultMode::StuckAt };

        let block_cfg = config(cic, policy, &image, true);
        let mut block = Processor::new(&image, block_cfg.clone());
        let mut stepped = Processor::new(&image, config(cic, policy, &image, false));
        let tap = Rc::new(RefCell::new(PlannedBusTap::new(flips.clone(), mode)));
        block.set_bus_tap(Box::new(SharedTap(tap.clone())));
        inject(&mut stepped, &Fault::Bus(flips, mode));

        let cut = target * cut_percent / 100;
        let block_done = block.run_to_instret(cut);
        let stepped_done = match block_done {
            Some(_) => Some(stepped.run()),
            None => stepped.run_to_instret(block.instret()),
        };
        prop_assert_eq!(block_done, stepped_done);
        assert_same_state(&block, &stepped, "cut");

        // Continue in a fresh processor whose tap starts from the state
        // the block run's tap reached at the cut.
        let bytes = block.snapshot().to_bytes();
        let mut resumed = Processor::new(&image, block_cfg);
        resumed.set_bus_tap(Box::new(tap.borrow().clone()));
        let snapshot = ProcessorSnapshot::from_bytes(&bytes).expect("own bytes decode");
        resumed.restore(&snapshot).expect("own snapshot restores");
        let out_block = resumed.run();
        let out_stepped = stepped.run();
        prop_assert_eq!(out_block, out_stepped);
        assert_same_state(&resumed, &stepped, "end");
    }
}

/// A corpus program with a store into its own text at the top of every
/// outer iteration: the word `offset` words from `OUTER` is read, XORed
/// with `mask` (zero for a same-value store), and written back. Offsets
/// 0–4 land on the storing block's own words up to the store itself,
/// larger ones on later words of that block or on later blocks, and
/// negative ones on code before the loop.
fn with_text_store(spec: &CorpusSpec, offset: i32, mask: u16) -> ProgramImage {
    let source = generate(spec).source.replacen(
        "OUTER:\n",
        &format!(
            "OUTER:\n    la $t8, OUTER\n    lw $t9, {o}($t8)\n    \
             xori $t9, $t9, {mask}\n    sw $t9, {o}($t8)\n",
            o = 4 * offset
        ),
        1,
    );
    cimon_asm::assemble(&source)
        .expect("patched corpus assembles")
        .image
}

proptest! {
    #[test]
    fn text_stores_match_per_instruction_stepping(
        seed in any::<u64>(),
        target in 1_500u64..6_000,
        algo in 0usize..5,
        iht_entries in prop::sample::select(vec![1usize, 8, 32]),
        offset in 0u32..36,
        same_value in any::<bool>(),
        bit in 0u8..16,
        tap_kind in 0usize..4,
        tap_word in any::<u64>(),
        tap_bit in 0u8..32,
        unplanned in any::<bool>(),
        cut_percent in 0u64..100,
    ) {
        let spec = CorpusSpec { seed, target_dynamic_instructions: target };
        let mask = if same_value { 0 } else { 1u16 << bit };
        let image = with_text_store(&spec, offset as i32 - 12, mask);
        let cic = CicConfig {
            iht_entries,
            hash_algo: HashAlgoKind::ALL[algo],
            hash_seed: 0,
        };
        let policy = RefillPolicyKind::ReplaceHalfLru;
        // A patched word can turn a loop endless: bound every run.
        // Latencies other than the cached plans' keep block dispatch
        // off the planned path.
        let timing = if unplanned {
            TimingConfig { mult_latency: 2, div_latency: 5 }
        } else {
            TimingConfig::default()
        };
        let bounded = |on: bool| ProcessorConfig {
            max_cycles: 40 * target,
            timing,
            ..config(cic, policy, &image, on)
        };

        // No tap, or a planned tap that passes every span (its flip
        // lies past the text), or one flip in the text that passes
        // every other span, once (one-shot) or never (stuck-at).
        let (lo, hi) = image.text_range();
        let in_text = lo + 4 * (tap_word % u64::from((hi - lo) / 4)) as u32;
        let tap = match tap_kind {
            0 => None,
            1 => Some(PlannedBusTap::new(vec![BitFlip::new(hi + 64, tap_bit)], BusFaultMode::StuckAt)),
            2 => Some(PlannedBusTap::new(vec![BitFlip::new(in_text, tap_bit)], BusFaultMode::OneShot)),
            _ => Some(PlannedBusTap::new(vec![BitFlip::new(in_text, tap_bit)], BusFaultMode::StuckAt)),
        };

        let mut block = Processor::new(&image, bounded(true));
        let mut stepped = Processor::new(&image, bounded(false));
        let shared = tap.map(|t| Rc::new(RefCell::new(t)));
        if let Some(t) = &shared {
            block.set_bus_tap(Box::new(SharedTap(t.clone())));
            stepped.set_bus_tap(Box::new(t.borrow().clone()));
        }

        let cut = target * cut_percent / 100;
        let block_done = block.run_to_instret(cut);
        let stepped_done = match block_done {
            Some(_) => Some(stepped.run()),
            None => stepped.run_to_instret(block.instret()),
        };
        prop_assert_eq!(block_done, stepped_done);
        assert_same_state(&block, &stepped, "cut");

        let bytes = block.snapshot().to_bytes();
        let mut resumed = Processor::new(&image, bounded(true));
        if let Some(t) = &shared {
            resumed.set_bus_tap(Box::new(t.borrow().clone()));
        }
        let snapshot = ProcessorSnapshot::from_bytes(&bytes).expect("own bytes decode");
        resumed.restore(&snapshot).expect("own snapshot restores");
        let out_block = resumed.run();
        let out_stepped = stepped.run();
        prop_assert_eq!(out_block, out_stepped);
        assert_same_state(&resumed, &stepped, "end");
    }
}

/// An identity tap that counts the fetches it sees and passes every
/// span through.
struct CountingTap(Rc<RefCell<u64>>);

impl BusTap for CountingTap {
    fn on_fetch(&mut self, _addr: u32, word: u32) -> u32 {
        *self.0.borrow_mut() += 1;
        word
    }

    fn passes_through(&self, _start: u32, _end: u32) -> bool {
        true
    }
}

/// The same counting tap, keeping the default `passes_through`.
struct KeepsDefault(CountingTap);

impl BusTap for KeepsDefault {
    fn on_fetch(&mut self, addr: u32, word: u32) -> u32 {
        self.0.on_fetch(addr, word)
    }
}

/// A tap that keeps the default [`BusTap::passes_through`] sees every
/// fetch under block dispatch, exactly as under per-instruction
/// stepping; one that passes its spans through is skipped by the
/// validated block path, store-carrying blocks included, and sees only
/// the words a block fetches after one of its stores changed the text.
/// A store of the bytes already there changes nothing, so it costs no
/// fetch either.
#[test]
fn only_taps_that_pass_a_span_skip_its_fetches() {
    let cic = CicConfig {
        iht_entries: 8,
        hash_algo: HashAlgoKind::Xor,
        hash_seed: 0,
    };
    let policy = RefillPolicyKind::ReplaceHalfLru;
    let fetches_seen = |image: &ProgramImage, on: bool, passes: bool| {
        let seen = Rc::new(RefCell::new(0));
        let mut cpu = Processor::new(image, config(cic, policy, image, on));
        let loaded = (cpu.mem().dense_writes(), cpu.mem().dense_epoch());
        let tap = CountingTap(seen.clone());
        if passes {
            cpu.set_bus_tap(Box::new(tap));
        } else {
            cpu.set_bus_tap(Box::new(KeepsDefault(tap)));
        }
        let outcome = cpu.run();
        let text_writes = cpu.mem().dense_writes() - loaded.0;
        let text_changes = cpu.mem().dense_epoch() - loaded.1;
        let seen = *seen.borrow();
        ((outcome, cpu.stats(), seen), text_writes, text_changes)
    };

    // A registry program whose blocks carry stores but never write the
    // text: a passing tap sees no fetch at all.
    let rijndael = &cimon_workloads::get("rijndael").expect("registry").image;
    let (stepped, text_writes, _) = fetches_seen(rijndael, false, false);
    assert_eq!(text_writes, 0);
    assert!(
        stepped.2 >= stepped.1.instructions,
        "every retired word is fetched"
    );
    assert_eq!(
        fetches_seen(rijndael, true, false).0,
        stepped,
        "default answer"
    );
    let passing = fetches_seen(rijndael, true, true).0;
    assert_eq!((passing.0, &passing.1), (stepped.0, &stepped.1));
    assert_eq!(passing.2, 0, "store-carrying blocks validate in bulk");

    // A corpus program with same-value stores into its own text: they
    // write the text but change nothing, so a passing tap sees no fetch.
    let image = generate(&CorpusSpec {
        seed: 3,
        target_dynamic_instructions: 4_000,
    })
    .assemble()
    .image;
    let (stepped, text_writes, text_changes) = fetches_seen(&image, false, false);
    assert!(text_writes > 0, "the program writes its text");
    assert_eq!(text_changes, 0, "with the bytes already there");
    assert_eq!(
        fetches_seen(&image, true, false).0,
        stepped,
        "default answer"
    );
    let passing = fetches_seen(&image, true, true).0;
    assert_eq!((passing.0, &passing.1), (stepped.0, &stepped.1));
    assert_eq!(passing.2, 0, "same-value text stores validate in bulk");

    // A program whose stores change a later word of their own block on
    // every iteration, and put it back before it runs (so the monitor
    // sees the words its table holds): only the words after each change
    // in its block are fetched per word; the next dispatch re-validates
    // in bulk.
    let image = cimon_asm::assemble(
        "
        .text
    main:
        li   $a0, 0
        li   $s0, 6
    loop:
        la   $t8, patch
        lw   $t9, 0($t8)
        xori $t1, $t9, 1     # the word with its immediate's low bit toggled
        sw   $t1, 0($t8)     # change a later word of this block
        sw   $t9, 0($t8)     # and restore it
    patch:
        addiu $a0, $a0, 2
        addiu $s0, $s0, -1
        bnez $s0, loop
        li   $v0, 10
        syscall
    ",
    )
    .expect("self-patching loop assembles")
    .image;
    let (stepped, text_writes, text_changes) = fetches_seen(&image, false, false);
    assert!(
        matches!(stepped.0, RunOutcome::Exited { .. }),
        "{:?}",
        stepped.0
    );
    assert_eq!(
        (text_writes, text_changes),
        (12, 12),
        "every store changes the text"
    );
    assert_eq!(
        fetches_seen(&image, true, false).0,
        stepped,
        "default answer"
    );
    let passing = fetches_seen(&image, true, true).0;
    assert_eq!((passing.0, &passing.1), (stepped.0, &stepped.1));
    assert!(
        passing.2 > 0 && passing.2 <= text_changes * (MAX_BLOCK_LEN as u64 - 1),
        "a passing tap sees only the words after a text change ({} for {} changes)",
        passing.2,
        text_changes
    );
}
