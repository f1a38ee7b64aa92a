//! Differential property tests for basic-block superblock dispatch.
//!
//! Block execution is a pure dispatch optimisation: for random programs
//! — with in-flight fetch-bus fault taps, stored-image tampering, and
//! mid-block cycle-budget interrupts thrown in — a processor executing
//! whole cached blocks per dispatch must produce byte-identical
//! outcomes, statistics (including every monitor counter), cycle
//! counts, and architectural state to one stepping instruction by
//! instruction. The deterministic tests at the bottom additionally
//! prove the mid-block bail-out path actually fires, and hold programs
//! that store into their own text to the same oracle on every block
//! path.

use proptest::prelude::*;

use cimon_asm::assemble;
use cimon_core::hash::hash_words;
use cimon_core::{BlockRecord, CicConfig, HashAlgoKind};
use cimon_mem::BusTap;
use cimon_os::FullHashTable;
use cimon_pipeline::{BlockExec, Processor, ProcessorConfig, RunOutcome, TimingConfig};

/// A one-shot transient fault: flip `bit` of the word fetched from
/// `target`, once.
struct OneShot {
    target: u32,
    bit: u8,
    done: bool,
}

impl BusTap for OneShot {
    fn on_fetch(&mut self, addr: u32, word: u32) -> u32 {
        if addr == self.target && !self.done {
            self.done = true;
            word ^ (1u32 << self.bit)
        } else {
            word
        }
    }
}

/// A generated random program: straight-line ALU/memory traffic with
/// forward branches (termination by construction) and a clean exit.
#[derive(Clone, Debug)]
struct RandomProgram {
    source: String,
}

prop_compose! {
    fn arb_program()(
        n in 8usize..40,
        seed in any::<u64>(),
    ) -> RandomProgram {
        use std::fmt::Write as _;
        let mut src = String::from("    .data\nbuf: .word ");
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        for i in 0..16 {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(src, "{sep}{}", next());
        }
        src.push_str("\n    .text\nmain:\n");
        for r in 0..8 {
            let _ = writeln!(src, "    li $t{r}, {}", next() as i32 % 1000);
        }
        let regs = ["$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7"];
        for i in 0..n {
            let _ = writeln!(src, "L{i}:");
            let a = regs[(next() % 8) as usize];
            let b = regs[(next() % 8) as usize];
            let c = regs[(next() % 8) as usize];
            match next() % 12 {
                0 => { let _ = writeln!(src, "    addu {a}, {b}, {c}"); }
                1 => { let _ = writeln!(src, "    subu {a}, {b}, {c}"); }
                2 => { let _ = writeln!(src, "    xor {a}, {b}, {c}"); }
                3 => { let _ = writeln!(src, "    slt {a}, {b}, {c}"); }
                4 => { let _ = writeln!(src, "    addiu {a}, {b}, {}", next() as i32 % 100); }
                5 => { let _ = writeln!(src, "    sll {a}, {b}, {}", next() % 8); }
                6 => { let _ = writeln!(src, "    lw {a}, {}($gp)", (next() % 16) * 4); }
                7 => { let _ = writeln!(src, "    sw {a}, {}($gp)", (next() % 16) * 4); }
                8 => { let _ = writeln!(src, "    mult {a}, {b}"); }
                9 => { let _ = writeln!(src, "    mflo {a}"); }
                _ => {
                    // Forward branch: termination stays guaranteed.
                    let dest = i + 1 + (next() as usize % (n - i));
                    let op = if next() % 2 == 0 { "beq" } else { "bne" };
                    let _ = writeln!(src, "    {op} {a}, {b}, L{dest}");
                }
            }
        }
        let _ = writeln!(src, "L{n}:");
        src.push_str("    move $a0, $t0\n    li $v0, 10\n    syscall\n");
        RandomProgram { source: src }
    }
}

fn with_block_exec(mut config: ProcessorConfig, on: bool, max_cycles: u64) -> ProcessorConfig {
    config.block_exec = if on { BlockExec::On } else { BlockExec::Off };
    config.max_cycles = max_cycles;
    config
}

/// Run the same configuration with block dispatch on and off and assert
/// byte-identical results. `prepare` may tamper or install taps; it is
/// invoked identically on both processors.
fn assert_equivalent(
    image: &cimon_mem::ProgramImage,
    config: &ProcessorConfig,
    max_cycles: u64,
    prepare: impl Fn(&mut Processor),
) {
    let mut fast = Processor::new(image, with_block_exec(config.clone(), true, max_cycles));
    let mut slow = Processor::new(image, with_block_exec(config.clone(), false, max_cycles));
    prepare(&mut fast);
    prepare(&mut slow);
    let out_fast = fast.run();
    let out_slow = slow.run();
    assert_eq!(out_fast, out_slow, "outcome diverged");
    assert_eq!(fast.stats(), slow.stats(), "stats diverged");
    assert_eq!(fast.cycles(), slow.cycles(), "cycles diverged");
    assert_eq!(
        fast.regs().snapshot(),
        slow.regs().snapshot(),
        "registers diverged"
    );
    // The reference processor must never have dispatched blocks; the
    // fast one must have (every program starts on a cached block).
    assert_eq!(slow.block_stats().dispatches, 0);
    assert!(fast.block_stats().dispatches > 0);
}

/// The exact FHT for a program from its recorded block trace.
fn trace_fht(image: &cimon_mem::ProgramImage) -> FullHashTable {
    let mut cpu = Processor::new(
        image,
        ProcessorConfig {
            record_blocks: true,
            ..ProcessorConfig::baseline()
        },
    );
    cpu.run();
    let mem = image.to_memory();
    cpu.blocks()
        .iter()
        .map(|b| {
            let words = b.key.addresses().map(|a| mem.read_u32(a).unwrap());
            BlockRecord {
                key: b.key,
                hash: hash_words(HashAlgoKind::Xor, 0, words),
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn clean_runs_are_identical_with_and_without_block_exec(p in arb_program()) {
        let prog = assemble(&p.source).expect("generated program assembles");
        assert_equivalent(&prog.image, &ProcessorConfig::baseline(), 100_000, |_| {});
        let fht = trace_fht(&prog.image);
        let config = ProcessorConfig::monitored(CicConfig::with_entries(8), fht);
        assert_equivalent(&prog.image, &config, 100_000, |_| {});
    }

    #[test]
    fn bus_fault_taps_bail_out_identically(
        p in arb_program(),
        word_idx in any::<prop::sample::Index>(),
        bit in 0u8..32,
    ) {
        let prog = assemble(&p.source).expect("generated program assembles");
        let n_words = prog.image.text.bytes.len() / 4;
        let target = prog.image.text.base + 4 * word_idx.index(n_words) as u32;
        assert_equivalent(&prog.image, &ProcessorConfig::baseline(), 100_000, |cpu| {
            cpu.set_bus_tap(Box::new(OneShot { target, bit, done: false }));
        });
        let fht = trace_fht(&prog.image);
        let config = ProcessorConfig::monitored(CicConfig::with_entries(8), fht);
        assert_equivalent(&prog.image, &config, 100_000, |cpu| {
            cpu.set_bus_tap(Box::new(OneShot { target, bit, done: false }));
        });
    }

    #[test]
    fn stored_image_tampering_bails_out_identically(
        p in arb_program(),
        word_idx in any::<prop::sample::Index>(),
        bit in 0u8..32,
    ) {
        let prog = assemble(&p.source).expect("generated program assembles");
        let n_words = prog.image.text.bytes.len() / 4;
        let victim = prog.image.text.base + 4 * word_idx.index(n_words) as u32;
        // Tamper *after* construction: the block cache was built from
        // the clean image, so bulk validation must fail on the touched
        // block and the diverging word must bail to live decode.
        let fht = trace_fht(&prog.image);
        for config in [
            ProcessorConfig::baseline(),
            ProcessorConfig::monitored(CicConfig::with_entries(8), fht),
        ] {
            assert_equivalent(&prog.image, &config, 100_000, |cpu| {
                let old = cpu.mem().read_u32(victim).unwrap();
                cpu.mem_mut().write_u32(victim, old ^ (1 << bit)).unwrap();
            });
        }
    }

    #[test]
    fn mid_block_cycle_budget_interrupts_identically(
        p in arb_program(),
        max_cycles in 1u64..400,
    ) {
        // A budget this small expires mid-run — usually mid-block — and
        // both paths must stop on exactly the same instruction with the
        // same counters.
        let prog = assemble(&p.source).expect("generated program assembles");
        assert_equivalent(&prog.image, &ProcessorConfig::baseline(), max_cycles, |_| {});
        let fht = trace_fht(&prog.image);
        let config = ProcessorConfig::monitored(CicConfig::with_entries(8), fht);
        assert_equivalent(&prog.image, &config, max_cycles, |_| {});
    }
}

const SUM_LOOP: &str = "
    .text
main:
    li   $t0, 10
    li   $t1, 0
loop:
    addu $t1, $t1, $t0
    addiu $t0, $t0, -1
    bnez $t0, loop
    move $a0, $t1
    li   $v0, 10
    syscall
";

#[test]
fn tampering_detection_fires_through_the_bailout_path() {
    // Deterministic anchor: a bit flipped inside the loop body makes
    // bulk validation fail, the per-word pass bails at the flipped
    // word, and the monitor still detects the mismatch at block end.
    let prog = assemble(SUM_LOOP).unwrap();
    let fht = trace_fht(&prog.image);
    let mut cpu = Processor::new(
        &prog.image,
        ProcessorConfig {
            block_exec: BlockExec::On,
            ..ProcessorConfig::monitored(CicConfig::with_entries(8), fht)
        },
    );
    let victim = prog.image.entry + 8;
    let old = cpu.mem().read_u32(victim).unwrap();
    cpu.mem_mut().write_u32(victim, old ^ (1 << 20)).unwrap();
    assert!(matches!(cpu.run(), RunOutcome::Detected { .. }));
    let stats = cpu.block_stats();
    assert!(stats.dispatches > 0, "block dispatch engaged: {stats:?}");
    assert!(stats.bailouts > 0, "the bail-out path must fire: {stats:?}");
}

#[test]
fn one_shot_bus_tap_fires_the_bailout_exactly_once() {
    let prog = assemble(SUM_LOOP).unwrap();
    let fht = trace_fht(&prog.image);
    let mut cpu = Processor::new(
        &prog.image,
        ProcessorConfig {
            block_exec: BlockExec::On,
            ..ProcessorConfig::monitored(CicConfig::with_entries(8), fht)
        },
    );
    cpu.set_bus_tap(Box::new(OneShot {
        target: prog.image.entry + 8,
        bit: 18,
        done: false,
    }));
    assert!(matches!(cpu.run(), RunOutcome::Detected { .. }));
    let stats = cpu.block_stats();
    assert_eq!(
        stats.bailouts, 1,
        "exactly the corrupted fetch bails: {stats:?}"
    );
    assert!(stats.dispatches > 0);
}

#[test]
fn clean_runs_never_bail_and_count_block_lengths() {
    let prog = assemble(SUM_LOOP).unwrap();
    let mut cpu = Processor::new(
        &prog.image,
        ProcessorConfig {
            block_exec: BlockExec::On,
            ..ProcessorConfig::baseline()
        },
    );
    assert_eq!(cpu.run(), RunOutcome::Exited { code: 55 });
    let stats = cpu.block_stats();
    assert_eq!(stats.bailouts, 0);
    // 1 entry block (5 instrs) + 9 loop blocks (3) + exit block (3).
    assert_eq!(stats.dispatches, 11);
    assert_eq!(stats.instructions, cpu.stats().instructions);
    assert_eq!(stats.max_block, 5);
    assert!((stats.mean_block() - 35.0 / 11.0).abs() < 1e-9);
}

#[test]
fn max_cycles_interrupts_a_block_mid_flight() {
    // An infinite loop under a tiny budget: block dispatch must stop on
    // the same cycle count as per-instruction stepping.
    let prog = assemble(".text\nmain: j main\n").unwrap();
    let run = |on: bool| {
        let mut cpu = Processor::new(
            &prog.image,
            with_block_exec(ProcessorConfig::baseline(), on, 10_000),
        );
        let out = cpu.run();
        (out, cpu.stats())
    };
    let (out_on, stats_on) = run(true);
    let (out_off, stats_off) = run(false);
    assert_eq!(out_on, RunOutcome::MaxCycles);
    assert_eq!(out_on, out_off);
    assert_eq!(stats_on, stats_off);
}

#[test]
fn self_modifying_store_is_observed_exactly() {
    // A program that overwrites its own upcoming instruction: the store
    // targets the `addiu $a0, $a0, 1` that runs right after it inside
    // the same basic block, replacing it with `addiu $a0, $a0, 7`.
    // Per-word fetching (from the store's text write on) must observe
    // the new word at the architecturally correct instant and bail to
    // live decode — identically with block dispatch on and off.
    let src = "
        .text
    main:
        li   $a0, 0
        la   $t0, donor
        lw   $t1, 0($t0)     # t1 = the encoded `addiu $a0, $a0, 7`
        la   $t2, target
        sw   $t1, 0($t2)     # overwrite the next instruction
    target:
        addiu $a0, $a0, 1
        li   $v0, 10
        syscall
    donor:                   # never executed: donates its encoding
        addiu $a0, $a0, 7
    ";
    let prog = assemble(src).unwrap();
    let run = |on: bool| {
        let mut cpu = Processor::new(
            &prog.image,
            with_block_exec(ProcessorConfig::baseline(), on, 100_000),
        );
        let out = cpu.run();
        (out, cpu.stats(), cpu.block_stats())
    };
    let (out_on, stats_on, block_on) = run(true);
    let (out_off, stats_off, _) = run(false);
    assert_eq!(out_on, RunOutcome::Exited { code: 7 }, "patched path runs");
    assert_eq!(out_on, out_off);
    assert_eq!(stats_on, stats_off);
    assert!(
        block_on.bailouts > 0,
        "patched word must bail: {block_on:?}"
    );
}

/// Bytes the dispatch-plane bookkeeping takes at the end of a snapshot
/// of a processor without a block cache, before the trailing checksum:
/// four block-exec counters and an empty validation-epoch vector. These
/// and the leading fetch-stage scratch registers (`CPC`, `PPC`, `IReg`)
/// legitimately differ between dispatch modes; every other byte,
/// including the fetch count, must be equal.
const STEPPED_DISPATCH_TAIL: usize = 4 * 8 + 8;

/// Bytes of the fetch-stage scratch registers leading every snapshot.
const FETCH_SCRATCH_BYTES: usize = 3 * 4;

/// Run `config` under `max_cycles` with block dispatch on and off and
/// assert identical outcomes, run, checker and OS statistics, LRU
/// order, registers and snapshot bytes.
fn assert_same_run(image: &cimon_mem::ProgramImage, config: &ProcessorConfig, max_cycles: u64) {
    let mut fast = Processor::new(image, with_block_exec(config.clone(), true, max_cycles));
    let mut slow = Processor::new(image, with_block_exec(config.clone(), false, max_cycles));
    let at = format!("max_cycles {max_cycles}");
    assert_eq!(fast.run(), slow.run(), "{at}: outcome");
    assert_eq!(fast.stats(), slow.stats(), "{at}: run stats");
    assert_eq!(
        fast.regs().snapshot(),
        slow.regs().snapshot(),
        "{at}: registers"
    );
    assert_eq!(
        fast.cic().map(|c| (c.stats(), c.iht().lru_order())),
        slow.cic().map(|c| (c.stats(), c.iht().lru_order())),
        "{at}: checker stats and LRU order"
    );
    assert_eq!(
        fast.os().map(|o| o.stats()),
        slow.os().map(|o| o.stats()),
        "{at}: OS stats"
    );
    let (f, s) = (fast.snapshot().to_bytes(), slow.snapshot().to_bytes());
    let core = s.len() - 4 - STEPPED_DISPATCH_TAIL;
    assert_eq!(
        f[FETCH_SCRATCH_BYTES..core],
        s[FETCH_SCRATCH_BYTES..core],
        "{at}: snapshot bytes"
    );
    assert_eq!(
        f[f.len() - 4..],
        s[s.len() - 4..],
        "{at}: snapshot checksum"
    );
    assert_eq!(slow.block_stats().dispatches, 0);
}

/// Hold a program that stores into its own text to the stepping oracle
/// at baseline and at CIC-8, on both block paths: the planned one (a
/// full budget), and the per-instruction one that a budget near a block
/// forces (every budget up to past the run's end) or a processor whose
/// latencies differ from the cached plans' runs throughout. Returns the
/// unbounded baseline outcome.
fn assert_store_case(src: &str) -> RunOutcome {
    let prog = assemble(src).expect("case assembles");
    let fht = trace_fht(&prog.image);
    let mut full = Processor::new(
        &prog.image,
        with_block_exec(ProcessorConfig::baseline(), false, 100_000),
    );
    let outcome = full.run();
    let end = full.cycles();
    let unplanned = TimingConfig {
        mult_latency: 2,
        div_latency: 5,
    };
    for base in [
        ProcessorConfig::baseline(),
        ProcessorConfig::monitored(CicConfig::with_entries(8), fht),
    ] {
        for timing in [TimingConfig::default(), unplanned] {
            let config = ProcessorConfig {
                timing,
                ..base.clone()
            };
            assert_same_run(&prog.image, &config, 100_000);
            for max_cycles in 0..end + 8 {
                assert_same_run(&prog.image, &config, max_cycles);
            }
        }
    }
    outcome
}

#[test]
fn a_store_overwriting_a_later_word_of_its_block_is_exact() {
    let src = "
        .text
    main:
        li   $a0, 0
        la   $t0, donor
        lw   $t1, 0($t0)     # t1 = the encoded `addiu $a0, $a0, 7`
        la   $t2, target
        sw   $t1, 0($t2)     # overwrite a word two slots ahead
        addiu $a0, $a0, 2
    target:
        addiu $a0, $a0, 1
        addiu $a0, $a0, 3
        li   $v0, 10
        syscall
    donor:
        addiu $a0, $a0, 7
    ";
    assert_eq!(assert_store_case(src), RunOutcome::Exited { code: 12 });
}

#[test]
fn a_store_overwriting_an_earlier_word_of_its_block_is_exact() {
    // The loop's first word is patched after it ran: the rest of that
    // iteration is unchanged, and the next dispatch of the loop block
    // sees the new word.
    let src = "
        .text
    main:
        li   $a0, 0
        li   $s0, 3
        la   $t0, donor
        lw   $t1, 0($t0)
        la   $t2, target
    target:
        addiu $a0, $a0, 1
        sw   $t1, 0($t2)
        addiu $s0, $s0, -1
        bnez $s0, target
        li   $v0, 10
        syscall
    donor:
        addiu $a0, $a0, 7
    ";
    assert_eq!(assert_store_case(src), RunOutcome::Exited { code: 15 });
}

#[test]
fn a_store_writing_text_outside_its_block_is_exact() {
    let src = "
        .text
    main:
        li   $a0, 0
        la   $t0, donor
        lw   $t1, 0($t0)
        la   $t2, target
        sw   $t1, 0($t2)     # patch the next block, not this one
        addiu $a0, $a0, 2
        addiu $a0, $a0, 3
        j    target
    target:
        addiu $a0, $a0, 1
        li   $v0, 10
        syscall
    donor:
        addiu $a0, $a0, 7
    ";
    assert_eq!(assert_store_case(src), RunOutcome::Exited { code: 12 });
}

#[test]
fn a_same_value_store_into_the_text_is_exact() {
    // The corpus's benign store: read an instruction word and write it
    // straight back, mid-block, on every loop iteration.
    let src = "
        .text
    main:
        li   $a0, 0
        li   $s0, 4
    loop:
        la   $t8, loop
        lw   $t9, 0($t8)
        sw   $t9, 0($t8)
        addiu $a0, $a0, 2
        addiu $s0, $s0, -1
        bnez $s0, loop
        li   $v0, 10
        syscall
    ";
    assert_eq!(assert_store_case(src), RunOutcome::Exited { code: 8 });
}

#[test]
fn a_store_changing_a_later_word_on_every_iteration_is_exact() {
    // Each iteration toggles the immediate of a later word of its own
    // block (2 <-> 3) before it runs: every dispatch of the loop block
    // re-validates the changed text, and the words after each store
    // run per word.
    let src = "
        .text
    main:
        li   $a0, 0
        li   $s0, 4
    loop:
        la   $t8, patch
        lw   $t9, 0($t8)
        xori $t9, $t9, 1
        sw   $t9, 0($t8)
    patch:
        addiu $a0, $a0, 2
        addiu $s0, $s0, -1
        bnez $s0, loop
        li   $v0, 10
        syscall
    ";
    assert_eq!(assert_store_case(src), RunOutcome::Exited { code: 10 });
}
