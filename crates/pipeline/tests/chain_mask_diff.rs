//! Differential property tests for the block-static scheduling fast
//! paths — mask-based issue and planned block timing — on hot loops,
//! in the style of `block_exec_diff.rs`.
//!
//! Two processors run every scenario: block dispatch (mask issue and
//! the fused planned-timing loop) and per-instruction stepping (the
//! slice-based oracle — its timing path is `Timing::issue`, its
//! dispatch is the stage micro-programs). Both must agree
//! byte-for-byte on outcome, statistics, cycles, and registers under
//! stored-image tampering, in-flight bus-fault taps, and mid-block
//! cycle-budget interrupts.

use proptest::prelude::*;

use cimon_asm::assemble;
use cimon_core::hash::hash_words;
use cimon_core::{BlockRecord, CicConfig, HashAlgoKind};
use cimon_mem::BusTap;
use cimon_os::FullHashTable;
use cimon_pipeline::{BlockExec, Processor, ProcessorConfig};

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

/// A generated random program: backward loops (so planned blocks
/// re-dispatch on hot edges), ALU/memory traffic, and a clean exit. Loop trip counts are
/// bounded by construction: each loop counter decrements to zero.
#[derive(Clone, Debug)]
struct RandomProgram {
    source: String,
}

prop_compose! {
    fn arb_program()(
        loops in 1usize..5,
        body in 1usize..7,
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
        let regs = ["$t0", "$t1", "$t2", "$t3", "$t4", "$t5"];
        for r in regs {
            let _ = writeln!(src, "    li {r}, {}", next() as i32 % 500);
        }
        // `loops` nested-free counted loops, each with a random
        // straight-line body — taken back edges every iteration, so
        // the same block plans replay again and again.
        for l in 0..loops {
            let trips = 2 + next() % 9;
            let _ = writeln!(src, "    li $s0, {trips}");
            let _ = writeln!(src, "L{l}:");
            for _ in 0..body {
                let a = regs[(next() % 6) as usize];
                let b = regs[(next() % 6) as usize];
                let c = regs[(next() % 6) as usize];
                match next() % 8 {
                    0 => { let _ = writeln!(src, "    addu {a}, {b}, {c}"); }
                    1 => { let _ = writeln!(src, "    subu {a}, {b}, {c}"); }
                    2 => { let _ = writeln!(src, "    xor {a}, {b}, {c}"); }
                    3 => { let _ = writeln!(src, "    addiu {a}, {b}, {}", next() as i32 % 100); }
                    4 => { let _ = writeln!(src, "    lw {a}, {}($gp)", (next() % 16) * 4); }
                    5 => { let _ = writeln!(src, "    sw {a}, {}($gp)", (next() % 16) * 4); }
                    6 => { let _ = writeln!(src, "    mult {a}, {b}"); }
                    _ => { let _ = writeln!(src, "    mflo {a}"); }
                }
            }
            let _ = writeln!(src, "    addiu $s0, $s0, -1");
            let _ = writeln!(src, "    bnez $s0, L{l}");
        }
        src.push_str("    move $a0, $t0\n    li $v0, 10\n    syscall\n");
        RandomProgram { source: src }
    }
}

fn variant(config: &ProcessorConfig, block: bool, max_cycles: u64) -> ProcessorConfig {
    let mut c = config.clone();
    c.block_exec = if block { BlockExec::On } else { BlockExec::Off };
    c.max_cycles = max_cycles;
    c
}

/// Run block-dispatch and per-instruction processors over the same
/// scenario and assert byte-identical architectural results.
fn assert_equivalent(
    image: &cimon_mem::ProgramImage,
    config: &ProcessorConfig,
    max_cycles: u64,
    prepare: impl Fn(&mut Processor),
) {
    let mut block = Processor::new(image, variant(config, true, max_cycles));
    let mut oracle = Processor::new(image, variant(config, false, max_cycles));
    prepare(&mut block);
    prepare(&mut oracle);
    let out = block.run();
    assert_eq!(out, oracle.run(), "block/oracle outcome diverged");
    assert_eq!(block.stats(), oracle.stats(), "block/oracle stats");
    assert_eq!(block.cycles(), oracle.cycles(), "cycles diverged");
    assert_eq!(
        block.regs().snapshot(),
        oracle.regs().snapshot(),
        "registers diverged"
    );
    // The oracle must never have dispatched blocks.
    assert_eq!(oracle.block_stats().dispatches, 0);
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
    fn clean_loopy_runs_agree_across_all_fast_paths(p in arb_program()) {
        let prog = assemble(&p.source).expect("generated program assembles");
        assert_equivalent(&prog.image, &ProcessorConfig::baseline(), 1_000_000, |_| {});
        let fht = trace_fht(&prog.image);
        let config = ProcessorConfig::monitored(CicConfig::with_entries(8), fht);
        assert_equivalent(&prog.image, &config, 1_000_000, |_| {});
    }

    #[test]
    fn tampering_bails_identically_in_hot_loops(
        p in arb_program(),
        word_idx in any::<prop::sample::Index>(),
        bit in 0u8..32,
    ) {
        let prog = assemble(&p.source).expect("generated program assembles");
        let n_words = prog.image.text.bytes.len() / 4;
        let victim = prog.image.text.base + 4 * word_idx.index(n_words) as u32;
        let fht = trace_fht(&prog.image);
        for config in [
            ProcessorConfig::baseline(),
            ProcessorConfig::monitored(CicConfig::with_entries(8), fht),
        ] {
            assert_equivalent(&prog.image, &config, 1_000_000, |cpu| {
                let old = cpu.mem().read_u32(victim).unwrap();
                cpu.mem_mut().write_u32(victim, old ^ (1 << bit)).unwrap();
            });
        }
    }

    #[test]
    fn bus_taps_bail_identically_in_hot_loops(
        p in arb_program(),
        word_idx in any::<prop::sample::Index>(),
        bit in 0u8..32,
    ) {
        let prog = assemble(&p.source).expect("generated program assembles");
        let n_words = prog.image.text.bytes.len() / 4;
        let target = prog.image.text.base + 4 * word_idx.index(n_words) as u32;
        let fht = trace_fht(&prog.image);
        for config in [
            ProcessorConfig::baseline(),
            ProcessorConfig::monitored(CicConfig::with_entries(8), fht),
        ] {
            assert_equivalent(&prog.image, &config, 1_000_000, |cpu| {
                cpu.set_bus_tap(Box::new(OneShot { target, bit, done: false }));
            });
        }
    }

    #[test]
    fn mid_block_budget_interrupts_identically_in_hot_loops(
        p in arb_program(),
        max_cycles in 1u64..500,
    ) {
        let prog = assemble(&p.source).expect("generated program assembles");
        assert_equivalent(&prog.image, &ProcessorConfig::baseline(), max_cycles, |_| {});
        let fht = trace_fht(&prog.image);
        let config = ProcessorConfig::monitored(CicConfig::with_entries(8), fht);
        assert_equivalent(&prog.image, &config, max_cycles, |_| {});
    }
}
