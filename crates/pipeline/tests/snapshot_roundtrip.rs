//! Snapshot/restore round-trip property tests.
//!
//! A [`ProcessorSnapshot`] taken at an arbitrary mid-run point and
//! restored into a **fresh** processor must continue to an end state
//! byte-identical to the donor's — outcome, statistics, cycles,
//! registers, and block-execution counters — for the baseline and
//! CIC-monitored processors, under block dispatch
//! and per-instruction stepping, and in post-tamper states where the
//! cut lands between a bail-out and the detection that follows it.
//!
//! A snapshot taken with block recording on also resumes in a
//! processor with recording off, to the same outcome and statistics.
//!
//! The byte form is held to the same standard: `to_bytes` →
//! `from_bytes` → `to_bytes` reproduces the bytes exactly, and
//! `from_bytes` over truncated, damaged or arbitrary bytes returns a
//! typed error (or a snapshot whose integrity checksum still holds) —
//! it never panics.

use proptest::prelude::*;

use cimon_asm::assemble;
use cimon_core::hash::hash_words;
use cimon_core::{BlockRecord, CicConfig, HashAlgoKind};
use cimon_isa::codec::CodecError;
use cimon_os::FullHashTable;
use cimon_pipeline::{BlockExec, Processor, ProcessorConfig, ProcessorSnapshot};

/// A generated random program: counted backward loops, ALU/memory
/// traffic, and a clean exit (same shape as `chain_mask_diff.rs`).
#[derive(Clone, Debug)]
struct RandomProgram {
    source: String,
}

prop_compose! {
    fn arb_program()(
        loops in 1usize..4,
        body in 1usize..6,
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

/// Cut a run at `cut` retired instructions, snapshot, restore into a
/// fresh processor, and demand that donor and clone finish with
/// byte-identical end state.
fn assert_round_trip(
    image: &cimon_mem::ProgramImage,
    config: &ProcessorConfig,
    cut: u64,
    tamper: Option<(u32, u8)>,
) {
    let prepare = |cpu: &mut Processor| {
        if let Some((victim, bit)) = tamper {
            let old = cpu.mem().read_u32(victim).unwrap();
            cpu.mem_mut().write_u32(victim, old ^ (1 << bit)).unwrap();
        }
    };
    let mut donor = Processor::new(image, config.clone());
    prepare(&mut donor);
    if donor.run_to_instret(cut).is_some() {
        // The run ended before the cut (tampering can shorten runs):
        // nothing mid-run to snapshot, and that is fine.
        return;
    }
    let snap = donor.snapshot();
    assert_eq!(snap.instret(), donor.instret());

    let mut clone = Processor::new(image, config.clone());
    // Deliberately *no* `prepare`: the snapshot must carry the
    // tampered memory itself.
    clone.restore(&snap).expect("uncorrupted snapshot restores");
    assert_eq!(clone.instret(), donor.instret());
    assert_eq!(clone.pc(), donor.pc());

    let donor_out = donor.run();
    let clone_out = clone.run();
    assert_eq!(donor_out, clone_out, "outcome diverged after restore");
    assert_eq!(donor.stats(), clone.stats(), "stats diverged after restore");
    assert_eq!(
        donor.cycles(),
        clone.cycles(),
        "cycles diverged after restore"
    );
    assert_eq!(
        donor.regs().snapshot(),
        clone.regs().snapshot(),
        "registers diverged after restore"
    );
    assert_eq!(
        donor.block_stats(),
        clone.block_stats(),
        "block-exec counters diverged after restore"
    );
}

fn variants(fht: FullHashTable) -> Vec<ProcessorConfig> {
    let monitored = ProcessorConfig::monitored(CicConfig::with_entries(8), fht);
    let mut configs = Vec::new();
    for base in [ProcessorConfig::baseline(), monitored] {
        for block in [BlockExec::On, BlockExec::Off] {
            let mut c = base.clone();
            c.block_exec = block;
            // Tampering can manufacture unbounded loops; bound them so
            // a case stays cheap while still outliving every clean run.
            c.max_cycles = 50_000;
            configs.push(c);
        }
    }
    configs
}

proptest! {
    #[test]
    fn snapshots_round_trip_at_arbitrary_cuts(
        p in arb_program(),
        cut in 1u64..400,
    ) {
        let prog = assemble(&p.source).expect("generated program assembles");
        let fht = trace_fht(&prog.image);
        for config in variants(fht) {
            assert_round_trip(&prog.image, &config, cut, None);
        }
    }

    #[test]
    fn recording_snapshots_restore_into_non_recording_processors(
        p in arb_program(),
        cut in 1u64..400,
    ) {
        // Block recording is run control, not run state: a snapshot
        // taken while recording resumes in a processor that does not
        // record to the same outcome and statistics.
        let prog = assemble(&p.source).expect("generated program assembles");
        let fht = trace_fht(&prog.image);
        for config in variants(fht) {
            let recording = ProcessorConfig {
                record_blocks: true,
                ..config.clone()
            };
            let mut donor = Processor::new(&prog.image, recording.clone());
            if donor.run_to_instret(cut).is_some() {
                continue;
            }
            let snap = donor.snapshot();
            let mut clone = Processor::new(&prog.image, config.clone());
            clone.restore(&snap).expect("recording snapshot restores");
            // A log drained before the snapshot is not in it: a
            // recording processor restored from it logs only the rest.
            let drained = donor.take_blocks();
            let mut resumed = Processor::new(&prog.image, recording);
            resumed.restore(&donor.snapshot()).expect("drained snapshot restores");
            prop_assert_eq!(clone.run(), donor.run());
            prop_assert_eq!(clone.stats(), donor.stats());
            prop_assert_eq!(clone.block_stats(), donor.block_stats());
            prop_assert_eq!(resumed.run(), donor.run());
            prop_assert_eq!(resumed.stats(), donor.stats());
            prop_assert_eq!(resumed.blocks(), donor.blocks());
            prop_assert!(drained.len() + donor.blocks().len() > 0);
        }
    }

    #[test]
    fn corrupted_snapshots_never_restore_silently(
        p in arb_program(),
        cut in 1u64..400,
        byte_idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        // A snapshot is checked where its bytes come back from outside
        // the process: one bit flipped in a memory word of the
        // checksummed core must fail `from_bytes` with the typed
        // integrity error — never decode into a divergent run.
        let prog = assemble(&p.source).expect("generated program assembles");
        let text = &prog.image.text.bytes;
        let fht = trace_fht(&prog.image);
        for config in variants(fht) {
            let mut donor = Processor::new(&prog.image, config.clone());
            if donor.run_to_instret(cut).is_some() {
                continue;
            }
            let mut bytes = donor.snapshot().to_bytes();
            // The program never writes its text, so the dense memory
            // region carries it verbatim.
            let at = bytes
                .windows(text.len())
                .position(|w| w == &text[..])
                .expect("the text segment is in the encoded memory");
            bytes[at + byte_idx.index(text.len())] ^= 1 << bit;
            prop_assert_eq!(
                ProcessorSnapshot::from_bytes(&bytes).map(|s| s.instret()),
                Err(CodecError::Invalid {
                    what: "snapshot integrity checksum"
                })
            );
        }
    }

    #[test]
    fn snapshot_bytes_round_trip_byte_for_byte(
        p in arb_program(),
        cut in 1u64..400,
    ) {
        let prog = assemble(&p.source).expect("generated program assembles");
        let fht = trace_fht(&prog.image);
        for config in variants(fht) {
            let mut donor = Processor::new(&prog.image, config.clone());
            if donor.run_to_instret(cut).is_some() {
                continue;
            }
            let snap = donor.snapshot();
            let bytes = snap.to_bytes();
            let decoded = ProcessorSnapshot::from_bytes(&bytes).expect("intact bytes decode");
            prop_assert_eq!(decoded.to_bytes(), bytes);
            prop_assert_eq!(decoded.checksum(), snap.checksum());
            // The decoded snapshot resumes exactly like the original.
            let mut clone = Processor::new(&prog.image, config.clone());
            clone.restore(&decoded).expect("decoded snapshot restores");
            prop_assert_eq!(clone.run(), donor.run());
            prop_assert_eq!(clone.stats(), donor.stats());
            prop_assert_eq!(clone.block_stats(), donor.block_stats());
        }
    }

    #[test]
    fn snapshot_decode_of_damaged_bytes_is_typed(
        p in arb_program(),
        cut in 1u64..400,
        at in any::<prop::sample::Index>(),
        noise in prop::collection::vec(any::<u8>(), 1..64),
        junk in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let prog = assemble(&p.source).expect("generated program assembles");
        let mut cpu = Processor::new(&prog.image, ProcessorConfig::baseline());
        let _ = cpu.run_to_instret(cut);
        let bytes = cpu.snapshot().to_bytes();
        let i = at.index(bytes.len());
        // Every proper prefix is truncated.
        prop_assert!(ProcessorSnapshot::from_bytes(&bytes[..i]).is_err());
        // Overwriting a window, or appending garbage, may only ever
        // yield a typed error or an architecturally consistent decode.
        let mut window = bytes.clone();
        for (k, b) in noise.iter().enumerate() {
            if let Some(slot) = window.get_mut(i + k) {
                *slot = *b;
            }
        }
        let mut cut_tail = bytes[..i].to_vec();
        cut_tail.extend_from_slice(&junk);
        let mut appended = bytes.clone();
        appended.extend_from_slice(&noise);
        for candidate in [&window, &cut_tail, &junk, &appended] {
            if let Ok(s) = ProcessorSnapshot::from_bytes(candidate) {
                prop_assert_eq!(s.compute_checksum(), s.checksum());
            }
        }
        prop_assert!(ProcessorSnapshot::from_bytes(&appended).is_err());
    }

    #[test]
    fn post_tamper_snapshots_round_trip(
        p in arb_program(),
        cut in 1u64..400,
        word_idx in any::<prop::sample::Index>(),
        bit in 0u8..32,
    ) {
        let prog = assemble(&p.source).expect("generated program assembles");
        let n_words = prog.image.text.bytes.len() / 4;
        let victim = prog.image.text.base + 4 * word_idx.index(n_words) as u32;
        let fht = trace_fht(&prog.image);
        for config in variants(fht) {
            assert_round_trip(&prog.image, &config, cut, Some((victim, bit)));
        }
    }
}
