//! # Synthetic large-program corpus
//!
//! The MiBench-like registry finishes in milliseconds — far too small
//! to exercise long-run machinery (the block-dispatch loop, text-write
//! invalidation, campaign checkpoint-restart) at realistic scale. This
//! module promotes the differential-test program generator into a
//! first-class, seeded corpus: loopy control-flow graphs with nested
//! counted loops, direct calls (`jal`/`jr`), **indirect calls** through
//! register-computed targets (`la`+`jalr`), and **self-modifying
//! stores** that write instruction words back to the text segment
//! (byte-identical rewrites, so monitored runs stay clean while every
//! text-write invalidation path fires). Dynamic length is configurable
//! up to millions of instructions via
//! [`CorpusSpec::target_dynamic_instructions`].
//!
//! Programs never read the cycle counter (syscall 30), so their
//! architectural results do not depend on the timing model; their exit
//! codes are data-dependent and are *not* pre-computed — harnesses use
//! a reference run as the oracle.

use std::fmt::Write as _;

use cimon_core::SplitMix64;

/// What to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorpusSpec {
    /// Generator seed: same seed, same program.
    pub seed: u64,
    /// Approximate dynamic instruction count to aim for. The generator
    /// sizes the outer loop's trip count from the (exactly known)
    /// per-iteration cost, so the real count lands within one outer
    /// iteration of this.
    pub target_dynamic_instructions: u64,
}

/// A generated corpus program.
#[derive(Clone, Debug)]
pub struct CorpusProgram {
    /// `corpus-<seed>-<target>`.
    pub name: String,
    /// The spec it was generated from.
    pub spec: CorpusSpec,
    /// Complete assembly source.
    pub source: String,
    /// The generator's own estimate of the dynamic instruction count
    /// (exact up to the final partial outer iteration).
    pub approx_dynamic_instructions: u64,
}

impl CorpusProgram {
    /// Assemble this corpus program.
    ///
    /// # Panics
    ///
    /// Panics if the source fails to assemble — generated sources are
    /// deterministic, so that is a bug in the generator.
    pub fn assemble(&self) -> cimon_asm::Program {
        match cimon_asm::assemble(&self.source) {
            Ok(p) => p,
            Err(e) => panic!("corpus program `{}` failed to assemble: {e}", self.name),
        }
    }
}

/// The generator's seeded stream: the low 32 bits of each SplitMix64
/// output.
struct Stream(SplitMix64);

impl Stream {
    fn next(&mut self) -> u32 {
        self.0.next_u64() as u32
    }

    fn below(&mut self, n: u32) -> u32 {
        self.next() % n.max(1)
    }
}

/// Scratch registers random bodies draw from. `$t7`–`$t9` are reserved
/// for corpus plumbing (indirect-call and self-modification targets),
/// `$s0`–`$s1` for loop counters.
const BODY_REGS: [&str; 6] = ["$t0", "$t1", "$t2", "$t3", "$t4", "$t5"];

/// Emit one random straight-line instruction; returns nothing, always
/// exactly one dynamic instruction.
fn emit_body_op(src: &mut String, rng: &mut Stream) {
    let a = BODY_REGS[rng.below(6) as usize];
    let b = BODY_REGS[rng.below(6) as usize];
    let c = BODY_REGS[rng.below(6) as usize];
    match rng.below(10) {
        0 => {
            let _ = writeln!(src, "    addu {a}, {b}, {c}");
        }
        1 => {
            let _ = writeln!(src, "    subu {a}, {b}, {c}");
        }
        2 => {
            let _ = writeln!(src, "    xor {a}, {b}, {c}");
        }
        3 => {
            let _ = writeln!(src, "    and {a}, {b}, {c}");
        }
        4 => {
            let _ = writeln!(src, "    addiu {a}, {b}, {}", rng.next() as i32 % 100);
        }
        5 => {
            let _ = writeln!(src, "    sll {a}, {b}, {}", rng.below(8));
        }
        6 => {
            let _ = writeln!(src, "    lw {a}, {}($gp)", rng.below(64) * 4);
        }
        7 => {
            let _ = writeln!(src, "    sw {a}, {}($gp)", rng.below(64) * 4);
        }
        8 => {
            let _ = writeln!(src, "    mult {a}, {b}");
        }
        _ => {
            let _ = writeln!(src, "    mflo {a}");
        }
    }
}

/// Generate one corpus program from a spec.
pub fn generate(spec: &CorpusSpec) -> CorpusProgram {
    let mut rng = Stream(SplitMix64(spec.seed));
    let mut src = String::from("    .data\nbuf: .word ");
    for i in 0..64 {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(src, "{sep}{}", rng.next());
    }
    src.push_str("\n    .text\nmain:\n");
    for r in BODY_REGS {
        let _ = writeln!(src, "    li {r}, {}", rng.next() as i32 % 500);
    }
    let _ = writeln!(src, "    j entry");

    // --- Subroutines: straight-line bodies ending in `jr $ra`. They
    // only touch BODY_REGS, so callers' loop counters survive. ---
    let n_funcs = 3 + rng.below(3) as usize;
    let mut func_cost = Vec::with_capacity(n_funcs);
    for f in 0..n_funcs {
        let _ = writeln!(src, "F{f}:");
        let body = 3 + rng.below(8);
        for _ in 0..body {
            emit_body_op(&mut src, &mut rng);
        }
        let _ = writeln!(src, "    jr $ra");
        // body + jr.
        func_cost.push(body as u64 + 1);
    }

    // --- Main: one outer loop sized to hit the dynamic target, whose
    // body is a random mix of inner counted loops, direct and indirect
    // calls, and benign self-modifying stores. ---
    let _ = writeln!(src, "entry:");
    let mut outer_body = String::new();
    // Dynamic instructions per outer iteration, tracked exactly.
    let mut per_iter: u64 = 0;
    let n_segments = 3 + rng.below(4);
    let mut selfmod_sites = 0;
    for l in 0..n_segments {
        match rng.below(5) {
            // Inner counted loop over a random straight-line body.
            0..=2 => {
                let trips = (2 + rng.below(30)) as u64;
                let body = 1 + rng.below(6);
                let _ = writeln!(outer_body, "    li $s0, {trips}");
                let _ = writeln!(outer_body, "I{l}:");
                for _ in 0..body {
                    emit_body_op(&mut outer_body, &mut rng);
                }
                let _ = writeln!(outer_body, "    addiu $s0, $s0, -1");
                let _ = writeln!(outer_body, "    bnez $s0, I{l}");
                per_iter += 1 + trips * (body as u64 + 2);
            }
            // A call — half direct (`jal`), half indirect (`la`+`jalr`).
            3 => {
                let f = rng.below(n_funcs as u32) as usize;
                if rng.below(2) == 0 {
                    let _ = writeln!(outer_body, "    jal F{f}");
                    per_iter += 1 + func_cost[f];
                } else {
                    let _ = writeln!(outer_body, "    la $t7, F{f}");
                    let _ = writeln!(outer_body, "    jalr $t7");
                    // la expands to lui+ori.
                    per_iter += 3 + func_cost[f];
                }
            }
            // A benign self-modifying store: read an instruction word
            // out of the text segment and write it straight back. The
            // bytes do not change, so monitored runs stay clean, but
            // the store lands in text and drives every invalidation
            // path (validated-hash bitmap, predecoded image, block
            // validation epochs).
            _ => {
                let site = selfmod_sites;
                selfmod_sites += 1;
                let _ = writeln!(outer_body, "SM{site}:");
                let _ = writeln!(outer_body, "    la $t8, SM{site}");
                let _ = writeln!(outer_body, "    lw $t9, 0($t8)");
                let _ = writeln!(outer_body, "    sw $t9, 0($t8)");
                // lui+ori+lw+sw.
                per_iter += 4;
            }
        }
    }
    // Outer-loop bookkeeping: decrement + branch.
    per_iter += 2;
    let prologue = 6 /* li */ + 1 /* j entry */ + 1 /* li $s1 */;
    let epilogue = 3;
    let budget = spec
        .target_dynamic_instructions
        .saturating_sub(prologue + epilogue);
    let outer_trips = (budget / per_iter).clamp(1, u32::MAX as u64);
    let _ = writeln!(src, "    li $s1, {outer_trips}");
    let _ = writeln!(src, "OUTER:");
    src.push_str(&outer_body);
    let _ = writeln!(src, "    addiu $s1, $s1, -1");
    let _ = writeln!(src, "    bnez $s1, OUTER");
    src.push_str("    move $a0, $t0\n    li $v0, 10\n    syscall\n");

    CorpusProgram {
        name: format!(
            "corpus-{:x}-{}",
            spec.seed, spec.target_dynamic_instructions
        ),
        spec: *spec,
        source: src,
        approx_dynamic_instructions: prologue + epilogue + outer_trips * per_iter,
    }
}

/// A small program (~50k dynamic instructions) — smoke-test sized.
pub fn small(seed: u64) -> CorpusProgram {
    generate(&CorpusSpec {
        seed,
        target_dynamic_instructions: 50_000,
    })
}

/// A medium program (~250k dynamic instructions).
pub fn medium(seed: u64) -> CorpusProgram {
    generate(&CorpusSpec {
        seed,
        target_dynamic_instructions: 250_000,
    })
}

pub fn large(seed: u64) -> CorpusProgram {
    generate(&CorpusSpec {
        seed,
        target_dynamic_instructions: 1_000_000,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = CorpusSpec {
            seed: 7,
            target_dynamic_instructions: 10_000,
        };
        assert_eq!(generate(&spec).source, generate(&spec).source);
        assert_ne!(
            generate(&spec).source,
            generate(&CorpusSpec { seed: 8, ..spec }).source
        );
    }

    #[test]
    fn corpus_programs_assemble_and_scale() {
        for seed in [1u64, 2, 3] {
            let p = small(seed);
            let prog = p.assemble();
            assert!(!prog.image.text.bytes.is_empty());
            assert!(p.approx_dynamic_instructions >= 10_000);
        }
        let big = generate(&CorpusSpec {
            seed: 1,
            target_dynamic_instructions: 1_000_000,
        });
        // Sized from exact per-iteration cost: within one outer
        // iteration of the target.
        let got = big.approx_dynamic_instructions;
        assert!((900_000..=1_100_000).contains(&got), "{got}");
    }

    #[test]
    fn sources_never_read_the_cycle_counter() {
        for seed in 0u64..8 {
            let p = medium(seed);
            assert!(
                !p.source.contains("li $v0, 30"),
                "corpus must stay timing-independent"
            );
        }
    }
}
