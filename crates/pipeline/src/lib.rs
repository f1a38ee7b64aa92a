//! # cimon-pipeline — the single-issue 6-stage PISA processor
//!
//! The micro-architecture the paper evaluates on: an in-order,
//! single-issue pipeline (IF, ID, RR, EX, MEM, WB) running the
//! `cimon-isa` instruction set, with the Code Integrity Checker embedded
//! through the micro-op programs of a
//! [`ProcessorSpec`](cimon_microop::ProcessorSpec).
//!
//! ## Simulation style
//!
//! The simulator is **timing-directed functional**: instructions execute
//! functionally in program order (so architectural state is exact), while
//! a cycle-accurate scheduling model ([`timing`]) accounts for pipeline
//! fill, operand interlocks, taken-control-flow bubbles and monitoring
//! exception stalls. This is the standard structure of e.g.
//! SimpleScalar's `sim-outorder` timing front-ends, and it has one
//! property that matters here: the monitor observes exactly the
//! *committed* instruction stream. The paper computes `RHASH` at IF and
//! relies on guarded micro-ops so squashed wrong-path fetches do not
//! corrupt the block hash; hashing the committed stream yields the same
//! value by construction (see `DESIGN.md`, "Modelling decisions").
//!
//! ## Quick example
//!
//! ```
//! use cimon_asm::assemble;
//! use cimon_pipeline::{Processor, ProcessorConfig, RunOutcome};
//!
//! let prog = assemble("
//!     .text
//! main:
//!     li   $t0, 5
//!     li   $t1, 0
//! loop:
//!     addu $t1, $t1, $t0
//!     addiu $t0, $t0, -1
//!     bnez $t0, loop
//!     move $a0, $t1
//!     li   $v0, 10
//!     syscall
//! ").unwrap();
//! let mut cpu = Processor::new(&prog.image, ProcessorConfig::baseline());
//! let outcome = cpu.run();
//! assert_eq!(outcome, RunOutcome::Exited { code: 15 }); // 5+4+3+2+1
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod blockexec;
pub mod monitor;
pub mod predecode;
pub mod processor;
pub mod regfile;
pub mod timing;

pub use blockexec::{BlockCache, CachedBlock, MAX_BLOCK_LEN};
pub use monitor::{CicMonitor, CicMonitorState, Verdict};
pub use predecode::{PredecodedEntry, PredecodedImage};
pub use processor::{
    BlockEvent, BlockExec, BlockExecStats, ConsoleEvent, FaultKind, MonitorConfig, Predecode,
    Processor, ProcessorConfig, ProcessorSnapshot, RunOutcome, RunStats,
    DEFAULT_WATCHDOG_POLL_BITS,
};
pub use regfile::RegFile;
pub use timing::{BlockPlan, Timing, TimingConfig, MASK_HI, MASK_LO};
