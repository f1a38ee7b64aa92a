//! # cimon — microarchitectural program code integrity monitoring
//!
//! A full-system reproduction of *"Microarchitectural Support for
//! Program Code Integrity Monitoring in Application-specific Instruction
//! Set Processors"* (Fei & Shi, DATE 2007): a PISA-like embedded
//! processor whose pipeline is augmented — through ISA-level
//! micro-operations — with a Code Integrity Checker that hashes each
//! dynamic basic block at fetch time and validates it against an
//! on-chip hash table at the block's terminating control-flow
//! instruction.
//!
//! This crate re-exports the whole workspace; see the individual crates
//! for deep documentation:
//!
//! * [`isa`] — the instruction set (formats, encode/decode, semantics)
//! * [`asm`] — the two-pass assembler
//! * [`mem`] — sparse memory, program images, the tappable fetch bus
//! * [`microop`] — micro-operations and the ASIP design methodology
//! * [`pipeline`] — the 6-stage processor and the
//!   [`CicMonitor`](pipeline::CicMonitor) it drives from IF and ID
//! * [`core`] — the Code Integrity Checker (hash units, IHT, comparator)
//! * [`os`] — FHT, refill policies, exception handling
//! * [`hashgen`] — static/trace expected-hash generation
//! * [`faults`] — bit-flip injection and coverage campaigns
//! * [`area`] — calibrated area/cycle-time model (Table 2)
//! * [`workloads`] — the nine MiBench-like benchmarks, assembled once
//!   through [`workloads::registry`]
//! * [`sim`] — the one-call simulation facade and the parallel
//!   experiment engine ([`sim::engine`])
//! * [`serve`] — the crash-safe, back-pressured simulation service
//!   (durable result journaling, graceful drain; `docs/serve.md`)
//!
//! ## Quickstart
//!
//! ```
//! use cimon::prelude::*;
//!
//! let program = cimon::asm::assemble("
//!     .text
//! main:
//!     li   $t0, 3
//! spin:
//!     addiu $t0, $t0, -1
//!     bnez $t0, spin
//!     li   $a0, 0
//!     li   $v0, 10
//!     syscall
//! ").unwrap();
//!
//! let report = run_monitored(&program.image, &SimConfig::default(), None).unwrap();
//! assert!(matches!(report.outcome, RunOutcome::Exited { code: 0 }));
//! ```

pub use cimon_area as area;
pub use cimon_asm as asm;
pub use cimon_core as core;
pub use cimon_faults as faults;
pub use cimon_hashgen as hashgen;
pub use cimon_isa as isa;
pub use cimon_mem as mem;
pub use cimon_microop as microop;
pub use cimon_os as os;
pub use cimon_pipeline as pipeline;
pub use cimon_serve as serve;
pub use cimon_sim as sim;
pub use cimon_workloads as workloads;

/// An experiment-engine [`Artifact`](sim::engine::Artifact) for a
/// registry workload — the single-sourced conversion used by examples
/// and tests (`cimon-bench` keeps its own cached `suite()` of these).
pub fn artifact_for(
    workload: &workloads::AssembledWorkload,
) -> std::sync::Arc<sim::engine::Artifact> {
    sim::engine::Artifact::new(
        workload.name,
        workload.image.clone(),
        Some(workload.expected_exit),
    )
}

/// The names most programs need.
pub mod prelude {
    pub use cimon_core::{CicConfig, HashAlgoKind};
    pub use cimon_pipeline::{Predecode, Processor, ProcessorConfig, RunOutcome};
    pub use cimon_sim::engine::{Artifact, Experiment, ResultRow, Sweep};
    pub use cimon_sim::{
        build_fht, overhead_percent, run_baseline, run_baseline_prepared, run_monitored,
        run_monitored_prepared, run_monitored_with_fht, RunReport, SimConfig,
    };
}
