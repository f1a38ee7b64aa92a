//! # cimon-microop — microoperations and the ASIP design methodology
//!
//! The paper's central mechanism is that integrity monitoring is *not* a
//! bolt-on coprocessor but a set of **microoperations** — elementary
//! register-transfer operations — embedded into the instruction
//! definitions of an ASIP (Figures 1, 3 and 4). Because microoperations
//! sit below the ISA, the monitor is invisible to software: binaries run
//! unmodified, and no compiler support is needed.
//!
//! This crate reproduces that design flow (the paper's Section 5, built
//! around the ASIP Meister toolchain) as a typed Rust API:
//!
//! 1. a **resource library** of datapath components ([`Resource`]),
//! 2. **micro-op programs** attached to pipeline stages
//!    ([`MicroProgram`], [`MicroOp`]),
//! 3. a [`ProcessorSpec`] capturing the whole processor, and
//! 4. [`embed_monitor`] — the spec-to-spec transform that appends the
//!    monitoring micro-ops of Figures 3–4 and selects the extra hardware
//!    resources (`STA`, `RHASH`, `HASHFU`, the IHT and comparator).
//!
//! Where ASIP Meister emits synthesizable VHDL, this crate emits an
//! executable specification: the pipeline in `cimon-pipeline` executes
//! the stage programs, and `cimon-area` prices the resource list
//! (substitutions documented in `DESIGN.md`).
//!
//! ```
//! use cimon_microop::{baseline_spec, embed_monitor, MonitorParams};
//!
//! let base = baseline_spec();
//! let monitored = embed_monitor(&base, &MonitorParams::default());
//! // The IF stage gained the Figure-3 micro-ops…
//! assert!(monitored.if_program.len() > base.if_program.len());
//! // …and the spec gained the checker resources.
//! assert!(monitored.resources.len() > base.resources.len());
//! monitored.validate().expect("well-formed spec");
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod compile;
pub mod datapath;
pub mod exec;
pub mod ops;
pub mod spec;

pub use compile::{execute_threaded, CompiledProgram, OpData, ThreadedProgram};
pub use datapath::{DReg, Datapath};
pub use exec::{execute, ExceptionKind, MicroEnv, WireEnv};
pub use ops::{Cond, Guard, MicroOp, MicroProgram, Wire};
pub use spec::{
    baseline_spec, embed_monitor, HashAlgoKind, MonitorParams, ProcessorSpec, Resource, SpecError,
};
