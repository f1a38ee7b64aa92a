//! # cimon-core — the Code Integrity Checker (CIC)
//!
//! This crate is the paper's primary contribution: the hardware monitor
//! that watches a processor's execution trace of basic blocks at run time
//! and signals when the instruction stream deviates from the expected
//! program behaviour.
//!
//! ## Architecture (paper, Figure 2)
//!
//! ```text
//!              ┌──────────── Code Integrity Checker ───────────┐
//!   IF ──────▶ │ HASHFU ──▶ RHASH          IHTbb (n entries)   │
//!   (each      │   ▲          │         (Addst, Addend, Hash)  │
//!    fetch)    │   └── STA    └──▶ COMP ◀───────┘              │
//!   ID ──────▶ │        lookup <STA, PPC, RHASH>  ──▶ exc0/exc1│
//!   (block     └───────────────────────────────────────────────┘
//!    end)
//! ```
//!
//! * [`hash`] — the `HASHFU` algorithms: the paper's XOR checksum, the
//!   seeded variant it proposes in Section 6.3, and stronger functions
//!   (Fletcher-32, CRC-32, SHA-1) for its future-work axis.
//! * [`iht`] — the internal hash table: a small CAM keyed by
//!   `(Addst, Addend)` with hardware-maintained LRU recency.
//! * [`checker`] — the [`checker::Cic`] unit tying them together,
//!   exposing exactly the operations the monitoring micro-ops invoke.
//! * [`block`] — the `(start, end, hash)` vocabulary shared with the OS
//!   (full hash table) and the static hash generator.
//! * [`splitmix`] — the seeded stream behind chaos injection, retry
//!   jitter and corpus generation.
//!
//! The checker is micro-architecture-agnostic: `cimon-pipeline` drives it
//! through the micro-op environment, and unit tests drive it directly.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod block;
pub mod checker;
pub mod error;
pub mod hash;
pub mod iht;
pub mod splitmix;

pub use block::{BlockKey, BlockRecord};
pub use checker::{BlockMemo, Cic, CicConfig, CicStats};
pub use error::SimError;
pub use hash::{hasher_for, BlockHasher, HashAlgo};
pub use iht::{Iht, LookupOutcome};
pub use splitmix::{splitmix64, SplitMix64};

pub use cimon_microop::HashAlgoKind;
