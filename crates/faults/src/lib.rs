//! # cimon-faults — transient-fault injection
//!
//! The paper's motivation is twofold: *soft errors* (radiation-induced
//! transient bit flips, Section 1) and *malicious code modification*. At
//! the instruction level both are the same event — bits of an
//! instruction word change — differing only in where and when. This
//! crate injects exactly those events and classifies what the monitored
//! processor does about them:
//!
//! * **stored-image faults** flip bits in the text segment in memory
//!   (an attack that modifies code after load, or an SRAM upset);
//! * **fetch-bus faults** corrupt a word in flight between memory and
//!   the pipeline (the case motivating the paper's "check as late as
//!   possible" placement, Section 3.2) — one-shot (a transient glitch)
//!   or stuck-at (a persistent line defect).
//!
//! [`campaign`] runs seeded Monte-Carlo campaigns over fault models
//! (single bit, n-bit, same-column pairs) and aggregates detection
//! coverage, reproducing the fault analysis of Section 6.3.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod campaign;
pub mod inject;

pub use campaign::{Campaign, CampaignConfig, CampaignResult, FaultModel, Outcome};
pub use inject::{BitFlip, BusFaultMode, FaultPlan, FaultSite, PlannedBusTap};
