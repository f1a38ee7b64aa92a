//! Monte-Carlo fault campaigns with detection classification.
//!
//! Campaigns execute on the experiment engine's worker pool
//! ([`cimon_sim::engine::parallel_map_isolated`]): fault plans are
//! drawn serially from one seeded RNG stream — so a campaign's plan
//! sequence is identical to the historical serial loop — and the
//! (independent) faulted runs then execute in parallel with
//! deterministic result ordering. Each run is panic-isolated: a worker
//! that dies takes only its own plan with it, counted in
//! [`CampaignResult::quarantined`]. Runs stopped by the wall-clock
//! watchdog ([`CampaignConfig::max_wall`]) are retried once from their
//! checkpoint and quarantined if they time out again.
//!
//! The pool takes the plans longest predicted run first: plans that
//! restore a checkpoint (below) in descending order of the clean
//! cycles left after their snapshot, then every other plan in plan
//! order. A restored run replays up to a millisecond of tail, against
//! tens of microseconds for most runs from scratch, so a campaign no
//! longer ends with one worker replaying a long tail while the others
//! wait. Submission order cannot change a result: chaos injections key
//! on the absolute plan index and [`CampaignResult`] sums counters.
//!
//! # Checkpoint-restart
//!
//! Every faulted run shares the same clean prefix: until the first
//! cycle that *touches* a flipped word (fetches it, or hashes it as
//! part of an executed block), the faulted execution is byte-identical
//! to the clean reference. [`Campaign::new`] therefore snapshots the
//! reference run at instruction-count intervals and records, per
//! window, the text ranges the clean run touched. A faulted run then
//! restores the last snapshot *before* its flips can first take effect
//! and replays only the tail — and a flip in code the clean run never
//! touches is classified without simulating at all. The cycles not
//! re-simulated accumulate in [`CampaignResult::saved_cycles`].
//!
//! Soundness relies on text being accessed only through instruction
//! fetch (and the monitor's block hashes): a program that *writes* its
//! own text — even with the bytes already there — is detected via the
//! memory's text-write counter ([`cimon_mem::Memory::dense_writes`]) and
//! disables the fast path, while reading text as data is assumed not to happen
//! (true for every workload in the registry — campaign targets are
//! executable code, which the paper's threat model also confines
//! itself to).
//!
//! The reference snapshots stay in RAM: memory clones copy-on-write,
//! so each one costs only the pages the clean run dirtied since the
//! previous one. They carry no block-event log: the checkpointing run
//! records blocks only to build the touch map and drains each window's
//! events before the snapshot that ends it, and restarted runs do not
//! record at all.

use std::sync::Arc;
use std::time::Duration;

use cimon_core::{CicConfig, SimError};
use cimon_mem::ProgramImage;
use cimon_os::FullHashTable;
use cimon_pipeline::{
    BlockCache, BlockExec, ConsoleEvent, Predecode, PredecodedImage, Processor, ProcessorConfig,
    ProcessorSnapshot, RunOutcome,
};
use cimon_sim::chaos;
use cimon_sim::engine::{default_workers, parallel_map_isolated};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inject::{BitFlip, FaultPlan, FaultSite, PlannedBusTap};

/// Random fault model: how many bits flip, and where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultModel {
    /// One bit in one word — the paper's baseline assumption
    /// ("a single bit flip in a basic block", Section 3.4).
    SingleBit,
    /// `n` independent uniform flips (may touch different words).
    MultiBit {
        /// Number of flips.
        n: usize,
    },
    /// Two flips in the *same bit column* of two different words — the
    /// adversarial worst case for the XOR checksum, which it provably
    /// cannot see.
    SameColumnPair,
}

impl FaultModel {
    /// Generate a set of flips over the `targets` address pool.
    fn generate(&self, rng: &mut StdRng, targets: &[u32]) -> Vec<BitFlip> {
        let pick_addr = |rng: &mut StdRng| targets[rng.gen_range(0..targets.len())];
        match self {
            FaultModel::SingleBit => {
                vec![BitFlip::new(pick_addr(rng), rng.gen_range(0..32))]
            }
            FaultModel::MultiBit { n } => {
                let mut flips = Vec::with_capacity(*n);
                while flips.len() < *n {
                    let f = BitFlip::new(pick_addr(rng), rng.gen_range(0..32));
                    if !flips.contains(&f) {
                        flips.push(f);
                    }
                }
                flips
            }
            FaultModel::SameColumnPair => {
                let bit = rng.gen_range(0..32);
                let a = pick_addr(rng);
                let mut b = pick_addr(rng);
                let mut guard = 0;
                while b == a && guard < 1000 {
                    b = pick_addr(rng);
                    guard += 1;
                }
                vec![BitFlip::new(a, bit), BitFlip::new(b, bit)]
            }
        }
    }
}

/// How one faulted run ended, relative to the clean reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The integrity monitor raised a fatal exception (hash mismatch or
    /// unknown block).
    DetectedByMonitor,
    /// The baseline micro-architecture caught it first (illegal opcode,
    /// alignment fault, bad syscall — Section 6.3's "some errors can be
    /// detected by baseline microarchitecture itself").
    DetectedByBaseline,
    /// The program finished with a result identical to the clean run —
    /// the fault was architecturally masked (e.g. flipped a don't-care
    /// field, or the corrupted path never executed).
    Masked,
    /// The program finished but produced a different result: an
    /// undetected integrity violation. For the plain XOR checksum this
    /// is exactly the cancellation case.
    SilentCorruption,
    /// The program neither finished nor tripped a check within the cycle
    /// budget.
    Hung,
    /// The run could not be classified: its worker panicked, or the
    /// wall-clock watchdog stopped it twice in a row. Quarantined runs
    /// are counted but never contribute to coverage — the campaign
    /// degrades instead of hanging or crashing.
    Quarantined,
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of faulted runs.
    pub runs: usize,
    /// RNG seed (campaigns are deterministic given the seed).
    pub seed: u64,
    /// Fault model.
    pub model: FaultModel,
    /// Injection site.
    pub site: FaultSite,
    /// Word addresses eligible for flips (e.g. the executed text
    /// region; the paper notes only executed code is checkable).
    pub targets: Vec<u32>,
    /// Cycle budget per faulted run.
    pub max_cycles: u64,
    /// Wall-clock watchdog per faulted run (`None` disables it). A run
    /// the watchdog stops is retried once from its checkpoint, then
    /// quarantined ([`CampaignResult::quarantined`]) — one pathological
    /// plan can no longer stall a whole campaign.
    pub max_wall: Option<Duration>,
}

/// Aggregated campaign counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignResult {
    /// Runs ending in monitor detection.
    pub detected_monitor: usize,
    /// Runs ending in baseline-fault detection.
    pub detected_baseline: usize,
    /// Architecturally masked runs.
    pub masked: usize,
    /// Undetected corruptions.
    pub silent: usize,
    /// Hung runs.
    pub hung: usize,
    /// Runs that could not be classified: worker panic, or stopped by
    /// the wall-clock watchdog twice (once from scratch, once on the
    /// checkpoint retry).
    pub quarantined: usize,
    /// Cycles the checkpoint-restart path did not have to re-simulate:
    /// clean prefixes reused from the reference run's snapshots, plus
    /// whole runs classified from the reference alone (flips in code
    /// the clean run never touches). Zero when checkpointing is
    /// unavailable (non-exiting reference, or self-modifying text).
    pub saved_cycles: u64,
}

impl CampaignResult {
    /// Total runs (quarantined ones included).
    pub fn total(&self) -> usize {
        self.detected_monitor
            + self.detected_baseline
            + self.masked
            + self.silent
            + self.hung
            + self.quarantined
    }

    /// Detection coverage over *effective* faults: detected / (total −
    /// masked − quarantined). Masked faults changed nothing observable,
    /// so no monitor could or should flag them; quarantined runs were
    /// never classified, so they can neither prove nor disprove
    /// coverage.
    pub fn coverage_percent(&self) -> f64 {
        let effective = self.total() - self.masked - self.quarantined;
        if effective == 0 {
            100.0
        } else {
            100.0 * (self.detected_monitor + self.detected_baseline) as f64 / effective as f64
        }
    }

    /// Silent-corruption rate over all runs.
    pub fn silent_percent(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.silent as f64 / self.total() as f64
        }
    }

    /// Fold another result's counts into this one. Merging the results
    /// of [`Campaign::run_range`] over a partition of `0..runs` yields
    /// exactly the full [`Campaign::run`] result — the serve layer
    /// leans on this to journal long campaigns chunk by chunk and
    /// resume after a crash without re-running finished chunks.
    pub fn merge(&mut self, other: &CampaignResult) {
        self.detected_monitor += other.detected_monitor;
        self.detected_baseline += other.detected_baseline;
        self.masked += other.masked;
        self.silent += other.silent;
        self.hung += other.hung;
        self.quarantined += other.quarantined;
        self.saved_cycles += other.saved_cycles;
    }

    /// Tally one classified outcome.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::DetectedByMonitor => self.detected_monitor += 1,
            Outcome::DetectedByBaseline => self.detected_baseline += 1,
            Outcome::Masked => self.masked += 1,
            Outcome::SilentCorruption => self.silent += 1,
            Outcome::Hung => self.hung += 1,
            Outcome::Quarantined => self.quarantined += 1,
        }
    }
}

/// Reference-run checkpoints for campaign fast-forwarding: snapshots
/// at instruction-count intervals, plus the text ranges the clean run
/// touched within each inter-snapshot window (fetched *or* hashed —
/// block events cover every word of an executed block, which is
/// exactly the set the monitor reads).
struct Checkpoints {
    snaps: Vec<ProcessorSnapshot>,
    /// Clean-run cycle count at each snapshot.
    snap_cycles: Vec<u64>,
    /// Per window (`snaps.len() + 1` of them), sorted disjoint
    /// `[lo, hi]` inclusive word ranges touched in that window. A block
    /// in flight at a snapshot is attributed to the window *before* the
    /// cut (its first words were fetched there), so a flip's window is
    /// conservative: restart at or before the true first touch.
    touched: Vec<Vec<(u32, u32)>>,
    /// Total cycles of the clean reference run.
    reference_cycles: u64,
}

impl Checkpoints {
    /// Earliest window whose touched set contains `addr`.
    fn window_of(&self, addr: u32) -> Option<usize> {
        self.touched.iter().position(|ranges| {
            ranges
                .binary_search_by(|&(lo, hi)| {
                    if hi < addr {
                        std::cmp::Ordering::Less
                    } else if lo > addr {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .is_ok()
        })
    }

    /// Earliest window in which any of the plan's flips can first take
    /// effect; `None` when the clean run never touches any flipped word.
    fn plan_window(&self, plan: &FaultPlan) -> Option<usize> {
        plan.flips
            .iter()
            .filter_map(|f| self.window_of(f.addr))
            .min()
    }

    /// The clean cycles left after the snapshot a plan restores from,
    /// which predicts the length of its replayed tail; `None` for a plan
    /// that runs from scratch or is classified without simulating.
    fn restored_tail(&self, plan: &FaultPlan) -> Option<u64> {
        match self.plan_window(plan)? {
            0 => None,
            w => Some(
                self.reference_cycles
                    .saturating_sub(self.snap_cycles[w - 1]),
            ),
        }
    }
}

/// Merge raw block ranges into sorted disjoint inclusive intervals.
fn merge_ranges(mut ranges: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    ranges.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(ranges.len());
    for (lo, hi) in ranges {
        match out.last_mut() {
            Some(last) if lo <= last.1.saturating_add(4) => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// A configured fault campaign over one program.
///
/// The image is predecoded and block-grouped once at construction;
/// every faulted run shares those caches, so a campaign's thousands of
/// short runs skip the per-run decode and grouping passes (tampered
/// words are word-validated at dispatch time, so sharing can never mask
/// an injected fault). Construction also snapshots the clean reference
/// run so [`Campaign::run`] can restart faulted runs just before their
/// flips first take effect (see the module docs).
pub struct Campaign {
    image: Arc<ProgramImage>,
    cic: CicConfig,
    fht: Arc<FullHashTable>,
    predecoded: Arc<PredecodedImage>,
    blocks: Arc<BlockCache>,
    reference: (RunOutcome, Vec<ConsoleEvent>),
    /// Clean-run snapshots and touch map; `None` when the reference did
    /// not exit cleanly or the program writes its own text.
    checkpoints: Option<Checkpoints>,
}

impl Campaign {
    /// Prepare a campaign: runs the program once cleanly (monitored) to
    /// capture the reference result, then snapshots it for
    /// checkpoint-restart (module docs).
    pub fn new(
        image: impl Into<Arc<ProgramImage>>,
        cic: CicConfig,
        fht: impl Into<Arc<FullHashTable>>,
    ) -> Campaign {
        let image = image.into();
        let fht = fht.into();
        let predecoded = Arc::new(PredecodedImage::new(&image));
        let blocks = Arc::new(BlockCache::new(predecoded.clone()));
        let mut campaign = Campaign {
            image,
            cic,
            fht,
            predecoded,
            blocks,
            reference: (RunOutcome::MaxCycles, Vec::new()),
            checkpoints: None,
        };
        let mut cpu = campaign.processor(&campaign.fht, ProcessorConfig::baseline().max_cycles);
        let outcome = cpu.run();
        let stats = cpu.stats();
        campaign.reference = (outcome, stats.console);
        if matches!(outcome, RunOutcome::Exited { .. }) {
            campaign.checkpoints = campaign.build_checkpoints(stats.instructions);
        }
        campaign
    }

    /// A monitored processor over the campaign's shared caches.
    fn processor(&self, fht: &Arc<FullHashTable>, max_cycles: u64) -> Processor {
        self.processor_with(fht, max_cycles, None, false)
    }

    fn processor_with(
        &self,
        fht: &Arc<FullHashTable>,
        max_cycles: u64,
        max_wall: Option<Duration>,
        record_blocks: bool,
    ) -> Processor {
        Processor::new(
            &self.image,
            ProcessorConfig {
                max_cycles,
                max_wall,
                record_blocks,
                predecode: Predecode::Shared(self.predecoded.clone()),
                block_exec: BlockExec::Shared(self.blocks.clone()),
                ..ProcessorConfig::monitored(self.cic, fht.clone())
            },
        )
    }

    /// Re-run the clean reference with block recording, snapshotting
    /// every `instructions / 8` retired instructions, and derive the
    /// per-window touch map. Each window's block events are drained out
    /// of the processor before the snapshot at its end, so checkpoints
    /// carry no block-event log. Returns `None` when the program writes
    /// its own text (a pre-applied flip could be overwritten before its
    /// first fetch, so prefix reuse would be unsound).
    fn build_checkpoints(&self, instructions: u64) -> Option<Checkpoints> {
        const WINDOWS: u64 = 8;
        let interval = (instructions / WINDOWS).max(1);
        let mut cpu = self.processor_with(
            &self.fht,
            ProcessorConfig::baseline().max_cycles,
            None,
            true,
        );
        let text_writes = cpu.mem().dense_writes();
        let mut snaps = Vec::new();
        let mut snap_cycles = Vec::new();
        // Per window, the `[start, end]` word range of each block.
        let mut windows: Vec<Vec<(u32, u32)>> = Vec::new();
        let mut drain = |cpu: &mut Processor| {
            windows.push(
                cpu.take_blocks()
                    .iter()
                    .map(|e| (e.key.start, e.key.end))
                    .collect(),
            );
        };
        loop {
            let target = (snaps.len() as u64 + 1) * interval;
            match cpu.run_to_instret(target) {
                Some(_) => break,
                None => {
                    drain(&mut cpu);
                    snaps.push(cpu.snapshot());
                    snap_cycles.push(cpu.cycles());
                }
            }
        }
        drain(&mut cpu);
        if cpu.mem().dense_writes() != text_writes {
            return None;
        }
        let reference_cycles = cpu.cycles();
        let mut touched = Vec::with_capacity(windows.len());
        for i in 0..windows.len() {
            let mut ranges = std::mem::take(&mut windows[i]);
            // The block in flight at the cut completes (and is logged)
            // in the next window, but its first words were already
            // fetched in this one: attribute it here as well.
            if let Some(&next) = windows.get(i + 1).and_then(|w| w.first()) {
                ranges.push(next);
            }
            touched.push(merge_ranges(ranges));
        }
        Some(Checkpoints {
            snaps,
            snap_cycles,
            touched,
            reference_cycles,
        })
    }

    /// The clean reference outcome.
    pub fn reference_outcome(&self) -> RunOutcome {
        self.reference.0
    }

    /// Run one faulted execution and classify it.
    pub fn run_one(&self, plan: &FaultPlan, max_cycles: u64) -> Outcome {
        self.run_one_walled(plan, max_cycles, None)
    }

    /// [`Campaign::run_one`] with the wall-clock watchdog armed; a run
    /// it stops classifies as [`Outcome::Quarantined`].
    fn run_one_walled(
        &self,
        plan: &FaultPlan,
        max_cycles: u64,
        max_wall: Option<Duration>,
    ) -> Outcome {
        let mut cpu = self.processor_with(&self.fht, max_cycles, max_wall, false);
        match plan.site {
            FaultSite::StoredImage => {
                for f in &plan.flips {
                    f.apply_to_memory(cpu.mem_mut());
                }
            }
            FaultSite::FetchBus(mode) => {
                cpu.set_bus_tap(Box::new(PlannedBusTap::new(plan.flips.clone(), mode)));
            }
        }
        let outcome = cpu.run();
        self.classify(outcome, &cpu.stats().console)
    }

    /// [`Campaign::run_one`] through the checkpoint-restart fast path:
    /// restore the last clean snapshot taken before the plan's flips
    /// can first take effect and replay only the tail. Returns the
    /// classification plus the clean-prefix cycles *not* re-simulated.
    ///
    /// The replayed tail is exact, not approximate: the snapshot
    /// carries the complete run state (timing included), so budget
    /// interrupts, console output, and detection all land on the same
    /// cycle as a from-scratch faulted run.
    fn run_one_restarted(
        &self,
        plan: &FaultPlan,
        max_cycles: u64,
        max_wall: Option<Duration>,
    ) -> (Outcome, u64) {
        let Some(cp) = &self.checkpoints else {
            return (self.run_one_walled(plan, max_cycles, max_wall), 0);
        };
        match cp.plan_window(plan) {
            // The clean run never fetches or hashes any flipped word,
            // so the faulted run is the clean run (module docs): it
            // exits identically within the budget, or hangs on it.
            None if cp.reference_cycles <= max_cycles => (Outcome::Masked, cp.reference_cycles),
            None => (Outcome::Hung, max_cycles),
            Some(0) => (self.run_one_walled(plan, max_cycles, max_wall), 0),
            Some(w) => {
                let saved = cp.snap_cycles[w - 1];
                if saved > max_cycles {
                    // The budget expires inside the clean prefix,
                    // before the flips can activate.
                    return (Outcome::Hung, max_cycles);
                }
                let mut cpu = self.processor_with(&self.fht, max_cycles, max_wall, false);
                cpu.restore(&cp.snaps[w - 1])
                    .unwrap_or_else(|never| match never {});
                match plan.site {
                    FaultSite::StoredImage => {
                        for f in &plan.flips {
                            f.apply_to_memory(cpu.mem_mut());
                        }
                    }
                    FaultSite::FetchBus(mode) => {
                        // The tap is fresh, exactly as in a scratch
                        // run: no flip address was fetched before the
                        // restore point, so no one-shot state is lost.
                        cpu.set_bus_tap(Box::new(PlannedBusTap::new(plan.flips.clone(), mode)));
                    }
                }
                let outcome = cpu.run();
                (self.classify(outcome, &cpu.stats().console), saved)
            }
        }
    }

    fn classify(&self, outcome: RunOutcome, console: &[ConsoleEvent]) -> Outcome {
        match outcome {
            RunOutcome::Detected { .. } => Outcome::DetectedByMonitor,
            RunOutcome::Fault(_) => Outcome::DetectedByBaseline,
            RunOutcome::MaxCycles => Outcome::Hung,
            RunOutcome::Watchdog => Outcome::Quarantined,
            RunOutcome::Exited { .. } => {
                if outcome == self.reference.0 && console == self.reference.1 {
                    Outcome::Masked
                } else {
                    Outcome::SilentCorruption
                }
            }
        }
    }

    /// The fault plans a campaign config expands to, drawn serially
    /// from the seeded RNG stream (deterministic given the seed).
    pub fn plans(&self, config: &CampaignConfig) -> Vec<FaultPlan> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        (0..config.runs)
            .map(|_| FaultPlan {
                site: config.site,
                flips: config.model.generate(&mut rng, &config.targets),
            })
            .collect()
    }

    /// Run a full campaign on the engine's worker pool.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `config.targets` is empty.
    pub fn run(&self, config: &CampaignConfig) -> Result<CampaignResult, SimError> {
        self.run_with_workers(config, default_workers())
    }

    /// Run a full campaign with an explicit worker count (1 = serial).
    /// The result is identical for any worker count: plans are
    /// pre-generated serially and each faulted run is independent.
    ///
    /// Each run goes through checkpoint-restart (module docs): only the
    /// tail from the last clean snapshot before the plan's flips can
    /// activate is re-simulated, and the skipped prefix cycles are
    /// reported in [`CampaignResult::saved_cycles`]. Classifications
    /// are identical to from-scratch runs ([`Campaign::run_one`]).
    ///
    /// Workers are panic-isolated: a plan whose run panics is counted
    /// in [`CampaignResult::quarantined`] and every other plan is
    /// classified normally. Runs the wall-clock watchdog stops are
    /// retried once from their checkpoint before being quarantined.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `config.targets` is empty.
    pub fn run_with_workers(
        &self,
        config: &CampaignConfig,
        workers: usize,
    ) -> Result<CampaignResult, SimError> {
        self.run_range_with_workers(config, 0..config.runs, workers)
    }

    /// Run a contiguous subrange of the campaign's plans on the worker
    /// pool. Plans are always drawn for the *full* config first (the
    /// RNG stream is positional), so `run_range(cfg, a..b)` classifies
    /// exactly the plans `run(cfg)` would classify at indices `a..b` —
    /// and chaos injections key on the absolute plan index, so merging
    /// the results of a partition of `0..runs` reproduces the full
    /// campaign result byte for byte even under `CIMON_CHAOS=1`. This
    /// is the serve layer's unit of journaling: each chunk is durable
    /// once written, and a restarted server re-runs only the missing
    /// ranges.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `config.targets` is empty or
    /// the range reaches past `config.runs`.
    pub fn run_range(
        &self,
        config: &CampaignConfig,
        range: std::ops::Range<usize>,
    ) -> Result<CampaignResult, SimError> {
        self.run_range_with_workers(config, range, default_workers())
    }

    /// [`Campaign::run_range`] with an explicit worker count.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `config.targets` is empty or
    /// the range reaches past `config.runs`.
    pub fn run_range_with_workers(
        &self,
        config: &CampaignConfig,
        range: std::ops::Range<usize>,
        workers: usize,
    ) -> Result<CampaignResult, SimError> {
        if config.targets.is_empty() {
            return Err(SimError::InvalidConfig {
                message: "campaign needs target addresses".into(),
            });
        }
        if range.end > config.runs {
            return Err(SimError::InvalidConfig {
                message: format!(
                    "plan range {}..{} exceeds the campaign's {} runs",
                    range.start, range.end, config.runs
                ),
            });
        }
        let plans = self.plans(config);
        let order = self.submission_order(&plans, range);
        let outcomes = parallel_map_isolated(&order, workers, "campaign", |_, &i| {
            chaos::maybe_panic("campaign", i);
            let plan = &plans[i];
            let first = self.run_one_restarted(plan, config.max_cycles, config.max_wall);
            if first.0 != Outcome::Quarantined {
                return first;
            }
            // The watchdog fired — maybe a transient stall (scheduler,
            // page cache). Retry once from the checkpoint; quarantine
            // only if the run times out again.
            let retry = self.run_one_restarted(plan, config.max_cycles, config.max_wall);
            if retry.0 != Outcome::Quarantined {
                retry
            } else {
                first
            }
        });
        let mut result = CampaignResult::default();
        for outcome in outcomes {
            match outcome {
                Ok((outcome, saved)) => {
                    result.record(outcome);
                    result.saved_cycles += saved;
                }
                // The worker panicked: the plan is lost but the
                // campaign is not.
                Err(_) => result.quarantined += 1,
            }
        }
        Ok(result)
    }

    /// The absolute indices of the plans in `range`, in the order the
    /// pool takes them (module docs): restored plans first, longest
    /// predicted tail first (ties in plan order), then every other plan
    /// in plan order.
    fn submission_order(&self, plans: &[FaultPlan], range: std::ops::Range<usize>) -> Vec<usize> {
        let Some(cp) = &self.checkpoints else {
            return range.collect();
        };
        let mut restored = Vec::new();
        let mut rest = Vec::with_capacity(range.len());
        for i in range {
            match cp.restored_tail(&plans[i]) {
                Some(tail) => restored.push((tail, i)),
                None => rest.push(i),
            }
        }
        restored.sort_by_key(|&(tail, i)| (std::cmp::Reverse(tail), i));
        restored.into_iter().map(|(_, i)| i).chain(rest).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::BusFaultMode;
    use cimon_asm::assemble;
    use cimon_core::HashAlgoKind;
    use cimon_hashgen::static_fht;

    const PROGRAM: &str = "
        .text
    main:
        li   $t0, 20
        li   $t1, 0
    loop:
        addu $t1, $t1, $t0
        addiu $t0, $t0, -1
        bnez $t0, loop
        move $a0, $t1
        li   $v0, 10
        syscall
    ";

    fn setup(algo: HashAlgoKind) -> (Campaign, Vec<u32>) {
        let prog = assemble(PROGRAM).unwrap();
        let (fht, _) = static_fht(&prog.image, &[], algo, 0).unwrap();
        let cic = CicConfig {
            iht_entries: 8,
            hash_algo: algo,
            hash_seed: 0,
        };
        let (lo, hi) = prog.image.text_range();
        let targets: Vec<u32> = (lo..hi).step_by(4).collect();
        (Campaign::new(prog.image, cic, fht), targets)
    }

    #[test]
    fn reference_is_clean() {
        let (c, _) = setup(HashAlgoKind::Xor);
        assert_eq!(c.reference_outcome(), RunOutcome::Exited { code: 210 });
    }

    #[test]
    fn single_bit_faults_are_always_caught_or_masked() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let result = c
            .run(&CampaignConfig {
                runs: 120,
                seed: 42,
                model: FaultModel::SingleBit,
                site: FaultSite::StoredImage,
                targets,
                max_cycles: 60_000,
                max_wall: None,
            })
            .unwrap();
        assert_eq!(result.total(), 120);
        // XOR detects every single-bit flip in executed code; flips can
        // still hang the run (corrupted branch targets) but can never be
        // silent.
        assert_eq!(result.silent, 0, "{result:?}");
        assert!(result.detected_monitor > 0);
    }

    #[test]
    fn same_column_pairs_defeat_xor_but_not_crc() {
        let (cx, tx) = setup(HashAlgoKind::Xor);
        let xor = cx
            .run(&CampaignConfig {
                runs: 80,
                seed: 7,
                model: FaultModel::SameColumnPair,
                site: FaultSite::StoredImage,
                targets: tx,
                max_cycles: 60_000,
                max_wall: None,
            })
            .unwrap();
        let (cc, tc) = setup(HashAlgoKind::Crc32);
        let crc = cc
            .run(&CampaignConfig {
                runs: 80,
                seed: 7,
                model: FaultModel::SameColumnPair,
                site: FaultSite::StoredImage,
                targets: tc,
                max_cycles: 60_000,
                max_wall: None,
            })
            .unwrap();
        // CRC-32 never lets a same-column pair through silently.
        assert_eq!(crc.silent, 0, "{crc:?}");
        // XOR coverage cannot exceed CRC coverage on this model.
        assert!(xor.coverage_percent() <= crc.coverage_percent() + 1e-9);
    }

    #[test]
    fn bus_transients_are_detected() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let result = c
            .run(&CampaignConfig {
                runs: 100,
                seed: 3,
                model: FaultModel::SingleBit,
                site: FaultSite::FetchBus(BusFaultMode::OneShot),
                targets,
                max_cycles: 60_000,
                max_wall: None,
            })
            .unwrap();
        assert_eq!(result.silent, 0, "{result:?}");
        assert!(result.detected_monitor + result.detected_baseline > 0);
    }

    #[test]
    fn campaigns_are_seed_deterministic() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let cfg = CampaignConfig {
            runs: 50,
            seed: 99,
            model: FaultModel::MultiBit { n: 3 },
            site: FaultSite::StoredImage,
            targets,
            max_cycles: 60_000,
            max_wall: None,
        };
        assert_eq!(c.run(&cfg).unwrap(), c.run(&cfg).unwrap());
    }

    /// From-scratch oracle: every plan through [`Campaign::run_one`].
    fn scratch_result(c: &Campaign, cfg: &CampaignConfig) -> CampaignResult {
        let mut r = CampaignResult::default();
        for plan in c.plans(cfg) {
            r.record(c.run_one(&plan, cfg.max_cycles));
        }
        r
    }

    #[track_caller]
    fn assert_matches_scratch(c: &Campaign, cfg: &CampaignConfig) -> CampaignResult {
        let restarted = c.run_with_workers(cfg, 2).unwrap();
        let scratch = scratch_result(c, cfg);
        assert_eq!(
            CampaignResult {
                saved_cycles: 0,
                ..restarted
            },
            scratch
        );
        restarted
    }

    #[test]
    fn checkpoint_restart_classifies_exactly_like_scratch_runs() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let mut total_saved = 0;
        for site in [
            FaultSite::StoredImage,
            FaultSite::FetchBus(BusFaultMode::OneShot),
            FaultSite::FetchBus(BusFaultMode::StuckAt),
        ] {
            let r = assert_matches_scratch(
                &c,
                &CampaignConfig {
                    runs: 60,
                    seed: 23,
                    model: FaultModel::SingleBit,
                    site,
                    targets: targets.clone(),
                    max_cycles: 60_000,
                    max_wall: None,
                },
            );
            total_saved += r.saved_cycles;
        }
        // Flips in the exit sequence only activate in the last window,
        // so some plans must have reused a clean prefix.
        assert!(total_saved > 0);
    }

    #[test]
    fn budgets_shorter_than_the_prefix_hang_identically() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        assert_matches_scratch(
            &c,
            &CampaignConfig {
                runs: 40,
                seed: 31,
                model: FaultModel::MultiBit { n: 2 },
                site: FaultSite::StoredImage,
                targets,
                max_cycles: 10,
                max_wall: None,
            },
        );
    }

    #[test]
    fn late_faults_replay_only_the_tail() {
        let (c, _) = setup(HashAlgoKind::Xor);
        // The exit sequence (move / li / syscall) runs once, after the
        // whole loop: its words are first touched in the final window.
        let entry = assemble(PROGRAM).unwrap().image.entry;
        let cfg = CampaignConfig {
            runs: 30,
            seed: 77,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets: vec![entry + 20, entry + 24, entry + 28],
            max_cycles: 60_000,
            max_wall: None,
        };
        let r = assert_matches_scratch(&c, &cfg);
        // Every plan lands in the last window, so every run skipped a
        // prefix.
        assert!(
            r.saved_cycles as usize >= cfg.runs,
            "saved {} over {} runs",
            r.saved_cycles,
            cfg.runs
        );
    }

    #[test]
    fn untouched_code_is_classified_without_simulating() {
        let src = "
            .text
        main:
            li $a0, 5
            li $v0, 10
            syscall
        dead:
            addu $t0, $t1, $t2
            xor  $t3, $t4, $t5
            jr $ra
        ";
        let prog = assemble(src).unwrap();
        let (fht, _) = static_fht(&prog.image, &[], HashAlgoKind::Xor, 0).unwrap();
        let dead = prog.symbols.get("dead").unwrap();
        let c = Campaign::new(prog.image, CicConfig::default(), fht);
        let cfg = CampaignConfig {
            runs: 25,
            seed: 5,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets: vec![dead, dead + 4, dead + 8],
            max_cycles: 60_000,
            max_wall: None,
        };
        let r = assert_matches_scratch(&c, &cfg);
        assert_eq!(r.masked, 25, "{r:?}");
        assert!(r.saved_cycles > 0);
    }

    #[test]
    fn self_modifying_text_disables_checkpointing() {
        // The store rewrites identical bytes, so the monitored run stays
        // clean — but any text write means a pre-applied flip could be
        // overwritten before its first fetch, so the campaign must fall
        // back to from-scratch runs.
        let src = "
            .text
        main:
            la   $t8, touch
            lw   $t9, 0($t8)
            sw   $t9, 0($t8)
        touch:
            li   $a0, 5
            li   $v0, 10
            syscall
        ";
        let prog = assemble(src).unwrap();
        let (fht, _) = static_fht(&prog.image, &[], HashAlgoKind::Xor, 0).unwrap();
        let (lo, hi) = prog.image.text_range();
        let c = Campaign::new(prog.image, CicConfig::default(), fht);
        assert_eq!(c.reference_outcome(), RunOutcome::Exited { code: 5 });
        assert!(c.checkpoints.is_none());
        let r = assert_matches_scratch(
            &c,
            &CampaignConfig {
                runs: 30,
                seed: 13,
                model: FaultModel::SingleBit,
                site: FaultSite::StoredImage,
                targets: (lo..hi).step_by(4).collect(),
                max_cycles: 60_000,
                max_wall: None,
            },
        );
        assert_eq!(r.saved_cycles, 0);
    }

    #[test]
    fn parallel_campaign_matches_serial() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let cfg = CampaignConfig {
            runs: 40,
            seed: 5,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets,
            max_cycles: 60_000,
            max_wall: None,
        };
        let serial = c.run_with_workers(&cfg, 1).unwrap();
        let parallel = c.run_with_workers(&cfg, 8).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.total(), 40);

        // Three loops run one after another, so flips in the second
        // and third are first touched in later windows: those plans
        // restore, with different tails, and go to the pool first.
        let prog = assemble(
            "
            .text
        main:
            li    $t0, 12
        first:
            addiu $t0, $t0, -1
            bnez  $t0, first
            li    $t0, 12
        second:
            addu  $t1, $t1, $t0
            addiu $t0, $t0, -1
            bnez  $t0, second
            li    $t0, 12
        third:
            xor   $t1, $t1, $t0
            addiu $t0, $t0, -1
            bnez  $t0, third
            move  $a0, $t1
            li    $v0, 10
            syscall
        ",
        )
        .unwrap();
        let (fht, _) = static_fht(&prog.image, &[], HashAlgoKind::Xor, 0).unwrap();
        let (lo, hi) = prog.image.text_range();
        let c = Campaign::new(prog.image, CicConfig::default(), fht);
        let cp = c.checkpoints.as_ref().unwrap();
        for site in [
            FaultSite::StoredImage,
            FaultSite::FetchBus(BusFaultMode::OneShot),
        ] {
            let cfg = CampaignConfig {
                runs: 60,
                seed: 11,
                model: FaultModel::SingleBit,
                site,
                targets: (lo..hi).step_by(4).collect(),
                max_cycles: 60_000,
                max_wall: None,
            };
            let plans = c.plans(&cfg);
            let order = c.submission_order(&plans, 0..cfg.runs);
            let tails: Vec<u64> = order
                .iter()
                .map_while(|&i| cp.restored_tail(&plans[i]))
                .collect();
            assert!(tails.windows(2).all(|w| w[0] >= w[1]), "{tails:?}");
            assert!(tails.first() > tails.last(), "distinct tails: {tails:?}");
            let rest = &order[tails.len()..];
            assert!(rest.windows(2).all(|w| w[0] < w[1]), "{rest:?}");
            assert!(rest.iter().all(|&i| cp.restored_tail(&plans[i]).is_none()));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..cfg.runs).collect::<Vec<_>>());

            let serial = c.run_with_workers(&cfg, 1).unwrap();
            assert!(serial.saved_cycles > 0, "{serial:?}");
            assert_eq!(serial.total(), cfg.runs);
            for workers in [2, 3] {
                assert_eq!(c.run_with_workers(&cfg, workers).unwrap(), serial);
            }
            let mut merged = CampaignResult::default();
            for bounds in [0..13, 13..14, 14..41, 41..60] {
                merged.merge(&c.run_range_with_workers(&cfg, bounds, 3).unwrap());
            }
            assert_eq!(merged, serial);
        }
    }

    #[test]
    fn chunked_ranges_merge_to_the_full_campaign() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let cfg = CampaignConfig {
            runs: 40,
            seed: 17,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets,
            max_cycles: 60_000,
            max_wall: None,
        };
        let full = c.run_with_workers(&cfg, 2).unwrap();
        // Uneven chunks, including a singleton and an empty range.
        let mut merged = CampaignResult::default();
        for bounds in [0..7, 7..8, 8..8, 8..25, 25..40] {
            merged.merge(&c.run_range_with_workers(&cfg, bounds, 2).unwrap());
        }
        assert_eq!(merged, full);
        assert_eq!(merged.total(), cfg.runs);
        // A range is the same plans the full campaign ran at those
        // indices — not a fresh RNG stream.
        let head = c.run_range_with_workers(&cfg, 0..cfg.runs, 2).unwrap();
        assert_eq!(head, full);
    }

    #[test]
    fn out_of_range_chunks_are_rejected() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let cfg = CampaignConfig {
            runs: 10,
            seed: 1,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets,
            max_cycles: 1000,
            max_wall: None,
        };
        let err = c.run_range(&cfg, 5..11).unwrap_err();
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn merge_sums_every_counter() {
        let a = CampaignResult {
            detected_monitor: 1,
            detected_baseline: 2,
            masked: 3,
            silent: 4,
            hung: 5,
            quarantined: 6,
            saved_cycles: 7,
        };
        let mut acc = a;
        acc.merge(&a);
        assert_eq!(
            acc,
            CampaignResult {
                detected_monitor: 2,
                detected_baseline: 4,
                masked: 6,
                silent: 8,
                hung: 10,
                quarantined: 12,
                saved_cycles: 14,
            }
        );
        let mut id = a;
        id.merge(&CampaignResult::default());
        assert_eq!(id, a);
    }

    #[test]
    fn faults_in_dead_code_are_masked() {
        // Program with an unexecuted function; flips there change nothing.
        let src = "
            .text
        main:
            li $a0, 5
            li $v0, 10
            syscall
        dead:
            addu $t0, $t1, $t2
            jr $ra
        ";
        let prog = assemble(src).unwrap();
        let (fht, _) = static_fht(&prog.image, &[], HashAlgoKind::Xor, 0).unwrap();
        let c = Campaign::new(prog.image.clone(), CicConfig::default(), fht);
        let dead_addr = prog.symbols.get("dead").unwrap();
        let out = c.run_one(&FaultPlan::stored(dead_addr, 3), 1_000_000);
        assert_eq!(out, Outcome::Masked);
    }

    #[test]
    fn empty_targets_are_rejected() {
        let (c, _) = setup(HashAlgoKind::Xor);
        let err = c
            .run(&CampaignConfig {
                runs: 1,
                seed: 0,
                model: FaultModel::SingleBit,
                site: FaultSite::StoredImage,
                targets: vec![],
                max_cycles: 1000,
                max_wall: None,
            })
            .unwrap_err();
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("target addresses"), "{err}");
    }

    #[test]
    fn zero_wall_budget_quarantines_instead_of_hanging() {
        // A loop long enough to cross the watchdog poll stride
        // (65 536 retired instructions), targeting only the exit
        // sequence so every plan restores a late checkpoint and trips
        // the (already expired) deadline on its first poll.
        let src = "
            .text
        main:
            li   $t0, 40000
        loop:
            addiu $t0, $t0, -1
            bnez $t0, loop
        exit:
            li   $a0, 1
            li   $v0, 10
            syscall
        ";
        let prog = assemble(src).unwrap();
        let (fht, _) = static_fht(&prog.image, &[], HashAlgoKind::Xor, 0).unwrap();
        let exit = prog.symbols.get("exit").unwrap();
        let c = Campaign::new(prog.image, CicConfig::default(), fht);
        assert!(matches!(c.reference_outcome(), RunOutcome::Exited { .. }));
        let cfg = CampaignConfig {
            runs: 6,
            seed: 9,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets: vec![exit, exit + 4, exit + 8],
            max_cycles: 60_000_000,
            max_wall: Some(Duration::ZERO),
        };
        let r = c.run_with_workers(&cfg, 2).unwrap();
        assert_eq!(r.total(), cfg.runs);
        assert_eq!(r.quarantined, cfg.runs, "{r:?}");
        // The same campaign without the watchdog classifies every run.
        let unwalled = c
            .run_with_workers(
                &CampaignConfig {
                    max_wall: None,
                    ..cfg
                },
                2,
            )
            .unwrap();
        assert_eq!(unwalled.quarantined, 0, "{unwalled:?}");
        assert_eq!(unwalled.total(), 6);
    }
}
