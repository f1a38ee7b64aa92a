//! # The parallel experiment engine
//!
//! The paper's evaluation is a grid of (workload × IHT size × hash
//! algorithm × refill policy) runs. This module executes such grids the
//! way a results pipeline should:
//!
//! * **[`Artifact`]** — a program prepared once: the image behind an
//!   [`Arc`], with every generated FHT cached per `(hash algo, seed)`
//!   pair. All grid points over one workload share one assembly and one
//!   static analysis.
//! * **[`Experiment`]** — one grid point: an artifact plus a
//!   [`SimConfig`] (or a baseline run).
//! * **[`Sweep`]** — an ordered list of experiments executed on a
//!   [`std::thread::scope`] worker pool. Results come back as
//!   [`ResultRow`]s in *exactly* the order the experiments were pushed,
//!   regardless of which worker finished first, so a parallel sweep is
//!   byte-identical to [`Sweep::run_serial`].
//!
//! ```
//! use std::sync::Arc;
//! use cimon_sim::engine::{Artifact, Sweep};
//! use cimon_sim::SimConfig;
//!
//! let prog = cimon_asm::assemble("
//!     .text
//! main:
//!     li $t0, 6
//! loop:
//!     addiu $t0, $t0, -1
//!     bnez $t0, loop
//!     li $a0, 0
//!     li $v0, 10
//!     syscall
//! ").unwrap();
//!
//! let artifact = Artifact::new("spin", Arc::new(prog.image), Some(0));
//! let mut sweep = Sweep::new();
//! sweep.baseline(artifact.clone());
//! for entries in [1, 8, 16, 32] {
//!     sweep.monitored(artifact.clone(), SimConfig::with_entries(entries));
//! }
//! let rows = sweep.run().unwrap();
//! assert_eq!(rows.len(), 5);
//! assert_eq!(rows, sweep.run_serial().unwrap());
//! assert_eq!(artifact.cached_fhts(), 1); // one FHT served all grid points
//! ```

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use cimon_core::{HashAlgoKind, SimError};
use cimon_hashgen::{static_fht, HashGenError};
use cimon_mem::ProgramImage;
use cimon_os::FullHashTable;
use cimon_pipeline::{BlockCache, PredecodedImage, RunOutcome};

use crate::{chaos, run_baseline_prepared, run_monitored_prepared, RunReport, SimConfig};

/// A workload prepared for the grid: image shared behind an [`Arc`],
/// FHTs generated once per `(hash algo, seed)` and cached, the image
/// predecoded once for every grid point's fetch fast path, and the
/// predecoded image grouped once into basic blocks for block dispatch.
pub struct Artifact {
    name: String,
    image: Arc<ProgramImage>,
    expected_exit: Option<u32>,
    fhts: Mutex<HashMap<(HashAlgoKind, u32), Arc<FullHashTable>>>,
    predecoded: OnceLock<Arc<PredecodedImage>>,
    blocks: OnceLock<Arc<BlockCache>>,
}

impl std::fmt::Debug for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Artifact")
            .field("name", &self.name)
            .field("expected_exit", &self.expected_exit)
            .field("cached_fhts", &self.cached_fhts())
            .finish()
    }
}

impl Artifact {
    /// Wrap an assembled image. `expected_exit` (when known) lets result
    /// consumers verify runs ended cleanly.
    pub fn new(
        name: impl Into<String>,
        image: Arc<ProgramImage>,
        expected_exit: Option<u32>,
    ) -> Arc<Artifact> {
        Arc::new(Artifact {
            name: name.into(),
            image,
            expected_exit,
            fhts: Mutex::new(HashMap::new()),
            predecoded: OnceLock::new(),
            blocks: OnceLock::new(),
        })
    }

    /// The workload's name as it appears in result rows.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared program image.
    pub fn image(&self) -> &Arc<ProgramImage> {
        &self.image
    }

    /// The exit code a clean run must produce, when known.
    pub fn expected_exit(&self) -> Option<u32> {
        self.expected_exit
    }

    /// The FHT for `(algo, seed)` — statically generated on first use,
    /// served from the cache afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`HashGenError`] from the static analyser.
    pub fn fht(&self, algo: HashAlgoKind, seed: u32) -> Result<Arc<FullHashTable>, HashGenError> {
        if let Some(fht) = self.fht_cache().get(&(algo, seed)) {
            return Ok(fht.clone());
        }
        let (fht, _) = static_fht(&self.image, &[], algo, seed)?;
        let fht = Arc::new(fht);
        // Two threads may have raced to generate; keep the first insert
        // so every grid point shares one canonical table.
        Ok(self.fht_cache().entry((algo, seed)).or_insert(fht).clone())
    }

    /// How many distinct FHTs this artifact has generated so far.
    pub fn cached_fhts(&self) -> usize {
        self.fht_cache().len()
    }

    /// The FHT cache, with lock poisoning recovered: the map is only
    /// ever inserted into, so a panic mid-insert leaves it valid.
    fn fht_cache(
        &self,
    ) -> std::sync::MutexGuard<'_, HashMap<(HashAlgoKind, u32), Arc<FullHashTable>>> {
        self.fhts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The image predecoded once, shared by every grid point over this
    /// workload (the processor's decode fast path).
    pub fn predecoded(&self) -> Arc<PredecodedImage> {
        self.predecoded
            .get_or_init(|| Arc::new(PredecodedImage::new(&self.image)))
            .clone()
    }

    /// The predecoded image grouped into basic blocks once, shared by
    /// every grid point over this workload (the processor's block
    /// dispatch fast path). Cached beside the FHTs and the predecoded
    /// image.
    pub fn block_cache(&self) -> Arc<BlockCache> {
        self.blocks
            .get_or_init(|| Arc::new(BlockCache::new(self.predecoded())))
            .clone()
    }
}

/// One grid point: a prepared artifact run under one configuration.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// The workload to run.
    pub artifact: Arc<Artifact>,
    /// Monitored (CIC per `config`) or baseline (no monitor).
    pub monitored: bool,
    /// The experiment-level knobs (only `max_cycles` applies when
    /// `monitored` is false).
    pub config: SimConfig,
}

impl Experiment {
    /// A baseline (unmonitored) run of the artifact.
    pub fn baseline(artifact: Arc<Artifact>) -> Experiment {
        Experiment {
            artifact,
            monitored: false,
            config: SimConfig::default(),
        }
    }

    /// A monitored run of the artifact under `config`.
    pub fn monitored(artifact: Arc<Artifact>, config: SimConfig) -> Experiment {
        Experiment {
            artifact,
            monitored: true,
            config,
        }
    }

    /// Execute this experiment and report one result row.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] from FHT generation on monitored runs whose
    /// table is not already cached.
    pub fn run(&self) -> Result<ResultRow, SimError> {
        let predecoded = self.artifact.predecoded();
        let blocks = self.artifact.block_cache();
        let (report, fht_entries) = if self.monitored {
            let fht = self
                .artifact
                .fht(self.config.hash_algo, self.config.hash_seed)?;
            let entries = fht.len();
            (
                run_monitored_prepared(&self.artifact.image, fht, &self.config, predecoded, blocks),
                entries,
            )
        } else {
            (
                run_baseline_prepared(
                    &self.artifact.image,
                    self.config.max_cycles,
                    self.config.max_wall,
                    predecoded,
                    blocks,
                ),
                0,
            )
        };
        Ok(ResultRow::new(self, &report, fht_entries))
    }
}

/// How a grid point's row came to be: a real run, a localized failure,
/// or a watchdog timeout. Anything but [`RowStatus::Ok`] means the
/// row's numeric fields are not architecturally meaningful.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RowStatus {
    /// The run completed and the row's numbers are real.
    Ok,
    /// The experiment failed — a worker panic, a hash-generation error,
    /// a corrupt snapshot — and the sweep degraded it to this poisoned
    /// row instead of dying.
    Failed(SimError),
    /// The run was stopped by the wall-clock watchdog
    /// ([`crate::SimConfig::max_wall`]).
    TimedOut,
}

impl RowStatus {
    /// Short machine-readable tag (`"ok"`, `"failed"`, `"timed-out"`).
    pub fn kind(&self) -> &'static str {
        match self {
            RowStatus::Ok => "ok",
            RowStatus::Failed(_) => "failed",
            RowStatus::TimedOut => "timed-out",
        }
    }
}

/// One machine-readable grid result (the unit the CSV/JSON writers in
/// `cimon-bench` serialise).
#[derive(Clone, Debug, PartialEq)]
pub struct ResultRow {
    /// Workload name.
    pub workload: String,
    /// Exit code a clean run must produce, when the artifact knows it.
    pub expected_exit: Option<u32>,
    /// Whether the run was monitored.
    pub monitored: bool,
    /// IHT entries (0 on baseline rows).
    pub iht_entries: usize,
    /// Hash algorithm (meaningful on monitored rows).
    pub hash_algo: HashAlgoKind,
    /// Hash seed.
    pub hash_seed: u32,
    /// Refill policy name (`"none"` on baseline rows).
    pub policy: &'static str,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Instructions committed.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Cycles stalled in monitoring exceptions.
    pub monitor_stall_cycles: u64,
    /// Block checks performed.
    pub checks: u64,
    /// Checks that hit.
    pub hits: u64,
    /// Checks that missed.
    pub misses: u64,
    /// Checks that mismatched.
    pub mismatches: u64,
    /// IHT miss rate in percent.
    pub miss_rate_percent: f64,
    /// FHT entries generated for the program (0 on baseline rows).
    pub fht_entries: usize,
    /// Whether the row holds a real run, a localized failure, or a
    /// watchdog timeout. On [`RowStatus::Failed`] rows every counter is
    /// zero and `outcome` holds a [`RunOutcome::Watchdog`] placeholder —
    /// the status (and the [`SimError`] it carries) is authoritative.
    pub status: RowStatus,
}

impl ResultRow {
    fn new(experiment: &Experiment, report: &RunReport, fht_entries: usize) -> ResultRow {
        let cic = report.stats.cic.unwrap_or_default();
        let status = if report.outcome == RunOutcome::Watchdog {
            RowStatus::TimedOut
        } else {
            RowStatus::Ok
        };
        ResultRow {
            workload: experiment.artifact.name.clone(),
            expected_exit: experiment.artifact.expected_exit,
            monitored: experiment.monitored,
            iht_entries: if experiment.monitored {
                experiment.config.iht_entries
            } else {
                0
            },
            hash_algo: experiment.config.hash_algo,
            hash_seed: experiment.config.hash_seed,
            policy: if experiment.monitored {
                experiment.config.policy.name()
            } else {
                "none"
            },
            outcome: report.outcome,
            instructions: report.stats.instructions,
            cycles: report.stats.cycles,
            monitor_stall_cycles: report.stats.monitor_stall_cycles,
            checks: cic.checks,
            hits: cic.hits,
            misses: cic.misses,
            mismatches: cic.mismatches,
            miss_rate_percent: report.miss_rate_percent,
            fht_entries,
            status,
        }
    }

    /// A poisoned row standing in for an experiment that never produced
    /// a result: a panicking worker, a hash-generation failure, a
    /// corrupt snapshot. Every counter is zero, the outcome is a
    /// placeholder, and [`ResultRow::status`] carries the typed error.
    pub fn poisoned(experiment: &Experiment, error: SimError) -> ResultRow {
        ResultRow {
            workload: experiment.artifact.name.clone(),
            expected_exit: experiment.artifact.expected_exit,
            monitored: experiment.monitored,
            iht_entries: if experiment.monitored {
                experiment.config.iht_entries
            } else {
                0
            },
            hash_algo: experiment.config.hash_algo,
            hash_seed: experiment.config.hash_seed,
            policy: if experiment.monitored {
                experiment.config.policy.name()
            } else {
                "none"
            },
            outcome: RunOutcome::Watchdog,
            instructions: 0,
            cycles: 0,
            monitor_stall_cycles: 0,
            checks: 0,
            hits: 0,
            misses: 0,
            mismatches: 0,
            miss_rate_percent: 0.0,
            fht_entries: 0,
            status: RowStatus::Failed(error),
        }
    }

    /// Whether the run completed, exited with the artifact's expected
    /// code, and raised no integrity mismatch.
    pub fn is_clean(&self) -> bool {
        self.status == RowStatus::Ok
            && self.mismatches == 0
            && match (self.expected_exit, self.outcome) {
                (Some(want), RunOutcome::Exited { code }) => code == want,
                (None, RunOutcome::Exited { .. }) => true,
                _ => false,
            }
    }
}

/// An ordered batch of experiments executed on a worker pool.
#[derive(Clone, Debug, Default)]
pub struct Sweep {
    experiments: Vec<Experiment>,
    workers: Option<usize>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Sweep {
        Sweep::default()
    }

    /// Cap the worker pool (default: one worker per available core).
    pub fn workers(&mut self, n: usize) -> &mut Sweep {
        self.workers = Some(n.max(1));
        self
    }

    /// Append one experiment.
    pub fn push(&mut self, experiment: Experiment) -> &mut Sweep {
        self.experiments.push(experiment);
        self
    }

    /// Append a baseline run.
    pub fn baseline(&mut self, artifact: Arc<Artifact>) -> &mut Sweep {
        self.push(Experiment::baseline(artifact))
    }

    /// Append a monitored run.
    pub fn monitored(&mut self, artifact: Arc<Artifact>, config: SimConfig) -> &mut Sweep {
        self.push(Experiment::monitored(artifact, config))
    }

    /// Append the full cross product `artifacts × algos × sizes` over a
    /// base configuration, workload-major (the paper's figure order).
    pub fn grid(
        &mut self,
        artifacts: &[Arc<Artifact>],
        sizes: &[usize],
        algos: &[HashAlgoKind],
        base: SimConfig,
    ) -> &mut Sweep {
        for artifact in artifacts {
            for &hash_algo in algos {
                for &iht_entries in sizes {
                    self.monitored(
                        artifact.clone(),
                        SimConfig {
                            iht_entries,
                            hash_algo,
                            ..base
                        },
                    );
                }
            }
        }
        self
    }

    /// The experiments queued so far, in execution/result order.
    pub fn experiments(&self) -> &[Experiment] {
        &self.experiments
    }

    /// Number of queued experiments.
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// Whether the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// Execute every experiment on the worker pool and return the rows
    /// in push order.
    ///
    /// A failing grid point — a panicking simulation, a watchdog
    /// timeout, a hash-generation error — never fails the sweep: its
    /// row comes back poisoned ([`RowStatus::Failed`] /
    /// [`RowStatus::TimedOut`]) while every other row is byte-identical
    /// to what a clean serial run produces.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] only for failures that precede the pool
    /// (FHT generation is done up front, serially).
    pub fn run(&self) -> Result<Vec<ResultRow>, SimError> {
        self.run_with_workers(self.workers.unwrap_or_else(default_workers))
    }

    /// Execute every experiment on the calling thread, in order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] from up-front FHT generation.
    pub fn run_serial(&self) -> Result<Vec<ResultRow>, SimError> {
        self.run_with_workers(1)
    }

    /// Execute with an explicit worker count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] from up-front FHT generation.
    pub fn run_with_workers(&self, workers: usize) -> Result<Vec<ResultRow>, SimError> {
        // Generate every needed FHT once, serially, so (a) generation
        // errors surface before any thread spawns and (b) each distinct
        // (artifact, algo, seed) is analysed exactly once.
        for e in &self.experiments {
            if e.monitored {
                e.artifact.fht(e.config.hash_algo, e.config.hash_seed)?;
            }
        }
        let rows = parallel_map_isolated(&self.experiments, workers, "sweep", |i, e| {
            chaos::maybe_panic("sweep", i);
            // The FHT cache was prebuilt above, so per-item errors are
            // exotic (a racing cache eviction would be a bug, not a
            // row); degrade them to poisoned rows all the same.
            e.run().unwrap_or_else(|err| ResultRow::poisoned(e, err))
        });
        Ok(rows
            .into_iter()
            .zip(&self.experiments)
            .map(|(row, e)| row.unwrap_or_else(|err| ResultRow::poisoned(e, err)))
            .collect())
    }
}

/// One worker per available core (at least one).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Deterministically-ordered parallel map: applies `f` to every item on
/// a scoped worker pool and returns results in item order, exactly as a
/// serial `items.iter().enumerate().map(..)` would. With `workers <= 1`
/// it *is* that serial map (no threads are spawned).
///
/// Each item runs under `catch_unwind`, so one panicking item no longer
/// tears the scope (and its sibling workers) down mid-flight: every
/// other item still completes, and the caught panic re-raises — typed —
/// only after the pool has drained. Callers that want the panic as a
/// value instead use [`parallel_map_isolated`].
pub fn parallel_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let rows = parallel_map_isolated(items, workers, "parallel-map", f);
    rows.into_iter()
        .map(|row| row.unwrap_or_else(|err| panic!("{err}")))
        .collect()
}

/// [`parallel_map`] with per-item panic isolation surfaced to the
/// caller: a panicking item yields `Err(SimError::WorkerPanic)` in its
/// slot (tagged with `site`) while every other item completes normally.
/// The engine layers build their poisoned-row / quarantine degradation
/// on this.
///
/// The calling thread is one of the `workers`: it claims items from
/// the same cursor as the `workers - 1` threads it spawns, so an item
/// may run (and panic, isolated like any other) on the caller.
pub fn parallel_map_isolated<T, U, F>(
    items: &[T],
    workers: usize,
    site: &'static str,
    f: F,
) -> Vec<Result<U, SimError>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let run_one = |i: usize, item: &T| {
        catch_unwind(AssertUnwindSafe(|| f(i, item)))
            .map_err(|payload| SimError::from_panic(site, payload.as_ref()))
    };
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| run_one(i, t))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<U, SimError>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        let value = run_one(i, &items[i]);
        // A sibling worker's panic is caught above, so the only
        // way this lock is poisoned is a panic in `Some(value)`
        // itself — a zero-sized write; recover the guard.
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
    };
    // The calling thread is one of the `workers`: it would otherwise
    // only sleep in the join.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| unreachable!("every slot is filled once the scope joins"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimon_asm::assemble;

    fn artifact() -> Arc<Artifact> {
        let prog = assemble(
            "
            .text
        main:
            li   $t0, 25
            li   $t1, 0
        loop:
            addu $t1, $t1, $t0
            addiu $t0, $t0, -1
            bnez $t0, loop
            move $a0, $t1
            li   $v0, 10
            syscall
        ",
        )
        .unwrap();
        Artifact::new("sumloop", Arc::new(prog.image), Some(325))
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = parallel_map(&items, 1, |i, v| (i as u64) * 1000 + v * v);
        let parallel = parallel_map(&items, 8, |i, v| (i as u64) * 1000 + v * v);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 100);
    }

    #[test]
    fn parallel_map_empty_and_tiny() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |_, v| *v).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |_, v| v + 1), vec![8]);
    }

    #[test]
    fn artifact_caches_one_fht_per_algo() {
        let a = artifact();
        let f1 = a.fht(HashAlgoKind::Xor, 0).unwrap();
        let f2 = a.fht(HashAlgoKind::Xor, 0).unwrap();
        assert!(Arc::ptr_eq(&f1, &f2), "same table must be shared");
        let f3 = a.fht(HashAlgoKind::Crc32, 0).unwrap();
        assert!(!Arc::ptr_eq(&f1, &f3));
        assert_eq!(a.cached_fhts(), 2);
    }

    #[test]
    fn artifact_predecodes_once_and_shares() {
        let a = artifact();
        let p1 = a.predecoded();
        let p2 = a.predecoded();
        assert!(Arc::ptr_eq(&p1, &p2), "predecode must be cached");
        assert_eq!(p1.base(), a.image().text.base);
        assert_eq!(p1.len(), a.image().text.bytes.len() / 4);
    }

    #[test]
    fn artifact_groups_blocks_once_and_shares() {
        let a = artifact();
        let b1 = a.block_cache();
        let b2 = a.block_cache();
        assert!(Arc::ptr_eq(&b1, &b2), "block cache must be cached");
        // Built over the same predecoded image the artifact shares.
        assert!(Arc::ptr_eq(b1.image(), &a.predecoded()));
        assert_eq!(b1.len(), a.predecoded().len());
        assert!(b1.block_count() > 0);
    }

    #[test]
    fn sweep_parallel_matches_serial() {
        let a = artifact();
        let mut sweep = Sweep::new();
        sweep.baseline(a.clone());
        sweep.grid(
            std::slice::from_ref(&a),
            &[1, 8, 16, 32],
            &[HashAlgoKind::Xor, HashAlgoKind::Crc32],
            SimConfig::default(),
        );
        assert_eq!(sweep.len(), 9);
        let parallel = sweep.run().unwrap();
        let serial = sweep.run_serial().unwrap();
        assert_eq!(parallel, serial);
        assert!(parallel.iter().all(|r| r.is_clean()), "{parallel:?}");
        // One FHT per algorithm, shared across the four table sizes.
        assert_eq!(a.cached_fhts(), 2);
        // Baseline row carries no monitor numbers.
        assert_eq!(parallel[0].iht_entries, 0);
        assert_eq!(parallel[0].policy, "none");
        assert_eq!(parallel[0].checks, 0);
    }

    #[test]
    fn result_rows_follow_push_order() {
        let a = artifact();
        let mut sweep = Sweep::new();
        for entries in [32, 1, 16] {
            sweep.monitored(a.clone(), SimConfig::with_entries(entries));
        }
        let rows = sweep.run().unwrap();
        let sizes: Vec<usize> = rows.iter().map(|r| r.iht_entries).collect();
        assert_eq!(sizes, vec![32, 1, 16]);
    }

    #[test]
    fn is_clean_flags_detections() {
        let a = artifact();
        // A truncated FHT forces an unknown-block kill.
        let mut sweep = Sweep::new();
        sweep.monitored(a.clone(), SimConfig::default());
        let row = &sweep.run().unwrap()[0];
        assert!(row.is_clean());
        let mut dirty = row.clone();
        dirty.outcome = RunOutcome::MaxCycles;
        assert!(!dirty.is_clean());
        dirty.outcome = row.outcome;
        dirty.mismatches = 1;
        assert!(!dirty.is_clean());
    }
}
