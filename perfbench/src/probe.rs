//! The simulator's layers, timed from outside: a probe replays a
//! workload's simulations through the public `Processor` calls and
//! splits their cost into construction, the dispatch loop, and the
//! IHT-miss/OS handler, with the model's exact counters beside them.

use std::time::Instant;

use cimon_os::ExceptionCost;
use cimon_pipeline::{BlockExec, MonitorConfig, Predecode, Processor, ProcessorConfig};
use cimon_sim::Experiment;

use crate::Metric;

/// The processor an [`Experiment`] runs on, built the way
/// `Experiment::run` builds it (shared predecode and block cache).
///
/// # Panics
///
/// When the artifact cannot produce the experiment's FHT.
pub fn processor_for(e: &Experiment) -> Processor {
    let a = &e.artifact;
    let c = &e.config;
    let monitor = e.monitored.then(|| MonitorConfig {
        cic: cimon_core::CicConfig {
            iht_entries: c.iht_entries,
            hash_algo: c.hash_algo,
            hash_seed: c.hash_seed,
        },
        fht: a.fht(c.hash_algo, c.hash_seed).expect("FHT generation"),
        policy: c.policy,
        exception_cost: ExceptionCost {
            cycles: c.exception_cycles,
        },
    });
    Processor::new(
        a.image(),
        ProcessorConfig {
            monitor,
            max_cycles: c.max_cycles,
            max_wall: c.max_wall,
            predecode: Predecode::Shared(a.predecoded()),
            block_exec: BlockExec::Shared(a.block_cache()),
            ..ProcessorConfig::baseline()
        },
    )
}

fn miss_exceptions(cpu: &Processor) -> u64 {
    cpu.os().map_or(0, |os| os.stats().miss_exceptions)
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Accumulated probe measurements over many runs.
#[derive(Default)]
pub struct Probe {
    new_ns: f64,
    runs: u64,
    /// `Processor::run` time and instructions: [baseline, monitored].
    run_ns: [f64; 2],
    instr: [u64; 2],
    stepped_ns: f64,
    hit_ns: f64,
    hit_n: u64,
    miss_ns: f64,
    miss_n: u64,
    dispatches: u64,
    block_instr: u64,
    bailouts: u64,
    instr_steps: u64,
    checks: u64,
    cic_hits: u64,
    misses: u64,
    mismatches: u64,
    words_hashed: u64,
    refilled: u64,
    cycles: u64,
    mon_instr: u64,
    stall: u64,
}

impl Probe {
    /// Probe one simulation twice. The first pass times
    /// `Processor::new` and an uninterrupted `Processor::run`; the
    /// second steps block by block and times every `step_block` call,
    /// split by whether it raised an IHT miss.
    pub fn run(&mut self, monitored: bool, make: impl Fn() -> Processor) {
        let t = Instant::now();
        let mut cpu = make();
        self.new_ns += ns(t);
        let t = Instant::now();
        cpu.run();
        let run_ns = ns(t);
        let m = usize::from(monitored);
        let stats = cpu.stats();
        self.runs += 1;
        self.run_ns[m] += run_ns;
        self.instr[m] += stats.instructions;
        if monitored {
            self.cycles += stats.cycles;
            self.mon_instr += stats.instructions;
            self.stall += stats.monitor_stall_cycles;
        }
        if let Some(c) = stats.cic {
            self.checks += c.checks;
            self.cic_hits += c.hits;
            self.misses += c.misses;
            self.mismatches += c.mismatches;
            self.words_hashed += c.words_hashed;
        }
        if let Some(os) = stats.os {
            self.refilled += os.entries_refilled;
        }

        let mut cpu = make();
        let start = Instant::now();
        loop {
            let dispatches = cpu.block_stats().dispatches;
            let misses = miss_exceptions(&cpu);
            let t = Instant::now();
            let end = cpu.step_block();
            let dt = ns(t);
            if cpu.block_stats().dispatches == dispatches {
                self.instr_steps += 1;
            }
            if miss_exceptions(&cpu) > misses {
                self.miss_ns += dt;
                self.miss_n += 1;
            } else {
                self.hit_ns += dt;
                self.hit_n += 1;
            }
            if end.is_some() {
                break;
            }
        }
        self.stepped_ns += ns(start);
        let b = cpu.block_stats();
        self.dispatches += b.dispatches;
        self.block_instr += b.instructions;
        self.bailouts += b.bailouts;
    }

    /// Mean `Processor::new` + `run` time per probed simulation, in ns.
    pub fn mean_sim_ns(&self) -> f64 {
        ratio(
            self.new_ns + self.run_ns[0] + self.run_ns[1],
            self.runs as f64,
        )
    }

    /// Stepped (traced) time over plain run time, minus one.
    pub fn overhead_frac(&self) -> f64 {
        ratio(self.stepped_ns, self.run_ns[0] + self.run_ns[1]) - 1.0
    }

    /// The per-layer metrics this probe measured.
    pub fn metrics(&self) -> Vec<Metric> {
        let per_instr = |m: usize| ratio(self.run_ns[m], self.instr[m] as f64);
        let hit_mean = ratio(self.hit_ns, self.hit_n as f64);
        let miss_extra = self.miss_ns - self.miss_n as f64 * hit_mean;
        vec![
            Metric::new("trace.overhead_frac", self.overhead_frac(), "frac"),
            Metric::new(
                "pipeline.new_us",
                ratio(self.new_ns, self.runs as f64) / 1e3,
                "us",
            ),
            Metric::new("pipeline.run_ns_per_instr.baseline", per_instr(0), "ns"),
            Metric::new("pipeline.run_ns_per_instr.monitored", per_instr(1), "ns"),
            Metric::new("monitor.ns_per_instr", per_instr(1) - per_instr(0), "ns"),
            Metric::new("pipeline.dispatch_ns.hit", hit_mean, "ns"),
            Metric::new(
                "os.miss_dispatch_ns",
                ratio(self.miss_ns, self.miss_n as f64),
                "ns",
            ),
            Metric::new(
                "os.miss_handler_share",
                ratio(miss_extra, self.stepped_ns),
                "frac",
            ),
            Metric::count("pipeline.dispatches", self.dispatches as f64),
            Metric::new(
                "pipeline.instr_per_dispatch",
                ratio(self.block_instr as f64, self.dispatches as f64),
                "ratio",
            ),
            Metric::count("pipeline.bailouts", self.bailouts as f64),
            Metric::count("pipeline.instr_steps", self.instr_steps as f64),
            Metric::count("core.checks", self.checks as f64),
            Metric::new(
                "core.hit_ratio",
                ratio(self.cic_hits as f64, self.checks as f64),
                "ratio",
            ),
            Metric::count("core.misses", self.misses as f64),
            Metric::count("core.mismatches", self.mismatches as f64),
            Metric::count("core.words_hashed", self.words_hashed as f64),
            Metric::count("os.entries_refilled", self.refilled as f64),
            Metric::count("sim.cycles", self.cycles as f64),
            Metric::new(
                "sim.ipc",
                ratio(self.mon_instr as f64, self.cycles as f64),
                "ratio",
            ),
            Metric::count("sim.monitor_stall_cycles", self.stall as f64),
        ]
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
