//! `paper-grid`: the paper's evaluation on the experiment engine — the
//! nine registry programs at baseline, then the Fig. 6 monitored grid
//! (9 programs × IHT {1, 8, 16, 32} × {XOR, CRC-32}) — repeated for the
//! whole window. The seed shuffles the order experiments enter the
//! pool; results are checked in the paper's order.

use std::sync::Arc;
use std::time::Instant;

use cimon_bench::{report, FIG6_SIZES, GRID_ALGOS};
use cimon_sim::engine::default_workers;
use cimon_sim::{Artifact, Experiment, ResultRow, SimConfig, Sweep};

use crate::host::Rng;
use crate::probe::{processor_for, Probe};
use crate::{end_to_end, own_rss_mb, pool_metrics, print_all, Ctx, Metric, Outcome, Setup};

const TABLE1_REFERENCE: &str = "crates/bench/reference/BENCH_table1.json";
const GOLDEN: &str = "perfbench/golden/paper_grid.json";

/// One sweep whose experiments were pushed in a shuffled order, with
/// the permutation back to the paper's order.
struct Shuffled {
    sweep: Sweep,
    /// `order[i]` is the canonical index of the i-th pushed experiment.
    order: Vec<usize>,
}

impl Shuffled {
    fn new(canonical: Vec<Experiment>, rng: &mut Rng) -> Shuffled {
        let mut order: Vec<usize> = (0..canonical.len()).collect();
        rng.shuffle(&mut order);
        let mut sweep = Sweep::new();
        for &i in &order {
            sweep.push(canonical[i].clone());
        }
        Shuffled { sweep, order }
    }

    /// Run on `workers` and return the rows in canonical order.
    fn run(&self, workers: usize) -> Result<Vec<ResultRow>, String> {
        let rows = self
            .sweep
            .run_with_workers(workers)
            .map_err(|e| e.to_string())?;
        let mut canonical: Vec<Option<ResultRow>> = vec![None; rows.len()];
        for (row, &i) in rows.into_iter().zip(&self.order) {
            canonical[i] = Some(row);
        }
        Ok(canonical.into_iter().flatten().collect())
    }

    /// The experiments in canonical order.
    fn canonical(&self) -> Vec<&Experiment> {
        let mut out: Vec<Option<&Experiment>> = vec![None; self.order.len()];
        for (e, &i) in self.sweep.experiments().iter().zip(&self.order) {
            out[i] = Some(e);
        }
        out.into_iter().flatten().collect()
    }
}

fn setup_once(seed: u64) -> (Setup, (Shuffled, Shuffled)) {
    let t = Instant::now();
    let mut s = Setup::default();
    let fhts: Vec<_> = GRID_ALGOS.iter().map(|&a| (a, 0)).collect();
    let artifacts: Vec<Arc<Artifact>> = s
        .registry()
        .into_iter()
        .map(|(name, exit, image)| s.artifact(name, image, Some(exit), &fhts))
        .collect();
    let sweeps = Setup::span(&mut s.prepare_s, || {
        let mut rng = Rng::new(seed);
        let base = artifacts
            .iter()
            .map(|a| Experiment::baseline(a.clone()))
            .collect();
        let mut grid = Sweep::new();
        grid.grid(&artifacts, &FIG6_SIZES, &GRID_ALGOS, SimConfig::default());
        let base = Shuffled::new(base, &mut rng);
        let grid = Shuffled::new(grid.experiments().to_vec(), &mut rng);
        (base, grid)
    });
    s.wall_s = t.elapsed().as_secs_f64();
    (s, sweeps)
}

/// Table 1's rows (baseline, XOR-8, XOR-16 per program) picked from
/// the two sweeps.
fn table1_rows(base: &[ResultRow], grid: &[ResultRow]) -> Vec<ResultRow> {
    let mut out = Vec::new();
    for b in base {
        out.push(b.clone());
        for entries in [8, 16] {
            let m = grid.iter().find(|r| {
                r.workload == b.workload
                    && r.iht_entries == entries
                    && r.hash_algo == cimon_core::HashAlgoKind::Xor
            });
            out.extend(m.cloned());
        }
    }
    out
}

/// Check the rows against the committed Table 1 reference and the
/// benchmark's golden grid. Returns a list of problems.
fn check(ctx: &Ctx, base: &[ResultRow], grid: &[ResultRow]) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    let all: Vec<ResultRow> = base.iter().chain(grid).cloned().collect();
    for r in all.iter().filter(|r| !r.is_clean()) {
        problems.push(format!("{} did not run clean: {:?}", r.workload, r.outcome));
    }
    let table1 = report::to_json(&table1_rows(base, grid));
    let reference = std::fs::read_to_string(TABLE1_REFERENCE)
        .map_err(|e| format!("{TABLE1_REFERENCE}: {e}"))?;
    if table1 != reference {
        problems.push(format!("Table 1 rows differ from {TABLE1_REFERENCE}"));
    }
    let doc = report::to_json(&all);
    if ctx.bless {
        std::fs::write(GOLDEN, &doc).map_err(|e| format!("{GOLDEN}: {e}"))?;
    } else if std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))? != doc {
        problems.push(format!("grid rows differ from {GOLDEN}"));
    }
    Ok(problems)
}

fn instructions(rows: &[ResultRow]) -> f64 {
    rows.iter().map(|r| r.instructions as f64).sum()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_s, setup, (base, grid)) = Setup::repeat(|| setup_once(ctx.seed));
    let workers = default_workers();

    // Output checks, before any time counts.
    let base_rows = base.run(workers)?;
    let grid_rows = grid.run(workers)?;
    let problems = check(ctx, &base_rows, &grid_rows)?;
    problems.iter().for_each(|p| eprintln!("paper-grid: {p}"));
    let mut out = Outcome {
        attempted: (base_rows.len() + grid_rows.len()) as u64,
        failed: problems.len() as u64,
        ..Outcome::default()
    };
    if ctx.bless {
        return Ok(out);
    }

    let window = if ctx.trace {
        ctx.window / 2
    } else {
        ctx.window
    };
    let (mut pass_ms, mut mips, mut mips_base, mut mips_mon) = (vec![], vec![], vec![], vec![]);
    let (mut base_s, mut grid_s) = (vec![], vec![]);
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let b = base.run(workers)?;
        let t1 = Instant::now();
        let g = grid.run(workers)?;
        let t2 = Instant::now();
        out.attempted += (b.len() + g.len()) as u64;
        let wrong = b.iter().zip(&base_rows).filter(|(x, y)| x != y).count()
            + g.iter().zip(&grid_rows).filter(|(x, y)| x != y).count();
        out.failed += wrong as u64;
        let (sb, sg) = ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64());
        base_s.push(sb);
        grid_s.push(sg);
        pass_ms.push((sb + sg) * 1e3);
        mips.push((instructions(&b) + instructions(&g)) / (sb + sg) / 1e6);
        mips_base.push(instructions(&b) / sb / 1e6);
        mips_mon.push(instructions(&g) / sg / 1e6);
    }
    let n = pass_ms.len();
    print_all(
        "paper-grid simulation throughput",
        &[
            Metric::with_n(
                "sim_mips.baseline",
                crate::stats::median(&mips_base),
                "Minstr/s",
                n,
            ),
            Metric::with_n(
                "sim_mips.monitored",
                crate::stats::median(&mips_mon),
                "Minstr/s",
                n,
            ),
        ],
    );
    out.end_to_end = end_to_end(setup_s, &mips, &pass_ms, own_rss_mb());

    let mut probe = Probe::default();
    if !ctx.trace {
        // The drift diagnostic: tracing overhead on one program.
        let e = base.canonical()[0];
        probe.run(false, || processor_for(e));
        println!("trace.overhead_frac = {} frac (n=1)", probe.overhead_frac());
        return Ok(out);
    }

    // The engine layer: a serial traced pass through `Experiment::run`.
    let experiments: Vec<&Experiment> = base
        .canonical()
        .into_iter()
        .chain(grid.canonical())
        .collect();
    let mut busy_s = 0.0;
    for e in &experiments {
        let t = Instant::now();
        let row = e.run().map_err(|e| e.to_string())?;
        busy_s += t.elapsed().as_secs_f64();
        out.attempted += 1;
        out.failed += u64::from(!row.is_clean());
    }
    for e in &experiments {
        probe.run(e.monitored, || processor_for(e));
    }
    let sweep_wall = crate::stats::median(&base_s) + crate::stats::median(&grid_s);
    let overhead_us = (busy_s / experiments.len() as f64 - probe.mean_sim_ns() / 1e9) * 1e6;
    print_all(
        "paper-grid engine",
        &[
            Metric::new("sim.item_busy_s", busy_s, "s"),
            Metric::new("sim.experiment_overhead_us", overhead_us, "us"),
        ],
    );
    out.layers = setup.metrics();
    out.layers.extend(probe.metrics());
    out.layers.extend(pool_metrics(busy_s, workers, sweep_wall));
    Ok(out)
}
