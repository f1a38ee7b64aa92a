//! `long-run`: six seeded large corpus programs, each run serially at
//! baseline and at CIC-8, for the whole window. Few static blocks, so
//! the IHT almost never misses; no per-run set-up worth the name and no
//! pool. What moves here is the dispatch loop. Every pass runs all
//! six programs, so each run measures the same work; the seed sets
//! their order.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use cimon_core::HashAlgoKind;
use cimon_sim::{Experiment, ResultRow, SimConfig};
use cimon_workloads::corpus::{self, CorpusSpec};

use crate::host::Rng;
use crate::probe::{processor_for, Probe};
use crate::{end_to_end, own_rss_mb, pool_metrics, print_all, Ctx, Metric, Outcome, Setup};

const GOLDEN: &str = "perfbench/golden/long_run.txt";

/// Dynamic instructions per run.
const TARGET_INSTRUCTIONS: u64 = 1_000_000;

/// The corpus seeds, each with a golden result: those among 1 to 8
/// whose CIC-8 run misses fewer than ten times (seeds 4 and 5 miss tens
/// of thousands of times and would bring the miss handler back in).
const CORPUS_SEEDS: [u64; 6] = [1, 2, 3, 6, 7, 8];

/// One corpus program: its seed, and its baseline and CIC-8 runs.
type Program = (u64, [Experiment; 2]);

fn setup_once(order: &[u64]) -> (Setup, Vec<Program>) {
    let t = Instant::now();
    let mut s = Setup::default();
    let programs = order
        .iter()
        .map(|&seed| {
            let image = Setup::span(&mut s.asm_s, || {
                let program = corpus::generate(&CorpusSpec {
                    seed,
                    target_dynamic_instructions: TARGET_INSTRUCTIONS,
                });
                Arc::new(program.assemble().image)
            });
            let a = s.artifact(
                &format!("corpus-{seed}"),
                image,
                None,
                &[(HashAlgoKind::Xor, 0)],
            );
            let runs = Setup::span(&mut s.prepare_s, || {
                [
                    Experiment::baseline(a.clone()),
                    Experiment::monitored(a, SimConfig::with_entries(8)),
                ]
            });
            (seed, runs)
        })
        .collect();
    s.wall_s = t.elapsed().as_secs_f64();
    (s, programs)
}

/// `seed exit instructions baseline-cycles cic8-cycles`.
fn golden_line(seed: u64, rows: &[ResultRow]) -> String {
    let code = match rows[0].outcome {
        cimon_sim::Outcome::Exited { code } => code.to_string(),
        other => format!("{other:?}"),
    };
    format!(
        "{seed} {code} {} {} {}",
        rows[0].instructions, rows[0].cycles, rows[1].cycles
    )
}

fn check(seed: u64, rows: &[ResultRow]) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    if rows.iter().any(|r| !r.is_clean()) || rows[0].instructions != rows[1].instructions {
        problems.push(format!("runs did not agree or end cleanly: {rows:?}"));
    }
    let line = golden_line(seed, rows);
    let golden = std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
    let want = golden
        .lines()
        .find(|l| l.split_whitespace().next() == Some(&seed.to_string()));
    if want != Some(line.as_str()) {
        problems.push(format!("corpus {seed}: got `{line}`, golden `{want:?}`"));
    }
    Ok(problems)
}

/// Run every program once at baseline and once at CIC-8. Returns the
/// rows and the seconds spent in baseline and in monitored runs.
fn run_pass(programs: &[Program]) -> Result<(Vec<ResultRow>, [f64; 2]), String> {
    let mut rows = Vec::with_capacity(2 * programs.len());
    let mut secs = [0.0; 2];
    for (_, runs) in programs {
        for (e, s) in runs.iter().zip(&mut secs) {
            let t = Instant::now();
            rows.push(e.run().map_err(|e| e.to_string())?);
            *s += t.elapsed().as_secs_f64();
        }
    }
    Ok((rows, secs))
}

/// Rewrite the golden file from every corpus program.
fn bless() -> Result<(), String> {
    let order = CORPUS_SEEDS;
    let (_, programs) = setup_once(&order);
    let (rows, _) = run_pass(&programs)?;
    let mut doc = String::new();
    for (seed, pair) in order.iter().zip(rows.chunks(2)) {
        let _ = writeln!(doc, "{}", golden_line(*seed, pair));
    }
    std::fs::write(GOLDEN, doc).map_err(|e| format!("{GOLDEN}: {e}"))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.bless {
        bless()?;
        return Ok(Outcome::default());
    }
    let mut order = CORPUS_SEEDS;
    Rng::new(ctx.seed).shuffle(&mut order);
    let (setup_s, setup, programs) = Setup::repeat(|| setup_once(&order));
    println!("long-run: corpus seeds {order:?}, ~{TARGET_INSTRUCTIONS} instructions per run");

    let (golden_rows, _) = run_pass(&programs)?;
    let mut problems = Vec::new();
    for (seed, pair) in order.iter().zip(golden_rows.chunks(2)) {
        problems.extend(check(*seed, pair)?);
    }
    problems.iter().for_each(|p| eprintln!("long-run: {p}"));
    let mut out = Outcome {
        attempted: golden_rows.len() as u64,
        failed: problems.len() as u64,
        ..Outcome::default()
    };

    let window = if ctx.trace {
        ctx.window / 2
    } else {
        ctx.window
    };
    let (mut pass_ms, mut mips, mut mips_base, mut mips_mon) = (vec![], vec![], vec![], vec![]);
    let instr = golden_rows
        .iter()
        .step_by(2)
        .map(|r| r.instructions as f64)
        .sum::<f64>();
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        let (rows, [sb, sm]) = run_pass(&programs)?;
        out.attempted += rows.len() as u64;
        out.failed += rows
            .iter()
            .zip(&golden_rows)
            .filter(|(x, y)| x != y)
            .count() as u64;
        pass_ms.push((sb + sm) * 1e3);
        mips.push(2.0 * instr / (sb + sm) / 1e6);
        mips_base.push(instr / sb / 1e6);
        mips_mon.push(instr / sm / 1e6);
    }
    let n = pass_ms.len();
    print_all(
        "long-run simulation throughput",
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
    probe.run(false, || processor_for(&programs[0].1[0]));
    if !ctx.trace {
        println!("trace.overhead_frac = {} frac (n=1)", probe.overhead_frac());
        return Ok(out);
    }
    probe.run(true, || processor_for(&programs[0].1[1]));
    for (_, runs) in &programs[1..] {
        probe.run(false, || processor_for(&runs[0]));
        probe.run(true, || processor_for(&runs[1]));
    }
    // No pool: the busy time is the runs of one pass and the capacity
    // is the pass itself, so the efficiency shows only the loop's own
    // overhead.
    let t = Instant::now();
    let (_, secs) = run_pass(&programs)?;
    let wall = t.elapsed().as_secs_f64();
    out.layers = setup.metrics();
    out.layers.extend(probe.metrics());
    out.layers.extend(pool_metrics(secs[0] + secs[1], 1, wall));
    Ok(out)
}
