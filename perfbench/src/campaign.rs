//! `fault-campaign`: single-bit fault campaigns on stringsearch and sha
//! at two sites — the stored image and the fetch bus — on the engine
//! pool, repeated for the whole window. Thousands of short
//! restart-from-checkpoint runs: snapshot/restore, plan drawing,
//! classification and early-kill exits. A pass runs the campaigns of
//! all eight campaign seeds, so each run measures the same work (a few
//! hung runs cost as much as hundreds of detected ones); the seed sets
//! their order.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use cimon_core::{CicConfig, HashAlgoKind};
use cimon_faults::{
    BusFaultMode, Campaign, CampaignConfig, CampaignResult, FaultModel, FaultSite,
    Outcome as Class, PlannedBusTap,
};
use cimon_sim::engine::default_workers;
use cimon_sim::{Artifact, Experiment, SimConfig};

use crate::host::Rng;
use crate::probe::{processor_for, Probe};
use crate::{end_to_end, own_rss_mb, pool_metrics, print_all, Ctx, Metric, Outcome, Setup};

const GOLDEN: &str = "perfbench/golden/fault_campaign.txt";
const PROGRAMS: [&str; 2] = ["stringsearch", "sha"];
const SITES: [(&str, FaultSite); 2] = [
    ("stored-image", FaultSite::StoredImage),
    ("bus-one-shot", FaultSite::FetchBus(BusFaultMode::OneShot)),
];
/// Faulted runs per campaign; a pass runs 32 campaigns.
const RUNS: usize = 150;
const MAX_CYCLES: u64 = 5_000_000;
/// The campaign seeds, each with golden results.
const CAMPAIGN_SEEDS: u64 = 8;
/// Every this-many-th plan is replayed through `Campaign::run_one` in
/// the traced run.
const TRACE_STRIDE: usize = 8;

fn cic() -> CicConfig {
    CicConfig {
        iht_entries: 8,
        hash_algo: HashAlgoKind::Xor,
        hash_seed: 0,
    }
}

/// One program's campaign with the artifact its probe runs share.
struct Subject {
    artifact: Arc<Artifact>,
    campaign: Campaign,
}

fn setup_once() -> (Setup, Vec<Subject>) {
    let t = Instant::now();
    let mut s = Setup::default();
    let images: Vec<_> = Setup::span(&mut s.asm_s, || {
        PROGRAMS
            .iter()
            .map(|&name| {
                let w = cimon_workloads::by_name(name).expect("registry program");
                (name, w.expected_exit, Arc::new(w.assemble().image))
            })
            .collect()
    });
    let subjects = images
        .into_iter()
        .map(|(name, exit, image)| {
            let artifact = s.artifact(name, image.clone(), Some(exit), &[(HashAlgoKind::Xor, 0)]);
            let fht = artifact.fht(HashAlgoKind::Xor, 0).expect("cached FHT");
            let campaign = Setup::span(&mut s.prepare_s, || Campaign::new(image, cic(), fht));
            Subject { artifact, campaign }
        })
        .collect();
    s.wall_s = t.elapsed().as_secs_f64();
    (s, subjects)
}

fn config(subject: &Subject, site: FaultSite, seed: u64) -> CampaignConfig {
    let (lo, hi) = subject.artifact.image().text_range();
    CampaignConfig {
        runs: RUNS,
        seed,
        model: FaultModel::SingleBit,
        site,
        targets: (lo..hi).step_by(4).collect(),
        max_cycles: MAX_CYCLES,
        max_wall: None,
    }
}

/// `seed program site monitor baseline masked silent hung quarantined saved-cycles`.
fn golden_line(seed: u64, program: &str, site: &str, r: &CampaignResult) -> String {
    format!(
        "{seed} {program} {site} {} {} {} {} {} {} {}",
        r.detected_monitor,
        r.detected_baseline,
        r.masked,
        r.silent,
        r.hung,
        r.quarantined,
        r.saved_cycles
    )
}

/// Run the four campaigns of each seed in `seeds`; results in (seed,
/// program, site) order.
fn run_pass(
    subjects: &[Subject],
    seeds: &[u64],
    workers: usize,
) -> Result<Vec<CampaignResult>, String> {
    let mut out = Vec::new();
    for &seed in seeds {
        for s in subjects {
            for (_, site) in SITES {
                let r = s
                    .campaign
                    .run_with_workers(&config(s, site, seed), workers)
                    .map_err(|e| e.to_string())?;
                out.push(r);
            }
        }
    }
    Ok(out)
}

/// The golden lines of a pass over `seeds`.
fn lines(seeds: &[u64], results: &[CampaignResult]) -> Vec<String> {
    seeds
        .iter()
        .flat_map(|&seed| {
            PROGRAMS
                .iter()
                .flat_map(move |p| SITES.iter().map(move |(site, _)| (seed, p, site)))
        })
        .zip(results)
        .map(|((seed, p, site), r)| golden_line(seed, p, site, r))
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let workers = default_workers();
    let mut seeds: Vec<u64> = (1..=CAMPAIGN_SEEDS).collect();
    if ctx.bless {
        let (_, subjects) = setup_once();
        let mut doc = String::new();
        for line in lines(&seeds, &run_pass(&subjects, &seeds, workers)?) {
            let _ = writeln!(doc, "{line}");
        }
        std::fs::write(GOLDEN, doc).map_err(|e| format!("{GOLDEN}: {e}"))?;
        return Ok(Outcome::default());
    }
    Rng::new(ctx.seed).shuffle(&mut seeds);
    let (setup_s, setup, subjects) = Setup::repeat(setup_once);
    println!(
        "fault-campaign: campaign seeds {seeds:?}, {RUNS} runs per campaign, 32 campaigns per pass"
    );

    let reference = run_pass(&subjects, &seeds, workers)?;
    let golden = std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
    let mut out = Outcome {
        attempted: (reference.len() * RUNS) as u64,
        ..Outcome::default()
    };
    for line in lines(&seeds, &reference) {
        if !golden.lines().any(|l| l == line) {
            eprintln!("fault-campaign: `{line}` is not in {GOLDEN}");
            out.failed += RUNS as u64;
        }
    }
    let quarantined: usize = reference.iter().map(|r| r.quarantined).sum();
    out.failed += quarantined as u64;

    let window = if ctx.trace {
        ctx.window / 2
    } else {
        ctx.window
    };
    let (mut pass_ms, mut runs_per_s) = (vec![], vec![]);
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        let t = Instant::now();
        let results = run_pass(&subjects, &seeds, workers)?;
        let secs = t.elapsed().as_secs_f64();
        let runs: usize = results.iter().map(CampaignResult::total).sum();
        out.attempted += runs as u64;
        out.failed += results
            .iter()
            .zip(&reference)
            .filter(|(x, y)| x != y)
            .map(|(x, _)| x.total() as u64)
            .sum::<u64>();
        pass_ms.push(secs * 1e3);
        runs_per_s.push(runs as f64 / secs);
    }
    print_all(
        "fault-campaign throughput",
        &[Metric::with_n(
            "campaign.runs_per_s",
            crate::stats::median(&runs_per_s),
            "runs/s",
            runs_per_s.len(),
        )],
    );
    out.end_to_end = end_to_end(setup_s, &runs_per_s, &pass_ms, own_rss_mb());

    let mut probe = Probe::default();
    let baseline = |s: &Subject| Experiment::baseline(s.artifact.clone());
    let monitored =
        |s: &Subject| Experiment::monitored(s.artifact.clone(), SimConfig::with_entries(8));
    probe.run(false, || processor_for(&baseline(&subjects[0])));
    if !ctx.trace {
        println!("trace.overhead_frac = {} frac (n=1)", probe.overhead_frac());
        return Ok(out);
    }
    trace(&subjects, &seeds, &reference, &mut probe, &mut out)?;
    for s in &subjects {
        probe.run(false, || processor_for(&baseline(s)));
        probe.run(true, || processor_for(&monitored(s)));
    }
    // The pool: the same pass on one worker is the busy time it spreads.
    let t = Instant::now();
    run_pass(&subjects, &seeds, 1)?;
    let busy_s = t.elapsed().as_secs_f64();
    out.layers = setup.metrics();
    out.layers.extend(probe.metrics());
    out.layers.extend(pool_metrics(
        busy_s,
        workers,
        crate::stats::median(&pass_ms) / 1e3,
    ));
    Ok(out)
}

/// The faults layer, timed from outside: `Campaign::run_one` on a
/// sample of each campaign's plans (also probed step by step),
/// snapshot and restore at the checkpoint positions, and the outcome
/// mix of the reference pass.
fn trace(
    subjects: &[Subject],
    seeds: &[u64],
    reference: &[CampaignResult],
    probe: &mut Probe,
    out: &mut Outcome,
) -> Result<(), String> {
    let classes = [
        ("detected_monitor", Class::DetectedByMonitor),
        ("detected_baseline", Class::DetectedByBaseline),
        ("masked", Class::Masked),
        ("silent", Class::SilentCorruption),
        ("hung", Class::Hung),
    ];
    let mut by_class = vec![(0.0, 0usize); classes.len()];
    let (mut snap_us, mut restore_us) = (vec![], vec![]);
    let mut reference_cycles = 0u64;
    let mut clean = Vec::new();
    for s in subjects {
        let monitored = Experiment::monitored(s.artifact.clone(), SimConfig::with_entries(8));
        let mut cpu = processor_for(&monitored);
        cpu.run();
        let (instructions, cycles) = (cpu.instret(), cpu.cycles());
        // Checkpoints where `Campaign::new` takes them: every eighth of
        // the clean run.
        let interval = (instructions / 8).max(1);
        let mut cpu = processor_for(&monitored);
        let mut snaps = Vec::new();
        while cpu
            .run_to_instret((snaps.len() as u64 + 1) * interval)
            .is_none()
        {
            let t = Instant::now();
            snaps.push(cpu.snapshot());
            snap_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        for snap in &snaps {
            let mut cpu = processor_for(&monitored);
            let t = Instant::now();
            cpu.restore(snap).map_err(|e| e.to_string())?;
            restore_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        clean.push((monitored, cycles));
    }
    let mut results = reference.iter();
    let mut saved = 0u64;
    for &seed in seeds {
        for (s, (monitored, cycles)) in subjects.iter().zip(&clean) {
            for (_, site) in SITES {
                let r = results.next().ok_or("missing reference result")?;
                saved += r.saved_cycles;
                reference_cycles += cycles * r.total() as u64;
                let plans = s.campaign.plans(&config(s, site, seed));
                for plan in plans.iter().step_by(TRACE_STRIDE) {
                    let t = Instant::now();
                    let class = s.campaign.run_one(plan, MAX_CYCLES);
                    let dt = t.elapsed().as_secs_f64();
                    out.attempted += 1;
                    match classes.iter().position(|&(_, c)| c == class) {
                        Some(i) => {
                            by_class[i].0 += dt;
                            by_class[i].1 += 1;
                        }
                        None => out.failed += 1,
                    }
                    probe.run(true, || {
                        let mut cpu = processor_for(monitored);
                        cpu.set_max_cycles(MAX_CYCLES);
                        match plan.site {
                            FaultSite::StoredImage => plan
                                .flips
                                .iter()
                                .for_each(|f| f.apply_to_memory(cpu.mem_mut())),
                            FaultSite::FetchBus(mode) => cpu.set_bus_tap(Box::new(
                                PlannedBusTap::new(plan.flips.clone(), mode),
                            )),
                        }
                        cpu
                    });
                }
            }
        }
    }
    let total = |f: fn(&CampaignResult) -> usize| reference.iter().map(f).sum::<usize>() as f64;
    let mut metrics: Vec<Metric> = classes
        .iter()
        .zip(&by_class)
        .map(|(&(name, _), &(secs, n))| {
            Metric::with_n(
                &format!("faults.run_one_us.{name}"),
                crate::probe::ratio(secs * 1e6, n as f64),
                "us",
                n,
            )
        })
        .collect();
    metrics.extend([
        Metric::count(
            "faults.outcomes.detected_monitor",
            total(|r| r.detected_monitor),
        ),
        Metric::count(
            "faults.outcomes.detected_baseline",
            total(|r| r.detected_baseline),
        ),
        Metric::count("faults.outcomes.masked", total(|r| r.masked)),
        Metric::count("faults.outcomes.silent", total(|r| r.silent)),
        Metric::count("faults.outcomes.hung", total(|r| r.hung)),
        Metric::count("faults.outcomes.quarantined", total(|r| r.quarantined)),
        Metric::new(
            "faults.saved_cycle_frac",
            crate::probe::ratio(saved as f64, reference_cycles as f64),
            "frac",
        ),
        Metric::with_n(
            "faults.snapshot_us",
            crate::stats::median(&snap_us),
            "us",
            snap_us.len(),
        ),
        Metric::with_n(
            "faults.restore_us",
            crate::stats::median(&restore_us),
            "us",
            restore_us.len(),
        ),
    ]);
    print_all("faults layer", &metrics);
    Ok(())
}
