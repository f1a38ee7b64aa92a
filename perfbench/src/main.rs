//! The cimon benchmark: four workloads, each measured end to end with
//! tracing off, or split into its layers with `--trace 1`.
//!
//! ```text
//! perfbench --workload <paper-grid|long-run|fault-campaign|serve-journaled>
//!           --seed N --seconds S --trace 0|1 --scratch DIR [--serve-bin PATH]
//!           [--bless]
//! ```
//!
//! Run it through `perfbench/run.py`, which builds this package and the
//! `cimon-serve` binary first. Every run prints its metrics as
//! `name = value unit (n=...)` lines, then one JSON object as the last
//! line of standard output. `--bless` rewrites the golden file of the
//! workload instead of checking against it. See `perfbench/README.md`
//! for what each workload stresses and what each metric means.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cimon_core::HashAlgoKind;
use cimon_mem::ProgramImage;
use cimon_sim::engine::default_workers;
use cimon_sim::Artifact;

mod campaign;
mod grid;
mod host;
mod long_run;
mod probe;
mod serve;
mod stats;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// What one invocation was asked to do.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Rewrite the golden file instead of checking against it.
    pub bless: bool,
    /// Scratch directory inside the checkout (journals, temp files).
    pub scratch: PathBuf,
    /// The `cimon-serve` executable.
    pub serve_bin: Option<PathBuf>,
}

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count behind the value (1 for a single measurement).
    pub n: usize,
}

impl Metric {
    /// A single measurement.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric::with_n(name, value, unit, 1)
    }

    /// A count.
    pub fn count(name: &str, value: f64) -> Metric {
        Metric::new(name, value, "count")
    }

    /// A value summarising `n` samples.
    pub fn with_n(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        }
    }

    /// Print as a `name = value unit (n=...)` line.
    pub fn print(&self) {
        println!(
            "{} = {} {} (n={})",
            self.name, self.value, self.unit, self.n
        );
    }
}

/// Print a list of metrics under a heading.
pub fn print_all(heading: &str, metrics: &[Metric]) {
    println!("-- {heading}");
    metrics.iter().for_each(Metric::print);
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (simulations, faulted runs, requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong output;
    /// the run is correct when this is 0.
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
}

/// Wall time of one set-up, split into the layers it calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Workload source generation plus `cimon-asm`.
    pub asm_s: f64,
    /// Cold FHT generation (`Artifact::fht`).
    pub fht_s: f64,
    /// `PredecodedImage::new`.
    pub predecode_s: f64,
    /// `BlockCache::new`.
    pub block_cache_s: f64,
    /// The workload's own preparation step: sweep or experiment
    /// construction, `Campaign::new`, or the server spawn and warm-up.
    pub prepare_s: f64,
    /// The whole set-up.
    pub wall_s: f64,
    /// FHT entries generated.
    pub fht_entries: u64,
    /// Basic blocks grouped.
    pub blocks: u64,
}

impl Setup {
    /// Time `f` into one of this set-up's parts.
    pub fn span<T>(part: &mut f64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *part += t.elapsed().as_secs_f64();
        out
    }

    /// Wrap an image as an engine artifact and build its caches: the
    /// FHT for every `(algo, seed)` in `fhts`, the predecoded image and
    /// the block cache.
    ///
    /// # Panics
    ///
    /// When FHT generation fails: the workloads are fixed, so that is a
    /// bug.
    pub fn artifact(
        &mut self,
        name: &str,
        image: Arc<ProgramImage>,
        exit: Option<u32>,
        fhts: &[(HashAlgoKind, u32)],
    ) -> Arc<Artifact> {
        let a = Artifact::new(name, image, exit);
        for &(algo, seed) in fhts {
            let fht = Setup::span(&mut self.fht_s, || a.fht(algo, seed)).expect("FHT generation");
            self.fht_entries += fht.len() as u64;
        }
        Setup::span(&mut self.predecode_s, || a.predecoded());
        let blocks = Setup::span(&mut self.block_cache_s, || a.block_cache());
        self.blocks += blocks.block_count() as u64;
        a
    }

    /// Generate and assemble the nine registry workloads: `(name,
    /// expected exit, image)` in the paper's order.
    pub fn registry(&mut self) -> Vec<(&'static str, u32, Arc<ProgramImage>)> {
        Setup::span(&mut self.asm_s, || {
            cimon_workloads::all()
                .into_iter()
                .map(|w| (w.name, w.expected_exit, Arc::new(w.assemble().image)))
                .collect()
        })
    }

    /// Run `once` [`SETUP_REPS`] times. Returns the median wall time,
    /// and the last set-up with what it built; what the earlier set-ups
    /// built is dropped before the next one starts.
    pub fn repeat<T>(mut once: impl FnMut() -> (Setup, T)) -> (f64, Setup, T) {
        let mut walls = Vec::with_capacity(SETUP_REPS);
        let mut last = once();
        walls.push(last.0.wall_s);
        for _ in 1..SETUP_REPS {
            drop(last);
            last = once();
            walls.push(last.0.wall_s);
        }
        (stats::median(&walls), last.0, last.1)
    }

    /// The per-layer split, with the remainder no part accounts for.
    pub fn metrics(&self) -> Vec<Metric> {
        let parts =
            self.asm_s + self.fht_s + self.predecode_s + self.block_cache_s + self.prepare_s;
        vec![
            Metric::new("setup.asm_s", self.asm_s, "s"),
            Metric::new("setup.fht_s", self.fht_s, "s"),
            Metric::new("setup.predecode_s", self.predecode_s, "s"),
            Metric::new("setup.block_cache_s", self.block_cache_s, "s"),
            Metric::new("setup.prepare_s", self.prepare_s, "s"),
            Metric::new("setup.unattributed_s", self.wall_s - parts, "s"),
            Metric::count("setup.fht_entries", self.fht_entries as f64),
            Metric::count("setup.blocks", self.blocks as f64),
        ]
    }
}

/// The end-to-end metrics every workload reports. The tail is p99 when
/// the run has at least 1000 operations (ten beyond it), else p50: the
/// pass-based workloads run tens of passes, and one fixed cut keeps a
/// faster or slower commit from changing which percentile `op_tail_ms`
/// reports.
pub fn end_to_end(setup_s: f64, work_per_s: &[f64], op_ms: &[f64], rss_mb: f64) -> Vec<Metric> {
    let cap = if op_ms.len() >= 1000 { 99.0 } else { 50.0 };
    let ops = stats::summarize(op_ms, cap).unwrap_or(stats::Summary {
        n: 0,
        p50: 0.0,
        tail_pct: 50.0,
        tail: 0.0,
    });
    vec![
        Metric::with_n("setup_s", setup_s, "s", SETUP_REPS),
        Metric::with_n(
            "throughput",
            stats::median(work_per_s),
            "work/s",
            work_per_s.len(),
        ),
        Metric::with_n("op_p50_ms", ops.p50, "ms", ops.n),
        Metric::with_n("op_tail_ms", ops.tail, "ms", ops.n),
        Metric::new("peak_rss_mb", rss_mb, "MiB"),
    ]
}

/// The pool metrics: busy time of the items a pool ran, and that
/// busy time over the pool's capacity (`workers` × `wall_s`).
pub fn pool_metrics(busy_s: f64, workers: usize, wall_s: f64) -> Vec<Metric> {
    vec![
        Metric::new("pool.busy_s", busy_s, "s"),
        Metric::new(
            "pool.efficiency",
            probe::ratio(busy_s, workers as f64 * wall_s),
            "frac",
        ),
    ]
}

/// Peak resident memory of this process.
pub fn own_rss_mb() -> f64 {
    host::peak_rss_mb(std::process::id()).unwrap_or(0.0)
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 1,
        window: Duration::from_secs(10),
        trace: false,
        bless: false,
        scratch: PathBuf::from("target/perfbench"),
        serve_bin: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            ctx.bless = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("flag {flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => ctx.seed = num(&value)?,
            "--seconds" => ctx.window = Duration::from_secs(num(&value)?.max(1)),
            "--trace" => ctx.trace = num(&value)? != 0,
            "--scratch" => ctx.scratch = PathBuf::from(value),
            "--serve-bin" => ctx.serve_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn json_line(o: &Outcome, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite figure is a
            // failed measurement and reads as 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.scratch.display());
        return ExitCode::FAILURE;
    }
    let calib_start = host::calib_ns();
    println!(
        "perfbench: workload {workload}, seed {}, {} s window, trace {}, {} cores",
        ctx.seed,
        ctx.window.as_secs(),
        u8::from(ctx.trace),
        default_workers()
    );
    let result = match workload.as_str() {
        "paper-grid" => grid::run(&ctx),
        "long-run" => long_run::run(&ctx),
        "fault-campaign" => campaign::run(&ctx),
        "serve-journaled" => serve::run(&ctx),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if ctx.bless {
        println!("perfbench: golden file rewritten");
        return ExitCode::SUCCESS;
    }
    let calib_end = host::calib_ns();
    let calib = (calib_start + calib_end) / 2.0;
    println!("host.calib_ns = {calib} ns (start {calib_start}, end {calib_end})");
    outcome
        .layers
        .insert(0, Metric::with_n("host.calib_ns", calib, "ns", 2));
    println!(
        "failed_frac = {} frac (n={})",
        probe::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.attempted
    );
    let metrics = if ctx.trace {
        print_all("per-layer metrics", &outcome.layers);
        &outcome.layers
    } else {
        print_all("end-to-end metrics", &outcome.end_to_end);
        &outcome.end_to_end
    };
    println!("{}", json_line(&outcome, metrics));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output checks failed");
        ExitCode::FAILURE
    }
}
