//! CI throughput regression gate: compare the `BENCH_throughput.json`
//! the `sim_throughput` bench just wrote against the committed
//! reference in `reference/BENCH_throughput.json`, with a tolerance for
//! machine noise.
//!
//! A row fails when its MIPS fell below `(1 − tolerance) ×` the
//! reference (default tolerance 25%; override with the
//! `CIMON_THROUGHPUT_TOLERANCE` environment variable, e.g. `0.4`),
//! after dividing out how much slower this machine ran the calibration
//! kernel than the reference machine did (capped at 1: a faster
//! machine is compared absolutely). Speedups and new rows never fail.
//! Exit status is non-zero on any violation, so the CI bench job gates
//! on it directly.

use std::process::ExitCode;

fn load(path: &str) -> Result<Vec<cimon_bench::ThroughputRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    cimon_bench::report::throughput_from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let tolerance = std::env::var("CIMON_THROUGHPUT_TOLERANCE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.25);
    let reference = match load("reference/BENCH_throughput.json") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("throughput gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let current = match load("BENCH_throughput.json") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("throughput gate: {e} (run the `sim_throughput` bench first)");
            return ExitCode::FAILURE;
        }
    };

    let report = cimon_bench::throughput_gate(&reference, &current, tolerance);
    println!(
        "Throughput gate — reference vs current MIPS (tolerance −{:.0}%, \
         machine scale {:.2})",
        report.tolerance * 100.0,
        report.machine_scale
    );
    println!(
        "{:<14} {:>15} {:>10} {:>10} {:>7}  verdict",
        "workload", "mode", "reference", "current", "ratio"
    );
    cimon_bench::print_rule(70);
    for row in &report.rows {
        let current = row
            .current_mips
            .map_or("missing".to_string(), |m| format!("{m:.2}"));
        println!(
            "{:<14} {:>15} {:>10.2} {:>10} {:>6.2}x  {}",
            row.workload,
            row.mode,
            row.reference_mips,
            current,
            row.ratio,
            if row.violation { "FAIL" } else { "ok" }
        );
    }
    cimon_bench::print_rule(70);
    if report.passed() {
        println!("gate passed: {} rows within tolerance", report.rows.len());
        ExitCode::SUCCESS
    } else if report.rows.is_empty() {
        println!("gate FAILED: the committed reference contains no rows");
        ExitCode::FAILURE
    } else {
        println!(
            "gate FAILED: {} of {} rows slowed down more than {:.0}% \
             (after machine-scale {:.2} normalisation)",
            report.violations,
            report.rows.len(),
            report.tolerance * 100.0,
            report.machine_scale
        );
        ExitCode::FAILURE
    }
}
