//! Simulator-throughput benchmark: wall-clock speed of the cycle loop
//! across the workload registry, baseline and monitored (CIC8), each
//! with block dispatch on (the default) and off — so the block-dispatch
//! speedup is visible row by row.
//!
//! This is the repo's own performance trajectory — the metric is
//! **simulated instructions per second**, which bounds how fast every
//! sweep, fault campaign, and example can run. The raw rows are written
//! to `BENCH_throughput.json` via [`cimon_bench::report`] so CI can
//! track the trend (and gate on it via the `throughput_gate` target).
//! Every row also records the calibration kernel's time
//! ([`cimon_bench::calib_ns`]) in this process: the machine speed the
//! gate divides out.

fn main() {
    let reps = 5;
    println!(
        "Simulator throughput — instructions/second of the cycle loop \
         (best of {reps} passes over the rows)"
    );
    println!(
        "{:<14} {:>15} {:>12} {:>11} {:>8} {:>7} {:>7}",
        "workload", "mode", "instructions", "seconds", "MIPS", "blk-avg", "blk-max"
    );
    cimon_bench::print_rule(80);
    let t = cimon_bench::sim_throughput(reps);
    for r in &t.rows {
        println!(
            "{:<14} {:>15} {:>12} {:>11.6} {:>8.2} {:>7.2} {:>7}",
            r.workload, r.mode, r.instructions, r.best_seconds, r.mips, r.block_mean, r.block_max
        );
    }
    cimon_bench::print_rule(80);
    for (mode, mips) in [
        ("baseline", t.baseline_mips),
        ("baseline-instr", t.baseline_instr_mips),
        ("cic8", t.monitored_mips),
        ("cic8-instr", t.monitored_instr_mips),
    ] {
        println!("{:<14} {:>15} {:>41.2}", "aggregate", mode, mips);
    }
    println!(
        "\nblock-dispatch speedup: baseline {:.2}x, cic8 {:.2}x",
        t.baseline_mips / t.baseline_instr_mips.max(1e-9),
        t.monitored_mips / t.monitored_instr_mips.max(1e-9),
    );
    println!("calibration kernel: {:.0} ns", t.calib_ns);
    let json = cimon_bench::report::throughput_to_json(&t.rows);
    match std::fs::write("BENCH_throughput.json", &json) {
        Ok(()) => println!("\nwrote BENCH_throughput.json ({} rows)", t.rows.len()),
        Err(e) => println!("\ncould not write BENCH_throughput.json: {e}"),
    }
}
