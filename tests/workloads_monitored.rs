//! End-to-end correctness of the whole stack: every workload runs to
//! its reference result on both the baseline and the monitored
//! processor, with **zero false positives** from the monitor.

use cimon::prelude::*;

#[test]
fn all_workloads_run_correct_on_baseline() {
    for w in cimon::workloads::all() {
        let prog = w.assemble();
        let report = run_baseline(&prog.image);
        assert_eq!(
            report.outcome,
            RunOutcome::Exited {
                code: w.expected_exit
            },
            "workload {}",
            w.name
        );
        assert!(
            report.stats.instructions > 10_000,
            "workload {} too small",
            w.name
        );
    }
}

#[test]
fn all_workloads_run_correct_monitored_cic8() {
    for w in cimon::workloads::all() {
        let prog = w.assemble();
        let report = run_monitored(&prog.image, &SimConfig::default(), None)
            .unwrap_or_else(|e| panic!("fht for {}: {e}", w.name));
        assert_eq!(
            report.outcome,
            RunOutcome::Exited {
                code: w.expected_exit
            },
            "workload {}",
            w.name
        );
        let cic = report.stats.cic.expect("monitored");
        assert_eq!(cic.mismatches, 0, "false positive in {}", w.name);
        assert!(cic.checks > 0, "{} never checked a block", w.name);
        // Every fetched instruction was hashed.
        assert_eq!(cic.words_hashed, report.stats.instructions, "{}", w.name);
        // The counters partition the checks.
        assert_eq!(
            cic.hits + cic.misses + cic.mismatches,
            cic.checks,
            "{}",
            w.name
        );
        // Every control-flow retirement was checked exactly once: as
        // many checks as the blocks a baseline run records.
        let mut base = Processor::new(
            &prog.image,
            ProcessorConfig {
                record_blocks: true,
                ..ProcessorConfig::baseline()
            },
        );
        base.run();
        assert_eq!(cic.checks, base.blocks().len() as u64, "{}", w.name);
    }
}

#[test]
fn monitoring_never_changes_architectural_results() {
    for w in cimon::workloads::all() {
        let prog = w.assemble();
        let base = run_baseline(&prog.image);
        let mon = run_monitored(&prog.image, &SimConfig::with_entries(16), None).unwrap();
        assert_eq!(base.outcome, mon.outcome, "{}", w.name);
        assert_eq!(
            base.stats.instructions, mon.stats.instructions,
            "{}",
            w.name
        );
        assert_eq!(base.stats.console, mon.stats.console, "{}", w.name);
        // Monitoring can only add cycles (miss exceptions), never remove.
        assert!(mon.stats.cycles >= base.stats.cycles, "{}", w.name);
        // The cycle delta is the monitor stalls, up to the small overlap
        // between exception freezes and in-flight operand interlocks.
        let delta = mon.stats.cycles - base.stats.cycles;
        assert!(delta <= mon.stats.monitor_stall_cycles, "{}", w.name);
        assert!(
            delta as f64 >= mon.stats.monitor_stall_cycles as f64 * 0.98,
            "{}: delta {delta} vs stalls {}",
            w.name,
            mon.stats.monitor_stall_cycles
        );
    }
}

#[test]
fn exception_cost_scales_overhead() {
    let w = cimon::workloads::by_name("stringsearch").unwrap();
    let prog = w.assemble();
    let cheap = run_monitored(
        &prog.image,
        &SimConfig {
            exception_cycles: 10,
            ..SimConfig::default()
        },
        None,
    )
    .unwrap();
    let costly = run_monitored(
        &prog.image,
        &SimConfig {
            exception_cycles: 1000,
            ..SimConfig::default()
        },
        None,
    )
    .unwrap();
    let misses = cheap.stats.cic.unwrap().misses;
    assert_eq!(
        misses,
        costly.stats.cic.unwrap().misses,
        "miss behaviour must not depend on cost"
    );
    assert_eq!(cheap.stats.monitor_stall_cycles, misses * 10);
    assert_eq!(costly.stats.monitor_stall_cycles, misses * 1000);
}
