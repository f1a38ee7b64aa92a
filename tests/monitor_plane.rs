//! The monitor contract: a CIC-monitored pipeline behaves
//! architecturally identically to the baseline across the full workload
//! suite, and differs from it in timing only by the monitor's stalls.

use cimon::core::CicConfig;
use cimon::prelude::*;

#[test]
fn cic_monitor_preserves_architectural_state_on_all_workloads() {
    for w in cimon::workloads::registry() {
        let artifact = cimon::artifact_for(w);
        let fht = artifact
            .fht(HashAlgoKind::Xor, 0)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));

        let mut base = Processor::new(&w.image, ProcessorConfig::baseline());
        let base_out = base.run();
        let mut mon = Processor::new(
            &w.image,
            ProcessorConfig::monitored(CicConfig::with_entries(16), fht),
        );
        let mon_out = mon.run();

        assert_eq!(
            base_out,
            RunOutcome::Exited {
                code: w.expected_exit
            },
            "{}",
            w.name
        );
        assert_eq!(base_out, mon_out, "{}", w.name);
        assert_eq!(base.regs().snapshot(), mon.regs().snapshot(), "{}", w.name);
        assert_eq!(base.stats().console, mon.stats().console, "{}", w.name);
        let stats = mon.stats();
        let cic = stats.cic.expect("CIC monitor reports checker stats");
        assert_eq!(cic.mismatches, 0, "false positive in {}", w.name);
        assert!(mon.cycles() >= base.cycles(), "{}", w.name);
    }
}

#[test]
fn monitored_runs_differ_from_baseline_only_in_stall_cycles() {
    // The monitor sits on the hot path; this pins down that the
    // *timing* difference between baseline and monitored runs is
    // exactly the resolve() stalls, for every workload.
    for w in cimon::workloads::registry() {
        let base = run_baseline(&w.image);
        let mon = run_monitored(&w.image, &SimConfig::default(), None)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let delta = mon.stats.cycles - base.stats.cycles;
        assert!(delta <= mon.stats.monitor_stall_cycles, "{}", w.name);
    }
}
