//! Machine-readable result writers: [`ResultRow`] → CSV / JSON.
//!
//! The bench targets print human tables *and* write these serialised
//! forms (`BENCH_table1.json`, `BENCH_fig6.csv`, …) so the perf
//! trajectory of the reproduction can be tracked by tooling instead of
//! by eyeballing stdout. No external serialisation crates exist in this
//! environment, so both writers are hand-rolled over the fixed
//! [`ResultRow`] schema.

use cimon_pipeline::{FaultKind, RunOutcome};
use cimon_sim::engine::{ResultRow, RowStatus};

/// Column order shared by the CSV writer and the JSON field order.
pub const CSV_HEADER: &str = "workload,monitored,iht_entries,hash_algo,hash_seed,policy,\
                              outcome,exit_code,instructions,cycles,monitor_stall_cycles,\
                              checks,hits,misses,mismatches,miss_rate_percent,fht_entries";

/// Flatten an outcome to a `(kind, exit_code)` pair for serialisation.
fn outcome_fields(outcome: &RunOutcome) -> (&'static str, Option<u32>) {
    match outcome {
        RunOutcome::Exited { code } => ("exited", Some(*code)),
        RunOutcome::Detected { .. } => ("detected", None),
        RunOutcome::Fault(kind) => (
            match kind {
                FaultKind::IllegalInstruction { .. } => "fault-illegal-instruction",
                FaultKind::MemFault { .. } => "fault-mem",
                FaultKind::AddressError { .. } => "fault-address",
                FaultKind::BreakTrap { .. } => "fault-break",
                FaultKind::BadSyscall { .. } => "fault-bad-syscall",
            },
            None,
        ),
        RunOutcome::MaxCycles => ("max-cycles", None),
        RunOutcome::Watchdog => ("watchdog", None),
    }
}

/// Serialisation fields for one row. A poisoned row (worker panic or
/// typed engine error) never ran to an outcome, so its `outcome` field
/// is a placeholder: report the failure kind instead. Clean and
/// timed-out rows serialise their real outcome, so historical reports
/// stay byte-identical.
fn row_fields(r: &ResultRow) -> (String, Option<u32>) {
    match &r.status {
        RowStatus::Failed(err) => (format!("failed-{}", err.kind()), None),
        _ => {
            let (kind, code) = outcome_fields(&r.outcome);
            (kind.to_string(), code)
        }
    }
}

/// Serialise result rows as CSV (header + one line per row).
pub fn to_csv(rows: &[ResultRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + rows.len() * 96);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for r in rows {
        let (kind, code) = row_fields(r);
        let code = code.map(|c| c.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.workload,
            r.monitored,
            r.iht_entries,
            r.hash_algo.name(),
            r.hash_seed,
            r.policy,
            kind,
            code,
            r.instructions,
            r.cycles,
            r.monitor_stall_cycles,
            r.checks,
            r.hits,
            r.misses,
            r.mismatches,
            r.miss_rate_percent,
            r.fht_entries,
        );
    }
    out
}

use crate::json::{self, FlatObject};

/// Serialise result rows as a JSON array of flat objects.
pub fn to_json(rows: &[ResultRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let (kind, code) = row_fields(r);
        let code = code
            .map(|c| c.to_string())
            .unwrap_or_else(|| "null".to_string());
        let _ = write!(
            out,
            "  {{\"workload\":\"{}\",\"monitored\":{},\"iht_entries\":{},\
             \"hash_algo\":\"{}\",\"hash_seed\":{},\"policy\":\"{}\",\
             \"outcome\":\"{}\",\"exit_code\":{},\"instructions\":{},\
             \"cycles\":{},\"monitor_stall_cycles\":{},\"checks\":{},\
             \"hits\":{},\"misses\":{},\"mismatches\":{},\
             \"miss_rate_percent\":{},\"fht_entries\":{}}}",
            json::escape(&r.workload),
            r.monitored,
            r.iht_entries,
            r.hash_algo.name(),
            r.hash_seed,
            r.policy,
            kind,
            code,
            r.instructions,
            r.cycles,
            r.monitor_stall_cycles,
            r.checks,
            r.hits,
            r.misses,
            r.mismatches,
            r.miss_rate_percent,
            r.fht_entries,
        );
        // Only failed rows carry the extra error field, so reports from
        // clean sweeps stay byte-identical to the pre-status format.
        if let RowStatus::Failed(err) = &r.status {
            out.pop();
            let _ = write!(out, ",\"error\":\"{}\"}}", json::escape(&err.to_string()));
        }
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// Serialise throughput rows as a JSON array (`BENCH_throughput.json`).
pub fn throughput_to_json(rows: &[crate::ThroughputRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"workload\":\"{}\",\"mode\":\"{}\",\"instructions\":{},\
             \"cycles\":{},\"best_seconds\":{},\"mips\":{:.3},\
             \"block_mean\":{:.3},\"block_max\":{},\"calib_ns\":{}}}",
            json::escape(&r.workload),
            r.mode,
            r.instructions,
            r.cycles,
            r.best_seconds,
            r.mips,
            r.block_mean,
            r.block_max,
            r.calib_ns,
        );
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// Parse a `BENCH_throughput.json` document back into rows — the input
/// side of the CI throughput regression gate. Accepts exactly the
/// fixed-schema output of [`throughput_to_json`] (no external JSON
/// crates exist in this environment); rows missing a field or using an
/// unknown mode are reported as errors.
pub fn throughput_from_json(json: &str) -> Result<Vec<crate::ThroughputRow>, String> {
    const MODES: [&str; 4] = ["baseline", "baseline-instr", "cic8", "cic8-instr"];

    fn field<'a>(obj: &'a str, name: &str) -> Result<&'a str, String> {
        let tag = format!("\"{name}\":");
        let at = obj
            .find(&tag)
            .ok_or_else(|| format!("missing field `{name}` in `{obj}`"))?;
        let rest = &obj[at + tag.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Ok(rest[..end].trim())
    }

    fn string_field(obj: &str, name: &str) -> Result<String, String> {
        let raw = field(obj, name)?;
        raw.strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .map(str::to_string)
            .ok_or_else(|| format!("field `{name}` is not a string: `{raw}`"))
    }

    fn num_field<T: std::str::FromStr>(obj: &str, name: &str) -> Result<T, String> {
        field(obj, name)?
            .parse()
            .map_err(|_| format!("field `{name}` is not a number"))
    }

    let mut rows = Vec::new();
    for obj in json.split('{').skip(1) {
        let obj = obj
            .split('}')
            .next()
            .ok_or_else(|| "unterminated object".to_string())?;
        let mode_owned = string_field(obj, "mode")?;
        let mode = MODES
            .into_iter()
            .find(|m| *m == mode_owned)
            .ok_or_else(|| format!("unknown mode `{mode_owned}`"))?;
        rows.push(crate::ThroughputRow {
            workload: string_field(obj, "workload")?,
            mode,
            instructions: num_field(obj, "instructions")?,
            cycles: num_field(obj, "cycles")?,
            best_seconds: num_field(obj, "best_seconds")?,
            mips: num_field(obj, "mips")?,
            // Rows written before the block-dispatch era lack these.
            block_mean: num_field(obj, "block_mean").unwrap_or(0.0),
            block_max: num_field(obj, "block_max").unwrap_or(0),
            // Rows written before the calibrated gate lack the kernel
            // time: 0 marks it unknown.
            calib_ns: num_field(obj, "calib_ns").unwrap_or(0.0),
        });
    }
    Ok(rows)
}

/// Reconstruct a [`RunOutcome`] from its serialised `(tag, exit_code)`
/// pair. The writers collapse outcome payloads (detection cause,
/// faulting PC, …) to their tag, so `detected` and the fault kinds come
/// back with zeroed placeholder payloads — re-serialising yields the
/// identical tag, which is the round-trip contract the serve journal
/// relies on.
fn outcome_from_tag(tag: &str, code: Option<u32>) -> Result<RunOutcome, String> {
    use cimon_core::BlockKey;
    use cimon_os::TerminationCause;
    Ok(match tag {
        "exited" => RunOutcome::Exited {
            code: code.ok_or("`exited` row without an exit_code")?,
        },
        "detected" => RunOutcome::Detected {
            cause: TerminationCause::UnknownBlock {
                block: BlockKey { start: 0, end: 0 },
            },
            pc: 0,
        },
        "fault-illegal-instruction" => {
            RunOutcome::Fault(FaultKind::IllegalInstruction { pc: 0, word: 0 })
        }
        "fault-mem" => RunOutcome::Fault(FaultKind::MemFault { pc: 0 }),
        "fault-address" => RunOutcome::Fault(FaultKind::AddressError { pc: 0, target: 0 }),
        "fault-break" => RunOutcome::Fault(FaultKind::BreakTrap { pc: 0 }),
        "fault-bad-syscall" => RunOutcome::Fault(FaultKind::BadSyscall { pc: 0, number: 0 }),
        "max-cycles" => RunOutcome::MaxCycles,
        "watchdog" => RunOutcome::Watchdog,
        other => return Err(format!("unknown outcome tag `{other}`")),
    })
}

/// Intern a policy name to the engine's `&'static str` vocabulary.
fn intern_policy(name: &str) -> Result<&'static str, String> {
    ["none", "replace-half-lru", "single-lru", "fifo", "random"]
        .into_iter()
        .find(|p| *p == name)
        .ok_or_else(|| format!("unknown policy `{name}`"))
}

/// Parse one hash algorithm by its serialised name.
fn algo_from_name(name: &str) -> Result<cimon_core::HashAlgoKind, String> {
    cimon_core::HashAlgoKind::ALL
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| format!("unknown hash algorithm `{name}`"))
}

/// Parse a [`to_json`] document back into result rows — the read side
/// of the serve layer's durable journal, and the proof that a
/// [`RowStatus`] survives serialisation: `Ok` and `TimedOut` rows come
/// back status-identical, and `Failed` rows rebuild their typed
/// [`cimon_core::SimError`] from the `failed-<kind>` tag plus the
/// rendered `error` field (via [`cimon_core::SimError::from_wire`]).
///
/// Two fields are lossy by design: `expected_exit` is never serialised
/// (parsed rows carry `None`), and non-exit outcome payloads collapse
/// to their tag. Re-serialising a parsed document reproduces it byte
/// for byte.
///
/// # Errors
///
/// A description of the first malformed row.
pub fn rows_from_json(doc: &str) -> Result<Vec<ResultRow>, String> {
    use cimon_core::SimError;
    let mut rows = Vec::new();
    for body in json::objects(doc)? {
        let obj = FlatObject::parse(body)?;
        let tag = obj.str("outcome")?;
        let code: Option<u32> = obj.opt_num("exit_code")?;
        let (outcome, status) = if let Some(kind) = tag.strip_prefix("failed-") {
            let rendered = obj.str("error")?;
            let err = SimError::from_wire(kind, &rendered).ok_or_else(|| {
                format!("unreconstructable error: kind `{kind}`, rendering `{rendered}`")
            })?;
            // Poisoned rows carry the same placeholder outcome the
            // engine gives them (`ResultRow::poisoned`).
            (RunOutcome::Watchdog, RowStatus::Failed(err))
        } else {
            let outcome = outcome_from_tag(&tag, code)?;
            let status = if outcome == RunOutcome::Watchdog {
                RowStatus::TimedOut
            } else {
                RowStatus::Ok
            };
            (outcome, status)
        };
        rows.push(ResultRow {
            workload: obj.str("workload")?,
            expected_exit: None,
            monitored: obj.bool("monitored")?,
            iht_entries: obj.num("iht_entries")?,
            hash_algo: algo_from_name(&obj.str("hash_algo")?)?,
            hash_seed: obj.num("hash_seed")?,
            policy: intern_policy(&obj.str("policy")?)?,
            outcome,
            instructions: obj.num("instructions")?,
            cycles: obj.num("cycles")?,
            monitor_stall_cycles: obj.num("monitor_stall_cycles")?,
            checks: obj.num("checks")?,
            hits: obj.num("hits")?,
            misses: obj.num("misses")?,
            mismatches: obj.num("mismatches")?,
            miss_rate_percent: obj.num("miss_rate_percent")?,
            fht_entries: obj.num("fht_entries")?,
            status,
        });
    }
    Ok(rows)
}

/// Serialise one campaign result as a flat JSON object — every counter
/// including the robustness pair
/// ([`cimon_faults::CampaignResult::quarantined`],
/// [`cimon_faults::CampaignResult::saved_cycles`]) plus the derived
/// coverage figures for human consumers.
pub fn campaign_to_json(r: &cimon_faults::CampaignResult) -> String {
    format!(
        "{{\"detected_monitor\":{},\"detected_baseline\":{},\"masked\":{},\
         \"silent\":{},\"hung\":{},\"quarantined\":{},\"saved_cycles\":{},\
         \"coverage_percent\":{:.3},\"silent_percent\":{:.3}}}",
        r.detected_monitor,
        r.detected_baseline,
        r.masked,
        r.silent,
        r.hung,
        r.quarantined,
        r.saved_cycles,
        r.coverage_percent(),
        r.silent_percent(),
    )
}

/// Parse a [`campaign_to_json`] object back into counters. The derived
/// percentage fields are ignored on input (they are recomputed from
/// the counters on demand).
///
/// # Errors
///
/// A description of the first missing or malformed counter.
pub fn campaign_from_json(doc: &str) -> Result<cimon_faults::CampaignResult, String> {
    let bodies = json::objects(doc)?;
    let body = match bodies.as_slice() {
        [one] => one,
        other => return Err(format!("expected one campaign object, got {}", other.len())),
    };
    let obj = FlatObject::parse(body)?;
    Ok(cimon_faults::CampaignResult {
        detected_monitor: obj.num("detected_monitor")?,
        detected_baseline: obj.num("detected_baseline")?,
        masked: obj.num("masked")?,
        silent: obj.num("silent")?,
        hung: obj.num("hung")?,
        quarantined: obj.num("quarantined")?,
        saved_cycles: obj.num("saved_cycles")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimon_core::HashAlgoKind;

    fn row() -> ResultRow {
        ResultRow {
            workload: "sha".to_string(),
            expected_exit: Some(7),
            monitored: true,
            iht_entries: 8,
            hash_algo: HashAlgoKind::Xor,
            hash_seed: 0,
            policy: "replace-half-lru",
            outcome: RunOutcome::Exited { code: 7 },
            instructions: 1000,
            cycles: 1500,
            monitor_stall_cycles: 200,
            checks: 40,
            hits: 38,
            misses: 2,
            mismatches: 0,
            miss_rate_percent: 5.0,
            fht_entries: 12,
            status: RowStatus::Ok,
        }
    }

    #[test]
    fn csv_shape() {
        let csv = to_csv(&[row()]);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), CSV_HEADER);
        let line = lines.next().unwrap();
        assert!(line.starts_with("sha,true,8,xor,0,replace-half-lru,exited,7,1000,1500,"));
        assert!(line.ends_with(",5,12"));
        assert!(lines.next().is_none());
    }

    #[test]
    fn json_shape() {
        let json = to_json(&[row(), row()]);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert_eq!(json.matches("\"workload\":\"sha\"").count(), 2);
        assert!(json.contains("\"outcome\":\"exited\",\"exit_code\":7"));
        assert_eq!(json.matches('{').count(), 2);
    }

    #[test]
    fn non_exit_outcomes_have_null_exit_code() {
        let mut r = row();
        r.outcome = RunOutcome::MaxCycles;
        let json = to_json(&[r.clone()]);
        assert!(json.contains("\"outcome\":\"max-cycles\",\"exit_code\":null"));
        let csv = to_csv(&[r]);
        assert!(csv.lines().nth(1).unwrap().contains("max-cycles,,"));
    }

    #[test]
    fn poisoned_rows_report_their_error_instead_of_the_placeholder() {
        use cimon_core::SimError;
        let mut r = row();
        r.outcome = RunOutcome::Watchdog; // the poisoned-row placeholder
        r.status = RowStatus::Failed(SimError::WorkerPanic {
            site: "sweep",
            message: "boom".to_string(),
        });
        let json = to_json(&[r.clone()]);
        assert!(json.contains("\"outcome\":\"failed-worker-panic\",\"exit_code\":null"));
        assert!(json.contains("\"error\":\""));
        let csv = to_csv(&[r]);
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .contains("failed-worker-panic,,"));
        // A genuinely timed-out row keeps its real outcome.
        let mut t = row();
        t.outcome = RunOutcome::Watchdog;
        t.status = RowStatus::TimedOut;
        let json = to_json(&[t]);
        assert!(json.contains("\"outcome\":\"watchdog\",\"exit_code\":null"));
        assert!(!json.contains("\"error\""));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    /// Every row status survives serialisation: `Ok` and `TimedOut`
    /// rows parse back status- and counter-identical, `Failed` rows
    /// rebuild their typed error, and re-serialising any parsed
    /// document reproduces it byte for byte (the serve journal's
    /// durability contract).
    #[test]
    fn rows_round_trip_through_json() {
        use cimon_core::SimError;
        let ok = row();
        let mut timed_out = row();
        timed_out.outcome = RunOutcome::Watchdog;
        timed_out.status = RowStatus::TimedOut;
        let mut failed = row();
        failed.outcome = RunOutcome::Watchdog;
        failed.status = RowStatus::Failed(SimError::WorkerPanic {
            site: "serve",
            message: "chaos: injected panic at serve[13]".to_string(),
        });
        let mut overloaded = row();
        overloaded.outcome = RunOutcome::Watchdog;
        overloaded.status = RowStatus::Failed(SimError::Overloaded {
            queued: 8,
            capacity: 8,
        });
        let mut nasty = row();
        nasty.workload = "qsort\",{}\n".to_string();
        let rows = vec![ok, timed_out, failed, overloaded, nasty];

        let doc = to_json(&rows);
        let parsed = rows_from_json(&doc).unwrap();
        assert_eq!(parsed.len(), rows.len());
        for (p, r) in parsed.iter().zip(&rows) {
            assert_eq!(p.status, r.status, "status must survive the trip");
            assert_eq!(p.workload, r.workload);
            assert_eq!(p.expected_exit, None, "expected_exit is never serialised");
            assert_eq!(
                ResultRow {
                    expected_exit: r.expected_exit,
                    ..p.clone()
                },
                *r
            );
        }
        assert_eq!(to_json(&parsed), doc, "re-serialisation is byte-identical");
    }

    #[test]
    fn lossy_outcome_payloads_still_round_trip_their_tags() {
        let mut detected = row();
        detected.outcome = RunOutcome::Detected {
            cause: cimon_os::TerminationCause::HashMismatch {
                block: cimon_core::BlockKey {
                    start: 0x40_0000,
                    end: 0x40_0010,
                },
                expected: 1,
                actual: 2,
            },
            pc: 0x40_0010,
        };
        let mut fault = row();
        fault.outcome = RunOutcome::Fault(FaultKind::BadSyscall {
            pc: 0x40_0004,
            number: 99,
        });
        let doc = to_json(&[detected, fault]);
        let parsed = rows_from_json(&doc).unwrap();
        assert!(matches!(parsed[0].outcome, RunOutcome::Detected { .. }));
        assert!(matches!(
            parsed[1].outcome,
            RunOutcome::Fault(FaultKind::BadSyscall { .. })
        ));
        assert_eq!(to_json(&parsed), doc);
    }

    #[test]
    fn malformed_rows_are_rejected_with_reasons() {
        // Unknown outcome tag.
        let bad_tag = to_json(&[row()]).replace("\"outcome\":\"exited\"", "\"outcome\":\"warp\"");
        assert!(rows_from_json(&bad_tag).unwrap_err().contains("warp"));
        // Unknown policy.
        let bad_policy = to_json(&[row()]).replace("replace-half-lru", "coin-flip");
        assert!(rows_from_json(&bad_policy).unwrap_err().contains("policy"));
        // A failed row whose rendered error drifted from its kind.
        let mut failed = row();
        failed.status = RowStatus::Failed(cimon_core::SimError::Draining);
        let drifted = to_json(&[failed]).replace("server draining", "server leaving");
        assert!(rows_from_json(&drifted)
            .unwrap_err()
            .contains("unreconstructable"));
    }

    #[test]
    fn campaign_results_round_trip_with_robustness_counters() {
        let r = cimon_faults::CampaignResult {
            detected_monitor: 50,
            detected_baseline: 5,
            masked: 10,
            silent: 1,
            hung: 2,
            quarantined: 3,
            saved_cycles: 123_456,
        };
        let doc = campaign_to_json(&r);
        assert!(doc.contains("\"quarantined\":3"));
        assert!(doc.contains("\"saved_cycles\":123456"));
        assert!(doc.contains("\"coverage_percent\":"));
        assert_eq!(campaign_from_json(&doc).unwrap(), r);
        assert!(campaign_from_json("[]").is_err());
        assert!(campaign_from_json("{\"masked\":1}").is_err());
    }

    fn trow(workload: &str, mode: &'static str, mips: f64) -> crate::ThroughputRow {
        crate::ThroughputRow {
            workload: workload.to_string(),
            mode,
            instructions: 1000,
            cycles: 1500,
            best_seconds: 0.0025,
            mips,
            block_mean: 4.25,
            block_max: 18,
            calib_ns: 3_500_000.0,
        }
    }

    #[test]
    fn throughput_json_roundtrips() {
        let rows = vec![trow("sha", "baseline", 64.125), trow("sha", "cic8", 39.5)];
        let json = throughput_to_json(&rows);
        assert!(json.contains("\"block_mean\":4.250"));
        assert!(json.contains("\"block_max\":18"));
        let parsed = throughput_from_json(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].workload, "sha");
        assert_eq!(parsed[0].mode, "baseline");
        assert_eq!(parsed[0].instructions, 1000);
        assert_eq!(parsed[1].mode, "cic8");
        assert!((parsed[1].mips - 39.5).abs() < 1e-9);
        assert!((parsed[0].block_mean - 4.25).abs() < 1e-9);
        assert_eq!(parsed[0].block_max, 18);
        assert_eq!(parsed[1].calib_ns, 3_500_000.0);
    }

    #[test]
    fn throughput_parser_tolerates_pre_block_rows_and_rejects_garbage() {
        // Rows written before the block-dispatch era have no block
        // fields: they parse with zeros.
        let legacy = "[\n  {\"workload\":\"sha\",\"mode\":\"cic8\",\"instructions\":5,\
                      \"cycles\":9,\"best_seconds\":0.1,\"mips\":1.5}\n]\n";
        let parsed = throughput_from_json(legacy).unwrap();
        assert_eq!(parsed[0].block_max, 0);
        assert_eq!(parsed[0].block_mean, 0.0);
        assert_eq!(parsed[0].calib_ns, 0.0);
        // Unknown modes and missing fields are hard errors.
        assert!(throughput_from_json("[{\"workload\":\"x\",\"mode\":\"warp\"}]").is_err());
        assert!(throughput_from_json("[{\"mode\":\"cic8\"}]").is_err());
    }
}
