//! Campaign results pinned against the benchmark's golden file.
//!
//! Runs the four seed-1 campaigns of the `fault-campaign` benchmark
//! workload — stringsearch and sha under CIC-8/XOR, single-bit flips
//! over the whole text segment at the stored image and on the fetch
//! bus, 150 runs each with a 5M-cycle budget — configured exactly as
//! `perfbench/src/campaign.rs` configures them, and requires each
//! result line (classification counts and `saved_cycles`) to appear in
//! `perfbench/golden/fault_campaign.txt`. A change to classification or
//! to the checkpoint-restart fast path shows up here, in the ordinary
//! test run. The golden file is only read.

use cimon_core::{CicConfig, HashAlgoKind};
use cimon_faults::{BusFaultMode, Campaign, CampaignConfig, FaultModel, FaultSite};
use cimon_hashgen::static_fht;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../perfbench/golden/fault_campaign.txt"
);
const SEED: u64 = 1;

#[test]
fn seed_one_campaigns_match_the_benchmark_golden_file() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is readable");
    let cic = CicConfig {
        iht_entries: 8,
        hash_algo: HashAlgoKind::Xor,
        hash_seed: 0,
    };
    for program in ["stringsearch", "sha"] {
        let image = cimon_workloads::by_name(program)
            .expect("registry program")
            .assemble()
            .image;
        let (fht, _) = static_fht(&image, &[], cic.hash_algo, cic.hash_seed).expect("static FHT");
        let (lo, hi) = image.text_range();
        let campaign = Campaign::new(image, cic, fht);
        for (site_name, site) in [
            ("stored-image", FaultSite::StoredImage),
            ("bus-one-shot", FaultSite::FetchBus(BusFaultMode::OneShot)),
        ] {
            let config = CampaignConfig {
                runs: 150,
                seed: SEED,
                model: FaultModel::SingleBit,
                site,
                targets: (lo..hi).step_by(4).collect(),
                max_cycles: 5_000_000,
                max_wall: None,
            };
            let r = campaign
                .run_with_workers(&config, 2)
                .expect("campaign runs");
            let line = format!(
                "{SEED} {program} {site_name} {} {} {} {} {} {} {}",
                r.detected_monitor,
                r.detected_baseline,
                r.masked,
                r.silent,
                r.hung,
                r.quarantined,
                r.saved_cycles
            );
            assert!(
                golden.lines().any(|l| l == line),
                "`{line}` is not in {GOLDEN}"
            );
        }
    }
}
