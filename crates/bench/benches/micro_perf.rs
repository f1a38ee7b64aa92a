//! Criterion micro-benchmarks of the monitor's hardware-model hot
//! paths: HASHFU throughput per algorithm (word-at-a-time and
//! batched), FHT generation, IHT lookup latency across table sizes
//! (plain and way-hinted), the OS refill per miss across table sizes,
//! one block-end check hashed vs memoised, the
//! scheduler's slice vs mask vs fused-block issue paths, end-to-end
//! simulator speed, the block-dispatch loop per simulated instruction
//! on a long corpus program, the fixed set-up cost of a faulted campaign run
//! (image load, processor construction, checkpoint restore), and one
//! serial fault campaign per injection site.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cimon_core::hash::{hash_block, hasher_for};
use cimon_core::{BlockKey, BlockMemo, BlockRecord, Cic, CicConfig, HashAlgoKind, Iht};
use cimon_faults::{BusFaultMode, Campaign, CampaignConfig, FaultModel, FaultSite};
use cimon_os::{RefillPolicy, ReplaceHalfLru};
use cimon_pipeline::predecode::PredecodedImage;
use cimon_pipeline::{
    BlockCache, BlockExec, BlockPlan, Predecode, Processor, ProcessorConfig, Timing, TimingConfig,
};
use cimon_sim::SimConfig;

fn bench_hash_units(c: &mut Criterion) {
    let words: Vec<u32> = (0..1024u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    let mut group = c.benchmark_group("hashfu");
    group.throughput(Throughput::Elements(words.len() as u64));
    for kind in HashAlgoKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                let mut unit = hasher_for(kind, 0x5eed);
                b.iter(|| {
                    unit.reset();
                    for &w in &words {
                        unit.update(w);
                    }
                    std::hint::black_box(unit.digest())
                });
            },
        );
    }
    group.finish();
}

fn bench_hash_batched(c: &mut Criterion) {
    // The batched entry point the FHT generators and the block
    // dispatcher use, against the per-word loop it replaced.
    let words: Vec<u32> = (0..1024u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    let mut group = c.benchmark_group("hashfu_batched");
    group.throughput(Throughput::Elements(words.len() as u64));
    for kind in HashAlgoKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| std::hint::black_box(hash_block(kind, 0x5eed, &words)));
            },
        );
    }
    group.finish();
}

fn bench_fht_generation(c: &mut Criterion) {
    // Whole-image static analysis per algorithm: what an OS loader (or
    // `cimon_sim::Artifact::fht`) pays to prepare one workload.
    let w = cimon_workloads::get("sha").expect("exists");
    let mut group = c.benchmark_group("fht_generation");
    group.sample_size(10);
    for kind in [
        HashAlgoKind::Xor,
        HashAlgoKind::Fletcher32,
        HashAlgoKind::Crc32,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let (fht, _) =
                        cimon_hashgen::static_fht(&w.image, &[], kind, 0x5eed).expect("analyses");
                    std::hint::black_box(fht.len())
                });
            },
        );
    }
    group.finish();
}

fn bench_timing_issue(c: &mut Criterion) {
    // The scheduler itself, isolated: the slice-based oracle path, the
    // mask-based fast path, and the fused block replay — driven by the
    // predecoded entries of a real workload's text so the instruction
    // mix is representative.
    let w = cimon_workloads::get("bitcount").expect("exists");
    let pre = PredecodedImage::new(&w.image);
    let image = std::sync::Arc::new(pre);
    let entries: Vec<_> = (0..image.len())
        .filter_map(|i| {
            let pc = image.base() + 4 * i as u32;
            let word = u32::from_le_bytes(
                w.image.text.bytes[4 * i..4 * i + 4]
                    .try_into()
                    .expect("word"),
            );
            image.lookup(pc, word).copied()
        })
        .collect();
    let mut group = c.benchmark_group("timing_issue");
    group.throughput(Throughput::Elements(entries.len() as u64));
    group.bench_function("slice", |b| {
        b.iter(|| {
            let mut t = Timing::default();
            for e in &entries {
                t.issue(
                    e.klass,
                    e.sources.as_slice(),
                    e.reads_hi,
                    e.reads_lo,
                    e.dest,
                    e.writes_hilo,
                    false,
                );
            }
            std::hint::black_box(t.cycles())
        });
    });
    group.bench_function("masks", |b| {
        b.iter(|| {
            let mut t = Timing::default();
            for e in &entries {
                t.issue_masks(e.klass, e.src_mask, e.dest_mask, false);
            }
            std::hint::black_box(t.cycles())
        });
    });
    // Fused: the straight-line runs planned once, replayed per "dispatch".
    let straight: Vec<_> = entries
        .iter()
        .filter(|e| !e.is_control_flow)
        .copied()
        .collect();
    let plans: Vec<BlockPlan> = straight
        .chunks(8)
        .map(|c| BlockPlan::build(c, TimingConfig::default()))
        .collect();
    group.throughput(Throughput::Elements(straight.len() as u64));
    let chunks: Vec<&[_]> = straight.chunks(8).collect();
    group.bench_function("issue_block", |b| {
        b.iter(|| {
            let mut t = Timing::default();
            for (plan, chunk) in plans.iter().zip(&chunks) {
                let x = t.block_entry_id();
                if t.plan_fits(plan, u64::MAX) {
                    t.issue_block(plan, x);
                } else {
                    // Same fallback the dispatcher takes, so every
                    // entry issues and the three rows stay comparable.
                    for e in *chunk {
                        t.issue_masks(e.klass, e.src_mask, e.dest_mask, false);
                    }
                }
            }
            std::hint::black_box(t.cycles())
        });
    });
    group.finish();
}

/// A full table of `entries` distinct keys, and the keys.
fn full_iht(entries: usize) -> (Iht, Vec<BlockKey>) {
    let mut iht = Iht::new(entries);
    let keys: Vec<BlockKey> = (0..entries as u32)
        .map(|i| BlockKey::new(0x1000 + i * 0x40, 0x1010 + i * 0x40))
        .collect();
    for (i, &key) in keys.iter().enumerate() {
        iht.insert_lru(BlockRecord {
            key,
            hash: i as u32,
        });
    }
    (iht, keys)
}

/// Lookups (or checks) per timed iteration in the per-lookup groups:
/// enough that the shim's fixed iteration count times a steady state
/// rather than the first pass over the keys. Read the `Melem/s` column
/// as lookups per microsecond.
const LOOKUPS_PER_ITER: usize = 1024;

fn bench_iht_lookup(c: &mut Criterion) {
    // Keys round-robin, so past one entry the MRU probe always misses
    // and the plain lookup scans; the hinted lookup keeps one way hint
    // per key, as each block slot's memo does.
    let mut group = c.benchmark_group("iht_lookup");
    group.throughput(Throughput::Elements(LOOKUPS_PER_ITER as u64));
    for entries in [1usize, 8, 16, 32, 128, 256] {
        group.bench_with_input(
            BenchmarkId::from_parameter(entries),
            &entries,
            |b, &entries| {
                let (mut iht, keys) = full_iht(entries);
                b.iter(|| {
                    for i in 0..LOOKUPS_PER_ITER {
                        let at = i % entries;
                        std::hint::black_box(iht.lookup(keys[at], at as u32));
                    }
                });
            },
        );
    }
    for entries in [8usize, 32, 256] {
        group.bench_with_input(
            BenchmarkId::new("hinted", entries),
            &entries,
            |b, &entries| {
                let (mut iht, keys) = full_iht(entries);
                let mut hints = vec![0usize; entries];
                b.iter(|| {
                    for i in 0..LOOKUPS_PER_ITER {
                        let at = i % entries;
                        std::hint::black_box(iht.lookup_from(keys[at], at as u32, &mut hints[at]));
                    }
                });
            },
        );
    }
    group.finish();
}

/// A full table of keys outside every program's text, their recency
/// scrambled by one lookup each in a scattered order: the state a
/// refill meets in a table that has run warm.
fn stale_iht(entries: usize) -> Iht {
    let mut iht = Iht::new(entries);
    let keys: Vec<BlockKey> = (0..entries as u32)
        .map(|i| BlockKey::new(0x4000_1000 + i * 0x40, 0x4000_1010 + i * 0x40))
        .collect();
    for (i, &key) in keys.iter().enumerate() {
        iht.replace_at(i, BlockRecord { key, hash: 0 });
    }
    for i in 0..entries {
        iht.lookup(keys[i * 7 % entries], 0);
    }
    iht
}

fn bench_iht_refill(c: &mut Criterion) {
    // The OS refill on stringsearch's FHT, per miss. From a stale full
    // table, the FHT's records are missed in a scattered order, each
    // one not resident at its turn refilling the table, for up to 1024
    // refills (at 256 entries the whole FHT is resident after a few).
    // The miss sequence is found once, outside the timing; each timed
    // iteration replays it on a copy of the stale table.
    let w = cimon_workloads::get("stringsearch").expect("exists");
    let fht = cimon_sim::build_fht(&w.image, &SimConfig::default()).unwrap();
    let records = fht.records();
    let mut group = c.benchmark_group("iht_refill");
    for entries in [8usize, 32, 256] {
        let start = stale_iht(entries);
        let mut policy = ReplaceHalfLru::default();
        let mut iht = start.clone();
        let mut misses = Vec::new();
        for n in 0..records.len() * 64 {
            let i = n * 29 % records.len();
            if misses.len() < 1024 && iht.probe(records[i].key).is_none() {
                policy.refill(&mut iht, &records[i + 1..], records[i]);
                misses.push(i);
            }
        }
        group.throughput(Throughput::Elements(misses.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(entries), &entries, |b, _| {
            b.iter(|| {
                let mut iht = start.clone();
                for &i in &misses {
                    policy.refill(&mut iht, &records[i + 1..], records[i]);
                }
                iht
            })
        });
    }
    group.finish();
}

fn bench_cic_check(c: &mut Criterion) {
    // One block-end check of a 6-word block (about the mean dispatch),
    // as the planned block path pays it: hash the words, look the
    // digest up and reset — against the memoised check, which replays
    // the digest and probes the block's way hint.
    let words: [u32; 6] = [
        0x0109_5020,
        0x2508_0001,
        0x8d09_0004,
        0x0128_4821,
        0x2129_ffff,
        0x1500_fffa,
    ];
    let key = BlockKey::new(0x40_0000, 0x40_0014);
    let mut group = c.benchmark_group("cic_check");
    group.throughput(Throughput::Elements(LOOKUPS_PER_ITER as u64));
    for kind in HashAlgoKind::ALL {
        let cic = || {
            let mut cic = Cic::new(CicConfig {
                iht_entries: 8,
                hash_algo: kind,
                hash_seed: 0x5eed,
            });
            for i in 0..7u32 {
                cic.iht_mut().insert_lru(BlockRecord {
                    key: BlockKey::new(0x1000 + i * 0x40, 0x1010 + i * 0x40),
                    hash: i,
                });
            }
            cic.iht_mut().insert_lru(BlockRecord {
                key,
                hash: hash_block(kind, 0x5eed, &words),
            });
            cic
        };
        group.bench_function(BenchmarkId::new("hash+lookup", kind.name()), |b| {
            let mut cic = cic();
            b.iter(|| {
                for _ in 0..LOOKUPS_PER_ITER {
                    let digest = cic.hash_block_step(std::hint::black_box(&words));
                    std::hint::black_box(cic.check_block(key, digest));
                    cic.hash_reset();
                }
            });
        });
        group.bench_function(BenchmarkId::new("memo", kind.name()), |b| {
            let mut cic = cic();
            let mut memo = BlockMemo::default();
            b.iter(|| {
                for _ in 0..LOOKUPS_PER_ITER {
                    let words = std::hint::black_box(&words);
                    std::hint::black_box(cic.check_block_memo(words, key, &mut memo));
                }
            });
        });
    }
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    // The assembled-once registry image and an Arc-shared FHT: each
    // iteration measures the run, not workload preparation.
    let w = cimon_workloads::get("bitcount").expect("exists");
    let fht = std::sync::Arc::new(cimon_sim::build_fht(&w.image, &SimConfig::default()).unwrap());
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);

    group.bench_function("baseline_run", |b| {
        b.iter(|| {
            let mut cpu = Processor::new(&w.image, ProcessorConfig::baseline());
            std::hint::black_box(cpu.run())
        });
    });
    group.bench_function("monitored_cic8_run", |b| {
        b.iter(|| {
            let mut cpu = Processor::new(
                &w.image,
                ProcessorConfig::monitored(CicConfig::with_entries(8), fht.clone()),
            );
            std::hint::black_box(cpu.run())
        });
    });
    group.finish();
}

fn bench_block_dispatch(c: &mut Criterion) {
    // The block-dispatch loop on its own, one whole run per iteration,
    // baseline and CIC-8, on three programs:
    // - `baseline`/`cic8`: the 1M-instruction corpus program of seed 1,
    //   as the benchmark's `long-run` runs it. Its blocks carry data
    //   stores and same-value stores into the text, so every block path
    //   runs.
    // - `seed3-*`: corpus seed 3 at 1M instructions, the heaviest
    //   same-value text writer (about one text store every other
    //   dispatch). It shows what a store that leaves the text unchanged
    //   costs the dispatch loop.
    // - `stringsearch-*`: a registry program that never writes its
    //   text, so it shows the exec body alone.
    // The throughput is per retired instruction: ns/elem is the cost of
    // one simulated instruction.
    let programs = [
        ("", cimon_workloads::corpus::large(1).assemble().image),
        ("seed3-", cimon_workloads::corpus::large(3).assemble().image),
        (
            "stringsearch-",
            (*cimon_workloads::get("stringsearch").expect("exists").image).clone(),
        ),
    ];
    let mut group = c.benchmark_group("block_dispatch");
    group.sample_size(10);
    for (prefix, image) in &programs {
        let fht = std::sync::Arc::new(cimon_sim::build_fht(image, &SimConfig::default()).unwrap());
        for (mode, config) in [
            ("baseline", ProcessorConfig::baseline()),
            (
                "cic8",
                ProcessorConfig::monitored(CicConfig::with_entries(8), fht),
            ),
        ] {
            let mut cpu = Processor::new(image, config.clone());
            cpu.run();
            group.throughput(Throughput::Elements(cpu.instret()));
            group.bench_function(format!("{prefix}{mode}").as_str(), |b| {
                b.iter(|| {
                    let mut cpu = Processor::new(image, config.clone());
                    std::hint::black_box(cpu.run())
                })
            });
        }
    }
    group.finish();
}

fn bench_run_setup(c: &mut Criterion) {
    // The fixed cost of one faulted campaign run on stringsearch: load
    // the image, build a monitored processor over shared caches (as
    // `Campaign` does), and restore the clean run's mid-point
    // checkpoint. `snapshot_checksum` is the CRC-32 over every
    // resident word that `to_bytes` records and `from_bytes` checks.
    let w = cimon_workloads::get("stringsearch").expect("exists");
    let fht = std::sync::Arc::new(cimon_sim::build_fht(&w.image, &SimConfig::default()).unwrap());
    let predecoded = std::sync::Arc::new(PredecodedImage::new(&w.image));
    let blocks = std::sync::Arc::new(BlockCache::new(predecoded.clone()));
    let config = ProcessorConfig {
        predecode: Predecode::Shared(predecoded),
        block_exec: BlockExec::Shared(blocks),
        ..ProcessorConfig::monitored(CicConfig::with_entries(8), fht)
    };
    let mut cpu = Processor::new(&w.image, config.clone());
    cpu.run();
    let half = cpu.instret() / 2;
    let mut cpu = Processor::new(&w.image, config.clone());
    assert!(cpu.run_to_instret(half).is_none(), "cut lands mid-run");
    let snapshot = cpu.snapshot();

    let mut group = c.benchmark_group("run_setup");
    group.bench_function("to_memory", |b| b.iter(|| w.image.to_memory()));
    group.bench_function("processor_new", |b| {
        b.iter(|| Processor::new(&w.image, config.clone()))
    });
    group.bench_function("restore", |b| {
        let mut cpu = Processor::new(&w.image, config.clone());
        b.iter(|| cpu.restore(&snapshot).unwrap())
    });
    group.bench_function("snapshot_checksum", |b| {
        b.iter(|| snapshot.compute_checksum())
    });
    group.finish();
}

fn bench_campaign(c: &mut Criterion) {
    // One serial 150-run single-bit campaign on stringsearch (CIC-8,
    // XOR) per site, configured as the benchmark's `fault-campaign`
    // configures its seed-1 campaigns. The bus/stored ratio is what a
    // fetch-bus tap costs a faulted run over a stored-image flip.
    let w = cimon_workloads::get("stringsearch").expect("exists");
    let cic = CicConfig::with_entries(8);
    let fht = cimon_sim::build_fht(&w.image, &SimConfig::default()).unwrap();
    let (lo, hi) = w.image.text_range();
    let campaign = Campaign::new(w.image.clone(), cic, fht);
    let mut group = c.benchmark_group("campaign");
    for (name, site) in [
        ("stored_image", FaultSite::StoredImage),
        ("bus_one_shot", FaultSite::FetchBus(BusFaultMode::OneShot)),
    ] {
        let config = CampaignConfig {
            runs: 150,
            seed: 1,
            model: FaultModel::SingleBit,
            site,
            targets: (lo..hi).step_by(4).collect(),
            max_cycles: 5_000_000,
            max_wall: None,
        };
        group.bench_function(name, |b| {
            b.iter(|| campaign.run_with_workers(&config, 1).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hash_units,
    bench_hash_batched,
    bench_cic_check,
    bench_fht_generation,
    bench_timing_issue,
    bench_iht_lookup,
    bench_iht_refill,
    bench_simulator,
    bench_block_dispatch,
    bench_run_setup,
    bench_campaign
);
criterion_main!(benches);
