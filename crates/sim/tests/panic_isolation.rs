//! Differential property tests for worker panic isolation.
//!
//! The contract pinned here is the tentpole of the fault-tolerant
//! engine: a panic at any set of grid points poisons exactly those
//! slots with a typed [`SimError::WorkerPanic`] while every other slot
//! is byte-identical to a serial, injection-free map — across worker
//! counts, item counts, and panic placements.

use std::collections::BTreeSet;

use proptest::prelude::*;

use cimon_sim::engine::parallel_map_isolated;
use cimon_sim::SimError;

proptest! {
    #[test]
    fn panics_poison_only_their_own_slots(
        n in 1usize..48,
        workers in 1usize..6,
        panic_at in prop::collection::vec(0usize..48, 0..10),
    ) {
        let panic_at: BTreeSet<usize> = panic_at.into_iter().collect();
        let items: Vec<u64> = (0..n as u64).collect();
        let rows = parallel_map_isolated(&items, workers, "prop", |i, &x| {
            if panic_at.contains(&i) {
                panic!("injected panic at {i}");
            }
            x.wrapping_mul(31).wrapping_add(7)
        });
        prop_assert_eq!(rows.len(), n);
        for (i, row) in rows.iter().enumerate() {
            if panic_at.contains(&i) {
                match row {
                    Err(SimError::WorkerPanic { site, message }) => {
                        prop_assert_eq!(*site, "prop");
                        prop_assert!(message.contains("injected panic"),
                                     "payload lost: {}", message);
                    }
                    other => panic!("slot {i} should be poisoned, got {other:?}"),
                }
            } else {
                prop_assert_eq!(
                    row.as_ref().expect("untouched slot"),
                    &(items[i].wrapping_mul(31).wrapping_add(7))
                );
            }
        }
    }

    #[test]
    fn worker_count_never_changes_the_rows(
        n in 1usize..32,
        panic_at in prop::collection::vec(0usize..32, 0..6),
    ) {
        let panic_at: BTreeSet<usize> = panic_at.into_iter().collect();
        let items: Vec<u64> = (0..n as u64).collect();
        let run = |workers: usize| {
            parallel_map_isolated(&items, workers, "prop", |i, &x| {
                if panic_at.contains(&i) {
                    panic!("injected panic at {i}");
                }
                x * 3
            })
        };
        let serial = run(1);
        for workers in [2, 4, 7] {
            prop_assert_eq!(&serial, &run(workers));
        }
    }
}

/// The calling thread is one of the pool's workers: an item that
/// panics on it is isolated in its own slot, like one on a spawned
/// worker, and every other slot keeps its order.
#[test]
fn a_panic_on_the_calling_thread_is_isolated_with_its_index() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    let caller = std::thread::current().id();
    let items: Vec<u64> = (0..16).collect();
    // Spawned workers hold their first item until the caller has
    // claimed one, so the caller is certain to run an item.
    let caller_claimed = AtomicBool::new(false);
    let panicked_at = AtomicUsize::new(usize::MAX);
    let deadline = Instant::now() + Duration::from_secs(10);
    let rows = parallel_map_isolated(&items, 2, "caller", |i, &x| {
        if std::thread::current().id() == caller {
            if !caller_claimed.swap(true, Ordering::SeqCst) {
                panicked_at.store(i, Ordering::SeqCst);
                panic!("injected panic on the caller at {i}");
            }
        } else {
            while !caller_claimed.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        x * 10
    });
    let at = panicked_at.load(Ordering::SeqCst);
    assert_ne!(at, usize::MAX, "no item ran on the calling thread");
    assert_eq!(rows.len(), items.len());
    for (i, row) in rows.iter().enumerate() {
        if i == at {
            match row {
                Err(SimError::WorkerPanic { site, message }) => {
                    assert_eq!(*site, "caller");
                    assert!(
                        message.contains(&format!("on the caller at {i}")),
                        "{message}"
                    );
                }
                other => panic!("slot {i} should be poisoned, got {other:?}"),
            }
        } else {
            assert_eq!(row.as_ref().ok(), Some(&(items[i] * 10)), "slot {i}");
        }
    }
}
