//! Unit tests for the model backend: the scheduler must find classic
//! interleaving bugs (with minimal preemptions), prove their fixed
//! variants, stay deterministic, and honor failpoints.

#![cfg(feature = "model")]

use std::sync::Arc;

use sdr_sync::atomic::{AtomicUsize, Ordering};
use sdr_sync::model::{check, ModelOptions};
use sdr_sync::{fail, thread, Gate, Mutex, OnceCell};

fn opts() -> ModelOptions {
    ModelOptions {
        max_schedules: 50_000,
        max_preemptions: 3,
        max_steps: 10_000,
    }
}

#[test]
fn toctou_lost_update_is_found_with_one_preemption() {
    let report = check(&opts(), || {
        let n = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..2 {
                let n = Arc::clone(&n);
                s.spawn(move || {
                    // Non-atomic increment: load, then store. A schedule
                    // interleaving the two loses one update.
                    let v = n.load(Ordering::SeqCst);
                    n.store(v + 1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
    });
    let ce = report.counterexample.expect("lost update must be found");
    assert!(
        ce.message.contains("lost update"),
        "message: {}",
        ce.message
    );
    assert_eq!(ce.preemptions, 1, "minimal schedule needs one preemption");
    assert!(!ce.schedule.is_empty());
    assert!(report.nondeterminism.is_none());
}

#[test]
fn fetch_add_increment_is_proved() {
    let report = check(&opts(), || {
        let n = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..2 {
                let n = Arc::clone(&n);
                s.spawn(move || {
                    n.fetch_add(1, Ordering::AcqRel);
                });
            }
        });
        assert_eq!(n.load(Ordering::SeqCst), 2);
    });
    assert!(
        report.counterexample.is_none(),
        "{:?}",
        report.counterexample
    );
    assert!(report.complete, "space should be fully explored");
    assert!(report.schedules > 1, "must explore more than one schedule");
}

#[test]
fn mutex_guarded_increment_is_proved() {
    let report = check(&opts(), || {
        let n = Arc::new(Mutex::new(0usize));
        thread::scope(|s| {
            for _ in 0..2 {
                let n = Arc::clone(&n);
                s.spawn(move || {
                    let mut g = n.lock();
                    *g += 1;
                });
            }
        });
        assert_eq!(*n.lock(), 2);
    });
    assert!(
        report.counterexample.is_none(),
        "{:?}",
        report.counterexample
    );
    assert!(report.complete);
}

#[test]
fn lock_order_inversion_deadlocks() {
    let report = check(&opts(), || {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        thread::scope(|s| {
            {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                s.spawn_named("fwd".into(), move || {
                    let _g1 = a.lock();
                    let _g2 = b.lock();
                });
            }
            {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                s.spawn_named("rev".into(), move || {
                    let _g1 = b.lock();
                    let _g2 = a.lock();
                });
            }
        });
    });
    let ce = report.counterexample.expect("deadlock must be found");
    assert!(ce.message.contains("deadlock"), "message: {}", ce.message);
}

#[test]
fn relaxed_publish_is_caught_release_acquire_is_proved() {
    // Message-passing litmus with a relaxed data store: the model's
    // staleness rule lets the reader observe the old value.
    let relaxed = check(&opts(), || {
        let x = Arc::new(AtomicUsize::new(0));
        let ready = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            {
                let (x, ready) = (Arc::clone(&x), Arc::clone(&ready));
                s.spawn_named("writer".into(), move || {
                    x.store(1, Ordering::Relaxed);
                    ready.store(1, Ordering::Release);
                });
            }
            {
                let (x, ready) = (Arc::clone(&x), Arc::clone(&ready));
                s.spawn_named("reader".into(), move || {
                    if ready.load(Ordering::Acquire) == 1 {
                        assert_eq!(x.load(Ordering::Relaxed), 1, "stale read");
                    }
                });
            }
        });
    });
    let ce = relaxed
        .counterexample
        .expect("relaxed publish must be caught");
    assert!(ce.message.contains("stale read"), "message: {}", ce.message);

    let fixed = check(&opts(), || {
        let x = Arc::new(AtomicUsize::new(0));
        let ready = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            {
                let (x, ready) = (Arc::clone(&x), Arc::clone(&ready));
                s.spawn_named("writer".into(), move || {
                    x.store(1, Ordering::Release);
                    ready.store(1, Ordering::Release);
                });
            }
            {
                let (x, ready) = (Arc::clone(&x), Arc::clone(&ready));
                s.spawn_named("reader".into(), move || {
                    if ready.load(Ordering::Acquire) == 1 {
                        assert_eq!(x.load(Ordering::Acquire), 1, "stale read");
                    }
                });
            }
        });
    });
    assert!(fixed.counterexample.is_none(), "{:?}", fixed.counterexample);
    assert!(fixed.complete);
}

#[test]
fn exploration_is_deterministic() {
    let run = || {
        check(&opts(), || {
            let n = Arc::new(AtomicUsize::new(0));
            thread::scope(|s| {
                for _ in 0..2 {
                    let n = Arc::clone(&n);
                    s.spawn(move || {
                        let v = n.load(Ordering::SeqCst);
                        n.store(v + 1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
        })
    };
    let (a, b) = (run(), run());
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.prunes, b.prunes);
    let (ca, cb) = (a.counterexample.unwrap(), b.counterexample.unwrap());
    assert_eq!(
        ca.schedule, cb.schedule,
        "replayed schedule must be identical"
    );
    assert_eq!(ca.preemptions, cb.preemptions);
}

#[test]
fn armed_failpoint_fires_exactly_once() {
    let report = check(&opts(), || {
        fail::arm("sync.test-once", 1);
        let hits = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..2 {
                let hits = Arc::clone(&hits);
                s.spawn(move || {
                    if fail::point("sync.test-once") {
                        hits.fetch_add(1, Ordering::AcqRel);
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1, "one-shot token");
        assert!(!fail::point("sync.test-unarmed"));
    });
    assert!(
        report.counterexample.is_none(),
        "{:?}",
        report.counterexample
    );
    assert!(report.complete);
}

#[test]
fn gate_cap_is_proved_and_toctou_mutation_is_caught() {
    // The gate harness has ~4 schedule points per thread (CAS-loop load,
    // CAS, in_use load, permit-drop fetch_sub); proving the full space
    // needs a deeper preemption bound than the default used above.
    let deep = ModelOptions {
        max_preemptions: 8,
        ..opts()
    };
    let correct = check(&deep, || {
        let gate = Arc::new(Gate::new(1));
        thread::scope(|s| {
            for _ in 0..2 {
                let gate = Arc::clone(&gate);
                s.spawn(move || {
                    if let Some(_permit) = gate.try_acquire() {
                        assert!(gate.in_use() <= 1, "cap exceeded");
                    }
                });
            }
        });
        assert_eq!(gate.in_use(), 0, "leaked permit");
    });
    assert!(
        correct.counterexample.is_none(),
        "{:?}",
        correct.counterexample
    );
    assert!(correct.complete);

    let mutated = check(&opts(), || {
        fail::arm("gate-toctou", usize::MAX);
        let gate = Arc::new(Gate::new(1));
        thread::scope(|s| {
            for _ in 0..2 {
                let gate = Arc::clone(&gate);
                s.spawn(move || {
                    if let Some(_permit) = gate.try_acquire() {
                        assert!(gate.in_use() <= 1, "cap exceeded");
                    }
                });
            }
        });
    });
    let ce = mutated
        .counterexample
        .expect("TOCTOU admission must be caught");
    assert!(
        ce.message.contains("cap exceeded"),
        "message: {}",
        ce.message
    );
}

#[test]
fn condvar_handoff_is_proved() {
    let report = check(&opts(), || {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(sdr_sync::Condvar::new());
        thread::scope(|s| {
            {
                let (m, cv) = (Arc::clone(&m), Arc::clone(&cv));
                s.spawn_named("waiter".into(), move || {
                    let mut g = m.lock();
                    while !*g {
                        g = cv.wait(g);
                    }
                });
            }
            {
                let (m, cv) = (Arc::clone(&m), Arc::clone(&cv));
                s.spawn_named("setter".into(), move || {
                    let mut g = m.lock();
                    *g = true;
                    cv.notify_all();
                });
            }
        });
        assert!(*m.lock());
    });
    assert!(
        report.counterexample.is_none(),
        "{:?}",
        report.counterexample
    );
    assert!(report.complete);
}

#[test]
fn once_cell_initializes_exactly_once_under_every_schedule() {
    let report = check(&opts(), || {
        let cell = Arc::new(OnceCell::<usize>::new());
        let runs = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..2 {
                let (cell, runs) = (Arc::clone(&cell), Arc::clone(&runs));
                s.spawn(move || {
                    let v = cell.get_or_init(|| runs.fetch_add(1, Ordering::AcqRel) + 7);
                    assert_eq!(*v, 7, "every reader sees the first initializer's value");
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "initializer ran twice");
        assert_eq!(cell.get(), Some(&7));
    });
    assert!(
        report.counterexample.is_none(),
        "{:?}",
        report.counterexample
    );
    assert!(report.complete, "space should be fully explored");
    assert!(report.schedules > 1, "both initializer orders are explored");
}
