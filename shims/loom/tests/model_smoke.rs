//! Self-tests for the loom shim's deterministic explorer. These run in every
//! build (the shim is dual-mode and does not need `--cfg gpnm_loom` itself).

use std::collections::HashSet;
use std::sync::Mutex as StdMutex;

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::{model_with, Config};

fn small() -> Config {
    let mut cfg = Config::from_env();
    cfg.max_preemptions = 2;
    cfg
}

/// Store-buffer litmus under sequential consistency: with
/// `t1: X=1; r1=Y` and `t2: Y=1; r2=X`, every interleaving yields
/// (r1, r2) ∈ {(0,1), (1,0), (1,1)} and never (0,0) — and a bounded but
/// exhaustive explorer must see all three.
#[test]
fn explores_all_sc_outcomes() {
    let seen: &'static StdMutex<HashSet<(usize, usize)>> =
        Box::leak(Box::new(StdMutex::new(HashSet::new())));
    model_with(small(), move || {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x1, y1) = (Arc::clone(&x), Arc::clone(&y));
        let t1 = loom::thread::spawn(move || {
            x1.store(1, Ordering::SeqCst);
            y1.load(Ordering::SeqCst)
        });
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t2 = loom::thread::spawn(move || {
            y2.store(1, Ordering::SeqCst);
            x2.load(Ordering::SeqCst)
        });
        let r1 = t1.join().unwrap();
        let r2 = t2.join().unwrap();
        assert!(
            (r1, r2) != (0, 0),
            "store-buffer outcome impossible under SC"
        );
        seen.lock().unwrap().insert((r1, r2));
    });
    let seen = seen.lock().unwrap();
    for want in [(0, 1), (1, 0), (1, 1)] {
        assert!(
            seen.contains(&want),
            "outcome {want:?} never explored; saw {seen:?}"
        );
    }
}

/// A racy read-modify-write (load then store) must be caught: some
/// interleaving loses an increment and the final assertion fails.
#[test]
#[should_panic(expected = "model failed")]
fn detects_lost_update() {
    model_with(small(), || {
        let n = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                loom::thread::spawn(move || {
                    let v = n.load(Ordering::SeqCst);
                    n.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
    });
}

/// The same counter guarded by a mutex is correct in every interleaving.
#[test]
fn mutex_serializes_increments() {
    model_with(small(), || {
        let n = Arc::new(Mutex::new(0usize));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                loom::thread::spawn(move || {
                    *n.lock().unwrap() += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*n.lock().unwrap(), 2);
    });
}

/// Classic AB-BA lock ordering: the explorer must find the deadlock.
#[test]
#[should_panic(expected = "deadlock")]
fn detects_lock_order_deadlock() {
    model_with(small(), || {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let t1 = loom::thread::spawn(move || {
            let _ga = a1.lock().unwrap();
            let _gb = b1.lock().unwrap();
        });
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t2 = loom::thread::spawn(move || {
            let _gb = b2.lock().unwrap();
            let _ga = a2.lock().unwrap();
        });
        let _ = t1.join();
        let _ = t2.join();
    });
}

/// Condvar handoff: the consumer always observes the produced value; no
/// interleaving loses the wakeup (wait re-checks its predicate, and the
/// scheduler's park/release is atomic).
#[test]
fn condvar_handoff_never_loses_wakeup() {
    model_with(small(), || {
        let cell = Arc::new((Mutex::new(None::<u32>), Condvar::new()));
        let producer = {
            let cell = Arc::clone(&cell);
            loom::thread::spawn(move || {
                let (mx, cv) = &*cell;
                *mx.lock().unwrap() = Some(7);
                cv.notify_one();
            })
        };
        let (mx, cv) = &*cell;
        let mut slot = mx.lock().unwrap();
        while slot.is_none() {
            slot = cv.wait(slot).unwrap();
        }
        assert_eq!(*slot, Some(7));
        drop(slot);
        producer.join().unwrap();
    });
}

/// Outside `model()`, the shimmed types behave as plain std primitives.
#[test]
fn dual_mode_plain_use() {
    let n = AtomicUsize::new(1);
    n.fetch_add(2, Ordering::SeqCst);
    assert_eq!(n.load(Ordering::SeqCst), 3);
    let m = Mutex::new(5);
    {
        let mut g = m.lock().unwrap();
        *g += 1;
    }
    assert_eq!(*m.lock().unwrap(), 6);
    let h = loom::thread::spawn(|| 41 + 1);
    assert_eq!(h.join().unwrap(), 42);
}
