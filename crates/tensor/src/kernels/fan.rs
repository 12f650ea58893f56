//! The one fan-out every parallel loop of the workspace runs through: the
//! GEMM panels, NCHW groups, lane samples, positions channel blocks and
//! int8 row blocks here, and the batched lowerings' samples in `conv.rs`.
//!
//! [`fan`] runs a closure over every item of an iterator of disjoint work
//! items on `workers` scoped threads, the caller's thread being one of
//! them. Workers claim items one at a time from the shared iterator, under
//! a `Mutex`: items are panels, samples or channel blocks — microseconds
//! of work at least — so the lock is noise, and uneven items (a ragged
//! last panel) balance themselves. There is no persistent pool: a call
//! with more than one worker spawns its threads and joins them before it
//! returns, which is why the callers only fan out above a floor
//! ([`super::FAN_OUT_MIN_MACS`], `conv.rs`'s `PAR_MIN_ELEMS`). With one
//! worker the loop runs inline, with no spawn, no lock and no allocation.
//!
//! Which worker runs which item never changes what an item computes, so a
//! caller whose items write disjoint outputs gets the same bits at every
//! worker count.

use std::sync::Mutex;

/// Runs `work` on every item of `items`, on up to `workers` threads (the
/// caller's included, never more than `items` can yield). A panic in any
/// item reaches the caller once every worker has stopped.
pub fn fan<I>(workers: usize, items: I, work: impl Fn(I::Item) + Sync)
where
    I: Iterator + Send,
{
    fan_with(workers, std::iter::repeat(()), items, |(), item| work(item));
}

/// [`fan`] with a private state per worker, taken from `states`: one per
/// worker, so at most as many workers run as `states` yields. The states
/// are how a worker owns scratch (the NCHW group buffer) without a lock.
///
/// # Panics
///
/// Panics if `states` is empty, or if an item panics.
pub fn fan_with<S, I>(
    workers: usize,
    states: impl IntoIterator<Item = S>,
    items: I,
    work: impl Fn(&mut S, I::Item) + Sync,
) where
    S: Send,
    I: Iterator + Send,
{
    let mut states = states.into_iter();
    let mut own = states.next().expect("fan_with needs a state per worker");
    let workers = workers.min(items.size_hint().1.unwrap_or(usize::MAX));
    if workers <= 1 {
        return items.for_each(|item| work(&mut own, item));
    }
    let items = Mutex::new(items);
    let claim = |state: &mut S| loop {
        // The guard is a temporary of the `let`: released before `work`,
        // so only a panicking `next` can poison it.
        let next = items.lock().expect("an item iterator panicked").next();
        let Some(item) = next else { return };
        work(state, item);
    };
    std::thread::scope(|s| {
        for mut state in states.take(workers - 1) {
            s.spawn(move || claim(&mut state));
        }
        claim(&mut own);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // Slice chunks as items, and two items on two workers, are tested in
    // the crate root (`lib.rs`).

    #[test]
    fn more_workers_than_items_and_no_items() {
        let ran = AtomicUsize::new(0);
        fan(8, 0..3, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        fan(4, 0..0, |_: usize| panic!("no item to run"));
        fan(1, std::iter::empty::<usize>(), |_| panic!("no item to run"));
        // An iterator without an upper bound still gets every worker.
        let ran = AtomicUsize::new(0);
        fan(3, (0..).take_while(|&i| i < 10), |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.into_inner(), 10);
    }

    #[test]
    fn each_worker_keeps_its_own_state() {
        for workers in [1, 2, 3, 5] {
            let mut scratch = vec![0usize; 5];
            let total = AtomicUsize::new(0);
            fan_with(workers, scratch.chunks_mut(1), 0..40, |state, item| {
                state[0] += 1;
                total.fetch_add(item, Ordering::Relaxed);
            });
            assert_eq!(total.into_inner(), 40 * 39 / 2);
            // Every item ran on exactly one state, and no state past the
            // workers was handed out.
            assert_eq!(scratch.iter().sum::<usize>(), 40);
            assert!(scratch[workers..].iter().all(|&n| n == 0), "{scratch:?}");
        }
    }

    #[test]
    fn a_panic_in_one_item_reaches_the_caller() {
        for workers in [1, 3] {
            let ran = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(|| {
                fan(workers, 0..12, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert_ne!(i, 5, "item 5 fails");
                });
            });
            assert!(caught.is_err(), "{workers} workers");
            assert!(ran.into_inner() >= 6);
        }
    }
}
