//! The one worker pool: the pass chain fans procedures across it, and
//! `titand`'s two transports fan request lines and connections.

use std::sync::Mutex;
use std::thread;

/// A lane count: `requested`, with `0` resolved to the machine's available
/// parallelism.
pub(crate) fn lanes(requested: usize) -> usize {
    match requested {
        0 => thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Runs `work(item, lane)` once per item of `items` on `lanes` lanes. The
/// calling thread is lane 0, lanes `1..lanes` are scoped threads joined
/// before this returns, and a lane pulls its next item only once it is
/// free, so the source never runs more than `lanes` items ahead of the
/// finished ones.
pub(crate) fn fan_out<T>(
    lanes: usize,
    items: impl Iterator<Item = T> + Send,
    work: impl Fn(T, usize) + Sync,
) {
    let items = Mutex::new(items.fuse());
    let lane = |k| loop {
        // take the lock only to pull; work outside it
        let item = items.lock().expect("no lane panics while pulling").next();
        let Some(item) = item else { break };
        work(item, k);
    };
    thread::scope(|s| {
        for k in 1..lanes {
            let lane = &lane;
            s.spawn(move || lane(k));
        }
        lane(0);
    });
}

#[cfg(test)]
mod tests {
    use super::fan_out;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn every_item_is_handled_exactly_once() {
        for lanes in [1, 2, 5] {
            let seen: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
            fan_out(lanes, 0..seen.len(), |i, _| {
                seen[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(
                seen.iter().all(|n| n.load(Ordering::SeqCst) == 1),
                "{lanes} lanes"
            );
        }
    }

    #[test]
    fn lane_zero_is_the_calling_thread() {
        let caller = thread::current().id();
        for lanes in [1, 3] {
            // the first `lanes` items meet at the barrier, so each lane,
            // lane 0 among them, holds one of them
            let first = Barrier::new(lanes);
            let ran = Mutex::new(Vec::new());
            fan_out(lanes, 0..30, |i, lane| {
                if i < lanes {
                    first.wait();
                }
                ran.lock().unwrap().push((lane, thread::current().id()));
            });
            let ran = ran.into_inner().unwrap();
            assert_eq!(ran.len(), 30);
            assert!(
                ran.iter().any(|&(lane, _)| lane == 0),
                "lane 0 took no item"
            );
            for (lane, id) in ran {
                assert!(lane < lanes);
                assert_eq!(lane == 0, id == caller, "lane {lane} of {lanes}");
            }
        }
    }

    /// The bound the stdio server relies on: a slow handler holds the
    /// source back, however fast it could deliver.
    #[test]
    fn the_source_runs_at_most_one_item_per_lane_ahead() {
        for lanes in [1, 3] {
            let finished = AtomicUsize::new(0);
            let (mut pulled, mut ahead) = (0, 0);
            let items = std::iter::from_fn(|| {
                pulled += 1;
                ahead = usize::max(ahead, pulled - finished.load(Ordering::SeqCst));
                (pulled <= 40).then_some(pulled)
            });
            fan_out(lanes, items, |_, _| {
                thread::sleep(Duration::from_millis(2));
                finished.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(finished.into_inner(), 40);
            assert!(
                ahead <= lanes,
                "{ahead} items pulled ahead of {lanes} lanes"
            );
        }
    }
}
