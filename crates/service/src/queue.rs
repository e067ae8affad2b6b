//! Bounded MPMC queues for the stage graph.
//!
//! Standard-library only (mutex + two condvars); capacity is the
//! backpressure mechanism: a full queue blocks its producer, which
//! propagates upstream until the lossy sample ring starts degrading.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Occupancy histogram for a bounded queue: `counts[d]` is how many pushes
/// left the queue at depth `d` (1 ≤ d ≤ capacity).
#[derive(Debug, Clone, Default)]
pub struct QueueDepth {
    /// Push counts indexed by post-push depth; `counts[0]` is unused.
    pub counts: Vec<u64>,
}

impl QueueDepth {
    fn new(cap: usize) -> Self {
        Self {
            counts: vec![0; cap + 1],
        }
    }

    /// Mean post-push depth (0 when nothing was pushed).
    pub fn mean(&self) -> f64 {
        let (mut n, mut sum) = (0u64, 0u64);
        for (d, &c) in self.counts.iter().enumerate() {
            n += c;
            sum += c * d as u64;
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
}

/// A bounded multi-producer multi-consumer queue with blocking push/pop
/// and an explicit close: after [`Bounded::close`], pushes fail and pops
/// drain the remaining items before reporting exhaustion.
#[derive(Debug)]
pub struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

#[derive(Debug)]
struct Inner<T> {
    q: VecDeque<T>,
    closed: bool,
    depth: QueueDepth,
}

impl<T> Bounded<T> {
    /// A queue holding at most `cap` items (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "Bounded: capacity must be at least 1");
        Self {
            inner: Mutex::new(Inner {
                q: VecDeque::with_capacity(cap),
                closed: false,
                depth: QueueDepth::new(cap),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
        }
    }

    /// Block until there is room, then enqueue and record the occupancy
    /// after the push in [`Self::depth`]; `Err(item)` if the queue was
    /// closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.closed {
                return Err(item);
            }
            if g.q.len() < self.cap {
                g.q.push_back(item);
                let depth = g.q.len();
                g.depth.counts[depth] += 1;
                drop(g);
                self.not_empty.notify_one();
                return Ok(());
            }
            g = self.not_full.wait(g).unwrap();
        }
    }

    /// Block until an item is available; `None` once closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(item) = g.q.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).unwrap();
        }
    }

    /// Close the queue: producers start failing, consumers drain what is
    /// left and then see exhaustion.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// The occupancy histogram of every push so far.
    pub fn depth(&self) -> QueueDepth {
        let g = self.inner.lock().expect("queue lock poisoned");
        g.depth.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity() {
        let q = Bounded::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        // One push left the queue at each depth 1..=4.
        assert_eq!(q.depth().counts, vec![0, 1, 1, 1, 1]);
        assert_eq!(q.depth().mean(), 2.5);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn close_drains_then_exhausts() {
        let q = Bounded::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_queue_blocks_producer_until_a_pop() {
        let q = Arc::new(Bounded::new(1));
        q.push(10u32).unwrap();
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.push(11).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(q.pop(), Some(10));
        h.join().unwrap();
        assert_eq!(q.pop(), Some(11));
    }
}
