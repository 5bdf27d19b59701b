//! Bounded, priority-ordered job queue with backpressure between the
//! compile server's connection threads and its worker pool.
//!
//! The connection threads accept jobs faster than the compiler can run
//! them, so the queue is the pressure point: it holds at most `capacity`
//! jobs, pops the highest priority first (FIFO within a priority level, by
//! admission sequence number), and tells producers apart by *why* a push
//! failed — [`PushError::Full`] is backpressure the client should retry,
//! [`PushError::Closed`] is a draining server that will never accept again.
//! `close()` wakes all consumers; they drain what was accepted and then
//! see `None`, which is what makes graceful shutdown lossless.

use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a push was refused (the job is handed back in both cases).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — backpressure; retry later.
    Full(T),
    /// The queue is closed for new work (server draining).
    Closed(T),
}

struct Entry<T> {
    priority: u8,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then earlier sequence number.
        self.priority.cmp(&other.priority).then(other.seq.cmp(&self.seq))
    }
}

struct State<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    closed: bool,
}

/// The bounded priority queue. All methods are `&self`; share via `Arc`.
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item arrives or the queue closes (consumers wait).
    nonempty: Condvar,
    /// Signalled when an item leaves (producers in `push_timeout` wait).
    nonfull: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// Create a queue holding at most `capacity` jobs (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State { heap: BinaryHeap::new(), next_seq: 0, closed: false }),
            nonempty: Condvar::new(),
            nonfull: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of queued jobs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True once [`Self::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock").closed
    }

    /// Non-blocking push.
    pub fn try_push(&self, item: T, priority: u8) -> Result<(), PushError<T>> {
        let mut s = self.state.lock().expect("queue lock");
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.heap.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        let seq = s.next_seq;
        s.next_seq += 1;
        s.heap.push(Entry { priority, seq, item });
        drop(s);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Push, waiting up to `timeout` for space. A zero timeout degenerates
    /// to [`Self::try_push`].
    pub fn push_timeout(
        &self,
        item: T,
        priority: u8,
        timeout: Duration,
    ) -> Result<(), PushError<T>> {
        let deadline = Instant::now() + timeout;
        let mut s = self.state.lock().expect("queue lock");
        loop {
            if s.closed {
                return Err(PushError::Closed(item));
            }
            if s.heap.len() < self.capacity {
                let seq = s.next_seq;
                s.next_seq += 1;
                s.heap.push(Entry { priority, seq, item });
                drop(s);
                self.nonempty.notify_one();
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(PushError::Full(item));
            }
            let (guard, _) = self.nonfull.wait_timeout(s, deadline - now).expect("queue lock");
            s = guard;
        }
    }

    /// Pop the highest-priority job, blocking while the queue is empty and
    /// open. Returns `None` only when the queue is closed **and** drained —
    /// the worker-pool exit condition.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().expect("queue lock");
        loop {
            if let Some(entry) = s.heap.pop() {
                drop(s);
                self.nonfull.notify_one();
                return Some(entry.item);
            }
            if s.closed {
                return None;
            }
            s = self.nonempty.wait(s).expect("queue lock");
        }
    }

    /// Close the queue: subsequent pushes fail with [`PushError::Closed`],
    /// and consumers drain the remaining jobs before seeing `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.nonempty.notify_all();
        self.nonfull.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pops_by_priority_then_fifo() {
        let q = JobQueue::new(8);
        q.try_push("low-1", 1).unwrap();
        q.try_push("high-1", 9).unwrap();
        q.try_push("mid", 5).unwrap();
        q.try_push("high-2", 9).unwrap();
        q.close();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec!["high-1", "high-2", "mid", "low-1"]);
    }

    #[test]
    fn full_queue_applies_backpressure() {
        let q = JobQueue::new(2);
        q.try_push(1, 5).unwrap();
        q.try_push(2, 5).unwrap();
        assert_eq!(q.try_push(3, 5), Err(PushError::Full(3)));
        assert_eq!(q.push_timeout(3, 5, Duration::from_millis(10)), Err(PushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3, 5).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn push_timeout_succeeds_when_space_frees_up() {
        let q = Arc::new(JobQueue::new(1));
        q.try_push(1, 5).unwrap();
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.pop()
        });
        assert_eq!(q.push_timeout(2, 5, Duration::from_secs(5)), Ok(()));
        assert_eq!(t.join().unwrap(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_drains_then_stops() {
        let q = JobQueue::new(4);
        q.try_push(1, 5).unwrap();
        q.try_push(2, 7).unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_push(3, 5), Err(PushError::Closed(3)));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed+empty stays None");
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(JobQueue::<u32>::new(1));
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().unwrap(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_preserve_every_job() {
        let q = Arc::new(JobQueue::new(16));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        let mut v = p * 1000 + i;
                        loop {
                            match q.push_timeout(v, (i % 10) as u8, Duration::from_secs(10)) {
                                Ok(()) => break,
                                Err(PushError::Full(back)) => v = back,
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        let mut expected: Vec<u32> =
            (0..4).flat_map(|p| (0..50).map(move |i| p * 1000 + i)).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }
}
