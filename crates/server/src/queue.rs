//! A bounded multi-producer single-consumer queue with batch drain,
//! and the spin-then-park wait both server handoffs use.
//!
//! Built on `Mutex<VecDeque>` plus two condvars rather than channels
//! because the consumer side needs an operation channels don't offer:
//! [`BoundedQueue::recv_batch`] takes *everything queued* (up to a
//! cap) in one lock hold, which is what lets a worker amortize index
//! traversals across a whole burst — the deeper the backlog, the
//! bigger the batch, a natural load-adaptive batching loop.
//!
//! The bound provides backpressure: producers block in `send` when
//! the consumer falls behind, converting overload into client-side
//! queueing delay (visible in open-loop latency) instead of unbounded
//! memory growth.
//!
//! # Spin, then park; notify only parked waiters
//!
//! A request crosses two handoffs: client → worker through this queue,
//! and worker → client through the reply
//! [`Rendezvous`](crate::worker::Rendezvous). Parking on a condvar at
//! either one costs a futex sleep plus a wake-up syscall on the other
//! side, microseconds each, against a sub-microsecond index lookup.
//! So a waiter first polls an atomic mirror of what it waits for, for
//! up to [`SPIN_BUDGET`], and parks only when the budget runs out.
//! The side that hands over checks, under the lock, whether anyone
//! actually parked, and calls `notify_*` only then: std's futex
//! condvar makes a syscall on every notify, waiter or not. Recording
//! the parked flag and testing it under the same mutex is what keeps
//! a wake-up from being lost.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a waiter polls before it parks.
///
/// Chosen on a 2-vCPU Xeon VM with `perfbench` (5 s runs, seeds 1–3,
/// builds alternated) and `server_loadgen --keys 200000 --ops 200000`
/// (3 rounds), p50 as median (min–max):
///
/// | budget | `serve-closed` | `serve-open` | loadgen 4 clients × 4 shards |
/// |---|---|---|---|
/// | no spin (Mutex + Condvar only) | 16.6 µs (15.9–16.9) | 8.6 µs (7.9–8.6) | 24.4 µs, 137k ops/s |
/// | 0 (64 polls, then park) | 16.0 µs (15.7–21.3) | 8.2 µs (8.1–8.5) | — |
/// | 10 µs | 2.07 µs (1.90–2.10) | 3.57 µs (3.41–5.14) | — |
/// | **50 µs** | 2.12 µs (2.04–2.14) | 2.04 µs (1.92–2.12) | 14.0 µs, 257k ops/s |
/// | 200 µs | 2.12 µs (2.11–2.14) | 2.05 µs (1.88–2.08) | 12.9 µs, 254k ops/s |
///
/// 50 µs is the smallest budget that keeps the worker awake across
/// `serve-open`'s Poisson gaps at 100k ops/s (a 10 µs mean gap, so
/// e⁻¹ of the gaps outlast a 10 µs budget but e⁻⁵ a 50 µs one); a
/// longer budget gains nothing and burns more CPU when idle.
pub const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Polls between two looks at the clock. Each round ends in a
/// `yield_now`, so a spinner that shares a core with the thread it
/// waits for hands that thread the core instead of burning its slice.
const SPINS_PER_YIELD: u32 = 64;

/// Poll `ready` until it holds or [`SPIN_BUDGET`] has passed:
/// [`SPINS_PER_YIELD`] polls with a CPU spin hint between them, then a
/// `yield_now`. The caller then takes its lock and checks for real,
/// parking if it must.
pub(crate) fn spin_until(ready: impl Fn() -> bool) {
    let start = Instant::now();
    loop {
        for _ in 0..SPINS_PER_YIELD {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN_BUDGET {
            return;
        }
        std::thread::yield_now();
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// The consumer is asleep on `not_empty`.
    consumer_parked: bool,
    /// Producers asleep on `not_full`.
    producers_parked: usize,
}

/// Error returned by [`BoundedQueue::send`] once the queue is closed.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// A blocking bounded MPSC queue. Producers share `&self`; the single
/// consumer calls [`recv_batch`](BoundedQueue::recv_batch).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    /// Mirrors of `items.len()` and `closed`, stored under the lock and
    /// read without it: the spinning consumer's poll and
    /// [`depth`](BoundedQueue::depth). They publish no data, since the
    /// items only move under the lock; the `Release` stores pair with
    /// the poll's `Acquire` loads so a spinner sees a send no later
    /// than the lock would show it.
    len: AtomicUsize,
    closed: AtomicBool,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue can never accept");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                consumer_parked: false,
                producers_parked: 0,
            }),
            len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            capacity,
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueue one item, blocking while the queue is full. Fails only
    /// after [`close`](BoundedQueue::close).
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.closed {
                return Err(SendError(item));
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                self.len.store(inner.items.len(), Ordering::Release);
                if inner.consumer_parked {
                    self.not_empty.notify_one();
                }
                return Ok(());
            }
            inner.producers_parked += 1;
            inner = self.not_full.wait(inner).expect("queue lock");
            inner.producers_parked -= 1;
        }
    }

    /// Drain up to `max` queued items into `out`, blocking until at
    /// least one is available or the queue is closed *and* empty.
    /// Spins for up to [`SPIN_BUDGET`] before it parks.
    /// Returns the queue depth observed before draining — the
    /// consumer's measure of how far behind it was — or `None` when
    /// closed-and-empty (the consumer's signal to exit).
    pub fn recv_batch(&self, max: usize, out: &mut Vec<T>) -> Option<usize> {
        spin_until(|| {
            self.len.load(Ordering::Acquire) > 0 || self.closed.load(Ordering::Acquire)
        });
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if !inner.items.is_empty() {
                let depth = inner.items.len();
                let take = depth.min(max);
                out.extend(inner.items.drain(..take));
                self.len.store(inner.items.len(), Ordering::Release);
                // Waking every parked producer is deliberate: a batch
                // drain frees many slots at once.
                if inner.producers_parked > 0 {
                    self.not_full.notify_all();
                }
                return Some(depth);
            }
            if inner.closed {
                return None;
            }
            inner.consumer_parked = true;
            inner = self.not_empty.wait(inner).expect("queue lock");
            inner.consumer_parked = false;
        }
    }

    /// Close the queue: future sends fail, and the consumer drains
    /// what remains before `recv_batch` returns `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.closed = true;
        self.closed.store(true, Ordering::Release);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued (racy; for stats only). Reads the atomic
    /// mirror, so monitoring never contends for the queue lock.
    pub fn depth(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::thread;

    /// Run `f` on its own thread and fail if it has not returned within
    /// `limit`: a lost wake-up then fails the test instead of hanging
    /// the suite. A hung thread is left behind; the test binary exits
    /// without it.
    pub(crate) fn within<R: Send + 'static>(
        limit: Duration,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = mpsc::channel();
        let worker = thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(limit) {
            Ok(value) => value,
            // The closure panicked: surface its panic, not a timeout.
            Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("sender dropped without a value or a panic"),
            },
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("no progress within {limit:?}: lost wake-up?")
            }
        }
    }

    const LIMIT: Duration = Duration::from_secs(30);

    /// Spin (yielding) until `cond` holds on the queue's guarded state.
    fn await_state<T>(q: &BoundedQueue<T>, cond: impl Fn(&Inner<T>) -> bool) {
        while !cond(&q.inner.lock().unwrap()) {
            thread::yield_now();
        }
    }

    #[test]
    fn batches_drain_in_fifo_order_and_report_depth() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.send(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.recv_batch(4, &mut out), Some(10));
        assert_eq!(out, vec![0, 1, 2, 3]);
        out.clear();
        assert_eq!(q.recv_batch(100, &mut out), Some(6));
        assert_eq!(out, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn close_drains_the_remainder_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.send(1).unwrap();
        q.close();
        assert_eq!(q.send(2), Err(SendError(2)));
        let mut out = Vec::new();
        assert_eq!(q.recv_batch(8, &mut out), Some(1));
        assert_eq!(out, vec![1]);
        assert_eq!(q.recv_batch(8, &mut out), None);
    }

    #[test]
    fn full_queue_blocks_producers_until_the_consumer_drains() {
        let q = Arc::new(BoundedQueue::new(2));
        q.send(0u64).unwrap();
        q.send(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 2..50u64 {
                    q.send(i).unwrap();
                }
            })
        };
        let mut seen = Vec::new();
        let mut buf = Vec::new();
        while seen.len() < 50 {
            buf.clear();
            let depth = q.recv_batch(8, &mut buf).expect("producer still live");
            assert!(depth <= 2, "bound must hold, saw depth {depth}");
            seen.extend_from_slice(&buf);
        }
        producer.join().unwrap();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn many_producers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(8));
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..500u64 {
                        q.send(t * 10_000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut all = Vec::new();
                let mut buf = Vec::new();
                loop {
                    buf.clear();
                    match q.recv_batch(16, &mut buf) {
                        Some(_) => all.extend_from_slice(&buf),
                        None => break,
                    }
                }
                all
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all = consumer.join().unwrap();
        all.sort_unstable();
        assert_eq!(all.len(), 2000);
        all.dedup();
        assert_eq!(all.len(), 2000, "no duplicates either");
    }

    #[test]
    fn a_consumer_parked_past_the_spin_budget_wakes_on_one_send() {
        within(LIMIT, || {
            let q = Arc::new(BoundedQueue::new(4));
            let consumer = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut out = Vec::new();
                    let depth = q.recv_batch(8, &mut out);
                    (depth, out)
                })
            };
            // Parked means the spin budget already ran out.
            await_state(&q, |inner| inner.consumer_parked);
            q.send(7u32).unwrap();
            assert_eq!(consumer.join().unwrap(), (Some(1), vec![7]));
        });
    }

    #[test]
    fn close_while_the_consumer_spins_returns_none_promptly() {
        within(LIMIT, || {
            for _ in 0..200 {
                let q = Arc::new(BoundedQueue::<u32>::new(4));
                let consumer = {
                    let q = Arc::clone(&q);
                    thread::spawn(move || q.recv_batch(8, &mut Vec::new()))
                };
                // Most rounds close inside the consumer's spin window,
                // the rest after it parked; both must end at once.
                q.close();
                assert_eq!(consumer.join().unwrap(), None);
            }
        });
    }

    #[test]
    fn one_batch_drain_wakes_every_parked_producer() {
        within(LIMIT, || {
            let q = Arc::new(BoundedQueue::new(4));
            for i in 0..4u32 {
                q.send(i).unwrap();
            }
            let producers: Vec<_> = (4..8u32)
                .map(|i| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || q.send(i).unwrap())
                })
                .collect();
            await_state(&q, |inner| inner.producers_parked == 4);
            let mut out = Vec::new();
            assert_eq!(q.recv_batch(16, &mut out), Some(4));
            assert_eq!(out, vec![0, 1, 2, 3]);
            // No further drain: the four freed slots must be enough
            // for every parked producer to finish.
            for p in producers {
                p.join().unwrap();
            }
            assert_eq!(q.depth(), 4);
            out.clear();
            q.recv_batch(16, &mut out);
            out.sort_unstable();
            assert_eq!(out, vec![4, 5, 6, 7]);
        });
    }

    #[test]
    fn depth_reads_the_mirror_without_the_lock() {
        within(LIMIT, || {
            let q = BoundedQueue::new(8);
            q.send(1u8).unwrap();
            q.send(2).unwrap();
            let guard = q.inner.lock().unwrap();
            assert_eq!(q.depth(), 2, "a held queue lock must not block monitoring");
            drop(guard);
            q.recv_batch(1, &mut Vec::new());
            assert_eq!(q.depth(), 1);
        });
    }
}
