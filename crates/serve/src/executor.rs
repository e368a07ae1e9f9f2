//! A small fixed-size thread pool (std-only).
//!
//! Jobs are boxed closures pushed down one mpsc channel guarded by a
//! mutex on the receiving side — the classic "channel of jobs" pool.
//! Workers shut down when the pool is dropped (the channel closes and
//! each worker's `recv` errors out). Results travel back on per-job
//! channels owned by the callers, so the pool itself is fire-and-forget.
//!
//! [`ThreadPool::run_batch`] is the multi-document executor: a
//! work-stealing batch discipline (per-drainer deques with
//! back-stealing) on the *resident* workers, bounded by the pool size
//! across **all** concurrent callers — K clients issuing batches at
//! once still run at most `threads()` items in flight.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counters from one [`ThreadPool::run_batch`] run, for tests and the
/// server's batch statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StealStats {
    /// Items processed.
    pub items: usize,
    /// Drainer jobs the batch ran on.
    pub workers: usize,
    /// Times an idle drainer stole work from another drainer's queue.
    pub steals: u64,
}

/// Fixed worker pool executing boxed jobs in submission order.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    in_flight: Arc<AtomicU64>,
}

/// Decrements the in-flight gauge when a job ends — by return *or*
/// panic; a Drop guard is the only way the gauge can't leak when a
/// worker unwinds mid-job.
struct InFlight(Arc<AtomicU64>);

impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed); // relaxed: counter decrement; no data published
    }
}

impl ThreadPool {
    /// Spawns `threads` workers (minimum 1).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("xust-serve-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let rx = receiver.lock().expect("pool receiver poisoned");
                            rx.recv()
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // pool dropped
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
            in_flight: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs enqueued or executing right now — the queue-depth gauge
    /// `METRICS` exports. Counted from enqueue to completion, so it
    /// covers both waiting and running work.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// Enqueues a job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.in_flight.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        let guard = InFlight(Arc::clone(&self.in_flight));
        self.sender
            .as_ref()
            .expect("pool is alive while not dropped")
            .send(Box::new(move || {
                let _guard = guard;
                job();
            }))
            .expect("workers alive while sender exists");
    }

    /// Enqueues a job returning a value; the receiver yields it when the
    /// job finishes. If the job panics the receiver's `recv` errors.
    pub fn submit<T: Send + 'static>(
        &self,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> Receiver<T> {
        let (tx, rx) = channel();
        self.execute(move || {
            let _ = tx.send(job());
        });
        rx
    }

    /// Runs a whole batch on the resident workers with work-stealing:
    /// up to `threads()` drainer jobs share per-drainer index deques
    /// (seeded round-robin) and steal from the back of a sibling's
    /// queue when their own runs dry. Results come back in item order;
    /// a slot is `None` only if the job processing it panicked.
    ///
    /// Because the drainers are ordinary pool jobs, total in-flight
    /// work across every concurrent `run_batch` caller stays bounded by
    /// the pool size — no per-batch thread spawning.
    pub fn run_batch<T, R, F>(&self, items: Vec<T>, f: F) -> (Vec<Option<R>>, StealStats)
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return (
                Vec::new(),
                StealStats {
                    items: 0,
                    workers: 0,
                    steals: 0,
                },
            );
        }
        let workers = self.threads().min(n);
        let slots: Arc<Vec<Mutex<Option<T>>>> =
            Arc::new(items.into_iter().map(|t| Mutex::new(Some(t))).collect());
        let queues: Arc<Vec<Mutex<VecDeque<usize>>>> = Arc::new(
            (0..workers)
                .map(|w| Mutex::new((w..n).step_by(workers).collect()))
                .collect(),
        );
        let steals = Arc::new(AtomicU64::new(0));
        let f = Arc::new(f);
        let receivers: Vec<Receiver<Vec<(usize, R)>>> = (0..workers)
            .map(|w| {
                let slots = Arc::clone(&slots);
                let queues = Arc::clone(&queues);
                let steals = Arc::clone(&steals);
                let f = Arc::clone(&f);
                self.submit(move || {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let mut next = queues[w].lock().expect("batch queue poisoned").pop_front();
                        if next.is_none() {
                            for v in 1..queues.len() {
                                let victim = (w + v) % queues.len();
                                if let Some(i) = queues[victim]
                                    .lock() // lock-order: line 158's guard is a statement temporary, already dropped
                                    .expect("batch queue poisoned")
                                    .pop_back()
                                {
                                    steals.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
                                    next = Some(i);
                                    break;
                                }
                            }
                        }
                        let Some(i) = next else { break };
                        // lock-order: queue guard above is a statement temporary, already dropped
                        if let Some(item) = slots[i].lock().expect("batch slot poisoned").take() {
                            done.push((i, f(i, item)));
                        }
                    }
                    done
                })
            })
            .collect();
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for rx in receivers {
            // A drainer that panicked loses its in-flight item (and any
            // queue remainder no live sibling stole) — those slots stay
            // `None` rather than poisoning the whole batch.
            if let Ok(pairs) = rx.recv() {
                for (i, r) in pairs {
                    out[i] = Some(r);
                }
            }
        }
        (
            out,
            StealStats {
                items: n,
                workers,
                steals: steals.load(Ordering::Relaxed), // relaxed: point-in-time read; staleness is fine
            },
        )
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        drop(self.sender.take()); // close the channel; workers drain and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_jobs_on_workers() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let receivers: Vec<_> = (0..64)
            .map(|i| {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
                    i * 2
                })
            })
            .collect();
        let results: Vec<usize> = receivers.into_iter().map(|r| r.recv().unwrap()).collect();
        assert_eq!(counter.load(Ordering::Relaxed), 64); // relaxed: threads joined; writes visible
        assert_eq!(results[5], 10);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(2);
        let rx = pool.submit(|| 7);
        drop(pool); // must not hang
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn run_batch_orders_results_and_steals_under_skew() {
        let pool = ThreadPool::new(4);
        // Indices 0, 4, 8, … (drainer 0's seed queue) are slow; the
        // other drainers drain instantly and must steal.
        let items: Vec<usize> = (0..64).collect();
        let (out, stats) = pool.run_batch(items, |i, v| {
            assert_eq!(i, v);
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            v * 2
        });
        assert_eq!(out.len(), 64);
        assert!(out.iter().enumerate().all(|(i, r)| *r == Some(i * 2)));
        assert_eq!(stats.items, 64);
        assert_eq!(stats.workers, 4);
        assert!(stats.steals > 0, "expected stealing: {stats:?}");
        // The pool is still healthy for ordinary jobs afterwards.
        assert_eq!(pool.submit(|| 5).recv().unwrap(), 5);
    }

    #[test]
    fn run_batch_bounds_concurrency_to_pool_size() {
        let pool = ThreadPool::new(2);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (out, _) = pool.run_batch((0..32).collect::<Vec<usize>>(), {
            let live = Arc::clone(&live);
            let peak = Arc::clone(&peak);
            move |_, v| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                live.fetch_sub(1, Ordering::SeqCst);
                v
            }
        });
        assert_eq!(out.len(), 32);
        assert!(out.iter().all(|r| r.is_some()));
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "batch exceeded pool bound: {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn run_batch_empty_and_single() {
        let pool = ThreadPool::new(3);
        let (out, stats) = pool.run_batch(Vec::<u8>::new(), |_, v| v);
        assert!(out.is_empty());
        assert_eq!(stats.workers, 0);
        let (out, stats) = pool.run_batch(vec![9], |_, v| v + 1);
        assert_eq!(out, vec![Some(10)]);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn in_flight_gauge_tracks_queue_depth() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.in_flight(), 0);
        let (hold_tx, hold_rx) = channel::<()>();
        let blocker = pool.submit(move || {
            hold_rx.recv().ok();
        });
        let queued = pool.submit(|| 1);
        // One running + one queued (counted from enqueue either way).
        assert_eq!(pool.in_flight(), 2);
        hold_tx.send(()).unwrap();
        blocker.recv().unwrap();
        assert_eq!(queued.recv().unwrap(), 1);
        assert_eq!(pool.in_flight(), 0, "gauge returns to zero");
    }

    #[test]
    fn in_flight_gauge_survives_job_panics() {
        let pool = ThreadPool::new(2);
        // A panicking job must still decrement (Drop guard runs during
        // the worker's unwind).
        let rx = pool.submit(|| panic!("boom"));
        assert!(rx.recv().is_err(), "panicked job drops its channel");
        assert_eq!(pool.submit(|| 2).recv().unwrap(), 2);
        // The result channel drops mid-unwind, slightly before the
        // guard; give the unwinding worker a beat to finish retiring.
        for _ in 0..1000 {
            if pool.in_flight() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(pool.in_flight(), 0, "panic did not leak the gauge");
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.submit(|| 1).recv().unwrap(), 1);
    }
}
