//! The workspace's one deterministic fan-out (DESIGN.md §9).
//!
//! The simulators' per-batch *gather* runs on [`scoped`]/[`Dispatch`];
//! every one-shot map (scenario batches, the `mmx_bench::par` sweeps)
//! on [`run_indexed`]. Workers are scoped threads that live for one
//! call, and each batch is one [`Dispatch::run`]:
//!
//! * tasks carry their batch slot onto one `Mutex<VecDeque>` queue and
//!   results land **by slot**, so `out[i]` is task `i`'s result
//!   whichever thread ran it — bit-identical at any thread count, and
//!   `threads <= 1` runs inline with no queue at all;
//! * idle workers park on a `Condvar`, which releases the lock, so the
//!   main thread can always steal from the queue and only waits on a
//!   result once the queue is empty;
//! * a task's panic reaches the caller with its own payload: workers
//!   catch it and send it back in place of the result, and the queue
//!   closes when the caller's body returns or unwinds, so no worker is
//!   left parked.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Resolves a thread-count request: `0` means auto — the `MMX_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// machine's available parallelism. This is the workspace's only
/// reading of `MMX_THREADS`.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::env::var("MMX_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `0..n` on `threads` threads (at most `n`; `<= 1` runs
/// inline), returning results in index order: `out[i] == f(i)` at any
/// thread count, as long as `f` derives everything it needs from `i`.
pub fn run_indexed<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    scoped(threads.min(n), f, |disp| {
        let mut out = Vec::with_capacity(n);
        disp.run((0..n).collect(), &mut out);
        out.into_iter()
            .map(|r| r.expect("every slot ran"))
            .collect()
    })
}

/// The task queue the workers and the main thread share.
struct Queue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

struct QueueState<T> {
    tasks: VecDeque<(usize, T)>,
    closed: bool,
}

impl<T> Queue<T> {
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        // No task runs under the lock, so it is never poisoned in
        // practice; recover rather than cascade if it ever is.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A task for a worker, parking while the queue is empty; `None`
    /// once the pool is shut.
    fn wait_pop(&self) -> Option<(usize, T)> {
        let mut st = self.lock();
        loop {
            if st.closed {
                return None;
            }
            if let Some(task) = st.tasks.pop_front() {
                return Some(task);
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// Handle the caller uses to fan one batch out; see [`scoped`].
pub struct Dispatch<'a, T, R> {
    work: &'a (dyn Fn(T) -> R + Sync),
    /// `None` runs every task inline, in slot order.
    pool: Option<Pool<'a, T, R>>,
}

/// The pooled half of a [`Dispatch`]; a result's `Err` is the task's
/// panic payload.
struct Pool<'a, T, R> {
    queue: &'a Queue<T>,
    workers: usize,
    results: Receiver<(usize, thread::Result<R>)>,
}

impl<T, R> Drop for Pool<'_, T, R> {
    /// Shuts the queue when the caller's body returns or unwinds, so
    /// every worker leaves its wait and the scope can join them.
    fn drop(&mut self) {
        self.queue.close();
    }
}

impl<T: Send, R: Send> Dispatch<'_, T, R> {
    /// Runs one batch: every task through the work function, results
    /// into `out` by slot (`out[i]` holds task `i`'s result). The slot
    /// assignment — not completion order — defines the output order, so
    /// `out` is bit-identical at any thread count. A panicking task
    /// panics here, with its own payload.
    pub fn run(&mut self, tasks: Vec<T>, out: &mut Vec<Option<R>>) {
        out.clear();
        let work = self.work;
        let Some(pool) = &self.pool else {
            out.extend(tasks.into_iter().map(|t| Some(work(t))));
            return;
        };
        let total = tasks.len();
        out.resize_with(total, || None);
        pool.queue
            .lock()
            .tasks
            .extend(tasks.into_iter().enumerate());
        for _ in 0..total.min(pool.workers) {
            pool.queue.ready.notify_one();
        }
        for _ in 0..total {
            // Prefer stealing a pending task over waiting on a result:
            // the main thread is a full-rank worker.
            let stolen = pool.queue.lock().tasks.pop_front();
            let (slot, r) = match stolen {
                Some((slot, t)) => (slot, work(t)),
                // Queue empty: every remaining slot is being computed
                // by a worker, which always sends back a result or the
                // task's panic.
                None => match pool.results.recv().expect("pool workers are alive") {
                    (slot, Ok(r)) => (slot, r),
                    (_, Err(payload)) => panic::resume_unwind(payload),
                },
            };
            out[slot] = Some(r);
        }
    }
}

/// Runs `body` with a [`Dispatch`] backed by `threads.max(1) - 1`
/// workers (plus the work-stealing main thread) executing `work`.
///
/// The workers live exactly as long as `body`: they are scoped threads,
/// so `work` may borrow from the caller's stack (the simulator's
/// immutable per-run plan). `threads <= 1` spawns nothing and
/// dispatches inline.
pub fn scoped<T, R, W, B, O>(threads: usize, work: W, body: B) -> O
where
    T: Send,
    R: Send,
    W: Fn(T) -> R + Sync,
    B: FnOnce(&mut Dispatch<'_, T, R>) -> O,
{
    if threads <= 1 {
        return body(&mut Dispatch {
            work: &work,
            pool: None,
        });
    }
    let queue = Queue {
        state: Mutex::new(QueueState {
            tasks: VecDeque::new(),
            closed: false,
        }),
        ready: Condvar::new(),
    };
    let (tx, results) = mpsc::channel();
    thread::scope(|s| {
        for _ in 1..threads {
            let (tx, queue, work) = (tx.clone(), &queue, &work);
            s.spawn(move || {
                while let Some((slot, task)) = queue.wait_pop() {
                    let r = panic::catch_unwind(AssertUnwindSafe(|| work(task)));
                    if tx.send((slot, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        body(&mut Dispatch {
            work: &work,
            pool: Some(Pool {
                queue: &queue,
                workers: threads - 1,
                results,
            }),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_batch(threads: usize, n: usize) -> Vec<u64> {
        scoped(
            threads,
            |x: u64| x * x,
            |disp| {
                let mut out = Vec::new();
                disp.run((0..n as u64).collect(), &mut out);
                out.into_iter().map(Option::unwrap).collect()
            },
        )
    }

    #[test]
    fn results_land_in_slot_order() {
        let want: Vec<u64> = (0..100u64).map(|x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(square_batch(threads, 100), want, "threads={threads}");
        }
        // The one-shot map, including more threads than tasks.
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
        for threads in [0, 1, 2, 3, 8] {
            for n in [0, 1, 2, 7, 100] {
                let want: Vec<u64> = (0..n).map(f).collect();
                assert_eq!(run_indexed(threads, n, f), want, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;
        for threads in [2, 4] {
            // Run the pool on a helper thread so a hang fails the test
            // instead of stalling it.
            let (done_tx, done_rx) = mpsc::channel();
            thread::spawn(move || {
                let caller = thread::current().id();
                let worker_took = AtomicBool::new(false);
                let work = |x: u64| {
                    if thread::current().id() != caller {
                        worker_took.store(true, Ordering::SeqCst);
                        panic!("task {x} failed on a worker");
                    }
                    // Hold the main thread until a worker has a task.
                    while !worker_took.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    x
                };
                let outcome = panic::catch_unwind(|| {
                    scoped(threads, work, |disp| {
                        disp.run((0..64).collect(), &mut Vec::new())
                    })
                });
                let msg = outcome.err().and_then(|p| p.downcast::<String>().ok());
                let _ = done_tx.send(msg);
            });
            let msg = done_rx
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("threads={threads}: pool hung on a worker panic"))
                .unwrap_or_else(|| panic!("threads={threads}: panic was swallowed"));
            assert!(
                msg.ends_with("failed on a worker"),
                "threads={threads}: {msg}"
            );
        }
    }

    #[test]
    fn many_small_batches_reuse_the_pool() {
        let got = scoped(
            4,
            |x: u64| x + 1,
            |disp| {
                let mut total = 0u64;
                let mut out = Vec::new();
                for batch in 0..50u64 {
                    disp.run((0..batch % 7).collect(), &mut out);
                    total += out.iter().map(|r| r.unwrap()).sum::<u64>();
                }
                total
            },
        );
        let want: u64 = (0..50u64)
            .map(|b| (0..b % 7).map(|x| x + 1).sum::<u64>())
            .sum();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_batches_are_fine() {
        let out = scoped(
            3,
            |x: u64| x,
            |disp| {
                let mut out = Vec::new();
                disp.run(Vec::new(), &mut out);
                out.len()
            },
        );
        assert_eq!(out, 0);
    }

    #[test]
    fn zero_threads_means_inline() {
        assert_eq!(square_batch(0, 10), square_batch(1, 10));
    }

    #[test]
    fn resolve_positive_request_verbatim() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
