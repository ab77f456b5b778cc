#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
//! # mm-exec — deterministic task-parallel execution engine
//!
//! A work-stealing scatter/gather pool for the workspace's three hot
//! fan-outs (drive-test campaigns, the world crawl, and `mmx all` artifact
//! regeneration). The engine's contract is **determinism**: tasks are
//! submitted with an index, run on however many workers the host offers,
//! and are gathered *in submission order* — so as long as every task is
//! independently seeded (each derives its own `mm-rng` stream from
//! `sub_seed`, no RNG is ever shared), the gathered output is byte-identical
//! to the sequential path regardless of thread count or scheduling.
//!
//! ## Scheduling
//!
//! Tasks are dealt round-robin onto per-worker deques. Each worker pops
//! from the *front* of its own deque and, when empty, steals from the
//! *back* of a victim's — classic work-stealing, which keeps workers busy
//! when task costs are skewed (a dense Chicago drive costs ~6× a Lafayette
//! one). Because every call scatters a fixed task set and joins before
//! returning, workers simply exit when every deque is drained: no condvar,
//! no shutdown protocol, no idle spinning.
//!
//! ## Observability
//!
//! [`Executor::scatter_gather_stats`] returns a [`RunStats`] next to the
//! results: per-task wall-clock (in submission order), per-worker
//! executed/stolen counts, and the maximum queue depth observed. `mmx
//! --timings` prints these and the `exec` bench records them in the
//! `BENCH_*.json` reports. Every run also lifts its stats into the shared
//! `mm-telemetry` registry (section `exec`): task/run counts are
//! `Scope::Sim` (identical for any thread count), steal/depth/time
//! counters are `Scope::Sched`. Tasks execute under
//! [`mm_telemetry::detached`], so spans a task opens root at the same
//! paths whether it runs inline or on a pool worker.
//!
//! ## Sizing
//!
//! [`Executor::from_env`] sizes the pool from the `MM_THREADS` environment
//! variable when set (clamped to ≥ 1), else
//! `std::thread::available_parallelism()`. A pool of one thread runs every
//! task inline on the caller — that *is* the sequential path, not an
//! emulation of it.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Environment variable that overrides the worker count.
pub const THREADS_ENV: &str = "MM_THREADS";

/// Lift one run's stats into the shared telemetry registry.
fn record_run(stats: &RunStats) {
    use mm_telemetry::Scope;
    let reg = mm_telemetry::global();
    reg.counter("exec", "runs").inc();
    reg.counter("exec", "tasks_executed")
        .add(stats.tasks() as u64);
    reg.counter_scoped("exec", "tasks_stolen", Scope::Sched)
        .add(stats.steals());
    reg.counter_scoped("exec", "busy_ns", Scope::Sched)
        .add(stats.busy_ns());
    reg.counter_scoped("exec", "wall_ns", Scope::Sched)
        .add(stats.wall_ns);
    reg.counter_scoped("exec", "max_queue_depth", Scope::Sched)
        .record_max(stats.max_queue_depth as u64);
    // Per-run distributions (Sched-scope: they describe the host
    // scheduler, never the simulation): how much stealing a run needed and
    // how deep the worker deques got.
    reg.histogram_scoped("exec", "steals_per_run", Scope::Sched, &STEAL_BOUNDS)
        .record(stats.steals());
    reg.histogram_scoped("exec", "queue_depth_per_run", Scope::Sched, &DEPTH_BOUNDS)
        .record(stats.max_queue_depth as u64);
}

/// Bucket bounds for the per-run steal-count histogram.
const STEAL_BOUNDS: [u64; 7] = [0, 1, 4, 16, 64, 256, 1024];
/// Bucket bounds for the per-run deque-depth histogram.
const DEPTH_BOUNDS: [u64; 7] = [1, 4, 16, 64, 256, 1024, 4096];

/// Per-worker counters for one scatter/gather run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker executed (including stolen ones).
    pub executed: u64,
    /// Tasks this worker stole from another worker's deque.
    pub stolen: u64,
}

/// Observability record for one scatter/gather run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Worker threads the run used.
    pub threads: usize,
    /// Per-task wall-clock, nanoseconds, in *submission* order.
    pub task_ns: Vec<u64>,
    /// Per-worker execution/steal counters.
    pub workers: Vec<WorkerStats>,
    /// Maximum deque depth observed by any worker at pop time.
    pub max_queue_depth: usize,
    /// Wall-clock of the whole run, nanoseconds.
    pub wall_ns: u64,
}

impl RunStats {
    /// Number of tasks the run executed.
    pub fn tasks(&self) -> usize {
        self.task_ns.len()
    }

    /// Total steals across all workers.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Sum of per-task wall-clocks — the run's sequential-equivalent cost.
    pub fn busy_ns(&self) -> u64 {
        self.task_ns.iter().sum()
    }

    /// `busy_ns / wall_ns`: effective parallel speedup of the run.
    pub fn speedup(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        self.busy_ns() as f64 / self.wall_ns as f64
    }

    /// Merge another run's stats in (used when one logical operation issues
    /// several scatter phases, e.g. build-networks-then-drive).
    pub fn merge(&mut self, other: &RunStats) {
        self.threads = self.threads.max(other.threads);
        self.task_ns.extend_from_slice(&other.task_ns);
        if self.workers.len() < other.workers.len() {
            self.workers
                .resize(other.workers.len(), WorkerStats::default());
        }
        for (into, from) in self.workers.iter_mut().zip(&other.workers) {
            into.executed += from.executed;
            into.stolen += from.stolen;
        }
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.wall_ns += other.wall_ns;
    }
}

/// A fixed-width thread-pool handle. Cheap to copy; each
/// [`scatter_gather`](Executor::scatter_gather) call spawns its scoped
/// workers, so the handle holds no OS resources between calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

impl Executor {
    /// A pool of exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// Size from `MM_THREADS` when set, else `available_parallelism()`.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|n| *n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Executor::new(threads)
    }

    /// A single-threaded pool: the reference sequential path.
    pub fn sequential() -> Self {
        Executor::new(1)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Scatter `items` across the pool, apply `f(index, item)` to each, and
    /// gather the results in submission order.
    ///
    /// `f` must be deterministic in `(index, item)` alone for the
    /// determinism contract to hold — derive any randomness from a
    /// per-task `sub_seed`, never from shared state.
    pub fn scatter_gather<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        self.scatter_gather_stats(items, f).0
    }

    /// Like [`scatter_gather`](Executor::scatter_gather), also returning
    /// the run's [`RunStats`].
    pub fn scatter_gather_stats<I, T, F>(&self, items: Vec<I>, f: F) -> (Vec<T>, RunStats)
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let n = items.len();
        let started = Instant::now();
        if self.threads == 1 || n <= 1 {
            // The sequential path proper: same closure, same order, no pool.
            let mut out = Vec::with_capacity(n);
            let mut task_ns = Vec::with_capacity(n);
            for (i, item) in items.into_iter().enumerate() {
                let t0 = Instant::now();
                out.push(mm_telemetry::detached(|| f(i, item)));
                task_ns.push(t0.elapsed().as_nanos() as u64);
            }
            let stats = RunStats {
                threads: 1,
                workers: vec![WorkerStats {
                    executed: n as u64,
                    stolen: 0,
                }],
                max_queue_depth: n,
                task_ns,
                wall_ns: started.elapsed().as_nanos() as u64,
            };
            record_run(&stats);
            return (out, stats);
        }

        let workers = self.threads.min(n);
        // Deal tasks round-robin so every deque sees a slice of the whole
        // index range (consecutive indices often share cost structure).
        let mut deques: Vec<VecDeque<(usize, I)>> = (0..workers)
            .map(|_| VecDeque::with_capacity(n / workers + 1))
            .collect();
        for (i, item) in items.into_iter().enumerate() {
            deques[i % workers].push_back((i, item));
        }
        let queues: Vec<Mutex<VecDeque<(usize, I)>>> = deques.into_iter().map(Mutex::new).collect();

        let mut slots: Vec<Option<(T, u64)>> = (0..n).map(|_| None).collect();
        let mut worker_stats = vec![WorkerStats::default(); workers];
        let mut max_depth = 0usize;

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|wid| {
                    let queues = &queues;
                    let f = &f;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, T, u64)> = Vec::new();
                        let mut stats = WorkerStats::default();
                        let mut depth_seen = 0usize;
                        loop {
                            // Own deque first, LIFO-front (submission order
                            // within the worker's share).
                            let popped = {
                                #[expect(
                                    clippy::expect_used,
                                    reason = "a poisoned queue mutex means a worker already panicked; propagate"
                                )]
                                let mut q = queues[wid].lock().expect("queue poisoned");
                                depth_seen = depth_seen.max(q.len());
                                q.pop_front()
                            };
                            let (task, was_steal) = match popped {
                                Some(t) => (t, false),
                                None => {
                                    // Steal from the back of the first
                                    // non-empty victim, scanning ring-wise.
                                    let mut found = None;
                                    for off in 1..workers {
                                        let vid = (wid + off) % workers;
                                        #[expect(
                                            clippy::expect_used,
                                            reason = "a poisoned queue mutex means a worker already panicked; propagate"
                                        )]
                                        let mut q =
                                            queues[vid].lock().expect("queue poisoned");
                                        if let Some(t) = q.pop_back() {
                                            found = Some(t);
                                            break;
                                        }
                                    }
                                    match found {
                                        Some(t) => (t, true),
                                        None => break,
                                    }
                                }
                            };
                            if was_steal {
                                stats.stolen += 1;
                            }
                            let (index, item) = task;
                            let t0 = Instant::now();
                            let result = mm_telemetry::detached(|| f(index, item));
                            local.push((index, result, t0.elapsed().as_nanos() as u64));
                            stats.executed += 1;
                        }
                        (local, stats, depth_seen)
                    })
                })
                .collect();
            for (wid, handle) in handles.into_iter().enumerate() {
                let (local, stats, depth_seen) = match handle.join() {
                    Ok(r) => r,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
                worker_stats[wid] = stats;
                max_depth = max_depth.max(depth_seen);
                for (index, result, ns) in local {
                    slots[index] = Some((result, ns));
                }
            }
        });

        let mut out = Vec::with_capacity(n);
        let mut task_ns = Vec::with_capacity(n);
        for slot in slots {
            #[expect(
                clippy::expect_used,
                reason = "scatter assigns every index to exactly one worker and join propagates worker panics"
            )]
            let (result, ns) = slot.expect("every submitted task produced a result");
            out.push(result);
            task_ns.push(ns);
        }
        let stats = RunStats {
            threads: workers,
            task_ns,
            workers: worker_stats,
            max_queue_depth: max_depth,
            wall_ns: started.elapsed().as_nanos() as u64,
        };
        record_run(&stats);
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_is_in_submission_order() {
        for threads in [1, 2, 3, 8] {
            let exec = Executor::new(threads);
            let out = exec.scatter_gather((0..257u32).collect(), |i, x| {
                assert_eq!(i as u32, x);
                x * 3 + 1
            });
            assert_eq!(out, (0..257u32).map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        let reference = Executor::sequential().scatter_gather((0..100u64).collect(), |_, x| {
            x.wrapping_mul(0x9E3779B97F4A7C15)
        });
        for threads in [2, 4, 8, 16] {
            let out = Executor::new(threads).scatter_gather((0..100u64).collect(), |_, x| {
                x.wrapping_mul(0x9E3779B97F4A7C15)
            });
            assert_eq!(out, reference, "{threads} threads");
        }
    }

    #[test]
    fn skewed_tasks_complete_and_stats_add_up() {
        let exec = Executor::new(4);
        let (out, stats) = exec.scatter_gather_stats((0..40u64).collect(), |i, x| {
            // Skew: every 8th task is much heavier.
            let spins = if i % 8 == 0 { 200_000 } else { 100 };
            let mut acc = x;
            for _ in 0..spins {
                acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            acc
        });
        assert_eq!(out.len(), 40);
        assert_eq!(stats.tasks(), 40);
        let executed: u64 = stats.workers.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 40, "every task executed exactly once");
        assert!(stats.max_queue_depth >= 1);
        assert_eq!(stats.task_ns.len(), 40);
        assert!(stats.busy_ns() > 0);
    }

    #[test]
    fn borrows_non_static_data() {
        let data: Vec<String> = (0..10).map(|i| format!("item-{i}")).collect();
        let exec = Executor::new(3);
        let lens = exec.scatter_gather((0..data.len()).collect(), |_, i| data[i].len());
        assert_eq!(lens[9], "item-9".len());
    }

    #[test]
    fn empty_and_singleton_scatter() {
        let exec = Executor::new(8);
        let empty: Vec<u32> = exec.scatter_gather(Vec::<u32>::new(), |_, x| x);
        assert!(empty.is_empty());
        let one = exec.scatter_gather(vec![41u32], |_, x| x + 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn sequential_pool_reports_single_worker() {
        let (_, stats) = Executor::sequential().scatter_gather_stats(vec![1, 2, 3], |_, x| x);
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.workers.len(), 1);
        assert_eq!(stats.workers[0].executed, 3);
        assert_eq!(stats.steals(), 0);
    }

    #[test]
    fn new_clamps_to_at_least_one_thread() {
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn stats_merge_accumulates() {
        let (_, mut a) = Executor::new(2).scatter_gather_stats(vec![1u32; 8], |_, x| x);
        let (_, b) = Executor::new(2).scatter_gather_stats(vec![1u32; 8], |_, x| x);
        let wall = a.wall_ns;
        a.merge(&b);
        assert_eq!(a.tasks(), 16);
        assert_eq!(a.wall_ns, wall + b.wall_ns);
        let executed: u64 = a.workers.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 16);
    }

    #[test]
    fn panics_propagate() {
        let exec = Executor::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.scatter_gather((0..8).collect::<Vec<u32>>(), |_, x| {
                if x == 5 {
                    panic!("task 5 failed");
                }
                x
            })
        }));
        assert!(result.is_err());
    }
}
