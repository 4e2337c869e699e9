//! Worker-pool primitives: the poison-tolerant work queue, the
//! quarantine set behind graceful degradation, and the deterministic
//! retry backoff.
//!
//! The runner composes these inside `std::thread::scope`: workers pull
//! [`Attempt`]s from the [`Dispatcher`] and run each one, from pickup to
//! event, under a single unwind guard, so a worker thread never dies
//! mid-campaign; the coordinator pushes retries/degradations back into
//! the queue. Every lock here is acquired through [`lock_unpoisoned`]:
//! the plain data behind these mutexes (queues, sets) is valid at every
//! intermediate state, so the poison flag carries no integrity
//! information we need, and a panic that escapes while a lock is held
//! cannot wedge the queue for everyone else.

use crate::faults;
use crate::job::{Backend, JobSpec};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Lock a mutex, shrugging off poison: a panicking holder may leave the
/// guard behind, but never a torn value (see module docs).
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One scheduled execution of a job: which backend actually runs it
/// (after degradation) and which retry this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attempt {
    /// The job as originally scheduled (its `backend` is the requested one).
    pub job: JobSpec,
    /// The backend this attempt runs on — differs from `job.backend` once
    /// the pair has been quarantined and the job degraded down the chain.
    pub run_on: Backend,
    /// 0 for the first try, incremented per retry on the same backend.
    pub attempt: u32,
}

impl Attempt {
    /// The first attempt of a job on its requested backend.
    pub fn first(job: JobSpec) -> Self {
        let run_on = job.backend;
        Attempt {
            job,
            run_on,
            attempt: 0,
        }
    }
}

/// Poison-tolerant blocking work queue feeding the worker pool.
#[derive(Debug, Default)]
pub struct Dispatcher {
    queue: Mutex<VecDeque<Attempt>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

impl Dispatcher {
    /// A dispatcher pre-loaded with the initial schedule.
    pub fn new(initial: impl IntoIterator<Item = Attempt>) -> Self {
        Dispatcher {
            queue: Mutex::new(initial.into_iter().collect()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Enqueue an attempt (retry or degradation) and wake one worker.
    pub fn push(&self, attempt: Attempt) {
        lock_unpoisoned(&self.queue).push_back(attempt);
        self.ready.notify_one();
    }

    /// Block until an attempt is available or the dispatcher shuts down.
    /// Returns `None` exactly when workers should exit.
    pub fn next(&self) -> Option<Attempt> {
        let mut queue = lock_unpoisoned(&self.queue);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(attempt) = queue.pop_front() {
                return Some(attempt);
            }
            queue = self
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Remove and return everything still queued (used by the coordinator
    /// to account for jobs that can no longer run).
    pub fn drain(&self) -> Vec<Attempt> {
        lock_unpoisoned(&self.queue).drain(..).collect()
    }

    /// Stop the pool: all blocked and future [`Dispatcher::next`] calls
    /// return `None`.
    pub fn shutdown(&self) {
        // set the flag under the queue lock: a worker between its flag
        // check and `wait` holds that lock, so it cannot miss the notify
        let _queue = lock_unpoisoned(&self.queue);
        self.shutdown.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }
}

/// The set of (design, backend) pairs that exhausted their retry budget.
/// Workers route around quarantined pairs by walking the fallback chain.
#[derive(Debug, Default)]
pub struct Quarantine {
    pairs: Mutex<BTreeSet<(String, Backend)>>,
}

impl Quarantine {
    /// Quarantine a pair. Returns `true` if it was newly added.
    pub fn add(&self, design: &str, backend: Backend) -> bool {
        lock_unpoisoned(&self.pairs).insert((design.to_string(), backend))
    }

    /// Whether the pair is quarantined.
    pub fn contains(&self, design: &str, backend: Backend) -> bool {
        lock_unpoisoned(&self.pairs).contains(&(design.to_string(), backend))
    }

    /// The first non-quarantined backend at or below `requested` in the
    /// fallback chain, or `None` if the whole chain is quarantined.
    pub fn resolve(&self, design: &str, requested: Backend) -> Option<Backend> {
        let mut backend = requested;
        loop {
            if !self.contains(design, backend) {
                return Some(backend);
            }
            backend = backend.fallback()?;
        }
    }

    /// All quarantined pairs, in stable order.
    pub fn pairs(&self) -> Vec<(String, Backend)> {
        lock_unpoisoned(&self.pairs).iter().cloned().collect()
    }
}

/// Seed for the retry backoff jitter.
const BACKOFF_SEED: u64 = 0x72746c63;

/// Deterministic backoff before retry `attempt` of `job`: exponential in
/// the attempt number with seeded jitter (no wall-clock randomness), and
/// capped low enough to keep tests fast. Attempt 0 never waits.
pub fn retry_backoff(job: &JobSpec, attempt: u32) -> Duration {
    if attempt == 0 {
        return Duration::ZERO;
    }
    let base = 1u64 << (attempt.min(5) - 1); // 1, 2, 4, 8, 16 ms
    let jitter = faults::mix(BACKOFF_SEED, &job.id(), u64::from(attempt)) % 3;
    Duration::from_millis(base + jitter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcov_sim::SimKind;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn job(design: &str, shard: u64, backend: Backend) -> JobSpec {
        JobSpec {
            design: design.into(),
            shard,
            backend,
        }
    }

    #[test]
    fn dispatcher_survives_a_poisoned_queue() {
        let d = Dispatcher::new([Attempt::first(job("gcd", 0, Backend::Fpga))]);
        // a thread that panics while holding the queue lock poisons it
        assert!(catch_unwind(AssertUnwindSafe(|| {
            let _guard = d.queue.lock();
            panic!("died holding the job-queue lock");
        }))
        .is_err());
        assert!(d.queue.is_poisoned());
        // the mutex is now poisoned, but the queue still works
        let got = d.next().expect("queued attempt survives poison");
        assert_eq!(got.job.design, "gcd");
        d.push(Attempt::first(job("queue", 1, Backend::Fpga)));
        assert_eq!(d.drain().len(), 1);
        d.shutdown();
        assert!(d.next().is_none());
    }

    #[test]
    fn next_blocks_until_push_or_shutdown() {
        let d = std::sync::Arc::new(Dispatcher::new([]));
        let d2 = std::sync::Arc::clone(&d);
        let waiter = std::thread::spawn(move || d2.next());
        std::thread::sleep(Duration::from_millis(5));
        d.push(Attempt::first(job("gcd", 3, Backend::Formal)));
        assert_eq!(waiter.join().unwrap().unwrap().job.shard, 3);
    }

    #[test]
    fn shutdown_wakes_a_worker_racing_into_wait() {
        // the worker's flag check and its `wait` race the shutdown; a
        // lost wakeup leaves it blocked forever (and the campaign's
        // thread scope with it)
        for i in 0..2000 {
            let d = std::sync::Arc::new(Dispatcher::new([]));
            let d2 = std::sync::Arc::clone(&d);
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || tx.send(d2.next().is_none()));
            // sweep the shutdown across the worker's start-up
            for _ in 0..(i * 37) % 20_000 {
                std::hint::spin_loop();
            }
            d.shutdown();
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(10)),
                Ok(true),
                "worker missed the shutdown"
            );
        }
    }

    #[test]
    fn quarantine_walks_the_fallback_chain() {
        let q = Quarantine::default();
        let interp = Backend::Sim(SimKind::Interp);
        let compiled = Backend::Sim(SimKind::Compiled);
        assert_eq!(q.resolve("gcd", Backend::Fpga), Some(Backend::Fpga));
        assert!(q.add("gcd", Backend::Fpga));
        assert!(!q.add("gcd", Backend::Fpga), "already present");
        assert_eq!(q.resolve("gcd", Backend::Fpga), Some(compiled));
        q.add("gcd", compiled);
        assert_eq!(q.resolve("gcd", Backend::Fpga), Some(interp));
        q.add("gcd", interp);
        assert_eq!(q.resolve("gcd", Backend::Fpga), None, "chain exhausted");
        // other designs are unaffected
        assert_eq!(q.resolve("queue", Backend::Fpga), Some(Backend::Fpga));
        assert_eq!(q.pairs().len(), 3);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let j = job("gcd", 0, Backend::Fpga);
        assert_eq!(retry_backoff(&j, 0), Duration::ZERO);
        for attempt in 1..10 {
            let a = retry_backoff(&j, attempt);
            assert_eq!(a, retry_backoff(&j, attempt), "seeded, reproducible");
            assert!(a >= Duration::from_millis(1));
            assert!(a <= Duration::from_millis(16 + 2));
        }
        assert!(retry_backoff(&j, 5) > retry_backoff(&j, 1));
    }
}
