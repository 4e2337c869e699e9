//! Worker supervision primitives: the poison-tolerant work queue, the
//! in-flight job table that lets a crashed worker's job be recovered and
//! retried, the quarantine set behind graceful degradation, and the
//! deterministic retry backoff.
//!
//! The runner composes these inside `std::thread::scope`: workers pull
//! [`Attempt`]s from the [`Dispatcher`], a supervisor thread polls worker
//! handles and respawns any that die (bounded by a respawn budget), and
//! the coordinator pushes retries/degradations back into the queue. Every
//! lock here is acquired through [`lock_unpoisoned`], so a worker that
//! panics while holding a mutex (deliberately injectable via the
//! `poison-queue` fault) degrades to a recovered job and a respawned
//! thread instead of a campaign-wide abort: the plain data behind these
//! mutexes (queues, slot tables, sets) is valid at every intermediate
//! state, so the poison flag carries no integrity information we need.

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

    /// Enqueue an attempt (retry, degradation, or recovered in-flight job)
    /// and wake one worker.
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

    /// Whether [`Dispatcher::shutdown`] has been called.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Fault-injection hook: panic *while holding the queue mutex*,
    /// poisoning it. Healthy workers must keep draining the queue anyway —
    /// this is what the poison-tolerance guarantee is tested against.
    ///
    /// # Panics
    ///
    /// Always (that is the fault).
    pub fn poison(&self) -> ! {
        let _guard = self.queue.lock();
        panic!("injected fault: worker died holding the job-queue lock");
    }
}

/// The job each worker slot is currently executing, so the supervisor can
/// recover (and requeue) the job a crashed worker took down with it.
#[derive(Debug)]
pub struct InFlight {
    slots: Mutex<Vec<Option<Attempt>>>,
}

impl InFlight {
    /// A table with one empty slot per worker.
    pub fn new(workers: usize) -> Self {
        InFlight {
            slots: Mutex::new(vec![None; workers]),
        }
    }

    /// Record that `slot` is now executing `attempt`.
    pub fn begin(&self, slot: usize, attempt: &Attempt) {
        lock_unpoisoned(&self.slots)[slot] = Some(attempt.clone());
    }

    /// Record that `slot` finished its attempt (event already sent).
    pub fn finish(&self, slot: usize) {
        lock_unpoisoned(&self.slots)[slot] = None;
    }

    /// Take whatever `slot` was executing when its worker died.
    pub fn take(&self, slot: usize) -> Option<Attempt> {
        lock_unpoisoned(&self.slots)[slot].take()
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

/// How many times the supervisor may replace a dead worker before the
/// pool is declared lost.
#[derive(Debug, Clone, Copy)]
pub struct RespawnBudget {
    left: u32,
    spent: u32,
}

impl RespawnBudget {
    /// A budget of `max` respawns.
    pub fn new(max: u32) -> Self {
        RespawnBudget {
            left: max,
            spent: 0,
        }
    }

    /// Claim one respawn; `false` when the budget is exhausted.
    pub fn claim(&mut self) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        self.spent += 1;
        true
    }

    /// Respawns performed so far.
    pub fn spent(&self) -> u32 {
        self.spent
    }
}

/// Deterministic backoff before retry `attempt` of `job`: exponential in
/// the attempt number with seeded jitter (no wall-clock randomness), and
/// capped low enough to keep tests fast. Attempt 0 never waits.
pub fn retry_backoff(seed: u64, job: &JobSpec, attempt: u32) -> Duration {
    if attempt == 0 {
        return Duration::ZERO;
    }
    let base = 1u64 << (attempt.min(5) - 1); // 1, 2, 4, 8, 16 ms
    let jitter = faults::mix(seed, &job.id(), u64::from(attempt)) % 3;
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
        assert!(catch_unwind(AssertUnwindSafe(|| d.poison())).is_err());
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
    fn in_flight_recovers_the_crashed_job() {
        let table = InFlight::new(2);
        let a = Attempt::first(job("serv", 1, Backend::Fpga));
        table.begin(1, &a);
        assert_eq!(table.take(1), Some(a));
        assert_eq!(table.take(1), None, "recovered exactly once");
        table.begin(0, &Attempt::first(job("gcd", 0, Backend::Fpga)));
        table.finish(0);
        assert_eq!(table.take(0), None, "finished jobs are not recovered");
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
        assert_eq!(retry_backoff(7, &j, 0), Duration::ZERO);
        for attempt in 1..10 {
            let a = retry_backoff(7, &j, attempt);
            assert_eq!(a, retry_backoff(7, &j, attempt), "seeded, reproducible");
            assert!(a >= Duration::from_millis(1));
            assert!(a <= Duration::from_millis(16 + 2));
        }
        assert!(retry_backoff(7, &j, 5) > retry_backoff(7, &j, 1));
    }

    #[test]
    fn respawn_budget_is_bounded() {
        let mut b = RespawnBudget::new(2);
        assert!(b.claim());
        assert!(b.claim());
        assert!(!b.claim());
        assert_eq!(b.spent(), 2);
    }
}
