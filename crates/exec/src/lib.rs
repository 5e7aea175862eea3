//! `ape-exec` — the process-wide work-stealing executor under every
//! parallel hot path in the APE stack.
//!
//! Before this crate existed, each parallel site spawned its own OS
//! threads: `ac_sweep` stood up a `std::thread::scope` per sweep, the
//! farm ran a private worker pool, and `ape-serve` layered connection
//! threads on top of both. On small circuits the spawn/join cost
//! dominated the actual numerics, and when the layers ran together they
//! oversubscribed the machine. This executor replaces all of that with
//! one lazily-initialized pool sized to the detected parallelism.
//!
//! # Design
//!
//! * **Per-worker LIFO deques + a global injector.** A worker pushes and
//!   pops its own deque from the back (hot caches), steals from other
//!   workers and the injector from the front (oldest first, fair).
//! * **Tickets, not tasks, in the deques.** Scoped work lives in a queue
//!   owned by its [`Scope`]; the deques only carry redeemable *tickets*
//!   pointing at that scope. A ticket whose scope has already drained is
//!   a no-op, which is what makes the owner thread free to help-drain
//!   its own scope without racing the stealers for specific items.
//! * **Scoped spawn with borrowed data.** [`Executor::scope`] mirrors
//!   `std::thread::scope`: tasks may borrow from the caller's stack, and
//!   `scope` does not return (normally or by unwind) until every spawned
//!   task has finished. Panics inside tasks are caught, counted under
//!   `ape.exec.task_panicked`, and re-thrown at the scope exit.
//! * **At least one worker in the global pool.** [`Executor::global`]
//!   starts one worker even on a single-core box, so detached work
//!   always runs off the submitting thread and no caller needs a second
//!   code path for an empty pool. An explicit `Executor::new(0)` pool has
//!   no workers: its scoped and detached work runs inline on the calling
//!   thread in submission order, which makes it the sequential reference
//!   that parallel results are checked against bit for bit.
//! * **Cancellation stays cooperative.** The executor knows nothing of
//!   `ape_core::cancel` (that would invert the crate DAG); instead the
//!   call sites capture the submitting thread's `CancelToken` in the
//!   task closure and re-install it on the running thread, so a token
//!   cancelled mid-fan-out stops workers at the same probe points as it
//!   stops the sequential loop.
//!
//! Instrumentation: `ape.exec.workers` (gauge), `ape.exec.spawned`,
//! `ape.exec.scope_tasks`, `ape.exec.steals`, `ape.exec.inline`,
//! `ape.exec.task_panicked`, `ape.exec.spawn_retry`,
//! `ape.exec.spawn_failed`, and the one-shot `ape.exec.clamped`.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::Duration;

/// A heap-allocated unit of work. Scoped tasks are lifetime-erased into
/// this type; see the safety argument in [`Scope::spawn`].
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, ignoring poisoning: the executor's shared state is
/// plain queues/counters that stay consistent even if a holder panicked
/// (task panics are caught before they can unwind through a lock).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// What sits in the deques: either a detached job (owns its closure) or
/// a redeemable hint that some scope has a task waiting.
enum Ticket {
    Job(Task),
    Scope(Arc<ScopeCore>),
}

/// Shared state of one `scope()` invocation.
struct ScopeCore {
    /// Tasks spawned into the scope and not yet claimed by anyone.
    tasks: Mutex<VecDeque<Task>>,
    /// Tasks spawned and not yet *finished* (claimed ones count too).
    pending: AtomicUsize,
    /// Owner parks here until `pending` drops to zero.
    idle: Mutex<()>,
    idle_cond: Condvar,
    /// First panic raised by any task, re-thrown at scope exit.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeCore {
    fn new() -> Self {
        ScopeCore {
            tasks: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            idle: Mutex::new(()),
            idle_cond: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn pop_task(&self) -> Option<Task> {
        lock(&self.tasks).pop_front()
    }

    /// Runs one claimed task, catching its panic and notifying the owner
    /// if it was the last one standing.
    fn run_task(&self, task: Task) {
        if let Err(p) = catch_unwind(AssertUnwindSafe(task)) {
            ape_probe::counter("ape.exec.task_panicked", 1);
            let mut slot = lock(&self.panic);
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Take the lock so a waiter between its check and its wait
            // cannot miss this notification.
            let _g = lock(&self.idle);
            self.idle_cond.notify_all();
        }
    }

    /// Blocks until every spawned task has finished.
    fn wait_idle(&self) {
        let mut g = lock(&self.idle);
        while self.pending.load(Ordering::Acquire) != 0 {
            g = wait(&self.idle_cond, g);
        }
    }
}

/// Work-stealing pool internals, shared between the handle and workers.
struct Inner {
    deques: Vec<Mutex<VecDeque<Ticket>>>,
    injector: Mutex<VecDeque<Ticket>>,
    gate: Mutex<Gate>,
    gate_cond: Condvar,
    shutdown: AtomicBool,
}

/// The workers' parking state, guarded by `Inner::gate`.
#[derive(Default)]
struct Gate {
    /// Unclaimed wake tokens: one is minted per posted ticket, consumed
    /// by a worker leaving the parked state. Tokens may outnumber real
    /// work (a scanning worker can grab a ticket without paying a
    /// token), which costs a spurious wake, never a lost one.
    tokens: u64,
    /// Workers waiting on `gate_cond`. A post notifies only when this is
    /// non-zero: a worker counts itself under the gate lock before it
    /// waits, so a post that reads 0 is one no worker is waiting for.
    parked: usize,
}

thread_local! {
    /// `(address of Inner, worker index)` on executor worker threads.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

impl Inner {
    /// Queues a ticket — on the current worker's own deque when the
    /// caller is one of this executor's workers, else on the injector —
    /// mints a wake token, and wakes a worker if one is parked.
    fn post(&self, ticket: Ticket) {
        let me = WORKER.with(Cell::get);
        match me {
            Some((addr, idx)) if addr == self as *const Inner as usize => {
                lock(&self.deques[idx]).push_back(ticket);
            }
            _ => lock(&self.injector).push_back(ticket),
        }
        let mut gate = lock(&self.gate);
        gate.tokens += 1;
        if gate.parked > 0 {
            self.gate_cond.notify_one();
        }
    }

    /// Own deque from the back, injector from the front, then steal from
    /// the other workers' fronts.
    fn find_work(&self, idx: usize) -> Option<Ticket> {
        if let Some(t) = lock(&self.deques[idx]).pop_back() {
            return Some(t);
        }
        if let Some(t) = lock(&self.injector).pop_front() {
            return Some(t);
        }
        for (j, dq) in self.deques.iter().enumerate() {
            if j == idx {
                continue;
            }
            if let Some(t) = lock(dq).pop_front() {
                ape_probe::counter("ape.exec.steals", 1);
                return Some(t);
            }
        }
        None
    }

    fn run_ticket(&self, ticket: Ticket) {
        match ticket {
            Ticket::Job(job) => {
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    ape_probe::counter("ape.exec.task_panicked", 1);
                }
            }
            Ticket::Scope(core) => {
                // The ticket is only a hint; the scope owner (or another
                // thief) may already have drained the queue.
                if let Some(task) = core.pop_task() {
                    core.run_task(task);
                }
            }
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, idx: usize) {
    WORKER.with(|c| c.set(Some((Arc::as_ptr(inner) as usize, idx))));
    loop {
        if let Some(t) = inner.find_work(idx) {
            inner.run_ticket(t);
            continue;
        }
        let mut gate = lock(&inner.gate);
        loop {
            if inner.shutdown.load(Ordering::Acquire) {
                drop(gate);
                // Drain stragglers so in-flight scopes can complete.
                while let Some(t) = inner.find_work(idx) {
                    inner.run_ticket(t);
                }
                return;
            }
            if gate.tokens > 0 {
                gate.tokens -= 1;
                break;
            }
            gate.parked += 1;
            gate = wait(&inner.gate_cond, gate);
            gate.parked -= 1;
        }
    }
}

/// A work-stealing thread pool. Most call sites want the shared
/// [`Executor::global`] instance; tests and benches construct private
/// pools with [`Executor::new`] to pin an exact worker count.
pub struct Executor {
    inner: Arc<Inner>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    workers: usize,
}

impl Executor {
    /// Builds a pool with exactly `workers` OS threads (named
    /// `ape-exec-N`). A failed spawn is retried once after a short
    /// backoff (`ape.exec.spawn_retry`); if the retry also fails the
    /// pool degrades by one worker (`ape.exec.spawn_failed`) instead of
    /// refusing to start. `workers == 0` is valid and means all work
    /// runs inline on the submitting thread.
    pub fn new(workers: usize) -> Executor {
        let inner = Arc::new(Inner {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            gate: Mutex::new(Gate::default()),
            gate_cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(workers);
        for idx in 0..workers {
            match spawn_worker(&inner, idx) {
                Ok(h) => handles.push(h),
                Err(_) => {
                    ape_probe::counter("ape.exec.spawn_retry", 1);
                    thread::sleep(Duration::from_millis(10));
                    match spawn_worker(&inner, idx) {
                        Ok(h) => handles.push(h),
                        Err(_) => ape_probe::counter("ape.exec.spawn_failed", 1),
                    }
                }
            }
        }
        let spawned = handles.len();
        ape_probe::gauge("ape.exec.workers", spawned as f64);
        Executor {
            inner,
            handles: Mutex::new(handles),
            workers: spawned,
        }
    }

    /// The process-wide shared pool, lazily initialized to
    /// `detected_parallelism() - 1` workers (the submitting thread is
    /// the missing lane, since it help-drains its own scopes), but never
    /// fewer than one: a detached job on the global pool always runs on an
    /// executor thread, never on the caller. Only an OS refusal to start
    /// that thread (`ape.exec.spawn_failed`) leaves it with none.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| Executor::new(detected_parallelism().saturating_sub(1).max(1)))
    }

    /// Number of live worker threads (0 means everything runs inline).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Lanes available to a scoped fan-out: the workers plus the
    /// submitting thread itself.
    pub fn parallelism(&self) -> usize {
        self.workers + 1
    }

    /// Submits a detached fire-and-forget job. With zero workers the job
    /// runs inline, before `spawn` returns. Panics are caught and
    /// counted, never propagated (there is no one to propagate to).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        ape_probe::counter("ape.exec.spawned", 1);
        if self.workers == 0 {
            ape_probe::counter("ape.exec.inline", 1);
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                ape_probe::counter("ape.exec.task_panicked", 1);
            }
            return;
        }
        self.inner.post(Ticket::Job(Box::new(f)));
    }

    /// Runs `f` with a [`Scope`] on which tasks borrowing the caller's
    /// stack can be spawned. Does not return until every spawned task
    /// has finished: the calling thread help-drains its own scope's
    /// queue while workers steal from it, then parks until stolen tasks
    /// complete. The first panic from the body or any task is re-thrown
    /// here.
    pub fn scope<'env, T, F>(&self, f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
    {
        let core = Arc::new(ScopeCore::new());
        let scope = Scope {
            core: Arc::clone(&core),
            exec: self,
            scope_marker: PhantomData,
            env_marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Help-drain: the owner runs queued tasks inline until none are
        // left, then waits out the ones claimed by workers. This is the
        // sound-ness linchpin for `Scope::spawn`'s lifetime erasure —
        // no spawned closure survives this point.
        while let Some(task) = core.pop_task() {
            core.run_task(task);
        }
        core.wait_idle();
        match result {
            Err(body_panic) => resume_unwind(body_panic),
            Ok(v) => {
                if let Some(p) = lock(&core.panic).take() {
                    resume_unwind(p);
                }
                v
            }
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _g = lock(&self.inner.gate);
            self.inner.gate_cond.notify_all();
        }
        for h in lock(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

fn spawn_worker(inner: &Arc<Inner>, idx: usize) -> std::io::Result<thread::JoinHandle<()>> {
    let inner = Arc::clone(inner);
    thread::Builder::new()
        .name(format!("ape-exec-{idx}"))
        .spawn(move || worker_loop(&inner, idx))
}

/// Spawn surface handed to the closure of [`Executor::scope`]; mirrors
/// `std::thread::Scope`.
pub struct Scope<'scope, 'env: 'scope> {
    core: Arc<ScopeCore>,
    exec: &'scope Executor,
    scope_marker: PhantomData<&'scope mut &'scope ()>,
    env_marker: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from the environment of the
    /// enclosing [`Executor::scope`] call. Tasks run on worker threads
    /// or inline on the owner during help-drain; submission order is
    /// queue order but completion order is unspecified.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        ape_probe::counter("ape.exec.scope_tasks", 1);
        let boxed: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: only the lifetime is erased. `Executor::scope` drains
        // the task queue and waits for `pending == 0` before returning
        // or unwinding, so the closure (and everything it borrows from
        // 'scope/'env) is dropped before the borrows expire. Stale
        // tickets left in the deques hold only the `ScopeCore`, whose
        // task queue is empty by then.
        let boxed: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(
                boxed,
            )
        };
        self.core.pending.fetch_add(1, Ordering::AcqRel);
        lock(&self.core.tasks).push_back(boxed);
        // With zero workers nobody could redeem a ticket; the owner's
        // help-drain runs everything inline instead.
        if self.exec.workers > 0 {
            self.exec.inner.post(Ticket::Scope(Arc::clone(&self.core)));
        }
    }
}

/// Hardware parallelism as the OS reports it (1 when unknown).
///
/// Queried once and cached: `std::thread::available_parallelism` re-reads
/// cgroup quota files on every call on Linux, which costs microseconds —
/// [`clamp_workers`] sits on per-call hot paths (one AC sweep is itself
/// only tens of microseconds), so the uncached lookup measurably taxed
/// small-circuit sweep throughput.
pub fn detected_parallelism() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Clamps a requested worker count to
/// `min(requested, detected_parallelism, work_items)`, never below 1.
/// `requested == 0` means "all cores". The first time a request is
/// actually reduced, a one-shot `ape.exec.clamped` counter fires — a
/// breadcrumb for configurations like 8 threads on a 1-core box, which
/// used to *lose* throughput to context switching.
pub fn clamp_workers(requested: usize, work_items: usize) -> usize {
    let avail = detected_parallelism();
    let req = if requested == 0 { avail } else { requested };
    let eff = req.min(avail).min(work_items.max(1)).max(1);
    if eff < req {
        static CLAMPED: AtomicBool = AtomicBool::new(false);
        if !CLAMPED.swap(true, Ordering::Relaxed) {
            ape_probe::counter("ape.exec.clamped", 1);
        }
    }
    eff
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scoped_fanout_runs_every_task() {
        let exec = Executor::new(4);
        let hits = AtomicU64::new(0);
        exec.scope(|s| {
            for k in 0..100u64 {
                let hits = &hits;
                s.spawn(move || {
                    hits.fetch_add(k + 1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), (1..=100).sum::<u64>());
    }

    #[test]
    fn zero_workers_runs_inline_in_submission_order() {
        let exec = Executor::new(0);
        assert_eq!(exec.workers(), 0);
        assert_eq!(exec.parallelism(), 1);
        let mut order = Vec::new();
        {
            let log = Mutex::new(&mut order);
            exec.scope(|s| {
                for k in 0..8 {
                    let log = &log;
                    s.spawn(move || lock(log).push(k));
                }
            });
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn scoped_tasks_can_write_disjoint_borrowed_slices() {
        let exec = Executor::new(2);
        let mut data = vec![0u32; 64];
        exec.scope(|s| {
            for (i, chunk) in data.chunks_mut(7).enumerate() {
                s.spawn(move || {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = (i * 7 + j) as u32;
                    }
                });
            }
        });
        let expect: Vec<u32> = (0..64).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn task_panic_propagates_to_scope_caller() {
        let exec = Executor::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| {
                s.spawn(|| {});
                s.spawn(|| panic!("boom in task"));
                s.spawn(|| {});
            });
        }));
        assert!(caught.is_err(), "scope must rethrow a task panic");
    }

    #[test]
    fn task_panic_propagates_inline_too() {
        let exec = Executor::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| s.spawn(|| panic!("inline boom")));
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn detached_spawn_completes() {
        let exec = Executor::new(2);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            let done = Arc::clone(&done);
            exec.spawn(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::Relaxed) != 16 {
            assert!(
                std::time::Instant::now() < deadline,
                "detached jobs stalled"
            );
            thread::yield_now();
        }
    }

    /// A post notifies only when a worker is parked, so a worker parking
    /// just as a ticket arrives must still be woken. Posters on several
    /// threads feed two workers in rounds and wait for each round's jobs
    /// to run, pausing now and then so the workers alternate between busy
    /// and parked; every round finishes before the deadline.
    #[test]
    fn no_wake_up_is_lost_while_workers_park_and_unpark() {
        const POSTERS: u64 = 4;
        const ROUNDS: u64 = 400;
        let exec = Executor::new(2);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let posted: u64 = thread::scope(|s| {
            let posters: Vec<_> = (0..POSTERS)
                .map(|p| {
                    let exec = &exec;
                    s.spawn(move || {
                        let done = Arc::new(AtomicU64::new(0));
                        let mut posted = 0;
                        for round in 0..ROUNDS {
                            let burst = 1 + (round * 7 + p * 13) % 64;
                            for j in 0..burst {
                                let done = Arc::clone(&done);
                                exec.spawn(move || {
                                    if j % 8 == 0 {
                                        let t0 = std::time::Instant::now();
                                        while t0.elapsed() < Duration::from_micros(20) {
                                            std::hint::spin_loop();
                                        }
                                    }
                                    done.fetch_add(1, Ordering::Release);
                                });
                            }
                            posted += burst;
                            while done.load(Ordering::Acquire) < posted {
                                assert!(
                                    std::time::Instant::now() < deadline,
                                    "poster {p} round {round}: {} of {posted} jobs ran",
                                    done.load(Ordering::Acquire)
                                );
                                thread::yield_now();
                            }
                            if round % 16 == 0 {
                                thread::sleep(Duration::from_micros(200));
                            }
                        }
                        posted
                    })
                })
                .collect();
            posters.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert!(posted > 10_000, "{posted} jobs");
    }

    #[test]
    fn detached_panic_does_not_kill_the_pool() {
        let exec = Executor::new(1);
        exec.spawn(|| panic!("detached boom"));
        let done = Arc::new(AtomicU64::new(0));
        {
            let done = Arc::clone(&done);
            exec.spawn(move || {
                done.store(1, Ordering::Relaxed);
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::Relaxed) != 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "pool died after panic"
            );
            thread::yield_now();
        }
    }

    #[test]
    fn nested_scopes_complete() {
        let exec = Executor::new(3);
        let total = AtomicU64::new(0);
        exec.scope(|outer| {
            for _ in 0..4 {
                let total = &total;
                outer.spawn(move || {
                    exec_nested(total);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 8);

        fn exec_nested(total: &AtomicU64) {
            // Nested scope on the global pool from an arbitrary thread.
            Executor::global().scope(|inner| {
                for _ in 0..8 {
                    inner.spawn(move || {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
    }

    #[test]
    fn drop_joins_workers() {
        let exec = Executor::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let hits = Arc::clone(&hits);
            exec.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(exec); // must not hang; stragglers drain on shutdown
    }

    #[test]
    fn clamp_workers_honors_all_three_bounds() {
        let avail = detected_parallelism();
        assert_eq!(clamp_workers(0, usize::MAX), avail);
        assert_eq!(clamp_workers(1, usize::MAX), 1);
        assert_eq!(clamp_workers(usize::MAX, usize::MAX), avail);
        assert_eq!(clamp_workers(8, 3), 3.min(avail));
        assert_eq!(clamp_workers(8, 0), 1);
        assert!(clamp_workers(0, 0) >= 1);
    }

    #[test]
    fn global_has_one_worker_per_spare_core_and_at_least_one() {
        let g = Executor::global();
        assert_eq!(g.workers(), detected_parallelism().saturating_sub(1).max(1));
        assert_eq!(g.parallelism(), g.workers() + 1);
    }
}
