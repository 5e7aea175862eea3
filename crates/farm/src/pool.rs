//! The farm: admitted jobs run as tasks on the process-wide [`ape_exec`]
//! executor against a shared [`Technology`], with single-flight
//! deduplication of identical jobs in flight, per-job cancellation and
//! deadlines, and panic isolation. The executor decides how many jobs run
//! at once; the farm only bounds how many are admitted and unfinished
//! ([`FarmConfig::queue_capacity`]), so it shares threads with every other
//! executor client — AC sweeps, `evaluate_many` fan-outs, other farms —
//! instead of running a competing pool.

use crate::flight::{Flight, Flights};
use crate::job::{canonical_key_fp, FarmError, Request, Response};
use ape_calib::Calibration;
use ape_core::cancel::{self, CancelToken};
use ape_core::graph::{with_graph_fp, EstimationGraph, SharedMemo};
use ape_core::netest::estimate_netlist_in;
use ape_core::opamp::OpAmp;
use ape_mos::fingerprint::Fingerprint;
use ape_netlist::Technology;
use ape_oblx::synthesize;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// Configuration of a [`Farm`].
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Maximum jobs admitted and not yet finished (the backpressure
    /// threshold). Default 256.
    pub queue_capacity: usize,
    /// Per-job deadline; a job still running past it is abandoned at the
    /// estimator's next cancellation checkpoint. `None` = no deadline.
    pub job_timeout: Option<Duration>,
    /// Give the farm one [`SharedMemo`] that its design and netlist jobs
    /// evaluate over, on whichever executor thread runs them (default
    /// `true`). The store is the farm's only memo for those jobs, and
    /// nothing is left in the executor threads' own graphs. Dropping the
    /// farm empties the store, so its entries are freed with the farm; a
    /// worker that ran one of its jobs keeps only the empty store until it
    /// next enters a graph with other inputs. Memo keys are bit-exact
    /// input fingerprints, so results are identical to store-less graphs,
    /// and a subtree computed on one executor thread is served to every
    /// other one. Reuse therefore lives with the farm: keep one farm to
    /// reuse results across sweeps.
    ///
    /// `false` memoizes in each executor thread's own bounded graph
    /// instead, which outlives the farm.
    pub shared_graph: bool,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            queue_capacity: 256,
            job_timeout: None,
            shared_graph: true,
        }
    }
}

/// Most tenant technologies, and separately most calibration tables, a
/// farm accepts from its clients. Every registration stays resident for
/// the farm's lifetime, so the cap bounds the memory a client can pin;
/// registering a fingerprint that is already present always succeeds.
/// The farm's default technology does not count against it.
///
/// Nothing is ever evicted and there is no unregister operation: once one
/// client has filled a map, every client's new registration of that kind
/// is refused until the farm (for `ape-serve`, the daemon) is restarted.
pub const MAX_REGISTERED: usize = 64;

/// Counters accumulated over a farm's lifetime (monotonic, racy reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Requests accepted by `submit`/`try_submit` (including deduplicated
    /// ones, which are accepted without admission).
    pub submitted: u64,
    /// Jobs actually executed.
    pub executed: u64,
    /// Always 0: the farm keeps no finished results, so it never answers a
    /// submission from one. Repeats are served by the estimation graph's
    /// memos instead. Kept because the wire `stats` schema reports it.
    pub cache_hits: u64,
    /// Submissions folded into an identical in-flight job.
    pub deduped: u64,
    /// Jobs that finished with [`FarmError::Cancelled`].
    pub cancelled: u64,
    /// Jobs that panicked (the executor thread survived).
    pub panicked: u64,
    /// Submissions refused: fail-fast [`FarmError::QueueFull`], or an
    /// unknown technology or calibration.
    pub rejected: u64,
}

#[derive(Default)]
struct StatCells {
    submitted: AtomicU64,
    executed: AtomicU64,
    deduped: AtomicU64,
    cancelled: AtomicU64,
    panicked: AtomicU64,
    rejected: AtomicU64,
}

/// Per-submission options for [`Farm::submit_opts`]: tenant technology
/// selection, an externally owned cancellation token, and the
/// blocking-vs-fail-fast admission policy.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Run against the registered technology with this fingerprint instead
    /// of the farm's default. Unknown fingerprints resolve the handle
    /// immediately to [`FarmError::UnknownTechnology`] without admission.
    pub technology: Option<u64>,
    /// Apply the registered calibration table with this fingerprint to the
    /// job's estimates. Unknown fingerprints resolve the handle immediately
    /// to [`FarmError::UnknownCalibration`]; a table fitted for a different
    /// technology than the job's resolves to
    /// [`FarmError::CalibrationMismatch`]. `None` = uncalibrated estimates.
    pub calibration: Option<u64>,
    /// Parent the job's cancellation token under this caller-owned token
    /// instead of the farm root. The farm's per-job deadline still applies
    /// (composed as a timed child), but [`Farm::cancel_all`] no longer
    /// reaches the job — the caller owns its lifetime.
    pub token: Option<CancelToken>,
    /// Extra deadline for this job, composed with (not replacing) the
    /// farm's [`FarmConfig::job_timeout`]: the job is abandoned at
    /// whichever expires first.
    pub deadline: Option<Duration>,
    /// `true` = behave like [`Farm::try_submit`] (a full farm resolves the
    /// handle to [`FarmError::QueueFull`]); `false` = block for room.
    pub fail_fast: bool,
}

struct WorkItem {
    key: u64,
    flight: Arc<Flight>,
    req: Request,
    tech: Arc<Technology>,
    /// `tech.fingerprint()`, computed once per card when the farm learns
    /// it, so no job re-hashes the card.
    tech_fp: u64,
    /// Calibration table the job's estimates run under (`None` = raw).
    calib: Option<Arc<Calibration>>,
    cancel: CancelToken,
    /// Innermost open span on the submitting thread, captured so the
    /// `ape.farm.job` span parents under the submitting request in the
    /// trace tree.
    parent_span: Option<u64>,
    /// Admission time, for the queue-wait histogram.
    admitted: Instant,
}

/// Bounds admitted-but-unfinished jobs at the farm's capacity.
struct Admission {
    state: Mutex<AdmissionState>,
    changed: Condvar,
    capacity: usize,
}

#[derive(Default)]
struct AdmissionState {
    admitted: usize,
    closed: bool,
    /// Threads waiting on `changed`: blocked submitters and a draining
    /// shutdown. Each counts itself under the lock before it sleeps, so a
    /// release that reads 0 has no one to wake and skips the notify.
    sleepers: usize,
}

impl Admission {
    fn lock(&self) -> MutexGuard<'_, AdmissionState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sleeps on `changed`, counted in `sleepers` while it does.
    fn sleep<'a>(&self, mut st: MutexGuard<'a, AdmissionState>) -> MutexGuard<'a, AdmissionState> {
        st.sleepers += 1;
        let mut st = self.changed.wait(st).unwrap_or_else(|e| e.into_inner());
        st.sleepers -= 1;
        st
    }

    /// Wakes every sleeper if `sleepers` (read under the lock) says there
    /// are any.
    fn wake(&self, sleepers: usize) {
        if sleepers > 0 {
            self.changed.notify_all();
        }
    }

    /// Admits one job, waiting for room unless `fail_fast`.
    fn admit(&self, fail_fast: bool) -> Result<(), FarmError> {
        let mut st = self.lock();
        loop {
            if st.closed {
                return Err(FarmError::ShuttingDown);
            }
            if st.admitted < self.capacity {
                st.admitted += 1;
                ape_probe::gauge("ape.farm.inflight", st.admitted as f64);
                return Ok(());
            }
            if fail_fast {
                ape_probe::counter("ape.farm.queue.rejected", 1);
                return Err(FarmError::QueueFull);
            }
            st = self.sleep(st);
        }
    }

    fn release(&self) {
        let sleepers = {
            let mut st = self.lock();
            st.admitted -= 1;
            ape_probe::gauge("ape.farm.inflight", st.admitted as f64);
            st.sleepers
        };
        self.wake(sleepers);
    }

    /// Refuses further admissions, then waits until every admitted job has
    /// finished.
    fn close_and_drain(&self) {
        let mut st = self.lock();
        st.closed = true;
        self.wake(st.sleepers);
        while st.admitted > 0 {
            st = self.sleep(st);
        }
    }
}

struct Shared {
    admission: Admission,
    flights: Flights,
    tech: Arc<Technology>,
    /// `tech.fingerprint()`, hashed once in [`Farm::new`].
    tech_fp: u64,
    /// Registered tenant technologies, keyed by fingerprint. The default
    /// technology is registered at construction; the map only grows.
    tenants: RwLock<HashMap<u64, Arc<Technology>>>,
    /// Registered calibration tables, keyed by table fingerprint.
    /// Re-registering a *different* table yields a different fingerprint,
    /// so stale memoized estimates are unreachable by construction — the
    /// calibration fingerprint is folded into every job and memo key.
    calibrations: RwLock<HashMap<u64, Arc<Calibration>>>,
    /// The farm's estimation memo store when [`FarmConfig::shared_graph`]
    /// is set (the default).
    shared_graph: Option<Arc<SharedMemo>>,
    stats: StatCells,
    /// Always-on latency telemetry, independent of whether a probe sink is
    /// installed: the farm owns its own lock-free histograms.
    queue_wait_ns: ape_probe::Histogram,
    job_latency_ns: ape_probe::Histogram,
}

impl Shared {
    fn lookup_technology(&self, fp: u64) -> Option<Arc<Technology>> {
        self.tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&fp)
            .cloned()
    }

    fn lookup_calibration(&self, fp: u64) -> Option<Arc<Calibration>> {
        self.calibrations
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&fp)
            .cloned()
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("admitted", &self.admission.lock().admitted)
            .field("capacity", &self.admission.capacity)
            .field("in_flight", &self.flights.len())
            .finish()
    }
}

/// A handle to one submitted job.
///
/// Dropping the handle does not cancel the job; call
/// [`JobHandle::cancel`] for that. [`JobHandle::wait`] may be called from
/// any thread and any number of handles for the same flight may wait
/// concurrently.
#[derive(Debug, Clone)]
pub struct JobHandle {
    key: u64,
    cancel: CancelToken,
    flight: Arc<Flight>,
}

impl JobHandle {
    /// The job's content-addressed key (stable within this process; 0 for
    /// a submission rejected before it was keyed).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Requests cancellation of this job. A running job is abandoned at
    /// the estimator's next checkpoint; a job not yet started fails when
    /// it starts.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the job (or the identical job it was deduplicated
    /// into) completes, and returns its result.
    pub fn wait(&self) -> Result<Response, FarmError> {
        self.flight.wait()
    }

    /// Non-blocking result peek.
    pub fn peek(&self) -> Option<Result<Response, FarmError>> {
        self.flight.peek()
    }
}

/// A concurrent batch-estimation engine: bounded admission onto the shared
/// executor, single-flight deduplication of identical jobs in flight.
///
/// # Example
///
/// ```
/// use ape_core::basic::MirrorTopology;
/// use ape_core::opamp::{OpAmpSpec, OpAmpTopology};
/// use ape_farm::{Farm, FarmConfig, Request};
/// use ape_netlist::Technology;
///
/// let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
/// let h = farm.submit(Request::OpAmpDesign {
///     topology: OpAmpTopology::miller(MirrorTopology::Simple, false),
///     spec: OpAmpSpec {
///         gain: 200.0,
///         ugf_hz: 5e6,
///         area_max_m2: 5000e-12,
///         ibias: 10e-6,
///         zout_ohm: None,
///         cl: 10e-12,
///     },
/// });
/// let amp = h.wait().unwrap();
/// assert!(amp.as_opamp().unwrap().perf.dc_gain.unwrap().abs() >= 150.0);
/// drop(farm); // waits for every admitted job
/// ```
#[derive(Debug)]
pub struct Farm {
    shared: Arc<Shared>,
    cancel: CancelToken,
    job_timeout: Option<Duration>,
}

impl Farm {
    /// Builds a farm that runs its jobs on the process-wide [`ape_exec`]
    /// executor, admitting at most `config.queue_capacity` unfinished jobs.
    pub fn new(tech: Technology, config: FarmConfig) -> Self {
        let tech = Arc::new(tech);
        let tech_fp = tech.fingerprint();
        let mut tenants = HashMap::new();
        tenants.insert(tech_fp, tech.clone());
        let shared = Arc::new(Shared {
            admission: Admission {
                state: Mutex::new(AdmissionState::default()),
                changed: Condvar::new(),
                capacity: config.queue_capacity.max(1),
            },
            flights: Flights::default(),
            tech,
            tech_fp,
            tenants: RwLock::new(tenants),
            calibrations: RwLock::new(HashMap::new()),
            shared_graph: config.shared_graph.then(|| Arc::new(SharedMemo::new())),
            stats: StatCells::default(),
            queue_wait_ns: ape_probe::Histogram::new(),
            job_latency_ns: ape_probe::Histogram::new(),
        });
        Farm {
            shared,
            cancel: CancelToken::new(),
            job_timeout: config.job_timeout,
        }
    }

    /// The default technology, used by jobs that don't select a tenant.
    pub fn technology(&self) -> &Technology {
        &self.shared.tech
    }

    /// Registers a tenant technology and returns its fingerprint, the id a
    /// [`SubmitOptions::technology`] selection refers to. Registering the
    /// same card twice is idempotent (same fingerprint, same entry); two
    /// cards that differ only in `name` share a fingerprint by design
    /// (the fingerprint covers process-relevant fields only) and the first
    /// registration wins.
    ///
    /// # Errors
    ///
    /// [`FarmError::RegistryFull`] when the card is new and the farm
    /// already holds [`MAX_REGISTERED`] tenant technologies besides its
    /// default one.
    pub fn register_technology(&self, tech: Technology) -> Result<u64, FarmError> {
        let mut tenants = self
            .shared
            .tenants
            .write()
            .unwrap_or_else(|e| e.into_inner());
        // The default technology sits in the map but is not a registration.
        register(&mut tenants, MAX_REGISTERED + 1, tech.fingerprint(), tech)
    }

    /// Looks up a registered tenant technology by fingerprint.
    pub fn technology_by_fingerprint(&self, fp: u64) -> Option<Arc<Technology>> {
        self.shared.lookup_technology(fp)
    }

    /// Registers a calibration table and returns its fingerprint, the id a
    /// [`SubmitOptions::calibration`] selection refers to. Registering the
    /// same table twice is idempotent. A *changed* table (re-fitted against
    /// fresh audits, say) has a different content fingerprint and so a
    /// different id: jobs selecting it key differently from jobs that ran
    /// under the old table, which is what makes in-flight deduplication
    /// (and the shared estimation memos) safe across re-registration.
    ///
    /// # Errors
    ///
    /// [`FarmError::RegistryFull`] when the table is new and the farm
    /// already holds [`MAX_REGISTERED`] calibration tables.
    pub fn register_calibration(&self, cal: Calibration) -> Result<u64, FarmError> {
        let mut cals = self
            .shared
            .calibrations
            .write()
            .unwrap_or_else(|e| e.into_inner());
        register(&mut cals, MAX_REGISTERED, cal.fingerprint(), cal)
    }

    /// Looks up a registered calibration table by fingerprint.
    pub fn calibration_by_fingerprint(&self, fp: u64) -> Option<Arc<Calibration>> {
        self.shared.lookup_calibration(fp)
    }

    /// The farm's estimation memo store, when [`FarmConfig::shared_graph`]
    /// is enabled (the default). Dropping the farm empties it: a clone of
    /// the `Arc` kept past the farm holds no entries.
    pub fn shared_memo(&self) -> Option<&Arc<SharedMemo>> {
        self.shared.shared_graph.as_ref()
    }

    /// Distribution of per-job queue wait (admission → start on an executor
    /// thread), nanoseconds. Recorded for every executed job whether or not
    /// a probe sink is installed.
    pub fn queue_wait_ns(&self) -> ape_probe::HistogramSnapshot {
        self.shared.queue_wait_ns.snapshot()
    }

    /// Distribution of per-job execution latency (start → published
    /// result), nanoseconds.
    pub fn job_latency_ns(&self) -> ape_probe::HistogramSnapshot {
        self.shared.job_latency_ns.snapshot()
    }

    /// Human-readable one-stop report: lifetime counters plus queue-wait
    /// and job-latency quantiles.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let s = self.stats();
        let wait = self.queue_wait_ns();
        let lat = self.job_latency_ns();
        let mut out = String::from("=== ape-farm report ===\n");
        let exec = ape_exec::Executor::global();
        let _ = writeln!(
            out,
            "  pool: shared executor {} workers (parallelism {}), at most {} jobs admitted",
            exec.workers(),
            exec.parallelism(),
            self.shared.admission.capacity,
        );
        let _ = writeln!(
            out,
            "  jobs: {} submitted, {} executed, {} deduped, {} cancelled, {} panicked, {} rejected",
            s.submitted, s.executed, s.deduped, s.cancelled, s.panicked, s.rejected
        );
        let fmt_ns = |v: f64| ape_probe::fmt_nanos(v.max(0.0) as u64);
        let _ = writeln!(
            out,
            "  queue wait:  p50 {}  p90 {}  p99 {}  max {}  (n={})",
            fmt_ns(wait.p50()),
            fmt_ns(wait.p90()),
            fmt_ns(wait.p99()),
            fmt_ns(if wait.count == 0 { 0.0 } else { wait.max }),
            wait.count
        );
        let _ = writeln!(
            out,
            "  job latency: p50 {}  p90 {}  p99 {}  max {}  (n={})",
            fmt_ns(lat.p50()),
            fmt_ns(lat.p90()),
            fmt_ns(lat.p99()),
            fmt_ns(if lat.count == 0 { 0.0 } else { lat.max }),
            lat.count
        );
        if let Some(store) = &self.shared.shared_graph {
            let _ = writeln!(out, "  {}", store.report());
        }
        out
    }

    /// Lifetime counters (racy snapshot).
    pub fn stats(&self) -> FarmStats {
        let s = &self.shared.stats;
        FarmStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            executed: s.executed.load(Ordering::Relaxed),
            cache_hits: 0,
            deduped: s.deduped.load(Ordering::Relaxed),
            cancelled: s.cancelled.load(Ordering::Relaxed),
            panicked: s.panicked.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
        }
    }

    fn job_token(&self, opts: &SubmitOptions) -> CancelToken {
        // The job's token parents under the caller's token when one is
        // given (the caller owns the job's lifetime), else under the farm
        // root (so `cancel_all` reaches it). The effective deadline is the
        // tighter of the farm-wide timeout and the per-submission one.
        let parent = opts.token.as_ref().unwrap_or(&self.cancel);
        let deadline = match (self.job_timeout, opts.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match deadline {
            Some(t) => parent.child_with_timeout(t),
            None => parent.child(),
        }
    }

    /// A handle born resolved to `err`, for a submission refused before it
    /// was keyed: it never joins a flight, so it can't interfere with an
    /// honest job under the same request.
    fn refuse(&self, counter: &'static str, err: FarmError) -> JobHandle {
        self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        ape_probe::counter(counter, 1);
        JobHandle {
            key: 0,
            cancel: CancelToken::new(),
            flight: Flight::resolved(Err(err)),
        }
    }

    /// Submits a request, blocking while the farm is full (backpressure).
    ///
    /// An identical request still in flight is shared instead of run
    /// again; the returned handle then waits on the shared flight. The job
    /// always runs on an executor thread, never on the caller, so a
    /// submission leaves the calling thread's estimation graph untouched.
    pub fn submit(&self, req: Request) -> JobHandle {
        self.submit_opts(req, SubmitOptions::default())
    }

    /// Fail-fast submission: like [`Farm::submit`] but a full farm yields
    /// a handle already resolved to [`FarmError::QueueFull`] instead of
    /// blocking. Deduplicated submissions never fail this way — sharing an
    /// existing flight needs no admission.
    pub fn try_submit(&self, req: Request) -> JobHandle {
        self.submit_opts(
            req,
            SubmitOptions {
                fail_fast: true,
                ..SubmitOptions::default()
            },
        )
    }

    /// Submits a request with per-submission [`SubmitOptions`]: tenant
    /// technology selection, caller-owned cancellation, extra deadline,
    /// and admission policy.
    ///
    /// If the OS refused to start even one executor thread, the handle is
    /// born resolved to [`FarmError::WorkerLost`]: the farm never runs a
    /// job on the submitting thread.
    pub fn submit_opts(&self, req: Request, opts: SubmitOptions) -> JobHandle {
        let shared = &self.shared;
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        if ape_exec::Executor::global().workers() == 0 {
            return self.refuse(
                "ape.farm.no_workers",
                FarmError::WorkerLost("the executor could not start a worker thread".to_string()),
            );
        }
        // Tenants are keyed by their fingerprint, so the selection is the
        // card's fingerprint and nothing here hashes a card.
        let (tech, tech_fp) = match opts.technology {
            None => (shared.tech.clone(), shared.tech_fp),
            Some(fp) => match shared.lookup_technology(fp) {
                Some(t) => (t, fp),
                None => {
                    return self.refuse(
                        "ape.farm.unknown_technology",
                        FarmError::UnknownTechnology(fp),
                    )
                }
            },
        };
        let calib = match opts.calibration {
            None => None,
            Some(fp) => match shared.lookup_calibration(fp) {
                Some(c) if c.technology_fingerprint() == tech_fp => Some(c),
                Some(c) => {
                    return self.refuse(
                        "ape.farm.calibration_mismatch",
                        FarmError::CalibrationMismatch {
                            expected: tech_fp,
                            got: c.technology_fingerprint(),
                        },
                    )
                }
                None => {
                    return self.refuse(
                        "ape.farm.unknown_calibration",
                        FarmError::UnknownCalibration(fp),
                    )
                }
            },
        };
        // A calibrated job computes different numbers from an uncalibrated
        // one with the same payload, so the table's content fingerprint is
        // part of the job's identity.
        let key = match &calib {
            None => canonical_key_fp(&tech, tech_fp, &req),
            Some(c) => Fingerprint::new()
                .u64(canonical_key_fp(&tech, tech_fp, &req))
                .u64(c.fingerprint())
                .finish(),
        };
        let token = self.job_token(&opts);
        let (flight, owner) = shared.flights.claim(key);
        let handle = JobHandle {
            key,
            cancel: token.clone(),
            flight: flight.clone(),
        };
        if !owner {
            shared.stats.deduped.fetch_add(1, Ordering::Relaxed);
            return handle;
        }
        // Having claimed the flight we MUST publish an outcome on every
        // path, or deduplicated waiters hang.
        if let Err(err) = shared.admission.admit(opts.fail_fast) {
            if err == FarmError::QueueFull {
                shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            }
            shared.flights.publish(key, &flight, Err(err));
            return handle;
        }
        let item = WorkItem {
            key,
            flight,
            req,
            tech,
            tech_fp,
            calib,
            cancel: token,
            parent_span: ape_probe::current_span(),
            admitted: Instant::now(),
        };
        let task_shared = shared.clone();
        ape_exec::Executor::global().spawn(move || run_job(&task_shared, &item));
        handle
    }

    /// Cancels every admitted job. Later submissions get fresh tokens from
    /// the same root and are ALSO cancelled — use this only when tearing
    /// the batch down.
    pub fn cancel_all(&self) {
        self.cancel.cancel();
    }

    /// Closes admission and waits until every admitted job has run —
    /// admitted-but-unstarted jobs still execute; new submissions fail with
    /// [`FarmError::ShuttingDown`]. Called automatically on drop.
    ///
    /// It waits for the jobs, not for their results: a job frees its slot
    /// just before it publishes, so right after this returns the last
    /// handles' [`JobHandle::peek`] may still read `None`. Use
    /// [`JobHandle::wait`] for the result.
    pub fn shutdown(&self) {
        self.shared.admission.close_and_drain();
    }
}

impl Drop for Farm {
    fn drop(&mut self) {
        self.shutdown();
        // The executor threads that ran the farm's jobs still hold its
        // store through their graphs; free its entries now, not when each
        // of them next enters a graph with other inputs.
        if let Some(store) = &self.shared.shared_graph {
            store.clear();
        }
    }
}

/// Releases a job's admission slot and publishes its outcome on every exit
/// path. The slot goes first, so a caller whose `wait` has returned can
/// submit again without racing the release.
///
/// `run_item` nets ordinary job panics with `catch_unwind`, but a panic
/// *outside* that net (probe sink) unwinds through here with no outcome
/// set: the waiters then get `WorkerLost` instead of sleeping until process
/// exit, and the slot is not leaked.
struct Finish<'a> {
    shared: &'a Shared,
    item: &'a WorkItem,
    outcome: Option<Result<Response, FarmError>>,
}

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        let outcome = self.outcome.take().unwrap_or_else(|| {
            ape_probe::counter("ape.farm.worker.lost_job", 1);
            self.shared.stats.panicked.fetch_add(1, Ordering::Relaxed);
            Err(FarmError::WorkerLost(
                "worker died before publishing a result".to_string(),
            ))
        });
        self.shared.admission.release();
        self.shared
            .flights
            .publish(self.item.key, &self.item.flight, outcome);
    }
}

/// Executes one admitted job on an executor thread and publishes its
/// outcome. The job runs in the thread's graph for its technology, its
/// calibration table and the farm's store (see [`with_graph_fp`]), so a
/// job with the same three inputs as the thread's last one reuses its warm
/// graph.
fn run_job(shared: &Shared, item: &WorkItem) {
    let mut finish = Finish {
        shared,
        item,
        outcome: None,
    };
    let wait_ns = item.admitted.elapsed().as_nanos() as f64;
    shared.queue_wait_ns.record(wait_ns);
    ape_probe::value("ape.farm.queue.wait_ns", wait_ns);
    let t0 = Instant::now();
    let result = run_item(item, shared.shared_graph.as_ref());
    let latency_ns = t0.elapsed().as_nanos() as f64;
    shared.job_latency_ns.record(latency_ns);
    ape_probe::value("ape.farm.job.latency_ns", latency_ns);
    shared.stats.executed.fetch_add(1, Ordering::Relaxed);
    match &result {
        Err(FarmError::Cancelled) => {
            shared.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            ape_probe::counter("ape.farm.job.cancelled", 1);
        }
        Err(FarmError::Panicked(_)) => {
            shared.stats.panicked.fetch_add(1, Ordering::Relaxed);
            ape_probe::counter("ape.farm.job.panicked", 1);
        }
        Err(_) => ape_probe::counter("ape.farm.job.failed", 1),
        Ok(_) => ape_probe::counter("ape.farm.job.ok", 1),
    }
    finish.outcome = Some(result);
}

/// Stores `value` under `fp` unless `fp` is already present, refusing a
/// new fingerprint once `map` holds `cap` entries.
fn register<V>(
    map: &mut HashMap<u64, Arc<V>>,
    cap: usize,
    fp: u64,
    value: V,
) -> Result<u64, FarmError> {
    if !map.contains_key(&fp) {
        if map.len() >= cap {
            ape_probe::counter("ape.farm.registry_full", 1);
            return Err(FarmError::RegistryFull);
        }
        map.insert(fp, Arc::new(value));
    }
    Ok(fp)
}

fn run_item(item: &WorkItem, store: Option<&Arc<SharedMemo>>) -> Result<Response, FarmError> {
    // Parent the job span under the innermost span that was open on the
    // submitting thread, so a sweep's jobs hang off its request span in
    // the exported trace tree instead of floating as roots.
    let _span = ape_probe::span_with_parent("ape.farm.job", item.parent_span);
    if item.cancel.is_cancelled() {
        return Err(FarmError::Cancelled);
    }
    let _token_guard = cancel::set_current(item.cancel.clone());
    let job = || {
        with_graph_fp(&item.tech, item.tech_fp, item.calib.as_ref(), store, |g| {
            execute(g, &item.req)
        })
    };
    match catch_unwind(AssertUnwindSafe(job)) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(FarmError::Panicked(msg))
        }
    }
}

/// Runs `req` in `g`. Synthesis and custom jobs are direct callers: they
/// take `g`'s technology and enter their own graphs.
fn execute(g: &EstimationGraph, req: &Request) -> Result<Response, FarmError> {
    let tech = g.technology();
    match req {
        Request::OpAmpDesign { topology, spec } => {
            let amp = OpAmp::design_in(g, *topology, *spec)?;
            Ok(Response::OpAmp(Box::new(amp)))
        }
        Request::NetlistEstimate { circuit, output } => {
            let est = estimate_netlist_in(g, circuit, *output)?;
            Ok(Response::Netlist(Box::new(est)))
        }
        Request::Synthesize {
            topology,
            spec,
            init,
            opts,
        } => {
            let out = synthesize(tech, *topology, spec, init, opts)?;
            Ok(Response::Synthesis(Box::new(out)))
        }
        Request::Custom { run, .. } => run(tech),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop(_tech: &Technology) -> Result<Response, FarmError> {
        Ok(Response::Text(String::new()))
    }

    /// The farm keeps nothing per request once a job has finished: 100 000
    /// distinct requests leave the in-flight map empty and the admission
    /// count at 0, so a resident farm's memory does not grow with the
    /// number of distinct requests it has answered.
    #[test]
    fn distinct_jobs_leave_no_resident_state() {
        let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
        for batch in 0..100u64 {
            let handles: Vec<_> = (0..1000)
                .map(|i| {
                    farm.submit(Request::Custom {
                        label: "soak",
                        nonce: batch * 1000 + i,
                        run: noop,
                    })
                })
                .collect();
            for h in handles {
                assert!(h.wait().is_ok());
            }
        }
        assert_eq!(farm.shared.admission.lock().admitted, 0, "admission leaked");
        assert_eq!(farm.shared.flights.len(), 0, "in-flight map kept entries");
        assert_eq!(farm.stats().executed, 100_000);
    }

    /// A release notifies only when a thread sleeps on admission, so a
    /// submitter blocking just as a slot frees must still be woken. Four
    /// threads push 2 000 jobs through a capacity-1 farm and every job
    /// runs; then a `shutdown` issued while submitters are blocked turns
    /// them away and still drains.
    #[test]
    fn a_capacity_one_farm_admits_every_blocked_submitter() {
        const SUBMITTERS: u64 = 4;
        const JOBS: u64 = 500;
        let submit_all = |farm: &Farm, base: u64| -> Vec<JobHandle> {
            std::thread::scope(|s| {
                let threads: Vec<_> = (0..SUBMITTERS)
                    .map(|t| {
                        s.spawn(move || {
                            (0..JOBS)
                                .map(|i| {
                                    farm.submit(Request::Custom {
                                        label: "admission",
                                        nonce: base + t * JOBS + i,
                                        run: noop,
                                    })
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            })
        };
        let (finished, watchdog) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let farm = Farm::new(
                Technology::default_1p2um(),
                FarmConfig {
                    queue_capacity: 1,
                    ..FarmConfig::default()
                },
            );
            for h in submit_all(&farm, 0) {
                assert!(h.wait().is_ok());
            }
            assert_eq!(farm.stats().executed, SUBMITTERS * JOBS);

            let handles = std::thread::scope(|s| {
                let submitters = s.spawn(|| submit_all(&farm, SUBMITTERS * JOBS));
                std::thread::sleep(Duration::from_millis(5));
                farm.shutdown();
                submitters.join().unwrap()
            });
            for h in handles {
                match h.wait() {
                    Ok(_) | Err(FarmError::ShuttingDown) => {}
                    other => panic!("{other:?}"),
                }
            }
            assert_eq!(farm.shared.admission.lock().admitted, 0);
            finished.send(()).unwrap();
        });
        watchdog
            .recv_timeout(Duration::from_secs(60))
            .expect("a capacity-1 farm stopped admitting or draining");
    }
}
