#![deny(missing_docs)]
//! The estimation graph: a memoized component DAG over the APE hierarchy.
//!
//! The paper composes performance bottom-up through four levels
//! (transistor → basic component → op-amp → module). This module makes
//! that composition an explicit graph: every design step is a
//! [`Component`] node whose inputs are condensed into a bit-exact
//! [fingerprint](Component::fingerprint), and the [`EstimationGraph`]
//! memoizes each node's result under `(kind, fingerprint)`. Parent nodes
//! declare their [children](Component::children) and evaluate them in the
//! graph their [`compute`](Component::compute) is handed, so
//! [`EstimationGraph::evaluate`] is the one route to every node, from an
//! L4 module down to an L1 sizing solve.
//!
//! At level 1 this is the paper's object store (§4.1): *"The sized
//! transistor is saved as an object which contains the size and
//! performance parameters. Several objects can be generated with
//! different operating points as they are needed to construct the other
//! levels in the circuit hierarchy."* Sizing requests are the
//! [`SizeForGmId`] and [`SizeForIdVov`] nodes (see
//! [`EstimationGraph::size_gm_id`] and [`EstimationGraph::size_id_vov`]),
//! memoized beside every higher-level node.
//!
//! Two properties follow directly from bit-exact fingerprints:
//!
//! * **Incremental re-estimation.** Re-running a design after a spec or
//!   design-variable delta recomputes only the nodes whose inputs
//!   actually changed — every clean subtree is answered from the memo.
//!   There is no explicit dirty-marking pass: a node is "dirty" exactly
//!   when its fingerprint is new to the graph.
//! * **History independence.** A memoized value is a pure function of
//!   its fingerprint, so a warm (incremental) evaluation is bit-identical
//!   to a cold one. The equivalence suite and `ape-check`'s delta fuzzing
//!   prove this across every topology and module.
//!
//! Per-node hits, misses, and dirty recomputes are counted in
//! [`NodeStats`] and mirrored to `ape-probe` counters
//! (`ape.graph.<kind>.hit` / `.miss` / `.dirty`), so `APE_TRACE=summary`
//! shows exactly which levels of the hierarchy the memo is saving. Every
//! evaluation, hit or miss, also opens one `ape.<kind>` span, so a trace
//! shows the node tree itself.
//!
//! # A graph is a function of its inputs
//!
//! A graph's answers depend on three inputs its caller names: the
//! [`Technology`], an optional [`Calibration`] table and an optional
//! [`SharedMemo`]. [`with_graph`] runs a closure in this thread's one warm
//! graph when those three match the ones it was built for (technology and
//! table by content fingerprint, the store by `Arc` identity) and
//! replaces it otherwise, so consecutive requests with the same inputs
//! reuse each other's subtrees. Direct callers enter it through
//! [`with_thread_graph`], which names the thread's calibration table (see
//! [`set_thread_calibration`]) and no store; `ape-farm` names each job's
//! technology and table and the farm's own store (`FarmConfig::shared_graph`,
//! on by default), so a farm's jobs memoize in the farm and leave the
//! executor threads' store-less graphs empty. Callers that enter once per
//! job or candidate hash their card once and enter through
//! [`with_graph_fp`].
//!
//! A graph memoizes in one place: in its [`SharedMemo`] when it has one,
//! in its own per-kind memo otherwise. A store is a process-wide, sharded
//! memo that any number of graphs on any threads read and publish to.
//! Because a memoized value is a pure function of its bit-exact
//! fingerprint, a value computed by one thread is bit-identical to what
//! any other thread would have computed — reading through the store
//! cannot change results, only skip work. `ape.graph.<kind>.shared_hit`
//! counts its reuse.

use crate::error::ApeError;
use ape_calib::Calibration;
use ape_mos::fingerprint::Fingerprint;
use ape_mos::sizing::{size_for_gm_id_at, size_for_id_vov_at, SizedMos};
use ape_netlist::{MosModelCard, Technology};
use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-kind memo capacity of every [`EstimationGraph`]: comfortably above
/// what a whole table reproduction touches per node kind, small enough
/// that a million-point sweep cannot grow a worker's graph without bound.
/// When a kind fills up, its whole generation is dropped at once — sound
/// because a recompute is bit-identical to the dropped entry, and per-kind
/// so that churn in one level (e.g. thousands of annealing candidates)
/// cannot evict hot entries at another.
pub const DEFAULT_KIND_CAPACITY: usize = 4096;

/// A node in the estimation graph.
///
/// Implementors condense every input that influences the result into
/// [`fingerprint`](Self::fingerprint) (bit-exactly — use
/// [`Fingerprint::f64`]), and perform the actual design work in
/// [`compute`](Self::compute), recursing into child components through the
/// graph so their results are memoized too.
///
/// The bound technology is *not* part of a node's fingerprint: a graph is
/// constructed for one [`Technology`], and [`with_graph`] replaces the
/// thread's graph whenever the technology fingerprint changes.
pub trait Component {
    /// The memoized result type. Cloned out of the memo on a hit, so keep
    /// it cheap to clone (all APE results are plain data). `Send + Sync`
    /// so values can be published to a cross-thread [`SharedMemo`].
    type Output: Clone + Send + Sync + 'static;

    /// Stable node-kind name, e.g. `"l2.diffpair"`. One kind must map to
    /// one `Output` type; kinds are also the unit of capacity bounding and
    /// per-node statistics.
    fn kind(&self) -> &'static str;

    /// Bit-exact condensation of every input that influences the result.
    fn fingerprint(&self) -> u64;

    /// The kinds of child nodes this component evaluates through the
    /// graph (empty for leaves). Declared statically so reports can show
    /// the DAG shape.
    fn children(&self) -> &'static [&'static str] {
        &[]
    }

    /// Designs/estimates this node from its inputs. Called only on a memo
    /// miss; must be a pure function of the fingerprinted inputs plus the
    /// graph's technology. Child nodes are evaluated in `graph` itself, so
    /// they share its memo, calibration and shared store.
    ///
    /// # Errors
    ///
    /// Propagates the underlying design error. Errors are **not**
    /// memoized — a failing node is recomputed on every request, matching
    /// the old sizing-cache contract.
    fn compute(&self, graph: &EstimationGraph) -> Result<Self::Output, ApeError>;

    /// Applies this node's calibration corrections to a freshly computed
    /// output. Runs between [`compute`](Self::compute) and memoization, so
    /// what the memo holds *is* the calibrated value — sound because the
    /// calibration table's fingerprint folds into every memo key (local
    /// and shared), and an identity table applies no multiplications at
    /// all, keeping bit-identity with uncalibrated evaluation.
    ///
    /// The default is a no-op: L1 sizing nodes share their device models
    /// with the simulator bit-for-bit, so only composition nodes override
    /// this.
    ///
    /// # Errors
    ///
    /// A correction producing a non-finite value must surface as a typed
    /// error ([`ApeError::NonFinite`]); calibrate errors abort evaluation
    /// *before* any memo insert, so a hostile table cannot poison the
    /// memo.
    fn calibrate(&self, _out: &mut Self::Output, _cal: &Calibration) -> Result<(), ApeError> {
        Ok(())
    }
}

/// Per-kind traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Requests answered from the graph's own memo (a graph without a
    /// store).
    pub hits: usize,
    /// Requests answered from the graph's [`SharedMemo`] (a graph with a
    /// store; this or another graph computed the value first).
    pub shared_hits: usize,
    /// Requests that ran [`Component::compute`].
    pub misses: usize,
    /// The subset of misses that hit a kind which already held entries —
    /// i.e. recomputes caused by changed inputs rather than a cold graph.
    /// A graph with a store holds no entries of its own and counts none.
    pub dirty: usize,
    /// Entries dropped to hold the per-kind capacity bound.
    pub evictions: usize,
}

impl NodeStats {
    /// Total requests served.
    pub fn total(&self) -> usize {
        self.hits + self.shared_hits + self.misses
    }

    /// Fraction of requests answered from a memo — local or shared —
    /// (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.hits + self.shared_hits) as f64 / self.total() as f64
        }
    }

    /// Element-wise sum, for aggregating kinds into graph totals.
    #[must_use]
    pub fn merged(&self, other: &NodeStats) -> NodeStats {
        NodeStats {
            hits: self.hits + other.hits,
            shared_hits: self.shared_hits + other.shared_hits,
            misses: self.misses + other.misses,
            dirty: self.dirty + other.dirty,
            evictions: self.evictions + other.evictions,
        }
    }
}

/// Snapshot of one kind's memo state, as returned by
/// [`EstimationGraph::stats`].
#[derive(Debug, Clone)]
pub struct KindStats {
    /// The node kind.
    pub kind: &'static str,
    /// Child kinds the component declared.
    pub children: &'static [&'static str],
    /// Entries currently memoized in the graph's own memo (always 0 for
    /// a graph with a store).
    pub len: usize,
    /// Traffic counters.
    pub stats: NodeStats,
}

struct KindMemo {
    entries: HashMap<u64, Rc<dyn Any>>,
    stats: NodeStats,
    children: &'static [&'static str],
    /// Key prefix for this `(technology, calibration, kind)` triple in the
    /// graph's [`SharedMemo`]; kinds are hashed (not pointer-compared) so
    /// two graphs agree on the tag regardless of where the `&'static str`
    /// lives.
    shared_tag: u64,
    /// `ape.<kind>`: the span every evaluation of this kind opens.
    span: &'static str,
    hit_ctr: &'static str,
    shared_hit_ctr: &'static str,
    miss_ctr: &'static str,
    dirty_ctr: &'static str,
}

impl KindMemo {
    fn new(
        kind: &'static str,
        children: &'static [&'static str],
        tech_fp: u64,
        calib_fp: u64,
    ) -> Self {
        KindMemo {
            entries: HashMap::new(),
            stats: NodeStats::default(),
            children,
            // The calibration fingerprint folds into the tag, so entries
            // published under one table can never answer a lookup under
            // another (re-registering a table invalidates by key, not by
            // flushing).
            shared_tag: Fingerprint::new()
                .u64(tech_fp)
                .u64(calib_fp)
                .str(kind)
                .finish(),
            span: interned(format!("ape.{kind}")),
            hit_ctr: interned(format!("ape.graph.{kind}.hit")),
            shared_hit_ctr: interned(format!("ape.graph.{kind}.shared_hit")),
            miss_ctr: interned(format!("ape.graph.{kind}.miss")),
            dirty_ctr: interned(format!("ape.graph.{kind}.dirty")),
        }
    }
}

/// Returns `name` as a `'static` probe name (a node's span or one of its
/// `ape.graph.<kind>.<event>` counters), leaking each distinct name at
/// most once per process (the set of kinds is small and fixed, so the
/// leak is bounded).
fn interned(name: String) -> &'static str {
    static INTERNED: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let table = INTERNED.get_or_init(|| Mutex::new(HashMap::new()));
    let mut table = match table.lock() {
        Ok(t) => t,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(&s) = table.get(&name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
    table.insert(name, leaked);
    leaked
}

/// Number of independently locked shards in a [`SharedMemo`]. A power of
/// two comfortably above any realistic worker count, so concurrent
/// lookups rarely contend on one lock.
const SHARED_SHARDS: usize = 16;

/// Default total entry capacity of a [`SharedMemo`] (spread over its
/// shards): an order of magnitude above the per-thread default so a
/// service's resident store outlives any single sweep.
pub const DEFAULT_SHARED_CAPACITY: usize = 64 * 1024;

/// Entries one [`SharedMemo`] shard holds before it drops a generation.
const SHARD_CAPACITY: usize = DEFAULT_SHARED_CAPACITY / SHARED_SHARDS;

/// Lifetime counters of a [`SharedMemo`] (monotonic, racy reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedMemoStats {
    /// Lookups answered from the shared store.
    pub hits: u64,
    /// Lookups that found nothing (the caller went on to compute).
    pub misses: u64,
    /// Values published into the store.
    pub inserts: u64,
    /// Entries dropped to hold a shard's capacity bound.
    pub evictions: u64,
}

type SharedShard = HashMap<(u64, u64), Arc<dyn Any + Send + Sync>>;

/// A process-wide, sharded memo store shared by many per-thread
/// [`EstimationGraph`]s.
///
/// Keys are `(shared_tag, fingerprint)` where the tag folds the
/// technology and calibration fingerprints with the node kind, so one
/// store can serve multiple tenants' technologies and tables at once
/// without cross-talk. Values are type-erased `Arc`s; a downcast mismatch
/// (possible only under a hash collision between kinds) is treated as a
/// miss, never an error.
///
/// Sharing is sound for the same reason a graph's own memo is: every
/// value is a pure function of its bit-exact key, so a value computed on
/// any thread is bit-identical to a local recompute. Each of the 16
/// shards holds at most a sixteenth of [`DEFAULT_SHARED_CAPACITY`] and
/// drops its whole generation when full — recomputes repopulate it
/// losslessly.
pub struct SharedMemo {
    shards: Vec<Mutex<SharedShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for SharedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemo")
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for SharedMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedMemo {
    /// An empty store holding at most [`DEFAULT_SHARED_CAPACITY`] entries
    /// across all shards.
    pub fn new() -> Self {
        SharedMemo {
            shards: (0..SHARED_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, tag: u64, fp: u64) -> &Mutex<SharedShard> {
        // Mix both halves so sequential fingerprints spread; the shard
        // count divides the mixed value, not the raw fingerprint.
        let mixed = (tag ^ fp).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 32) as usize % SHARED_SHARDS]
    }

    fn lookup(&self, tag: u64, fp: u64) -> Option<Arc<dyn Any + Send + Sync>> {
        let shard = self.shard(tag, fp);
        let guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        let found = guard.get(&(tag, fp)).cloned();
        drop(guard);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn insert(&self, tag: u64, fp: u64, value: Arc<dyn Any + Send + Sync>) {
        let shard = self.shard(tag, fp);
        let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        if guard.len() >= SHARD_CAPACITY && !guard.contains_key(&(tag, fp)) {
            // Generation drop, same argument as the per-kind memo:
            // recomputes are bit-identical, so no recency bookkeeping.
            let dropped = guard.len() as u64;
            guard.clear();
            self.evictions.fetch_add(dropped, Ordering::Relaxed);
            ape_probe::counter("ape.graph.shared.evict", dropped);
        }
        if guard.insert((tag, fp), value).is_none() {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total entries resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters (racy snapshot).
    pub fn stats(&self) -> SharedMemoStats {
        SharedMemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry and frees the shards' tables (statistics are
    /// kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            *shard.lock().unwrap_or_else(|e| e.into_inner()) = HashMap::new();
        }
    }

    /// One-line human-readable summary.
    pub fn report(&self) -> String {
        let s = self.stats();
        let total = s.hits + s.misses;
        let rate = if total == 0 {
            0.0
        } else {
            100.0 * s.hits as f64 / total as f64
        };
        format!(
            "shared memo: {} entries, {} hits / {} misses ({rate:.1}% hit rate), {} inserts, {} evicted",
            self.len(),
            s.hits,
            s.misses,
            s.inserts,
            s.evictions
        )
    }
}

/// A memoized estimation graph bound to one technology, an optional
/// calibration table and an optional [`SharedMemo`].
///
/// Cheap to create; estimator entry points normally share one per thread
/// via [`with_graph`] so consecutive designs — annealing moves, sweep
/// neighbors — reuse each other's clean subtrees. A graph with a store
/// memoizes only there, so it shares every result with the other graphs
/// over that store; a graph without one memoizes in its own per-kind
/// memo.
pub struct EstimationGraph {
    tech: Technology,
    tech_fp: u64,
    kinds: RefCell<BTreeMap<&'static str, KindMemo>>,
    shared: Option<Arc<SharedMemo>>,
    /// Correction table applied by [`Component::calibrate`]; `None` (and
    /// `calib_fp == 0`) for uncalibrated estimation.
    calib: Option<Arc<Calibration>>,
    calib_fp: u64,
}

impl std::fmt::Debug for EstimationGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstimationGraph")
            .field("tech_fp", &self.tech_fp)
            .field("calib_fp", &self.calib_fp)
            .field("kinds", &self.kinds.borrow().len())
            .field("nodes", &self.len())
            .finish()
    }
}

impl EstimationGraph {
    /// Creates an empty graph for `tech`.
    ///
    /// With `shared`, every node is looked up in and published to that
    /// cross-thread store and nothing is memoized locally; without it, the
    /// graph holds at most [`DEFAULT_KIND_CAPACITY`] results per node kind.
    /// With `calib`, every node applies the table's corrections (see
    /// [`Component::calibrate`]) and the table's content fingerprint folds
    /// into all memo keys.
    pub fn new(
        tech: &Technology,
        shared: Option<Arc<SharedMemo>>,
        calib: Option<Arc<Calibration>>,
    ) -> Self {
        Self::with_fingerprint(tech, tech.fingerprint(), shared, calib)
    }

    /// [`EstimationGraph::new`] with `tech`'s fingerprint already known.
    fn with_fingerprint(
        tech: &Technology,
        tech_fp: u64,
        shared: Option<Arc<SharedMemo>>,
        calib: Option<Arc<Calibration>>,
    ) -> Self {
        EstimationGraph {
            tech: tech.clone(),
            tech_fp,
            kinds: RefCell::new(BTreeMap::new()),
            shared,
            calib_fp: calib.as_ref().map_or(0, |c| c.fingerprint()),
            calib,
        }
    }

    /// The cross-thread store this graph memoizes in, if any.
    pub fn shared_memo(&self) -> Option<&Arc<SharedMemo>> {
        self.shared.as_ref()
    }

    /// The applied calibration table, if any.
    pub fn calibration(&self) -> Option<&Arc<Calibration>> {
        self.calib.as_ref()
    }

    /// The bound technology.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// Fingerprint of the bound technology.
    pub fn technology_fingerprint(&self) -> u64 {
        self.tech_fp
    }

    /// Model card lookup on the bound technology.
    ///
    /// # Errors
    ///
    /// [`ApeError::MissingModel`] when the technology lacks the card.
    pub fn card(&self, pmos: bool) -> Result<&MosModelCard, ApeError> {
        if pmos {
            self.tech.pmos().ok_or(ApeError::MissingModel("PMOS"))
        } else {
            self.tech.nmos().ok_or(ApeError::MissingModel("NMOS"))
        }
    }

    /// Level-1 gm/Id sizing: evaluates a [`SizeForGmId`] node in this
    /// graph.
    ///
    /// # Errors
    ///
    /// Propagates the solver's errors (errors are not memoized).
    pub fn size_gm_id(
        &self,
        pmos: bool,
        gm: f64,
        id: f64,
        l: f64,
        vds: f64,
        vsb: f64,
    ) -> Result<SizedMos, ApeError> {
        self.evaluate(&SizeForGmId {
            pmos,
            gm,
            id,
            l,
            vds,
            vsb,
        })
    }

    /// Level-1 Id/Vov sizing: evaluates a [`SizeForIdVov`] node in this
    /// graph.
    ///
    /// # Errors
    ///
    /// Propagates the solver's errors (errors are not memoized).
    pub fn size_id_vov(
        &self,
        pmos: bool,
        id: f64,
        vov: f64,
        l: f64,
        vds: f64,
        vsb: f64,
    ) -> Result<SizedMos, ApeError> {
        self.evaluate(&SizeForIdVov {
            pmos,
            id,
            vov,
            l,
            vds,
            vsb,
        })
    }

    /// Evaluates `component`, answering from the memo when its
    /// `(kind, fingerprint)` was seen before and computing (then
    /// memoizing) otherwise. The memo is the graph's [`SharedMemo`] when it
    /// has one and its own per-kind memo otherwise, never both. Every call
    /// opens one `ape.<kind>` span that stays open over the compute, so
    /// child nodes — which [`Component::compute`] evaluates through this
    /// same graph — nest under it. No memo borrow is held while the
    /// compute runs.
    ///
    /// # Errors
    ///
    /// Propagates [`Component::compute`]'s error; errors are not memoized.
    pub fn evaluate<C: Component>(&self, component: &C) -> Result<C::Output, ApeError> {
        let fp = component.fingerprint();
        let (_span, shared_tag) = {
            let mut kinds = self.kinds.borrow_mut();
            let memo = self.kind_memo(&mut kinds, component);
            let span = ape_probe::span(memo.span);
            match &self.shared {
                Some(store) => {
                    let found = store.lookup(memo.shared_tag, fp);
                    if let Some(out) = found.and_then(|v| v.downcast_ref::<C::Output>().cloned()) {
                        memo.stats.shared_hits += 1;
                        ape_probe::counter("ape.graph.shared.hit", 1);
                        ape_probe::counter(memo.shared_hit_ctr, 1);
                        return Ok(out);
                    }
                }
                None => {
                    let found = memo.entries.get(&fp);
                    if let Some(out) = found.and_then(|v| v.downcast_ref::<C::Output>()) {
                        memo.stats.hits += 1;
                        ape_probe::counter("ape.graph.hit", 1);
                        ape_probe::counter(memo.hit_ctr, 1);
                        return Ok(out.clone());
                    }
                }
            }
            memo.stats.misses += 1;
            ape_probe::counter("ape.graph.miss", 1);
            ape_probe::counter(memo.miss_ctr, 1);
            if !memo.entries.is_empty() {
                memo.stats.dirty += 1;
                ape_probe::counter("ape.graph.dirty", 1);
                ape_probe::counter(memo.dirty_ctr, 1);
            }
            (span, memo.shared_tag)
        };
        // The memo borrow is released: compute evaluates its child nodes
        // through this same graph.
        let mut out = component.compute(self)?;
        // Corrections apply before memoization so memos hold calibrated
        // values — keys include the table fingerprint, so calibrated and
        // uncalibrated entries can never alias. A calibrate error aborts
        // here, before any insert: hostile tables cannot poison the memo.
        if let Some(cal) = &self.calib {
            component.calibrate(&mut out, cal)?;
        }
        match &self.shared {
            Some(store) => {
                store.insert(shared_tag, fp, Arc::new(out.clone()));
                ape_probe::counter("ape.graph.shared.insert", 1);
            }
            None => {
                let mut kinds = self.kinds.borrow_mut();
                let memo = self.kind_memo(&mut kinds, component);
                Self::insert_local(memo, fp, Rc::new(out.clone()));
            }
        }
        Ok(out)
    }

    /// `component`'s kind memo, created on the kind's first request.
    fn kind_memo<'k, C: Component>(
        &self,
        kinds: &'k mut BTreeMap<&'static str, KindMemo>,
        component: &C,
    ) -> &'k mut KindMemo {
        let kind = component.kind();
        kinds.entry(kind).or_insert_with(|| {
            KindMemo::new(kind, component.children(), self.tech_fp, self.calib_fp)
        })
    }

    fn insert_local(memo: &mut KindMemo, fp: u64, value: Rc<dyn Any>) {
        if memo.entries.len() >= DEFAULT_KIND_CAPACITY && !memo.entries.contains_key(&fp) {
            // Generation drop: recomputes are bit-identical, so clearing
            // the kind wholesale needs no recency bookkeeping.
            let dropped = memo.entries.len();
            memo.entries.clear();
            memo.stats.evictions += dropped;
            ape_probe::counter("ape.graph.evict", dropped as u64);
        }
        memo.entries.insert(fp, value);
    }

    /// Per-kind snapshots, sorted by kind name.
    pub fn stats(&self) -> Vec<KindStats> {
        self.kinds
            .borrow()
            .iter()
            .map(|(kind, memo)| KindStats {
                kind,
                children: memo.children,
                len: memo.entries.len(),
                stats: memo.stats,
            })
            .collect()
    }

    /// Traffic counters summed across all kinds.
    pub fn totals(&self) -> NodeStats {
        self.kinds
            .borrow()
            .values()
            .fold(NodeStats::default(), |acc, memo| acc.merged(&memo.stats))
    }

    /// Total memoized results across all kinds.
    pub fn len(&self) -> usize {
        self.kinds
            .borrow()
            .values()
            .map(|memo| memo.entries.len())
            .sum()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized result (statistics are kept).
    pub fn clear(&self) {
        for memo in self.kinds.borrow_mut().values_mut() {
            memo.entries.clear();
        }
    }

    /// Human-readable per-node traffic summary, e.g.:
    ///
    /// ```text
    /// estimation graph: 3 kinds, 21 nodes, 61 hits / 29 misses (67.8% hit rate), 8 dirty, 0 evicted
    ///   l1.id_vov: 12 nodes, 40 hits / 16 misses, 4 dirty  <- leaf
    ///   l2.diffpair: 2 nodes, 6 hits / 2 misses, 1 dirty  <- l1.gm_id, l1.id_vov
    /// ```
    pub fn report(&self) -> String {
        let totals = self.totals();
        let mut out = format!(
            "estimation graph: {} kinds, {} nodes, {} hits + {} shared / {} misses ({:.1}% hit rate), {} dirty, {} evicted",
            self.kinds.borrow().len(),
            self.len(),
            totals.hits,
            totals.shared_hits,
            totals.misses,
            100.0 * totals.hit_rate(),
            totals.dirty,
            totals.evictions
        );
        for k in self.stats() {
            let deps = if k.children.is_empty() {
                "leaf".to_string()
            } else {
                k.children.join(", ")
            };
            out.push_str(&format!(
                "\n  {}: {} nodes, {} hits + {} shared / {} misses, {} dirty  <- {}",
                k.kind,
                k.len,
                k.stats.hits,
                k.stats.shared_hits,
                k.stats.misses,
                k.stats.dirty,
                deps
            ));
        }
        if let Some(store) = &self.shared {
            out.push('\n');
            out.push_str(&store.report());
        }
        out
    }
}

thread_local! {
    /// This thread's one warm graph. [`with_graph`] reuses it while its
    /// inputs match and replaces it otherwise, so repeated (sub)designs
    /// reuse memoized nodes, as the paper's §4.1 object store does —
    /// generalised to every level.
    static CURRENT: RefCell<Option<Rc<EstimationGraph>>> = const { RefCell::new(None) };
    /// Calibration table [`with_thread_graph`] names for this thread's
    /// direct callers; installed via [`set_thread_calibration`].
    static CALIB_OVERRIDE: RefCell<Option<Arc<Calibration>>> = const { RefCell::new(None) };
}

/// Runs `f` against this thread's graph for the inputs `tech`, `calib` and
/// `store`. The thread keeps one graph: it is reused when all three match
/// the inputs it was built for — the technology and the table by content
/// fingerprint, the store by `Arc` identity — and replaced by a fresh
/// graph otherwise.
///
/// A public estimator entry point enters a graph once per call; the nodes
/// below it evaluate their children in the graph `f` is handed. The slot's
/// borrow is released before `f` runs, so a nested call with the same
/// inputs sees the same graph instance, and a nested call with other
/// inputs replaces the slot while `f` keeps its own graph alive.
pub fn with_graph<R>(
    tech: &Technology,
    calib: Option<&Arc<Calibration>>,
    store: Option<&Arc<SharedMemo>>,
    f: impl FnOnce(&EstimationGraph) -> R,
) -> R {
    with_graph_fp(tech, tech.fingerprint(), calib, store, f)
}

/// [`with_graph`] for a caller that already holds `tech_fp`, which must be
/// `tech.fingerprint()`. Hashing a card walks every model parameter, so a
/// caller that enters the graph once per job or per candidate (a farm, a
/// synthesis run) hashes its card once and passes the fingerprint here.
pub fn with_graph_fp<R>(
    tech: &Technology,
    tech_fp: u64,
    calib: Option<&Arc<Calibration>>,
    store: Option<&Arc<SharedMemo>>,
    f: impl FnOnce(&EstimationGraph) -> R,
) -> R {
    debug_assert_eq!(tech_fp, tech.fingerprint(), "stale technology fingerprint");
    let calib_fp = calib.map_or(0, |c| c.fingerprint());
    let graph = CURRENT.with(|slot| {
        let mut slot = slot.borrow_mut();
        match &*slot {
            Some(g)
                if g.tech_fp == tech_fp
                    && g.calib_fp == calib_fp
                    && g.shared.as_ref().map(Arc::as_ptr) == store.map(Arc::as_ptr) =>
            {
                Rc::clone(g)
            }
            _ => {
                let g = Rc::new(EstimationGraph::with_fingerprint(
                    tech,
                    tech_fp,
                    store.cloned(),
                    calib.cloned(),
                ));
                *slot = Some(Rc::clone(&g));
                g
            }
        }
    });
    f(&graph)
}

/// [`with_graph`] for a direct caller: the thread's calibration table (see
/// [`set_thread_calibration`]) and no store.
pub fn with_thread_graph<R>(tech: &Technology, f: impl FnOnce(&EstimationGraph) -> R) -> R {
    with_graph(tech, thread_calibration().as_ref(), None, f)
}

/// Installs (or removes) the [`Calibration`] that [`with_thread_graph`]
/// names for this thread's direct callers. The current thread graph keeps
/// running until the next [`with_thread_graph`] call notices the
/// fingerprint change and rebuilds — entries under the old table stay
/// keyed to it and can never answer a calibrated lookup (or vice versa).
/// A table whose content fingerprint matches the installed one (say,
/// reloaded from disk) keeps this thread's warm graph.
pub fn set_thread_calibration(calib: Option<Arc<Calibration>>) {
    CALIB_OVERRIDE.with(|c| *c.borrow_mut() = calib);
}

/// The [`Calibration`] [`with_thread_graph`] names on this thread, if any.
pub fn thread_calibration() -> Option<Arc<Calibration>> {
    CALIB_OVERRIDE.with(|c| c.borrow().clone())
}

/// Evaluates independent components as executor tasks, returning results
/// in input order.
///
/// Each task enters [`with_graph`] with `graph`'s technology, calibration
/// table and store on whichever worker runs it, and carries the submitting
/// thread's cancellation token — so concurrent lanes over one store warm
/// each other exactly as sequential evaluation warms later iterations.
/// Because every node is a pure memoized function of its fingerprint,
/// the results are bit-identical to a sequential
/// `components.iter().map(|c| graph.evaluate(c))` loop at any worker
/// count (gated by `graph_equivalence.rs`). On an `Executor::new(0)` pool
/// the scope runs every task inline in input order, in this thread's graph
/// for the same inputs; a single component is evaluated in `graph` itself.
pub fn evaluate_many<C>(
    exec: &ape_exec::Executor,
    graph: &EstimationGraph,
    components: &[C],
) -> Vec<Result<C::Output, ApeError>>
where
    C: Component + Sync,
{
    if components.len() <= 1 {
        return components.iter().map(|c| graph.evaluate(c)).collect();
    }
    ape_probe::counter("ape.graph.evaluate_many", 1);
    ape_probe::counter("ape.graph.evaluate_many_tasks", components.len() as u64);
    let (tech, calib, store) = (&graph.tech, graph.calib.as_ref(), graph.shared.as_ref());
    let token = crate::cancel::current();
    let mut results: Vec<Option<Result<C::Output, ApeError>>> = Vec::new();
    results.resize_with(components.len(), || None);
    exec.scope(|s| {
        for (c, slot) in components.iter().zip(results.iter_mut()) {
            let token = token.clone();
            s.spawn(move || {
                // Carry the submitter's cancellation across the executor
                // boundary; the guard restores the worker's own token.
                let _cancel_guard = token.map(crate::cancel::set_current);
                *slot = Some(with_graph(tech, calib, store, |g| g.evaluate(c)));
            });
        }
    });
    // Every slot is written before `scope` returns; the fallback is
    // unreachable but keeps the collection panic-free.
    results
        .into_iter()
        .map(|r| r.unwrap_or(Err(ApeError::Cancelled)))
        .collect()
}

/// Per-kind snapshots of this thread's graph (empty when none exists
/// yet).
pub fn thread_graph_stats() -> Vec<KindStats> {
    CURRENT.with(|slot| {
        slot.borrow()
            .as_ref()
            .map(|g| g.stats())
            .unwrap_or_default()
    })
}

/// Traffic totals of this thread's graph (zero when none exists yet).
pub fn thread_graph_totals() -> NodeStats {
    CURRENT.with(|slot| {
        slot.borrow()
            .as_ref()
            .map(|g| g.totals())
            .unwrap_or_default()
    })
}

/// Total memoized results in this thread's graph.
pub fn thread_graph_len() -> usize {
    CURRENT.with(|slot| slot.borrow().as_ref().map_or(0, |g| g.len()))
}

/// [`EstimationGraph::report`] for this thread's graph.
pub fn graph_report() -> String {
    CURRENT.with(|slot| match &*slot.borrow() {
        Some(g) => g.report(),
        None => "estimation graph: unused".into(),
    })
}

/// Drops this thread's graph entirely (nodes and statistics).
pub fn reset_thread_graph() {
    CURRENT.with(|slot| *slot.borrow_mut() = None);
}

/// Level-1 node: size a device for a `(gm, Id)` target at explicit biases.
#[derive(Debug, Clone, Copy)]
pub struct SizeForGmId {
    /// `true` for PMOS, `false` for NMOS.
    pub pmos: bool,
    /// Target transconductance, siemens.
    pub gm: f64,
    /// Target drain current, amperes.
    pub id: f64,
    /// Channel length, meters.
    pub l: f64,
    /// Drain-source bias, volts.
    pub vds: f64,
    /// Source-bulk bias, volts.
    pub vsb: f64,
}

impl Component for SizeForGmId {
    type Output = SizedMos;

    fn kind(&self) -> &'static str {
        "l1.gm_id"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .bool(self.pmos)
            .f64(self.gm)
            .f64(self.id)
            .f64(self.l)
            .f64(self.vds)
            .f64(self.vsb)
            .finish()
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<SizedMos, ApeError> {
        let card = graph.card(self.pmos)?;
        size_for_gm_id_at(card, self.gm, self.id, self.l, self.vds, self.vsb)
            .map_err(ApeError::from)
    }
}

/// Level-1 node: size a device for an `(Id, Vov)` target at explicit
/// biases.
#[derive(Debug, Clone, Copy)]
pub struct SizeForIdVov {
    /// `true` for PMOS, `false` for NMOS.
    pub pmos: bool,
    /// Target drain current, amperes.
    pub id: f64,
    /// Target overdrive voltage, volts.
    pub vov: f64,
    /// Channel length, meters.
    pub l: f64,
    /// Drain-source bias, volts.
    pub vds: f64,
    /// Source-bulk bias, volts.
    pub vsb: f64,
}

impl Component for SizeForIdVov {
    type Output = SizedMos;

    fn kind(&self) -> &'static str {
        "l1.id_vov"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .bool(self.pmos)
            .f64(self.id)
            .f64(self.vov)
            .f64(self.l)
            .f64(self.vds)
            .f64(self.vsb)
            .finish()
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<SizedMos, ApeError> {
        let card = graph.card(self.pmos)?;
        size_for_id_vov_at(card, self.id, self.vov, self.l, self.vds, self.vsb)
            .map_err(ApeError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: f64) -> SizeForIdVov {
        SizeForIdVov {
            pmos: false,
            id,
            vov: 0.35,
            l: 2.4e-6,
            vds: 1.2,
            vsb: 0.0,
        }
    }

    /// A trivial leaf whose output is its own key: fills a kind to the
    /// real capacity bounds without running the sizing solver.
    struct Echo(u64);

    impl Component for Echo {
        type Output = u64;

        fn kind(&self) -> &'static str {
            "test.echo"
        }

        fn fingerprint(&self) -> u64 {
            self.0
        }

        fn compute(&self, _graph: &EstimationGraph) -> Result<u64, ApeError> {
            Ok(self.0)
        }
    }

    #[test]
    fn repeat_evaluations_hit() {
        let tech = Technology::default_1p2um();
        let graph = EstimationGraph::new(&tech, None, None);
        let a = graph.evaluate(&node(10e-6)).unwrap();
        let b = graph.evaluate(&node(10e-6)).unwrap();
        assert_eq!(a.geometry, b.geometry);
        let t = graph.totals();
        assert_eq!(t.misses, 1);
        assert_eq!(t.hits, 1);
        assert_eq!(t.dirty, 0);
        assert_eq!(graph.len(), 1);
    }

    #[test]
    fn changed_inputs_are_dirty_recomputes() {
        let tech = Technology::default_1p2um();
        let graph = EstimationGraph::new(&tech, None, None);
        graph.evaluate(&node(10e-6)).unwrap();
        graph.evaluate(&node(20e-6)).unwrap();
        let t = graph.totals();
        assert_eq!(t.misses, 2);
        // The second miss found the kind populated: an input-change
        // recompute, not a cold start.
        assert_eq!(t.dirty, 1);

        // Distinct gm/Id points stay distinct: another gm, and the same
        // point on the other polarity, each solve afresh.
        let a = graph
            .size_gm_id(false, 100e-6, 10e-6, 2.4e-6, 2.5, 0.0)
            .unwrap();
        let b = graph
            .size_gm_id(false, 200e-6, 10e-6, 2.4e-6, 2.5, 0.0)
            .unwrap();
        let c = graph
            .size_gm_id(true, 100e-6, 10e-6, 2.4e-6, 2.5, 0.0)
            .unwrap();
        assert_ne!(a.geometry.w, b.geometry.w);
        assert_ne!(a.geometry.w, c.geometry.w);
        assert_eq!(graph.totals().misses, 5);
    }

    #[test]
    fn memoized_results_are_bit_identical_to_direct_solves() {
        let tech = Technology::default_1p2um();
        let graph = EstimationGraph::new(&tech, None, None);
        let warm = {
            graph.evaluate(&node(50e-6)).unwrap();
            graph.evaluate(&node(50e-6)).unwrap()
        };
        let direct =
            size_for_id_vov_at(tech.nmos().unwrap(), 50e-6, 0.35, 2.4e-6, 1.2, 0.0).unwrap();
        assert_eq!(warm.geometry, direct.geometry);
        assert_eq!(warm.vgs.to_bits(), direct.vgs.to_bits());
    }

    #[test]
    fn errors_are_not_memoized() {
        let tech = Technology::default_1p2um();
        let graph = EstimationGraph::new(&tech, None, None);
        let bad = SizeForGmId {
            pmos: false,
            gm: 1e-6,
            id: 1e-3,
            l: 2.4e-6,
            vds: 2.5,
            vsb: 0.0,
        };
        assert!(graph.evaluate(&bad).is_err());
        assert!(graph.evaluate(&bad).is_err());
        assert_eq!(graph.totals().misses, 2);
        assert!(graph.is_empty());
    }

    #[test]
    fn kind_capacity_drops_a_generation() {
        let tech = Technology::default_1p2um();
        let graph = EstimationGraph::new(&tech, None, None);
        let full = DEFAULT_KIND_CAPACITY as u64;
        for i in 0..=full {
            graph.evaluate(&Echo(i)).unwrap();
            assert!(graph.len() <= DEFAULT_KIND_CAPACITY, "len after insert {i}");
        }
        let t = graph.totals();
        assert_eq!(t.misses, DEFAULT_KIND_CAPACITY + 1);
        // The last insert found the kind full and dropped the whole
        // generation before memoizing itself.
        assert_eq!(t.evictions, DEFAULT_KIND_CAPACITY);
        assert_eq!(graph.len(), 1);
        // Dropped entries recompute...
        graph.evaluate(&Echo(0)).unwrap();
        assert_eq!(graph.totals().misses, DEFAULT_KIND_CAPACITY + 2);
        // ...while the newest (memoized after the drop) still hits.
        assert_eq!(graph.evaluate(&Echo(full)).unwrap(), full);
        assert_eq!(graph.totals().hits, 1);
        assert!(graph.report().contains("evicted"));
    }

    #[test]
    fn eviction_is_per_kind() {
        // Filling one kind must not evict another kind's entries.
        let tech = Technology::default_1p2um();
        let graph = EstimationGraph::new(&tech, None, None);
        let gm_node = SizeForGmId {
            pmos: false,
            gm: 100e-6,
            id: 10e-6,
            l: 2.4e-6,
            vds: 2.5,
            vsb: 0.0,
        };
        graph.evaluate(&gm_node).unwrap();
        for i in 0..=DEFAULT_KIND_CAPACITY as u64 {
            graph.evaluate(&Echo(i)).unwrap();
        }
        // test.echo churned past its bound; l1.gm_id still hits.
        graph.evaluate(&gm_node).unwrap();
        let by_kind = graph.stats();
        let echo = by_kind.iter().find(|k| k.kind == "test.echo").unwrap();
        assert_eq!(echo.stats.evictions, DEFAULT_KIND_CAPACITY);
        let gm = by_kind.iter().find(|k| k.kind == "l1.gm_id").unwrap();
        assert_eq!(gm.stats.hits, 1);
        assert_eq!(gm.stats.evictions, 0);
    }

    #[test]
    fn clear_keeps_stats_and_resets_entries() {
        let tech = Technology::default_1p2um();
        let graph = EstimationGraph::new(&tech, None, None);
        let full = DEFAULT_KIND_CAPACITY as u64;
        for i in 0..full {
            graph.evaluate(&Echo(i)).unwrap();
        }
        graph.clear();
        assert!(graph.is_empty());
        assert_eq!(graph.totals().misses, DEFAULT_KIND_CAPACITY);
        // A cleared kind starts a fresh generation: refilling it to the
        // bound evicts no phantom entries.
        for i in full..2 * full {
            graph.evaluate(&Echo(i)).unwrap();
        }
        assert_eq!(graph.len(), DEFAULT_KIND_CAPACITY);
        assert_eq!(graph.totals().evictions, 0);
    }

    #[test]
    fn thread_graph_is_shared_and_resettable() {
        reset_thread_graph();
        let tech = Technology::default_1p2um();
        let a = with_thread_graph(&tech, |g| g.evaluate(&node(10e-6))).unwrap();
        let b = with_thread_graph(&tech, |g| g.evaluate(&node(10e-6))).unwrap();
        assert_eq!(a.geometry, b.geometry);
        assert_eq!(thread_graph_totals().hits, 1);
        assert!(thread_graph_len() >= 1);
        assert!(graph_report().contains("l1.id_vov"));
        reset_thread_graph();
        assert_eq!(thread_graph_totals().total(), 0);
        assert_eq!(graph_report(), "estimation graph: unused");
    }

    #[test]
    fn technology_change_replaces_the_thread_graph() {
        reset_thread_graph();
        let tech = Technology::default_1p2um();
        with_thread_graph(&tech, |g| g.evaluate(&node(10e-6))).unwrap();
        let mut other = tech.clone();
        other.vdd += 0.5;
        with_thread_graph(&other, |g| {
            assert_eq!(g.technology_fingerprint(), other.fingerprint());
            assert!(g.is_empty());
        });
        reset_thread_graph();
    }

    #[test]
    fn shared_memo_read_through_is_bit_identical() {
        let tech = Technology::default_1p2um();
        let store = Arc::new(SharedMemo::new());
        let a = EstimationGraph::new(&tech, Some(store.clone()), None);
        let b = EstimationGraph::new(&tech, Some(store.clone()), None);
        let cold = a.evaluate(&node(10e-6)).unwrap();
        // Graph `b` never computed this node: it reads through the store.
        let warm = b.evaluate(&node(10e-6)).unwrap();
        assert_eq!(cold.geometry, warm.geometry);
        assert_eq!(cold.vgs.to_bits(), warm.vgs.to_bits());
        assert_eq!(b.totals().shared_hits, 1);
        assert_eq!(b.totals().misses, 0, "no recompute behind the store");
        let s = store.stats();
        assert_eq!(s.inserts, 1);
        assert_eq!(s.hits, 1);
        assert!(store.report().contains("hit rate"));
        // A graph with a store memoizes only there: a second request is
        // another store hit, and nothing is held locally.
        b.evaluate(&node(10e-6)).unwrap();
        assert_eq!(b.totals().shared_hits, 2);
        assert_eq!(store.stats().hits, 2);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn shared_memo_isolates_technologies() {
        let store = Arc::new(SharedMemo::new());
        let tech = Technology::default_1p2um();
        let mut other = tech.clone();
        other.vdd += 0.5;
        let a = EstimationGraph::new(&tech, Some(store.clone()), None);
        let b = EstimationGraph::new(&other, Some(store.clone()), None);
        a.evaluate(&node(10e-6)).unwrap();
        // Same node fingerprint, different technology: must not be served
        // from the other tenant's entry.
        b.evaluate(&node(10e-6)).unwrap();
        assert_eq!(b.totals().shared_hits, 0);
        assert_eq!(b.totals().misses, 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn shared_memo_capacity_drops_generations() {
        let store = Arc::new(SharedMemo::new());
        let tech = Technology::default_1p2um();
        let g = EstimationGraph::new(&tech, Some(store.clone()), None);
        let full = DEFAULT_SHARED_CAPACITY as u64;
        for i in 0..=full {
            g.evaluate(&Echo(i)).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.inserts, full + 1);
        // One more entry than the store holds: by pigeonhole some shard
        // overflowed and dropped a generation, and the store stayed
        // within its bound.
        assert!(s.evictions > 0);
        assert!(store.len() <= DEFAULT_SHARED_CAPACITY);
    }

    #[test]
    fn shared_memo_is_concurrent() {
        let store = Arc::new(SharedMemo::new());
        let tech = Technology::default_1p2um();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let store = store.clone();
            let tech = tech.clone();
            handles.push(std::thread::spawn(move || {
                let g = EstimationGraph::new(&tech, Some(store), None);
                (0..16)
                    .map(|i| g.evaluate(&node((1 + i) as f64 * 5e-6)).unwrap().geometry)
                    .collect::<Vec<_>>()
            }));
        }
        let mut results = handles.into_iter().map(|h| h.join().unwrap());
        let first = results.next().unwrap();
        for r in results {
            assert_eq!(r, first, "all threads see bit-identical geometries");
        }
        let s = store.stats();
        // 64 evaluations of 16 distinct nodes: at most 16 computed fresh
        // per interleaving, and with any overlap some were shared.
        assert_eq!(store.len(), 16);
        assert!(s.inserts >= 16);
    }

    /// The thread's slot is reused only for equal inputs: an equal
    /// technology and an equal-content table find the warm graph, while a
    /// change to any one of technology, table or store builds a fresh one.
    #[test]
    fn with_graph_reuses_the_slot_only_for_equal_inputs() {
        let tech = Technology::default_1p2um();
        let calib = |label| Arc::new(Calibration::identity(tech.fingerprint(), label));
        let (cal, store) = (calib("a"), Arc::new(SharedMemo::new()));
        let mut other_tech = tech.clone();
        other_tech.vdd += 0.5;
        let (other_cal, other_store) = (calib("b"), Arc::new(SharedMemo::new()));
        let requests =
            |t: &Technology, c: Option<&Arc<Calibration>>, s: Option<&Arc<SharedMemo>>| {
                with_graph(t, c, s, |g| g.totals().total())
            };
        for (t, c, s) in [
            (&other_tech, Some(&cal), Some(&store)),
            (&tech, Some(&other_cal), Some(&store)),
            (&tech, None, Some(&store)),
            (&tech, Some(&cal), Some(&other_store)),
            (&tech, Some(&cal), None),
        ] {
            reset_thread_graph();
            with_graph(&tech, Some(&cal), Some(&store), |g| {
                g.evaluate(&node(10e-6))
            })
            .unwrap();
            assert_eq!(requests(&tech.clone(), Some(&calib("a")), Some(&store)), 1);
            assert_eq!(
                requests(t, c, s),
                0,
                "a changed input must build a fresh graph"
            );
        }

        // A graph with a store memoizes only there: repeats are store
        // hits, and nothing is held locally.
        reset_thread_graph();
        with_graph(&tech, None, Some(&other_store), |g| {
            g.evaluate(&node(10e-6)).unwrap();
            g.evaluate(&node(10e-6)).unwrap();
            assert_eq!(g.len(), 0);
            let t = g.totals();
            assert_eq!((t.misses, t.shared_hits, t.hits), (1, 1, 0));
        });
        // Direct callers name no store, whatever the slot held before.
        with_thread_graph(&tech, |g| assert!(g.shared_memo().is_none()));
        reset_thread_graph();
    }

    #[test]
    fn nested_with_thread_graph_reenters_the_same_graph() {
        reset_thread_graph();
        let tech = Technology::default_1p2um();
        with_thread_graph(&tech, |outer| {
            outer.evaluate(&node(10e-6)).unwrap();
            // Re-entry (as an L2 compute would do) must observe the same
            // memo, not deadlock or create a second graph.
            with_thread_graph(&tech, |inner| {
                inner.evaluate(&node(10e-6)).unwrap();
            });
        });
        let t = thread_graph_totals();
        assert_eq!(t.misses, 1);
        assert_eq!(t.hits, 1);
        reset_thread_graph();
    }
}
