//! Device cache: preprocessed router state keyed by content fingerprints.
//!
//! [`SabreRouter::new`] pays the paper's §IV-A preprocessing — a
//! connectivity check plus the distance fill (`N` Dijkstra sweeps on a
//! dense device) — on every call, and the perfect-placement probe
//! re-burns its backtracking budget on every `route()` of a circuit it
//! has already judged. Both costs are
//! per-*device* (respectively per-*interaction-graph*), not per-call, so a
//! service routing heavy traffic against a handful of hot devices should
//! pay them once. [`DeviceCache`] is that layer:
//!
//! - **Router acquisition** ([`DeviceCache::router`],
//!   [`DeviceCache::router_with_noise`]): preprocessed state is cached
//!   under [`CouplingGraph::fingerprint`] (and
//!   [`NoiseModel::fingerprint`] for the weighted matrix); a warm hit
//!   skips the distance fill entirely and hands out a router sharing the
//!   cached matrices via `Arc`.
//! - **Calibration refresh** ([`DeviceCache::refresh_noise`]): when a
//!   device's daily calibration lands, only the noise-weighted matrix is
//!   recomputed — the coupling graph, connectivity verdict, and hop
//!   matrix are reused.
//! - **Embedding verdicts** ([`EmbeddingVerdictCache`]): the probe's
//!   `Found`/`Impossible`/budget-exhausted outcome is cached per
//!   `(device, interaction graph, budget)`, so a non-embeddable circuit's
//!   second `route()` performs zero backtracking steps. The probe still
//!   runs *after* the restart search (see `assemble` in `sabre.rs`), so
//!   the first-traversal telemetry contract is untouched.
//!
//! Cached routing is **bit-identical** to uncached routing for a fixed
//! seed: the cache only ever reuses values the cold path would recompute
//! deterministically. Fingerprints are 64-bit content hashes; every hit
//! additionally verifies structural equality (cheap, `O(E)`) so even a
//! hash collision cannot alias two devices — the colliding entry is
//! simply bypassed.
//!
//! All methods take `&self` behind an [`RwLock`]; share one cache across
//! the rayon pool (or an entire service) with `Arc<DeviceCache>`.
//!
//! # Example
//!
//! ```
//! use sabre::{DeviceCache, SabreConfig};
//! use sabre_benchgen::qft;
//! use sabre_topology::devices;
//!
//! let cache = DeviceCache::new();
//! let tokyo = devices::ibm_q20_tokyo();
//!
//! // Cold: runs the distance preprocessing and caches it.
//! let router = cache.router(tokyo.graph(), SabreConfig::paper())?;
//! let first = router.route(&qft::qft(5))?;
//!
//! // Warm: no distance fill, just Arc clones of the cached state.
//! let router = cache.router(tokyo.graph(), SabreConfig::paper())?;
//! let second = router.route(&qft::qft(5))?;
//! assert_eq!(first.best, second.best);
//! assert_eq!(cache.stats().graph_hits, 1);
//! # Ok::<(), sabre::RouteError>(())
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use sabre_circuit::interaction::InteractionGraph;
use sabre_topology::embedding::{self, Embedding};
use sabre_topology::noise::NoiseModel;
use sabre_topology::{CouplingGraph, Qubit, WeightedDistanceMatrix};

use crate::plan::PlanCache;
use crate::sabre::noise_cost_matrix;
use crate::{RouteError, SabreConfig, SabreRouter};

/// Preprocessed state of one device, built once per coupling-graph
/// fingerprint: everything [`SabreRouter::new`] computes, plus any
/// noise-weighted matrices acquired so far.
#[derive(Debug)]
struct GraphEntry {
    graph: Arc<CouplingGraph>,
    hops: Arc<WeightedDistanceMatrix>,
    /// Noise-weighted matrices keyed by [`NoiseModel::fingerprint`]; the
    /// model is stored alongside for collision verification.
    weighted: RwLock<HashMap<u64, (NoiseModel, Arc<WeightedDistanceMatrix>)>>,
    /// Calibration epoch, bumped by [`DeviceCache::refresh_noise`] so a
    /// concurrently computed matrix for a superseded calibration is not
    /// re-inserted after the refresh cleared it.
    noise_epoch: AtomicU64,
}

impl GraphEntry {
    /// The cold path. Delegates to [`SabreRouter::new`] so the cache can
    /// never drift from the uncached preprocessing — whatever `new`
    /// computes is, by construction, what a miss caches.
    fn build(graph: &CouplingGraph) -> Result<Self, RouteError> {
        let (graph, hops) = SabreRouter::new(graph.clone(), SabreConfig::default())?.into_parts();
        Ok(GraphEntry {
            graph,
            hops,
            weighted: RwLock::new(HashMap::new()),
            noise_epoch: AtomicU64::new(0),
        })
    }
}

/// Counter snapshot from [`DeviceCache::stats`]. Hits are cheap (`Arc`
/// clones); misses paid the full preprocessing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceCacheStats {
    /// Router acquisitions served from a cached graph entry.
    pub graph_hits: u64,
    /// Acquisitions that had to run connectivity + the distance fill.
    pub graph_misses: u64,
    /// Noise-weighted matrix lookups served from cache.
    pub noise_hits: u64,
    /// Noise-weighted matrices computed (including refreshes).
    pub noise_misses: u64,
    /// Perfect-placement probe verdicts served from cache.
    pub embedding_hits: u64,
    /// Probe verdicts computed by backtracking search.
    pub embedding_misses: u64,
}

/// Thread-safe cache of fully preprocessed [`SabreRouter`] state, keyed
/// by device fingerprints. See the [module docs](self) for the design and
/// a usage example; `examples/device_cache.rs`-style service loops simply
/// hold one of these for the life of the process.
#[derive(Debug)]
pub struct DeviceCache {
    entries: RwLock<HashMap<u64, Arc<GraphEntry>>>,
    verdicts: Arc<EmbeddingVerdictCache>,
    plans: PlanCache,
    graph_hits: AtomicU64,
    graph_misses: AtomicU64,
    noise_hits: AtomicU64,
    noise_misses: AtomicU64,
}

impl Default for DeviceCache {
    fn default() -> Self {
        DeviceCache::with_plan_capacity(PlanCache::DEFAULT_CAPACITY)
    }
}

impl DeviceCache {
    /// An empty cache with the default routed-plan capacity
    /// ([`PlanCache::DEFAULT_CAPACITY`]).
    pub fn new() -> Self {
        DeviceCache::default()
    }

    /// An empty cache whose routed-plan layer holds at most `capacity`
    /// plans (`0` disables plan caching entirely — e.g. for workloads
    /// that need strict per-seed output reproducibility).
    pub fn with_plan_capacity(capacity: usize) -> Self {
        DeviceCache {
            entries: RwLock::new(HashMap::new()),
            verdicts: Arc::default(),
            plans: PlanCache::with_capacity(capacity),
            graph_hits: AtomicU64::new(0),
            graph_misses: AtomicU64::new(0),
            noise_hits: AtomicU64::new(0),
            noise_misses: AtomicU64::new(0),
        }
    }

    /// The routed-plan cache layer (see [`PlanCache`]): consult it before
    /// routing a circuit whose structure may have been routed before, and
    /// feed it finished routes so re-parameterized submissions rebind.
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// A router for `graph` with the hop-count heuristic, reusing cached
    /// preprocessing when this device (by content, not identity) has been
    /// seen before. Behaves exactly like [`SabreRouter::new`] — including
    /// its errors — but a warm acquisition is `O(E)` (fingerprint +
    /// structural verification) instead of the full preprocessing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SabreRouter::new`].
    pub fn router(
        &self,
        graph: &CouplingGraph,
        config: SabreConfig,
    ) -> Result<SabreRouter, RouteError> {
        config
            .validate()
            .map_err(|reason| RouteError::InvalidConfig { reason })?;
        let entry = self.entry(graph)?;
        Ok(SabreRouter::from_parts(
            entry.graph.clone(),
            entry.hops.clone(),
            config,
            Some(self.verdicts.clone()),
        ))
    }

    /// A **noise-aware** router ([`SabreRouter::with_noise`] semantics):
    /// the weighted distance matrix is cached per
    /// `(graph, noise)` fingerprint pair, so re-acquiring a router for an
    /// unchanged calibration is free and a changed calibration recomputes
    /// only the weighted closure.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SabreRouter::new`].
    pub fn router_with_noise(
        &self,
        graph: &CouplingGraph,
        config: SabreConfig,
        noise: &NoiseModel,
    ) -> Result<SabreRouter, RouteError> {
        config
            .validate()
            .map_err(|reason| RouteError::InvalidConfig { reason })?;
        let entry = self.entry(graph)?;
        let cost = self.weighted_matrix(&entry, noise);
        Ok(SabreRouter::from_parts(
            entry.graph.clone(),
            cost,
            config,
            Some(self.verdicts.clone()),
        ))
    }

    /// Ingests a fresh calibration for `graph`: recomputes **only** the
    /// noise-weighted matrix (one Dijkstra fill, or a fresh sparse
    /// engine), reusing the cached connectivity verdict, hop matrix, and
    /// embedding verdicts.
    /// Matrices for superseded calibrations are dropped so a long-running
    /// service's memory tracks the number of hot devices, not the number
    /// of calibration epochs.
    ///
    /// Subsequent [`DeviceCache::router_with_noise`] calls with this
    /// `noise` hit the warm path.
    ///
    /// # Errors
    ///
    /// [`RouteError::DisconnectedDevice`] if `graph` is disconnected (when
    /// the device was never cached, refresh builds its entry first).
    pub fn refresh_noise(
        &self,
        graph: &CouplingGraph,
        noise: &NoiseModel,
    ) -> Result<(), RouteError> {
        let entry = self.entry(graph)?;
        let cost = Arc::new(noise_cost_matrix(&entry.graph, noise));
        self.noise_misses.fetch_add(1, Ordering::Relaxed);
        let mut weighted = entry.weighted.write().expect("device cache poisoned");
        // Bump under the write lock: any acquisition that started its
        // computation against the old epoch will see the change and skip
        // re-inserting a superseded calibration.
        entry.noise_epoch.fetch_add(1, Ordering::Release);
        weighted.clear();
        weighted.insert(noise.fingerprint(), (noise.clone(), cost));
        Ok(())
    }

    /// The shared embedding-verdict store attached to every router this
    /// cache hands out.
    pub fn embedding_verdicts(&self) -> &Arc<EmbeddingVerdictCache> {
        &self.verdicts
    }

    /// Number of distinct devices currently cached.
    pub fn len(&self) -> usize {
        self.entries.read().expect("device cache poisoned").len()
    }

    /// Whether no device has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached device, embedding verdict, and routed plan.
    /// Counters are not reset.
    pub fn clear(&self) {
        self.entries.write().expect("device cache poisoned").clear();
        self.verdicts.clear();
        self.plans.clear();
    }

    /// A snapshot of the hit/miss counters (embedding counters come from
    /// the shared verdict store).
    pub fn stats(&self) -> DeviceCacheStats {
        DeviceCacheStats {
            graph_hits: self.graph_hits.load(Ordering::Relaxed),
            graph_misses: self.graph_misses.load(Ordering::Relaxed),
            noise_hits: self.noise_hits.load(Ordering::Relaxed),
            noise_misses: self.noise_misses.load(Ordering::Relaxed),
            embedding_hits: self.verdicts.hits(),
            embedding_misses: self.verdicts.misses(),
        }
    }

    /// The graph entry for `graph`, built on first sight. Preprocessing
    /// runs *outside* the write lock so concurrent misses on different
    /// devices do not serialize; if two threads race on the same device,
    /// the first insert wins and the loser's work is discarded (both are
    /// structurally identical, so results cannot differ).
    fn entry(&self, graph: &CouplingGraph) -> Result<Arc<GraphEntry>, RouteError> {
        let key = graph.fingerprint();
        if let Some(entry) = self
            .entries
            .read()
            .expect("device cache poisoned")
            .get(&key)
        {
            if *entry.graph == *graph {
                self.graph_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(entry.clone());
            }
            // 64-bit fingerprint collision between distinct devices:
            // serve an uncached entry rather than alias them.
            self.graph_misses.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::new(GraphEntry::build(graph)?));
        }
        self.graph_misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(GraphEntry::build(graph)?);
        let mut entries = self.entries.write().expect("device cache poisoned");
        Ok(match entries.entry(key) {
            Entry::Vacant(slot) => slot.insert(built).clone(),
            // Raced with another insert: reuse it only if it really is
            // this device — a fingerprint-colliding different graph must
            // not be served (same guard as the read path above).
            Entry::Occupied(existing) if *existing.get().graph == *graph => existing.get().clone(),
            Entry::Occupied(_) => built,
        })
    }

    /// The weighted matrix for `(entry, noise)`, computed on first sight.
    fn weighted_matrix(
        &self,
        entry: &GraphEntry,
        noise: &NoiseModel,
    ) -> Arc<WeightedDistanceMatrix> {
        let key = noise.fingerprint();
        if let Some((cached_noise, cost)) = entry
            .weighted
            .read()
            .expect("device cache poisoned")
            .get(&key)
        {
            if cached_noise == noise {
                self.noise_hits.fetch_add(1, Ordering::Relaxed);
                return cost.clone();
            }
            // Noise-fingerprint collision: compute without caching.
            self.noise_misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(noise_cost_matrix(&entry.graph, noise));
        }
        self.noise_misses.fetch_add(1, Ordering::Relaxed);
        let epoch = entry.noise_epoch.load(Ordering::Acquire);
        let cost = Arc::new(noise_cost_matrix(&entry.graph, noise));
        let mut weighted = entry.weighted.write().expect("device cache poisoned");
        if entry.noise_epoch.load(Ordering::Acquire) != epoch {
            // A refresh_noise landed while we computed: this calibration
            // may be superseded, so hand it to the caller without caching
            // it (caching would undo the refresh's memory bound).
            return cost;
        }
        match weighted.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert((noise.clone(), cost.clone()));
                cost
            }
            // Raced with another insert: reuse it only for the identical
            // model; a fingerprint-colliding different calibration gets
            // the freshly computed matrix instead.
            Entry::Occupied(existing) if existing.get().0 == *noise => existing.get().1.clone(),
            Entry::Occupied(_) => cost,
        }
    }
}

/// A probe verdict in storable form; [`Embedding`] plus the
/// budget-exhausted case.
#[derive(Clone, Debug)]
enum CachedVerdict {
    /// The probe found this zero-SWAP placement.
    Found(Vec<Option<Qubit>>),
    /// No zero-SWAP placement exists (exact verdict).
    Impossible,
    /// The backtracking budget ran out before a verdict.
    Exhausted,
}

/// Shared store of perfect-placement probe outcomes, keyed by
/// `(device fingerprint, interaction-graph fingerprint, budget)`.
///
/// The budget is part of the key because a verdict is only guaranteed to
/// reproduce the uncached probe bit-for-bit at the *same* budget: a
/// `Found` obtained with a large budget might be unreachable under a
/// smaller one, and an exhaustion verdict says nothing about larger
/// budgets. Keying by device fingerprint makes one store safely shareable
/// across every device in a [`DeviceCache`], and — like the other cache
/// layers — every hit re-verifies the stored pattern and host
/// structurally, so a fingerprint collision degrades to a cache bypass,
/// never a wrong verdict.
///
/// Attach to a standalone router with
/// [`SabreRouter::with_embedding_cache`]:
///
/// ```
/// use std::sync::Arc;
/// use sabre::{cache::EmbeddingVerdictCache, SabreConfig, SabreRouter};
/// use sabre_circuit::{Circuit, Qubit};
/// use sabre_topology::devices;
///
/// let tokyo = devices::ibm_q20_tokyo();
/// let verdicts = Arc::new(EmbeddingVerdictCache::new());
/// let router = SabreRouter::new(tokyo.graph().clone(), SabreConfig::paper())?
///     .with_embedding_cache(verdicts.clone());
///
/// // K5 cannot embed into Tokyo: the first route pays the full
/// // backtracking search, the second reuses the Impossible verdict.
/// let mut k5 = Circuit::new(5);
/// for a in 0..5u32 {
///     for b in (a + 1)..5 {
///         k5.cx(Qubit(a), Qubit(b));
///     }
/// }
/// let first = router.route(&k5)?;
/// assert_eq!(verdicts.misses(), 1);
/// let second = router.route(&k5)?;
/// assert_eq!((verdicts.hits(), verdicts.misses()), (1, 1));
/// assert_eq!(first.best, second.best);
/// # Ok::<(), sabre::RouteError>(())
/// ```
#[derive(Debug, Default)]
pub struct EmbeddingVerdictCache {
    verdicts: RwLock<HashMap<(u64, u64, usize), VerdictEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A stored verdict plus the exact question it answers, so hits can
/// verify they are not serving a fingerprint collision. The host is an
/// `Arc` share of the router's own graph — thousands of verdicts against
/// one device reference a single graph allocation.
#[derive(Clone, Debug)]
struct VerdictEntry {
    pattern: InteractionGraph,
    host: Arc<CouplingGraph>,
    verdict: CachedVerdict,
}

impl EmbeddingVerdictCache {
    /// An empty store.
    pub fn new() -> Self {
        EmbeddingVerdictCache::default()
    }

    /// Drop-in replacement for
    /// [`embedding::find_embedding_within`] that consults the store
    /// first. A hit performs **zero** backtracking steps; a miss runs the
    /// search and records its outcome (including budget exhaustion, which
    /// is just as deterministic and just as expensive to rediscover).
    /// `host` is taken as an `Arc` so stored verdicts share one graph
    /// allocation per device.
    pub fn find_embedding(
        &self,
        pattern: &InteractionGraph,
        host: &Arc<CouplingGraph>,
        budget: usize,
    ) -> Option<Embedding> {
        let key = (host.fingerprint(), pattern.fingerprint(), budget);
        let mut collision = false;
        if let Some(entry) = self
            .verdicts
            .read()
            .expect("verdict cache poisoned")
            .get(&key)
        {
            if entry.pattern == *pattern && entry.host == *host {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return match &entry.verdict {
                    CachedVerdict::Found(map) => Some(Embedding::Found(map.clone())),
                    CachedVerdict::Impossible => Some(Embedding::Impossible),
                    CachedVerdict::Exhausted => None,
                };
            }
            // Fingerprint collision with a different question: answer
            // fresh and leave the stored verdict alone.
            collision = true;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let outcome = embedding::find_embedding_within(pattern, host, budget);
        if !collision {
            let verdict = match &outcome {
                Some(Embedding::Found(map)) => CachedVerdict::Found(map.clone()),
                Some(Embedding::Impossible) => CachedVerdict::Impossible,
                None => CachedVerdict::Exhausted,
            };
            self.verdicts
                .write()
                .expect("verdict cache poisoned")
                .insert(
                    key,
                    VerdictEntry {
                        pattern: pattern.clone(),
                        host: host.clone(),
                        verdict,
                    },
                );
        }
        outcome
    }

    /// Verdicts served from the store.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Verdicts computed by backtracking search.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of stored verdicts.
    pub fn len(&self) -> usize {
        self.verdicts.read().expect("verdict cache poisoned").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored verdict. Counters are not reset.
    pub fn clear(&self) {
        self.verdicts
            .write()
            .expect("verdict cache poisoned")
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_circuit::{Circuit, Qubit};
    use sabre_topology::devices;

    fn chain(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n - 1 {
            c.cx(Qubit(i), Qubit(i + 1));
        }
        c
    }

    #[test]
    fn warm_acquisition_hits_and_routes_identically() {
        let cache = DeviceCache::new();
        let device = devices::ibm_q20_tokyo();
        let config = SabreConfig::paper();
        let cold = cache.router(device.graph(), config).unwrap();
        let warm = cache.router(device.graph(), config).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.graph_hits, stats.graph_misses), (1, 1));
        assert_eq!(cache.len(), 1);

        let c = chain(10);
        let uncached = SabreRouter::new(device.graph().clone(), config).unwrap();
        let reference = uncached.route(&c).unwrap();
        for router in [&cold, &warm] {
            let result = router.route(&c).unwrap();
            assert_eq!(result.best, reference.best);
            assert_eq!(result.traversals, reference.traversals);
        }
    }

    #[test]
    fn structurally_equal_graphs_share_an_entry() {
        let cache = DeviceCache::new();
        let a = CouplingGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        // Same device, scrambled construction order with duplicates.
        let b = CouplingGraph::from_edges(4, [(3, 2), (1, 0), (2, 1), (0, 1)]).unwrap();
        cache.router(&a, SabreConfig::fast()).unwrap();
        cache.router(&b, SabreConfig::fast()).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().graph_hits, 1);
    }

    #[test]
    fn different_graphs_get_different_entries() {
        let cache = DeviceCache::new();
        cache
            .router(devices::linear(5).graph(), SabreConfig::fast())
            .unwrap();
        cache
            .router(devices::ring(5).graph(), SabreConfig::fast())
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().graph_hits, 0);
    }

    #[test]
    fn invalid_inputs_error_like_the_uncached_path() {
        let cache = DeviceCache::new();
        let disconnected = CouplingGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            cache
                .router(&disconnected, SabreConfig::fast())
                .unwrap_err(),
            RouteError::DisconnectedDevice
        );
        assert!(cache.is_empty(), "failures must not be cached");

        let bad_config = SabreConfig {
            num_traversals: 2,
            ..SabreConfig::default()
        };
        assert!(matches!(
            cache.router(devices::linear(3).graph(), bad_config),
            Err(RouteError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn noise_matrices_cache_per_fingerprint() {
        let cache = DeviceCache::new();
        let device = devices::ibm_q20_tokyo();
        let noise_a = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 1);
        let noise_b = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 2);
        cache
            .router_with_noise(device.graph(), SabreConfig::fast(), &noise_a)
            .unwrap();
        cache
            .router_with_noise(device.graph(), SabreConfig::fast(), &noise_a)
            .unwrap();
        cache
            .router_with_noise(device.graph(), SabreConfig::fast(), &noise_b)
            .unwrap();
        let stats = cache.stats();
        assert_eq!((stats.noise_hits, stats.noise_misses), (1, 2));
        // One underlying device entry serves all noise variants.
        assert_eq!((stats.graph_hits, stats.graph_misses), (2, 1));
    }

    #[test]
    fn cached_noise_routing_matches_uncached() {
        let cache = DeviceCache::new();
        let device = devices::ibm_q20_tokyo();
        let noise = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 3);
        let config = SabreConfig::fast();
        let c = chain(8);
        let reference = SabreRouter::with_noise(device.graph().clone(), config, &noise)
            .unwrap()
            .route(&c)
            .unwrap();
        for _ in 0..2 {
            let result = cache
                .router_with_noise(device.graph(), config, &noise)
                .unwrap()
                .route(&c)
                .unwrap();
            assert_eq!(result.best, reference.best);
        }
    }

    #[test]
    fn refresh_noise_replaces_stale_calibrations() {
        let cache = DeviceCache::new();
        let device = devices::ibm_q20_tokyo();
        let old = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 1);
        let new = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 2);
        cache
            .router_with_noise(device.graph(), SabreConfig::fast(), &old)
            .unwrap();
        cache.refresh_noise(device.graph(), &new).unwrap();
        // The refreshed calibration is warm...
        cache
            .router_with_noise(device.graph(), SabreConfig::fast(), &new)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.noise_hits, 1);
        // ...and the graph preprocessing ran exactly once overall.
        assert_eq!(stats.graph_misses, 1);
    }

    #[test]
    fn clear_empties_devices_and_verdicts() {
        let cache = DeviceCache::new();
        let device = devices::ibm_q20_tokyo();
        let router = cache.router(device.graph(), SabreConfig::paper()).unwrap();
        router.route(&chain(6)).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.embedding_verdicts().is_empty());
    }
}
