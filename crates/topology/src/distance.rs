//! Distance preprocessing: dense all-pairs matrices for small devices, an
//! on-demand sparse row engine for kilo-qubit ones.
//!
//! The paper precomputes all-pairs shortest paths with Floyd–Warshall,
//! "acceptable for NISQ devices with hundreds of qubits" (§IV-A). At the
//! 1000+ qubit grids and heavy-hex lattices a production service quotes,
//! the `O(N²)` matrix (and the `O(N³)` fill) stops being acceptable — so
//! one generic row store, [`Distances`], serves both value types
//! ([`DistanceMatrix`] hop counts and [`WeightedDistanceMatrix`] costs)
//! from one of two interchangeable storages:
//!
//! - **Dense** (`N ≤` [`DENSE_DISTANCE_THRESHOLD`]): the classic
//!   row-major `N × N` array. `O(N²)` memory, `O(1)` loads, rows are
//!   plain borrowed slices, filled eagerly by `N` row sweeps.
//! - **Sparse** (above the threshold): no matrix at all. Each requested
//!   row is computed on demand — BFS for hop counts, binary-heap
//!   Dijkstra for weighted costs, `O(E + N log N)` per row — and kept in
//!   a bounded LRU cache ([`ROW_CACHE_CAPACITY`] rows), so memory stays
//!   `O(E + capacity·N)` — flat in the number of *pairs* — while a
//!   router's hot loop (which revisits a small working set of front-layer
//!   rows) still sees `O(1)`-amortized loads.
//!
//! Both storages produce **bit-identical values**: the dense fill and the
//! sparse engine call the same per-source row producer, so a row is the
//! same `Vec` either way, and routing on top of them is reproducible
//! across backends. The `auto` constructors pick the storage by device
//! size; everything downstream (router, cache, service) goes through
//! them. Floyd–Warshall survives only as the reference the row producers
//! are tested against.

use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::ops::{Add, Deref};
use std::sync::{Arc, Mutex};

use crate::{CouplingGraph, Qubit};

/// Devices up to this many qubits use the dense all-pairs backend in the
/// [`DistanceMatrix::auto`] / [`WeightedDistanceMatrix::auto`] policies;
/// larger devices get the sparse on-demand engine.
///
/// At 128 qubits a dense `f64` matrix costs ~128 KiB and fills in well
/// under a millisecond — comfortably the faster choice, with zero
/// per-lookup overhead. At 1089 qubits (grid 33×33) it is ~9 MiB, and at
/// 10⁴ qubits ~760 MiB — the regime the sparse engine exists for.
/// Callers that want to force a backend regardless of size use
/// [`DistanceBackend`] with the `with_backend` constructors.
pub const DENSE_DISTANCE_THRESHOLD: u32 = 128;

/// Rows held by a sparse engine's LRU cache. Bounds sparse-backend
/// memory at `O(`[`ROW_CACHE_CAPACITY`]`·N)` regardless of how many
/// distinct sources are queried; eviction recomputes on the next touch
/// (one BFS/Dijkstra, `O(E + N log N)`) and can never change a value.
///
/// Sized to cover the router's working set: during a routing pass the
/// queried sources are the physical positions of active gate operands,
/// so a deep circuit over a few hundred logical qubits keeps a few
/// hundred rows hot. 1024 rows cost 8 KiB per kilo-qubit of device per
/// row — ~9 MiB fully populated on a 1089-qubit grid — while a cache
/// smaller than the working set degrades into recomputing a row per
/// lookup (measured ~50× slower routing at 256 rows on grid 33×33).
pub const ROW_CACHE_CAPACITY: usize = 1024;

/// Backend selection for the distance constructors: the automatic
/// size-thresholded policy, or an explicit override (equivalence tests
/// pin sparse routing against dense with this; benchmarks force either
/// side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistanceBackend {
    /// Dense below [`DENSE_DISTANCE_THRESHOLD`] qubits, sparse above —
    /// what every production path uses.
    Auto,
    /// Always materialize the `O(N²)` matrix.
    Dense,
    /// Always use the on-demand row engine, even on tiny devices.
    Sparse,
}

impl DistanceBackend {
    /// Resolves the policy for a device of `num_qubits` qubits: `true`
    /// means the sparse engine.
    pub fn prefers_sparse(self, num_qubits: u32) -> bool {
        match self {
            DistanceBackend::Auto => num_qubits > DENSE_DISTANCE_THRESHOLD,
            DistanceBackend::Dense => false,
            DistanceBackend::Sparse => true,
        }
    }
}

/// One distance row `D[a][·]`, indexed by physical qubit — the return
/// type of [`Distances::row`].
///
/// Dereferences to `&[T]`, so `row[q.index()]`, `row.iter()`, and every
/// other slice operation work unchanged whichever backend produced it.
/// Dense backends lend their row as a zero-copy borrow; the sparse
/// engine hands out a shared handle to the cached row, which keeps the
/// row alive (and multiple rows usable side by side, as the router's
/// two-row delta scorer requires) even if the LRU cache evicts it
/// concurrently.
#[derive(Clone, Debug)]
pub struct DistanceRow<'a, T> {
    repr: RowRepr<'a, T>,
}

#[derive(Clone, Debug)]
enum RowRepr<'a, T> {
    /// A zero-copy view into a dense backend's row-major storage.
    Borrowed(&'a [T]),
    /// A shared handle to a sparse engine's cached row.
    Shared(Arc<[T]>),
}

impl<T> Deref for DistanceRow<'_, T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.repr {
            RowRepr::Borrowed(slice) => slice,
            RowRepr::Shared(arc) => arc,
        }
    }
}

/// A bounded LRU of computed rows keyed by source qubit. Values are
/// `Arc`-shared so eviction is safe while callers still hold a
/// [`DistanceRow`]. Pure cache: hit/miss state never affects the values
/// anyone observes.
#[derive(Debug)]
struct RowCache<T> {
    tick: u64,
    rows: HashMap<u32, (u64, Arc<[T]>)>,
}

impl<T> RowCache<T> {
    fn new() -> Self {
        RowCache {
            tick: 0,
            rows: HashMap::new(),
        }
    }

    fn fetch(&mut self, source: u32, compute: impl FnOnce() -> Vec<T>) -> Arc<[T]> {
        self.tick += 1;
        let tick = self.tick;
        if let Some((stamp, row)) = self.rows.get_mut(&source) {
            *stamp = tick;
            return Arc::clone(row);
        }
        let row: Arc<[T]> = compute().into();
        if self.rows.len() >= ROW_CACHE_CAPACITY {
            // Evict the least-recently used row. Ticks are unique, so the
            // victim is deterministic; the row itself stays alive for any
            // caller still holding its Arc.
            if let Some(&victim) = self
                .rows
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k)
            {
                self.rows.remove(&victim);
            }
        }
        self.rows.insert(source, (tick, Arc::clone(&row)));
        row
    }
}

/// A value type a [`Distances`] store can hold: it supplies its row
/// producer and its unreachable sentinel; everything else is shared.
/// Implemented for `u32` (hop counts, BFS rows) and `f64` (weighted
/// costs, Dijkstra rows) only; not exported, so no other type can.
pub trait DistanceValue:
    Copy + Default + PartialOrd + Add<Output = Self> + fmt::Debug + 'static
{
    /// Marks an unreachable pair.
    const UNREACHABLE: Self;

    /// What a row sweep needs besides the graph: nothing for hop counts,
    /// the packed per-edge weights for costs.
    type Weights: Clone + fmt::Debug;

    /// All distances from `source`, indexed by physical qubit.
    fn row(graph: &CouplingGraph, weights: &Self::Weights, source: Qubit) -> Vec<Self>;

    /// `source`'s row through the sparse engine's LRU. Each value type
    /// forwards to the one generic fetch, so that fetch is compiled in
    /// this crate rather than inside the router's: routing on a
    /// 1089-qubit grid measured ~4% slower with the latter.
    fn cached_row(engine: &SparseRows<Self>, source: Qubit) -> Arc<[Self]>;
}

impl DistanceValue for u32 {
    const UNREACHABLE: u32 = u32::MAX;
    type Weights = ();

    fn row(graph: &CouplingGraph, _: &(), source: Qubit) -> Vec<u32> {
        graph.bfs_distances(source)
    }

    fn cached_row(engine: &SparseRows<u32>, source: Qubit) -> Arc<[u32]> {
        engine.fetch(source)
    }
}

impl DistanceValue for f64 {
    const UNREACHABLE: f64 = f64::INFINITY;
    /// Weight of each coupling, indexed by [`CouplingGraph::edge_index`].
    type Weights = Arc<[f64]>;

    fn row(graph: &CouplingGraph, weights: &Arc<[f64]>, source: Qubit) -> Vec<f64> {
        dijkstra_row(graph, weights, source)
    }

    fn cached_row(engine: &SparseRows<f64>, source: Qubit) -> Arc<[f64]> {
        engine.fetch(source)
    }
}

/// Min-heap entry for Dijkstra: ordered by cost ascending, ties broken
/// by qubit index ascending, via reversed `Ord` under `BinaryHeap`'s
/// max-heap semantics. `total_cmp` keeps the order total (costs pushed
/// are always finite, but the heap should not be the place that panics).
struct HeapEntry {
    cost: f64,
    node: Qubit,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cost.total_cmp(&other.cost).is_eq() && self.node == other.node
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

/// One Dijkstra sweep from `source` over per-edge weights: the `f64` row
/// producer, so the dense fill and the sparse engine yield bit-identical
/// rows. `O(E + N log N)` with a binary heap.
fn dijkstra_row(graph: &CouplingGraph, edge_weights: &[f64], source: Qubit) -> Vec<f64> {
    let n = graph.num_qubits() as usize;
    let mut dist = vec![f64::INFINITY; n];
    if n == 0 {
        return dist;
    }
    dist[source.index()] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry {
        cost: 0.0,
        node: source,
    });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node.index()] {
            continue; // stale entry: a cheaper path was already settled
        }
        let neighbors = graph.neighbors(node);
        let edge_ids = graph.neighbor_edge_ids(node);
        for (&nb, &eid) in neighbors.iter().zip(edge_ids) {
            let next = cost + edge_weights[eid as usize];
            if next < dist[nb.index()] {
                dist[nb.index()] = next;
                heap.push(HeapEntry {
                    cost: next,
                    node: nb,
                });
            }
        }
    }
    dist
}

/// Evaluates, validates, and packs a weight closure into the per-edge-id
/// array the weighted constructors consume.
///
/// # Panics
///
/// Panics if a weight is negative or non-finite.
fn pack_edge_weights<F>(graph: &CouplingGraph, mut weight: F) -> Vec<f64>
where
    F: FnMut(Qubit, Qubit) -> f64,
{
    graph
        .edges()
        .iter()
        .map(|&(a, b)| {
            let w = weight(a, b);
            assert!(
                w.is_finite() && w >= 0.0,
                "edge weights must be finite and ≥ 0"
            );
            w
        })
        .collect()
}

/// All-pairs shortest-path distances over a device, generic in the value
/// type: [`DistanceMatrix`] (`u32` hops) and [`WeightedDistanceMatrix`]
/// (`f64` costs) are its two instantiations.
///
/// Small devices store the dense row-major matrix, large ones answer
/// from the sparse on-demand engine (see the module docs). Values are
/// identical either way; the `auto` constructors pick for you.
#[derive(Debug)]
pub struct Distances<T: DistanceValue> {
    n: usize,
    store: Store<T>,
}

#[derive(Debug)]
enum Store<T: DistanceValue> {
    /// Row-major `n × n`; `T::UNREACHABLE` marks unreachable pairs.
    Dense(Vec<T>),
    /// Boxed so `&Distances` holds no interior mutability inline: the
    /// compiler then knows a sparse row fetch cannot change the variant,
    /// and keeps the scorer's running sums in registers across it.
    Sparse(Box<SparseRows<T>>),
}

/// The on-demand engine: the graph and weights a row sweep needs, plus
/// an LRU of the rows computed so far. `O(N + E)` resident. Public only
/// so [`DistanceValue::cached_row`] can name it; not exported.
#[derive(Debug)]
pub struct SparseRows<T: DistanceValue> {
    graph: CouplingGraph,
    weights: T::Weights,
    cache: Mutex<RowCache<T>>,
}

impl<T: DistanceValue> SparseRows<T> {
    fn new(graph: CouplingGraph, weights: T::Weights) -> Box<Self> {
        Box::new(SparseRows {
            graph,
            weights,
            cache: Mutex::new(RowCache::new()),
        })
    }

    fn fetch(&self, a: Qubit) -> Arc<[T]> {
        let mut cache = self.cache.lock().expect("row cache poisoned");
        cache.fetch(a.0, || T::row(&self.graph, &self.weights, a))
    }
}

impl<T: DistanceValue> Distances<T> {
    /// The one constructor behind every production path: the dense fill
    /// (`N` row sweeps) or the empty sparse engine, chosen by `backend`.
    fn build(graph: &CouplingGraph, weights: T::Weights, backend: DistanceBackend) -> Self {
        let n = graph.num_qubits() as usize;
        let store = if backend.prefers_sparse(graph.num_qubits()) {
            Store::Sparse(SparseRows::new(graph.clone(), weights))
        } else {
            let mut data = Vec::with_capacity(n * n);
            for q in 0..n {
                data.extend_from_slice(&T::row(graph, &weights, Qubit(q as u32)));
            }
            Store::Dense(data)
        };
        Distances { n, store }
    }

    /// Dense Floyd–Warshall closure over the coupling values `edges`
    /// (one per [`CouplingGraph::edges`] entry, in order), exactly as
    /// the paper prescribes in §IV-A. `O(N³)` time, `O(N²)` memory: the
    /// reference the row producers are tested against.
    fn floyd_warshall_over(graph: &CouplingGraph, edges: impl IntoIterator<Item = T>) -> Self {
        let n = graph.num_qubits() as usize;
        let mut data = vec![T::UNREACHABLE; n * n];
        for i in 0..n {
            data[i * n + i] = T::default();
        }
        for (&(a, b), w) in graph.edges().iter().zip(edges) {
            data[a.index() * n + b.index()] = w;
            data[b.index() * n + a.index()] = w;
        }
        for k in 0..n {
            for i in 0..n {
                let dik = data[i * n + k];
                if dik == T::UNREACHABLE {
                    continue;
                }
                for j in 0..n {
                    let dkj = data[k * n + j];
                    if dkj == T::UNREACHABLE {
                        continue;
                    }
                    let through_k = dik + dkj;
                    if through_k < data[i * n + j] {
                        data[i * n + j] = through_k;
                    }
                }
            }
        }
        Distances {
            n,
            store: Store::Dense(data),
        }
    }

    /// `true` when this matrix answers from the sparse on-demand engine
    /// (no `O(N²)` allocation exists).
    pub fn is_sparse(&self) -> bool {
        matches!(self.store, Store::Sparse(_))
    }

    /// Number of qubits the matrix covers.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The distance `D[a][b]` (`UNREACHABLE` when no path exists), read
    /// through [`Distances::row`]. Dense: one indexed load. Sparse: a row
    /// fetch (`O(1)` amortized on the LRU, one sweep on a miss) plus a
    /// load.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range, on either backend.
    #[inline]
    pub fn get(&self, a: Qubit, b: Qubit) -> T {
        self.row(a)[b.index()]
    }

    /// Row `D[a][·]` indexed by physical qubit — the hot-path view: the
    /// router's delta scorer resolves every candidate SWAP against one or
    /// two rows, so a row handle turns the inner loop into contiguous
    /// indexed loads. Dense rows are zero-copy borrows; sparse rows are
    /// shared handles served from the LRU (`O(1)` amortized, one sweep
    /// on a cold source).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[inline]
    pub fn row(&self, a: Qubit) -> DistanceRow<'_, T> {
        let repr = match &self.store {
            Store::Dense(data) => {
                RowRepr::Borrowed(&data[a.index() * self.n..(a.index() + 1) * self.n])
            }
            Store::Sparse(engine) => RowRepr::Shared(T::cached_row(engine, a)),
        };
        DistanceRow { repr }
    }

    /// Rows currently resident in the sparse engine's LRU (always `0` for
    /// dense backends) — observability for memory-ceiling tests; never
    /// exceeds [`ROW_CACHE_CAPACITY`].
    pub fn cached_rows(&self) -> usize {
        match &self.store {
            Store::Dense(_) => 0,
            Store::Sparse(engine) => engine.cache.lock().expect("row cache poisoned").rows.len(),
        }
    }
}

impl<T: DistanceValue> Clone for Distances<T> {
    /// Cloning a sparse matrix clones the graph and weights and starts an
    /// empty row cache — cache state is pure acceleration, so the clone
    /// observes identical values from the first query.
    fn clone(&self) -> Self {
        let store = match &self.store {
            Store::Dense(data) => Store::Dense(data.clone()),
            Store::Sparse(engine) => Store::Sparse(SparseRows::new(
                engine.graph.clone(),
                engine.weights.clone(),
            )),
        };
        Distances { n: self.n, store }
    }
}

impl<T: DistanceValue> PartialEq for Distances<T> {
    /// Semantic equality: same size and same distance for every pair,
    /// regardless of backend. Comparing a sparse matrix materializes its
    /// rows (`O(N·E)`) — intended for tests, not hot paths.
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n {
            return false;
        }
        match (&self.store, &other.store) {
            (Store::Dense(a), Store::Dense(b)) => a == b,
            _ => (0..self.n).all(|q| {
                let q = Qubit(q as u32);
                *self.row(q) == *other.row(q)
            }),
        }
    }
}

/// All-pairs shortest-path distances `D[][]` in SWAP hops (paper §IV-A).
///
/// `D[i][j]` equals the number of SWAPs needed to make qubits sitting on
/// `Q_i` and `Q_j` adjacent, plus one (the paper ignores the constant
/// offset, §IV-D1, and so do we — only relative order matters to the
/// heuristic). Rows are BFS sweeps.
///
/// # Example
///
/// ```
/// use sabre_topology::{CouplingGraph, DistanceMatrix, Qubit};
///
/// let line = CouplingGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
/// let d = DistanceMatrix::auto(&line); // 4 qubits → dense
/// assert!(!d.is_sparse());
/// assert_eq!(d.get(Qubit(0), Qubit(3)), 3);
/// assert_eq!(d.get(Qubit(2), Qubit(2)), 0);
/// ```
pub type DistanceMatrix = Distances<u32>;

impl DistanceMatrix {
    /// Sentinel for unreachable pairs.
    pub const UNREACHABLE: u32 = <u32 as DistanceValue>::UNREACHABLE;

    /// Dense all-pairs matrix via Floyd–Warshall, exactly as the paper
    /// prescribes in §IV-A. `O(N³)` time, `O(N²)` memory — fine for the
    /// paper's 20-qubit Tokyo, not for kilo-qubit lattices; prefer
    /// [`DistanceMatrix::auto`] unless you specifically want this
    /// algorithm.
    pub fn floyd_warshall(graph: &CouplingGraph) -> Self {
        Self::floyd_warshall_over(graph, std::iter::repeat(1))
    }

    /// Dense all-pairs matrix via `N` breadth-first searches, `O(N·E)`
    /// time, `O(N²)` memory — the eager twin of
    /// [`DistanceMatrix::sparse`].
    pub fn bfs(graph: &CouplingGraph) -> Self {
        Self::with_backend(graph, DistanceBackend::Dense)
    }

    /// The sparse on-demand engine: no matrix, rows BFS-computed per
    /// source and LRU-cached. `O(N + E)` resident plus at most
    /// [`ROW_CACHE_CAPACITY`] cached rows; `O(E)` per row miss, `O(1)`
    /// per hit. Values are bit-identical to [`DistanceMatrix::bfs`].
    pub fn sparse(graph: &CouplingGraph) -> Self {
        Self::with_backend(graph, DistanceBackend::Sparse)
    }

    /// The production policy: dense ([`DistanceMatrix::bfs`]) up to
    /// [`DENSE_DISTANCE_THRESHOLD`] qubits, [`DistanceMatrix::sparse`]
    /// above.
    pub fn auto(graph: &CouplingGraph) -> Self {
        Self::with_backend(graph, DistanceBackend::Auto)
    }

    /// Constructs with an explicit backend choice — the override knob the
    /// auto policy's threshold is measured against.
    pub fn with_backend(graph: &CouplingGraph, backend: DistanceBackend) -> Self {
        Self::build(graph, (), backend)
    }

    /// `true` when `a` and `b` are distinct and directly coupled.
    #[inline]
    pub fn adjacent(&self, a: Qubit, b: Qubit) -> bool {
        self.get(a, b) == 1
    }

    /// Whether every pair is reachable. Dense: one `O(N²)` scan. Sparse:
    /// a single BFS connectivity check, `O(N + E)` — no rows are
    /// materialized or cached.
    pub fn all_finite(&self) -> bool {
        match &self.store {
            Store::Dense(data) => !data.contains(&Self::UNREACHABLE),
            Store::Sparse(engine) => engine.graph.is_connected(),
        }
    }

    /// Largest finite distance (the diameter when connected). Dense: one
    /// `O(N²)` scan. Sparse: streams one BFS per source (`O(N·E)` time,
    /// `O(N)` memory) without touching the row cache.
    pub fn max_finite(&self) -> u32 {
        let finite_max = |row: &[u32]| {
            row.iter()
                .copied()
                .filter(|&d| d != Self::UNREACHABLE)
                .max()
                .unwrap_or(0)
        };
        match &self.store {
            Store::Dense(data) => finite_max(data),
            Store::Sparse(engine) => (0..self.n)
                .map(|q| finite_max(&engine.graph.bfs_distances(Qubit(q as u32))))
                .max()
                .unwrap_or(0),
        }
    }
}

impl Eq for DistanceMatrix {}

/// All-pairs shortest paths over **weighted** edges (`f64` costs), used
/// by the router and the noise-aware extension: edge weights are
/// per-coupling SWAP costs in the log-fidelity domain, so a path's total
/// weight is the (negated log) fidelity of swapping along it. Rows are
/// Dijkstra sweeps over the packed edge weights; unreachable pairs are
/// `f64::INFINITY`.
pub type WeightedDistanceMatrix = Distances<f64>;

impl WeightedDistanceMatrix {
    /// Dense Floyd–Warshall over arbitrary non-negative edge weights
    /// supplied by `weight(a, b)` for each coupling. `O(N³)` time,
    /// `O(N²)` memory. Kept as the reference all-pairs algorithm (tests
    /// pin the Dijkstra rows against it); production paths go through
    /// [`WeightedDistanceMatrix::auto`].
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or non-finite.
    pub fn floyd_warshall<F>(graph: &CouplingGraph, weight: F) -> Self
    where
        F: FnMut(Qubit, Qubit) -> f64,
    {
        Self::floyd_warshall_over(graph, pack_edge_weights(graph, weight))
    }

    /// Dense all-pairs matrix built from `N` per-source Dijkstra sweeps,
    /// `O(N·(E + N log N))` time, `O(N²)` memory — the eager twin of
    /// [`WeightedDistanceMatrix::sparse`], so crossing the threshold
    /// never changes a value's bits.
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or non-finite.
    pub fn dijkstra<F>(graph: &CouplingGraph, weight: F) -> Self
    where
        F: FnMut(Qubit, Qubit) -> f64,
    {
        Self::with_backend(graph, weight, DistanceBackend::Dense)
    }

    /// The sparse on-demand engine: per-edge weights packed by edge id,
    /// Dijkstra rows computed per source and LRU-cached. `O(N + E)`
    /// resident plus at most [`ROW_CACHE_CAPACITY`] cached rows;
    /// `O(E + N log N)` per row miss, `O(1)` per hit.
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or non-finite.
    pub fn sparse<F>(graph: &CouplingGraph, weight: F) -> Self
    where
        F: FnMut(Qubit, Qubit) -> f64,
    {
        Self::with_backend(graph, weight, DistanceBackend::Sparse)
    }

    /// The production policy: dense ([`WeightedDistanceMatrix::dijkstra`])
    /// up to [`DENSE_DISTANCE_THRESHOLD`] qubits,
    /// [`WeightedDistanceMatrix::sparse`] above.
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or non-finite.
    pub fn auto<F>(graph: &CouplingGraph, weight: F) -> Self
    where
        F: FnMut(Qubit, Qubit) -> f64,
    {
        Self::with_backend(graph, weight, DistanceBackend::Auto)
    }

    /// Constructs with an explicit backend choice.
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or non-finite.
    pub fn with_backend<F>(graph: &CouplingGraph, weight: F, backend: DistanceBackend) -> Self
    where
        F: FnMut(Qubit, Qubit) -> f64,
    {
        Self::build(graph, pack_edge_weights(graph, weight).into(), backend)
    }

    /// Builds the unweighted (hop-count) matrix as `f64` by dense
    /// Floyd–Warshall. Prefer [`WeightedDistanceMatrix::auto`] with a
    /// constant weight for size-aware construction (hop distances are
    /// integer-valued `f64`s, so every construction path agrees
    /// bit-for-bit).
    pub fn hops(graph: &CouplingGraph) -> Self {
        Self::floyd_warshall(graph, |_, _| 1.0)
    }
}

impl fmt::Display for DistanceMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "distance matrix ({} qubits):", self.n)?;
        for i in 0..self.n {
            for &d in self.row(Qubit(i as u32)).iter() {
                if d == Self::UNREACHABLE {
                    write!(f, "  ∞")?;
                } else {
                    write!(f, " {d:2}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> CouplingGraph {
        CouplingGraph::from_edges(4, [(0, 1), (1, 3), (3, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn identity_diagonal() {
        let d = DistanceMatrix::floyd_warshall(&square());
        for i in 0..4 {
            assert_eq!(d.get(Qubit(i), Qubit(i)), 0);
        }
    }

    #[test]
    fn edges_have_distance_one() {
        let g = square();
        let d = DistanceMatrix::floyd_warshall(&g);
        for &(a, b) in g.edges() {
            assert_eq!(d.get(a, b), 1);
            assert!(d.adjacent(a, b));
        }
    }

    #[test]
    fn diagonal_of_square_is_two() {
        let d = DistanceMatrix::floyd_warshall(&square());
        assert_eq!(d.get(Qubit(0), Qubit(3)), 2);
        assert_eq!(d.get(Qubit(1), Qubit(2)), 2);
    }

    #[test]
    fn symmetry() {
        let d = DistanceMatrix::floyd_warshall(&square());
        for i in 0..4u32 {
            for j in 0..4u32 {
                assert_eq!(d.get(Qubit(i), Qubit(j)), d.get(Qubit(j), Qubit(i)));
            }
        }
    }

    #[test]
    fn triangle_inequality_on_line() {
        let g = CouplingGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let d = DistanceMatrix::floyd_warshall(&g);
        for i in 0..5u32 {
            for j in 0..5u32 {
                for k in 0..5u32 {
                    assert!(
                        d.get(Qubit(i), Qubit(j))
                            <= d.get(Qubit(i), Qubit(k)) + d.get(Qubit(k), Qubit(j))
                    );
                }
            }
        }
    }

    #[test]
    fn floyd_warshall_matches_bfs() {
        let g = CouplingGraph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4),
            ],
        )
        .unwrap();
        assert_eq!(DistanceMatrix::floyd_warshall(&g), DistanceMatrix::bfs(&g));
    }

    #[test]
    fn sparse_matches_dense_semantically() {
        let g = CouplingGraph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4),
            ],
        )
        .unwrap();
        let dense = DistanceMatrix::bfs(&g);
        let sparse = DistanceMatrix::sparse(&g);
        assert!(sparse.is_sparse());
        assert!(!dense.is_sparse());
        assert_eq!(dense, sparse);
        assert_eq!(sparse, dense);
        for i in 0..7u32 {
            for j in 0..7u32 {
                assert_eq!(
                    sparse.get(Qubit(i), Qubit(j)),
                    dense.get(Qubit(i), Qubit(j))
                );
            }
        }
    }

    #[test]
    fn auto_policy_follows_threshold() {
        let small = square();
        assert!(!DistanceMatrix::auto(&small).is_sparse());
        assert!(DistanceMatrix::with_backend(&small, DistanceBackend::Sparse).is_sparse());
        assert!(!WeightedDistanceMatrix::auto(&small, |_, _| 1.0).is_sparse());
        // A ring just above the threshold flips to sparse.
        let n = DENSE_DISTANCE_THRESHOLD + 1;
        let big = CouplingGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap();
        assert!(DistanceMatrix::auto(&big).is_sparse());
        assert!(WeightedDistanceMatrix::auto(&big, |_, _| 1.0).is_sparse());
    }

    /// A line of `n` qubits, long enough to overflow the row cache.
    fn long_line(n: u32) -> CouplingGraph {
        CouplingGraph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn sparse_row_cache_is_bounded() {
        fn check<T: DistanceValue>(d: Distances<T>, n: u32, far: T) {
            for q in 0..n {
                let _ = d.get(Qubit(q), Qubit(0));
            }
            assert_eq!(d.cached_rows(), ROW_CACHE_CAPACITY);
            // Eviction never changes values: re-query the very first source.
            assert_eq!(d.get(Qubit(0), Qubit(n - 1)), far);
        }
        let n = (ROW_CACHE_CAPACITY + 200) as u32;
        let g = long_line(n);
        check(DistanceMatrix::sparse(&g), n, n - 1);
        check(
            WeightedDistanceMatrix::sparse(&g, |_, _| 1.0),
            n,
            f64::from(n - 1),
        );
    }

    #[test]
    fn row_guards_coexist_across_eviction() {
        fn check<T: DistanceValue>(d: Distances<T>, n: u32, far: T) {
            let first = d.row(Qubit(0));
            // Touch enough sources to evict qubit 0's row from the LRU.
            for q in 1..n {
                let _ = d.row(Qubit(q));
            }
            // The held guard still reads the evicted row's (correct) data.
            assert_eq!(first[(n - 1) as usize], far);
            let again = d.row(Qubit(0));
            assert_eq!(*first, *again);
        }
        let n = (ROW_CACHE_CAPACITY + 8) as u32;
        let g = long_line(n);
        check(DistanceMatrix::sparse(&g), n, n - 1);
        check(
            WeightedDistanceMatrix::sparse(&g, |_, _| 1.0),
            n,
            f64::from(n - 1),
        );
    }

    #[test]
    fn disconnected_pairs_are_unreachable() {
        let g = CouplingGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let d = DistanceMatrix::floyd_warshall(&g);
        assert_eq!(d.get(Qubit(0), Qubit(2)), DistanceMatrix::UNREACHABLE);
        assert!(!d.all_finite());
        assert_eq!(d.max_finite(), 1);
        let s = DistanceMatrix::sparse(&g);
        assert_eq!(s.get(Qubit(0), Qubit(2)), DistanceMatrix::UNREACHABLE);
        assert!(!s.all_finite());
        assert_eq!(s.max_finite(), 1);
    }

    #[test]
    fn max_finite_equals_diameter_when_connected() {
        let g = CouplingGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let d = DistanceMatrix::floyd_warshall(&g);
        assert!(d.all_finite());
        assert_eq!(d.max_finite(), g.diameter().unwrap());
        let s = DistanceMatrix::sparse(&g);
        assert!(s.all_finite());
        assert_eq!(s.max_finite(), g.diameter().unwrap());
    }

    #[test]
    fn display_renders_rows() {
        let d = DistanceMatrix::floyd_warshall(&square());
        let text = d.to_string();
        assert!(text.contains("4 qubits"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn empty_graph() {
        let g = CouplingGraph::from_edges(0, []).unwrap();
        let d = DistanceMatrix::floyd_warshall(&g);
        assert_eq!(d.num_qubits(), 0);
        assert!(d.all_finite());
        let s = DistanceMatrix::sparse(&g);
        assert_eq!(s.num_qubits(), 0);
        assert!(s.all_finite());
    }

    #[test]
    fn weighted_hops_matches_unweighted() {
        let g = CouplingGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let d = DistanceMatrix::floyd_warshall(&g);
        let w = WeightedDistanceMatrix::hops(&g);
        for i in 0..5u32 {
            for j in 0..5u32 {
                assert_eq!(
                    w.get(Qubit(i), Qubit(j)),
                    f64::from(d.get(Qubit(i), Qubit(j)))
                );
            }
        }
    }

    #[test]
    fn weighted_prefers_cheap_detours() {
        // Triangle 0-1-2 where the direct edge (0,2) costs 10 but the
        // two-hop path through 1 costs 2.
        let g = CouplingGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let w = WeightedDistanceMatrix::floyd_warshall(&g, |a, b| {
            if (a, b) == (Qubit(0), Qubit(2)) {
                10.0
            } else {
                1.0
            }
        });
        assert_eq!(w.get(Qubit(0), Qubit(2)), 2.0);
        let s = WeightedDistanceMatrix::sparse(&g, |a, b| {
            if (a, b) == (Qubit(0), Qubit(2)) {
                10.0
            } else {
                1.0
            }
        });
        assert_eq!(s.get(Qubit(0), Qubit(2)), 2.0);
    }

    #[test]
    fn dijkstra_matches_floyd_warshall_bitwise_on_integer_weights() {
        let g = CouplingGraph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4),
            ],
        )
        .unwrap();
        // Integer-valued weights: every path sum is exact in f64, so all
        // three algorithms must agree bit-for-bit.
        let weight = |a: Qubit, b: Qubit| f64::from(a.0 + b.0 + 1);
        let fw = WeightedDistanceMatrix::floyd_warshall(&g, weight);
        let dj = WeightedDistanceMatrix::dijkstra(&g, weight);
        let sp = WeightedDistanceMatrix::sparse(&g, weight);
        assert_eq!(fw, dj);
        assert_eq!(dj, sp);
    }

    #[test]
    fn sparse_and_dense_dijkstra_are_bitwise_identical_on_noisy_weights() {
        let g = square();
        // Irrational-ish weights where summation order matters: the
        // sparse engine and the dense dijkstra constructor share one row
        // algorithm, so they must still agree bitwise.
        let weight = |a: Qubit, b: Qubit| 0.1 + 0.017 * f64::from(a.0 * 7 + b.0);
        let dense = WeightedDistanceMatrix::dijkstra(&g, weight);
        let sparse = WeightedDistanceMatrix::sparse(&g, weight);
        for i in 0..4u32 {
            let dr = dense.row(Qubit(i));
            let sr = sparse.row(Qubit(i));
            for j in 0..4 {
                assert_eq!(dr[j].to_bits(), sr[j].to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn weighted_marks_unreachable_as_infinity() {
        let g = CouplingGraph::from_edges(3, [(0, 1)]).unwrap();
        let w = WeightedDistanceMatrix::hops(&g);
        assert!(w.get(Qubit(0), Qubit(2)).is_infinite());
        let s = WeightedDistanceMatrix::sparse(&g, |_, _| 1.0);
        assert!(s.get(Qubit(0), Qubit(2)).is_infinite());
    }

    #[test]
    fn rows_agree_with_get() {
        let g = square();
        let d = DistanceMatrix::floyd_warshall(&g);
        let w = WeightedDistanceMatrix::hops(&g);
        for i in 0..4u32 {
            let drow = d.row(Qubit(i));
            let wrow = w.row(Qubit(i));
            assert_eq!(drow.len(), 4);
            assert_eq!(wrow.len(), 4);
            for j in 0..4u32 {
                assert_eq!(drow[j as usize], d.get(Qubit(i), Qubit(j)));
                assert_eq!(wrow[j as usize], w.get(Qubit(i), Qubit(j)));
            }
        }
    }

    #[test]
    fn clone_of_sparse_matrix_preserves_values() {
        let g = square();
        let s = DistanceMatrix::sparse(&g);
        let _ = s.get(Qubit(0), Qubit(3)); // warm one row
        let c = s.clone();
        assert!(c.is_sparse());
        assert_eq!(c.cached_rows(), 0, "clone starts cold");
        assert_eq!(s, c);
        let w = WeightedDistanceMatrix::sparse(&g, |_, _| 2.5);
        let wc = w.clone();
        assert_eq!(w, wc);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_past_the_last_qubit_panics_for_both_value_types() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let line = CouplingGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let dense_hops = DistanceMatrix::bfs(&line);
        let sparse_hops = DistanceMatrix::sparse(&line);
        let sparse_costs = WeightedDistanceMatrix::sparse(&line, |_, _| 1.0);
        // Every backend and value type panics rather than reading into a
        // neighbouring row.
        let panics = |get: &dyn Fn()| catch_unwind(AssertUnwindSafe(get)).is_err();
        assert!(panics(&|| {
            let _ = dense_hops.get(Qubit(0), Qubit(4));
        }));
        assert!(panics(&|| {
            let _ = sparse_hops.get(Qubit(0), Qubit(4));
        }));
        assert!(panics(&|| {
            let _ = sparse_costs.get(Qubit(2), Qubit(5));
        }));
        let _ = WeightedDistanceMatrix::dijkstra(&line, |_, _| 1.0).get(Qubit(2), Qubit(5));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn weighted_rejects_negative_weights() {
        let g = CouplingGraph::from_edges(2, [(0, 1)]).unwrap();
        let _ = WeightedDistanceMatrix::floyd_warshall(&g, |_, _| -1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn sparse_rejects_negative_weights() {
        let g = CouplingGraph::from_edges(2, [(0, 1)]).unwrap();
        let _ = WeightedDistanceMatrix::sparse(&g, |_, _| -1.0);
    }
}
