//! Distance preprocessing: one per-source row table for every device
//! size, filled eagerly on small devices and lazily on kilo-qubit ones.
//!
//! The paper precomputes all-pairs shortest paths with Floyd–Warshall,
//! "acceptable for NISQ devices with hundreds of qubits" (§IV-A). At the
//! 1000+ qubit grids and heavy-hex lattices a production service quotes,
//! the `O(N²)` matrix (and the `O(N³)` fill) stops being acceptable — so
//! one generic row store, [`Distances`], serves both value types
//! ([`DistanceMatrix`] hop counts and [`WeightedDistanceMatrix`] costs)
//! from a table of `N` write-once rows. A filled row is read lock-free:
//! one `OnceLock::get` and a borrowed slice. The backends differ only in
//! when rows are filled:
//!
//! - **Dense** (`N ≤` [`DENSE_DISTANCE_THRESHOLD`]): every row is filled
//!   at build time by `N` row sweeps. `O(N²)` memory.
//! - **Sparse** (above the threshold): a row is filled on first touch —
//!   BFS for hop counts, binary-heap Dijkstra for weighted costs,
//!   `O(E + N log N)` per row. Filled rows are stored while the
//!   matrix's [`ROW_BUDGET_BYTES`] budget lasts; past it, a row is not
//!   stored by the matrix. Nothing is evicted, so the matrix stays
//!   `O(E + budget)` while a router's hot loop (which revisits a small
//!   working set of front-layer rows) reads stored rows at the dense
//!   backend's cost. On devices too large for the budget (above 2048
//!   qubits for `f64`), each search keeps the unstored rows it reads in
//!   its own [`RowSpill`] of up to [`SPILL_ROWS`] rows, freed when the
//!   search ends; other callers get such rows owned, one sweep per
//!   touch.
//!
//! Both backends produce **bit-identical values**: the eager fill and
//! the lazy fill call the same per-source row producer, so a row is the
//! same `Vec` either way, and routing on top of them is reproducible
//! across backends. The `auto` constructors pick the backend by device
//! size; everything downstream (router, cache, service) goes through
//! them. Floyd–Warshall survives only as the reference the row producers
//! are tested against.

use std::cell::{Cell, OnceCell};
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Add, Deref};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::{CouplingGraph, Qubit};

/// Devices up to this many qubits use the dense backend (every row
/// filled at build time) in the [`DistanceMatrix::auto`] /
/// [`WeightedDistanceMatrix::auto`] policies; larger devices fill rows
/// lazily.
///
/// At 128 qubits a dense `f64` matrix costs ~128 KiB and fills in well
/// under a millisecond — comfortably the faster choice. At 1089 qubits
/// (grid 33×33) it is ~9 MiB, and at 10⁴ qubits ~760 MiB — the regime
/// the lazy fill and its byte budget exist for. Callers that want to
/// force a backend regardless of size use [`DistanceBackend`] with the
/// `with_backend` constructors.
pub const DENSE_DISTANCE_THRESHOLD: u32 = 128;

/// Bytes of rows a sparse (lazily filled) matrix stores. Rows filled
/// while the budget lasts stay resident and are read lock-free from then
/// on; past it, a touch of an unstored row recomputes it (one
/// BFS/Dijkstra) and keeps it in the caller's [`RowSpill`], or hands it
/// out owned. There is no eviction, and no value depends on what is
/// stored.
///
/// 32 MiB keeps every `f64` row of devices up to 2048 qubits
/// (`2048² · 8 B`) and 1024 rows at 4096 qubits, sabre-serve's
/// registration cap. `u32` rows are half the size, so twice as many fit.
pub const ROW_BUDGET_BYTES: usize = 32 << 20;

/// Backend selection for the distance constructors: the automatic
/// size-thresholded policy, or an explicit override (equivalence tests
/// pin sparse routing against dense with this; benchmarks force either
/// side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistanceBackend {
    /// Dense up to [`DENSE_DISTANCE_THRESHOLD`] qubits, sparse above —
    /// what every production path uses.
    Auto,
    /// Fill every row at build time: the `O(N²)` matrix.
    Dense,
    /// Fill rows on first touch within [`ROW_BUDGET_BYTES`], even on
    /// tiny devices.
    Sparse,
}

impl DistanceBackend {
    /// Resolves the policy for a device of `num_qubits` qubits: `true`
    /// means rows fill lazily.
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
/// A stored row is lent as a zero-copy borrow; a row computed past a
/// sparse matrix's byte budget is owned by the handle.
#[derive(Clone, Debug)]
pub struct DistanceRow<'a, T> {
    repr: RowRepr<'a, T>,
}

#[derive(Clone, Debug)]
enum RowRepr<'a, T> {
    /// A zero-copy view of a stored row.
    Borrowed(&'a [T]),
    /// A row computed past the byte budget and not stored.
    Owned(Box<[T]>),
}

impl<T> Deref for DistanceRow<'_, T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.repr {
            RowRepr::Borrowed(slice) => slice,
            RowRepr::Owned(row) => row,
        }
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
}

impl DistanceValue for u32 {
    const UNREACHABLE: u32 = u32::MAX;
    type Weights = ();

    fn row(graph: &CouplingGraph, _: &(), source: Qubit) -> Vec<u32> {
        graph.bfs_distances(source)
    }
}

impl DistanceValue for f64 {
    const UNREACHABLE: f64 = f64::INFINITY;
    /// Weight of each coupling, indexed by [`CouplingGraph::edge_index`].
    type Weights = Arc<[f64]>;

    fn row(graph: &CouplingGraph, weights: &Arc<[f64]>, source: Qubit) -> Vec<f64> {
        dijkstra_row(graph, weights, source)
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
/// producer, so the eager and the lazy fill yield bit-identical
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
/// One table of per-source rows, filled at build time on small devices
/// and on first touch on large ones (see the module docs). Values are
/// identical either way; the `auto` constructors pick for you.
#[derive(Debug)]
pub struct Distances<T: DistanceValue> {
    n: usize,
    /// `D[a][·]` per source `a`. Every slot is set at build time unless
    /// `lazy` is present.
    rows: Box<[OnceLock<Box<[T]>>]>,
    /// What a first touch needs to fill a row; `None` when every row was
    /// filled at build time. Boxed so `&Distances` holds no interior
    /// mutability inline: the compiler then knows a fill cannot change
    /// `rows`, and keeps its pointer in a register across the scorer.
    lazy: Option<Box<LazyFill<T>>>,
}

/// The graph and weights a row sweep needs, plus the bytes of rows
/// stored so far against [`ROW_BUDGET_BYTES`].
#[derive(Debug)]
struct LazyFill<T: DistanceValue> {
    graph: CouplingGraph,
    weights: T::Weights,
    /// Only a count, accessed `Relaxed`: each row's `OnceLock` publishes
    /// the row itself.
    stored_bytes: AtomicUsize,
}

impl<T: DistanceValue> Distances<T> {
    /// The one constructor behind every production path: the eager fill
    /// (`N` row sweeps) or an empty table filled on first touch, chosen
    /// by `backend`.
    fn build(graph: &CouplingGraph, weights: T::Weights, backend: DistanceBackend) -> Self {
        let n = graph.num_qubits() as usize;
        if !backend.prefers_sparse(graph.num_qubits()) {
            return Self::eager(
                n,
                (0..n).map(|q| T::row(graph, &weights, Qubit(q as u32)).into_boxed_slice()),
            );
        }
        Distances {
            n,
            rows: (0..n).map(|_| OnceLock::new()).collect(),
            lazy: Some(Box::new(LazyFill {
                graph: graph.clone(),
                weights,
                stored_bytes: AtomicUsize::new(0),
            })),
        }
    }

    /// A table whose `n` rows are all filled now.
    fn eager(n: usize, rows: impl Iterator<Item = Box<[T]>>) -> Self {
        Distances {
            n,
            rows: rows.map(OnceLock::from).collect(),
            lazy: None,
        }
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
        Self::eager(n, data.chunks(n.max(1)).map(Box::from))
    }

    /// `true` when rows fill on first touch (no `O(N²)` allocation is
    /// made up front).
    pub fn is_sparse(&self) -> bool {
        self.lazy.is_some()
    }

    /// Number of qubits the matrix covers.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The distance `D[a][b]` (`UNREACHABLE` when no path exists), read
    /// through [`Distances::row`].
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
    /// indexed loads. A stored row is a lock-free zero-copy borrow; a
    /// sparse matrix's first touch of a row runs one sweep.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[inline]
    pub fn row(&self, a: Qubit) -> DistanceRow<'_, T> {
        match self.rows[a.index()].get() {
            Some(row) => DistanceRow {
                repr: RowRepr::Borrowed(row),
            },
            None => self.fill(a, None),
        }
    }

    /// [`Distances::row`] for a search that keeps its own copies of the
    /// rows this matrix computes past [`ROW_BUDGET_BYTES`]: such a row is
    /// kept in `spill` while it has room, so the search's working set is
    /// swept once rather than on every touch. Stored rows read exactly as
    /// through `row`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range of this matrix or of `spill`.
    #[inline]
    pub fn row_with_spill<'a>(&'a self, spill: &'a RowSpill<T>, a: Qubit) -> DistanceRow<'a, T> {
        match self.rows[a.index()].get() {
            Some(row) => DistanceRow {
                repr: RowRepr::Borrowed(row),
            },
            None => self.fill(a, Some(spill)),
        }
    }

    /// First touch of `a`'s row on a sparse matrix: stores the row if
    /// the byte budget has room for it, else keeps it in `spill` (if
    /// given and not full), else computes it owned. Budget is reserved
    /// before the sweep and given back if another thread stored the row
    /// first, so each stored row is counted once.
    #[cold]
    #[inline(never)]
    fn fill<'a>(&'a self, a: Qubit, spill: Option<&'a RowSpill<T>>) -> DistanceRow<'a, T> {
        let lazy = self
            .lazy
            .as_deref()
            .expect("a dense matrix fills every row at build time");
        let sweep = || T::row(&lazy.graph, &lazy.weights, a).into_boxed_slice();
        let borrowed = |row| DistanceRow {
            repr: RowRepr::Borrowed(row),
        };
        if let Some(row) = spill.and_then(|spill| spill.rows[a.index()].get()) {
            return borrowed(row);
        }
        let bytes = self.n * size_of::<T>();
        let reserved =
            lazy.stored_bytes
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                    used.checked_add(bytes)
                        .filter(|&total| total <= ROW_BUDGET_BYTES)
                });
        if reserved.is_err() {
            return match spill.and_then(|spill| spill.keep(a, sweep)) {
                Some(row) => borrowed(row),
                None => DistanceRow {
                    repr: RowRepr::Owned(sweep()),
                },
            };
        }
        let mut filled_here = false;
        let row = self.rows[a.index()].get_or_init(|| {
            filled_here = true;
            sweep()
        });
        if !filled_here {
            lazy.stored_bytes.fetch_sub(bytes, Ordering::Relaxed);
        }
        borrowed(row)
    }

    /// Rows currently stored: `N` for a dense matrix; for a sparse one,
    /// the rows counted against [`ROW_BUDGET_BYTES`] (exact whenever no
    /// fill is in flight), so never more than the budget holds.
    pub fn cached_rows(&self) -> usize {
        match &self.lazy {
            None => self.n,
            Some(lazy) => {
                lazy.stored_bytes.load(Ordering::Relaxed) / (self.n * size_of::<T>()).max(1)
            }
        }
    }
}

/// Rows a search keeps for itself once a lazily filled matrix has spent
/// its [`ROW_BUDGET_BYTES`] — the matrix stores the first rows it is
/// asked for, and on a device too large for the budget the rows a later
/// search needs are mostly not among them. Read through
/// [`Distances::row_with_spill`].
///
/// A spill holds at most [`SPILL_ROWS`] rows; rows past that are
/// computed owned. The search calls [`RowSpill::clear_if_full`] before
/// each step (when no row is borrowed), so a search that drifts across
/// the device refills the spill with its current working set.
/// Single-threaded (`!Sync`), and freed with its search.
#[derive(Clone, Debug)]
pub struct RowSpill<T> {
    /// One slot per physical qubit.
    rows: Box<[OnceCell<Box<[T]>>]>,
    /// Slots set, at most [`SPILL_ROWS`].
    kept: Cell<usize>,
}

/// Rows a [`RowSpill`] holds: the capacity of the shared row cache this
/// design replaced, now per running search. A search step reads the rows
/// of the front-layer qubits and their neighbours (about 160 for a
/// 32-qubit circuit on a grid, about a thousand for a 200-qubit one). At
/// 4096 qubits a full spill is 32 MiB of `f64` rows.
pub const SPILL_ROWS: usize = 1024;

impl<T> RowSpill<T> {
    /// An empty spill for a device of `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        RowSpill {
            rows: (0..num_qubits).map(|_| OnceCell::new()).collect(),
            kept: Cell::new(0),
        }
    }

    /// Keeps the row `sweep` computes for `a`, unless the spill is full.
    fn keep(&self, a: Qubit, sweep: impl FnOnce() -> Box<[T]>) -> Option<&[T]> {
        let kept = self.kept.get();
        if kept >= SPILL_ROWS {
            return None;
        }
        self.kept.set(kept + 1);
        Some(self.rows[a.index()].get_or_init(sweep))
    }

    /// Drops every kept row if the spill is full.
    pub fn clear_if_full(&mut self) {
        if self.kept.get() >= SPILL_ROWS {
            self.rows.iter_mut().for_each(|slot| drop(slot.take()));
            self.kept.set(0);
        }
    }
}

impl<T: DistanceValue> Clone for Distances<T> {
    /// Cloning a sparse matrix clones the graph and weights and starts
    /// with no rows stored — stored rows are pure acceleration, so the
    /// clone observes identical values from the first query.
    fn clone(&self) -> Self {
        match &self.lazy {
            None => Distances {
                n: self.n,
                rows: self.rows.clone(),
                lazy: None,
            },
            Some(lazy) => Self::build(&lazy.graph, lazy.weights.clone(), DistanceBackend::Sparse),
        }
    }
}

impl<T: DistanceValue> PartialEq for Distances<T> {
    /// Semantic equality: same size and same distance for every pair,
    /// regardless of backend. Comparing a sparse matrix fills its rows
    /// (`O(N·E)`) — intended for tests, not hot paths.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && (0..self.n).all(|q| {
                let q = Qubit(q as u32);
                *self.row(q) == *other.row(q)
            })
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

    /// The lazily filled matrix: each row is BFS-computed on first touch
    /// and stored within [`ROW_BUDGET_BYTES`]. `O(N + E)` resident plus
    /// the stored rows; `O(E)` per fill, a lock-free load per stored
    /// row. Values are bit-identical to [`DistanceMatrix::bfs`].
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
    /// a single BFS connectivity check, `O(N + E)` — no rows are filled.
    pub fn all_finite(&self) -> bool {
        match &self.lazy {
            None => self
                .rows
                .iter()
                .flat_map(OnceLock::get)
                .all(|row| !row.contains(&Self::UNREACHABLE)),
            Some(lazy) => lazy.graph.is_connected(),
        }
    }

    /// Largest finite distance (the diameter when connected). Dense: one
    /// `O(N²)` scan. Sparse: streams one BFS per source (`O(N·E)` time,
    /// `O(N)` memory) without filling any row.
    pub fn max_finite(&self) -> u32 {
        let finite_max = |row: &[u32]| {
            row.iter()
                .copied()
                .filter(|&d| d != Self::UNREACHABLE)
                .max()
                .unwrap_or(0)
        };
        let max = match &self.lazy {
            None => self
                .rows
                .iter()
                .flat_map(OnceLock::get)
                .map(|row| finite_max(row))
                .max(),
            Some(lazy) => (0..self.n)
                .map(|q| finite_max(&lazy.graph.bfs_distances(Qubit(q as u32))))
                .max(),
        };
        max.unwrap_or(0)
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

    /// The lazily filled matrix: per-edge weights packed by edge id,
    /// each Dijkstra row computed on first touch and stored within
    /// [`ROW_BUDGET_BYTES`]. `O(N + E)` resident plus the stored rows;
    /// `O(E + N log N)` per fill, a lock-free load per stored row.
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

    /// A 4-ring and a 3-ring joined at qubit 3 and 4.
    fn two_rings() -> CouplingGraph {
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 4),
        ];
        CouplingGraph::from_edges(7, edges).unwrap()
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
        let g = two_rings();
        assert_eq!(DistanceMatrix::floyd_warshall(&g), DistanceMatrix::bfs(&g));
    }

    #[test]
    fn sparse_matches_dense_semantically() {
        let g = two_rings();
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

    /// A line of `n` qubits.
    fn long_line(n: u32) -> CouplingGraph {
        CouplingGraph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    /// Uneven weights, so a bitwise comparison of `f64` rows means more
    /// than comparing integer hop counts.
    fn uneven(a: Qubit, b: Qubit) -> f64 {
        0.1 + 0.017 * f64::from((a.0 * 7 + b.0) % 13)
    }

    /// A lazily filled matrix stores rows only while [`ROW_BUDGET_BYTES`]
    /// lasts: rows below the budget's row count are stored and borrowed,
    /// the rest are owned, and re-touching an over-budget row stores
    /// nothing.
    #[test]
    fn sparse_row_cache_is_bounded() {
        fn check<T: DistanceValue>(d: Distances<T>) {
            let n = d.num_qubits();
            let cap = ROW_BUDGET_BYTES / (n * size_of::<T>());
            assert!(cap < n, "the matrix must pass the budget");
            for q in (0..n as u32).map(Qubit) {
                let row = d.row(q);
                assert_eq!(matches!(row.repr, RowRepr::Owned(_)), q.index() >= cap);
                assert!(d.cached_rows() <= cap);
            }
            assert_eq!(d.cached_rows(), cap);
            let _ = d.row(Qubit(n as u32 - 1));
            assert_eq!(d.cached_rows(), cap);
        }
        // `3000² · 4 B` and `3000² · 8 B` both exceed the 32 MiB budget.
        let g = long_line(3000);
        check(DistanceMatrix::sparse(&g));
        check(WeightedDistanceMatrix::sparse(&g, uneven));
    }

    /// Nothing is evicted: past the budget a row is computed owned, so a
    /// handle to a stored row and handles to over-budget rows can be held
    /// at once, and every one reads bit-identical to the BFS / Dijkstra
    /// row.
    #[test]
    fn row_guards_coexist_across_eviction() {
        fn check<T: DistanceValue + Into<f64>>(d: Distances<T>, sweep: impl Fn(Qubit) -> Vec<T>) {
            let n = d.num_qubits();
            let cap = ROW_BUDGET_BYTES / (n * size_of::<T>());
            assert!(cap < n, "the matrix must pass the budget");
            let bits = |row: &[T]| row.iter().map(|&x| x.into().to_bits()).collect::<Vec<_>>();
            let first = d.row(Qubit(0));
            assert!(matches!(first.repr, RowRepr::Borrowed(_)));
            // Touch every row so the budget runs out; hold a sample of
            // stored and over-budget rows alongside `first`.
            let sampled =
                |q: usize| q.is_multiple_of(97) || (cap - 1..=cap + 1).contains(&q) || q == n - 1;
            let held: Vec<_> = (1..n as u32)
                .map(Qubit)
                .map(|q| (q, d.row(q)))
                .filter(|(q, _)| sampled(q.index()))
                .collect();
            assert_eq!(d.cached_rows(), cap);
            assert_eq!(bits(&first), bits(&sweep(Qubit(0))));
            for (q, row) in &held {
                assert_eq!(matches!(row.repr, RowRepr::Owned(_)), q.index() >= cap);
                assert_eq!(bits(row), bits(&sweep(*q)), "row {q:?}");
            }
        }
        let g = long_line(3000);
        check(DistanceMatrix::sparse(&g), |q| g.bfs_distances(q));
        let weights: Arc<[f64]> = pack_edge_weights(&g, uneven).into();
        check(WeightedDistanceMatrix::sparse(&g, uneven), |q| {
            dijkstra_row(&g, &weights, q)
        });
    }

    /// Past the budget, a search's spill keeps the rows it reads (up to
    /// [`SPILL_ROWS`], bit-identical to the Dijkstra row) without touching
    /// the matrix's budget; a full spill hands rows out owned until it is
    /// cleared.
    #[test]
    fn spill_keeps_over_budget_rows_for_one_search() {
        let g = long_line(3000);
        let d = WeightedDistanceMatrix::sparse(&g, uneven);
        let n = d.num_qubits();
        let cap = ROW_BUDGET_BYTES / (n * size_of::<f64>());
        assert!(n - cap > SPILL_ROWS, "the spill must fill up");
        let weights: Arc<[f64]> = pack_edge_weights(&g, uneven).into();
        let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut spill = RowSpill::new(n);
        let read = |spill: &RowSpill<f64>, q: usize| {
            let row = d.row_with_spill(spill, Qubit(q as u32));
            assert_eq!(
                bits(&row),
                bits(&dijkstra_row(&g, &weights, Qubit(q as u32)))
            );
            matches!(row.repr, RowRepr::Borrowed(_))
        };
        // Within the budget rows are stored by the matrix, not the spill.
        assert!((0..cap).all(|q| read(&spill, q)));
        assert_eq!((d.cached_rows(), spill.kept.get()), (cap, 0));
        // Past it the spill keeps rows until it is full...
        assert!((cap..cap + SPILL_ROWS).all(|q| read(&spill, q)));
        assert!(read(&spill, cap), "a kept row is read again from the spill");
        assert!(
            !read(&spill, cap + SPILL_ROWS),
            "a full spill hands rows out owned"
        );
        assert_eq!((d.cached_rows(), spill.kept.get()), (cap, SPILL_ROWS));
        // ...and drops them all once full, between steps.
        spill.clear_if_full();
        assert_eq!(spill.kept.get(), 0);
        assert!(read(&spill, cap + 1));
        spill.clear_if_full();
        assert_eq!(spill.kept.get(), 1, "a spill with room keeps its rows");
    }

    #[test]
    fn concurrent_first_touch_fills_each_row_once() {
        const THREADS: usize = 8;
        let g = crate::devices::grid(33, 33).graph().clone();
        let (lazy, eager) = (
            WeightedDistanceMatrix::sparse(&g, uneven),
            WeightedDistanceMatrix::dijkstra(&g, uneven),
        );
        let n = g.num_qubits();
        let start = std::sync::Barrier::new(THREADS);
        let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        std::thread::scope(|scope| {
            for t in 0..THREADS as u32 {
                let (lazy, eager, start, bits) = (&lazy, &eager, &start, &bits);
                scope.spawn(move || {
                    start.wait();
                    // Every thread walks the same cold rows; half walk them
                    // backwards so the races meet in both orders.
                    for q in (0..n).map(|q| Qubit(if t % 2 == 0 { q } else { n - 1 - q })) {
                        assert_eq!(bits(&lazy.row(q)), bits(&eager.row(q)), "row {q:?}");
                    }
                });
            }
        });
        // Every row is stored, and none is counted against the budget twice.
        assert_eq!(lazy.cached_rows(), n as usize);
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
        let weight = |a: Qubit, b: Qubit| {
            if (a, b) == (Qubit(0), Qubit(2)) {
                10.0
            } else {
                1.0
            }
        };
        let w = WeightedDistanceMatrix::floyd_warshall(&g, weight);
        assert_eq!(w.get(Qubit(0), Qubit(2)), 2.0);
        let s = WeightedDistanceMatrix::sparse(&g, weight);
        assert_eq!(s.get(Qubit(0), Qubit(2)), 2.0);
    }

    #[test]
    fn dijkstra_matches_floyd_warshall_bitwise_on_integer_weights() {
        let g = two_rings();
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
        // lazy and the eager dijkstra constructors share one row
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
        assert_eq!(s.cached_rows(), 1);
        let c = s.clone();
        assert!(c.is_sparse());
        assert_eq!(c.cached_rows(), 0, "clone starts cold");
        assert_eq!(s, c);
        let d = DistanceMatrix::bfs(&g);
        assert_eq!(d.cached_rows(), 4, "every dense row is stored");
        assert_eq!(d.clone().cached_rows(), 4);
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
