//! Persistent per-traversal search state: the allocation-free, delta-scored
//! engine behind [`crate::router::route_pass`].
//!
//! The seed implementation paid, **per candidate SWAP**, a full
//! `O(|F| + |E|)` re-summation of front/extended distances through two
//! layout mutations, plus fresh `Vec`/`VecDeque` allocations per search
//! step for the front layer, the extended set, the BFS visited set, and
//! the tie-break pool. This module restructures that hot loop around one
//! [`SearchState`] owned for a whole traversal:
//!
//! - **Delta scoring** ([`IncidenceTable`]): the front and extended
//!   distance sums are computed once per step; each candidate SWAP
//!   `(x, y)` is then scored by adjusting only the gates incident to the
//!   two swapped physical qubits, found through a per-physical-qubit
//!   incidence list. Cost per candidate drops from `O(|F| + |E|)` to
//!   `O(deg)`.
//! - **Reused scratch**: the front/extended/tie-break/ready buffers and
//!   the extended-set BFS state ([`sabre_circuit::ExtendedSetScratch`])
//!   live in the state and keep their capacity across steps *and*
//!   traversals.
//! - **Row-slice distance loads**: adjusted distances resolve against
//!   [`WeightedDistanceMatrix::row_with_spill`] slices — contiguous
//!   indexed loads instead of a multiply and bounds check per lookup. On
//!   devices too large for the matrix's row budget the search keeps the
//!   rows the matrix does not store in its own [`RowSpill`].
//!
//! # Exactness contract
//!
//! Routing must stay **bit-identical** to the reference implementation
//! ([`crate::reference`]). Delta scoring regroups floating-point sums, so
//! this holds because the distance sums the heuristic takes are exact:
//! hop-count matrices contain small integers, and sums/differences of
//! f64-representable integers are exact regardless of association. The
//! normalization and decay arithmetic applied on top replicates the
//! reference expression shapes operation for operation. For noise-weighted
//! matrices (arbitrary `f64` edge costs) scores may differ from the
//! reference in the last ulp — far inside the `SCORE_EPSILON = 1e-12`
//! tie-break slack, so the selected SWAP sequence is unchanged in
//! practice; `tests/hot_loop_equivalence.rs` pins both regimes.

use sabre_circuit::{Circuit, ExtendedSetScratch, Qubit};
use sabre_topology::{CouplingGraph, RowSpill, WeightedDistanceMatrix};

use crate::{HeuristicKind, Layout, SabreConfig};

/// One gate's entry in a physical qubit's incidence list: enough to
/// replace its old distance contribution with the post-SWAP one without
/// touching the layout.
#[derive(Clone, Copy, Debug)]
struct IncidentGate {
    /// The gate's **other** mapped endpoint.
    other: Qubit,
    /// The gate's current distance `D[this][other]`.
    dist: f64,
    /// Whether the gate sits in the front layer (`true`) or the extended
    /// set (`false`).
    in_front: bool,
}

/// Per-step delta-scoring table: base distance sums plus a physical-qubit →
/// incident-gate index over the front layer and extended set.
///
/// [`IncidenceTable::prepare`] runs once per search step in
/// `O(|F| + |E|)`; [`IncidenceTable::score`] then evaluates one candidate
/// in `O(deg(x) + deg(y))` where `deg` counts incident front/extended
/// gates — the delta-scoring scheme of Qiskit's Rust SABRE port.
#[derive(Clone, Debug)]
pub(crate) struct IncidenceTable {
    /// `lists[Q]`: gates with a mapped endpoint on physical qubit `Q`.
    lists: Vec<Vec<IncidentGate>>,
    /// Physical qubits whose lists are non-empty (for cheap clearing).
    touched: Vec<u32>,
    /// Per-gate distances staged contiguously (front then extended) so the
    /// base sums run as chunked loops over one dense slice — see
    /// [`chunked_sum`].
    stage: Vec<f64>,
    /// `Σ_{g∈F} D[π(g.q1)][π(g.q2)]` under the current (unswapped) layout.
    front_base: f64,
    /// The same sum over the extended set.
    extended_base: f64,
    /// `|F|.max(1)` as f64 — the front normalization divisor.
    front_norm: f64,
    /// `|E|` as f64 (0.0 when empty — the extended term is skipped).
    extended_len: f64,
    /// Rows this search keeps once a lazily filled matrix has spent its
    /// byte budget (only large devices get there); cleared between steps
    /// once full.
    spill: RowSpill<f64>,
}

impl IncidenceTable {
    fn new(n_phys: usize) -> Self {
        IncidenceTable {
            lists: vec![Vec::new(); n_phys],
            touched: Vec::new(),
            stage: Vec::new(),
            front_base: 0.0,
            extended_base: 0.0,
            front_norm: 1.0,
            extended_len: 0.0,
            spill: RowSpill::new(n_phys),
        }
    }

    /// Rebuilds the table for the current step's front layer and extended
    /// set under `layout`. Only the lists touched by the previous step are
    /// cleared.
    pub(crate) fn prepare(
        &mut self,
        circuit: &Circuit,
        dist: &WeightedDistanceMatrix,
        layout: &Layout,
        front: &[usize],
        extended: &[usize],
    ) {
        for &q in &self.touched {
            self.lists[q as usize].clear();
        }
        self.touched.clear();
        self.stage.clear();
        self.spill.clear_if_full();
        for (gates, in_front) in [(front, true), (extended, false)] {
            for &idx in gates {
                let (a, b) = circuit.gates()[idx].qubits();
                let b = b.expect("front/extended sets contain only two-qubit gates");
                let (pa, pb) = (layout.phys_of(a), layout.phys_of(b));
                let d = dist.row_with_spill(&self.spill, pa)[pb.index()];
                self.stage.push(d);
                self.insert(
                    pa,
                    IncidentGate {
                        other: pb,
                        dist: d,
                        in_front,
                    },
                );
                self.insert(
                    pb,
                    IncidentGate {
                        other: pa,
                        dist: d,
                        in_front,
                    },
                );
            }
        }
        // Base sums over the staged distances: dense, branch-free, and in
        // the multi-accumulator shape the autovectorizer turns into SIMD
        // lanes. Exact for hop matrices (integer-valued f64 sums associate
        // freely); for noise weights any regrouping drift sits far inside
        // the SCORE_EPSILON tie-break slack (module docs).
        self.front_base = chunked_sum(&self.stage[..front.len()]);
        self.extended_base = chunked_sum(&self.stage[front.len()..]);
        self.front_norm = front.len().max(1) as f64;
        self.extended_len = extended.len() as f64;
    }

    fn insert(&mut self, q: Qubit, entry: IncidentGate) {
        let list = &mut self.lists[q.index()];
        if list.is_empty() {
            self.touched.push(q.0);
        }
        list.push(entry);
    }

    /// Scores the candidate SWAP on physical edge `(x, y)` without
    /// mutating the layout: lower is better, same cost functions as
    /// [`crate::heuristic`] (paper §IV-D Equations 1–2).
    pub(crate) fn score(
        &self,
        dist: &WeightedDistanceMatrix,
        config: &SabreConfig,
        decay: &[f64],
        (x, y): (Qubit, Qubit),
    ) -> f64 {
        // Rows first: a row's first touch calls out of line, and running
        // sums live across that call get spilled to the stack for the
        // whole loop below.
        let row_x = dist.row_with_spill(&self.spill, x);
        let row_y = dist.row_with_spill(&self.spill, y);
        let mut front_sum = self.front_base;
        let mut extended_sum = self.extended_base;
        // After SWAP(x, y) a gate endpoint on x maps to y and vice versa.
        // A gate incident to *both* keeps its distance (D is symmetric)
        // and is skipped from whichever list reaches it.
        for e in &self.lists[x.index()] {
            if e.other == y {
                continue;
            }
            let new_dist = row_y[e.other.index()];
            if e.in_front {
                front_sum = front_sum - e.dist + new_dist;
            } else {
                extended_sum = extended_sum - e.dist + new_dist;
            }
        }
        for e in &self.lists[y.index()] {
            if e.other == x {
                continue;
            }
            let new_dist = row_x[e.other.index()];
            if e.in_front {
                front_sum = front_sum - e.dist + new_dist;
            } else {
                extended_sum = extended_sum - e.dist + new_dist;
            }
        }
        match config.heuristic {
            HeuristicKind::Basic => front_sum,
            HeuristicKind::LookAhead | HeuristicKind::Decay => {
                let front_term = front_sum / self.front_norm;
                let extended_term = if self.extended_len == 0.0 {
                    0.0
                } else {
                    config.extended_set_weight * extended_sum / self.extended_len
                };
                let base = front_term + extended_term;
                if config.heuristic == HeuristicKind::Decay {
                    decay[x.index()].max(decay[y.index()]) * base
                } else {
                    base
                }
            }
        }
    }
}

/// Four-accumulator chunked summation over a contiguous `f64` slice.
///
/// The independent accumulators break the serial dependency chain of a
/// naive `iter().sum()`, which is exactly the shape LLVM autovectorizes
/// into SIMD adds without any `unsafe`/`std::arch` code (the crate
/// forbids unsafe). The result is bit-identical to the serial sum when
/// the inputs are integer-valued `f64`s (hop-count distance rows — the
/// common case); see [`IncidenceTable::prepare`] for the noise-weighted
/// drift argument.
#[inline]
fn chunked_sum(values: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = values.chunks_exact(4);
    for chunk in chunks.by_ref() {
        acc[0] += chunk[0];
        acc[1] += chunk[1];
        acc[2] += chunk[2];
        acc[3] += chunk[3];
    }
    let tail: f64 = chunks.remainder().iter().sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Caller-owned scratch for the per-step SWAP-candidate sweep.
///
/// The sweep implements the paper's reduced search space (§IV-C1): only
/// SWAPs on coupling-graph edges with at least one endpoint hosting a
/// front-layer logical qubit — "any SWAPs inside [the] low priority qubit
/// set cannot help with resolving dependencies in the front layer."
///
/// The seed implementation allocated a fresh `Vec` every search step and
/// deduplicated with `Vec::contains` — `O(d²)` in the front-layer degree
/// and the exact per-step allocation churn ROADMAP's heuristic-throughput
/// item names. This scratch is allocated once per traversal and
/// deduplicates with a dense bitset over the coupling graph's edge ids,
/// taken from the precomputed [`CouplingGraph::neighbor_edge_ids`] table
/// (profiling showed the previous per-neighbor
/// [`CouplingGraph::edge_index`] binary searches dominating the whole
/// search step). Only the bits actually set are cleared between steps,
/// through a remembered id list — no lookups at all on the clear path.
#[derive(Clone, Debug)]
pub(crate) struct CandidateScratch {
    /// One slot per coupling-graph edge, indexed by edge id.
    seen: Vec<bool>,
    /// The collected candidates, in first-encounter order (the same order
    /// the seed implementation produced — tie-breaking draws depend on it).
    buf: Vec<(Qubit, Qubit)>,
    /// Edge ids of `buf`'s entries (parallel array), so clearing the
    /// bitset needs no edge-id resolution.
    ids: Vec<u32>,
}

impl CandidateScratch {
    pub(crate) fn new(graph: &CouplingGraph) -> Self {
        CandidateScratch {
            seen: vec![false; graph.num_edges()],
            buf: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Collects the candidate SWAPs for the current front layer. The
    /// returned slice is valid until the next `collect` call.
    pub(crate) fn collect(
        &mut self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        layout: &Layout,
        front: &[usize],
    ) -> &[(Qubit, Qubit)] {
        // Clear only the bits the previous step set.
        for &edge_id in &self.ids {
            self.seen[edge_id as usize] = false;
        }
        self.buf.clear();
        self.ids.clear();
        for &idx in front {
            let (a, b) = circuit.gates()[idx].qubits();
            let b = b.expect("front layer holds two-qubit gates");
            for logical in [a, b] {
                let phys = layout.phys_of(logical);
                let neighbors = graph.neighbors(phys);
                let edge_ids = graph.neighbor_edge_ids(phys);
                for (&nb, &edge_id) in neighbors.iter().zip(edge_ids) {
                    if !self.seen[edge_id as usize] {
                        self.seen[edge_id as usize] = true;
                        self.buf
                            .push(if phys < nb { (phys, nb) } else { (nb, phys) });
                        self.ids.push(edge_id);
                    }
                }
            }
        }
        &self.buf
    }
}

/// All mutable scratch one traversal of the SWAP search owns.
///
/// Constructed once per traversal (or reused across the traversals of a
/// restart — see [`crate::SabreRouter`]); every buffer keeps its capacity,
/// so the steady-state search step performs **zero heap allocations**.
#[derive(Clone, Debug)]
pub(crate) struct SearchState {
    /// Snapshot buffer for the inner execute loop (replaces the per-pass
    /// `frontier.ready().to_vec()` clone).
    pub(crate) ready_snapshot: Vec<usize>,
    /// Front layer `F` of the current step.
    pub(crate) front: Vec<usize>,
    /// Extended set `E` of the current step.
    pub(crate) extended: Vec<usize>,
    /// BFS scratch behind [`sabre_circuit::DependencyDag::extended_set_with`].
    pub(crate) extended_scratch: ExtendedSetScratch,
    /// Equal-best candidates collected for random tie-breaking.
    pub(crate) best: Vec<(Qubit, Qubit)>,
    /// Candidate-SWAP sweep scratch.
    pub(crate) candidates: CandidateScratch,
    /// Delta-scoring table.
    pub(crate) incidence: IncidenceTable,
}

impl SearchState {
    /// Scratch sized for `graph`; circuit-sized buffers grow on first use.
    pub(crate) fn new(graph: &CouplingGraph) -> Self {
        SearchState {
            ready_snapshot: Vec::new(),
            front: Vec::new(),
            extended: Vec::new(),
            extended_scratch: ExtendedSetScratch::new(),
            best: Vec::new(),
            candidates: CandidateScratch::new(graph),
            incidence: IncidenceTable::new(graph.num_qubits() as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::{score_swap, HeuristicInputs};
    use sabre_topology::devices;

    /// Brute-force cross-check: on hop matrices the delta scorer must be
    /// bit-identical to the reference full re-summation scorer for every
    /// candidate, front, and heuristic kind.
    #[test]
    fn delta_score_matches_reference_scorer_bitwise() {
        let device = devices::ibm_q20_tokyo();
        let graph = device.graph();
        let dist = WeightedDistanceMatrix::hops(graph);
        let mut c = Circuit::new(20);
        for (a, b) in [(0, 19), (3, 11), (7, 2), (14, 5), (9, 16), (1, 18)] {
            c.cx(Qubit(a), Qubit(b));
        }
        let front = [0usize, 1, 2];
        let extended = [3usize, 4, 5];
        let mut layout = Layout::identity(20);
        let mut decay = vec![1.0; 20];
        decay[4] = 1.3;
        decay[11] = 1.02;

        let mut table = IncidenceTable::new(20);
        table.prepare(&c, &dist, &layout, &front, &extended);
        let mut scratch = CandidateScratch::new(graph);
        let candidates = scratch.collect(&c, graph, &layout, &front).to_vec();
        assert!(!candidates.is_empty());

        for kind in [
            HeuristicKind::Basic,
            HeuristicKind::LookAhead,
            HeuristicKind::Decay,
        ] {
            let config = SabreConfig {
                heuristic: kind,
                ..SabreConfig::default()
            };
            let inputs = HeuristicInputs {
                dist: &dist,
                circuit: &c,
                front: &front,
                extended: &extended,
                weight: config.extended_set_weight,
                kind,
            };
            for &swap in &candidates {
                let reference = score_swap(&inputs, &mut layout, &decay, swap);
                let delta = table.score(&dist, &config, &decay, swap);
                assert_eq!(
                    delta.to_bits(),
                    reference.to_bits(),
                    "kind={kind:?} swap=({},{})",
                    swap.0,
                    swap.1
                );
            }
        }
    }

    /// A gate whose two endpoints are exactly the swapped pair must keep
    /// its distance (D is symmetric) — the skip branches cover it.
    #[test]
    fn swapping_a_gates_own_edge_leaves_its_score_unchanged() {
        let device = devices::linear(4);
        let graph = device.graph();
        let dist = WeightedDistanceMatrix::hops(graph);
        let mut c = Circuit::new(4);
        c.cx(Qubit(1), Qubit(2));
        let layout = Layout::identity(4);
        let mut table = IncidenceTable::new(4);
        table.prepare(&c, &dist, &layout, &[0], &[]);
        let config = SabreConfig {
            heuristic: HeuristicKind::Basic,
            ..SabreConfig::default()
        };
        let score = table.score(&dist, &config, &[1.0; 4], (Qubit(1), Qubit(2)));
        assert_eq!(score, 1.0, "distance 1 before and after the self-swap");
    }

    /// The chunked sum must equal the serial sum bitwise on integer-valued
    /// data (the hop-matrix exactness contract) across lengths straddling
    /// the 4-lane chunk boundary.
    #[test]
    fn chunked_sum_matches_serial_on_integer_values() {
        // Empty slice: +0.0 (std's `sum()` folds from -0.0, numerically
        // equal; the scorer never consults a base over an empty set with
        // a nonzero weight anyway).
        assert_eq!(chunked_sum(&[]), 0.0);
        for len in 1..23usize {
            let values: Vec<f64> = (0..len).map(|i| ((i * 7 + 3) % 19) as f64).collect();
            let serial: f64 = values.iter().sum();
            assert_eq!(
                chunked_sum(&values).to_bits(),
                serial.to_bits(),
                "len={len}"
            );
        }
    }

    /// On arbitrary floats the regrouped sum may differ from serial only
    /// by ulps — far inside the SCORE_EPSILON tie-break slack.
    #[test]
    fn chunked_sum_stays_within_epsilon_on_floats() {
        let values: Vec<f64> = (0..37)
            .map(|i| (i as f64 * 0.37).sin().abs() + 0.1)
            .collect();
        let serial: f64 = values.iter().sum();
        assert!((chunked_sum(&values) - serial).abs() < 1e-12);
    }

    /// Preparing for a new step must fully supersede the previous one.
    #[test]
    fn prepare_clears_previous_step_state() {
        let device = devices::linear(5);
        let graph = device.graph();
        let dist = WeightedDistanceMatrix::hops(graph);
        let mut c = Circuit::new(5);
        c.cx(Qubit(0), Qubit(4)); // distance 4
        c.cx(Qubit(1), Qubit(3)); // distance 2
        let layout = Layout::identity(5);
        let config = SabreConfig {
            heuristic: HeuristicKind::Basic,
            ..SabreConfig::default()
        };
        let mut table = IncidenceTable::new(5);
        table.prepare(&c, &dist, &layout, &[0], &[]);
        // Swap (3,4) moves q4 to Q3: front distance 3.
        assert_eq!(
            table.score(&dist, &config, &[1.0; 5], (Qubit(3), Qubit(4))),
            3.0
        );
        table.prepare(&c, &dist, &layout, &[1], &[]);
        // Same swap now scores gate 1 only: q3 moves to Q4, distance 3.
        assert_eq!(
            table.score(&dist, &config, &[1.0; 5], (Qubit(3), Qubit(4))),
            3.0
        );
        // Swap (0,1) moves q1 to Q0, three hops from q3 on Q3 — and must
        // not see gate 0's stale entry on Q0.
        assert_eq!(
            table.score(&dist, &config, &[1.0; 5], (Qubit(0), Qubit(1))),
            3.0
        );
    }
}
