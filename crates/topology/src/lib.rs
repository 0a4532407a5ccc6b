//! Device topologies for the SABRE reproduction.
//!
//! NISQ devices restrict two-qubit gates to *coupled* physical qubit pairs
//! (paper §II-B). This crate models that hardware substrate:
//!
//! - [`CouplingGraph`]: an undirected graph over physical qubits. The paper
//!   targets IBM's 20-qubit Tokyo chip where "CNOT gate can already be
//!   applied on either direction between any connected qubit pair"
//!   (§III-A), so edges are symmetric.
//! - [`DistanceMatrix`] / [`WeightedDistanceMatrix`]: the preprocessing
//!   step of §IV-A, two instantiations of one row store
//!   ([`Distances`]); `D[i][j]` is the minimum number of SWAPs (or the
//!   cheapest noise-weighted SWAP cost) required to move a logical qubit
//!   from physical qubit `Q_i` to `Q_j`. Small devices fill every
//!   BFS/Dijkstra row at build time; kilo-qubit devices fill each row on
//!   first touch and store rows within a byte budget
//!   ([`ROW_BUDGET_BYTES`]) — same values, bounded memory, lock-free
//!   reads; a search keeps the rows past the budget it needs in its own
//!   [`RowSpill`]. [`DENSE_DISTANCE_THRESHOLD`] is the crossover.
//! - [`devices`]: a zoo of concrete device models — the IBM Q20 Tokyo graph
//!   of Figure 2 with its published error rates, older IBM chips, and
//!   parametric generators (linear, ring, grid, star, complete, heavy-hex).
//! - [`embedding`]: a subgraph-monomorphism checker that decides whether a
//!   circuit's interaction graph embeds into a device — the ground truth
//!   behind the paper's small-benchmark optimality claims (§V-A1).
//!
//! # Example
//!
//! ```
//! use sabre_topology::{devices, Qubit};
//!
//! let tokyo = devices::ibm_q20_tokyo();
//! let graph = tokyo.graph();
//! assert_eq!(graph.num_qubits(), 20);
//! assert!(graph.are_coupled(Qubit(0), Qubit(1)));
//! assert!(!graph.are_coupled(Qubit(0), Qubit(6))); // paper §II-B example
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod csr;
pub mod devices;
pub mod direction;
mod distance;
pub mod embedding;
mod graph;
pub mod noise;

pub use csr::CsrAdjacency;
pub use distance::{
    DistanceBackend, DistanceMatrix, DistanceRow, Distances, RowSpill, WeightedDistanceMatrix,
    DENSE_DISTANCE_THRESHOLD, ROW_BUDGET_BYTES, SPILL_ROWS,
};
pub use graph::{CouplingGraph, TopologyError};

// Physical qubits are indexed with the same newtype as circuit wires; the
// router's `Layout` relates the two interpretations.
pub use sabre_circuit::Qubit;
