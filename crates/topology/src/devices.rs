//! A zoo of device models.
//!
//! The centrepiece is [`ibm_q20_tokyo`], the coupling graph of the paper's
//! Figure 2 — the hardware model all of the paper's experiments run on.
//! Older IBM chips and parametric families (linear, ring, grid, star,
//! complete, heavy-hex) are provided so the flexibility objective
//! ("arbitrary symmetric coupling", §III-B) can be exercised in tests and
//! benchmarks.

use crate::{CouplingGraph, DistanceMatrix};

/// Average calibration data attached to a device model, as reported for the
/// IBM Q20 Tokyo in the paper's Figure 2. Retained for documentation and
/// for fidelity-model extensions; the routing algorithms themselves only
/// consume the coupling graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceCalibration {
    /// Average single-qubit gate error rate.
    pub single_qubit_error: f64,
    /// Average two-qubit (CNOT) gate error rate.
    pub two_qubit_error: f64,
    /// Average measurement (readout) error rate.
    pub measurement_error: f64,
    /// Average amplitude-damping lifetime T1, in microseconds.
    pub t1_us: f64,
    /// Average dephasing lifetime T2, in microseconds.
    pub t2_us: f64,
}

impl DeviceCalibration {
    /// The averages printed in the paper's Figure 2 for IBM Q20 Tokyo.
    pub const IBM_Q20_TOKYO: DeviceCalibration = DeviceCalibration {
        single_qubit_error: 4.43e-3,
        two_qubit_error: 3.00e-2,
        measurement_error: 8.74e-2,
        t1_us: 87.29,
        t2_us: 54.43,
    };
}

/// A named device model: coupling graph plus optional calibration averages.
#[derive(Clone, Debug, PartialEq)]
pub struct Device {
    name: String,
    graph: CouplingGraph,
    calibration: Option<DeviceCalibration>,
}

impl Device {
    /// Wraps a coupling graph into a named device with no calibration data.
    pub fn new(name: impl Into<String>, graph: CouplingGraph) -> Self {
        Device {
            name: name.into(),
            graph,
            calibration: None,
        }
    }

    /// Attaches calibration averages.
    pub fn with_calibration(mut self, calibration: DeviceCalibration) -> Self {
        self.calibration = Some(calibration);
        self
    }

    /// Device name (e.g. `"ibm-q20-tokyo"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The coupling graph.
    pub fn graph(&self) -> &CouplingGraph {
        &self.graph
    }

    /// Calibration averages, if known.
    pub fn calibration(&self) -> Option<&DeviceCalibration> {
        self.calibration.as_ref()
    }

    /// Convenience: the device's hop-distance matrix under the automatic
    /// dense/sparse policy ([`DistanceMatrix::auto`]) — every row filled
    /// at build time for small chips, rows filled on first touch within
    /// [`crate::ROW_BUDGET_BYTES`] above
    /// [`crate::DENSE_DISTANCE_THRESHOLD`] qubits.
    pub fn distance_matrix(&self) -> DistanceMatrix {
        DistanceMatrix::auto(&self.graph)
    }
}

/// IBM Q20 Tokyo (paper Figure 2): 20 qubits in a 5×4 grid with row edges,
/// column edges at the grid boundary, and the diagonal couplers shown in
/// the figure. 43 undirected couplings; CNOT allowed in both directions on
/// every coupling (§III-A).
pub fn ibm_q20_tokyo() -> Device {
    #[rustfmt::skip]
    let edges = [
        // row 0
        (0u32, 1u32), (1, 2), (2, 3), (3, 4),
        // row 1
        (5, 6), (6, 7), (7, 8), (8, 9),
        // row 2
        (10, 11), (11, 12), (12, 13), (13, 14),
        // row 3
        (15, 16), (16, 17), (17, 18), (18, 19),
        // verticals
        (0, 5), (4, 9), (5, 10), (9, 14), (10, 15), (14, 19),
        // diagonal couplers, rows 0-1
        (1, 6), (1, 7), (2, 6), (2, 7), (3, 8), (3, 9), (4, 8),
        // diagonal couplers, rows 1-2
        (5, 11), (6, 10), (6, 11), (7, 12), (7, 13), (8, 12), (8, 13),
        // diagonal couplers, rows 2-3
        (11, 16), (11, 17), (12, 16), (12, 17), (13, 18), (13, 19), (14, 18),
    ];
    let graph = CouplingGraph::from_edges(20, edges).expect("static edge list is valid");
    Device::new("ibm-q20-tokyo", graph).with_calibration(DeviceCalibration::IBM_Q20_TOKYO)
}

/// IBM QX5 ("Albatross", 16 qubits), symmetrized. One of the chips targeted
/// by the prior work the paper compares against (§VII).
pub fn ibm_qx5() -> Device {
    #[rustfmt::skip]
    let edges = [
        (1u32, 0u32), (1, 2), (2, 3), (3, 4), (3, 14), (5, 4), (6, 5), (6, 7),
        (6, 11), (7, 10), (8, 7), (9, 8), (9, 10), (11, 10), (12, 5), (12, 11),
        (12, 13), (13, 4), (13, 14), (15, 0), (15, 2), (15, 14),
    ];
    let graph = CouplingGraph::from_edges(16, edges).expect("static edge list is valid");
    Device::new("ibm-qx5", graph)
}

/// IBM QX2 ("Sparrow", 5 qubits), symmetrized — the chip of Siraichi et
/// al.'s qubit-allocation study (§VII).
pub fn ibm_qx2() -> Device {
    let edges = [(0u32, 1u32), (0, 2), (1, 2), (3, 2), (3, 4), (4, 2)];
    let graph = CouplingGraph::from_edges(5, edges).expect("static edge list is valid");
    Device::new("ibm-qx2", graph)
}

/// A 1-D line `0 — 1 — … — n-1`, the classic Linear Nearest Neighbor model
/// of the pre-NISQ literature (§VII).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn linear(n: u32) -> Device {
    assert!(n > 0, "device must have at least one qubit");
    let graph = CouplingGraph::from_edges(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)))
        .expect("generated edges are valid");
    Device::new(format!("linear-{n}"), graph)
}

/// A ring of `n` qubits.
///
/// # Panics
///
/// Panics if `n < 3` (smaller rings degenerate).
pub fn ring(n: u32) -> Device {
    assert!(n >= 3, "a ring needs at least 3 qubits");
    let graph = CouplingGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
        .expect("generated edges are valid");
    Device::new(format!("ring-{n}"), graph)
}

/// A `rows × cols` 2-D nearest-neighbor grid, "the most popular coupling
/// structure" (§II-B), indexed row-major.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: u32, cols: u32) -> Device {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let idx = r * cols + c;
            if c + 1 < cols {
                edges.push((idx, idx + 1));
            }
            if r + 1 < rows {
                edges.push((idx, idx + cols));
            }
        }
    }
    let graph = CouplingGraph::from_edges(rows * cols, edges).expect("generated edges are valid");
    Device::new(format!("grid-{rows}x{cols}"), graph)
}

/// A star: qubit 0 coupled to every other qubit. A stress case for the
/// decay/parallelism machinery (every SWAP overlaps on the hub).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: u32) -> Device {
    assert!(n >= 2, "a star needs at least 2 qubits");
    let graph =
        CouplingGraph::from_edges(n, (1..n).map(|i| (0, i))).expect("generated edges are valid");
    Device::new(format!("star-{n}"), graph)
}

/// The complete graph on `n` qubits — no routing ever needed; the
/// zero-overhead control case.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: u32) -> Device {
    assert!(n > 0, "device must have at least one qubit");
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            edges.push((i, j));
        }
    }
    let graph = CouplingGraph::from_edges(n, edges).expect("generated edges are valid");
    Device::new(format!("complete-{n}"), graph)
}

/// IBM 27-qubit Falcon heavy-hex lattice (ibmq_montreal family) — a lower-
/// degree post-Tokyo topology, included to exercise the flexibility
/// objective on a device the paper predates.
pub fn ibm_falcon_27() -> Device {
    #[rustfmt::skip]
    let edges = [
        (0u32, 1u32), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
        (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
        (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
        (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
    ];
    let graph = CouplingGraph::from_edges(27, edges).expect("static edge list is valid");
    Device::new("ibm-falcon-27", graph)
}

/// A parametric heavy-hex lattice in the style of IBM's post-Tokyo
/// devices (Falcon/Eagle/Osprey): `rows` rows of `cols` qubits each with
/// nearest-neighbor row couplings, adjacent rows bridged through
/// dedicated *flag* qubits at every fourth column (offset by two on
/// alternating rows — the brick pattern that keeps the maximum degree at
/// 3). Qubits `0 .. rows·cols` are the row qubits, row-major; bridge
/// qubits follow. This is the degree-≤3 kilo-qubit scaling substrate:
/// `heavy_hex(22, 44)` already exceeds 1000 qubits while
/// [`ibm_falcon_27`] stays the calibrated 27-qubit instance.
///
/// # Panics
///
/// Panics if `rows == 0` or `cols < 3` (narrower lattices cannot place
/// the offset bridges and fall apart).
pub fn heavy_hex(rows: u32, cols: u32) -> Device {
    assert!(rows > 0, "heavy-hex needs at least one row");
    assert!(cols >= 3, "heavy-hex rows must be at least 3 qubits wide");
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols.saturating_sub(1) {
            let idx = r * cols + c;
            edges.push((idx, idx + 1));
        }
    }
    let mut next_bridge = rows * cols;
    for r in 0..rows.saturating_sub(1) {
        // Even row-gaps bridge at columns 0, 4, 8, …; odd ones at 2, 6, ….
        let offset = if r % 2 == 0 { 0 } else { 2 };
        let mut c = offset;
        while c < cols {
            let top = r * cols + c;
            let bottom = (r + 1) * cols + c;
            edges.push((top, next_bridge));
            edges.push((next_bridge, bottom));
            next_bridge += 1;
            c += 4;
        }
    }
    let graph = CouplingGraph::from_edges(next_bridge, edges).expect("generated edges are valid");
    Device::new(format!("heavy-hex-{rows}x{cols}"), graph)
}

/// Every fixed-size device in the zoo, for data-driven tests.
pub fn all_fixed_devices() -> Vec<Device> {
    vec![ibm_q20_tokyo(), ibm_qx5(), ibm_qx2(), ibm_falcon_27()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Qubit;

    #[test]
    fn tokyo_has_20_qubits_and_43_couplings() {
        let d = ibm_q20_tokyo();
        assert_eq!(d.graph().num_qubits(), 20);
        assert_eq!(d.graph().num_edges(), 43);
        assert!(d.graph().is_connected());
    }

    #[test]
    fn tokyo_examples_from_paper_section_2b() {
        let d = ibm_q20_tokyo();
        let g = d.graph();
        // "Q0 is connected to Q1 and Q5"
        assert!(g.are_coupled(Qubit(0), Qubit(1)));
        assert!(g.are_coupled(Qubit(0), Qubit(5)));
        // "Q0 is not directly connected with Q6"
        assert!(!g.are_coupled(Qubit(0), Qubit(6)));
    }

    #[test]
    fn tokyo_diameter_is_small() {
        let d = ibm_q20_tokyo();
        // 5×4 grid with diagonals: worst-case distance must be ≤ 7 (grid
        // bound) and is actually 4.
        assert_eq!(d.graph().diameter(), Some(4));
    }

    #[test]
    fn tokyo_calibration_matches_figure_2() {
        let d = ibm_q20_tokyo();
        let c = d.calibration().expect("tokyo ships calibration");
        assert_eq!(c.two_qubit_error, 3.00e-2);
        assert_eq!(c.single_qubit_error, 4.43e-3);
        assert_eq!(c.measurement_error, 8.74e-2);
        assert_eq!(c.t1_us, 87.29);
        assert_eq!(c.t2_us, 54.43);
    }

    #[test]
    fn qx5_structure() {
        let d = ibm_qx5();
        assert_eq!(d.graph().num_qubits(), 16);
        assert_eq!(d.graph().num_edges(), 22);
        assert!(d.graph().is_connected());
    }

    #[test]
    fn qx2_structure() {
        let d = ibm_qx2();
        assert_eq!(d.graph().num_qubits(), 5);
        assert_eq!(d.graph().num_edges(), 6);
        assert!(d.graph().is_connected());
        assert_eq!(d.graph().degree(Qubit(2)), 4);
    }

    #[test]
    fn falcon_heavy_hex() {
        let d = ibm_falcon_27();
        assert_eq!(d.graph().num_qubits(), 27);
        assert!(d.graph().is_connected());
        assert!(d.graph().max_degree() <= 3, "heavy-hex is degree-≤3");
    }

    #[test]
    fn linear_chain() {
        let d = linear(5);
        assert_eq!(d.graph().num_edges(), 4);
        assert_eq!(d.graph().diameter(), Some(4));
        assert_eq!(d.name(), "linear-5");
    }

    #[test]
    fn single_qubit_linear_device() {
        let d = linear(1);
        assert_eq!(d.graph().num_edges(), 0);
        assert!(d.graph().is_connected());
    }

    #[test]
    fn ring_wraps_around() {
        let d = ring(6);
        assert_eq!(d.graph().num_edges(), 6);
        assert_eq!(d.graph().diameter(), Some(3));
        assert!(d.graph().are_coupled(Qubit(5), Qubit(0)));
    }

    #[test]
    fn grid_structure() {
        let d = grid(3, 4);
        assert_eq!(d.graph().num_qubits(), 12);
        // edges: 3 rows × 3 horizontal + 2×4 vertical = 9 + 8 = 17
        assert_eq!(d.graph().num_edges(), 17);
        assert!(d.graph().are_coupled(Qubit(0), Qubit(4)));
        assert!(!d.graph().are_coupled(Qubit(3), Qubit(4)));
    }

    #[test]
    fn star_hub_degree() {
        let d = star(7);
        assert_eq!(d.graph().degree(Qubit(0)), 6);
        assert_eq!(d.graph().diameter(), Some(2));
    }

    #[test]
    fn complete_graph_edges() {
        let d = complete(5);
        assert_eq!(d.graph().num_edges(), 10);
        assert_eq!(d.graph().diameter(), Some(1));
    }

    #[test]
    fn all_fixed_devices_are_connected() {
        for d in all_fixed_devices() {
            assert!(d.graph().is_connected(), "{} disconnected", d.name());
            let dm = d.distance_matrix();
            assert!(dm.all_finite(), "{} has unreachable pairs", d.name());
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_panics() {
        let _ = ring(2);
    }

    #[test]
    fn heavy_hex_is_connected_degree_three() {
        for (rows, cols) in [(1, 3), (2, 5), (3, 9), (5, 12)] {
            let d = heavy_hex(rows, cols);
            let g = d.graph();
            assert!(g.is_connected(), "{} disconnected", d.name());
            assert!(g.max_degree() <= 3, "{} exceeds degree 3", d.name());
            assert!(g.num_qubits() >= rows * cols);
        }
    }

    #[test]
    fn heavy_hex_scales_past_a_kilo_qubit() {
        let d = heavy_hex(22, 44);
        assert!(
            d.graph().num_qubits() > 1000,
            "got {}",
            d.graph().num_qubits()
        );
        assert!(d.graph().is_connected());
        assert_eq!(d.name(), "heavy-hex-22x44");
    }

    #[test]
    #[should_panic(expected = "at least 3 qubits wide")]
    fn narrow_heavy_hex_panics() {
        let _ = heavy_hex(4, 2);
    }
}
