//! Microbenchmarks of the substrate operations the router's complexity
//! analysis depends on (paper §IV-A preprocessing and §IV-C1 per-step
//! costs).

use std::f64::consts::PI;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sabre_benchgen::{qft, random};
use sabre_circuit::{Circuit, DependencyDag, Qubit};
use sabre_qasm::{parse, to_qasm};
use sabre_sim::StateVector;
use sabre_topology::{devices, DistanceMatrix};

fn bench_distance_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_matrix");
    for (label, device) in [
        ("tokyo_20", devices::ibm_q20_tokyo()),
        ("grid_100", devices::grid(10, 10)),
        ("grid_400", devices::grid(20, 20)),
    ] {
        group.bench_with_input(
            BenchmarkId::new("floyd_warshall", label),
            device.graph(),
            |b, g| b.iter(|| DistanceMatrix::floyd_warshall(g).max_finite()),
        );
        group.bench_with_input(BenchmarkId::new("bfs", label), device.graph(), |b, g| {
            b.iter(|| DistanceMatrix::bfs(g).max_finite())
        });
    }
    group.finish();
}

fn bench_dag_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag_construction");
    for n in [10u32, 20] {
        let circuit = qft::qft(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(circuit.num_gates()),
            &circuit,
            |b, circ| b.iter(|| DependencyDag::new(circ).num_nodes()),
        );
    }
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector");
    group.sample_size(20);
    for n in [8u32, 12, 16] {
        let circuit = qft::qft(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &circuit, |b, circ| {
            b.iter(|| StateVector::zero(n).evolved(circ).norm_sqr())
        });
    }
    group.finish();
}

/// The variational ansatz that plan-cache hits carry: per layer, `rz` with
/// a full-precision angle on each of 16 qubits, then a CX ladder (8
/// layers, 248 gates, about 5.6 KB of text).
fn vqa_ansatz() -> Circuit {
    let mut rng = StdRng::seed_from_u64(2019);
    let mut c = Circuit::new(16);
    for _ in 0..8 {
        for q in 0..16 {
            c.rz(Qubit(q), rng.gen_range(-PI..PI));
        }
        for q in 0..15 {
            c.cx(Qubit(q), Qubit(q + 1));
        }
    }
    c
}

fn bench_qasm_round_trip(c: &mut Criterion) {
    let circuit = qft::qft(16);
    let text = to_qasm(&circuit);
    let mut group = c.benchmark_group("qasm");
    group.bench_function("write_qft16", |b| b.iter(|| to_qasm(&circuit).len()));
    group.bench_function("parse_qft16", |b| {
        b.iter(|| parse(&text).unwrap().num_gates())
    });
    // Bodies shaped like served traffic: number lexing dominates both.
    for (label, circuit) in [
        ("vqa_ansatz16", vqa_ansatz()),
        ("random16_4000", random::random_circuit(16, 4000, 0.9, 2019)),
    ] {
        let text = to_qasm(&circuit);
        group.bench_function(format!("parse_{label}"), |b| {
            b.iter(|| parse(&text).unwrap().num_gates())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_distance_matrix,
    bench_dag_construction,
    bench_simulator,
    bench_qasm_round_trip
);
criterion_main!(benches);
