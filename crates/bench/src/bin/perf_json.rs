//! **Perf-trajectory harness**: routes a fixed synthetic corpus through
//! the hot loop and maintains a machine-readable `BENCH_routing.json`, so
//! every future PR can compare its per-step routing throughput against
//! the committed history instead of re-deriving one from criterion logs.
//!
//! The corpus is pinned (devices × circuit shapes × seeds below); each
//! entry is routed `repeats` times through a single forward
//! [`sabre::router::route_pass`] traversal from the identity layout with
//! [`SabreConfig::fast`], and the **median** wall time is reported
//! together with the per-step quotient. A **sharded** scenario
//! (`fleet2xtokyo20`) additionally times the full multi-device pipeline —
//! partition, per-shard cached routing, stitch — via
//! [`sabre_shard::route_sharded`]. Routing is deterministic, so
//! `num_swaps`/`search_steps` are stable across runs and machines — only
//! the nanosecond figures move.
//!
//! The output file is a **history** (schema `sabre-perf-trajectory/v2`,
//! documented in README.md §Performance): one point per git revision,
//! appended on each run. Re-running at an already-recorded revision
//! replaces that revision's point; a v1 file (single point, PR 3's
//! format) is migrated in place. JSON is read and written through the
//! shared [`sabre_json`] layer — the same code the serving crate uses.
//!
//! Usage:
//!
//! ```text
//! cargo run -p sabre_bench --release --bin perf_json -- \
//!     [--out BENCH_routing.json] [--repeats 7] [--quick] [--fresh]
//! ```
//!
//! `--quick` drops to 2 repeats — the CI smoke configuration (validity
//! and runtime ceiling, not statistics). `--fresh` discards any existing
//! history instead of appending.

use std::process::Command;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sabre::router::route_pass;
use sabre::{DeviceCache, Layout, PlanCache, SabreConfig, SabreRouter};
use sabre_benchgen::random;
use sabre_circuit::fingerprint::Fingerprinter;
use sabre_circuit::{Circuit, Qubit};
use sabre_json::JsonValue;
use sabre_shard::{route_sharded, Fleet, ShardConfig};
use sabre_topology::{devices, CouplingGraph, WeightedDistanceMatrix};

/// Schema tag of the history file.
const SCHEMA_V2: &str = "sabre-perf-trajectory/v2";
/// PR 3's single-point schema, migrated on first append.
const SCHEMA_V1: &str = "sabre-perf-trajectory/v1";

/// One measured corpus entry.
struct Entry {
    device: &'static str,
    circuit: &'static str,
    num_qubits: u32,
    num_gates: usize,
    num_swaps: usize,
    search_steps: usize,
    median_wall_ns: u128,
    median_ns_per_step: u128,
}

impl Entry {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("device", self.device.into()),
            ("circuit", self.circuit.into()),
            ("num_qubits", self.num_qubits.into()),
            ("num_gates", self.num_gates.into()),
            ("num_swaps", self.num_swaps.into()),
            ("search_steps", self.search_steps.into()),
            ("median_wall_ns", self.median_wall_ns.into()),
            ("median_ns_per_step", self.median_ns_per_step.into()),
        ])
    }
}

/// The pinned corpus: `(device, graph, circuit label, qubits, gates)`.
/// Seeds derive from the label so adding entries never shifts existing
/// ones.
fn corpus() -> Vec<(&'static str, CouplingGraph, &'static str, u32, usize)> {
    let tokyo = devices::ibm_q20_tokyo().graph().clone();
    let grid = devices::grid(10, 10).graph().clone();
    // 1089 physical qubits: past DENSE_DISTANCE_THRESHOLD, so `measure`
    // fills distance rows on first touch within ROW_BUDGET_BYTES — this
    // entry pins the kilo-qubit routing claim (deep circuit, bounded
    // memory).
    let kilo = devices::grid(33, 33).graph().clone();
    vec![
        ("tokyo20", tokyo.clone(), "small", 12, 60),
        ("tokyo20", tokyo.clone(), "medium", 16, 500),
        ("tokyo20", tokyo, "deep", 18, 2_000),
        ("grid10x10", grid.clone(), "small", 30, 150),
        ("grid10x10", grid.clone(), "medium", 60, 800),
        ("grid10x10", grid, "deep", 80, 4_000),
        ("grid33x33", kilo, "deep", 200, 4_000),
    ]
}

fn measure(graph: &CouplingGraph, circuit: &Circuit, repeats: usize) -> (usize, usize, u128) {
    // Size-aware preprocessing: rows filled up front for the small
    // devices, on first touch for grid33x33 — same values either way.
    let dist = WeightedDistanceMatrix::auto(graph, |_, _| 1.0);
    let config = SabreConfig::fast();
    let mut walls: Vec<u128> = Vec::with_capacity(repeats);
    let mut swaps = 0;
    let mut steps = 0;
    for _ in 0..repeats {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let layout = Layout::identity(graph.num_qubits());
        let start = Instant::now();
        let routed = route_pass(circuit, graph, &dist, layout, &config, &mut rng);
        walls.push(start.elapsed().as_nanos());
        swaps = routed.num_swaps;
        steps = routed.search_steps;
    }
    walls.sort_unstable();
    (swaps, steps, walls[walls.len() / 2])
}

/// Times the full sharded pipeline on a two-Tokyo fleet: a 30-qubit
/// circuit (wider than either chip) is partitioned, routed per shard
/// through one shared [`DeviceCache`] (cold on the first repeat, warm
/// after — the service shape), and stitched. Counts are deterministic;
/// `search_steps` sums the winning traversal of every shard.
fn measure_sharded(repeats: usize) -> Entry {
    let mut fleet = Fleet::new();
    fleet
        .register("tokyo-a", devices::ibm_q20_tokyo().graph().clone())
        .expect("fresh fleet id");
    fleet
        .register("tokyo-b", devices::ibm_q20_tokyo().graph().clone())
        .expect("fresh fleet id");
    let mut fp = Fingerprinter::new("sabre/perf-json-corpus/v1");
    for byte in "fleet2xtokyo20".bytes().chain("sharded".bytes()) {
        fp.write_u64(u64::from(byte));
    }
    let (num_qubits, num_gates) = (30u32, 1_200usize);
    fp.write_u64(num_gates as u64);
    let circuit = random::random_circuit(num_qubits, num_gates, 0.9, fp.finish());
    let config = ShardConfig {
        sabre: SabreConfig::fast(),
        ..ShardConfig::default()
    };
    let cache = DeviceCache::new();
    let mut walls: Vec<u128> = Vec::with_capacity(repeats);
    let mut num_swaps = 0;
    let mut search_steps = 0;
    for _ in 0..repeats {
        let start = Instant::now();
        let plan = route_sharded(&circuit, &fleet, &config, &cache).expect("sharded routing");
        walls.push(start.elapsed().as_nanos());
        num_swaps = plan.total_swaps();
        search_steps = plan.shards.iter().map(|s| s.result.best.search_steps).sum();
    }
    walls.sort_unstable();
    let median_wall_ns = walls[walls.len() / 2];
    Entry {
        device: "fleet2xtokyo20",
        circuit: "sharded",
        num_qubits,
        num_gates,
        num_swaps,
        search_steps,
        median_wall_ns,
        median_ns_per_step: median_wall_ns / search_steps.max(1) as u128,
    }
}

/// The VQA serving scenario: a deep-grid ansatz (parameterized rotation
/// layers between a fixed entangler) is routed **once**, its plan is
/// cached, and then 1000 re-parameterizations are served by
/// [`PlanCache::lookup`] parameter re-binding. `median_wall_ns` is the
/// median **ns per rebind** — compare it against the `grid10x10/deep`
/// route times above to see the route-once-serve-thousands economics.
/// `search_steps` is 0 by construction: a rebind never searches.
fn measure_vqa_rebind(repeats: usize) -> Entry {
    const REBINDS: usize = 1_000;
    let graph = devices::grid(10, 10).graph().clone();
    let config = SabreConfig::fast();
    let router = SabreRouter::new(graph.clone(), config).expect("grid router");
    let (num_qubits, layers) = (80u32, 20u32);
    let ansatz = |theta: f64| {
        let mut c = Circuit::new(num_qubits);
        for layer in 0..layers {
            for q in 0..num_qubits {
                c.rz(Qubit(q), theta * f64::from(layer * num_qubits + q + 1));
            }
            for q in 0..num_qubits - 1 {
                c.cx(Qubit(q), Qubit(q + 1));
            }
            c.cx(Qubit(0), Qubit(num_qubits - 1));
        }
        c
    };
    let base = ansatz(0.25);
    let routed = router.route(&base).expect("routing the ansatz");
    let cache = PlanCache::with_capacity(4);
    cache.insert(&base, &graph, None, &config, &routed);
    // Variants are prebuilt so the timer sees lookup + rebind, not
    // circuit construction (a real submission parses its circuit before
    // the cache is ever consulted).
    let variants: Vec<Circuit> = (0..64)
        .map(|i| ansatz(0.5 + 0.001 * f64::from(i)))
        .collect();
    let mut walls: Vec<u128> = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        for i in 0..REBINDS {
            let hit = cache
                .lookup(&variants[i % variants.len()], &graph, None, &config)
                .expect("the ansatz structure must hit");
            assert_eq!(hit.total_search_steps(), 0, "a rebind never searches");
        }
        walls.push(start.elapsed().as_nanos() / REBINDS as u128);
    }
    walls.sort_unstable();
    let median_wall_ns = walls[walls.len() / 2];
    Entry {
        device: "grid10x10",
        circuit: "vqa_rebind",
        num_qubits,
        num_gates: base.num_gates(),
        num_swaps: routed.best.num_swaps,
        search_steps: 0,
        median_wall_ns,
        median_ns_per_step: median_wall_ns,
    }
}

/// Current git revision — the trajectory's x-axis. Falls back to
/// `GITHUB_SHA` (CI checkouts without a full repo) and then `"unknown"`.
/// Both paths report the same 12-character short form so trajectory
/// points recorded in different environments key identically. A dirty
/// working tree gets a `-dirty` suffix: the measured code is *not* the
/// named commit, and labeling it as such would let an in-progress run
/// overwrite (or masquerade as) the real measurement for that commit.
fn git_rev() -> String {
    let from_git = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    if let Some(rev) = from_git {
        let dirty = Command::new("git")
            .args(["status", "--porcelain"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .is_some_and(|out| !out.stdout.is_empty());
        return if dirty { format!("{rev}-dirty") } else { rev };
    }
    std::env::var("GITHUB_SHA")
        .ok()
        .map(|sha| sha.chars().take(12).collect())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One trajectory point: everything measured at one revision.
fn render_point(rev: &str, repeats: usize, entries: &[Entry]) -> JsonValue {
    JsonValue::object([
        ("git_rev", rev.into()),
        ("engine", "incremental".into()),
        ("config", "fast".into()),
        ("repeats", repeats.into()),
        ("entries", entries.iter().map(Entry::to_json).collect()),
    ])
}

/// Loads the existing history (if any) as a list of points, migrating a
/// v1 single-point file. Unreadable or unrecognized files abort rather
/// than being silently overwritten.
fn load_history(path: &str) -> Vec<JsonValue> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new(); // no file yet: fresh history
    };
    let doc = JsonValue::parse(&text)
        .unwrap_or_else(|e| panic!("{path} exists but is not valid JSON ({e}); use --fresh"));
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(SCHEMA_V2) => doc
            .get("points")
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("{path}: v2 file without a points array"))
            .to_vec(),
        Some(SCHEMA_V1) => {
            // v1 was one point with the schema inline; strip the tag.
            let point = doc
                .as_object()
                .expect("v1 document is an object")
                .iter()
                .filter(|(k, _)| k != "schema")
                .cloned()
                .collect();
            vec![JsonValue::Object(point)]
        }
        other => panic!("{path}: unrecognized schema {other:?}; use --fresh"),
    }
}

fn main() {
    let mut out_path = "BENCH_routing.json".to_string();
    let mut repeats = 7usize;
    let mut fresh = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--repeats" => {
                repeats = args
                    .next()
                    .expect("--repeats needs a count")
                    .parse()
                    .expect("--repeats must be a positive integer");
                assert!(repeats > 0, "--repeats must be ≥ 1");
            }
            "--quick" => repeats = 2,
            "--fresh" => fresh = true,
            other => panic!("unknown argument `{other}` (try --out/--repeats/--quick/--fresh)"),
        }
    }

    let mut entries = Vec::new();
    for (device, graph, shape, num_qubits, num_gates) in corpus() {
        // Per-entry seed: stable hash of the label bytes, so the corpus
        // can grow without perturbing or colliding with existing entries.
        let mut fp = Fingerprinter::new("sabre/perf-json-corpus/v1");
        for byte in device.bytes().chain(shape.bytes()) {
            fp.write_u64(u64::from(byte));
        }
        fp.write_u64(num_gates as u64);
        let circuit = random::random_circuit(num_qubits, num_gates, 0.9, fp.finish());
        let (num_swaps, search_steps, median_wall_ns) = measure(&graph, &circuit, repeats);
        let median_ns_per_step = median_wall_ns / search_steps.max(1) as u128;
        eprintln!(
            "{device}/{shape}: swaps={num_swaps} steps={search_steps} \
             median_wall={median_wall_ns}ns ns/step={median_ns_per_step}"
        );
        entries.push(Entry {
            device,
            circuit: shape,
            num_qubits,
            num_gates,
            num_swaps,
            search_steps,
            median_wall_ns,
            median_ns_per_step,
        });
    }
    let sharded = measure_sharded(repeats);
    eprintln!(
        "{}/{}: swaps={} steps={} median_wall={}ns ns/step={}",
        sharded.device,
        sharded.circuit,
        sharded.num_swaps,
        sharded.search_steps,
        sharded.median_wall_ns,
        sharded.median_ns_per_step
    );
    entries.push(sharded);
    let vqa = measure_vqa_rebind(repeats);
    eprintln!(
        "{}/{}: swaps={} ns/rebind={} (route once, rebind {}×)",
        vqa.device, vqa.circuit, vqa.num_swaps, vqa.median_wall_ns, 1000
    );
    entries.push(vqa);

    let rev = git_rev();
    let mut points = if fresh {
        Vec::new()
    } else {
        load_history(&out_path)
    };
    let point = render_point(&rev, repeats, &entries);
    // One point per revision: re-running replaces this rev's measurement.
    match points
        .iter_mut()
        .find(|p| p.get("git_rev").and_then(JsonValue::as_str) == Some(rev.as_str()))
    {
        Some(existing) => *existing = point,
        None => points.push(point),
    }
    let history = JsonValue::object([
        ("schema", SCHEMA_V2.into()),
        ("points", JsonValue::Array(points)),
    ]);
    std::fs::write(&out_path, history.to_pretty()).expect("writing the trajectory file");
    println!("wrote {out_path} (revision {rev})");
}
