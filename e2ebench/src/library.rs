//! The library workloads: `table2_paper` and `kilo_grid`. One thread
//! routes a fixed list of circuits in sweeps, as a closed loop, through
//! `DeviceCache::router` → `SabreRouter::route`.

use std::time::Instant;

use sabre::{DeviceCache, PlanQuality, SabreConfig, SabreResult, SabreRouter};
use sabre_benchgen::{random, registry};
use sabre_circuit::interaction::InteractionGraph;
use sabre_circuit::Circuit;
use sabre_topology::embedding::{self, Embedding};
use sabre_topology::{devices, CouplingGraph};
use sabre_verify::verify_routed;

use crate::host::{self, Probe};
use crate::report::{self, Run};
use crate::spans::{elapsed_ns, Spans};
use crate::stats::{self, Latencies, Outcome};
use crate::{Ctx, SplitMix, SETUP_REPS};

/// Which library workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The 26 Table II circuits on IBM Q20 Tokyo.
    Table2,
    /// Seeded random circuits on a 33×33 grid (1,089 qubits).
    KiloGrid,
}

/// `kilo_grid` circuits per sweep.
const KILO_CIRCUITS: u64 = 13;
/// Logical qubits of each `kilo_grid` circuit.
const KILO_QUBITS: u32 = 32;
/// Gates of each `kilo_grid` circuit but the last.
const KILO_GATES: usize = 120;
/// Gates of the last `kilo_grid` circuit. Its routes are the slowest,
/// so the tail is its latency; with 13 circuits of one size the tail
/// was only the host noise on top of the median.
const KILO_LARGE_GATES: usize = 480;
/// Two-qubit share of each `kilo_grid` circuit.
const KILO_TWO_QUBIT: f64 = 0.9;

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Table2 => "table2_paper",
            Kind::KiloGrid => "kilo_grid",
        }
    }

    /// Timed sweeps whose routes the tail is taken over: a fixed number,
    /// so the percentile the tail rule picks (p95) does not change with
    /// the speed of the host. A 20 s run completes them even when the
    /// host runs at half speed.
    fn tail_sweeps(self) -> usize {
        match self {
            Kind::Table2 => 12,
            Kind::KiloGrid => 20,
        }
    }

    /// The device, the circuits in sweep order, and the router config.
    /// The seed sets `SabreConfig::seed` and the sweep order. The
    /// `kilo_grid` circuits come from one fixed stream: drawn per seed,
    /// the slowest of the 13 set the tail, which then moved with each
    /// seed's draw (spread 0.14 over ten seeds, against 0.03 on
    /// `table2_paper`).
    fn inputs(self, seed: u64) -> (CouplingGraph, Vec<Circuit>, SabreConfig) {
        let config = SabreConfig {
            seed,
            ..SabreConfig::paper()
        };
        let (graph, mut circuits) = match self {
            Kind::Table2 => (
                devices::ibm_q20_tokyo().graph().clone(),
                registry::table2().iter().map(|s| s.generate()).collect(),
            ),
            Kind::KiloGrid => {
                let mut rng = SplitMix::new(crate::DEFAULT_SEED, 2);
                let circuits: Vec<Circuit> = (0..KILO_CIRCUITS)
                    .map(|i| {
                        let gates = if i + 1 == KILO_CIRCUITS {
                            KILO_LARGE_GATES
                        } else {
                            KILO_GATES
                        };
                        random::random_circuit(KILO_QUBITS, gates, KILO_TWO_QUBIT, rng.next_u64())
                    })
                    .collect();
                (devices::grid(33, 33).graph().clone(), circuits)
            }
        };
        let mut rng = SplitMix::new(seed, 1);
        for i in (1..circuits.len()).rev() {
            circuits.swap(i, rng.below(i + 1));
        }
        (graph, circuits, config)
    }
}

/// What identifies one routed output across sweeps.
fn digest(result: &SabreResult) -> u64 {
    let layout = |l: &sabre::Layout| {
        l.logical_to_physical()
            .iter()
            .flat_map(|q| q.0.to_le_bytes())
            .collect::<Vec<u8>>()
    };
    let counts = [
        result.best.num_swaps as u64,
        result.total_search_steps() as u64,
        result.best.physical.num_gates() as u64,
    ]
    .map(u64::to_le_bytes)
    .concat();
    crate::fnv1a([
        &counts[..],
        &layout(&result.best.initial_layout),
        &layout(&result.best.final_layout),
    ])
}

/// The median circuit's median route latency. The circuits differ in
/// size by orders of magnitude, so the median over all samples sits on
/// the edge between two circuits and jumps between them from run to
/// run; this does not. Half or more of the ops failing misses it.
fn circuit_median(per_circuit: &[Vec<f64>], ops: &Latencies) -> f64 {
    if ops.failed() * 2 >= ops.attempted() || per_circuit.iter().any(Vec::is_empty) {
        return stats::TIMEOUT_MS;
    }
    let medians: Vec<f64> = per_circuit.iter().map(|v| stats::median(v)).collect();
    stats::median(&medians)
}

/// Runs one library workload.
pub fn run(kind: Kind, ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let mut spans = Spans::default();
    let mut probe = Probe::default();

    // Set-up, repeated: circuit generation plus cold distance
    // preprocessing in a fresh DeviceCache. The last repetition's
    // router serves the timed section. A probe follows each repetition.
    let mut setup_s = Vec::new();
    let mut setup_probe_ms = Vec::new();
    let mut topology_ms = Vec::new();
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        // Free the previous repetition first, so that every repetition
        // allocates into the same state of the heap.
        drop(prepared.take());
        let start = if rep == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        let (graph, circuits, config) = kind.inputs(ctx.seed);
        let cache = DeviceCache::new();
        let t = Instant::now();
        let router = cache
            .router(&graph, config)
            .expect("valid device and config")
            .without_embedding_cache();
        topology_ms.push(elapsed_ns(t) as f64 / 1e6);
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some((graph, circuits, config, cache, router));
        setup_probe_ms.push(probe.run());
    }
    let (graph, circuits, config, cache, router) = prepared.expect("at least one set-up");
    // Traced sweeps route with the hot-loop profiler on; it never
    // changes the result (pinned by the repository's equivalence tests,
    // and by the digest check below).
    let profiled: SabreRouter = cache
        .router(
            &graph,
            SabreConfig {
                profile: true,
                ..config
            },
        )
        .expect("valid device and config")
        .without_embedding_cache();

    // Timed section: whole sweeps until the duration has passed, after an
    // untimed warm-up sweep that fills the distance-row caches. A traced
    // run alternates untraced and traced sweeps. A probe precedes every
    // route; each sweep's latencies are divided by its probes' slowdown.
    let mut untraced = Latencies::default();
    let mut traced = Latencies::default();
    // The routes of the first `tail_sweeps` timed untraced sweeps.
    let mut tail_ops = Latencies::default();
    let mut tail_sweeps = 0;
    let mut first: Vec<SabreResult> = Vec::with_capacity(circuits.len());
    let mut first_digest = Vec::with_capacity(circuits.len());
    let (mut route_ns, mut route_steps) = (0u64, 0u64);
    let (mut probes, mut probes_found) = (0usize, 0usize);
    let mut hot_loop = [0u64; 3];
    let mut start = Instant::now();
    let mut sweep = 0usize;
    // Routes completed per normalised second, and the raw route time, of
    // each untraced sweep.
    let mut sweep_rate = Vec::new();
    let mut sweep_raw_ms = Vec::new();
    let mut probe_ms = Vec::new();
    // Per-circuit latencies of untraced [0] and traced [1] sweeps.
    let mut per_circuit: [Vec<Vec<f64>>; 2] = [
        vec![Vec::new(); circuits.len()],
        vec![Vec::new(); circuits.len()],
    ];
    while sweep < 3 || start.elapsed() < ctx.duration {
        let traced_sweep = ctx.traced && sweep % 2 == 1;
        let mut sweep_probe_ms = Vec::with_capacity(circuits.len());
        // Raw route latency of each circuit; `None` when routing failed.
        let mut raw_ms: Vec<Option<f64>> = Vec::with_capacity(circuits.len());
        for (i, circuit) in circuits.iter().enumerate() {
            sweep_probe_ms.push(probe.run());
            let result = if traced_sweep {
                let pattern = InteractionGraph::of(circuit);
                let (verdict, _) = spans.time("sabre.probe", None, || {
                    embedding::find_embedding_within(
                        &pattern,
                        &graph,
                        config.embedding_probe_budget,
                    )
                });
                probes += 1;
                probes_found += usize::from(matches!(verdict, Some(Embedding::Found(_))));
                let (result, id) = spans.time("sabre.route", None, || profiled.route(circuit));
                raw_ms.push(result.is_ok().then(|| spans.dur_ns(id) as f64 / 1e6));
                if let Ok(r) = &result {
                    let p = r
                        .profile
                        .as_ref()
                        .expect("profiled route carries a profile");
                    for (slot, (name, ns)) in [
                        ("router.front", p.front_ns),
                        ("router.extended_set", p.extended_set_ns),
                        ("router.scoring", p.scoring_ns),
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        spans.record(name, Some(id), ns);
                        hot_loop[slot] += ns;
                    }
                    spans.time("quality.of_result", None, || {
                        PlanQuality::of_result(circuit, r, None)
                    });
                }
                result
            } else {
                let t = Instant::now();
                let result = router.route(circuit);
                let ns = elapsed_ns(t);
                if let (Ok(r), true) = (&result, sweep > 0) {
                    route_ns += ns;
                    route_steps += r.total_search_steps() as u64;
                }
                raw_ms.push(result.is_ok().then(|| ns as f64 / 1e6));
                result
            };
            match result {
                Ok(r) if sweep == 0 => {
                    first_digest.push(digest(&r));
                    first.push(r);
                }
                Ok(r) => run.check(digest(&r) == first_digest[i], || {
                    format!("`{}` routed differently in sweep {sweep}", circuit.name())
                }),
                Err(e) => {
                    run.check(false, || {
                        format!("routing `{}` failed: {e}", circuit.name())
                    });
                    if sweep == 0 {
                        return run;
                    }
                }
            }
        }
        if sweep == 0 {
            sweep += 1;
            start = Instant::now();
            continue;
        }
        let slowdown = host::slowdown(&sweep_probe_ms);
        probe_ms.extend(sweep_probe_ms);
        let (ops, per_circuit) = if traced_sweep {
            (&mut traced, &mut per_circuit[1])
        } else {
            (&mut untraced, &mut per_circuit[0])
        };
        for (i, ms) in raw_ms.iter().enumerate() {
            ops.push(ms.map_or(Outcome::Failed, |ms| Outcome::Ok(ms / slowdown)));
            per_circuit[i].extend(ms.map(|ms| ms / slowdown));
        }
        if !traced_sweep {
            if tail_sweeps < kind.tail_sweeps() {
                tail_sweeps += 1;
                for ms in &raw_ms {
                    tail_ops.push(ms.map_or(Outcome::Failed, |ms| Outcome::Ok(ms / slowdown)));
                }
            }
            let raw_total: f64 = raw_ms.iter().flatten().sum();
            let completed = raw_ms.iter().flatten().count();
            sweep_rate.push(completed as f64 * 1e3 * slowdown / raw_total.max(f64::MIN_POSITIVE));
            sweep_raw_ms.push(raw_total);
        }
        sweep += 1;
    }
    let peak_rss_mb = stats::peak_rss_mb();

    // Checks, outside the timed section: replay-verify every distinct
    // output, and pin the deterministic counts.
    let (mut added_gates, mut depth_overhead, mut steps, mut perfect) = (0u64, 0u64, 0u64, 0u64);
    for (circuit, result) in circuits.iter().zip(&first) {
        let best = &result.best;
        let (verdict, _) = spans.time("verify", None, || {
            verify_routed(
                circuit,
                &best.physical,
                best.initial_layout.logical_to_physical(),
                best.final_layout.logical_to_physical(),
                &graph,
            )
        });
        run.check(verdict.is_ok(), || {
            format!("`{}` failed verification: {verdict:?}", circuit.name())
        });
        let quality = PlanQuality::of_result(circuit, result, None);
        added_gates += quality.added_gates as u64;
        depth_overhead += quality.depth_overhead as u64;
        steps += result.total_search_steps() as u64;
        perfect += u64::from(result.perfect_placement);
    }
    run.check_counts(
        kind.name(),
        ctx.seed,
        &[
            ("added_gates", added_gates),
            ("depth_overhead", depth_overhead),
            ("router.steps", steps),
        ],
    );
    let sweep_ms: Vec<String> = sweep_raw_ms.iter().map(|ms| format!("{ms:.0}")).collect();
    run.note(format!(
        "raw route ms per untraced sweep: {}",
        sweep_ms.join(" ")
    ));
    let raw_rate = circuits.len() as f64 * 1e3 / stats::median(&sweep_raw_ms);
    run.note(format!(
        "host probe median {:.3} ms over {} probes (nominal {}); raw median sweep {raw_rate:.3} ops/s",
        stats::median(&probe_ms),
        probe_ms.len(),
        host::PROBE_NOMINAL_MS
    ));
    run.note(format!(
        "{} distinct circuits, {sweep} sweeps, {} qubits on the device",
        circuits.len(),
        graph.num_qubits()
    ));

    run.attempted = untraced.attempted() + traced.attempted();
    run.failed = untraced.failed() + traced.failed();
    if ctx.traced {
        // Replay the QASM layer on the same circuits; no library workload
        // goes through it end to end.
        let mut qasm_bytes = 0usize;
        for circuit in &circuits {
            let (text, _) = spans.time("qasm.write", None, || sabre_qasm::to_qasm(circuit));
            let (parsed, _) = spans.time("qasm.parse", None, || sabre_qasm::parse(&text));
            qasm_bytes += text.len();
            run.check(parsed.is_ok(), || {
                format!("QASM of `{}` did not parse back", circuit.name())
            });
        }
        let route_ns_traced = spans.total_ns("sabre.route").max(1) as f64;
        let routes = spans.count("sabre.route").max(1) as f64;
        let med_ms = |name: &str| stats::median(&spans.durations_ms(name));
        run.set("topology.setup_ms", stats::median(&topology_ms));
        run.set("host.probe_ms", stats::median(&probe_ms));
        run.set("router.steps", steps as f64);
        run.set(
            "router.ns_per_step",
            route_ns as f64 / route_steps.max(1) as f64,
        );
        run.set("router.front_share", hot_loop[0] as f64 / route_ns_traced);
        run.set(
            "router.extended_set_share",
            hot_loop[1] as f64 / route_ns_traced,
        );
        run.set("router.scoring_share", hot_loop[2] as f64 / route_ns_traced);
        run.set("sabre.route_ms", med_ms("sabre.route"));
        run.set("sabre.probe_ms", med_ms("sabre.probe"));
        run.set(
            "sabre.probe_found_ratio",
            probes_found as f64 / probes.max(1) as f64,
        );
        run.set("sabre.perfect_placements", perfect as f64);
        run.set("quality.of_result_us", 1e3 * med_ms("quality.of_result"));
        run.set("qasm.write_us", 1e3 * med_ms("qasm.write"));
        run.set("qasm.parse_us", 1e3 * med_ms("qasm.parse"));
        let parse_s = spans.total_ns("qasm.parse").max(1) as f64 / 1e9;
        run.set("qasm.parse_mb_per_s", qasm_bytes as f64 / 1e6 / parse_s);
        run.bypass(&["plan.", "serve.", "self.client", "self.serve"]);
        run.set("verify.ms", spans.total_ns("verify") as f64 / 1e6);
        run.set(
            "self.sabre_ms",
            spans.self_ns("sabre.route") as f64 / 1e6 / routes,
        );
        run.set(
            "self.router_ms",
            spans.self_ns("router.") as f64 / 1e6 / routes,
        );
        let overhead =
            circuit_median(&per_circuit[1], &traced) - circuit_median(&per_circuit[0], &untraced);
        run.set("overhead.latency_p50_ms", overhead);
        run.set("overhead.miss_p50_ms", overhead);
        match report::write_spans(kind.name(), ctx.seed, &spans.to_jsonl()) {
            Ok(path) => run.note(format!("spans written to {}", path.display())),
            Err(e) => run.note(format!("note: spans not written: {e}")),
        }
    } else {
        let ops = &untraced;
        let p50 = circuit_median(&per_circuit[0], ops);
        let tail = tail_ops.tail();
        run.check(tail.is_some(), || {
            format!(
                "{} route samples leave no percentile with {} beyond it",
                tail_ops.attempted(),
                stats::MIN_BEYOND
            )
        });
        let tail_ms = tail.map_or(stats::TIMEOUT_MS, |t| t.value_ms);
        if let Some(t) = tail {
            run.note(format!(
                "latency_tail_ms is p{} over the {} route samples of the first {tail_sweeps} timed sweeps ({} beyond)",
                t.percentile,
                tail_ops.attempted(),
                t.beyond
            ));
        }
        run.note("miss_* = latency_*: every library op is a full route (no plan cache)".into());
        run.set(
            "setup_s",
            stats::median(&setup_s) / host::slowdown(&setup_probe_ms),
        );
        // Throughput of the median sweep: a burst of load from outside
        // the benchmark that covers less than half the run does not move it.
        let ok_share = ops.completed() as f64 / ops.attempted().max(1) as f64;
        run.set("ops_per_s", stats::median(&sweep_rate));
        run.set("latency_p50_ms", p50);
        run.set("latency_tail_ms", tail_ms);
        run.set("miss_p50_ms", p50);
        run.set("miss_tail_ms", tail_ms);
        run.set("ok_ratio", ok_share);
        run.note(format!(
            "fail_ratio {} ratio (reported as ok_ratio = 1 - fail_ratio)",
            1.0 - ok_share
        ));
        run.set("added_gates", added_gates as f64);
        run.set("depth_overhead", depth_overhead as f64);
        run.set("peak_rss_mb", peak_rss_mb);
    }
    run
}
