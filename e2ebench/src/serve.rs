//! The `serve_vqa` workload: an in-process `sabre_serve` on loopback,
//! driven by two closed-loop keep-alive clients on one connection each.
//!
//! - The VQA optimizer resubmits one 16-qubit, 8-layer ansatz with fresh
//!   angles after a fixed think time. After the priming request every
//!   submission is a plan-cache hit, answered inline on the reactor.
//! - The compile client submits distinct seeded 16-qubit random
//!   circuits (9 in 10 with 500 gates, 1 in 10 with 4,000), all misses
//!   routed on the worker.
//!
//! The timed section runs in blocks of about a second; between blocks,
//! with the server idle, the host probe runs, and each block's latencies
//! are divided by the slowdown of the probes on either side of it.
//!
//! Responses are reduced to a digest during the run; every output is
//! rebuilt, compared and replay-verified after the timed section.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use sabre::{DeviceCache, PlanCache, PlanQuality, SabreConfig, SabreResult, SabreRouter};
use sabre_benchgen::random;
use sabre_circuit::interaction::InteractionGraph;
use sabre_circuit::{Circuit, Qubit};
use sabre_json::JsonValue;
use sabre_serve::{ServeConfig, ServerHandle};
use sabre_topology::embedding::{self, Embedding};
use sabre_topology::{devices, CouplingGraph};
use sabre_verify::verify_routed;

use crate::host::{self, Probe};
use crate::report::{self, Run};
use crate::spans::{elapsed_ns, Spans};
use crate::stats::{self, Latencies};
use crate::{fnv1a, Ctx, SplitMix, SETUP_REPS};

const DEVICE: &str = "tokyo20";
const ANSATZ_QUBITS: u32 = 16;
const ANSATZ_LAYERS: usize = 8;
/// VQA optimizer think time between a response and the next submission.
const THINK: Duration = Duration::from_millis(2);
const COMPILE_QUBITS: u32 = 16;
const COMPILE_GATES: usize = 500;
const COMPILE_LARGE_GATES: usize = 4000;
/// Every `COMPILE_LARGE_EVERY`-th compile circuit is the large one.
const COMPILE_LARGE_EVERY: u64 = 10;
/// The compile client submits on this schedule, or at once when its
/// previous answer came late: 40 a second, about half of what the worker
/// routes back to back on an unloaded host. So the number of misses in a
/// run, and with it the tail percentile picked (p98 at 20 s), does not
/// depend on the speed of the host, and the large circuits (4 a second)
/// make up enough of all requests that their tail (p99.5) falls among
/// them rather than on the edge between them and the rest.
const COMPILE_PERIOD: Duration = Duration::from_millis(25);
const COMPILE_TWO_QUBIT: f64 = 0.9;
/// The deterministic counts cover the ansatz plus this many compile
/// circuits, routed directly whether or not the run reached them.
const COUNTED_COMPILES: u64 = 20;
/// Trace-ring capacity of the traced server: every request is kept.
const TRACE_RING: usize = 1 << 16;
/// Length of one block of load.
const BLOCK: Duration = Duration::from_secs(1);
/// Probes run on each probe thread between two blocks.
const PROBE_BURST: usize = 5;
/// Probe threads: one per core of the 2-vCPU machine the bounds were set on.
const PROBE_THREADS: usize = 2;

/// The ansatz with the angles of submission `j`: Rz on every qubit then a
/// CX ladder, per layer (248 gates).
fn ansatz(seed: u64, j: u64) -> Circuit {
    let mut rng = SplitMix::new(seed, (1 << 40) + j);
    let mut c = Circuit::new(ANSATZ_QUBITS);
    for _ in 0..ANSATZ_LAYERS {
        for q in 0..ANSATZ_QUBITS {
            c.rz(Qubit(q), rng.angle());
        }
        for q in 0..ANSATZ_QUBITS - 1 {
            c.cx(Qubit(q), Qubit(q + 1));
        }
    }
    c
}

/// Compile circuit `i` of the seeded list.
fn compile(seed: u64, i: u64) -> Circuit {
    let gates = if i % COMPILE_LARGE_EVERY == COMPILE_LARGE_EVERY - 1 {
        COMPILE_LARGE_GATES
    } else {
        COMPILE_GATES
    };
    let circuit_seed = SplitMix::new(seed, (2 << 40) + i).next_u64();
    random::random_circuit(COMPILE_QUBITS, gates, COMPILE_TWO_QUBIT, circuit_seed)
}

/// The `/route` request body for `qasm`.
fn route_body(qasm: String) -> Vec<u8> {
    let circuit = JsonValue::object([("qasm", JsonValue::from(qasm))]);
    JsonValue::object([
        ("device", JsonValue::from(DEVICE)),
        ("include_physical", true.into()),
        ("circuit", circuit),
    ])
    .to_compact()
    .into_bytes()
}

/// A minimal HTTP/1.1 keep-alive client over one connection.
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            stream: None,
            buf: Vec::with_capacity(1 << 16),
        }
    }

    /// Sends one request and reads the whole response. Any error drops
    /// the connection; the next request reconnects.
    fn send(
        &mut self,
        method: &str,
        target: &str,
        id: &str,
        body: &[u8],
    ) -> io::Result<(u16, Vec<u8>)> {
        let result = self.exchange(method, target, id, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        id: &str,
        body: &[u8],
    ) -> io::Result<(u16, Vec<u8>)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_millis(stats::TIMEOUT_MS as u64)))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let mut request = format!(
            "{method} {target} HTTP/1.1\r\nHost: localhost\r\nX-Request-Id: {id}\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        stream.write_all(&request)?;

        self.buf.clear();
        let mut chunk = [0u8; 1 << 16];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut close = false;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| bad("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        while self.buf.len() < head_end + length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }
}

/// What the run keeps of one `/route` exchange.
#[derive(Clone, Debug, Default)]
struct Exchange {
    /// Submission index (`j` of the ansatz, `i` of the compile list).
    index: u64,
    /// `None` on timeout or I/O error.
    status: Option<u16>,
    rtt_ns: u64,
    /// Client-side `to_qasm` time for the body.
    write_ns: u64,
    plan_cache: String,
    steps: u64,
    route_ns: u64,
    added_gates: u64,
    depth_overhead: u64,
    /// `(front, extended_set, scoring)` ns when the route was profiled.
    profile: Option<[u64; 3]>,
    /// Digest of `physical_qasm` and both layouts.
    digest: u64,
    /// When the exchange ended, from the start of its block.
    done_ns: u64,
    /// Host slowdown measured around its block.
    slowdown: f64,
}

impl Exchange {
    fn ok(&self) -> bool {
        self.status == Some(200)
    }

    /// Round trip normalised by the host slowdown.
    fn latency_ms(&self) -> f64 {
        self.rtt_ns as f64 / 1e6 / self.slowdown
    }
}

/// Digest of one routed output: its physical QASM and both layouts.
fn output_digest(physical_qasm: &str, initial: &[u64], fin: &[u64]) -> u64 {
    let bytes = |l: &[u64]| {
        l.iter()
            .flat_map(|&q| (q as u32).to_le_bytes())
            .collect::<Vec<u8>>()
    };
    fnv1a([physical_qasm.as_bytes(), &bytes(initial), &bytes(fin)])
}

fn result_digest(result: &SabreResult) -> u64 {
    let layout = |l: &sabre::Layout| {
        l.logical_to_physical()
            .iter()
            .map(|q| u64::from(q.0))
            .collect::<Vec<_>>()
    };
    output_digest(
        &sabre_qasm::to_qasm(&result.best.physical),
        &layout(&result.best.initial_layout),
        &layout(&result.best.final_layout),
    )
}

/// Sends one `/route` and reduces the response.
fn submit(client: &mut Client, target: &str, id: &str, index: u64, circuit: &Circuit) -> Exchange {
    let t = Instant::now();
    let qasm = sabre_qasm::to_qasm(circuit);
    let write_ns = elapsed_ns(t);
    let body = route_body(qasm);
    let t = Instant::now();
    let response = client.send("POST", target, id, &body);
    let rtt_ns = elapsed_ns(t);
    let mut ex = Exchange {
        index,
        rtt_ns,
        write_ns,
        slowdown: 1.0,
        ..Exchange::default()
    };
    let Ok((status, body)) = response else {
        return ex;
    };
    ex.status = Some(status);
    if status != 200 {
        return ex;
    }
    let Some(json) = std::str::from_utf8(&body)
        .ok()
        .and_then(|t| JsonValue::parse(t).ok())
    else {
        // A 200 without a readable body is a failed exchange.
        ex.status = None;
        return ex;
    };
    let u = |v: Option<&JsonValue>| v.and_then(JsonValue::as_u64).unwrap_or(u64::MAX);
    let result = json.get("result");
    let best = result.and_then(|r| r.get("best"));
    let layout = |key| -> Vec<u64> {
        best.and_then(|b| b.get(key))
            .and_then(JsonValue::as_array)
            .map(|a| a.iter().map(|q| q.as_u64().unwrap_or(u64::MAX)).collect())
            .unwrap_or_default()
    };
    ex.plan_cache = json
        .get("plan_cache")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_string();
    ex.steps = u(result.and_then(|r| r.get("total_search_steps")));
    ex.route_ns = u(result.and_then(|r| r.get("elapsed_ns")));
    let quality = json.get("quality");
    ex.added_gates = u(quality.and_then(|q| q.get("added_gates")));
    ex.depth_overhead = u(quality.and_then(|q| q.get("depth_overhead")));
    ex.profile = result
        .and_then(|r| r.get("profile"))
        .map(|p| ["front_ns", "extended_set_ns", "scoring_ns"].map(|k| u(p.get(k))));
    let physical = json
        .get("physical_qasm")
        .and_then(JsonValue::as_str)
        .unwrap_or("");
    ex.digest = output_digest(physical, &layout("initial_layout"), &layout("final_layout"));
    ex
}

fn server_config(traced: bool) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_requests_per_connection: usize::MAX,
        trace_capacity: if traced { TRACE_RING } else { 0 },
        default_config: SabreConfig::paper(),
        ..ServeConfig::default()
    }
}

/// A started server with the device registered and the ansatz primed.
struct Server {
    handle: ServerHandle,
    vqa: Client,
    priming: Exchange,
    topology_ms: f64,
}

fn start_server(seed: u64, traced: bool, graph: &CouplingGraph) -> Server {
    let handle = sabre_serve::start(server_config(traced)).expect("server starts on loopback");
    let t = Instant::now();
    handle
        .register_device(DEVICE, graph)
        .expect("tokyo20 registers");
    let topology_ms = elapsed_ns(t) as f64 / 1e6;
    let mut vqa = Client::new(handle.addr());
    let priming = submit(&mut vqa, "/route", "prime", 0, &ansatz(seed, 0));
    Server {
        handle,
        vqa,
        priming,
        topology_ms,
    }
}

/// One timed phase: both clients until `duration` has passed.
#[derive(Default)]
struct Phase {
    hits: Vec<Exchange>,
    misses: Vec<Exchange>,
}

/// A timed phase as blocks of load with probe bursts between them, on
/// both cores at once as the server and clients use both; each exchange
/// carries the slowdown of the bursts around its block.
fn run_blocks(
    server: &mut Server,
    seed: u64,
    duration: Duration,
    profile: bool,
    next_j: &mut u64,
    next_i: &mut u64,
    probe_ms: &mut Vec<f64>,
) -> Phase {
    let start = Instant::now();
    let mut all = Phase::default();
    let mut before = Probe::parallel_burst(PROBE_THREADS, PROBE_BURST);
    loop {
        let length = duration.saturating_sub(start.elapsed()).min(BLOCK);
        let mut phase = run_phase(server, seed, length, profile, next_j, next_i);
        let after = Probe::parallel_burst(PROBE_THREADS, PROBE_BURST);
        let slowdown = host::slowdown(&[before.as_slice(), after.as_slice()].concat());
        for ex in phase.hits.iter_mut().chain(&mut phase.misses) {
            ex.slowdown = slowdown;
        }
        all.hits.append(&mut phase.hits);
        all.misses.append(&mut phase.misses);
        probe_ms.append(&mut before);
        before = after;
        if start.elapsed() >= duration {
            break;
        }
    }
    probe_ms.append(&mut before);
    all
}

fn run_phase(
    server: &mut Server,
    seed: u64,
    duration: Duration,
    profile: bool,
    next_j: &mut u64,
    next_i: &mut u64,
) -> Phase {
    let addr = server.handle.addr();
    let vqa = &mut server.vqa;
    let (j0, i0) = (*next_j, *next_i);
    let start = Instant::now();
    let deadline = start + duration;
    let (hits, misses) = thread::scope(|s| {
        let hits = s.spawn(move || {
            let mut out = Vec::new();
            let mut j = j0;
            while Instant::now() < deadline {
                let mut ex = submit(vqa, "/route", &format!("h{j}"), j, &ansatz(seed, j));
                ex.done_ns = elapsed_ns(start);
                out.push(ex);
                j += 1;
                thread::sleep(THINK);
            }
            out
        });
        let misses = s.spawn(move || {
            let mut client = Client::new(addr);
            let target = if profile {
                "/route?profile=true"
            } else {
                "/route"
            };
            let mut out = Vec::new();
            let mut i = i0;
            let mut due = start;
            loop {
                let circuit = compile(seed, i);
                thread::sleep(due.saturating_duration_since(Instant::now()));
                if Instant::now() >= deadline {
                    break;
                }
                let mut ex = submit(&mut client, target, &format!("m{i}"), i, &circuit);
                ex.done_ns = elapsed_ns(start);
                out.push(ex);
                i += 1;
                due += COMPILE_PERIOD;
            }
            out
        });
        (
            hits.join().expect("VQA client thread"),
            misses.join().expect("compile client thread"),
        )
    });
    *next_j = j0 + hits.len() as u64;
    *next_i = i0 + misses.len() as u64;
    Phase { hits, misses }
}

fn latencies<'a>(exchanges: impl IntoIterator<Item = &'a Exchange>) -> Latencies {
    let mut l = Latencies::default();
    for ex in exchanges {
        l.push(stats::classify(ex.status, ex.latency_ms()));
    }
    l
}

/// The compile path's capacity: completed compile (miss) requests per
/// normalised second of round trip, that is, what one client submitting
/// back to back would complete. Taken in the median group of
/// `COMPILE_LARGE_EVERY` consecutive compile circuits, so every group
/// holds the same mix of small and large circuits, and a burst of load
/// from outside the benchmark that covers less than half the groups does
/// not move it. The wall-clock rate is left out: both clients run on a
/// schedule of their own, so it would measure the benchmark's pacing, not
/// the server.
fn median_miss_rate(phase: &Phase) -> f64 {
    let rates: Vec<f64> = phase
        .misses
        .chunks_exact(COMPILE_LARGE_EVERY as usize)
        .map(|group| {
            let completed = group.iter().filter(|e| e.ok()).count();
            let busy_ms: f64 = group.iter().map(Exchange::latency_ms).sum();
            completed as f64 * 1e3 / busy_ms
        })
        .collect();
    stats::median_or_zero(&rates)
}

/// Outcome of re-deriving one served output after the run.
#[derive(Default)]
struct Checked {
    problems: Vec<String>,
    verify_ns: u64,
    parse_ns: Vec<u64>,
    body_bytes: usize,
}

/// Parses the body the server parsed, the way it parsed it.
fn served_circuit(circuit: &Circuit, checked: &mut Checked) -> Circuit {
    let qasm = sabre_qasm::to_qasm(circuit);
    let t = Instant::now();
    let parsed = sabre_qasm::parse(&qasm).expect("generated QASM parses");
    checked.parse_ns.push(elapsed_ns(t));
    checked.body_bytes += qasm.len();
    parsed
}

/// Compares a served output with the expected one and replay-verifies it.
fn check_output(
    label: &str,
    ex: &Exchange,
    circuit: &Circuit,
    expected: &SabreResult,
    quality: &PlanQuality,
    graph: &CouplingGraph,
    checked: &mut Checked,
) {
    if ex.digest != result_digest(expected) {
        checked.problems.push(format!(
            "{label}: served output differs from the direct route"
        ));
    }
    if (ex.added_gates, ex.depth_overhead)
        != (quality.added_gates as u64, quality.depth_overhead as u64)
    {
        checked.problems.push(format!(
            "{label}: served quality differs from the direct route"
        ));
    }
    let best = &expected.best;
    let t = Instant::now();
    let verdict = verify_routed(
        circuit,
        &best.physical,
        best.initial_layout.logical_to_physical(),
        best.final_layout.logical_to_physical(),
        graph,
    );
    checked.verify_ns += elapsed_ns(t);
    if let Err(e) = verdict {
        checked
            .problems
            .push(format!("{label}: output failed verification: {e}"));
    }
}

/// Checks every miss against a direct route of the same circuit.
fn check_misses(
    seed: u64,
    misses: &[&Exchange],
    router: &SabreRouter,
    graph: &CouplingGraph,
) -> Checked {
    let mut checked = Checked::default();
    for ex in misses {
        let label = format!("miss m{}", ex.index);
        if ex.plan_cache != "miss" {
            checked
                .problems
                .push(format!("{label}: reported plan_cache {:?}", ex.plan_cache));
        }
        let circuit = served_circuit(&compile(seed, ex.index), &mut checked);
        let expected = router
            .route(&circuit)
            .expect("compile circuits fit tokyo20");
        if ex.steps != expected.total_search_steps() as u64 {
            checked.problems.push(format!(
                "{label}: search steps differ from the direct route"
            ));
        }
        let quality = PlanQuality::of_result(&circuit, &expected, None);
        check_output(
            &label,
            ex,
            &circuit,
            &expected,
            &quality,
            graph,
            &mut checked,
        );
    }
    checked
}

/// Runs the `serve_vqa` workload.
pub fn run(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let mut spans = Spans::default();
    let mut probe = Probe::default();
    let graph = devices::ibm_q20_tokyo().graph().clone();
    let seed = ctx.seed;

    // Set-up, repeated: ansatz generation, server start, device
    // registration and the priming (miss) submission. A probe follows
    // each repetition.
    let mut setup_s = Vec::new();
    let mut setup_probe_ms = Vec::new();
    let mut topology_ms = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            let Server { handle, vqa, .. }: Server = previous;
            drop(vqa);
            handle.shutdown();
        }
        let start = if rep == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        let s = start_server(seed, false, &graph);
        setup_s.push(start.elapsed().as_secs_f64());
        topology_ms.push(s.topology_ms);
        server = Some(s);
        setup_probe_ms.push(probe.run());
    }
    let mut server = server.expect("at least one set-up");
    let mut primings = vec![server.priming.clone()];

    // Timed section. A traced run gives the first half to an untraced
    // server and the second half to a traced one.
    let (mut next_j, mut next_i) = (1u64, 0u64);
    let mut probe_ms = Vec::new();
    let first_len = if ctx.traced {
        ctx.duration / 2
    } else {
        ctx.duration
    };
    let untraced = run_blocks(
        &mut server,
        seed,
        first_len,
        false,
        &mut next_j,
        &mut next_i,
        &mut probe_ms,
    );
    let peak_rss_mb = stats::peak_rss_mb();
    let mut traced_phase = None;
    let mut debug = None;
    if ctx.traced {
        let Server { handle, vqa, .. } = server;
        drop(vqa);
        handle.shutdown();
        server = start_server(seed, true, &graph);
        primings.push(server.priming.clone());
        let phase = run_blocks(
            &mut server,
            seed,
            ctx.duration - first_len,
            true,
            &mut next_j,
            &mut next_i,
            &mut probe_ms,
        );
        let mut fetch = |target: &str| {
            server
                .vqa
                .send("GET", target, "bench-debug", b"")
                .ok()
                .filter(|(status, _)| *status == 200)
                .and_then(|(_, body)| String::from_utf8(body).ok())
        };
        debug = Some((fetch("/debug/traces"), fetch("/metrics")));
        traced_phase = Some(phase);
    }
    let Server { handle, vqa, .. } = server;
    drop(vqa);
    handle.shutdown();

    // Checks, outside the timed section.
    let phases: Vec<&Phase> = std::iter::once(&untraced)
        .chain(traced_phase.as_ref())
        .collect();
    let all_hits: Vec<&Exchange> = phases
        .iter()
        .flat_map(|p| &p.hits)
        .filter(|e| e.ok())
        .collect();
    let all_misses: Vec<&Exchange> = phases
        .iter()
        .flat_map(|p| &p.misses)
        .filter(|e| e.ok())
        .collect();
    let cache = DeviceCache::new();
    let router = cache
        .router(&graph, SabreConfig::paper())
        .expect("tokyo20 router");
    let mut checked = Checked::default();
    // The ansatz: the priming route is a miss; every later submission
    // must be a hit that equals the plan re-bound with its angles.
    let ansatz0 = served_circuit(&ansatz(seed, 0), &mut checked);
    let routed0 = router.route(&ansatz0).expect("ansatz fits tokyo20");
    let quality0 = PlanQuality::of_result(&ansatz0, &routed0, None);
    for p in &primings {
        run.check(p.ok() && p.plan_cache == "miss", || {
            format!("priming request: {p:?}")
        });
        check_output(
            "priming",
            p,
            &ansatz0,
            &routed0,
            &quality0,
            &graph,
            &mut checked,
        );
    }
    let plans = PlanCache::with_capacity(1);
    plans.insert(&ansatz0, &graph, None, &SabreConfig::paper(), &routed0);
    for ex in &all_hits {
        let label = format!("hit h{}", ex.index);
        if ex.plan_cache != "hit" || ex.steps != 0 {
            checked.problems.push(format!(
                "{label}: reported plan_cache {:?} with {} search steps",
                ex.plan_cache, ex.steps
            ));
        }
        let circuit = served_circuit(&ansatz(seed, ex.index), &mut checked);
        match plans.lookup(&circuit, &graph, None, &SabreConfig::paper()) {
            Some(expected) => check_output(
                &label,
                ex,
                &circuit,
                &expected,
                &quality0,
                &graph,
                &mut checked,
            ),
            None => checked
                .problems
                .push(format!("{label}: ansatz structure changed")),
        }
    }
    // Misses: re-route each directly, on two threads.
    let halves = all_misses.split_at(all_misses.len() / 2);
    let (a, b) = thread::scope(|s| {
        let a = s.spawn(|| check_misses(seed, halves.0, &router, &graph));
        let b = s.spawn(|| check_misses(seed, halves.1, &router, &graph));
        (
            a.join().expect("check thread"),
            b.join().expect("check thread"),
        )
    });
    for part in [a, b] {
        checked.problems.extend(part.problems);
        checked.verify_ns += part.verify_ns;
        checked.parse_ns.extend(part.parse_ns);
        checked.body_bytes += part.body_bytes;
    }
    for problem in checked.problems.drain(..) {
        run.check(false, || problem);
    }

    // Deterministic counts: the ansatz plus the first compile circuits.
    let (mut added_gates, mut depth_overhead, mut steps, mut perfect) = (
        quality0.added_gates as u64,
        quality0.depth_overhead as u64,
        routed0.total_search_steps() as u64,
        u64::from(routed0.perfect_placement),
    );
    let mut counted = vec![ansatz0.clone()];
    for i in 0..COUNTED_COMPILES {
        let circuit = sabre_qasm::parse(&sabre_qasm::to_qasm(&compile(seed, i)))
            .expect("generated QASM parses");
        let result = router
            .route(&circuit)
            .expect("compile circuits fit tokyo20");
        let (quality, _) = spans.time("quality.of_result", None, || {
            PlanQuality::of_result(&circuit, &result, None)
        });
        added_gates += quality.added_gates as u64;
        depth_overhead += quality.depth_overhead as u64;
        steps += result.total_search_steps() as u64;
        perfect += u64::from(result.perfect_placement);
        counted.push(circuit);
    }
    run.check_counts(
        "serve_vqa",
        seed,
        &[
            ("added_gates", added_gates),
            ("depth_overhead", depth_overhead),
            ("router.steps", steps),
        ],
    );

    let hits = latencies(phases.iter().flat_map(|p| &p.hits));
    let misses = latencies(phases.iter().flat_map(|p| &p.misses));
    run.attempted = hits.attempted() + misses.attempted();
    run.failed = hits.failed() + misses.failed();
    let refused = phases
        .iter()
        .flat_map(|p| p.hits.iter().chain(&p.misses))
        .filter(|e| matches!(e.status, Some(429 | 503) | Some(500..=599)))
        .count();
    run.note(format!(
        "{} hits, {} misses ({} failed, {refused} refused); miss_* = compile round trips, ops_per_s = misses",
        hits.attempted(),
        misses.attempted(),
        run.failed
    ));
    let raw_p50 = |exchanges: &mut dyn Iterator<Item = &Exchange>| {
        let raw: Vec<f64> = exchanges.map(|e| e.rtt_ns as f64 / 1e6).collect();
        stats::median_or_zero(&raw)
    };
    run.note(format!(
        "host probe median {:.3} ms over {} probes (nominal {}); raw hit p50 {:.3} ms, raw miss p50 {:.3} ms",
        stats::median_or_zero(&probe_ms),
        probe_ms.len(),
        host::PROBE_NOMINAL_MS,
        raw_p50(&mut phases.iter().flat_map(|p| &p.hits)),
        raw_p50(&mut phases.iter().flat_map(|p| &p.misses)),
    ));

    if ctx.traced {
        let traced = traced_phase.as_ref().expect("traced phase ran");
        let (traces, metrics) = debug.expect("debug endpoints fetched");
        layer_metrics(
            &mut run,
            &mut spans,
            traced,
            traces.as_deref(),
            metrics.as_deref(),
        );
        // Probe spans on the counted circuits, at the config budget.
        let (mut probes, mut found) = (0usize, 0usize);
        for circuit in &counted {
            let pattern = InteractionGraph::of(circuit);
            let budget = SabreConfig::paper().embedding_probe_budget;
            let (verdict, _) = spans.time("sabre.probe", None, || {
                embedding::find_embedding_within(&pattern, &graph, budget)
            });
            probes += 1;
            found += usize::from(matches!(verdict, Some(Embedding::Found(_))));
        }
        let write_us: Vec<f64> = traced
            .hits
            .iter()
            .chain(&traced.misses)
            .map(|e| e.write_ns as f64 / 1e3)
            .collect();
        let parse_ns: u64 = checked.parse_ns.iter().sum();
        let parse_us: Vec<f64> = checked.parse_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let p50 = |l: &Latencies| l.p50().unwrap_or(stats::TIMEOUT_MS);
        run.set("topology.setup_ms", stats::median(&topology_ms));
        run.set("host.probe_ms", stats::median(&probe_ms));
        run.set("router.steps", steps as f64);
        let (route_ns, route_steps) = untraced
            .misses
            .iter()
            .filter(|e| e.ok())
            .fold((0u64, 0u64), |(n, s), e| (n + e.route_ns, s + e.steps));
        run.set(
            "router.ns_per_step",
            route_ns as f64 / route_steps.max(1) as f64,
        );
        run.set(
            "sabre.probe_ms",
            stats::median(&spans.durations_ms("sabre.probe")),
        );
        run.set(
            "sabre.probe_found_ratio",
            found as f64 / probes.max(1) as f64,
        );
        run.set("sabre.perfect_placements", perfect as f64);
        run.set(
            "quality.of_result_us",
            1e3 * stats::median(&spans.durations_ms("quality.of_result")),
        );
        run.set("qasm.write_us", stats::median_or_zero(&write_us));
        run.set("qasm.parse_us", stats::median_or_zero(&parse_us));
        run.set(
            "qasm.parse_mb_per_s",
            checked.body_bytes as f64 / 1e6 / (parse_ns.max(1) as f64 / 1e9),
        );
        run.set("serve.refused", refused as f64);
        run.set("verify.ms", checked.verify_ns as f64 / 1e6);
        let requests = |p: &Phase| latencies(p.hits.iter().chain(&p.misses));
        run.set(
            "overhead.latency_p50_ms",
            p50(&requests(traced)) - p50(&requests(&untraced)),
        );
        run.set(
            "overhead.miss_p50_ms",
            p50(&latencies(&traced.misses)) - p50(&latencies(&untraced.misses)),
        );
        match report::write_spans("serve_vqa", seed, &spans.to_jsonl()) {
            Ok(path) => run.note(format!("spans written to {}", path.display())),
            Err(e) => run.note(format!("note: spans not written: {e}")),
        }
    } else {
        for (name, l) in [("hit", &hits), ("miss", &misses)] {
            let profile: Vec<String> = [500, 900, 950, 980, 990, 995, 999]
                .iter()
                .map(|&p| {
                    format!(
                        "p{}={:.3}",
                        f64::from(p) / 10.0,
                        l.percentile(p).unwrap_or(f64::NAN)
                    )
                })
                .collect();
            run.note(format!("{name} ms: {}", profile.join(" ")));
        }
        let mut tail = |name: &str, l: &Latencies| {
            let t = l.tail();
            run.check(t.is_some(), || {
                format!(
                    "{} {name} samples leave no percentile with {} beyond it",
                    l.attempted(),
                    stats::MIN_BEYOND
                )
            });
            if let Some(t) = t {
                run.note(format!(
                    "{name}_tail_ms is p{} over {} samples ({} beyond)",
                    t.percentile,
                    l.attempted(),
                    t.beyond
                ));
            }
            t.map_or(stats::TIMEOUT_MS, |t| t.value_ms)
        };
        // latency_* cover every request, as a client of the server sees
        // them: the hits set the median and the large compile misses the
        // tail. The hit tail alone, set by reactor stalls of a few
        // milliseconds, is printed beside them but not bounded: on a
        // shared host, CPU steal stalls hits for as long (5 to 15 ms) in
        // some runs and not in others.
        let requests = latencies(phases.iter().flat_map(|p| p.hits.iter().chain(&p.misses)));
        let request_tail = tail("request", &requests);
        let hit_tail = tail("hit", &hits);
        let miss_tail = tail("miss", &misses);
        let completed = hits.completed() + misses.completed();
        run.set(
            "setup_s",
            stats::median(&setup_s) / host::slowdown(&setup_probe_ms),
        );
        run.set("ops_per_s", median_miss_rate(&untraced));
        let hit_p50 = hits.p50().unwrap_or(stats::TIMEOUT_MS);
        run.set(
            "latency_p50_ms",
            requests.p50().unwrap_or(stats::TIMEOUT_MS),
        );
        run.set("latency_tail_ms", request_tail);
        run.set("miss_p50_ms", misses.p50().unwrap_or(stats::TIMEOUT_MS));
        run.set("miss_tail_ms", miss_tail);
        let ok_ratio = completed as f64 / run.attempted.max(1) as f64;
        run.set("ok_ratio", ok_ratio);
        run.note(format!(
            "hit_p50_ms {hit_p50} ms, hit_tail_ms {hit_tail} ms (VQA round trips alone)"
        ));
        run.note(format!(
            "fail_ratio {} ratio (reported as ok_ratio = 1 - fail_ratio)",
            1.0 - ok_ratio
        ));
        run.set("added_gates", added_gates as f64);
        run.set("depth_overhead", depth_overhead as f64);
        run.set("peak_rss_mb", peak_rss_mb);
    }
    run
}

/// `/debug/traces` phase → span name on the inline hit path.
const HIT_PHASES: &[(&str, &str)] = &[
    ("read", "serve.hit.read"),
    ("parse", "serve.hit.parse"),
    ("plan_cache", "plan.lookup"),
    ("rebind", "plan.rebind"),
    ("write", "serve.hit.write"),
];

/// `/debug/traces` phase → span name on the worker (miss) path. A miss's
/// plan-cache lookup stays in the serve layer: only hits measure the
/// lookup that `plan.lookup_us` reports.
const MISS_PHASES: &[(&str, &str)] = &[
    ("read", "serve.miss.read"),
    ("parse", "serve.miss.parse"),
    ("plan_cache", "serve.miss.plan_cache"),
    ("admission", "serve.miss.admission"),
    ("queue_wait", "serve.miss.queue_wait"),
    ("route", "serve.miss.route"),
    ("serialize", "serve.miss.serialize"),
    ("write", "serve.miss.write"),
];

/// The per-layer metrics read from the traced server: its
/// `/debug/traces` phase clocks, the `RouteProfile` on each profiled
/// miss, and its `/metrics` plan-cache counters.
fn layer_metrics(
    run: &mut Run,
    spans: &mut Spans,
    phase: &Phase,
    traces: Option<&str>,
    metrics: Option<&str>,
) {
    let traces = traces.and_then(|t| JsonValue::parse(t).ok());
    let list = traces
        .as_ref()
        .and_then(|t| t.get("traces"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    let by_id: std::collections::HashMap<&str, &JsonValue> = list
        .iter()
        .filter_map(|t| Some((t.get("trace_id")?.as_str()?, t)))
        .collect();
    let phase_ns = |t: &JsonValue, name: &str| {
        t.get("phases")
            .and_then(|p| p.get(name))
            .and_then(JsonValue::as_u64)
    };
    let mut over_rtt = 0usize;
    let mut traced_requests = 0usize;
    let mut routes = 0usize;
    let (mut route_call_ns, mut hot_loop) = (0u64, [0u64; 3]);
    let mut sabre_route_ms = Vec::new();
    for (prefix, client_span, exchanges, phases) in [
        ("h", "client.hit", &phase.hits, HIT_PHASES),
        ("m", "client.miss", &phase.misses, MISS_PHASES),
    ] {
        for ex in exchanges.iter().filter(|e| e.ok()) {
            let Some(trace) = by_id.get(format!("{prefix}{}", ex.index).as_str()) else {
                run.check(false, || {
                    format!("no server trace for request {prefix}{}", ex.index)
                });
                continue;
            };
            traced_requests += 1;
            let total = trace
                .get("total_ns")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0);
            over_rtt += usize::from(total > ex.rtt_ns);
            let client = spans.record(client_span, None, ex.rtt_ns);
            let server = spans.record("serve.total", Some(client), total);
            for &(phase_name, span_name) in phases {
                let Some(ns) = phase_ns(trace, phase_name) else {
                    continue;
                };
                let id = spans.record(span_name, Some(server), ns);
                if phase_name == "route" {
                    let route = spans.record("sabre.route", Some(id), ex.route_ns);
                    routes += 1;
                    route_call_ns += ex.route_ns;
                    sabre_route_ms.push(ex.route_ns as f64 / 1e6);
                    let names = ["router.front", "router.extended_set", "router.scoring"];
                    for (slot, (name, ns)) in names
                        .into_iter()
                        .zip(ex.profile.unwrap_or_default())
                        .enumerate()
                    {
                        spans.record(name, Some(route), ns);
                        hot_loop[slot] += ns;
                    }
                }
            }
        }
    }
    let us = |spans: &Spans, name: &str| 1e3 * stats::median_or_zero(&spans.durations_ms(name));
    let ms = |spans: &Spans, name: &str| stats::median_or_zero(&spans.durations_ms(name));
    for (metric, span) in [
        ("plan.lookup_us", "plan.lookup"),
        ("plan.rebind_us", "plan.rebind"),
        ("serve.hit.read_us", "serve.hit.read"),
        ("serve.hit.parse_us", "serve.hit.parse"),
        ("serve.hit.write_us", "serve.hit.write"),
        ("serve.miss.read_us", "serve.miss.read"),
        ("serve.miss.parse_us", "serve.miss.parse"),
        ("serve.miss.admission_us", "serve.miss.admission"),
        ("serve.miss.serialize_us", "serve.miss.serialize"),
        ("serve.miss.write_us", "serve.miss.write"),
    ] {
        run.set(metric, us(spans, span));
    }
    run.set(
        "serve.miss.queue_wait_ms",
        ms(spans, "serve.miss.queue_wait"),
    );
    run.set("serve.miss.route_ms", ms(spans, "serve.miss.route"));
    run.set("sabre.route_ms", stats::median_or_zero(&sabre_route_ms));
    let share = |ns: u64| ns as f64 / route_call_ns.max(1) as f64;
    run.set("router.front_share", share(hot_loop[0]));
    run.set("router.extended_set_share", share(hot_loop[1]));
    run.set("router.scoring_share", share(hot_loop[2]));
    run.set("serve.total_over_rtt", over_rtt as f64);
    let per = |ns: u64, n: usize| ns as f64 / 1e6 / n.max(1) as f64;
    run.set(
        "self.client_ms",
        per(spans.self_ns("client."), traced_requests),
    );
    run.set(
        "self.serve_ms",
        per(spans.self_ns("serve."), traced_requests),
    );
    run.set("self.sabre_ms", per(spans.self_ns("sabre.route"), routes));
    run.set("self.router_ms", per(spans.self_ns("router."), routes));

    let counter = |name: &str| -> Option<f64> {
        metrics?
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
    };
    let hits = counter("sabre_serve_plan_cache_hits_total");
    let misses = counter("sabre_serve_plan_cache_misses_total");
    let bytes = counter("sabre_serve_plan_cache_approx_bytes");
    run.check(
        hits.is_some() && misses.is_some() && bytes.is_some(),
        || "plan-cache counters missing from /metrics".into(),
    );
    let (hits, misses) = (hits.unwrap_or(0.0), misses.unwrap_or(0.0));
    run.set("plan.hit_ratio", hits / (hits + misses).max(1.0));
    run.set("plan.approx_bytes", bytes.unwrap_or(0.0));
}
