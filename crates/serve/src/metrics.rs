//! Service counters and their Prometheus text rendering (`GET /metrics`).
//!
//! Everything is a relaxed atomic — counters tolerate torn reads across
//! scrapes; they only ever need to be monotone. The per-step routing
//! nanoseconds close PR 3's follow-on ("per-step ns into the service
//! layer's admission metrics"): `routing_ns_total / routing_steps_total`
//! is the fleet-wide mean cost of one SWAP-search step, and
//! `last_route_ns_per_step` the most recent request's — the two numbers an
//! admission controller needs to translate queue depth into expected
//! wait.
//!
//! Every exported family is declared once, as a row of [`FAMILIES`]:
//! its name, kind, help text and value source. [`Metrics::render`] is one
//! loop over that table, so the table is the one list of what `/metrics`
//! exports.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sabre::{DeviceCacheStats, PlanCacheStats, PlanQuality};
use sabre_json::JsonValue;

use Series::{Labeled, One, PerDevice};
use Source::{Scraped, Stored};

/// The stored counters, one slot each in [`Metrics`]'s store.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Counter {
    /// `POST /route` requests admitted or rejected.
    RequestsRoute,
    /// `POST /route_sharded` requests admitted or rejected.
    RequestsSharded,
    /// `POST /transpile_batch` requests admitted or rejected.
    RequestsBatch,
    /// `POST /devices` registrations.
    RequestsDevices,
    /// `POST /fleets` registrations.
    RequestsFleets,
    /// `POST /devices/{id}/noise` refreshes.
    RequestsNoise,
    /// `GET /healthz` probes.
    RequestsHealthz,
    /// `GET /metrics` scrapes.
    RequestsMetrics,
    /// Admissions bounced with `503` because the queue was full.
    QueueRejections,
    /// Jobs accepted into the queue (completed + failed + still pending).
    JobsAdmitted,
    /// Jobs that finished with a 2xx response.
    JobsCompleted,
    /// Jobs that finished with an error response.
    JobsFailed,
    /// Circuits routed successfully (batch slots count individually).
    CircuitsRouted,
    /// Wall nanoseconds spent inside `route()` calls.
    RoutingNsTotal,
    /// Search steps executed by those calls (all traversals).
    RoutingStepsTotal,
    /// `ns_per_step` of the most recent `/route` job (stored, not added).
    LastRouteNsPerStep,
    /// Nanoseconds jobs spent queued between admission and pickup.
    QueueWaitNsTotal,
    /// Connections reaped by the read deadline (slowloris guard).
    ReapedReadDeadline,
    /// Connections reaped by the write deadline (peer stopped reading).
    ReapedWriteDeadline,
    /// Keep-alive connections closed by the idle timeout.
    ReapedIdle,
    /// Requests shed with `429` by the per-client token bucket.
    ShedRateLimited,
    /// Requests shed with `429` because the projected queue wait
    /// exceeded the admission SLO.
    ShedPredictedSlo,
    /// Connections refused with a canned `503` because the connection
    /// table was full.
    ShedTableFull,
    /// `/route` requests answered inline on the reactor thread from the
    /// routed-plan cache (zero search steps, no queueing).
    PlanCacheInlineHits,
}

impl Counter {
    /// Store size; the last variant sets it, so new counters go last.
    const COUNT: usize = Counter::PlanCacheInlineHits as usize + 1;
}

/// The fleet-wide histograms, one slot each in [`Metrics`]'s store.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Hist {
    /// Projected queue wait (ms) computed at admission time, recorded
    /// for every priced request whether it was admitted or shed.
    PredictedWaitMs,
    /// Parameter re-bind latency (ns) of plan-cache hits — the serving
    /// cost of a cached structure.
    RebindNs,
    /// Front-layer maintenance time (ns) of profiled
    /// `/route?profile=true` jobs.
    PhaseFrontNs,
    /// Extended-set BFS time (ns) of profiled jobs.
    PhaseExtendedSetNs,
    /// Candidate scoring time (ns) of profiled jobs.
    PhaseScoringNs,
    /// SWAPs inserted per routed circuit (batch slots and shards count
    /// individually).
    RouteSwaps,
    /// Depth overhead (output − input layers) per routed circuit.
    RouteDepthOverhead,
    /// Estimated −1000·log(success probability) per noise-aware routed
    /// circuit (milli-nats of infidelity; smaller is better). Hop-only
    /// routes are not observed.
    RouteLogSuccess,
}

/// Bucket bounds of each [`Hist`], in declaration order. The length is
/// tied to the last variant, so a histogram added last without bounds
/// fails to compile.
const HIST_BOUNDS: [&[u64]; Hist::RouteLogSuccess as usize + 1] = [
    &PREDICTED_WAIT_BUCKETS_MS,
    &REBIND_NS_BUCKETS,
    &ROUTE_PHASE_NS_BUCKETS,
    &ROUTE_PHASE_NS_BUCKETS,
    &ROUTE_PHASE_NS_BUCKETS,
    &ROUTE_SWAPS_BUCKETS,
    &DEPTH_OVERHEAD_BUCKETS,
    &NEG_MILLI_LOG_SUCCESS_BUCKETS,
];

/// The service's counter and histogram stores plus the per-device
/// scoreboard; gauges (queue depth, device count) are read from their
/// owners at scrape time and passed to [`Metrics::render`].
#[derive(Debug)]
pub(crate) struct Metrics {
    counters: [AtomicU64; Counter::COUNT],
    histograms: [Histogram; HIST_BOUNDS.len()],
    /// Per-device quality scoreboard backing `GET /debug/quality`.
    pub(crate) quality: QualityBoard,
}

/// Upper bounds (ms) of the `admission_predicted_wait_ms` buckets; an
/// implicit `+Inf` bucket follows.
const PREDICTED_WAIT_BUCKETS_MS: [u64; 10] = [1, 5, 10, 25, 50, 100, 250, 500, 1000, 5000];

/// Upper bounds (ns) of the `route_phase_ns` buckets: hot-loop phase
/// totals range from tens of microseconds (tiny circuits) to whole
/// seconds (large profiled routes), so the bands are decades.
const ROUTE_PHASE_NS_BUCKETS: [u64; 8] = [
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
];

/// Upper bounds (ns) of the `rebind_ns` buckets. Re-binding is a clone
/// plus a parameter stamp — microseconds, not milliseconds — so the
/// bands start at 1µs and top out at 100ms to catch pathologies.
const REBIND_NS_BUCKETS: [u64; 9] = [
    1_000,
    5_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// Upper bounds of the `route_swaps` buckets: a SWAP count per routed
/// circuit, from the embeddable 0 through corpus-scale thousands.
const ROUTE_SWAPS_BUCKETS: [u64; 10] = [0, 1, 2, 5, 10, 25, 50, 100, 500, 2000];

/// Upper bounds of the `route_depth_overhead` buckets (added DAG
/// layers after SWAP decomposition).
const DEPTH_OVERHEAD_BUCKETS: [u64; 10] = [0, 2, 5, 10, 25, 50, 100, 250, 1000, 5000];

/// Upper bounds of the `route_log_success_probability` buckets, in
/// **negated milli-nats**: an observation of `1000` means
/// `log(p_success) = −1.0`, i.e. p ≈ 0.37. The span covers p ≈ 0.999
/// down to e⁻¹⁰⁰ (deep circuits on noisy devices).
const NEG_MILLI_LOG_SUCCESS_BUCKETS: [u64; 10] =
    [1, 10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000];

/// A fixed-bucket histogram (cumulative buckets rendered at scrape time;
/// stored counts are per-bucket). The bucket bounds are a
/// construction-time parameter so one type serves the milliseconds-scale
/// admission wait, the nanoseconds-scale rebind latency and the
/// scoreboard's per-device quality distributions.
#[derive(Debug)]
struct Histogram {
    bounds: &'static [u64],
    /// One slot per bound plus the `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A zeroed histogram over `bounds` (ascending upper bounds; an
    /// implicit `+Inf` bucket is appended).
    fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total observations so far.
    fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Bucket-resolution quantile: the smallest bucket bound whose
    /// cumulative count reaches `q·count` (the overflow bucket reports
    /// the exact max). Resolution is a bucket width — adequate for a
    /// scoreboard, constant memory per device.
    fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (bucket, &bound) in self.buckets.iter().zip(self.bounds) {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                return bound.min(self.max());
            }
        }
        self.max()
    }

    /// `{mean, p50, p95, max}` as a JSON object.
    fn to_json(&self) -> JsonValue {
        let mean = match self.count() {
            0 => 0.0,
            count => self.sum() as f64 / count as f64,
        };
        JsonValue::object([
            ("mean", mean.into()),
            ("p50", self.quantile(0.5).into()),
            ("p95", self.quantile(0.95).into()),
            ("max", self.max().into()),
        ])
    }

    /// The bucket/sum/count sample lines, each tagged with `label`
    /// (`key="value"`, or empty for an unlabeled family).
    fn render_series(&self, out: &mut String, name: &str, label: &str) {
        let le_prefix = if label.is_empty() {
            String::new()
        } else {
            format!("{label},")
        };
        let mut cumulative = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let bound = self.bounds.get(idx).map_or("+Inf".into(), u64::to_string);
            let _ = writeln!(
                out,
                "sabre_serve_{name}_bucket{{{le_prefix}le=\"{bound}\"}} {cumulative}"
            );
        }
        write_sample(out, &format!("{name}_sum"), label, self.sum());
        write_sample(out, &format!("{name}_count"), label, self.count());
    }
}

/// Encodes a log-success-probability for histogram storage: negated
/// milli-nats, rounded, saturating at zero for `lsp ≥ 0`.
fn neg_milli_log(lsp: f64) -> u64 {
    let scaled = (-lsp * 1000.0).round();
    if scaled.is_nan() || scaled <= 0.0 {
        0
    } else if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        scaled as u64
    }
}

/// Per-device quality aggregates since process start.
#[derive(Debug)]
struct DeviceQuality {
    /// One observation per routed circuit, so its count is the device's
    /// route count.
    swaps: Histogram,
    depth_overhead: Histogram,
    /// Negated milli-log success; only noise-aware routes observe.
    neg_log_success_milli: Histogram,
    log_success_sum: f64,
}

/// The `GET /debug/quality` scoreboard: per-device-id quality aggregates
/// (count, mean/p50/p95 swaps, depth overhead, fidelity) since process
/// start. A `BTreeMap` so every rendering is sorted by device id.
#[derive(Debug, Default)]
pub(crate) struct QualityBoard {
    devices: Mutex<BTreeMap<String, DeviceQuality>>,
}

impl QualityBoard {
    fn observe(&self, device: &str, quality: &PlanQuality) {
        let mut devices = self.devices.lock().expect("quality board lock");
        let entry = devices
            .entry(device.to_string())
            .or_insert_with(|| DeviceQuality {
                swaps: Histogram::new(&ROUTE_SWAPS_BUCKETS),
                depth_overhead: Histogram::new(&DEPTH_OVERHEAD_BUCKETS),
                neg_log_success_milli: Histogram::new(&NEG_MILLI_LOG_SUCCESS_BUCKETS),
                log_success_sum: 0.0,
            });
        entry.swaps.observe(quality.num_swaps as u64);
        entry.depth_overhead.observe(quality.depth_overhead as u64);
        if let Some(lsp) = quality.log_success_probability {
            entry.neg_log_success_milli.observe(neg_milli_log(lsp));
            entry.log_success_sum += lsp;
        }
    }

    /// The scoreboard as a deterministic JSON object (devices sorted by
    /// id). Fidelity quantiles are decoded back from the milli-nat
    /// histogram, so `p50 ≥ p95` in log space (less negative = better).
    pub(crate) fn to_json(&self) -> JsonValue {
        let devices = self.devices.lock().expect("quality board lock");
        let log = |milli: u64| JsonValue::from(-(milli as f64) / 1000.0);
        JsonValue::object([(
            "devices",
            devices
                .iter()
                .map(|(id, d)| {
                    let fidelity = &d.neg_log_success_milli;
                    let noise_routes = fidelity.count();
                    JsonValue::object([
                        ("device", id.as_str().into()),
                        ("count", d.swaps.count().into()),
                        ("swaps", d.swaps.to_json()),
                        ("depth_overhead", d.depth_overhead.to_json()),
                        (
                            "log_success_probability",
                            if noise_routes == 0 {
                                JsonValue::Null
                            } else {
                                JsonValue::object([
                                    ("count", noise_routes.into()),
                                    ("mean", (d.log_success_sum / noise_routes as f64).into()),
                                    ("p50", log(fidelity.quantile(0.5))),
                                    ("p95", log(fidelity.quantile(0.95))),
                                    ("min", log(fidelity.max())),
                                ])
                            },
                        ),
                    ])
                })
                .collect(),
        )])
    }
}

/// Prometheus label-value escaping: backslash, quote, newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One sample line; `label` is `key="value"`, or empty for none.
fn write_sample(out: &mut String, name: &str, label: &str, value: u64) {
    let _ = if label.is_empty() {
        writeln!(out, "sabre_serve_{name} {value}")
    } else {
        writeln!(out, "sabre_serve_{name}{{{label}}} {value}")
    };
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: HIST_BOUNDS.map(Histogram::new),
            quality: QualityBoard::default(),
        }
    }
}

/// Point-in-time gauges owned by the service, sampled per scrape.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GaugeSnapshot {
    /// Jobs currently queued.
    pub(crate) queue_depth: usize,
    /// Queue capacity.
    pub(crate) queue_capacity: usize,
    /// Worker threads.
    pub(crate) workers: usize,
    /// Registered devices.
    pub(crate) devices: usize,
    /// Registered fleets.
    pub(crate) fleets: usize,
    /// Whether shutdown has begun.
    pub(crate) draining: bool,
    /// Connections currently in the reactor's table.
    pub(crate) open_connections: usize,
    /// Connection-table capacity.
    pub(crate) max_connections: usize,
}

/// Everything one scrape reads: the stores plus the owners' snapshots.
struct Scrape<'a> {
    metrics: &'a Metrics,
    gauges: GaugeSnapshot,
    cache: DeviceCacheStats,
    plans: PlanCacheStats,
}

/// Where a sample's value comes from at scrape time.
#[derive(Clone, Copy)]
enum Source {
    /// A stored counter.
    Stored(Counter),
    /// A snapshot field, or a value derived from the stores.
    Scraped(fn(&Scrape<'_>) -> u64),
    /// A fleet-wide histogram.
    Histogram(Hist),
}

/// The series of one family.
#[derive(Clone, Copy)]
enum Series {
    /// One unlabeled series.
    One(Source),
    /// One series per fixed value of the label key.
    Labeled(&'static str, &'static [(&'static str, Source)]),
    /// One `device="<id>"` series per scoreboard device, sorted by id.
    PerDevice(fn(&DeviceQuality) -> u64),
}

/// One exported family, `sabre_serve_{name}`: its name, Prometheus
/// `TYPE` (`counter`, `gauge` or `histogram`), help text and series.
struct Family(&'static str, &'static str, &'static str, Series);

/// Every family `/metrics` exports, in exposition order: the one list
/// of exported names (kept compact by hand so each row reads as one
/// declaration).
#[rustfmt::skip]
static FAMILIES: &[Family] = &[
    Family("queue_depth", "gauge", "Jobs waiting in the admission queue.",
        One(Scraped(|s| s.gauges.queue_depth as u64))),
    Family("queue_capacity", "gauge", "Admission queue capacity.",
        One(Scraped(|s| s.gauges.queue_capacity as u64))),
    Family("workers", "gauge", "Routing worker threads.",
        One(Scraped(|s| s.gauges.workers as u64))),
    Family("devices_registered", "gauge", "Devices currently registered.",
        One(Scraped(|s| s.gauges.devices as u64))),
    Family("fleets_registered", "gauge", "Fleets currently registered.",
        One(Scraped(|s| s.gauges.fleets as u64))),
    Family("draining", "gauge", "1 once shutdown has begun.",
        One(Scraped(|s| u64::from(s.gauges.draining)))),
    Family("open_connections", "gauge", "Connections currently held in the reactor's table.",
        One(Scraped(|s| s.gauges.open_connections as u64))),
    Family("max_connections", "gauge", "Connection-table capacity.",
        One(Scraped(|s| s.gauges.max_connections as u64))),
    Family("requests_total", "counter", "HTTP requests by endpoint.", Labeled("endpoint", &[
        ("route", Stored(Counter::RequestsRoute)),
        ("route_sharded", Stored(Counter::RequestsSharded)),
        ("transpile_batch", Stored(Counter::RequestsBatch)),
        ("devices", Stored(Counter::RequestsDevices)),
        ("fleets", Stored(Counter::RequestsFleets)),
        ("noise", Stored(Counter::RequestsNoise)),
        ("healthz", Stored(Counter::RequestsHealthz)),
        ("metrics", Stored(Counter::RequestsMetrics)),
    ])),
    Family("queue_rejections_total", "counter", "Admissions rejected with 503 (queue full).",
        One(Stored(Counter::QueueRejections))),
    Family("jobs_admitted_total", "counter", "Jobs accepted into the queue.",
        One(Stored(Counter::JobsAdmitted))),
    Family("jobs_completed_total", "counter", "Jobs that produced a 2xx response.",
        One(Stored(Counter::JobsCompleted))),
    Family("jobs_failed_total", "counter", "Jobs that produced an error response.",
        One(Stored(Counter::JobsFailed))),
    Family("circuits_routed_total", "counter",
        "Circuits routed successfully (batch slots counted individually).",
        One(Stored(Counter::CircuitsRouted))),
    Family("routing_ns_total", "counter", "Wall nanoseconds spent routing.",
        One(Stored(Counter::RoutingNsTotal))),
    Family("routing_steps_total", "counter",
        "Search steps executed (all traversals of all restarts).",
        One(Stored(Counter::RoutingStepsTotal))),
    Family("avg_route_ns_per_step", "gauge", "Mean ns per search step over the process lifetime.",
        One(Scraped(|s| s.metrics.avg_ns_per_step()))),
    Family("last_route_ns_per_step", "gauge", "ns per search step of the most recent /route job.",
        One(Stored(Counter::LastRouteNsPerStep))),
    Family("queue_wait_ns_total", "counter", "Nanoseconds jobs spent waiting in the queue.",
        One(Stored(Counter::QueueWaitNsTotal))),
    Family("connections_reaped_total", "counter",
        "Connections closed by a deadline or idle timeout.", Labeled("reason", &[
        ("read_deadline", Stored(Counter::ReapedReadDeadline)),
        ("write_deadline", Stored(Counter::ReapedWriteDeadline)),
        ("idle", Stored(Counter::ReapedIdle)),
    ])),
    Family("admission_rejections_total", "counter",
        "Requests shed before queueing, by cause.", Labeled("kind", &[
        // queue_full mirrors the legacy queue_rejections counter so the
        // labeled family is complete without double-counting.
        ("queue_full", Stored(Counter::QueueRejections)),
        ("rate_limited", Stored(Counter::ShedRateLimited)),
        ("predicted_slo", Stored(Counter::ShedPredictedSlo)),
        ("table_full", Stored(Counter::ShedTableFull)),
    ])),
    Family("admission_predicted_wait_ms", "histogram",
        "Projected queue wait (ms) computed at admission time.",
        One(Source::Histogram(Hist::PredictedWaitMs))),
    Family("cache_graph_hits_total", "counter", "DeviceCache router acquisitions served warm.",
        One(Scraped(|s| s.cache.graph_hits))),
    Family("cache_graph_misses_total", "counter",
        "DeviceCache acquisitions that ran full preprocessing.",
        One(Scraped(|s| s.cache.graph_misses))),
    Family("cache_noise_hits_total", "counter", "Noise-weighted matrices served warm.",
        One(Scraped(|s| s.cache.noise_hits))),
    Family("cache_noise_misses_total", "counter", "Noise-weighted matrices computed.",
        One(Scraped(|s| s.cache.noise_misses))),
    Family("cache_embedding_hits_total", "counter", "Perfect-placement probe verdicts served warm.",
        One(Scraped(|s| s.cache.embedding_hits))),
    Family("cache_embedding_misses_total", "counter", "Probe verdicts computed by backtracking.",
        One(Scraped(|s| s.cache.embedding_misses))),
    Family("plan_cache_hits_total", "counter",
        "Routed-plan lookups served by parameter re-binding.",
        One(Scraped(|s| s.plans.hits))),
    Family("plan_cache_misses_total", "counter",
        "Routed-plan lookups that fell through to a full route.",
        One(Scraped(|s| s.plans.misses))),
    Family("plan_cache_evictions_total", "counter",
        "Routed plans evicted by the LRU capacity bound.",
        One(Scraped(|s| s.plans.evictions))),
    Family("plan_cache_entries", "gauge", "Routed plans currently cached.",
        One(Scraped(|s| s.plans.entries as u64))),
    Family("plan_cache_approx_bytes", "gauge",
        "Estimated heap bytes held by cached routed plans.",
        One(Scraped(|s| s.plans.approx_bytes))),
    Family("plan_cache_inline_hits_total", "counter",
        "/route requests answered inline from the plan cache.",
        One(Stored(Counter::PlanCacheInlineHits))),
    Family("rebind_ns", "histogram", "Parameter re-bind latency (ns) for plan-cache hits.",
        One(Source::Histogram(Hist::RebindNs))),
    Family("route_phase_ns", "histogram",
        "Hot-loop time per routing phase (ns), from profiled /route jobs.", Labeled("phase", &[
        ("front", Source::Histogram(Hist::PhaseFrontNs)),
        ("extended_set", Source::Histogram(Hist::PhaseExtendedSetNs)),
        ("scoring", Source::Histogram(Hist::PhaseScoringNs)),
    ])),
    Family("route_swaps", "histogram", "SWAPs inserted per routed circuit.",
        One(Source::Histogram(Hist::RouteSwaps))),
    Family("route_depth_overhead", "histogram", "Depth overhead (added layers) per routed circuit.",
        One(Source::Histogram(Hist::RouteDepthOverhead))),
    Family("route_log_success_probability", "histogram",
        "Negated milli-log success probability per noise-aware routed circuit (1000 = log p of -1).",
        One(Source::Histogram(Hist::RouteLogSuccess))),
    Family("device_routes_total", "counter", "Circuits routed per device id.",
        PerDevice(|d| d.swaps.count())),
    Family("device_swaps_total", "counter", "SWAPs inserted per device id.",
        PerDevice(|d| d.swaps.sum())),
];

impl Metrics {
    /// Bumps a counter (relaxed; these are statistics, not synchronization).
    pub(crate) fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    fn histogram(&self, hist: Hist) -> &Histogram {
        &self.histograms[hist as usize]
    }

    /// Records one observation in a fleet-wide histogram.
    pub(crate) fn observe(&self, hist: Hist, value: u64) {
        self.histogram(hist).observe(value);
    }

    /// Records one successful routing call in the admission telemetry.
    pub(crate) fn record_routing(&self, elapsed_ns: u128, steps: usize, ns_per_step: u128) {
        let saturate = |ns: u128| ns.min(u128::from(u64::MAX)) as u64;
        self.add(Counter::RoutingNsTotal, saturate(elapsed_ns));
        self.add(Counter::RoutingStepsTotal, steps as u64);
        self.counters[Counter::LastRouteNsPerStep as usize]
            .store(saturate(ns_per_step), Ordering::Relaxed);
    }

    /// Records the quality of one routed circuit: the three fleet-wide
    /// histograms plus the per-device scoreboard. Runs post-route off
    /// the hot loop; batch slots and shards are observed individually
    /// under their own device id.
    pub(crate) fn observe_quality(&self, device: &str, quality: &PlanQuality) {
        self.observe(Hist::RouteSwaps, quality.num_swaps as u64);
        self.observe(Hist::RouteDepthOverhead, quality.depth_overhead as u64);
        if let Some(lsp) = quality.log_success_probability {
            self.observe(Hist::RouteLogSuccess, neg_milli_log(lsp));
        }
        self.quality.observe(device, quality);
    }

    /// Mean ns per search step over the process lifetime — the live
    /// price admission control multiplies predicted steps by. `0` until
    /// the first routing job completes (no observation, no model).
    pub(crate) fn avg_ns_per_step(&self) -> u64 {
        self.get(Counter::RoutingNsTotal)
            .checked_div(self.get(Counter::RoutingStepsTotal))
            .unwrap_or(0)
    }

    /// Renders the Prometheus exposition text: one `HELP`/`TYPE` block
    /// per row of [`FAMILIES`], then that family's series.
    pub(crate) fn render(
        &self,
        gauges: GaugeSnapshot,
        cache: DeviceCacheStats,
        plans: PlanCacheStats,
    ) -> String {
        let scrape = Scrape {
            metrics: self,
            gauges,
            cache,
            plans,
        };
        let mut out = String::new();
        for &Family(name, kind, help, series) in FAMILIES {
            let _ = writeln!(out, "# HELP sabre_serve_{name} {help}");
            let _ = writeln!(out, "# TYPE sabre_serve_{name} {kind}");
            match series {
                One(source) => scrape.render_series(&mut out, name, "", source),
                Labeled(key, values) => {
                    for &(value, source) in values {
                        let label = format!("{key}=\"{value}\"");
                        scrape.render_series(&mut out, name, &label, source);
                    }
                }
                PerDevice(value) => {
                    let devices = self.quality.devices.lock().expect("quality board lock");
                    for (id, d) in devices.iter() {
                        let label = format!("device=\"{}\"", escape_label(id));
                        write_sample(&mut out, name, &label, value(d));
                    }
                }
            }
        }
        out
    }
}

impl Scrape<'_> {
    fn render_series(&self, out: &mut String, name: &str, label: &str, source: Source) {
        match source {
            Stored(counter) => write_sample(out, name, label, self.metrics.get(counter)),
            Scraped(read) => write_sample(out, name, label, read(self)),
            Source::Histogram(hist) => self.metrics.histogram(hist).render_series(out, name, label),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_gauges_counters_and_derived_values() {
        let m = Metrics::default();
        m.add(Counter::RequestsRoute, 3);
        m.add(Counter::QueueRejections, 1);
        m.add(Counter::ReapedIdle, 2);
        m.add(Counter::ShedPredictedSlo, 4);
        m.record_routing(1000, 10, 100);
        m.record_routing(3000, 10, 300);
        m.observe(Hist::PredictedWaitMs, 3);
        m.observe(Hist::PredictedWaitMs, 40);
        m.observe(Hist::PredictedWaitMs, 9999);
        m.add(Counter::PlanCacheInlineHits, 5);
        m.observe(Hist::RebindNs, 4_200);
        m.observe(Hist::PhaseFrontNs, 2_000_000);
        m.observe(Hist::PhaseScoringNs, 9_000_000);
        let text = m.render(
            GaugeSnapshot {
                queue_depth: 2,
                queue_capacity: 8,
                workers: 4,
                devices: 1,
                fleets: 0,
                draining: false,
                open_connections: 17,
                max_connections: 4096,
            },
            DeviceCacheStats::default(),
            PlanCacheStats {
                hits: 7,
                misses: 2,
                evictions: 1,
                entries: 3,
                approx_bytes: 9001,
            },
        );
        assert!(text.contains("sabre_serve_queue_depth 2"));
        assert!(text.contains("sabre_serve_queue_capacity 8"));
        assert!(text.contains("sabre_serve_requests_total{endpoint=\"route\"} 3"));
        assert!(text.contains("sabre_serve_queue_rejections_total 1"));
        assert!(text.contains("sabre_serve_routing_ns_total 4000"));
        assert!(text.contains("sabre_serve_routing_steps_total 20"));
        assert!(text.contains("sabre_serve_avg_route_ns_per_step 200"));
        assert!(text.contains("sabre_serve_last_route_ns_per_step 300"));
        assert!(text.contains("# TYPE sabre_serve_queue_depth gauge"));
        assert!(text.contains("# TYPE sabre_serve_requests_total counter"));
        assert!(text.contains("sabre_serve_open_connections 17"));
        assert!(text.contains("sabre_serve_max_connections 4096"));
        assert!(text.contains("sabre_serve_connections_reaped_total{reason=\"idle\"} 2"));
        assert!(text.contains("sabre_serve_connections_reaped_total{reason=\"read_deadline\"} 0"));
        // queue_full mirrors the legacy counter.
        assert!(text.contains("sabre_serve_admission_rejections_total{kind=\"queue_full\"} 1"));
        assert!(text.contains("sabre_serve_admission_rejections_total{kind=\"predicted_slo\"} 4"));
        assert!(text.contains("sabre_serve_admission_rejections_total{kind=\"rate_limited\"} 0"));
        assert!(text.contains("sabre_serve_admission_rejections_total{kind=\"table_full\"} 0"));
        assert!(text.contains("sabre_serve_plan_cache_hits_total 7"));
        assert!(text.contains("sabre_serve_plan_cache_misses_total 2"));
        assert!(text.contains("sabre_serve_plan_cache_evictions_total 1"));
        assert!(text.contains("sabre_serve_plan_cache_entries 3"));
        assert!(text.contains("sabre_serve_plan_cache_approx_bytes 9001"));
        assert!(text.contains("sabre_serve_plan_cache_inline_hits_total 5"));
        assert!(text.contains("# TYPE sabre_serve_rebind_ns histogram"));
        assert!(text.contains("sabre_serve_rebind_ns_bucket{le=\"5000\"} 1"));
        assert!(text.contains("sabre_serve_rebind_ns_count 1"));
        assert!(text.contains("# TYPE sabre_serve_route_phase_ns histogram"));
        assert!(
            text.contains("sabre_serve_route_phase_ns_bucket{phase=\"front\",le=\"10000000\"} 1")
        );
        assert!(text.contains("sabre_serve_route_phase_ns_sum{phase=\"front\"} 2000000"));
        assert!(text.contains("sabre_serve_route_phase_ns_count{phase=\"front\"} 1"));
        assert!(
            text.contains("sabre_serve_route_phase_ns_bucket{phase=\"scoring\",le=\"1000000\"} 0")
        );
        assert!(text.contains("sabre_serve_route_phase_ns_count{phase=\"scoring\"} 1"));
        assert!(text.contains("sabre_serve_route_phase_ns_count{phase=\"extended_set\"} 0"));
        assert_eq!(m.avg_ns_per_step(), 200);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::default();
        m.observe(Hist::PredictedWaitMs, 0); // le="1"
        m.observe(Hist::PredictedWaitMs, 1); // le="1" (bounds are inclusive)
        m.observe(Hist::PredictedWaitMs, 30); // le="50"
        m.observe(Hist::PredictedWaitMs, 1_000_000); // +Inf overflow
        assert_eq!(m.histogram(Hist::PredictedWaitMs).count(), 4);
        let text = m.render(
            GaugeSnapshot {
                queue_depth: 0,
                queue_capacity: 1,
                workers: 0,
                devices: 0,
                fleets: 0,
                draining: false,
                open_connections: 0,
                max_connections: 1,
            },
            DeviceCacheStats::default(),
            PlanCacheStats::default(),
        );
        assert!(text.contains("# TYPE sabre_serve_admission_predicted_wait_ms histogram"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_bucket{le=\"1\"} 2"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_bucket{le=\"5\"} 2"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_bucket{le=\"50\"} 3"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_bucket{le=\"5000\"} 3"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_sum 1000031"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_count 4"));
    }

    fn quality(swaps: usize, overhead: usize, lsp: Option<f64>) -> PlanQuality {
        PlanQuality {
            num_swaps: swaps,
            added_gates: 3 * swaps,
            input_two_qubit_gates: 10,
            output_two_qubit_gates: 10 + 3 * swaps,
            input_depth: 8,
            output_depth: 8 + overhead,
            depth_overhead: overhead,
            log_success_probability: lsp,
        }
    }

    #[test]
    fn observe_quality_feeds_histograms_board_and_device_counters() {
        let m = Metrics::default();
        m.observe_quality("tokyo20", &quality(4, 9, Some(-0.5)));
        m.observe_quality("tokyo20", &quality(8, 20, Some(-1.5)));
        m.observe_quality("grid6x6", &quality(0, 0, None));
        let text = m.render(
            GaugeSnapshot {
                queue_depth: 0,
                queue_capacity: 1,
                workers: 0,
                devices: 2,
                fleets: 0,
                draining: false,
                open_connections: 0,
                max_connections: 1,
            },
            DeviceCacheStats::default(),
            PlanCacheStats::default(),
        );
        assert!(text.contains("# TYPE sabre_serve_route_swaps histogram"));
        assert!(text.contains("sabre_serve_route_swaps_bucket{le=\"5\"} 2"));
        assert!(text.contains("sabre_serve_route_swaps_count 3"));
        assert!(text.contains("sabre_serve_route_swaps_sum 12"));
        assert!(text.contains("sabre_serve_route_depth_overhead_count 3"));
        // Only the two noise-aware routes observe the fidelity histogram.
        assert!(text.contains("sabre_serve_route_log_success_probability_count 2"));
        assert!(text.contains("sabre_serve_route_log_success_probability_bucket{le=\"500\"} 1"));
        assert!(text.contains("sabre_serve_route_log_success_probability_sum 2000"));
        // Per-device counter families, sorted by id.
        assert!(text.contains("sabre_serve_device_routes_total{device=\"grid6x6\"} 1"));
        assert!(text.contains("sabre_serve_device_routes_total{device=\"tokyo20\"} 2"));
        assert!(text.contains("sabre_serve_device_swaps_total{device=\"tokyo20\"} 12"));
        assert!(
            text.find("device=\"grid6x6\"").unwrap() < text.find("device=\"tokyo20\"").unwrap()
        );
    }

    #[test]
    fn quality_board_json_reports_count_mean_and_quantiles() {
        let m = Metrics::default();
        for _ in 0..19 {
            m.observe_quality("tokyo20", &quality(2, 5, Some(-0.1)));
        }
        m.observe_quality("tokyo20", &quality(100, 200, Some(-9.0)));
        let json = m.quality.to_json();
        let devices = json.get("devices").unwrap().as_array().unwrap();
        assert_eq!(devices.len(), 1);
        let d = &devices[0];
        assert_eq!(d.get("device").unwrap().as_str(), Some("tokyo20"));
        assert_eq!(d.get("count").unwrap().as_u64(), Some(20));
        let swaps = d.get("swaps").unwrap();
        let mean = swaps.get("mean").unwrap().as_f64().unwrap();
        assert!((mean - (19.0 * 2.0 + 100.0) / 20.0).abs() < 1e-9);
        assert_eq!(swaps.get("p50").unwrap().as_u64(), Some(2));
        // The p95 of 20 observations is the 19th: still the common case.
        assert_eq!(swaps.get("p95").unwrap().as_u64(), Some(2));
        assert_eq!(swaps.get("max").unwrap().as_u64(), Some(100));
        let lsp = d.get("log_success_probability").unwrap();
        assert_eq!(lsp.get("count").unwrap().as_u64(), Some(20));
        let p50 = lsp.get("p50").unwrap().as_f64().unwrap();
        assert!((-0.1..0.0).contains(&p50), "{p50}");
        let min = lsp.get("min").unwrap().as_f64().unwrap();
        assert!((min - (-9.0)).abs() < 1e-9);
        // A hop-only device reports null fidelity.
        m.observe_quality("line4", &quality(1, 1, None));
        let json = m.quality.to_json();
        let devices = json.get("devices").unwrap().as_array().unwrap();
        assert!(matches!(
            devices[0].get("log_success_probability"),
            Some(JsonValue::Null)
        ));
    }

    #[test]
    fn label_escaping_and_milli_log_encoding() {
        assert_eq!(escape_label("plain-id"), "plain-id");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(neg_milli_log(-1.0), 1000);
        assert_eq!(neg_milli_log(-0.0004), 0, "rounds to zero");
        assert_eq!(neg_milli_log(0.0), 0);
        assert_eq!(neg_milli_log(f64::NEG_INFINITY), u64::MAX);
    }

    /// A fixed, fully populated state: every counter holds a distinct
    /// value, every histogram (labeled phases included) has
    /// observations, and the scoreboard holds two devices, one of whose
    /// ids needs label escaping.
    fn populated() -> Metrics {
        let m = Metrics::default();
        for (i, counter) in m.counters.iter().enumerate() {
            counter.fetch_add(10 + i as u64, Ordering::Relaxed);
        }
        m.record_routing(123_456, 789, 156);
        for (histogram, values) in [
            (Hist::PredictedWaitMs, &[0, 7, 300, 99_999][..]),
            (Hist::RebindNs, &[900, 4_200, 2_000_000_000]),
            (Hist::PhaseFrontNs, &[5_000, 2_000_000]),
            (Hist::PhaseExtendedSetNs, &[50_000]),
            (Hist::PhaseScoringNs, &[9_000_000, 200_000_000_000]),
        ] {
            for &value in values {
                m.observe(histogram, value);
            }
        }
        m.observe_quality("tokyo20", &quality(4, 9, Some(-0.5)));
        m.observe_quality("tokyo20", &quality(3_000, 20, Some(-150.0)));
        m.observe_quality("grid\"6x6\"", &quality(0, 0, None));
        m
    }

    /// The whole exposition, byte for byte, for [`populated`] — the
    /// contract that e2ebench's trace parser and the CI `/metrics` greps
    /// read.
    #[test]
    fn render_matches_golden_exposition() {
        let text = populated().render(
            GaugeSnapshot {
                queue_depth: 3,
                queue_capacity: 64,
                workers: 4,
                devices: 2,
                fleets: 1,
                draining: true,
                open_connections: 17,
                max_connections: 4096,
            },
            DeviceCacheStats {
                graph_hits: 101,
                graph_misses: 102,
                noise_hits: 103,
                noise_misses: 104,
                embedding_hits: 105,
                embedding_misses: 106,
            },
            PlanCacheStats {
                hits: 201,
                misses: 202,
                evictions: 203,
                entries: 204,
                approx_bytes: 205,
            },
        );
        let expected = include_str!("../testdata/metrics_exposition.txt");
        for (line, (got, want)) in text.lines().zip(expected.lines()).enumerate() {
            assert_eq!(got, want, "exposition line {}", line + 1);
        }
        assert_eq!(text, expected);
    }

    /// Exposition hygiene for every registry row: a legal, unique
    /// Prometheus name, a known type, and exactly one `HELP` and one
    /// `TYPE` line in the rendered text.
    #[test]
    fn every_family_renders_one_help_and_type_line() {
        let m = populated();
        let text = m.render(
            GaugeSnapshot {
                queue_depth: 0,
                queue_capacity: 1,
                workers: 1,
                devices: 2,
                fleets: 0,
                draining: false,
                open_connections: 0,
                max_connections: 1,
            },
            DeviceCacheStats::default(),
            PlanCacheStats::default(),
        );
        let mut names = std::collections::HashSet::new();
        for &Family(name, kind, ..) in FAMILIES {
            assert!(names.insert(name), "{name} declared twice");
            let mut chars = name.chars();
            assert!(chars
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_'));
            assert!(
                chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "{name} uses an illegal character"
            );
            assert!(["counter", "gauge", "histogram"].contains(&kind));
            for tag in ["HELP", "TYPE"] {
                let prefix = format!("# {tag} sabre_serve_{name} ");
                let lines = text.lines().filter(|l| l.starts_with(&prefix)).count();
                assert_eq!(lines, 1, "{prefix}");
            }
        }
        let blocks = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
        assert_eq!(blocks, FAMILIES.len(), "every block comes from one row");
    }

    /// `/debug/quality` for [`populated`], byte for byte.
    #[test]
    fn quality_json_matches_golden() {
        let json = populated().quality.to_json().to_string();
        assert_eq!(json, include_str!("../testdata/quality.json"));
    }

    #[test]
    fn zero_steps_renders_zero_average() {
        let m = Metrics::default();
        let text = m.render(
            GaugeSnapshot {
                queue_depth: 0,
                queue_capacity: 1,
                workers: 0,
                devices: 0,
                fleets: 0,
                draining: true,
                open_connections: 0,
                max_connections: 16,
            },
            DeviceCacheStats::default(),
            PlanCacheStats::default(),
        );
        assert!(text.contains("sabre_serve_avg_route_ns_per_step 0"));
        assert!(text.contains("sabre_serve_draining 1"));
    }
}
