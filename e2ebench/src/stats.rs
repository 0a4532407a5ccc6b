//! The benchmark's own statistics: latency percentiles with the tail
//! rule, failure accounting, and the peak-RSS reading.

/// Percentiles tried for the tail, highest first, in tenths of a percent
/// so that ranks are exact integers.
pub const TAIL_LADDER: [u32; 8] = [999, 995, 990, 980, 950, 900, 750, 500];

/// A tail percentile counts only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// How long a client waits for a response before the operation counts as
/// timed out. A failed operation is reported at this latency: it misses
/// every latency limit up to the timeout.
pub const TIMEOUT_MS: f64 = 30_000.0;

/// How one attempted operation ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Completed, with its latency in milliseconds.
    Ok(f64),
    /// Failed or refused: an error status, a timeout or a broken
    /// connection.
    Failed,
}

/// Classifies a served response. `None` is a timeout or an I/O error.
/// Only `200` succeeds; every 4xx (including 429) and 5xx (including
/// 503) is failed or refused.
pub fn classify(status: Option<u16>, latency_ms: f64) -> Outcome {
    match status {
        Some(200) => Outcome::Ok(latency_ms),
        _ => Outcome::Failed,
    }
}

/// Latency samples of one operation class, failures included.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    ok: Vec<f64>,
    failed: usize,
}

/// The tail percentile picked by [`Latencies::tail`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// Its value in milliseconds.
    pub value_ms: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

impl Latencies {
    /// Records one operation.
    pub fn push(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok(ms) => self.ok.push(ms),
            Outcome::Failed => self.failed += 1,
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> usize {
        self.ok.len() + self.failed
    }

    /// Operations failed or refused.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Operations completed.
    pub fn completed(&self) -> usize {
        self.ok.len()
    }

    /// Every sample sorted, failures last at [`TIMEOUT_MS`].
    fn sorted(&self) -> Vec<f64> {
        let mut all = self.ok.clone();
        all.sort_by(f64::total_cmp);
        all.extend(std::iter::repeat_n(TIMEOUT_MS, self.failed));
        all
    }

    /// Nearest-rank percentile, given in tenths of a percent (`990` is
    /// p99); `None` when empty.
    pub fn percentile(&self, tenths: u32) -> Option<f64> {
        let sorted = self.sorted();
        (!sorted.is_empty()).then(|| sorted[rank(tenths, sorted.len())])
    }

    /// The median.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(500)
    }

    /// The highest percentile of [`TAIL_LADDER`] with at least
    /// [`MIN_BEYOND`] samples beyond it; `None` when there are too few
    /// samples for any of them.
    pub fn tail(&self) -> Option<Tail> {
        let sorted = self.sorted();
        let n = sorted.len();
        TAIL_LADDER.iter().find_map(|&tenths| {
            if n == 0 {
                return None;
            }
            let r = rank(tenths, n);
            let beyond = n - 1 - r;
            (beyond >= MIN_BEYOND).then(|| Tail {
                percentile: f64::from(tenths) / 10.0,
                value_ms: sorted[r],
                beyond,
            })
        })
    }
}

/// Zero-based nearest-rank index of a percentile, in tenths of a
/// percent, among `n` samples.
fn rank(tenths: u32, n: usize) -> usize {
    let r = (tenths as usize * n).div_ceil(1000);
    r.clamp(1, n) - 1
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib = parse_vm_hwm_kib(&status).expect("VmHWM present in /proc/self/status");
    kib as f64 / 1024.0
}

/// Median of a non-empty list: the middle value, or the mean of the two
/// middle values when the count is even.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of a list, 0 when it is empty (a layer the workload bypasses).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(values: impl IntoIterator<Item = f64>) -> Latencies {
        let mut l = Latencies::default();
        for v in values {
            l.push(Outcome::Ok(v));
        }
        l
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99.5 leaves 5, p99 leaves 10.
        let l = ms((1..=1000).map(f64::from));
        let t = l.tail().unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value_ms, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(l.p50(), Some(500.0));
        // 999 samples: p99 leaves 9, so p98 it is.
        let t = ms((1..=999).map(f64::from)).tail().unwrap();
        assert_eq!((t.percentile, t.beyond), (98.0, 19));
    }

    #[test]
    fn tail_steps_down_the_ladder_with_fewer_samples() {
        // 100 samples: p99 leaves 1, p98 leaves 2, p95 leaves 5, p90 leaves 10.
        let t = ms((1..=100).map(f64::from)).tail().unwrap();
        assert_eq!((t.percentile, t.value_ms, t.beyond), (90.0, 90.0, 10));
        // 40 samples: p75 leaves exactly 10.
        let t = ms((1..=40).map(f64::from)).tail().unwrap();
        assert_eq!((t.percentile, t.beyond), (75.0, 10));
        // 39 samples: only the median leaves ten or more.
        let t = ms((1..=39).map(f64::from)).tail().unwrap();
        assert_eq!((t.percentile, t.beyond), (50.0, 19));
        // 20 samples: the median leaves exactly 10.
        let t = ms((1..=20).map(f64::from)).tail().unwrap();
        assert_eq!((t.percentile, t.value_ms, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(ms((1..=19).map(f64::from)).tail(), None);
        assert_eq!(Latencies::default().tail(), None);
        assert_eq!(Latencies::default().p50(), None);
    }

    #[test]
    fn refusals_errors_and_timeouts_are_failures() {
        for status in [Some(429), Some(503), Some(500), Some(502), Some(400), None] {
            assert_eq!(classify(status, 1.0), Outcome::Failed, "{status:?}");
        }
        assert_eq!(classify(Some(200), 1.5), Outcome::Ok(1.5));
    }

    #[test]
    fn failures_count_as_attempted_and_miss_every_latency() {
        let mut l = ms((1..=90).map(f64::from));
        for _ in 0..10 {
            l.push(classify(Some(503), 0.2));
        }
        assert_eq!((l.attempted(), l.failed(), l.completed()), (100, 10, 90));
        // The fast refusals sort above every completed op, not below.
        assert_eq!(l.percentile(950), Some(TIMEOUT_MS));
        assert_eq!(l.percentile(900), Some(90.0));
        // With half the ops failed, the median itself is missed.
        let mut half = ms([1.0, 2.0]);
        half.push(Outcome::Failed);
        half.push(Outcome::Failed);
        half.push(Outcome::Failed);
        assert_eq!(half.p50(), Some(TIMEOUT_MS));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 10.0]), 3.0);
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\te2ebench\nVmPeak:\t  300000 kB\nVmHWM:\t   15360 kB\nVmRSS:\t   12000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(15360));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }
}
