//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory during the run and are written out once at the
//! end. A span's self time is its duration minus the durations of its
//! children; children synthesised from the program's own telemetry
//! (`RouteProfile` phases, `/debug/traces` phase clocks) carry durations
//! only.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call` name, e.g. `sabre.route`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// The in-memory span log of one run.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Records a span of known duration and returns its index.
    pub fn record(&mut self, name: &'static str, parent: Option<usize>, dur_ns: u64) -> usize {
        self.spans.push(Span {
            name,
            parent,
            dur_ns,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span and returns its result with the span index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let value = f();
        let id = self.record(name, parent, elapsed_ns(start));
        (value, id)
    }

    /// Duration of span `id` in nanoseconds.
    pub fn dur_ns(&self, id: usize) -> u64 {
        self.spans[id].dur_ns
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns as f64 / 1e6).collect()
    }

    /// Summed duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.dur_ns).sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Summed self time of every span whose name starts with `prefix`,
    /// in nanoseconds. Self time never goes below zero.
    pub fn self_ns(&self, prefix: &str) -> u64 {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .filter(|(s, _)| s.name.starts_with(prefix))
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .sum()
    }

    /// The log as JSON lines: `{"id","name","parent","dur_ns"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 64);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"dur_ns\":{}}}",
                s.name, s.dur_ns
            );
        }
        out
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::default();
        let rtt = s.record("client.rtt", None, 1000);
        let total = s.record("serve.total", Some(rtt), 800);
        s.record("serve.parse", Some(total), 100);
        let route = s.record("sabre.route", Some(total), 600);
        s.record("router.scoring", Some(route), 450);
        assert_eq!(s.self_ns("client."), 200);
        assert_eq!(s.self_ns("serve."), 100 + 100);
        assert_eq!(s.self_ns("sabre."), 150);
        assert_eq!(s.self_ns("router."), 450);
        assert_eq!(s.total_ns("sabre.route"), 600);
        assert_eq!(s.count("serve.parse"), 1);
        assert_eq!(s.to_jsonl().lines().count(), 5);
    }
}
