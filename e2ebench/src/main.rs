//! End-to-end and per-layer benchmark of the SABRE routing workspace.
//!
//! ```text
//! e2ebench --workload <table2_paper|kilo_grid|serve_vqa> [--seed N]
//!          [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics and the tracing overhead. Every output is checked; a failed
//! check prints `"correct": false` and exits 1. The last line of stdout
//! is the JSON result. See README.md for the metrics and workloads.

#![forbid(unsafe_code)]

mod host;
mod library;
mod report;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed used when `--seed` is absent: `SabreConfig::paper().seed`.
pub const DEFAULT_SEED: u64 = 2019;

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 31;

/// One invocation's settings.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed section.
    pub duration: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub traced: bool,
    /// When `main` started: the first set-up is timed from here.
    pub process_start: Instant,
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse_args(&args, process_start) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: e2ebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                report::workloads().join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload={workload} seed={} seconds={} trace={} cores={}",
        ctx.seed,
        ctx.duration.as_secs_f64(),
        u8::from(ctx.traced),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let run = match workload.as_str() {
        "table2_paper" => library::run(library::Kind::Table2, &ctx),
        "kilo_grid" => library::run(library::Kind::KiloGrid, &ctx),
        "serve_vqa" => serve::run(&ctx),
        other => unreachable!("workload `{other}` has no runner"),
    };
    ExitCode::from(run.finish(ctx.traced) as u8)
}

fn parse_args(args: &[String], process_start: Instant) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: DEFAULT_SEED,
        duration: Duration::from_secs(10),
        traced: false,
        process_start,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !report::workloads().contains(value) {
                    return Err(format!("unknown workload `{value}`"));
                }
                workload = Some(value.clone());
            }
            "--seed" => ctx.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                let secs: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err(format!("seconds must lie in (0, 600], got {value}"));
                }
                ctx.duration = Duration::from_secs_f64(secs);
            }
            "--trace" => {
                ctx.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, ctx))
}

/// SplitMix64: the benchmark's own seeded stream (sweep order, angles,
/// per-circuit seeds). Independent of the program's RNG.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, separated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform angle in `[0, 2π)`.
    pub fn angle(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU
    }
}

/// FNV-1a over byte slices: the digest that compares one routed output
/// against another without keeping both in memory.
pub fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for part in parts {
        for &b in part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
        h ^= 0xFF;
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seed_defaults_and_flags_parse() {
        let now = Instant::now();
        let (w, ctx) = parse_args(&args(&["--workload", "kilo_grid"]), now).unwrap();
        assert_eq!(
            (w.as_str(), ctx.seed, ctx.traced),
            ("kilo_grid", DEFAULT_SEED, false)
        );
        let (_, ctx) = parse_args(
            &args(&[
                "--workload",
                "serve_vqa",
                "--seed",
                "7",
                "--seconds",
                "2",
                "--trace",
                "1",
            ]),
            now,
        )
        .unwrap();
        assert_eq!((ctx.seed, ctx.duration.as_secs(), ctx.traced), (7, 2, true));
        assert!(parse_args(&args(&["--workload", "nope"]), now).is_err());
        assert!(parse_args(&args(&["--seed", "1"]), now).is_err());
        assert!(parse_args(&args(&["--workload", "kilo_grid", "--trace", "2"]), now).is_err());
    }

    #[test]
    fn seeded_streams_repeat() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(5, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix::new(5, 1).next_u64(),
            SplitMix::new(5, 2).next_u64()
        );
        assert_ne!(fnv1a([&b"ab"[..], b"c"]), fnv1a([&b"a"[..], b"bc"]));
    }
}
