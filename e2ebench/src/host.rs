//! Host-speed normalisation of the timings.
//!
//! The benchmark runs on a few cores of a shared machine whose speed
//! changes by tens of percent for seconds to minutes at a time: the same
//! seed's `kilo_grid` sweep takes 290 ms in one run and 500 ms in the
//! next, and a fixed loop beside it slows by the same share. Medians
//! within a run cannot remove a change that lasts the whole run, so the
//! timed sections interleave a fixed CPU kernel, the probe, with the
//! operations they time, and divide each timing by the probe's median
//! time nearby. The end-to-end timings therefore read as on a host where
//! one probe takes [`PROBE_NOMINAL_MS`]. A change to the program moves
//! them fully, since the probe runs none of its code; a change of host
//! speed moves both and cancels. The raw timings and the probe time are
//! printed beside the result.

use std::hint::black_box;
use std::time::Instant;

/// The probe time that the normalised timings assume.
pub const PROBE_NOMINAL_MS: f64 = 1.0;

/// Side of the probe's grid graph.
const GRID: usize = 33;

/// Breadth-first searches per probe: about [`PROBE_NOMINAL_MS`] on an
/// unloaded 2-vCPU Xeon guest.
const ROUNDS: usize = 140;

/// The probe kernel: breadth-first searches over a 33×33 grid, the
/// memory-and-branch work that also dominates sparse distance rows.
#[derive(Debug)]
pub struct Probe {
    /// Compressed adjacency: neighbours of `v` are
    /// `targets[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<u32>,
    next_source: usize,
}

impl Default for Probe {
    fn default() -> Self {
        let nodes = GRID * GRID;
        let mut offsets = Vec::with_capacity(nodes + 1);
        let mut targets = Vec::with_capacity(4 * nodes);
        for v in 0..nodes {
            offsets.push(targets.len());
            let (r, c) = (v / GRID, v % GRID);
            let neighbours = [
                (r > 0).then(|| v - GRID),
                (c > 0).then(|| v - 1),
                (c + 1 < GRID).then_some(v + 1),
                (r + 1 < GRID).then_some(v + GRID),
            ];
            targets.extend(neighbours.into_iter().flatten().map(|w| w as u32));
        }
        offsets.push(targets.len());
        Probe {
            offsets,
            targets,
            dist: vec![u32::MAX; nodes],
            queue: Vec::with_capacity(nodes),
            next_source: 0,
        }
    }
}

impl Probe {
    /// Runs the kernel once and returns its time in milliseconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..ROUNDS {
            acc = acc.wrapping_add(self.bfs_sum());
        }
        black_box(acc);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Runs the kernel `n` times and returns the times.
    pub fn burst(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.run()).collect()
    }

    /// Runs `n` probes on each of `threads` threads at once, so that a
    /// workload spread over several cores is compared with all of them.
    pub fn parallel_burst(threads: usize, n: usize) -> Vec<f64> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(move || Probe::default().burst(n)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("probe thread"))
                .collect()
        })
    }

    /// Sum of hop distances from the next source to every node.
    fn bfs_sum(&mut self) -> u64 {
        let nodes = self.dist.len();
        let source = self.next_source;
        self.next_source = (self.next_source + 7919) % nodes;
        self.dist.fill(u32::MAX);
        self.queue.clear();
        self.queue.push(source as u32);
        self.dist[source] = 0;
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let v = v as usize;
            let d = self.dist[v] + 1;
            for &w in &self.targets[self.offsets[v]..self.offsets[v + 1]] {
                let w = w as usize;
                if self.dist[w] == u32::MAX {
                    self.dist[w] = d;
                    self.queue.push(w as u32);
                }
            }
        }
        black_box(&self.dist).iter().map(|&d| u64::from(d)).sum()
    }
}

/// How much slower than nominal the host ran, from probe times taken
/// beside the operations: their median over [`PROBE_NOMINAL_MS`].
/// Divide a raw timing by it to normalise it.
pub fn slowdown(probe_ms: &[f64]) -> f64 {
    crate::stats::median(probe_ms) / PROBE_NOMINAL_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_fixed_work() {
        let (mut a, mut b) = (Probe::default(), Probe::default());
        let sums: Vec<u64> = (0..5).map(|_| a.bfs_sum()).collect();
        assert_eq!(sums, (0..5).map(|_| b.bfs_sum()).collect::<Vec<_>>());
        // From a corner of a 33×33 grid: Σ (r + c) = 2 · 33 · (32·33/2).
        let mut corner = Probe::default();
        assert_eq!(corner.bfs_sum(), 2 * 33 * (32 * 33 / 2));
        assert!(a.run() > 0.0);
    }

    #[test]
    fn slowdown_is_median_over_nominal() {
        assert_eq!(slowdown(&[2.0, 1.0, 50.0]), 2.0 / PROBE_NOMINAL_MS);
    }
}
