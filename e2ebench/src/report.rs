//! The metric list (read from `BENCHMARK.json`), the result line, and
//! the cross-run count check.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use sabre_json::JsonValue;

/// The benchmark's definition: its workloads and its metrics with units.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `name` of every entry listed under `key` in `BENCHMARK.json`,
/// with its `unit` where it has one.
fn listed(key: &str) -> Vec<(String, Option<String>)> {
    let json = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let field = |entry: &JsonValue, k| entry.get(k).and_then(JsonValue::as_str).map(String::from);
    json.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists `{key}`"))
        .iter()
        .map(|entry| {
            (
                field(entry, "name").expect("entry has a name"),
                field(entry, "unit"),
            )
        })
        .collect()
}

/// Workload names, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<String> {
    listed("workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

/// The metrics a run prints: `per_layer` when traced, else `end_to_end`.
fn metric_table(traced: bool) -> Vec<(String, String)> {
    listed(if traced { "per_layer" } else { "end_to_end" })
        .into_iter()
        .map(|(name, unit)| {
            let unit = unit.unwrap_or_else(|| panic!("metric `{name}` has a unit"));
            (name, unit)
        })
        .collect()
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted in the timed section.
    pub attempted: usize,
    /// Operations failed or refused in the timed section.
    pub failed: usize,
    problems: Vec<String>,
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Run {
    /// Sets a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Sets to 0 every per-layer metric whose name starts with one of
    /// `prefixes`: layers the workload bypasses did no work.
    pub fn bypass(&mut self, prefixes: &[&str]) {
        for (name, _) in metric_table(true) {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.values.insert(name, 0.0);
            }
        }
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Checks that the deterministic counts equal those of any earlier
    /// run of this workload and seed by the same benchmark binary. A new
    /// build starts a new record, so a change that moves routing on
    /// purpose is compared only with runs of itself.
    pub fn check_counts(&mut self, workload: &str, seed: u64, counts: &[(&str, u64)]) {
        match build_key() {
            Ok(build) => self.check_counts_in(&out_dir(), build, workload, seed, counts),
            Err(e) => self.note(format!("note: counts not recorded: {e}")),
        }
    }

    fn check_counts_in(
        &mut self,
        dir: &Path,
        build: u64,
        workload: &str,
        seed: u64,
        counts: &[(&str, u64)],
    ) {
        let mut text = String::new();
        for (name, value) in counts {
            let _ = writeln!(text, "{name}={value}");
        }
        let path = dir.join(format!("counts-{workload}-seed{seed}-{build:016x}.txt"));
        match std::fs::read_to_string(&path) {
            Ok(previous) => self.check(previous == text, || {
                format!(
                    "deterministic counts differ from an earlier run ({}): {previous:?} vs {text:?}",
                    path.display()
                )
            }),
            Err(_) => {
                let tmp = path.with_extension(format!("tmp{}", std::process::id()));
                let written = std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&tmp, &text))
                    .and_then(|()| std::fs::rename(&tmp, &path));
                if let Err(e) = written {
                    self.note(format!("note: counts not recorded: {e}"));
                }
            }
        }
    }

    /// Prints the report and the result line (last line of stdout) and
    /// returns the process exit code.
    pub fn finish(self, traced: bool) -> i32 {
        let mut problems = self.problems;
        let mut metrics = String::from("{");
        for (i, (name, unit)) in metric_table(traced).iter().enumerate() {
            let value = *self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            if !value.is_finite() {
                problems.push(format!("metric `{name}` is not finite: {value}"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{name:<28} {value:>18} {unit}");
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
        metrics.push('}');
        for line in &self.notes {
            println!("{line}");
        }
        for problem in problems.iter().take(20) {
            println!("CHECK FAILED: {problem}");
            eprintln!("CHECK FAILED: {problem}");
        }
        if problems.len() > 20 {
            println!("CHECK FAILED: … and {} more", problems.len() - 20);
        }
        let correct = problems.is_empty();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
            self.attempted.max(1),
            self.failed
        );
        if correct {
            0
        } else {
            1
        }
    }
}

/// Identity of the running benchmark build: FNV-1a over its executable.
fn build_key() -> std::io::Result<u64> {
    let exe = std::fs::read(std::env::current_exe()?)?;
    Ok(crate::fnv1a([exe.as_slice()]))
}

/// Where the benchmark leaves its span logs and count records: beside
/// its own build output, inside the checkout.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current executable path");
    let target = exe
        .parent()
        .and_then(|release| release.parent())
        .expect("executable sits in <target>/release");
    target.join("e2ebench-out")
}

/// Writes the span log of a traced run.
pub fn write_spans(workload: &str, seed: u64, jsonl: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    std::fs::write(&path, jsonl)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_last_and_complete() {
        let mut run = Run::default();
        for (name, _) in metric_table(false) {
            run.set(&name, 1.25);
        }
        run.attempted = 3;
        run.check(true, || "unreachable".into());
        run.check(false, || "bad output".into());
        assert_eq!(run.finish(false), 1);
    }

    #[test]
    fn bypass_zeroes_only_the_named_layers() {
        let mut run = Run::default();
        run.bypass(&["serve."]);
        assert!(run.values.keys().all(|k| k.starts_with("serve.")));
        assert!(run.values.values().all(|&v| v == 0.0));
        assert!(!run.values.is_empty());
    }

    #[test]
    fn count_records_are_scoped_to_one_build() {
        let dir = out_dir().join(format!("test-counts-{}", std::process::id()));
        let counts = |gates| [("added_gates", gates), ("router.steps", 7)];
        let mut run = Run::default();
        run.check_counts_in(&dir, 1, "w", 3, &counts(10));
        run.check_counts_in(&dir, 1, "w", 3, &counts(10));
        assert!(run.problems.is_empty(), "{:?}", run.problems);
        // Another build that routes differently starts its own record.
        run.check_counts_in(&dir, 2, "w", 3, &counts(11));
        run.check_counts_in(&dir, 2, "w", 3, &counts(11));
        assert!(run.problems.is_empty(), "{:?}", run.problems);
        // The same build giving other counts fails the run.
        run.check_counts_in(&dir, 1, "w", 3, &counts(11));
        assert_eq!(run.problems.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
