//! Shared harness for the figure-regeneration binaries.
//!
//! Every `fig*` binary in `src/bin/` reproduces one table or figure of the
//! paper: it builds the matching configuration through
//! [`Simulation::builder`](autofl_fed::engine::Simulation::builder),
//! resolves its policies from the [`standard_registry`], and prints the
//! same rows/series the paper reports (PPW normalised to FedAvg-Random,
//! convergence time, accuracy).
//! The `spec_run` binary executes checked-in
//! [`autofl_fed::spec::ExperimentSpec`] files through the same registry,
//! so every figure is reproducible from a declarative JSON file. See
//! EXPERIMENTS.md for the paper-vs-measured record.

use autofl_fed::engine::{SimConfig, SimResult};
pub use autofl_fed::policy::{run_policy, Policy, PolicyRegistry};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

pub use autofl_core::policy::{standard_registry, PAPER_POLICIES};

/// Baselines only (everything except AutoFL), in reporting order.
pub const BASELINE_POLICIES: [&str; 5] = [
    "FedAvg-Random",
    "Power",
    "Performance",
    "O_participant",
    "O_FL",
];

/// Runs every `(config, policy)` pair of a sweep in parallel across the
/// pool and returns the results in input order.
///
/// Each run owns its `Simulation` and its seeds, so results are identical
/// to running the pairs sequentially — config-level fan-out is the
/// outermost (and best-scaling) parallelism the fig binaries have.
pub fn par_sweep(runs: &[(SimConfig, &dyn Policy)]) -> Vec<SimResult> {
    runs.par_iter()
        .map(|(config, policy)| run_policy(config, *policy))
        .collect()
}

/// One `BENCH_autofl.json` row, shared by `perf_report` (kernel and
/// round timings at 1 and N threads) and `fig_scale` (the fleet-size
/// sweep, which additionally fills `rounds_per_s` and the peak-RSS
/// proxy). Rows from different tools merge into one file through
/// [`merge_bench_rows`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRow {
    /// Benchmark name (`fig_scale` rows are `fleet_scale[_dyn]_n<N>`).
    pub bench: String,
    /// Worker-thread budget the measurement ran under.
    pub threads: usize,
    /// Wall-clock time of the measured section in milliseconds.
    pub wall_ms: f64,
    /// `wall_ms(threads=1) / wall_ms(threads=this)`; 1.0 when only one
    /// thread setting was measured.
    pub speedup: f64,
    /// Simulated aggregation rounds per second (0 for kernel benches).
    pub rounds_per_s: f64,
    /// Peak-RSS proxy in kB: `VmHWM` from `/proc/self/status`, falling
    /// back to the simulation's per-device store bytes
    /// (`Simulation::store_bytes`: the lifecycle store, 0 on a static
    /// fleet) off Linux; 0 for kernel benches that track no memory.
    pub peak_rss_kb: f64,
}

/// Merges `rows` into the JSON row array at `path`: existing rows with
/// the same `(bench, threads)` key are replaced, others are kept, new
/// rows are appended. A missing or unparseable file (e.g. an older
/// schema) starts from empty, so the file self-heals across versions.
pub fn merge_bench_rows(path: &str, rows: Vec<BenchRow>) -> std::io::Result<()> {
    let mut merged = read_bench_rows(path);
    for row in rows {
        match merged
            .iter_mut()
            .find(|r| r.bench == row.bench && r.threads == row.threads)
        {
            Some(slot) => *slot = row,
            None => merged.push(row),
        }
    }
    let json = serde_json::to_string_pretty(&merged).expect("bench rows serialize");
    std::fs::write(path, json + "\n")
}

/// Reads the `BenchRow` array at `path`; a missing or unparseable file
/// (e.g. an older schema) reads as empty.
pub fn read_bench_rows(path: &str) -> Vec<BenchRow> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .unwrap_or_default()
}

/// Best-effort peak resident-set size of this process in kB (`VmHWM`
/// from `/proc/self/status`); `None` off Linux or when unreadable.
pub fn peak_rss_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse::<f64>().ok()
}

/// One row of a normalised comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Policy label.
    pub label: String,
    /// PPW relative to the baseline.
    pub ppw_norm: f64,
    /// Convergence-time speedup relative to the baseline.
    pub conv_speedup: f64,
    /// Round the run converged, if it did.
    pub converged_round: Option<usize>,
    /// Final accuracy.
    pub accuracy: f64,
}

impl Row {
    /// Normalises a set of borrowed results against the first one
    /// (conventionally FedAvg-Random).
    pub fn normalised(results: &[&SimResult]) -> Vec<Row> {
        let base_ppw = results[0].ppw_global().max(1e-300);
        let base_time = results[0].time_to_target_s().max(1e-300);
        results
            .iter()
            .map(|r| Row {
                label: r.policy.clone(),
                ppw_norm: r.ppw_global() / base_ppw,
                conv_speedup: base_time / r.time_to_target_s().max(1e-300),
                converged_round: r.converged_round(),
                accuracy: r.final_accuracy(),
            })
            .collect()
    }
}

/// Runs a set of policies (resolved from `registry` by name) on one
/// configuration and normalises PPW / convergence time to the first name
/// in the list (conventionally `"FedAvg-Random"`).
///
/// The policy runs are independent simulations and execute in parallel;
/// normalisation happens afterwards in input order.
///
/// # Panics
///
/// Panics if a name is not registered (runner binaries hold their policy
/// lists as compile-time constants).
pub fn comparison(config: &SimConfig, registry: &PolicyRegistry, names: &[&str]) -> Vec<Row> {
    let policies: Vec<&dyn Policy> = names.iter().map(|n| registry.expect(n)).collect();
    let results: Vec<SimResult> = policies
        .par_iter()
        .map(|p| run_policy(config, *p))
        .collect();
    Row::normalised(&results.iter().collect::<Vec<_>>())
}

/// Prints a comparison table with a title.
pub fn print_rows(title: &str, rows: &[Row]) {
    println!("\n--- {title} ---");
    println!(
        "{:<16} {:>9} {:>12} {:>10} {:>9}",
        "policy", "PPW x", "conv-speed x", "converged", "accuracy"
    );
    for row in rows {
        println!(
            "{:<16} {:>8.2}x {:>11.2}x {:>10} {:>8.1}%",
            row.label,
            row.ppw_norm,
            row.conv_speedup,
            row.converged_round
                .map(|r| r.to_string())
                .unwrap_or_else(|| "no".into()),
            row.accuracy * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_normalises_to_first_policy() {
        let cfg = SimConfig::tiny_test(1);
        let reg = standard_registry();
        let rows = comparison(&cfg, &reg, &["FedAvg-Random", "Performance"]);
        assert_eq!(rows[0].ppw_norm, 1.0);
        assert_eq!(rows[0].label, "FedAvg-Random");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn every_paper_policy_resolves_and_names() {
        let reg = standard_registry();
        for name in PAPER_POLICIES {
            let p = reg.expect(name);
            assert_eq!(p.name(), name);
            assert_eq!(p.make_selector().name(), name);
        }
        assert_eq!(&PAPER_POLICIES[..5], &BASELINE_POLICIES[..]);
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_names_panic_with_the_registry_contents() {
        let reg = standard_registry();
        let _ = reg.expect("NotARealPolicy");
    }
}
