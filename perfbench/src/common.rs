//! What every workload shares: options, the result it prints, the
//! correctness checks that count towards `failed`, and the record digest.

use autofl_fed::engine::RoundRecord;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Command-line options of one workload process.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Master seed; every input of the workload is derived from it.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Record spans and print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Seconds-long sizes for the self-test.
    pub smoke: bool,
    /// Directory for scratch files and the spans file.
    pub out_dir: std::path::PathBuf,
}

impl Opts {
    /// Deadline of the measured phase, counted from now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// The seed of iteration `i`: distinct per iteration, fixed by `seed`.
    pub fn iteration_seed(&self, i: usize) -> u64 {
        splitmix(self.seed ^ splitmix(i as u64 + 1))
    }
}

/// SplitMix64 finalizer.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (rounds, runs or jobs).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed if `outcome` is an error.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(why);
        }
    }
}

/// The checks every round record must pass: a cohort within `k` with no
/// duplicate or out-of-fleet id, accuracy finite in `[0, 1]`, energies
/// finite and non-negative.
pub fn check_record(record: &RoundRecord, k: usize, devices: usize) -> Result<(), String> {
    let round = record.round;
    if record.participants.len() > k {
        return Err(format!(
            "round {round}: {} participants exceed K={k}",
            record.participants.len()
        ));
    }
    let mut ids: Vec<usize> = record.participants.iter().map(|id| id.0).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(format!("round {round}: duplicate participant"));
    }
    if ids.last().is_some_and(|&id| id >= devices) {
        return Err(format!("round {round}: participant outside the fleet"));
    }
    if !(record.accuracy.is_finite() && (0.0..=1.0).contains(&record.accuracy)) {
        return Err(format!("round {round}: accuracy {}", record.accuracy));
    }
    for (what, e) in [
        ("active", record.active_energy_j),
        ("idle", record.idle_energy_j),
    ] {
        if !(e.is_finite() && e >= 0.0) {
            return Err(format!("round {round}: {what} energy {e}"));
        }
    }
    Ok(())
}

/// FNV-1a 64 over byte strings.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in a record's canonical JSON line (the trace format).
    pub fn record(&mut self, record: &RoundRecord) {
        let line = serde_json::to_string(record).expect("round records serialize");
        self.bytes(line.as_bytes());
        self.bytes(b"\n");
    }

    /// The digest as a whole number below 2^53, exact in a JSON double.
    pub fn as_metric(&self) -> f64 {
        (self.0 >> 11) as f64
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A workload's result: metrics by name with their units, the checks,
/// and the deterministic `sim.*` values with the record digest.
#[derive(Debug, Default)]
pub struct Output {
    /// Name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Correctness checks.
    pub checks: Checks,
    /// Hex digest of the fixed first iteration's records.
    pub digest: String,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Output {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// The result as one JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        let failures: Vec<String> = self
            .checks
            .failures
            .iter()
            .take(20)
            .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "'")))
            .collect();
        format!(
            "{{\"attempted\":{},\"failed\":{},\"failures\":[{}],\"digest\":\"{}\",\"threads\":{},\"metrics\":{{{}}}}}",
            self.checks.attempted,
            self.checks.failed,
            failures.join(","),
            self.digest,
            rayon::current_num_threads(),
            metrics.join(",")
        )
    }
}

/// A finite number as JSON (non-finite values become `null`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
