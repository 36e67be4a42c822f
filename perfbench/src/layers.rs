//! Per-layer metrics derived from a finished trace.
//!
//! Times are milliseconds per call (means) unless the name ends in a
//! percentile. A layer a workload never calls reads 0.

use crate::common::Output;
use crate::trace::{mean, quantile, Trace};
use autofl_core::policy::PAPER_POLICIES;
use autofl_fed::engine::RoundRecord;

/// Layer spans replayed after each round; their sum, with the selector's
/// own spans, is the round time the layers account for.
const REPLAYED: [&str; 6] = [
    "fleet.begin_round",
    "device.sample_into",
    "estimate.costs",
    "accuracy.surrogate",
    "accuracy.real",
    "fleet.end_round",
];

/// Every per-layer metric with its unit, in print order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("engine.round_ms_p50", "ms"),
        ("engine.round_ms_p90", "ms"),
        ("engine.new_ms", "ms"),
        ("engine.unattributed_ms", "ms"),
        ("data.stats_only_ms", "ms"),
        ("device.sample_into_ms", "ms"),
        ("device.sampled", "count"),
        ("device.cohort_frac", "share"),
        ("estimate.costs_ms", "ms"),
        ("fleet.begin_round_ms", "ms"),
        ("fleet.end_round_ms", "ms"),
        ("fleet.eligible_frac", "share"),
        ("fleet.store_mb", "MB"),
        ("core.qtable_kib", "KiB"),
        ("accuracy.surrogate_ms", "ms"),
        ("accuracy.real_ms", "ms"),
        ("nn.train_batch_ms", "ms"),
        ("nn.train_gflops", "GFLOP/s"),
        ("serve.step_ms", "ms"),
        ("serve.snapshot_ms", "ms"),
        ("serve.write_ms", "ms"),
        ("serve.ckpt_mb", "MB"),
        ("serve.read_ms", "ms"),
        ("serve.resume_ms", "ms"),
        ("sim.rounds_to_target_p50", "rounds"),
        ("sim.missed_target", "runs"),
        ("sim.autofl_ppw_x", "x"),
        ("sim.autofl_conv_x", "x"),
        ("sim.digest", "hash"),
        ("trace.overhead_frac", "share"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for policy in PAPER_POLICIES {
        names.push((format!("select.ms.{policy}"), "ms"));
        names.push((format!("observe.ms.{policy}"), "ms"));
    }
    names
}

/// Sets every per-layer metric to 0, then fills those a trace measures
/// directly: layer call times and the engine's unattributed round time.
pub fn common(trace: &Trace, out: &mut Output) {
    for (name, unit) in names() {
        out.set(&name, 0.0, unit);
    }
    let rounds = trace.ms("engine.run_round");
    out.set("engine.round_ms_p50", quantile(&rounds, 0.5), "ms");
    out.set("engine.round_ms_p90", quantile(&rounds, 0.9), "ms");
    out.set(
        "engine.unattributed_ms",
        quantile(&unattributed(trace), 0.5),
        "ms",
    );
    for (metric, span) in [
        ("engine.new_ms", "engine.new"),
        ("data.stats_only_ms", "data.generate_stats_only"),
        ("device.sample_into_ms", "device.sample_into"),
        ("estimate.costs_ms", "estimate.costs"),
        ("fleet.begin_round_ms", "fleet.begin_round"),
        ("fleet.end_round_ms", "fleet.end_round"),
        ("accuracy.surrogate_ms", "accuracy.surrogate"),
        ("accuracy.real_ms", "accuracy.real"),
        ("nn.train_batch_ms", "nn.train_batch"),
        ("serve.step_ms", "serve.step"),
        ("serve.snapshot_ms", "serve.snapshot"),
        ("serve.write_ms", "serve.write"),
        ("serve.read_ms", "serve.read"),
        ("serve.resume_ms", "serve.resume"),
    ] {
        out.set(metric, trace.mean_ms(span), "ms");
    }
    for policy in PAPER_POLICIES {
        for call in ["select", "observe"] {
            out.set(
                &format!("{call}.ms.{policy}"),
                trace.mean_ms(&format!("{call}.{policy}")),
                "ms",
            );
        }
    }
}

/// Sets `device.sampled`, `device.cohort_frac` and `fleet.eligible_frac`
/// from `records` of a `devices`-device fleet, every device of which is
/// sampled each round: the shares are means over the records.
pub fn round_shares<'a>(
    records: impl IntoIterator<Item = &'a RoundRecord>,
    devices: usize,
    out: &mut Output,
) {
    let n = devices as f64;
    let (mut rounds, mut cohort, mut eligible) = (0.0, 0.0, 0.0);
    for r in records {
        rounds += 1.0;
        cohort += r.participants.len() as f64 / n;
        eligible += (devices - r.ineligible) as f64 / n;
    }
    out.set("device.sampled", n, "count");
    out.set("device.cohort_frac", cohort / rounds, "share");
    out.set("fleet.eligible_frac", eligible / rounds, "share");
}

/// Per `engine.run_round` span: its duration minus its selector spans and
/// minus the layer calls replayed for the same round right after it.
fn unattributed(trace: &Trace) -> Vec<f64> {
    let id = |name: &str| trace.names.iter().position(|n| n == name).map(|i| i as u32);
    let Some(round_id) = id("engine.run_round") else {
        return Vec::new();
    };
    let replay_id = id("replay");
    let replayed: Vec<u32> = REPLAYED.iter().filter_map(|n| id(n)).collect();
    let mut slot = vec![usize::MAX; trace.spans.len()];
    let mut rest: Vec<f64> = Vec::new();
    let mut last_round: Option<(usize, Option<usize>)> = None;
    for (i, s) in trace.spans.iter().enumerate() {
        if s.name == round_id {
            rest.push(s.ms());
            slot[i] = rest.len() - 1;
            last_round = Some((rest.len() - 1, s.round()));
            continue;
        }
        let Some(parent) = trace.spans.get(s.parent as usize) else {
            continue;
        };
        if parent.name == round_id {
            rest[slot[s.parent as usize]] -= s.ms();
        } else if Some(parent.name) == replay_id && replayed.contains(&s.name) {
            if let Some((k, round)) = last_round {
                if round == s.round() {
                    rest[k] -= s.ms();
                }
            }
        }
    }
    rest
}

/// The per-phase table of one lockstep round: mean milliseconds per
/// round of each layer call, and what is left unattributed.
pub fn phase_table(trace: &Trace) -> Vec<String> {
    let round_ms = mean(&trace.ms("engine.run_round"));
    if round_ms == 0.0 {
        return Vec::new();
    }
    let mut rows: Vec<(String, f64)> = [
        ("lifecycle begin", "fleet.begin_round"),
        ("condition sampling", "device.sample_into"),
        ("cost execution", "estimate.costs"),
        ("aggregation", "accuracy.surrogate"),
        ("lifecycle end", "fleet.end_round"),
    ]
    .iter()
    .map(|(label, span)| (label.to_string(), trace.mean_ms(span)))
    .collect();
    for name in trace.names_with_prefix("select.") {
        rows.push((format!("selection ({})", &name[7..]), trace.mean_ms(name)));
    }
    for name in trace.names_with_prefix("observe.") {
        rows.push((format!("feedback ({})", &name[8..]), trace.mean_ms(name)));
    }
    rows.push(("unattributed".to_string(), mean(&unattributed(trace))));
    let mut lines = vec![
        format!("per-phase round profile ({round_ms:.2} ms/round, mean):"),
        format!("  {:<28} {:>10} {:>7}", "phase", "ms/round", "share"),
    ];
    for (label, ms) in rows {
        lines.push(format!(
            "  {label:<28} {ms:>10.3} {:>6.1}%",
            100.0 * ms / round_ms
        ));
    }
    lines
}
