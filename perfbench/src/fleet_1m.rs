//! `fleet_1m`: a million-device fleet running FedAvg-Random rounds.
//!
//! Nearly all of a round's time here goes to devices that do not train
//! (condition sampling, lifecycle, the shuffle, the idle scan), so this
//! workload measures the fleet-sized layers; the cohort layers (cost,
//! aggregation, controller, NN) do almost nothing.
//!
//! A run is: build the simulation (set-up), then a fixed number of
//! lockstep rounds with a target of 1.1 so it never converges. Runs
//! repeat, each on its own seed, until the measurement budget is spent.

use crate::common::{check_record, peak_rss_mb, secs, Digest, Opts, Output};
use crate::layers;
use crate::replay::Replay;
use crate::trace::{self, span, timed_if};
use autofl_device::scenario::VarianceScenario;
use autofl_fed::engine::{RoundRecord, SimConfig, Simulation};
use autofl_fed::fleet::FleetDynamics;
use autofl_fed::selection::RandomSelector;
use autofl_nn::zoo::Workload;
use std::time::Instant;

const SHARDS: usize = 16;
const SAMPLES_PER_DEVICE: usize = 8;

/// Devices and rounds per run.
fn size(opts: &Opts) -> (usize, usize) {
    if opts.smoke {
        (20_000, 6)
    } else {
        (1_000_000, 40)
    }
}

fn config(opts: &Opts, seed: u64) -> SimConfig {
    let (devices, rounds) = size(opts);
    Simulation::builder(Workload::CnnMnist)
        .devices(devices)
        .shards(SHARDS)
        .samples_per_device(SAMPLES_PER_DEVICE)
        .test_samples(64)
        .scenario(VarianceScenario::realistic())
        .fleet_dynamics(FleetDynamics::realistic())
        .max_rounds(rounds)
        .target_accuracy(1.1)
        .seed(seed)
        .build_config()
        .expect("fleet_1m configuration is valid")
}

struct Run {
    setup_s: f64,
    rounds_s: f64,
    /// Wall time of each round, in milliseconds.
    round_ms: Vec<f64>,
    wall_s: f64,
    records: Vec<RoundRecord>,
    store_bytes: usize,
}

/// One run. Traced, every round is followed by a replay of its layer
/// calls; replay time is excluded from the run's times.
fn run_once(cfg: &SimConfig, traced: bool) -> Run {
    let t0 = Instant::now();
    let mut sim = span("engine.new", None, || Simulation::new(cfg.clone()));
    let setup_s = secs(t0);
    let mut replay_s = 0.0;
    let mut replay = traced.then(|| {
        let t = Instant::now();
        let r = Replay::new(cfg, sim.fleet(), sim.data());
        replay_s += secs(t);
        r
    });
    let mut selector = timed_if(traced, Box::new(RandomSelector::new()));
    let mut records = Vec::with_capacity(cfg.max_rounds);
    let t_rounds = Instant::now();
    let mut round_ms = Vec::with_capacity(cfg.max_rounds);
    for round in 0..cfg.max_rounds {
        let t = Instant::now();
        let record = span("engine.run_round", Some(round), || {
            sim.run_round(selector.as_mut(), round)
        });
        round_ms.push(secs(t) * 1e3);
        if let Some(replay) = &mut replay {
            let t = Instant::now();
            replay.round(cfg, sim.fleet(), &sim.data().partition, &record);
            replay_s += secs(t);
        }
        records.push(record);
    }
    let rounds_s = secs(t_rounds) - replay_s;
    let wall_s = secs(t0) - replay_s;
    Run {
        setup_s,
        rounds_s,
        round_ms,
        wall_s,
        records,
        store_bytes: sim.store_bytes(),
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Output {
    let mut out = Output::default();
    let (devices, _) = size(opts);
    let k = config(opts, 0).params.num_participants;
    // Traced: the first run is made untraced first, so the tracing
    // overhead is measured on identical work.
    let untraced_wall = opts.trace.then(|| {
        trace::untraced_baseline(|| run_once(&config(opts, opts.iteration_seed(0)), false).wall_s)
    });
    if opts.trace {
        trace::enable();
    }
    let deadline = opts.deadline();
    let mut runs: Vec<Run> = Vec::new();
    let mut peak_rss = 0.0;
    // At least three runs, so set-up time is a median of three.
    while runs.len() < 3 || Instant::now() < deadline {
        let cfg = config(opts, opts.iteration_seed(runs.len()));
        let run = run_once(&cfg, opts.trace);
        for record in &run.records {
            out.checks.op(check_record(record, k, devices));
        }
        if runs.is_empty() {
            // The peak of one run: later runs reuse freed memory in
            // allocator-dependent ways that say nothing about the program.
            peak_rss = peak_rss_mb();
        }
        runs.push(run);
    }
    let first = &runs[0];
    let mut digest = Digest::default();
    first.records.iter().for_each(|r| digest.record(r));
    out.digest = format!("{:016x}", digest.0);
    if let Some(base) = untraced_wall {
        let t = trace::finish(opts, "fleet_1m");
        layers::common(&t, &mut out);
        let n = runs.len() as f64;
        layers::round_shares(runs.iter().flat_map(|r| &r.records), devices, &mut out);
        out.set(
            "fleet.store_mb",
            runs.iter().map(|r| r.store_bytes as f64).sum::<f64>() / n / 1e6,
            "MB",
        );
        out.set("sim.digest", digest.as_metric(), "hash");
        out.set("trace.overhead_frac", first.wall_s / base - 1.0, "share");
        out.notes.extend(layers::phase_table(&t));
    } else {
        // Medians over runs: CPU speed drifts within a run. The
        // operation of this workload is a round, so the latency
        // percentiles are per round (the p90 has far more than ten rounds
        // beyond it); a run is set-up plus 40 rounds.
        let rates: Vec<f64> = runs
            .iter()
            .map(|r| r.records.len() as f64 / r.rounds_s)
            .collect();
        let rounds: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.round_ms.iter().copied())
            .collect();
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
        out.set("rounds_per_s", trace::quantile(&rates, 0.5), "rounds/s");
        out.set("runs_per_s", 1.0 / trace::quantile(&walls, 0.5), "runs/s");
        out.set("run_ms_p50", trace::quantile(&rounds, 0.5), "ms");
        out.set("run_ms_p90", trace::quantile(&rounds, 0.9), "ms");
        out.set("queue_s", trace::quantile(&walls, 0.5), "s");
        out.set("setup_s", trace::quantile(&setups, 0.5), "s");
        out.set("peak_rss_mb", peak_rss, "MB");
    }
    out
}
