//! `paper_sweep`: the paper's own experiment (Fig. 8), run repeatedly.
//!
//! One iteration runs the six paper policies on CNN-MNIST,
//! LSTM-Shakespeare and MobileNet-ImageNet — 18 runs on the paper's
//! 200-device fleet with Non-IID(50%) data and realistic runtime
//! variance, each to its workload's default target within 800 rounds.
//! Many short runs: the AutoFL controller, oracle scoring, per-run set-up
//! (LSTM data synthesis) and the round loop's fixed cost per round dominate;
//! the per-device fleet layers are negligible at 200 devices.

use crate::common::{check_record, peak_rss_mb, secs, Digest, Opts, Output};
use crate::layers;
use crate::replay::Replay;
use crate::trace::{self, quantile, span, timed_if};
use autofl_core::controller::AutoFl;
use autofl_core::policy::{standard_registry, PAPER_POLICIES};
use autofl_data::partition::{DataDistribution, Partition};
use autofl_device::fleet::Fleet;
use autofl_device::scenario::VarianceScenario;
use autofl_fed::engine::{RoundRecord, SimConfig, SimResult, Simulation};
use autofl_fed::observe::RoundObserver;
use autofl_fed::policy::PolicyRegistry;
use autofl_fed::selection::Selector;
use autofl_nn::zoo::Workload;
use std::time::Instant;

const MAX_ROUNDS: usize = 800;

fn base_config(opts: &Opts, workload: Workload, seed: u64) -> SimConfig {
    let mut builder = Simulation::builder(workload)
        .scenario(VarianceScenario::realistic())
        .distribution(DataDistribution::non_iid_percent(50))
        .max_rounds(MAX_ROUNDS)
        .seed(seed);
    if opts.smoke {
        builder = builder.devices(60).samples_per_device(60).test_samples(128);
    }
    builder
        .build_config()
        .expect("paper_sweep configuration is valid")
}

/// One policy run, as `run_policy` does it: the policy's tuning hook,
/// `Simulation::new`, then the engine's own round loop
/// (`Simulation::run_labeled`) until the target or the horizon.
struct Run {
    result: SimResult,
    /// Rounds run; kept when the records are dropped.
    rounds: usize,
    converged: bool,
    workload: Workload,
    seed: u64,
    k: usize,
    devices: usize,
    new_s: f64,
    wall_s: f64,
    qtable_bytes: usize,
}

/// The traced run's observer: an `engine.run_round` span around each
/// round and, after it, a replay of the round's layer calls on copies of
/// the run's fleet and partition.
struct Tracing {
    cfg: SimConfig,
    fleet: Fleet,
    partition: Partition,
    replay: Replay,
    round: Option<u32>,
    /// Time spent replaying, excluded from the run's wall time.
    replay_s: f64,
}

impl Tracing {
    fn new(cfg: &SimConfig, sim: &Simulation) -> Self {
        let t = Instant::now();
        let replay = Replay::new(cfg, sim.fleet(), sim.data());
        Tracing {
            cfg: cfg.clone(),
            fleet: sim.fleet().clone(),
            partition: sim.data().partition.clone(),
            replay,
            round: None,
            replay_s: secs(t),
        }
    }
}

impl RoundObserver for Tracing {
    fn on_round_start(&mut self, round: usize) -> std::io::Result<()> {
        self.round = trace::open("engine.run_round", Some(round));
        Ok(())
    }

    fn on_round_end(&mut self, record: &RoundRecord) -> std::io::Result<()> {
        trace::close(self.round.take());
        let t = Instant::now();
        self.replay
            .round(&self.cfg, &self.fleet, &self.partition, record);
        self.replay_s += secs(t);
        Ok(())
    }
}

/// Q-table bytes of an AutoFL agent that has run, read through its
/// checkpoint state.
fn qtable_bytes(selector: &dyn Selector) -> usize {
    let mut agent = AutoFl::paper_default();
    selector
        .state_snapshot()
        .filter(|state| agent.state_restore(state).is_ok())
        .map_or(0, |_| agent.memory_bytes())
}

fn run_once(cfg: &SimConfig, registry: &PolicyRegistry, name: &str, traced: bool) -> Run {
    let policy = registry.expect(name);
    let t0 = Instant::now();
    let mut cfg = cfg.clone();
    if let Some(params) = policy.tune(&cfg) {
        cfg.params = params;
    }
    let t_new = Instant::now();
    let mut sim = span("engine.new", None, || Simulation::new(cfg.clone()));
    let new_s = secs(t_new);
    let mut tracing = traced.then(|| Tracing::new(&cfg, &sim));
    let mut observers: Vec<&mut dyn RoundObserver> = tracing
        .iter_mut()
        .map(|t| t as &mut dyn RoundObserver)
        .collect();
    let mut selector = timed_if(traced, policy.make_selector());
    let result = sim
        .run_labeled(selector.as_mut(), name.to_string(), &mut observers)
        .expect("the tracing observer does not fail");
    let wall_s = secs(t0) - tracing.as_ref().map_or(0.0, |t| t.replay_s);
    Run {
        rounds: result.records.len(),
        converged: result.converged(),
        result,
        workload: cfg.workload,
        seed: cfg.seed,
        k: cfg.params.num_participants,
        devices: cfg.num_devices,
        new_s,
        wall_s,
        qtable_bytes: if traced && name == "AutoFL" {
            qtable_bytes(selector.as_ref())
        } else {
            0
        },
    }
}

struct Iteration {
    runs: Vec<Run>,
    wall_s: f64,
}

fn iteration(opts: &Opts, registry: &PolicyRegistry, i: usize, traced: bool) -> Iteration {
    let seed = opts.iteration_seed(i);
    let t0 = Instant::now();
    let mut runs = Vec::new();
    for workload in Workload::paper_workloads() {
        let cfg = base_config(opts, workload, seed);
        for name in PAPER_POLICIES {
            runs.push(run_once(&cfg, registry, name, traced));
        }
    }
    let replay_free: f64 = runs.iter().map(|r| r.wall_s).sum();
    Iteration {
        // The iteration's own bookkeeping is negligible next to its runs;
        // traced, replays are excluded through the runs' walls.
        wall_s: if traced { replay_free } else { secs(t0) },
        runs,
    }
}

/// The engine's stopping rule: a run stops at the first round that
/// reaches its target, or at the horizon. A run that needs more than the horizon is the modelled policy's
/// outcome, not a failure (Performance on LSTM-Shakespeare does, now and
/// then); it is counted in `sim.missed_target` and not in `runs_per_s`.
fn stops_correctly(run: &Run) -> Result<(), String> {
    let records = &run.result.records;
    let target = run.result.target_accuracy;
    let first_hit = records.iter().position(|r| r.accuracy >= target);
    let expected = first_hit.map_or(MAX_ROUNDS, |i| i + 1);
    if records.len() == expected {
        Ok(())
    } else {
        Err(format!(
            "{} on {} (seed {}) stopped after {} rounds, expected {expected}",
            run.result.policy,
            run.workload.name(),
            run.seed,
            records.len()
        ))
    }
}

/// Geometric mean.
fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Output {
    let registry = standard_registry();
    let mut out = Output::default();
    // Traced: the first iteration is made untraced first, the baseline of
    // `trace.overhead_frac`.
    let untraced_wall = opts
        .trace
        .then(|| trace::untraced_baseline(|| iteration(opts, &registry, 0, false).wall_s));
    if opts.trace {
        trace::enable();
    }
    let deadline = opts.deadline();
    let mut iterations: Vec<Iteration> = Vec::new();
    // Whole iterations only, so every workload keeps its share of runs.
    while iterations.len() < 2 || Instant::now() < deadline {
        let it = iteration(opts, &registry, iterations.len(), opts.trace);
        for run in &it.runs {
            let outcome = run
                .result
                .records
                .iter()
                .try_for_each(|r| check_record(r, run.k, run.devices))
                .and_then(|()| stops_correctly(run));
            out.checks.op(outcome);
        }
        let mut it = it;
        if !iterations.is_empty() {
            // Only the first iteration's records are used after the
            // checks; dropping the rest keeps the benchmark's own memory
            // out of `peak_rss_mb`.
            for run in &mut it.runs {
                run.result.records = Vec::new();
            }
        }
        iterations.push(it);
    }

    let first = &iterations[0];
    let mut digest = Digest::default();
    for run in &first.runs {
        run.result.records.iter().for_each(|r| digest.record(r));
    }
    out.digest = format!("{:016x}", digest.0);
    if let Some(base) = untraced_wall {
        let t = trace::finish(opts, "paper_sweep");
        layers::common(&t, &mut out);
        let qtable = first.runs.iter().map(|r| r.qtable_bytes).max().unwrap_or(0);
        out.set("core.qtable_kib", qtable as f64 / 1024.0, "KiB");
        layers::round_shares(
            first.runs.iter().flat_map(|r| &r.result.records),
            first.runs[0].devices,
            &mut out,
        );
        let rounds: Vec<f64> = first.runs.iter().map(|r| r.rounds as f64).collect();
        out.set("sim.rounds_to_target_p50", quantile(&rounds, 0.5), "rounds");
        let missed = first.runs.iter().filter(|r| !r.converged).count();
        out.set("sim.missed_target", missed as f64, "runs");
        let (mut ppw, mut conv) = (Vec::new(), Vec::new());
        for per_workload in first.runs.chunks(PAPER_POLICIES.len()) {
            let of = |name: &str| {
                &per_workload
                    .iter()
                    .find(|r| r.result.policy == name)
                    .expect("policy ran")
                    .result
            };
            let (random, autofl) = (of("FedAvg-Random"), of("AutoFL"));
            ppw.push(autofl.ppw_global() / random.ppw_global());
            conv.push(random.time_to_target_s() / autofl.time_to_target_s());
        }
        out.set("sim.autofl_ppw_x", geomean(&ppw), "x");
        out.set("sim.autofl_conv_x", geomean(&conv), "x");
        out.set("sim.digest", digest.as_metric(), "hash");
        out.set("trace.overhead_frac", first.wall_s / base - 1.0, "share");
        out.notes.push(format!(
            "sim: AutoFL vs FedAvg-Random over {} workloads: {:.2}x PPW (paper 5.2x), {:.2}x convergence (paper 3.6x)",
            ppw.len(),
            geomean(&ppw),
            geomean(&conv)
        ));
    } else {
        // Per-iteration rates, reported as medians: CPU speed drifts
        // within a run.
        let runs: Vec<&Run> = iterations.iter().flat_map(|it| &it.runs).collect();
        let total_s: f64 = iterations.iter().map(|it| it.wall_s).sum();
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        let rounds: usize = runs.iter().map(|r| r.rounds).sum();
        let reached = runs.iter().filter(|r| r.converged).count();
        let per_iteration = |f: &dyn Fn(&Run) -> f64| -> Vec<f64> {
            iterations
                .iter()
                .map(|it| it.runs.iter().map(f).sum::<f64>() / it.wall_s)
                .collect()
        };
        let setups: Vec<f64> = iterations
            .iter()
            .map(|it| it.runs.iter().map(|r| r.new_s).sum())
            .collect();
        let queues: Vec<f64> = iterations.iter().map(|it| it.wall_s).collect();
        out.set(
            "rounds_per_s",
            quantile(&per_iteration(&|r| r.rounds as f64), 0.5),
            "rounds/s",
        );
        out.set(
            "runs_per_s",
            quantile(&per_iteration(&|r| f64::from(u8::from(r.converged))), 0.5),
            "runs/s",
        );
        out.set("run_ms_p50", quantile(&walls, 0.5) * 1e3, "ms");
        out.set("run_ms_p90", quantile(&walls, 0.9) * 1e3, "ms");
        out.set("queue_s", quantile(&queues, 0.5), "s");
        out.set("setup_s", quantile(&setups, 0.5), "s");
        out.set("peak_rss_mb", peak_rss_mb(), "MB");
        out.notes.push(format!(
            "paper_sweep: {} iterations, {} runs ({} missed their target within {MAX_ROUNDS} rounds), {rounds} rounds in {total_s:.2} s",
            iterations.len(),
            runs.len(),
            runs.len() - reached
        ));
    }
    out
}
