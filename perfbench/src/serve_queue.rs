//! `serve_queue`: the `spec_serve` daemon drains a queue of two jobs.
//!
//! * Job `a-fleet`: 100k devices with realistic dynamics, FedAvg-Random
//!   under buffered asynchronous aggregation, a fixed round count, a
//!   checkpoint every few records. The daemon is killed midway through
//!   it with the crash hook and started again, and resumes.
//! * Job `b-real`: real training of the CNN-MNIST model on 200 devices
//!   (16 samples each) under FedAvg-Random and AutoFL, each to target.
//!
//! The only workload that exercises checkpoint writes and reads, the
//! event-driven runtime and the NN kernels. The daemon runs as a child
//! process (`perfbench serve-daemon`, the same `serve` loop, registry and
//! options as the `spec_serve` binary), so a kill is a real process exit.
//!
//! The traced run drives the same two jobs in-process through
//! `ExperimentRun` — step, snapshot, checkpoint write and read, resume —
//! so each of those calls gets its own span.

use crate::common::{check_record, peak_rss_mb, secs, Digest, Opts, Output};
use crate::layers;
use crate::replay::Replay;
use crate::trace::{self, quantile, span, timed_if};
use autofl_core::policy::standard_registry;
use autofl_device::scenario::VarianceScenario;
use autofl_fed::engine::{Fidelity, RoundRecord, SimConfig, SimResult, Simulation};
use autofl_fed::fleet::FleetDynamics;
use autofl_fed::global::GlobalParams;
use autofl_fed::policy::{Policy, PolicyRegistry};
use autofl_fed::runtime::AsyncRuntime;
use autofl_fed::selection::Selector;
use autofl_fed::serve::{
    read_checkpoint, serve, write_checkpoint, ExperimentRun, ServeOptions, UnitSummary,
};
use autofl_fed::spec::ExperimentSpec;
use autofl_nn::optim::Sgd;
use autofl_nn::tensor::Tensor;
use autofl_nn::zoo::Workload;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Records between checkpoints.
const CHECKPOINT_EVERY: usize = 5;
/// Client SGD learning rate of the real-training job.
const LR: f32 = 0.08;

/// The two queued jobs of iteration `i`, in the order the daemon drains
/// them.
fn jobs(opts: &Opts, i: usize) -> [ExperimentSpec; 2] {
    let seed = opts.iteration_seed(i);
    let (fleet_devices, fleet_rounds, real_devices) = if opts.smoke {
        (5_000, 12, 40)
    } else {
        (100_000, 40, 200)
    };
    let fleet = Simulation::builder(Workload::CnnMnist)
        .devices(fleet_devices)
        .shards(16)
        .samples_per_device(8)
        .test_samples(64)
        .scenario(VarianceScenario::realistic())
        .fleet_dynamics(FleetDynamics::realistic())
        .runtime(AsyncRuntime::buffered(10, 0.5))
        .max_rounds(fleet_rounds)
        .target_accuracy(1.1)
        .seed(seed)
        .build_config()
        .expect("job a configuration is valid");
    let real = Simulation::builder(Workload::CnnMnist)
        .devices(real_devices)
        .samples_per_device(16)
        .test_samples(128)
        .scenario(VarianceScenario::realistic())
        .fidelity(Fidelity::RealTraining {
            lr: LR,
            eval_samples: 128,
        })
        .default_target()
        .max_rounds(60)
        .seed(seed ^ 0xb)
        .build_config()
        .expect("job b configuration is valid");
    [
        ExperimentSpec {
            name: "a-fleet".to_string(),
            config: fleet,
            policies: vec!["FedAvg-Random".to_string()],
            repeats: 1,
            control: None,
        },
        ExperimentSpec {
            name: "b-real".to_string(),
            config: real,
            policies: vec!["FedAvg-Random".to_string(), "AutoFL".to_string()],
            repeats: 1,
            control: None,
        },
    ]
}

/// The record after which the daemon is killed: midway through job a.
fn kill_after(jobs: &[ExperimentSpec; 2]) -> usize {
    jobs[0].config.max_rounds / 2 + 2
}

/// The daemon child: drains the queue under `root` once and exits.
pub fn daemon(root: &str, crash_after: Option<usize>) -> ExitCode {
    let mut opts = ServeOptions::new(root);
    opts.once = true;
    opts.checkpoint_every = CHECKPOINT_EVERY;
    opts.crash_after_records = crash_after;
    match serve(&standard_registry(), &opts) {
        Ok(_) => {
            // The parent reports the largest process of the workload.
            println!("peak_rss_mb={}", peak_rss_mb());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve-daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Starts one daemon child and waits for it; `Ok(Some(peak RSS in MB))`
/// if it exited cleanly, `Ok(None)` if it was killed.
fn daemon_child(root: &Path, crash_after: Option<usize>) -> Result<Option<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("serve-daemon").arg("--root").arg(root);
    if let Some(n) = crash_after {
        cmd.arg("--crash-after").arg(n.to_string());
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the daemon: {e}"))?;
    if !output.status.success() {
        return Ok(None);
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let rss = stdout
        .lines()
        .find_map(|l| l.strip_prefix("peak_rss_mb=")?.parse().ok())
        .unwrap_or(0.0);
    Ok(Some(rss))
}

/// Queues both jobs under a fresh `root` and drains them; with
/// `kill_at`, the first daemon is killed after that many records and a
/// second one resumes. Returns the wall time from the first daemon's
/// start to the last one's exit, and the last daemon's peak RSS in MB.
fn drain(
    root: &Path,
    jobs: &[ExperimentSpec; 2],
    kill_at: Option<usize>,
) -> Result<(f64, f64), String> {
    let _ = std::fs::remove_dir_all(root);
    let queue = root.join("queue");
    std::fs::create_dir_all(&queue).map_err(|e| format!("creating {}: {e}", queue.display()))?;
    for job in jobs {
        let path = queue.join(format!("{}.json", job.name));
        std::fs::write(&path, job.to_json())
            .map_err(|e| format!("queueing {}: {e}", path.display()))?;
    }
    let t0 = Instant::now();
    if let Some(n) = kill_at {
        if daemon_child(root, Some(n))?.is_some() {
            return Err(format!("the daemon was not killed after {n} records"));
        }
    }
    let rss = daemon_child(root, None)?.ok_or("the daemon failed to drain the queue")?;
    Ok((secs(t0), rss))
}

/// Job a run straight through in-process, as the daemon's summary and
/// trace would show it without the kill.
struct Uninterrupted {
    trace: String,
    summary: UnitSummary,
}

fn uninterrupted(job: &ExperimentSpec, registry: &PolicyRegistry) -> Uninterrupted {
    let policy = registry.expect(&job.policies[0]);
    let mut run =
        ExperimentRun::new(&job.config, policy, job.control).expect("queued specs are valid");
    while run.step().expect("no observer to fail").is_some() {}
    let trace: String = run
        .records()
        .iter()
        .map(|r| serde_json::to_string(r).expect("round records serialize") + "\n")
        .collect();
    let final_k = run.params().num_participants;
    let result = run.into_result();
    Uninterrupted {
        trace,
        summary: UnitSummary {
            policy: result.policy.clone(),
            repeat: 0,
            seed: job.config.seed,
            rounds: result.records.len(),
            converged: result.converged(),
            final_accuracy: result.final_accuracy(),
            total_energy_j: result.records.iter().map(|r| r.total_energy_j()).sum(),
            final_k,
        },
    }
}

/// Checks one job of a drained queue: it ended in `done/`, nothing is
/// left in `queue/` or `active/`, every unit's trace holds as many records
/// as its summary entry counts and every record passes the record checks,
/// every unit of a job with a reachable target converged and — for the
/// killed job — its trace and summary equal those of an uninterrupted
/// run. Returns the job's records in trace order.
fn check_job(
    root: &Path,
    job: &ExperimentSpec,
    reference: Option<&Uninterrupted>,
) -> Result<Vec<RoundRecord>, String> {
    for leftover in ["queue", "active"] {
        let dir = root.join(leftover);
        if std::fs::read_dir(&dir).map_or(0, |d| d.count()) != 0 {
            return Err(format!("{}: `{leftover}/` is not empty", job.name));
        }
    }
    let done = root.join("done").join(&job.name);
    let summary = std::fs::read_to_string(done.join("summary.json"))
        .map_err(|e| format!("{}: no summary.json: {e}", job.name))?;
    let units: Vec<UnitSummary> =
        serde_json::from_str(&summary).map_err(|e| format!("{}: summary.json: {e}", job.name))?;
    if units.len() != job.policies.len() {
        return Err(format!(
            "{}: {} units in summary.json",
            job.name,
            units.len()
        ));
    }
    if let Some(reference) = reference {
        let trace = done
            .join("traces")
            .join(format!("{}-r0.jsonl", reference.summary.policy));
        let text = std::fs::read_to_string(&trace)
            .map_err(|e| format!("{}: {}: {e}", job.name, trace.display()))?;
        if units[0] != reference.summary || text != reference.trace {
            return Err(format!(
                "{}: resumed output differs from an uninterrupted run",
                job.name
            ));
        }
    }
    let converge = job.config.target() <= 1.0;
    let mut records = Vec::new();
    for unit in &units {
        if converge && !unit.converged {
            return Err(format!(
                "{}: {} did not reach its target",
                job.name, unit.policy
            ));
        }
        let trace = done
            .join("traces")
            .join(format!("{}-r{}.jsonl", unit.policy, unit.repeat));
        let text = std::fs::read_to_string(&trace)
            .map_err(|e| format!("{}: {}: {e}", job.name, trace.display()))?;
        let lines = text.lines().count();
        if lines == 0 || lines != unit.rounds {
            return Err(format!(
                "{}: {} trace has {lines} records, summary.json says {}",
                job.name, unit.policy, unit.rounds
            ));
        }
        for line in text.lines() {
            let record: RoundRecord = serde_json::from_str(line)
                .map_err(|e| format!("{}: bad trace line: {e}", job.name))?;
            check_record(
                &record,
                job.config.params.num_participants,
                job.config.num_devices,
            )?;
            records.push(record);
        }
    }
    Ok(records)
}

/// A registry policy whose selectors record `select.*`/`observe.*` spans.
struct TimedPolicy<'a>(&'a dyn Policy);

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn make_selector(&self) -> Box<dyn Selector> {
        timed_if(true, self.0.make_selector())
    }

    fn tune(&self, config: &SimConfig) -> Option<GlobalParams> {
        self.0.tune(config)
    }
}

/// What the in-process pass over both jobs produced.
struct Pass {
    wall_s: f64,
    store_bytes: usize,
    results: Vec<SimResult>,
    ckpt_bytes: u64,
    train_gflops: f64,
}

/// Drives both jobs in-process through `ExperimentRun`, checkpointing and
/// resuming job a like the daemon does; traced, every call is a span and
/// each record is followed by a replay of its round's layer calls (and,
/// on job b, one `Model::train_batch` of the job's batch).
fn pass(opts: &Opts, jobs: &[ExperimentSpec; 2], registry: &PolicyRegistry, traced: bool) -> Pass {
    let ckpt = opts.out_dir.join("serve-pass.ckpt.json");
    let kill_at = kill_after(jobs);
    let mut side_s = 0.0;
    let mut results = Vec::new();
    let mut ckpt_bytes = 0u64;
    let mut store_bytes = 0usize;
    let mut flops_s = (0.0f64, 0.0f64);
    let t0 = Instant::now();
    for job in jobs {
        let cfg = &job.config;
        let mut twin = traced.then(|| {
            let t = Instant::now();
            let sim = Simulation::new(cfg.clone());
            let replay = Replay::new(cfg, sim.fleet(), sim.data());
            side_s += secs(t);
            (sim, replay)
        });
        let mut probe =
            (traced && matches!(cfg.fidelity, Fidelity::RealTraining { .. })).then(|| {
                let model = cfg.workload.build_trainable(cfg.seed);
                let b = cfg.params.batch_size;
                let shape: Vec<usize> = std::iter::once(b)
                    .chain(cfg.workload.input_shape())
                    .collect();
                let n: usize = shape.iter().product();
                let x = Tensor::from_vec(
                    shape,
                    (0..n).map(|i| ((i * 7919) % 255) as f32 / 255.0).collect(),
                );
                let labels: Vec<usize> = (0..b).map(|i| i % cfg.workload.num_classes()).collect();
                (model, x, labels, Sgd::new(LR))
            });
        // `serve.step` times the buffered runtime of job a; job b's steps
        // are real-training rounds and get their own span.
        let fleet_job = job.name == jobs[0].name;
        let step_span = if fleet_job {
            "serve.step"
        } else {
            "serve.step.real"
        };
        for name in &job.policies {
            let inner = registry.expect(name);
            let timed = TimedPolicy(inner);
            let policy: &dyn Policy = if traced { &timed } else { inner };
            let mut run = span("serve.new", None, || ExperimentRun::new(cfg, policy, None))
                .expect("queued specs are valid");
            let mut emitted = 0usize;
            let mut resumed = false;
            loop {
                let record =
                    span(step_span, Some(emitted), || run.step()).expect("no observer to fail");
                let Some(record) = record else {
                    break;
                };
                emitted += 1;
                if let Some((sim, replay)) = &mut twin {
                    let t = Instant::now();
                    replay.round(cfg, sim.fleet(), &sim.data().partition, &record);
                    if let Some((model, x, labels, sgd)) = &mut probe {
                        let tb = Instant::now();
                        span("nn.train_batch", Some(record.round), || {
                            model.train_batch(x, labels, sgd)
                        });
                        flops_s.0 +=
                            (model.training_flops_per_sample() * x.shape()[0] as u64) as f64;
                        flops_s.1 += secs(tb);
                    }
                    side_s += secs(t);
                }
                // The checkpoint spans and the kill are job a's: its 100k
                // device state is what makes them cost.
                if !fleet_job {
                    continue;
                }
                if emitted.is_multiple_of(CHECKPOINT_EVERY) {
                    let payload = span("serve.snapshot", Some(emitted), || run.state_snapshot());
                    span("serve.write", Some(emitted), || {
                        write_checkpoint(&ckpt, payload)
                    })
                    .expect("checkpoint is writable");
                    ckpt_bytes = ckpt_bytes.max(std::fs::metadata(&ckpt).map_or(0, |m| m.len()));
                }
                if emitted == kill_at && !resumed {
                    let payload = span("serve.read", Some(emitted), || read_checkpoint(&ckpt))
                        .expect("checkpoint reads back");
                    run = span("serve.resume", Some(emitted), || {
                        ExperimentRun::resume(cfg, policy, None, &payload)
                    })
                    .expect("checkpoint resumes");
                    emitted = run.records().len();
                    resumed = true;
                }
            }
            results.push(run.into_result());
        }
        if let Some((_, replay)) = &twin {
            store_bytes = store_bytes.max(replay.store_bytes());
        }
    }
    let _ = std::fs::remove_file(&ckpt);
    Pass {
        wall_s: secs(t0) - side_s,
        store_bytes,
        results,
        ckpt_bytes,
        train_gflops: if flops_s.1 > 0.0 {
            flops_s.0 / flops_s.1 / 1e9
        } else {
            0.0
        },
    }
}

/// `sim.*` values of job b: median rounds to target and AutoFL's gains
/// over FedAvg-Random.
fn sim_metrics(results: &[SimResult], out: &mut Output) {
    let real: Vec<&SimResult> = results.iter().skip(1).collect();
    let rounds: Vec<f64> = real.iter().map(|r| r.records.len() as f64).collect();
    out.set("sim.rounds_to_target_p50", quantile(&rounds, 0.5), "rounds");
    let missed = real.iter().filter(|r| !r.converged()).count();
    out.set("sim.missed_target", missed as f64, "runs");
    let of = |name: &str| real.iter().find(|r| r.policy == name).expect("policy ran");
    let (random, autofl) = (of("FedAvg-Random"), of("AutoFL"));
    out.set(
        "sim.autofl_ppw_x",
        autofl.ppw_global() / random.ppw_global(),
        "x",
    );
    out.set(
        "sim.autofl_conv_x",
        random.time_to_target_s() / autofl.time_to_target_s(),
        "x",
    );
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Output {
    let registry = standard_registry();
    let jobs = jobs(opts, 0);
    let mut out = Output::default();
    let mut digest = Digest::default();

    if opts.trace {
        let base = trace::untraced_baseline(|| pass(opts, &jobs, &registry, false).wall_s);
        trace::enable();
        let deadline = opts.deadline();
        let mut passes = vec![pass(opts, &jobs, &registry, true)];
        while Instant::now() < deadline {
            passes.push(pass(opts, &jobs, &registry, true));
        }
        let t = trace::finish(opts, "serve_queue");
        layers::common(&t, &mut out);
        for traced in &passes {
            for (job, result) in [&jobs[0], &jobs[1], &jobs[1]].iter().zip(&traced.results) {
                out.checks.op(result.records.iter().try_for_each(|r| {
                    check_record(
                        r,
                        job.config.params.num_participants,
                        job.config.num_devices,
                    )
                }));
            }
        }
        let first = &passes[0];
        first
            .results
            .iter()
            .flat_map(|r| &r.records)
            .for_each(|r| digest.record(r));
        layers::round_shares(
            &first.results[0].records,
            jobs[0].config.num_devices,
            &mut out,
        );
        out.set("fleet.store_mb", first.store_bytes as f64 / 1e6, "MB");
        out.set("serve.ckpt_mb", first.ckpt_bytes as f64 / 1e6, "MB");
        out.set("nn.train_gflops", first.train_gflops, "GFLOP/s");
        sim_metrics(&first.results, &mut out);
        out.set("sim.digest", digest.as_metric(), "hash");
        let traced_wall = passes
            .iter()
            .map(|p| p.wall_s)
            .fold(f64::INFINITY, f64::min);
        out.set("trace.overhead_frac", traced_wall / base - 1.0, "share");
        out.digest = format!("{:016x}", digest.0);
        return out;
    }

    // Each drain queues iteration i's jobs; the killed job is checked
    // against an uninterrupted in-process run of it, made untimed.
    let kill_at = kill_after(&jobs);
    let deadline = opts.deadline();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut setups = Vec::new();
    let mut rounds = 0usize;
    let mut daemon_rss = 0.0f64;
    let root = opts.out_dir.join("serve-queue");
    while walls.len() < 3 || Instant::now() < deadline {
        let jobs = self::jobs(opts, walls.len());
        match drain(&root, &jobs, Some(kill_at)) {
            Ok((wall, rss)) => {
                daemon_rss = daemon_rss.max(rss);
                // Set-up: building job a's simulation, which every daemon
                // start and every resume of it pays; one sample per drain
                // spreads the samples over the whole run.
                let t = Instant::now();
                drop(Simulation::new(jobs[0].config.clone()));
                setups.push(secs(t));
                let reference = uninterrupted(&jobs[0], &registry);
                let mut drained = 0usize;
                for (job, reference) in jobs.iter().zip([Some(&reference), None]) {
                    match check_job(&root, job, reference) {
                        Ok(records) => {
                            drained += records.len();
                            if walls.is_empty() {
                                records.iter().for_each(|r| digest.record(r));
                            }
                            out.checks.op(Ok(()));
                        }
                        Err(e) => out.checks.op(Err(e)),
                    }
                }
                rounds += drained;
                rates.push(drained as f64 / wall);
                walls.push(wall);
            }
            Err(e) => {
                out.checks.op(Err(e));
                break;
            }
        }
    }
    out.digest = format!("{:016x}", digest.0);
    let _ = std::fs::remove_dir_all(&root);
    out.set("rounds_per_s", quantile(&rates, 0.5), "rounds/s");
    out.set("runs_per_s", 1.0 / quantile(&walls, 0.5), "runs/s");
    out.set("run_ms_p50", quantile(&walls, 0.5) * 1e3, "ms");
    out.set("run_ms_p90", quantile(&walls, 0.9) * 1e3, "ms");
    out.set("queue_s", quantile(&walls, 0.5), "s");
    out.set("setup_s", quantile(&setups, 0.5), "s");
    out.set("peak_rss_mb", peak_rss_mb().max(daemon_rss), "MB");
    out.notes.push(format!(
        "serve_queue: {} drains, {rounds} records in all, each drain killed after record {kill_at} and resumed",
        walls.len()
    ));
    out
}
