//! Kill-and-resume bit-identity of the checkpoint/resume service.
//!
//! The contract under test (`docs/serving.md`): interrupting a run at any
//! round, serializing its state through the checkpoint envelope, and
//! resuming in a fresh process state must reproduce the *exact* JSONL
//! trace of a run that was never interrupted — same bytes, under every
//! combination of worker threads, shard counts, fleet dynamics, the
//! buffered async runtime and the network fabric.

use autofl_core::policy::standard_registry;
use autofl_device::scenario::VarianceScenario;
use autofl_fed::adversary::AdversaryConfig;
use autofl_fed::algorithms::AggregationAlgorithm;
use autofl_fed::engine::{Fidelity, RoundRecord, SimConfig};
use autofl_fed::fabric::{CodecSpec, LinkModel, NetworkFabric, PartitionRule, PartitionSchedule};
use autofl_fed::fleet::{FleetDynamics, StragglerPolicy};
use autofl_fed::policy::{Policy, RandomPolicy};
use autofl_fed::runtime::AsyncRuntime;
use autofl_fed::serve::{
    payload_digest, read_checkpoint, write_checkpoint, ConvergeTarget, ExperimentRun,
};
use autofl_fed::spec::ExperimentSpec;

/// Runs `f` with `AUTOFL_THREADS` pinned to `threads`, restoring the
/// previous value afterwards (same idiom as tests/determinism.rs: thread
/// count must never affect results, only scheduling).
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var("AUTOFL_THREADS").ok();
    std::env::set_var("AUTOFL_THREADS", threads.to_string());
    rayon::refresh_thread_count();
    let result = f();
    match prev {
        Some(v) => std::env::set_var("AUTOFL_THREADS", v),
        None => std::env::remove_var("AUTOFL_THREADS"),
    }
    rayon::refresh_thread_count();
    result
}

/// The trace as `spec_serve` streams it: one JSON line per record, in
/// emission order. Byte equality here is byte equality of trace files.
fn trace(records: &[RoundRecord]) -> String {
    records
        .iter()
        .map(|r| format!("{}\n", serde_json::to_string(r).expect("record serializes")))
        .collect()
}

/// A small config with everything turned on: fleet dynamics, the network
/// fabric, `shards` fleet shards, fixed horizon.
fn full_config(seed: u64, shards: usize) -> SimConfig {
    let mut config = SimConfig::tiny_test(seed);
    config.shards = shards;
    config.fleet = Some(FleetDynamics::realistic());
    config.network = Some(NetworkFabric::new(LinkModel::calm()));
    config.max_rounds = 10;
    config.target_accuracy = Some(1.1);
    config
}

/// Reference trace of an uninterrupted run, and the resumed trace of the
/// same run killed after `stop_after` records — the checkpoint travels
/// through the on-disk envelope (digest and all), not just memory.
fn interrupted_vs_straight(
    config: &SimConfig,
    policy: &dyn Policy,
    control: Option<ConvergeTarget>,
    stop_after: usize,
) -> (String, String) {
    let mut straight = ExperimentRun::new(config, policy, control).expect("config validates");
    while straight.step().expect("no observers").is_some() {}
    let reference = trace(straight.records());

    let mut first = ExperimentRun::new(config, policy, control).expect("config validates");
    for _ in 0..stop_after {
        first
            .step()
            .expect("no observers")
            .expect("interrupt point is before the end of the run");
    }
    let dir = std::env::temp_dir().join(format!(
        "autofl-ckpt-test-{}-{}",
        std::process::id(),
        config.seed
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unit.ckpt.json");
    write_checkpoint(&path, first.state_snapshot()).expect("checkpoint writes");
    drop(first); // the "killed" process

    let payload = read_checkpoint(&path).expect("checkpoint validates");
    let mut resumed =
        ExperimentRun::resume(config, policy, control, &payload).expect("checkpoint restores");
    while resumed.step().expect("no observers").is_some() {}
    let resumed = trace(resumed.records());
    std::fs::remove_dir_all(&dir).unwrap();
    (reference, resumed)
}

#[test]
fn lockstep_resume_is_bit_identical_across_threads_and_shards() {
    for threads in [1, 4] {
        for shards in [1, 4] {
            with_threads(threads, || {
                let config = full_config(11, shards);
                for stop_after in [1, 5] {
                    let (reference, resumed) =
                        interrupted_vs_straight(&config, &RandomPolicy, None, stop_after);
                    assert_eq!(
                        reference, resumed,
                        "trace diverged: threads={threads} shards={shards} stop={stop_after}"
                    );
                }
            });
        }
    }
}

#[test]
fn event_driven_buffered_resume_is_bit_identical() {
    for threads in [1, 4] {
        for shards in [1, 4] {
            with_threads(threads, || {
                let mut config = full_config(23, shards);
                config.runtime = Some(AsyncRuntime::buffered(2, 1.0).concurrent_cohorts(2));
                for stop_after in [1, 4] {
                    let (reference, resumed) =
                        interrupted_vs_straight(&config, &RandomPolicy, None, stop_after);
                    assert_eq!(
                        reference, resumed,
                        "trace diverged: threads={threads} shards={shards} stop={stop_after}"
                    );
                }
            });
        }
    }
}

#[test]
fn autofl_selector_state_survives_the_checkpoint() {
    // AutoFL carries the heaviest selector state — Q-tables, pending
    // rounds awaiting reward, its own RNG — all of which must round-trip.
    let registry = standard_registry();
    let policy = registry.expect("AutoFL");
    let config = full_config(37, 2);
    let (reference, resumed) = interrupted_vs_straight(&config, policy, None, 5);
    assert_eq!(reference, resumed, "AutoFL trace diverged after resume");
}

#[test]
fn controlled_run_resumes_on_the_same_control_trajectory() {
    let mut config = full_config(53, 1);
    config.max_rounds = 12;
    let control = Some(ConvergeTarget::EnergyBudget {
        joules_per_round: 0.05,
    });
    let (reference, resumed) = interrupted_vs_straight(&config, &RandomPolicy, control, 6);
    assert_eq!(
        reference, resumed,
        "controller EMA/scale must continue, not restart, after resume"
    );
}

/// FNV-1a 64 over a trace's bytes, as fixed-width hex (the same hash the
/// checkpoint envelope and the benchmark's record digest use).
fn trace_digest(records: &[RoundRecord]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in trace(records).bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Runs `config` under `policy` through the steppable API and returns the
/// records in emission order.
fn stepped(
    config: &SimConfig,
    policy: &dyn Policy,
    control: Option<ConvergeTarget>,
) -> Vec<RoundRecord> {
    let mut run = ExperimentRun::new(config, policy, control).expect("config validates");
    while run.step().expect("no observers").is_some() {}
    run.records().to_vec()
}

#[test]
fn controlled_default_driver_trajectory_is_pinned() {
    // A controller's retune after record r must reach cohort r + 1. The
    // digest was recorded when `runtime: None` still ran a separate
    // lockstep loop, so it pins that trajectory across driver refactors.
    let mut config = full_config(53, 1);
    config.max_rounds = 12;
    let control = Some(ConvergeTarget::EnergyBudget {
        joules_per_round: 0.05,
    });
    let records = stepped(&config, &RandomPolicy, control);
    let cohorts: Vec<usize> = records.iter().map(|r| r.participants.len()).collect();
    assert!(
        cohorts.windows(2).any(|w| w[0] != w[1]),
        "the controller must actually retune K: {cohorts:?}"
    );
    assert_eq!(trace_digest(&records), "815edf1b0a8e290d");
}

#[test]
fn buffered_concurrent_trajectory_is_pinned() {
    // Two cohorts in flight, buffered aggregation, no controller: the
    // emission-order trace is pinned across scheduler refactors, at every
    // shard count.
    for shards in [1, 4] {
        let mut config = full_config(23, shards);
        config.runtime = Some(AsyncRuntime::buffered(2, 1.0).concurrent_cohorts(2));
        let records = stepped(&config, &RandomPolicy, None);
        assert_eq!(
            trace_digest(&records),
            "a7b207999971ab0a",
            "shards={shards}"
        );
    }
}

/// A config with every subsystem on: realistic fleet dynamics under
/// `straggler`, a lossy fabric with a TopKInt8 codec, periodic full sync
/// and a partition rule, and poisoners, scalers, free-riders and faulty
/// sensors — so a round sees every participant fate.
fn every_subsystem_config(
    algorithm: AggregationAlgorithm,
    straggler: StragglerPolicy,
    shards: usize,
) -> SimConfig {
    let mut config = SimConfig::smoke(61);
    config.shards = shards;
    config.algorithm = algorithm;
    config.scenario = VarianceScenario::with_interference();
    config.straggler_deadline_factor = 1.3;
    config.fleet = Some(FleetDynamics::realistic().straggler(straggler));
    config.network = Some(
        NetworkFabric::new(LinkModel::realistic())
            .with_codec(CodecSpec::TopKInt8 { k_frac: 0.1 })
            .with_full_sync(4)
            .with_partitions(PartitionSchedule::single(PartitionRule {
                from_round: 3,
                until_round: 7,
                device_begin: 0,
                device_end: 10,
            })),
    );
    config.adversary = Some(AdversaryConfig {
        poisoner_fraction: 0.1,
        scaler_fraction: 0.05,
        free_rider_fraction: 0.15,
        faulty_sensor_fraction: 0.15,
        scale_factor: 4.0,
    });
    config.max_rounds = 14;
    config.target_accuracy = Some(1.1);
    config
}

#[test]
fn every_subsystem_trajectory_is_pinned() {
    // No golden trace turns on dynamics, a lossy fabric, free-riders or
    // faulty sensors, and the thread × shard matrices only compare runs
    // against each other. These digests pin the absolute bits of every
    // participant fate, so a refactor of the round engine that changes
    // them consistently still fails here. The digests were recorded
    // before the round engine was split into named phases.
    let registry = standard_registry();
    let legs = [
        (
            AggregationAlgorithm::FedAvg,
            StragglerPolicy::OverSelect { extra: 3 },
            ["337f682de196d142", "d3be0542e82ca061", "56602bf7b264cffd"],
        ),
        (
            AggregationAlgorithm::FedNova,
            StragglerPolicy::WaitBounded { grace: 1.2 },
            ["fa155abdb9052e9f", "9062603f51ef4477", "4010ad29e22be5b9"],
        ),
    ];
    let (mut dropouts, mut net_drops, mut cut, mut partial, mut flagged) = (0, 0, 0, 0, 0);
    for (algorithm, straggler, digests) in legs {
        for (name, digest) in ["FedAvg-Random", "AutoFL", "O_FL"].into_iter().zip(digests) {
            for shards in [1, 4] {
                let config = every_subsystem_config(algorithm, straggler, shards);
                let records = stepped(&config, registry.expect(name), None);
                assert_eq!(
                    trace_digest(&records),
                    digest,
                    "{algorithm:?} {name} shards={shards}"
                );
                for r in &records {
                    dropouts += r.dropouts.len() - r.net.map_or(0, |n| n.net_drops);
                    net_drops += r.net.map_or(0, |n| n.net_drops);
                    cut += r.dropped.len();
                    partial += r
                        .update_fractions
                        .iter()
                        .filter(|&&f| f > 0.0 && f < 1.0)
                        .count();
                    flagged += r.flagged.unwrap_or(0);
                }
            }
        }
    }
    for (fate, seen) in [
        ("mid-round dropout", dropouts),
        ("net loss", net_drops),
        ("deadline cut", cut),
        ("partial update", partial),
        ("flagged update", flagged),
    ] {
        assert!(seen > 0, "no {fate} in any pinned run");
    }
}

/// Digest of a finished real-training run: the checkpoint payload after
/// the last round, which holds the emitted records and the global model's
/// exact parameters (accuracy alone is too coarse to see a one-ulp
/// change in aggregation).
fn real_training_digest(
    algorithm: AggregationAlgorithm,
    codec: Option<CodecSpec>,
    shards: usize,
) -> String {
    let mut config = SimConfig::tiny_test(29);
    config.fidelity = Fidelity::RealTraining {
        lr: 0.08,
        eval_samples: 48,
    };
    // Small batches give each client many steps, so a straggler's
    // partial update takes fewer of them than its peers.
    config.params.batch_size = 2;
    config.algorithm = algorithm;
    config.shards = shards;
    config.scenario = VarianceScenario::with_interference();
    config.straggler_deadline_factor = 1.3;
    config.adversary = Some(AdversaryConfig::mixed(0.5));
    config.network = codec.map(|c| {
        NetworkFabric::new(LinkModel::ideal())
            .with_codec(c)
            .with_full_sync(3)
    });
    config.max_rounds = 5;
    config.target_accuracy = Some(1.1);
    let mut run = ExperimentRun::new(&config, &RandomPolicy, None).expect("config validates");
    while run.step().expect("no observers").is_some() {}
    let records = run.records();
    assert!(
        records.iter().any(|r| r.adversarial.unwrap_or(0) > 0),
        "{algorithm:?}: no adversary ever took part"
    );
    // Stragglers' partial updates, with fewer local steps, are what set
    // FedNova's step normalisation apart from FedAvg.
    let partial = |r: &RoundRecord| r.update_fractions.iter().any(|&f| f > 0.0 && f < 1.0);
    assert_eq!(
        records.iter().any(partial),
        algorithm.accepts_partial_updates(),
        "{algorithm:?}: partial updates"
    );
    payload_digest(&run.state_snapshot())
}

#[test]
fn real_training_rules_and_codecs_are_pinned() {
    // Every golden and digest above runs the surrogate, and the
    // real-training tests elsewhere compare runs only with each other.
    // These digests pin the absolute bits of each aggregation rule and
    // each codec (with periodic full sync) on real local training, with
    // label-flipping poisoners and gradient scalers in the cohort. They
    // were recorded before the rules and codecs moved onto their spec
    // enums.
    let rules = [
        (AggregationAlgorithm::FedAvg, "76a77f58448264d1"),
        (
            AggregationAlgorithm::FedProx { mu: 0.01 },
            "45568593f5660b05",
        ),
        (AggregationAlgorithm::FedNova, "e54f5014f572e47e"),
        (AggregationAlgorithm::Fedl { eta: 0.1 }, "af6f1e177824802b"),
        (AggregationAlgorithm::Median, "2cc775bfb6118503"),
        (
            AggregationAlgorithm::TrimmedMean { trim: 0.3 },
            "34040ea0f4e741bd",
        ),
        (AggregationAlgorithm::Krum, "1429019412e33e51"),
    ];
    for (algorithm, digest) in rules {
        let shard_counts: &[usize] = if algorithm.exact_sharded() {
            &[1, 4]
        } else {
            &[1]
        };
        for &shards in shard_counts {
            assert_eq!(
                real_training_digest(algorithm, None, shards),
                digest,
                "{algorithm:?} shards={shards}"
            );
        }
    }
    let codecs = [
        CodecSpec::TopK { k_frac: 0.25 },
        CodecSpec::Int8Quant,
        CodecSpec::TopKInt8 { k_frac: 0.1 },
    ];
    let coded = [
        (
            AggregationAlgorithm::FedAvg,
            ["5e03c215a85769f1", "e6eea40477757140", "994825916b76c123"],
        ),
        (
            AggregationAlgorithm::Median,
            ["247ea32277424831", "2bb80cf543583d8e", "7c86b997ac511985"],
        ),
    ];
    for (algorithm, digests) in coded {
        for (codec, digest) in codecs.into_iter().zip(digests) {
            for shards in [1, 4] {
                assert_eq!(
                    real_training_digest(algorithm, Some(codec), shards),
                    digest,
                    "{algorithm:?} {codec:?} shards={shards}"
                );
            }
        }
    }
}

/// The spec behind `tests/specs/full_smoke.json`: every subsystem on,
/// with two concurrent cohorts under buffered aggregation, so a
/// checkpoint taken after any round holds a cohort in flight.
fn full_smoke_spec() -> ExperimentSpec {
    let mut config = every_subsystem_config(
        AggregationAlgorithm::FedAvg,
        StragglerPolicy::OverSelect { extra: 3 },
        1,
    );
    config.runtime = Some(AsyncRuntime::buffered(2, 1.0).concurrent_cohorts(2));
    ExperimentSpec::new("full-smoke", config, ["FedAvg-Random", "AutoFL"], 1)
}

#[test]
fn checked_in_full_spec_matches_its_generator() {
    let path = "tests/specs/full_smoke.json";
    let spec = full_smoke_spec();
    if std::env::var("AUTOFL_REGEN_SPECS").is_ok() {
        std::fs::write(path, spec.to_json() + "\n").expect("write spec file");
        return;
    }
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (AUTOFL_REGEN_SPECS=1 to create)"));
    let parsed = ExperimentSpec::from_json(&text).expect(path);
    assert_eq!(parsed, spec, "{path} drifted from its generator");
    assert_eq!(text.trim_end(), spec.to_json(), "{path} is not canonical");
}

#[test]
fn full_spec_resumes_with_a_cohort_in_flight() {
    let spec = full_smoke_spec();
    let registry = standard_registry();
    for name in &spec.policies {
        for stop_after in [3, 8] {
            let (reference, resumed) =
                interrupted_vs_straight(&spec.config, registry.expect(name), None, stop_after);
            assert_eq!(
                reference, resumed,
                "{name}: trace diverged at stop={stop_after}"
            );
        }
    }
}
