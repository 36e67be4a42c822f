//! Kill-and-resume bit-identity of the checkpoint/resume service.
//!
//! The contract under test (`docs/serving.md`): interrupting a run at any
//! round, serializing its state through the checkpoint envelope, and
//! resuming in a fresh process state must reproduce the *exact* JSONL
//! trace of a run that was never interrupted — same bytes, under every
//! combination of worker threads, shard counts, fleet dynamics, the
//! buffered async runtime and the network fabric.

use autofl_core::policy::standard_registry;
use autofl_fed::engine::{RoundRecord, SimConfig};
use autofl_fed::fabric::{LinkModel, NetworkFabric};
use autofl_fed::fleet::FleetDynamics;
use autofl_fed::policy::{Policy, RandomPolicy};
use autofl_fed::runtime::AsyncRuntime;
use autofl_fed::serve::{read_checkpoint, write_checkpoint, ConvergeTarget, ExperimentRun};

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
