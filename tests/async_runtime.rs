//! The event-driven runtime's two contracts (see `docs/async-runtime.md`):
//!
//! 1. **Barrier equivalence** — the discrete-event scheduler with a full
//!    barrier (`AsyncRuntime::barrier()`, also what `runtime: None`
//!    runs) reproduces a lockstep loop of `Simulation::run_round` stepped
//!    by hand *bit for bit*: every registered policy, at multiple thread
//!    and shard counts, with fleet dynamics, dropout and OverSelect
//!    active.
//! 2. **Determinism** — buffered staleness-weighted aggregation is
//!    bit-reproducible per seed at any thread count, and the staleness
//!    weights themselves are deterministic and sum-normalized.

use autofl_fed::engine::{SimConfig, SimResult, Simulation};
use autofl_fed::fleet::{survivor_weights, FleetDynamics, StragglerPolicy};
use autofl_fed::runtime::{staleness_weight, AsyncRuntime};
use autofl_fed::selection::{RandomSelector, Selector};
use autofl_nn::zoo::Workload;
use proptest::prelude::*;

/// Runs `f` with `AUTOFL_THREADS` pinned to `threads`, restoring the
/// previous value afterwards (same helper as `tests/determinism.rs`).
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

/// Bit-level equality over every record field, including the logical-time
/// fields the runtime introduces.
fn assert_bit_identical(a: &SimResult, b: &SimResult, label: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{label}: round counts");
    for (ra, rb) in a.records.iter().zip(b.records.iter()) {
        let at = format!("{label}, round {}", ra.round);
        assert_eq!(ra.round, rb.round, "{at}");
        assert_eq!(ra.participants, rb.participants, "{at}");
        assert_eq!(ra.plans, rb.plans, "{at}");
        assert_eq!(ra.dropped, rb.dropped, "{at}");
        assert_eq!(ra.dropouts, rb.dropouts, "{at}");
        assert_eq!(ra.ineligible, rb.ineligible, "{at}");
        assert_eq!(ra.update_fractions, rb.update_fractions, "{at}");
        // f64 equality on purpose: the contract is bit-reproducibility.
        assert_eq!(ra.accuracy.to_bits(), rb.accuracy.to_bits(), "{at}");
        assert_eq!(ra.round_time_s.to_bits(), rb.round_time_s.to_bits(), "{at}");
        assert_eq!(
            ra.active_energy_j.to_bits(),
            rb.active_energy_j.to_bits(),
            "{at}"
        );
        assert_eq!(
            ra.idle_energy_j.to_bits(),
            rb.idle_energy_j.to_bits(),
            "{at}"
        );
        assert_eq!(
            ra.dispatch_time_s.to_bits(),
            rb.dispatch_time_s.to_bits(),
            "{at}"
        );
        assert_eq!(
            ra.logical_time_s.to_bits(),
            rb.logical_time_s.to_bits(),
            "{at}"
        );
        assert_eq!(
            ra.mean_staleness.to_bits(),
            rb.mean_staleness.to_bits(),
            "{at}"
        );
    }
    assert_eq!(
        a.ppw_global().to_bits(),
        b.ppw_global().to_bits(),
        "{label}"
    );
    assert_eq!(a.ppw_local().to_bits(), b.ppw_local().to_bits(), "{label}");
}

/// The lockstep reference: `Simulation::run_round` — the single-round
/// API — stepped by hand until the first record at the target or the
/// horizon, whichever comes first. `Simulation::run` must reproduce it.
fn hand_stepped(cfg: SimConfig, selector: &mut dyn Selector) -> SimResult {
    let target = cfg.target();
    let max_rounds = cfg.max_rounds;
    let mut sim = Simulation::new(cfg);
    let mut records = Vec::new();
    for round in 0..max_rounds {
        let record = sim.run_round(selector, round);
        let reached = record.accuracy >= target;
        records.push(record);
        if reached {
            break;
        }
    }
    SimResult {
        policy: selector.name().to_string(),
        target_accuracy: target,
        records,
    }
}

/// A smoke-scale configuration with every fleet-dynamics effect active —
/// churn, battery, mid-round dropout and OverSelect — the hardest config
/// for the equivalence contract.
fn dynamic_config(seed: u64, shards: usize) -> SimConfig {
    let mut cfg = SimConfig::smoke(seed);
    cfg.scenario = autofl_device::scenario::VarianceScenario::realistic();
    cfg.max_rounds = 20;
    cfg.target_accuracy = Some(1.1);
    cfg.shards = shards;
    cfg.fleet = Some(
        FleetDynamics::with_dropout_rate(0.35).straggler(StragglerPolicy::OverSelect { extra: 5 }),
    );
    cfg
}

#[test]
fn barrier_runtime_reproduces_lockstep_for_every_policy() {
    // Digest-pins the barrier-equivalence contract across the whole
    // policy registry (baselines, clusters, oracles, AutoFL) at
    // AUTOFL_THREADS ∈ {1, 4} × shards ∈ {1, 4}, for the default
    // `runtime: None` and an explicit barrier alike.
    let registry = autofl_core::standard_registry();
    for policy in registry.iter() {
        for shards in [1, 4] {
            let lockstep = with_threads(1, || {
                let mut selector = policy.make_selector();
                hand_stepped(dynamic_config(13, shards), selector.as_mut())
            });
            for threads in [1, 4] {
                for runtime in [None, Some(AsyncRuntime::barrier())] {
                    let event = with_threads(threads, || {
                        let mut cfg = dynamic_config(13, shards);
                        cfg.runtime = runtime;
                        let mut selector = policy.make_selector();
                        Simulation::new(cfg).run(selector.as_mut())
                    });
                    let label = format!(
                        "{} (shards {shards}, threads {threads}, runtime {runtime:?})",
                        policy.name()
                    );
                    assert_bit_identical(&lockstep, &event, &label);
                    assert!(
                        event.records.iter().all(|r| r.mean_staleness == 0.0),
                        "{label}: a full barrier has no stale updates"
                    );
                }
            }
        }
    }
}

#[test]
fn lockstep_logical_clock_accumulates_round_times() {
    let result = Simulation::new(dynamic_config(7, 1)).run(&mut RandomSelector::new());
    let mut clock = 0.0f64;
    for rec in &result.records {
        assert_eq!(rec.dispatch_time_s.to_bits(), clock.to_bits());
        clock += rec.round_time_s;
        assert_eq!(rec.logical_time_s.to_bits(), clock.to_bits());
    }
}

fn buffered_config(seed: u64) -> SimConfig {
    let mut cfg = dynamic_config(seed, 4);
    cfg.runtime = Some(AsyncRuntime::buffered(8, 0.5).concurrent_cohorts(3));
    cfg
}

#[test]
fn buffered_runtime_is_bit_reproducible_across_thread_counts() {
    let run = |threads: usize| {
        with_threads(threads, || {
            Simulation::new(buffered_config(19)).run(&mut RandomSelector::new())
        })
    };
    let base = run(1);
    for threads in [2, 4] {
        assert_bit_identical(&base, &run(threads), &format!("threads {threads}"));
    }
    // The async pipeline must actually exercise staleness: with three
    // cohorts in flight and an 8-update buffer, some updates wait.
    assert!(
        base.records.iter().any(|r| r.mean_staleness > 0.0),
        "a 3-deep pipeline must produce stale updates"
    );
    // Logical time stays monotone in completion order even when cohorts
    // finish out of dispatch order.
    for rec in &base.records {
        assert!(rec.logical_time_s >= rec.dispatch_time_s);
        assert!(rec.mean_staleness.is_finite() && rec.mean_staleness >= 0.0);
    }
}

#[test]
fn buffered_runtime_diverges_from_the_barrier() {
    // Sanity check that the buffer/staleness knobs are actually live:
    // a buffered run must differ observably from the barrier run.
    let barrier = {
        let mut cfg = dynamic_config(19, 4);
        cfg.runtime = Some(AsyncRuntime::barrier());
        Simulation::new(cfg).run(&mut RandomSelector::new())
    };
    let buffered = Simulation::new(buffered_config(19)).run(&mut RandomSelector::new());
    let same_accuracy = barrier
        .records
        .iter()
        .zip(buffered.records.iter())
        .all(|(a, b)| a.accuracy.to_bits() == b.accuracy.to_bits());
    assert!(
        !same_accuracy,
        "buffered staleness-weighted aggregation must change the trajectory"
    );
}

#[test]
fn barrier_equivalence_holds_under_real_training() {
    // The contract is engine-agnostic: pin it once on the real-training
    // path too (tiny workload, few rounds).
    let mk = || {
        let mut cfg = SimConfig::tiny_test(5);
        cfg.fidelity = autofl_fed::engine::Fidelity::RealTraining {
            lr: 0.08,
            eval_samples: 48,
        };
        cfg.max_rounds = 4;
        cfg.target_accuracy = Some(1.1);
        cfg
    };
    let lockstep = hand_stepped(mk(), &mut RandomSelector::new());
    let mut cfg = mk();
    cfg.runtime = Some(AsyncRuntime::barrier());
    let event = Simulation::new(cfg).run(&mut RandomSelector::new());
    assert_bit_identical(&lockstep, &event, "real training");
}

#[test]
fn spec_round_trips_the_runtime_block() {
    // AsyncRuntime serializes through SimConfig (spec files) and an
    // absent field deserializes to the default barrier (`None`).
    let mut cfg = SimConfig::tiny_test(1);
    cfg.runtime = Some(AsyncRuntime::buffered(4, 1.0).concurrent_cohorts(2));
    let json = serde_json::to_string(&cfg).expect("config serializes");
    let back: SimConfig = serde_json::from_str(&json).expect("config parses");
    assert_eq!(back, cfg);

    let plain = serde_json::to_string(&SimConfig::tiny_test(1)).expect("serializes");
    let stripped = plain.replace("\"runtime\":null,", "");
    let back: SimConfig = serde_json::from_str(&stripped).expect("pre-runtime spec parses");
    assert_eq!(back.runtime, None);
}

#[test]
fn builder_builds_event_driven_simulations() {
    let result = Simulation::builder(Workload::TinyTest)
        .devices(12)
        .params(autofl_fed::global::GlobalParams::new(8, 1, 4))
        .samples_per_device(24)
        .test_samples(48)
        .max_rounds(6)
        .target_accuracy(1.1)
        .runtime(AsyncRuntime::buffered(2, 1.0))
        .seed(3)
        .build()
        .expect("valid event-driven configuration")
        .run(&mut RandomSelector::new());
    assert_eq!(result.records.len(), 6);
    assert!(result.final_accuracy() > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Staleness weights are a deterministic pure function, bounded in
    /// (0, 1], exactly 1 when fresh, and non-increasing in staleness.
    #[test]
    fn staleness_weights_are_deterministic_and_bounded(
        staleness in 0u64..10_000,
        exponent in 0.0f64..8.0,
    ) {
        let w = staleness_weight(staleness, exponent);
        prop_assert_eq!(w.to_bits(), staleness_weight(staleness, exponent).to_bits());
        prop_assert!(w > 0.0 && w <= 1.0);
        prop_assert_eq!(staleness_weight(0, exponent).to_bits(), 1.0f64.to_bits());
        prop_assert!(staleness_weight(staleness + 1, exponent) <= w);
    }

    /// Aggregation stays sum-normalized under staleness discounting: the
    /// survivor weights computed from staleness-discounted sample masses
    /// sum to exactly 1.0 (bit-for-bit), as the engine's debug invariant
    /// demands.
    #[test]
    fn discounted_survivor_weights_sum_to_exactly_one(
        seed in 0u64..1_000_000,
        cohort in 1usize..40,
        exponent in 0.0f64..4.0,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let effectives: Vec<f64> = (0..cohort)
            .map(|_| {
                let mass = rng.gen_range(1..10_000u32) as f64;
                let staleness = rng.gen_range(0..50u64);
                mass * staleness_weight(staleness, exponent)
            })
            .collect();
        let weights = survivor_weights(&effectives);
        prop_assert_eq!(weights.iter().sum::<f64>().to_bits(), 1.0f64.to_bits());
    }
}
