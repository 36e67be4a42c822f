//! Per-layer timing by replay.
//!
//! `Simulation::run_round` calls its layers internally, where this
//! benchmark adds no timers. In the traced run, after each round, the
//! benchmark calls the same public layer functions itself, on replicas
//! built from the same configuration, fleet and partition, with the
//! round's cohort, plans and sizes: lifecycle begin and end
//! (`FleetStore`), condition sampling (`VarianceScenario::sample_into`),
//! cost execution (`participant_costs`) and aggregation
//! (`AccuracyEngine::apply_round`). The replicas draw their own random
//! streams, so their values differ from the engine's; the work per call
//! (devices walked, cohort size, model size) is the same, and that is
//! what the spans time. Building a replay also times the labels-only data
//! synthesis (`FlData::generate_stats_only`) a surrogate run's set-up does.

use crate::trace::span;
use autofl_data::partition::Partition;
use autofl_data::FlData;
use autofl_device::cost::TrainingTask;
use autofl_device::fleet::{DeviceId, Fleet};
use autofl_device::store::ConditionsStore;
use autofl_fed::accuracy::{AccuracyEngine, CohortStats, RealTrainingEngine, SurrogateEngine};
use autofl_fed::engine::{Fidelity, RoundRecord, SimConfig};
use autofl_fed::estimate::participant_costs;
use autofl_fed::fleet::{FleetDynamics, FleetStore};

/// Replica layer state for one simulation.
pub struct Replay {
    conditions: ConditionsStore,
    lifecycle: Option<(FleetDynamics, FleetStore)>,
    accuracy: Box<dyn AccuracyEngine>,
    accuracy_span: &'static str,
}

impl Replay {
    /// Replicas for a simulation of `config` over `fleet` and `data`.
    pub fn new(config: &SimConfig, fleet: &Fleet, data: &FlData) -> Self {
        span("replay", None, || {
            span("data.generate_stats_only", None, || {
                FlData::generate_stats_only(
                    config.workload,
                    config.num_devices,
                    config.samples_per_device,
                    config.test_samples,
                    config.distribution,
                    config.seed,
                )
            })
        });
        let (accuracy, accuracy_span): (Box<dyn AccuracyEngine>, _) = match config.fidelity {
            Fidelity::Surrogate => (
                Box::new(SurrogateEngine::new(
                    config.workload,
                    config.algorithm,
                    (config.params.num_participants * config.samples_per_device) as f64,
                    config.params.local_epochs as f64,
                    config.seed,
                )),
                "accuracy.surrogate",
            ),
            Fidelity::RealTraining { lr, eval_samples } => (
                Box::new(RealTrainingEngine::new(
                    config.workload,
                    data.clone(),
                    config.algorithm,
                    lr,
                    eval_samples,
                    config.seed,
                    config.shards,
                    None,
                    None,
                )),
                "accuracy.real",
            ),
        };
        Replay {
            conditions: ConditionsStore::new(fleet.len(), config.shards),
            lifecycle: config.fleet.as_ref().map(|d| {
                (
                    d.clone(),
                    FleetStore::new(d, fleet, config.seed, config.shards),
                )
            }),
            accuracy,
            accuracy_span,
        }
    }

    /// Heap bytes of the replica per-device stores (conditions and
    /// lifecycle), the same stores a simulation of this size holds.
    pub fn store_bytes(&self) -> usize {
        self.conditions.size_bytes() + self.lifecycle.as_ref().map_or(0, |(_, s)| s.size_bytes())
    }

    /// Replays the layer calls of `record`'s round under a `replay` span.
    pub fn round(
        &mut self,
        config: &SimConfig,
        fleet: &Fleet,
        partition: &Partition,
        record: &RoundRecord,
    ) {
        let round = Some(record.round);
        span("replay", round, || {
            if let Some((dynamics, store)) = &mut self.lifecycle {
                span("fleet.begin_round", round, || {
                    store.begin_round(dynamics, fleet, record.round)
                });
            }
            let round_seed = config.seed ^ (record.round as u64).wrapping_mul(0x9e37_79b9);
            span("device.sample_into", round, || {
                config
                    .scenario
                    .sample_into(fleet, round_seed, &mut self.conditions)
            });
            let tasks: Vec<TrainingTask> = record
                .participants
                .iter()
                .map(|id| TrainingTask {
                    flops: config.params.local_epochs as u64
                        * partition.device_sample_count(id.0) as u64
                        * config.workload.reference_training_flops_per_sample(),
                    upload_bytes: config.workload.reference_model_bytes(),
                })
                .collect();
            let costs = span("estimate.costs", round, || {
                participant_costs(
                    fleet,
                    &record.participants,
                    &record.plans,
                    &tasks,
                    &self.conditions,
                )
            });
            let stats = cohort_stats(config, partition, record);
            span(self.accuracy_span, round, || {
                self.accuracy.apply_round(&stats)
            });
            if let Some((dynamics, store)) = &mut self.lifecycle {
                let busy: Vec<f64> = costs.iter().map(|c| c.total_time_s()).collect();
                let energy: Vec<f64> = costs.iter().map(|c| c.total_energy_j()).collect();
                span("fleet.end_round", round, || {
                    store.end_round(
                        dynamics,
                        fleet,
                        record.round_time_s,
                        &record.participants,
                        &busy,
                        &energy,
                    )
                });
            }
        });
    }
}

/// The aggregated cohort of `record`, as the engine describes it to its
/// accuracy engine.
fn cohort_stats(config: &SimConfig, partition: &Partition, record: &RoundRecord) -> CohortStats {
    let (participants, update_fractions): (Vec<DeviceId>, Vec<f64>) = record
        .participants
        .iter()
        .zip(&record.update_fractions)
        .filter(|(_, &f)| f > 0.0)
        .map(|(id, f)| (*id, *f))
        .unzip();
    let ids: Vec<usize> = participants.iter().map(|id| id.0).collect();
    let mass: Vec<f64> = ids
        .iter()
        .zip(&update_fractions)
        .map(|(&id, f)| partition.device_sample_count(id) as f64 * f)
        .collect();
    let effective_samples: f64 = mass.iter().sum();
    let mean_member_divergence = if effective_samples > 0.0 {
        ids.iter()
            .zip(&mass)
            .map(|(&id, m)| partition.device_divergence(id) * m)
            .sum::<f64>()
            / effective_samples
    } else {
        0.0
    };
    CohortStats {
        class_coverage: partition.cohort_class_coverage(&ids),
        divergence: partition.cohort_divergence(&ids),
        participants,
        update_fractions,
        effective_samples,
        mean_member_divergence,
        local_epochs: config.params.local_epochs,
        batch_size: config.params.batch_size,
        poison: 0.0,
    }
}
