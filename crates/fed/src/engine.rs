//! The FL simulation engine: rounds, straggler handling, energy accounting
//! and convergence metrics.

use crate::accuracy::{
    AccuracyEngine, CohortStats, ConvergenceProfile, RealTrainingEngine, SurrogateEngine,
};
use crate::adversary::{adv_stream, AdversaryConfig, AdversaryRole};
use crate::algorithms::AggregationAlgorithm;
use crate::estimate::participant_costs;
use crate::fabric::{NetworkFabric, RoundNetStats};
use crate::fleet::{AvailabilityView, FleetDynamics, FleetStore, ShardBin, StragglerPolicy};
use crate::global::GlobalParams;
use crate::selection::{RoundContext, RoundFeedback, SelectionDecision, Selector};
use autofl_data::partition::DataDistribution;
use autofl_data::FlData;
use autofl_device::cost::{ExecutionPlan, RoundCost, TrainingTask};
use autofl_device::fleet::{DeviceId, Fleet};
use autofl_device::idle_energy_j;
use autofl_device::network::SignalStrength;
use autofl_device::scenario::{DeviceConditions, VarianceScenario};
use autofl_device::store::Conditions;
use autofl_device::tier::DeviceTier;
use autofl_nn::zoo::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which accuracy engine drives convergence.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Fidelity {
    /// Calibrated learning-curve surrogate (fast; used by figure sweeps).
    #[default]
    Surrogate,
    /// Real training of the scaled-down model (ground truth; slower).
    RealTraining {
        /// Client SGD learning rate.
        lr: f32,
        /// Max test samples used per evaluation.
        eval_samples: usize,
    },
}

/// Full configuration of one simulated FL deployment.
///
/// Prefer building configurations through [`Simulation::builder`] (or the
/// `tiny_test`/`smoke`/`paper_default` profiles): the builder validates
/// before the engine runs, and spec files deserialize straight into this
/// type. Struct-literal construction is considered an internal detail of
/// this crate and may lose field-by-field stability in a future release.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The FL use case.
    pub workload: Workload,
    /// `(B, E, K)`.
    pub params: GlobalParams,
    /// Data heterogeneity scenario.
    pub distribution: DataDistribution,
    /// Runtime-variance scenario.
    pub scenario: VarianceScenario,
    /// Stochastic fleet dynamics (battery, thermal, churn, mid-round
    /// dropout and the straggler policy). `None` — the default — keeps
    /// the fleet static and reproduces pre-dynamics runs bit for bit.
    pub fleet: Option<FleetDynamics>,
    /// Aggregation schedule of the event-driven round driver
    /// ([`crate::runtime::AsyncRuntime`]). `None` — the default — *is*
    /// [`AsyncRuntime::barrier`](crate::runtime::AsyncRuntime::barrier):
    /// synchronous rounds, one cohort in flight, bit-identical to
    /// `Some(AsyncRuntime::barrier())` (see `docs/async-runtime.md`).
    /// Deserializes to `None` when absent from serialized specs, so
    /// pre-runtime spec files keep loading.
    pub runtime: Option<crate::runtime::AsyncRuntime>,
    /// Network fabric between dispatch and aggregation: per-device link
    /// latency/loss, scripted partitions and update codecs
    /// ([`crate::fabric`]). `None` — the default — bypasses every fabric
    /// code path and reproduces pre-fabric runs bit for bit. Deserializes
    /// to `None` when absent from serialized specs.
    pub network: Option<NetworkFabric>,
    /// Adversarial fleet roles (label-flipping poisoners, scaled-gradient
    /// attackers, free-riders, faulty sensors — [`crate::adversary`]).
    /// `None` — the default — bypasses every adversary code path and
    /// reproduces honest-fleet runs bit for bit. Deserializes to `None`
    /// when absent from serialized specs.
    pub adversary: Option<AdversaryConfig>,
    /// Aggregation algorithm.
    pub algorithm: AggregationAlgorithm,
    /// Accuracy engine.
    pub fidelity: Fidelity,
    /// Fleet size `N`.
    pub num_devices: usize,
    /// Number of contiguous device shards the per-device stores (and the
    /// hierarchical aggregation tree) are split into. Purely a layout /
    /// parallelism / topology knob: results are bit-identical at every
    /// value (clamped to `[1, N]`). Rule of thumb for large fleets:
    /// a few shards per worker thread (see `docs/scaling.md`).
    pub shards: usize,
    /// Mean local training samples per device.
    pub samples_per_device: usize,
    /// Held-out test samples.
    pub test_samples: usize,
    /// Round deadline as a multiple of the cohort's median completion
    /// time; participants beyond it are stragglers.
    pub straggler_deadline_factor: f64,
    /// Convergence threshold; `None` uses the workload profile's target.
    pub target_accuracy: Option<f64>,
    /// Maximum rounds to simulate.
    pub max_rounds: usize,
    /// Master seed.
    pub seed: u64,
}

impl SimConfig {
    /// A paper-shaped configuration: 200 devices, S3 parameters, FedAvg,
    /// ideal IID data, calm runtime, surrogate accuracy.
    pub fn paper_default(workload: Workload) -> Self {
        SimConfig {
            workload,
            params: GlobalParams::s3(),
            distribution: DataDistribution::IidIdeal,
            scenario: VarianceScenario::calm(),
            fleet: None,
            runtime: None,
            network: None,
            adversary: None,
            algorithm: AggregationAlgorithm::FedAvg,
            fidelity: Fidelity::Surrogate,
            num_devices: 200,
            shards: 1,
            samples_per_device: 300,
            test_samples: 512,
            straggler_deadline_factor: 2.0,
            target_accuracy: None,
            max_rounds: 1000,
            seed: 42,
        }
    }

    /// A miniature configuration for fast tests: few devices, tiny
    /// workload data, short horizon.
    pub fn tiny_test(seed: u64) -> Self {
        SimConfig {
            workload: Workload::TinyTest,
            params: GlobalParams::new(8, 1, 4),
            distribution: DataDistribution::IidIdeal,
            scenario: VarianceScenario::calm(),
            fleet: None,
            runtime: None,
            network: None,
            adversary: None,
            algorithm: AggregationAlgorithm::FedAvg,
            fidelity: Fidelity::Surrogate,
            num_devices: 12,
            shards: 1,
            samples_per_device: 24,
            test_samples: 48,
            straggler_deadline_factor: 2.0,
            target_accuracy: None,
            max_rounds: 60,
            seed,
        }
    }

    /// A reduced smoke profile: paper-shaped behaviour (same 15/35/50%
    /// tier mix, S3 parameters, surrogate accuracy, CNN-MNIST) at a
    /// fraction of the fleet and horizon, so end-to-end checks finish in
    /// well under a second. Deterministic in `seed`.
    pub fn smoke(seed: u64) -> Self {
        SimConfig {
            num_devices: 40,
            samples_per_device: 120,
            test_samples: 256,
            max_rounds: 250,
            seed,
            ..Self::paper_default(Workload::CnnMnist)
        }
    }

    /// The effective convergence target.
    pub fn target(&self) -> f64 {
        self.target_accuracy
            .unwrap_or_else(|| ConvergenceProfile::for_workload(self.workload).target_accuracy)
    }
}

/// Everything measured in one aggregation round.
///
/// The opt-in subsystem fields — `net` (network fabric) and
/// `adversarial`/`flagged` (adversary roles) — are *omitted*, not
/// `null`, when their subsystem is off, so subsystem-less round traces
/// stay byte-identical to earlier releases (pinned by the golden
/// `smoke_trace.jsonl`). Absent fields deserialize to `None`, so older
/// traces keep loading.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Selected participants.
    pub participants: Vec<DeviceId>,
    /// Execution plans, aligned with `participants`.
    pub plans: Vec<ExecutionPlan>,
    /// Wall-clock duration of the round in seconds.
    pub round_time_s: f64,
    /// Active energy of participants in joules.
    pub active_energy_j: f64,
    /// Idle energy of non-participants in joules.
    pub idle_energy_j: f64,
    /// Test accuracy after aggregation.
    pub accuracy: f64,
    /// Participants dropped as stragglers (FedAvg) this round.
    pub dropped: Vec<DeviceId>,
    /// Fraction of nominal work each participant's aggregated update
    /// represents (0 for dropped participants and dropouts).
    pub update_fractions: Vec<f64>,
    /// Participants that vanished mid-round (battery death or
    /// connectivity churn); disjoint from `dropped`. Empty unless
    /// [`SimConfig::fleet`] dynamics are enabled.
    pub dropouts: Vec<DeviceId>,
    /// Devices that failed the eligibility check-in before selection.
    pub ineligible: usize,
    /// Logical time at which this round's cohort was dispatched, in
    /// simulated seconds since the start of the run. With one cohort in
    /// flight this is the cumulative duration of all earlier rounds.
    pub dispatch_time_s: f64,
    /// Logical time at which this round's cohort completed (its record
    /// was emitted): `dispatch_time_s + round_time_s`. Monotone across
    /// rounds with one cohort in flight; with concurrent cohorts,
    /// completion order may differ from dispatch order.
    pub logical_time_s: f64,
    /// Mean staleness (in aggregation versions) of this cohort's updates
    /// at the moment they were aggregated. Always 0 under the full
    /// barrier with one cohort in flight.
    pub mean_staleness: f64,
    /// Network-fabric accounting (bytes, drops, partitions). `Some` iff
    /// [`SimConfig::network`] is attached.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub net: Option<RoundNetStats>,
    /// Number of *adversarial* devices (any non-honest role) among this
    /// round's participants. `Some` iff [`SimConfig::adversary`] is
    /// attached.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub adversarial: Option<usize>,
    /// Number of adversarial updates the server-side defenses neutralised
    /// this round: free-riders' zero-mass updates always count; poisoners
    /// and scalers count iff the configured aggregator has positive
    /// [`AggregationAlgorithm::poison_robustness`]. `Some` iff
    /// [`SimConfig::adversary`] is attached.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub flagged: Option<usize>,
}

impl RoundRecord {
    /// Total energy of the round (Eq. 6).
    pub fn total_energy_j(&self) -> f64 {
        self.active_energy_j + self.idle_energy_j
    }

    /// Participants whose updates were aggregated (positive update
    /// fraction), in participant order.
    pub fn survivors(&self) -> Vec<DeviceId> {
        self.participants
            .iter()
            .zip(&self.update_fractions)
            .filter(|(_, &f)| f > 0.0)
            .map(|(id, _)| *id)
            .collect()
    }
}

/// Aggregated result of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Policy that produced the run.
    pub policy: String,
    /// The convergence target used.
    pub target_accuracy: f64,
    /// Per-round records.
    pub records: Vec<RoundRecord>,
}

impl SimResult {
    /// First round (0-based) whose accuracy reached the target.
    pub fn converged_round(&self) -> Option<usize> {
        self.records
            .iter()
            .position(|r| r.accuracy >= self.target_accuracy)
    }

    /// Whether the run reached the target within the horizon.
    pub fn converged(&self) -> bool {
        self.converged_round().is_some()
    }

    /// Simulated seconds until convergence (or the whole run if it never
    /// converged).
    pub fn time_to_target_s(&self) -> f64 {
        let upto = self
            .converged_round()
            .map(|r| r + 1)
            .unwrap_or(self.records.len());
        self.records[..upto].iter().map(|r| r.round_time_s).sum()
    }

    /// Total energy in joules until convergence (or the whole run).
    pub fn energy_to_target_j(&self) -> f64 {
        let upto = self
            .converged_round()
            .map(|r| r + 1)
            .unwrap_or(self.records.len());
        self.records[..upto]
            .iter()
            .map(|r| r.total_energy_j())
            .sum()
    }

    /// Active (participant-side) energy until convergence.
    pub fn local_energy_to_target_j(&self) -> f64 {
        let upto = self
            .converged_round()
            .map(|r| r + 1)
            .unwrap_or(self.records.len());
        self.records[..upto].iter().map(|r| r.active_energy_j).sum()
    }

    /// Final test accuracy.
    pub fn final_accuracy(&self) -> f64 {
        self.records.last().map(|r| r.accuracy).unwrap_or(0.0)
    }

    /// Best accuracy seen.
    pub fn best_accuracy(&self) -> f64 {
        self.records.iter().map(|r| r.accuracy).fold(0.0, f64::max)
    }

    /// Convergence progress in `[0, 1]`: best accuracy relative to target.
    pub fn progress(&self) -> f64 {
        (self.best_accuracy() / self.target_accuracy).min(1.0)
    }

    /// Global performance-per-watt figure of merit: progress per joule of
    /// cluster energy. Ratios of this quantity are the paper's "PPW
    /// improvement" numbers; non-converged runs are penalised through both
    /// lower progress and the full-horizon energy.
    pub fn ppw_global(&self) -> f64 {
        self.progress() / self.energy_to_target_j().max(1e-9)
    }

    /// Local performance-per-watt: progress per joule of participant
    /// (active) energy.
    pub fn ppw_local(&self) -> f64 {
        self.progress() / self.local_energy_to_target_j().max(1e-9)
    }

    /// Mean round time in seconds over the effective horizon.
    pub fn mean_round_time_s(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let upto = self
            .converged_round()
            .map(|r| r + 1)
            .unwrap_or(self.records.len());
        self.records[..upto]
            .iter()
            .map(|r| r.round_time_s)
            .sum::<f64>()
            / upto as f64
    }
}

/// Reusable per-round working memory. Everything here is overwritten at
/// the start of (or during) each round, so holding it on the
/// [`Simulation`] turns per-round `Vec` rebuilds into amortised-free
/// buffer reuse — the round hot loop allocates only what escapes into the
/// returned [`RoundRecord`].
#[derive(Debug, Default)]
struct RoundScratch {
    /// Fleet-sized participant membership mask.
    is_participant: Vec<bool>,
    /// Per-device tiers, one byte-sized entry per device in fleet order.
    /// Filled once on first use: the idle-energy scan walks this compact
    /// array instead of re-reading whole `Device` structs every round.
    tiers: Vec<DeviceTier>,
    /// Fleet-sized reachability mask under active network partitions
    /// (eligible *and* not partitioned). Only touched when a fabric with
    /// an active partition rule is attached.
    reachable: Vec<bool>,
    /// Shard bins with per-bin eligible counts recomputed under the
    /// partition mask, backing [`AvailabilityView::Masked`].
    masked_bins: Vec<ShardBin>,
}

/// One round's per-device runtime conditions, sampled when read.
///
/// `get(i)` draws device `i`'s conditions from its own `(seed, round, id)`
/// stream ([`VarianceScenario::sample_device`]) and overlays its thermal
/// throttle from the lifecycle store: exactly the value a fleet-wide
/// [`VarianceScenario::sample_into`] followed by
/// [`FleetStore::overlay_throttle`] stores, at the cost of the devices
/// actually read. The [`RoundConditions::reported`] view returns, for
/// faulty-sensor devices, the always-healthy lie drawn on their
/// `(seed, TAG_ADV, round + 1, id)` stream instead.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoundConditions<'a> {
    config: &'a SimConfig,
    fleet: &'a Fleet,
    lifecycle: Option<&'a FleetStore>,
    round: usize,
    round_seed: u64,
    /// The adversary whose faulty sensors lie; `Some` only in a reported
    /// view of a run with faulty sensors.
    liars: Option<&'a AdversaryConfig>,
}

impl<'a> RoundConditions<'a> {
    /// The true conditions of `round`.
    fn new(
        config: &'a SimConfig,
        fleet: &'a Fleet,
        lifecycle: Option<&'a FleetStore>,
        round: usize,
    ) -> Self {
        RoundConditions {
            config,
            fleet,
            lifecycle,
            round,
            round_seed: round_stream_seed(config.seed, round),
            liars: None,
        }
    }

    /// The same round as devices report it to the server: faulty sensors'
    /// lies in place of their true conditions. Equal to `self` without
    /// faulty sensors.
    fn reported(self) -> Self {
        RoundConditions {
            liars: self
                .config
                .adversary
                .as_ref()
                .filter(|a| a.faulty_sensor_fraction > 0.0),
            ..self
        }
    }
}

impl Conditions for RoundConditions<'_> {
    fn get(&self, i: usize) -> DeviceConditions {
        let seed = self.config.seed;
        if let Some(adv) = self.liars {
            if adv.role_of(seed, i) == AdversaryRole::FaultySensor {
                return AdversaryConfig::corrupt_report(&mut adv_stream(seed, self.round, i));
            }
        }
        let mut c = self
            .config
            .scenario
            .sample_device(self.fleet, self.round_seed, i);
        if let Some(store) = self.lifecycle {
            c.throttle = store.throttle(i);
        }
        c
    }

    fn len(&self) -> usize {
        self.fleet.len()
    }
}

/// Everything a dispatched cohort carries between check-in/execution
/// ([`Simulation::dispatch_round`]) and the aggregation
/// ([`Simulation::aggregate_update`]) and completion
/// ([`Simulation::complete_round`]) that close it out. A single
/// [`Simulation::run_round`] completes the cohort immediately; the
/// event-driven runtime ([`crate::runtime`]) holds the outcome in flight
/// until its scheduled upload/completion events fire. Serializable so a
/// checkpoint ([`crate::serve`]) can capture cohorts that are in flight
/// when the process dies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DispatchOutcome {
    /// Devices excluded from this round's pool by fleet dynamics.
    pub ineligible: usize,
    /// Global accuracy at dispatch time (before this cohort aggregates).
    pub prev_accuracy: f64,
    /// The selected cohort, in selection order.
    pub participants: Vec<DeviceId>,
    /// Per-participant execution plans.
    pub plans: Vec<ExecutionPlan>,
    /// Per-participant completion times (deadline-clamped, dropout-truncated).
    pub completion: Vec<f64>,
    /// Per-participant surviving update fractions (0 = no update).
    pub fractions: Vec<f64>,
    /// Per-participant active energy actually burned.
    pub per_participant_energy: Vec<f64>,
    /// Participants cut at the straggler deadline with no update.
    pub dropped: Vec<DeviceId>,
    /// Participants lost mid-round to battery death or churn.
    pub dropouts: Vec<DeviceId>,
    /// Cohort makespan: the slowest surviving completion time.
    pub round_time_s: f64,
    /// Total active energy across the cohort.
    pub active_energy_j: f64,
    /// Network-fabric accounting; `Some` iff a fabric is attached.
    pub net: Option<RoundNetStats>,
    /// The codec's surrogate update-quality multiplier for this round.
    /// Exactly `1.0` without a fabric (or on full-sync rounds), so
    /// multiplying update fractions by it is bit-exact a no-op.
    pub codec_fidelity: f64,
    /// Adversarial participants this round; `Some` iff an adversary
    /// config is attached (see [`RoundRecord::adversarial`]).
    pub adversarial: Option<usize>,
    /// Neutralised adversarial updates; `Some` iff an adversary config
    /// is attached (see [`RoundRecord::flagged`]).
    pub flagged: Option<usize>,
}

impl DispatchOutcome {
    /// The participants whose update survived (positive fraction), as
    /// `(slot, device, raw fraction)` in participant order.
    pub(crate) fn survivors(&self) -> impl Iterator<Item = (usize, DeviceId, f64)> + '_ {
        self.participants
            .iter()
            .zip(&self.fractions)
            .enumerate()
            .filter(|(_, (_, &f))| f > 0.0)
            .map(|(slot, (&id, &f))| (slot, id, f))
    }
}

/// A selected cohort on its way from selection to accounting, one entry
/// per participant: tasks at the codec's upload size, and roles
/// (`Honest` for all without an adversary).
struct Cohort {
    participants: Vec<DeviceId>,
    plans: Vec<ExecutionPlan>,
    tasks: Vec<TrainingTask>,
    roles: Vec<AdversaryRole>,
}

/// What became of one participant this round. A cohort's update
/// fractions, energies, straggler and dropout lists, byte counts and
/// flagged count all derive from its fates; the checkpointed
/// [`DispatchOutcome`] holds only what derives from them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// Finished within the deadline: full update, full energy.
    Survived,
    /// A straggler under a partial-update algorithm: submits this
    /// fraction of its work, done by the deadline, at that energy share.
    Partial(f64),
    /// A straggler cut at the deadline: no update, this energy share.
    Cut(f64),
    /// Vanished mid-round (battery death or churn) after this fraction of
    /// its round: no update, energy until it vanished.
    DroppedOut(f64),
    /// Transmitted, but the fabric lost the upload: no update, full energy.
    Lost,
}

impl Fate {
    /// The share of nominal work the participant's update represents.
    fn update_fraction(self) -> f64 {
        match self {
            Fate::Survived => 1.0,
            Fate::Partial(fraction) => fraction,
            Fate::Cut(_) | Fate::DroppedOut(_) | Fate::Lost => 0.0,
        }
    }

    /// The active energy burned (Eq. 5, selected branch): the full-round
    /// energy — communication only for a free-rider, which burned no
    /// compute — times the share of the round the fate let it work.
    fn energy_j(self, role: AdversaryRole, cost: &RoundCost) -> f64 {
        let full = match role {
            AdversaryRole::FreeRider => cost.comm_energy_j,
            _ => cost.total_energy_j(),
        };
        full * match self {
            Fate::Survived | Fate::Lost => 1.0,
            Fate::Partial(share) | Fate::Cut(share) | Fate::DroppedOut(share) => share,
        }
    }
}

/// The simulation: owns the fleet, the data, the accuracy engine and the
/// per-round stochastic state.
pub struct Simulation {
    config: SimConfig,
    fleet: Fleet,
    data: FlData,
    engine: Box<dyn AccuracyEngine>,
    rng: SmallRng,
    scratch: RoundScratch,
    /// Per-device lifecycle state; `Some` iff `config.fleet` is enabled.
    fleet_state: Option<FleetStore>,
    /// Logical clock in simulated seconds: the time of the last
    /// completed round (or, inside the event scheduler, of the last
    /// fired event). Cohorts dispatch at this time.
    pub(crate) clock_s: f64,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("workload", &self.config.workload.name())
            .field("devices", &self.fleet.len())
            .finish()
    }
}

impl Simulation {
    /// Starts a validating [`crate::builder::SimBuilder`] from the
    /// paper-shaped defaults for `workload` — the supported way to
    /// configure an experiment.
    ///
    /// # Examples
    ///
    /// ```
    /// use autofl_fed::engine::Simulation;
    /// use autofl_fed::selection::RandomSelector;
    /// use autofl_nn::zoo::Workload;
    ///
    /// let mut sim = Simulation::builder(Workload::CnnMnist)
    ///     .devices(1_000)   // the paper's 15/35/50% tier mix at any N
    ///     .shards(4)        // layout/parallelism only: results are bit-identical
    ///     .samples_per_device(16)
    ///     .max_rounds(3)
    ///     .target_accuracy(1.1)
    ///     .seed(42)
    ///     .build()
    ///     .expect("a consistent configuration");
    /// let result = sim.run(&mut RandomSelector::new());
    /// assert_eq!(result.records.len(), 3);
    /// ```
    ///
    /// Inconsistent configurations are rejected with a typed
    /// [`crate::builder::ConfigError`] instead of panicking inside the
    /// engine:
    ///
    /// ```
    /// use autofl_fed::builder::ConfigError;
    /// use autofl_fed::engine::Simulation;
    /// use autofl_nn::zoo::Workload;
    ///
    /// let err = Simulation::builder(Workload::CnnMnist)
    ///     .shards(0)
    ///     .build_config()
    ///     .unwrap_err();
    /// assert_eq!(err, ConfigError::NoShards);
    /// ```
    pub fn builder(workload: Workload) -> crate::builder::SimBuilder {
        crate::builder::SimBuilder::new(workload)
    }

    /// Builds a simulation from a configuration (deterministic in
    /// `config.seed`).
    pub fn new(config: SimConfig) -> Self {
        let fleet = if config.num_devices == 200 {
            Fleet::paper_fleet(config.seed)
        } else {
            // Keep the paper's 15/35/50% tier mix at any scale.
            let h = (config.num_devices * 15 / 100).max(1);
            let l = (config.num_devices * 50 / 100).max(1);
            let m = config.num_devices - h - l;
            Fleet::custom(
                &[
                    (autofl_device::tier::DeviceTier::High, h),
                    (autofl_device::tier::DeviceTier::Mid, m),
                    (autofl_device::tier::DeviceTier::Low, l),
                ],
                config.seed,
            )
        };
        // The surrogate engine never touches sample features — only the
        // partition statistics — so surrogate runs build a labels-only
        // dataset. At a million devices this is the difference between
        // megabytes and many gigabytes of synthetic pixels (and the
        // labels, hence the partition, are identical either way).
        let data = match config.fidelity {
            Fidelity::Surrogate => FlData::generate_stats_only(
                config.workload,
                config.num_devices,
                config.samples_per_device,
                config.test_samples,
                config.distribution,
                config.seed,
            ),
            Fidelity::RealTraining { .. } => FlData::generate(
                config.workload,
                config.num_devices,
                config.samples_per_device,
                config.test_samples,
                config.distribution,
                config.seed,
            ),
        };
        let engine: Box<dyn AccuracyEngine> = match config.fidelity {
            Fidelity::Surrogate => Box::new(SurrogateEngine::new(
                config.workload,
                config.algorithm,
                (config.params.num_participants * config.samples_per_device) as f64,
                config.params.local_epochs as f64,
                config.seed ^ 0xacc,
            )),
            Fidelity::RealTraining { lr, eval_samples } => Box::new(RealTrainingEngine::new(
                config.workload,
                data.clone(),
                config.algorithm,
                lr,
                eval_samples,
                config.seed,
                config.shards,
                config.network.clone(),
                config.adversary,
            )),
        };
        let rng = SmallRng::seed_from_u64(config.seed ^ 0x51b);
        let fleet_state = config.fleet.as_ref().map(|dynamics| {
            FleetStore::new(dynamics, &fleet, config.seed ^ 0xf1ee7, config.shards)
        });
        Simulation {
            config,
            fleet,
            data,
            engine,
            rng,
            scratch: RoundScratch::default(),
            fleet_state,
            clock_s: 0.0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The fleet.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The federated dataset.
    pub fn data(&self) -> &FlData {
        &self.data
    }

    /// Approximate heap bytes held by the per-device round stores: the
    /// lifecycle store under fleet dynamics, and nothing on a static
    /// fleet. Runtime conditions are sampled when read, so no
    /// fleet-sized conditions buffer exists. The `fig_scale` bench
    /// reports this as the memory-footprint proxy where
    /// `/proc/self/status` is unavailable; it deliberately excludes the
    /// dataset and fleet, whose sizes are layout-independent.
    pub fn store_bytes(&self) -> usize {
        self.fleet_state.as_ref().map_or(0, |s| s.size_bytes())
    }

    /// Current global accuracy.
    pub fn accuracy(&self) -> f64 {
        self.engine.accuracy()
    }

    /// Runs one aggregation round under `selector` and returns its record.
    pub fn run_round(&mut self, selector: &mut dyn Selector, round: usize) -> RoundRecord {
        self.run_round_shadowed(selector, round, None).0
    }

    /// Like [`Simulation::run_round`], but additionally asks `shadow` what
    /// it *would* have decided for the same round context, without
    /// executing it. Used to measure prediction accuracy against the
    /// oracle (Figure 12).
    pub fn run_round_shadowed(
        &mut self,
        selector: &mut dyn Selector,
        round: usize,
        shadow: Option<&mut dyn Selector>,
    ) -> (RoundRecord, Option<SelectionDecision>) {
        let dispatch_time_s = self.clock_s;
        let (outcome, shadow_decision) = self.dispatch_round(selector, round, shadow);
        // Aggregate the surviving cohort, every update at staleness 0.
        // The codec's surrogate fidelity scales the surviving update
        // fractions at the aggregation input (and only there — records
        // report raw fractions): a lossy uplink contributes a slightly
        // weaker update. Exactly 1.0 without a fabric, so the multiply is
        // a bit-exact pass-through.
        let (survivors, fractions) = outcome
            .survivors()
            .map(|(_, id, f)| (id, f * outcome.codec_fidelity))
            .unzip();
        let accuracy = self.aggregate_update(survivors, fractions);
        self.clock_s = dispatch_time_s + outcome.round_time_s;
        let record = self.complete_round(selector, round, outcome, accuracy, dispatch_time_s, 0.0);
        (record, shadow_decision)
    }

    /// Completes an aggregated cohort: charges the idle fleet for the
    /// round, advances the lifecycle states with what the round cost
    /// each device (battery drain, heating, cooling), feeds the outcome
    /// back to `selector` and builds the round's record, stamped complete
    /// at the current logical clock. The one completion path behind both
    /// [`Simulation::run_round_shadowed`] and the event scheduler's
    /// cohort-completion event.
    pub(crate) fn complete_round(
        &mut self,
        selector: &mut dyn Selector,
        round: usize,
        outcome: DispatchOutcome,
        accuracy: f64,
        dispatch_time_s: f64,
        mean_staleness: f64,
    ) -> RoundRecord {
        let idle_energy = self.idle_energy_for(&outcome.participants, outcome.round_time_s);
        if let (Some(dynamics), Some(state)) = (&self.config.fleet, &mut self.fleet_state) {
            state.end_round(
                dynamics,
                &self.fleet,
                outcome.round_time_s,
                &outcome.participants,
                &outcome.completion,
                &outcome.per_participant_energy,
            );
        }
        let idle_per_device = if self.fleet.len() > outcome.participants.len() {
            idle_energy / (self.fleet.len() - outcome.participants.len()) as f64
        } else {
            0.0
        };
        selector.observe(&RoundFeedback {
            round,
            participants: &outcome.participants,
            per_participant_energy_j: &outcome.per_participant_energy,
            idle_energy_per_device_j: idle_per_device,
            global_energy_j: outcome.active_energy_j + idle_energy,
            round_time_s: outcome.round_time_s,
            accuracy,
            prev_accuracy: outcome.prev_accuracy,
            dropped: &outcome.dropped,
            dropouts: &outcome.dropouts,
            mean_staleness,
            bytes_uplinked: outcome.net.map_or(0, |n| n.bytes_uplinked),
        });
        RoundRecord {
            round,
            participants: outcome.participants,
            plans: outcome.plans,
            round_time_s: outcome.round_time_s,
            active_energy_j: outcome.active_energy_j,
            idle_energy_j: idle_energy,
            accuracy,
            dropped: outcome.dropped,
            update_fractions: outcome.fractions,
            dropouts: outcome.dropouts,
            ineligible: outcome.ineligible,
            dispatch_time_s,
            logical_time_s: self.clock_s,
            mean_staleness,
            net: outcome.net,
            adversarial: outcome.adversarial,
            flagged: outcome.flagged,
        }
    }

    /// Check-in, selection and execution of one cohort — everything up to
    /// (but not including) aggregation, lifecycle advancement and
    /// feedback, which [`Simulation::run_round_shadowed`] performs
    /// immediately and the event-driven runtime (`crate::runtime`)
    /// defers to scheduled events. Both call this in strictly increasing
    /// dispatch order, so the sequential engine RNG consumes draws
    /// identically. The phases: `check_in`, `select`, `execute`,
    /// `resolve_fates` (one [`Fate`] per participant), then accounting
    /// that derives every outcome list from the fates.
    pub(crate) fn dispatch_round(
        &mut self,
        selector: &mut dyn Selector,
        round: usize,
        shadow: Option<&mut dyn Selector>,
    ) -> (DispatchOutcome, Option<SelectionDecision>) {
        let ineligible = self.check_in(round);
        let prev_accuracy = self.engine.accuracy();
        // The uplink carries the *encoded* update, so the communication
        // path (Eq. 3) prices the exact encoded byte count and compression
        // savings flow into PPW.
        let model_params = (self.config.workload.reference_model_bytes() / 4) as usize;
        let (encoded_bytes, codec_fidelity) = match &self.config.network {
            Some(f) => (
                Some(f.encoded_bytes(model_params, round)),
                f.fidelity(round),
            ),
            None => (None, 1.0),
        };
        let (cohort, partitioned, shadow_decision) =
            self.select(selector, shadow, round, prev_accuracy, encoded_bytes);
        let (costs, mut completion, lost) = self.execute(round, &cohort);
        let fates = self.resolve_fates(round, &cohort, &costs, &mut completion, &lost);
        let per_participant_energy: Vec<f64> = (0..fates.len())
            .map(|i| fates[i].energy_j(cohort.roles[i], &costs[i]))
            .collect();
        let with_fate = |keep: fn(&Fate) -> bool| -> Vec<DeviceId> {
            let slots = cohort.participants.iter().zip(&fates);
            slots.filter(|(_, f)| keep(f)).map(|(&id, _)| id).collect()
        };
        // Mid-round dropouts first, then lost uploads, each in participant
        // order.
        let mut dropouts = with_fate(|f| matches!(f, Fate::DroppedOut(_)));
        dropouts.extend(with_fate(|f| *f == Fate::Lost));
        let net = encoded_bytes.map(|bytes| self.net_stats(bytes, &fates, partitioned));
        let (adversarial, flagged) = self.adversary_counts(&cohort.roles, &fates);
        let outcome = DispatchOutcome {
            ineligible: ineligible + partitioned,
            prev_accuracy,
            dropped: with_fate(|f| matches!(f, Fate::Cut(_))),
            fractions: fates.iter().map(|f| f.update_fraction()).collect(),
            round_time_s: completion.iter().copied().fold(0.0, f64::max).max(1e-9),
            // Summed in participant order (never first-come), so the
            // total is bit-identical at any thread count upstream.
            active_energy_j: per_participant_energy.iter().fold(0.0, |sum, e| sum + e),
            codec_fidelity,
            participants: cohort.participants,
            plans: cohort.plans,
            completion,
            per_participant_energy,
            dropouts,
            net,
            adversarial,
            flagged,
        };
        (outcome, shadow_decision)
    }

    /// Lifecycle check-in: evolves every device's session (charging,
    /// foreground, connectivity) and refreshes its stored availability.
    /// Returns how many devices failed check-in; 0 on a static fleet.
    fn check_in(&mut self, round: usize) -> usize {
        match (&self.config.fleet, &mut self.fleet_state) {
            (Some(dynamics), Some(store)) => store.begin_round(dynamics, &self.fleet, round),
            _ => 0,
        }
    }

    /// Selection over the partition-masked pool ([`reachable_pool`]) and
    /// the conditions devices *report* — faulty sensors lie to the server,
    /// while the true conditions drive `execute`. Returns the cohort with
    /// its tasks (uploading `encoded_bytes` under a codec) and roles, the
    /// devices partitions made unreachable, and the shadow's decision.
    fn select(
        &mut self,
        selector: &mut dyn Selector,
        shadow: Option<&mut dyn Selector>,
        round: usize,
        prev_accuracy: f64,
        encoded_bytes: Option<u64>,
    ) -> (Cohort, usize, Option<SelectionDecision>) {
        let (config, store) = (&self.config, self.fleet_state.as_ref());
        let devices = self.fleet.len();
        let (availability, partitioned) =
            reachable_pool(config, devices, store, &mut self.scratch, round);
        // Under OverSelect the context advertises K + extra, so every
        // policy over-provisions without knowing about the straggler
        // layer — clamped to the round's eligible pool: under dynamics
        // fewer than K + extra devices may have checked in.
        let mut params = config.params;
        if let Some(StragglerPolicy::OverSelect { extra }) =
            config.fleet.as_ref().map(|f| f.straggler)
        {
            params.num_participants =
                (params.num_participants.saturating_add(extra)).min(availability.eligible_count());
        }
        let reported = RoundConditions::new(config, &self.fleet, store, round).reported();
        let ctx = RoundContext {
            round,
            fleet: &self.fleet,
            conditions: &reported,
            availability,
            partition: &self.data.partition,
            params: &params,
            workload: config.workload,
            layer_counts: config.workload.reference_layer_counts(),
            prev_accuracy,
        };
        let SelectionDecision {
            mut participants,
            plans,
        } = selector.select(&ctx, &mut self.rng);
        assert_eq!(participants.len(), plans.len(), "selector plan mismatch");
        // Selectors may truncate a fleet-sized candidate list to K; the
        // cohort outlives the round in its record, so drop the excess
        // capacity instead of keeping a fleet-sized buffer per record.
        participants.shrink_to_fit();
        // The shadow draws from its own tagged stream (TAG_SHADOW in
        // docs/determinism.md), so it cannot perturb the main run.
        let shadow_decision = shadow.map(|s| {
            let seed = crate::fleet::shadow_stream_seed(config.seed, round);
            s.select(&ctx, &mut SmallRng::seed_from_u64(seed))
        });
        let task_of = |&id: &DeviceId| {
            let task = ctx.task_for(id);
            let upload_bytes = encoded_bytes.unwrap_or(task.upload_bytes);
            TrainingTask {
                upload_bytes,
                ..task
            }
        };
        // A role is a pure function of `(seed, device)`, so every thread
        // and shard count agrees; `Honest` for all without an adversary.
        let role_of = |id: &DeviceId| {
            let adversary = config.adversary.as_ref();
            adversary.map_or(AdversaryRole::Honest, |a| a.role_of(config.seed, id.0))
        };
        let cohort = Cohort {
            tasks: participants.iter().map(task_of).collect(),
            roles: participants.iter().map(role_of).collect(),
            participants,
            plans,
        };
        (cohort, partitioned, shadow_decision)
    }

    /// Cost execution under the true conditions: each participant's cost
    /// (fanned out in parallel) and projected completion time —
    /// communication only for a free-rider, which skips training — plus
    /// the fabric link's latency, drawn on the `(seed, TAG_NET, round,
    /// id)` stream before the deadline median so a slow link makes a
    /// straggler as slow compute does. Also returns the link's loss coins.
    fn execute(&self, round: usize, cohort: &Cohort) -> (Vec<RoundCost>, Vec<f64>, Vec<bool>) {
        let truth =
            RoundConditions::new(&self.config, &self.fleet, self.fleet_state.as_ref(), round);
        let participants = &cohort.participants;
        let costs = participant_costs(
            &self.fleet,
            participants,
            &cohort.plans,
            &cohort.tasks,
            &truth,
        );
        let mut lost = vec![false; costs.len()];
        let mut completion = Vec::with_capacity(costs.len());
        for (i, (id, cost)) in participants.iter().zip(&costs).enumerate() {
            let mut time_s = match cohort.roles[i] {
                AdversaryRole::FreeRider => cost.comm_time_s,
                _ => cost.total_time_s(),
            };
            if let Some(fabric) = &self.config.network {
                let weak = truth.get(id.0).network.signal == SignalStrength::Weak;
                let mut link_rng = crate::fabric::net_stream(self.config.seed, round, id.0);
                let draw = fabric
                    .link
                    .draw(self.fleet.device(*id).tier(), weak, &mut link_rng);
                time_s += draw.latency_s;
                lost[i] = draw.dropped;
            }
            completion.push(time_s);
        }
        (costs, completion, lost)
    }

    /// Deadline and fate. The straggler deadline is the median completion
    /// time *projected* at dispatch × the deadline factor (× the grace of
    /// bounded waiting): a server sets it when it hands out work and
    /// cannot foresee that a device will die mid-round, so a dropout
    /// still counts its full projected time (pinned by
    /// `deadline_is_projected_not_truncated_by_dropouts`). A mid-round
    /// dropout decides a fate first (a device that died never sent, so
    /// its loss coin is moot), then a lost upload, then the deadline;
    /// each completion time is clamped to the time actually spent.
    fn resolve_fates(
        &self,
        round: usize,
        cohort: &Cohort,
        costs: &[RoundCost],
        completion: &mut [f64],
        lost: &[bool],
    ) -> Vec<Fate> {
        let mut deadline = median(completion) * self.config.straggler_deadline_factor;
        if let Some(StragglerPolicy::WaitBounded { grace }) =
            self.config.fleet.as_ref().map(|f| f.straggler)
        {
            deadline *= grace;
        }
        let accepts_partial = self.config.algorithm.accepts_partial_updates();
        let dynamics = self.config.fleet.as_ref().zip(self.fleet_state.as_ref());
        let mut fates = Vec::with_capacity(completion.len());
        for (i, &id) in cohort.participants.iter().enumerate() {
            let energy_j = costs[i].total_energy_j();
            let dropout = dynamics.and_then(|(d, store)| {
                store.mid_round_dropout(d, &self.fleet, round, id, energy_j)
            });
            let t = completion[i];
            let (fate, spent_s) = match dropout {
                Some(frac) => (Fate::DroppedOut(frac), (t * frac).min(deadline)),
                None if lost[i] => (Fate::Lost, t.min(deadline)),
                None if t > deadline && accepts_partial => {
                    (Fate::Partial((deadline / t).clamp(0.05, 1.0)), deadline)
                }
                None if t > deadline => (Fate::Cut((deadline / t).clamp(0.0, 1.0)), deadline),
                None => (Fate::Survived, t),
            };
            completion[i] = spent_s;
            fates.push(fate);
        }
        fates
    }

    /// The fabric's byte accounting. Everyone who transmitted pays the
    /// encoded uplink — deadline-cut stragglers too (the server discards
    /// the late update) and uploads lost after transmission; only
    /// mid-round dropouts never finished sending. Every participant
    /// received the full model on the downlink.
    fn net_stats(&self, encoded_bytes: u64, fates: &[Fate], partitioned: usize) -> RoundNetStats {
        let sent = fates.iter().filter(|f| !matches!(f, Fate::DroppedOut(_)));
        RoundNetStats {
            bytes_uplinked: sent.count() as u64 * encoded_bytes,
            bytes_downlinked: fates.len() as u64 * self.config.workload.reference_model_bytes(),
            net_drops: fates.iter().filter(|f| **f == Fate::Lost).count(),
            partitioned,
        }
    }

    /// The adversary counters of the round record, `None` without an
    /// adversary: how many participants misbehave, and how many of their
    /// surviving updates the server neutralises — free-riders' zero-work
    /// updates always, poisoned or scaled ones under a robust aggregator.
    fn adversary_counts(
        &self,
        roles: &[AdversaryRole],
        fates: &[Fate],
    ) -> (Option<usize>, Option<usize>) {
        if self.config.adversary.is_none() {
            return (None, None);
        }
        let robust = self.config.algorithm.poison_robustness() > 0.0;
        let neutralised = |(role, fate): &(&AdversaryRole, &Fate)| {
            fate.update_fraction() > 0.0
                && match role {
                    AdversaryRole::FreeRider => true,
                    AdversaryRole::Poisoner | AdversaryRole::Scaler => robust,
                    _ => false,
                }
        };
        let adversarial = roles.iter().filter(|r| r.is_adversarial()).count();
        let flagged = roles.iter().zip(fates).filter(neutralised).count();
        (Some(adversarial), Some(flagged))
    }

    /// Idle energy of every non-participant over a round of
    /// `round_time_s` seconds (Eq. 5 else branch), summed in fleet order.
    pub(crate) fn idle_energy_for(&mut self, participants: &[DeviceId], round_time_s: f64) -> f64 {
        let is_participant = &mut self.scratch.is_participant;
        is_participant.clear();
        is_participant.resize(self.fleet.len(), false);
        for id in participants {
            is_participant[id.0] = true;
        }
        if self.scratch.tiers.len() != self.fleet.len() {
            self.scratch.tiers = self.fleet.iter().map(|d| d.tier()).collect();
        }
        // `idle_energy_j` is a pure function of the (three-valued) tier,
        // so the three possible addends are computed once and the fleet
        // walk reduces to a mask test plus a table lookup. The sum still
        // visits devices in fleet order, one addition each — bit-identical
        // to calling `idle_energy_j` per device.
        let idle = |tier| idle_energy_j(tier, round_time_s);
        let per_tier = [
            idle(DeviceTier::High),
            idle(DeviceTier::Mid),
            idle(DeviceTier::Low),
        ];
        let mut idle_energy = 0.0;
        for (tier, participant) in self.scratch.tiers.iter().zip(&self.scratch.is_participant) {
            if !participant {
                idle_energy += per_tier[match tier {
                    DeviceTier::High => 0,
                    DeviceTier::Mid => 1,
                    DeviceTier::Low => 2,
                }];
            }
        }
        idle_energy
    }

    /// Applies one aggregation step: folds the surviving updates —
    /// `survivors` with their (possibly staleness-discounted) update
    /// fractions, in `(round, participant-slot)` order — into the global
    /// model and returns the new test accuracy. Called exactly once per
    /// round under a barrier; buffered aggregation calls it once per
    /// buffer flush, with updates that may span several dispatched
    /// cohorts.
    pub(crate) fn aggregate_update(
        &mut self,
        survivors: Vec<DeviceId>,
        mut survivor_fractions: Vec<f64>,
    ) -> f64 {
        // Adversary accounting, before any mass is computed. Free-riders
        // transmitted a zero-work update, so the server holds no usable
        // update mass for them — their fraction is zeroed here, removing
        // them from every downstream statistic exactly like a lost
        // upload. Poisoners and scalers *do* contribute mass, but it is
        // hostile: the severity-weighted share of cohort mass they
        // control becomes the surrogate's poison-impact input (real
        // training applies their actually-corrupted deltas instead).
        // Exactly 0.0 — and no branch taken — when the subsystem is off.
        let mut poison = 0.0f64;
        if let Some(adv) = self.config.adversary {
            let mut total_mass = 0.0f64;
            let mut poisoned_mass = 0.0f64;
            for (id, f) in survivors.iter().zip(survivor_fractions.iter_mut()) {
                let role = adv.role_of(self.config.seed, id.0);
                if role == AdversaryRole::FreeRider {
                    *f = 0.0;
                }
                let w = self.data.partition.device_sample_count(id.0) as f64 * *f;
                total_mass += w;
                poisoned_mass += w * role.poison_severity(adv.scale_factor);
            }
            if total_mass > 0.0 {
                poison = (poisoned_mass / total_mass).clamp(0.0, 1.0);
            }
        }
        let effective_samples: f64 = survivors
            .iter()
            .zip(&survivor_fractions)
            .map(|(id, f)| self.data.partition.device_sample_count(id.0) as f64 * f)
            .sum();
        let survivor_ids: Vec<usize> = if self.config.adversary.is_some() {
            // Zero-mass (free-rider) survivors contributed no gradient,
            // so they must not count toward class coverage either.
            survivors
                .iter()
                .zip(&survivor_fractions)
                .filter(|(_, &f)| f > 0.0)
                .map(|(id, _)| id.0)
                .collect()
        } else {
            survivors.iter().map(|id| id.0).collect()
        };
        #[cfg(debug_assertions)]
        if effective_samples > 0.0 {
            // The aggregation invariant behind partial FedAvg: the
            // survivors' effective sample masses renormalise to weights
            // summing to exactly 1.0.
            let effectives: Vec<f64> = survivors
                .iter()
                .zip(&survivor_fractions)
                .map(|(id, f)| self.data.partition.device_sample_count(id.0) as f64 * f)
                .collect();
            let weights = crate::fleet::survivor_weights(&effectives);
            debug_assert_eq!(
                weights.iter().sum::<f64>().to_bits(),
                1.0f64.to_bits(),
                "partial aggregation must reweight survivors to exactly 1"
            );
        }
        let mean_member_divergence = if effective_samples > 0.0 {
            survivors
                .iter()
                .zip(&survivor_fractions)
                .map(|(id, f)| {
                    let w = self.data.partition.device_sample_count(id.0) as f64 * f;
                    self.data.partition.device_divergence(id.0) * w
                })
                .sum::<f64>()
                / effective_samples
        } else {
            0.0
        };
        let stats = CohortStats {
            participants: survivors,
            update_fractions: survivor_fractions,
            effective_samples,
            class_coverage: self.data.partition.cohort_class_coverage(&survivor_ids),
            divergence: self.data.partition.cohort_divergence(&survivor_ids),
            mean_member_divergence,
            local_epochs: self.config.params.local_epochs,
            batch_size: self.config.params.batch_size,
            poison,
        };
        self.engine.apply_round(&stats)
    }

    /// Runs until the target accuracy is reached (plus nothing) or
    /// `max_rounds`, whichever comes first, and returns the result.
    pub fn run(&mut self, selector: &mut dyn Selector) -> SimResult {
        self.run_with(selector, &mut [])
            .expect("a run without observers cannot fail")
    }

    /// Like [`Simulation::run`], with [`crate::observe::RoundObserver`]s
    /// seeing every round as it completes (and the final result, if the
    /// run converges). Observers cannot perturb the simulation: they only
    /// borrow the records the run produces anyway. An observer whose
    /// writer fails (closed pipe, full disk) stops the run at that round
    /// and surfaces the error.
    pub fn run_with(
        &mut self,
        selector: &mut dyn Selector,
        observers: &mut [&mut dyn crate::observe::RoundObserver],
    ) -> std::io::Result<SimResult> {
        let label = selector.name().to_string();
        self.run_labeled(selector, label, observers)
    }

    /// Like [`Simulation::run_with`], labelling the result `policy`
    /// instead of the selector's own name — so observers (and the
    /// returned result) agree on the reporting name when a
    /// [`crate::policy::Policy`] labels itself differently from the
    /// selector it mints (e.g. [`crate::policy::TunedPolicy`]).
    pub fn run_labeled(
        &mut self,
        selector: &mut dyn Selector,
        policy: String,
        observers: &mut [&mut dyn crate::observe::RoundObserver],
    ) -> std::io::Result<SimResult> {
        let mut run = crate::runtime::EventDrivenRun::new(self);
        while run.step(self, selector, observers)?.is_some() {}
        let result = run.into_result(policy);
        if result.converged() {
            for obs in observers.iter_mut() {
                obs.on_converged(&result)?;
            }
        }
        Ok(result)
    }

    /// Replaces the global training parameters `(B, E, K)` mid-run — the
    /// mutation hook behind per-round convergence control
    /// ([`crate::serve::ConvergenceController`] driving
    /// [`crate::policy::Policy::tune`] each round). The surrogate
    /// engine's nominal cohort mass stays pinned to the *initial*
    /// parameters, so tuning `K` shifts the effective-sample factor
    /// exactly as fielding a smaller cohort would.
    pub fn set_params(&mut self, params: GlobalParams) {
        self.config.params = params;
    }

    /// Serializes the simulation's live mutable state — the sequential
    /// engine RNG position, the accuracy engine (global model or
    /// surrogate curve + noise stream), the fleet lifecycle store, the
    /// logical clock and the (possibly controller-tuned) global
    /// parameters. Everything else (fleet, dataset, scratch, condition
    /// streams) is a deterministic function of [`SimConfig`] and is
    /// rebuilt by [`Simulation::new`] on resume, not checkpointed.
    pub fn state_snapshot(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("clock_s".to_string(), self.clock_s.to_value()),
            ("rng".to_string(), self.rng.state().to_vec().to_value()),
            ("params".to_string(), self.config.params.to_value()),
            ("engine".to_string(), self.engine.state_snapshot()),
            (
                "fleet_state".to_string(),
                match &self.fleet_state {
                    Some(store) => store.state_snapshot(),
                    None => serde::Value::Null,
                },
            ),
        ])
    }

    /// Restores the state captured by [`Simulation::state_snapshot`] onto
    /// a freshly built simulation of the *same* [`SimConfig`]. After
    /// this, continuing the run reproduces the uninterrupted run bit for
    /// bit (pinned in `tests/checkpoint.rs`).
    pub fn state_restore(&mut self, value: &serde::Value) -> Result<(), serde::Error> {
        use serde::field;
        self.clock_s = field(value, "clock_s")?;
        let rng_words: Vec<u64> = field(value, "rng")?;
        let rng_state: [u64; 4] = rng_words
            .try_into()
            .map_err(|_| serde::Error::custom("engine rng state must have 4 words").at("rng"))?;
        self.rng = SmallRng::from_state(rng_state);
        self.config.params = field(value, "params")?;
        self.engine
            .state_restore(serde::field_or_null(value, "engine"))
            .map_err(|e| e.at("engine"))?;
        match (
            &mut self.fleet_state,
            serde::field_or_null(value, "fleet_state"),
        ) {
            (Some(store), v @ serde::Value::Map(_)) => {
                store.state_restore(v).map_err(|e| e.at("fleet_state"))?
            }
            (None, serde::Value::Null) => {}
            (state, v) => {
                return Err(serde::Error::custom(format!(
                    "fleet_state mismatch: config {} dynamics, checkpoint holds {}",
                    if state.is_some() {
                        "enables"
                    } else {
                        "disables"
                    },
                    v.kind(),
                )))
            }
        }
        Ok(())
    }
}

/// Mixes the master seed and the round index into the seed of the round's
/// per-device condition streams (SplitMix64 finalizer, so neighbouring
/// rounds land far apart in seed space).
fn round_stream_seed(seed: u64, round: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x001c_0d17_1015_u64)
        .wrapping_add((round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The round's check-in pool: the lifecycle store's availability (or the
/// static all-ideal fleet) intersected with any active network partition
/// — devices inside an active rule cannot reach the server, so they fail
/// check-in too. Returns the view and how many devices only the partition
/// excluded. Rounds without an active rule (and runs without a fabric)
/// build no mask and allocate nothing.
fn reachable_pool<'a>(
    config: &SimConfig,
    devices: usize,
    store: Option<&'a FleetStore>,
    scratch: &'a mut RoundScratch,
    round: usize,
) -> (AvailabilityView<'a>, usize) {
    let base = match store {
        Some(store) => AvailabilityView::Dynamic(store),
        None => AvailabilityView::Ideal { devices },
    };
    let partitions = config.network.as_ref().map(|f| &f.partitions);
    let Some(partitions) = partitions.filter(|p| p.is_active(round)) else {
        return (base, 0);
    };
    let (reachable, bins) = (&mut scratch.reachable, &mut scratch.masked_bins);
    reachable.clear();
    reachable.resize(devices, false);
    bins.clear();
    bins.extend(base.bins());
    let mut count = 0;
    for bin in bins.iter_mut() {
        let ids = bin.offset..bin.offset + bin.len;
        bin.eligible = 0;
        for (id, ok) in ids.clone().zip(&mut reachable[ids]) {
            *ok = base.is_eligible(id) && !partitions.unreachable(round, id);
            bin.eligible += *ok as usize;
        }
        count += bin.eligible;
    }
    let view = AvailabilityView::Masked {
        eligible: reachable,
        bins,
        count,
        store,
    };
    (view, base.eligible_count() - count)
}

/// Median of `values` (0 for none).
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::{ClusterSelector, RandomSelector};

    #[test]
    fn tiny_simulation_runs_and_converges() {
        let mut sim = Simulation::new(SimConfig::tiny_test(1));
        let result = sim.run(&mut RandomSelector::new());
        assert!(!result.records.is_empty());
        assert!(result.converged(), "final acc {}", result.final_accuracy());
        assert!(result.energy_to_target_j() > 0.0);
        assert!(result.time_to_target_s() > 0.0);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let run = || {
            let mut sim = Simulation::new(SimConfig::tiny_test(7));
            sim.run(&mut RandomSelector::new())
        };
        let (a, b) = (run(), run());
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(b.records.iter()) {
            assert_eq!(ra.participants, rb.participants);
            assert_eq!(ra.accuracy, rb.accuracy);
            assert_eq!(ra.total_energy_j(), rb.total_energy_j());
        }
    }

    #[test]
    fn smoke_profile_converges_quickly() {
        let mut sim = Simulation::new(SimConfig::smoke(1));
        let result = sim.run(&mut RandomSelector::new());
        assert!(
            result.converged(),
            "smoke run stalled at {}",
            result.final_accuracy()
        );
        // Pin the fast-smoke contract: convergence must land well inside
        // the 250-round horizon, not scrape against it.
        assert!(
            result.records.len() < 200,
            "smoke profile slowed down: {} rounds",
            result.records.len()
        );
    }

    #[test]
    fn performance_policy_has_faster_rounds_than_power() {
        let mut cfg = SimConfig::paper_default(Workload::CnnMnist);
        cfg.max_rounds = 30;
        let perf = Simulation::new(cfg.clone()).run(&mut ClusterSelector::performance());
        let power = Simulation::new(cfg).run(&mut ClusterSelector::power());
        assert!(
            perf.mean_round_time_s() < power.mean_round_time_s(),
            "perf {} vs power {}",
            perf.mean_round_time_s(),
            power.mean_round_time_s()
        );
    }

    #[test]
    fn fedavg_drops_stragglers_but_fednova_keeps_partial() {
        let mut cfg = SimConfig::paper_default(Workload::CnnMnist);
        cfg.scenario = VarianceScenario::with_interference();
        cfg.max_rounds = 20;
        cfg.straggler_deadline_factor = 1.3;
        let avg = Simulation::new(cfg.clone()).run(&mut RandomSelector::new());
        cfg.algorithm = AggregationAlgorithm::FedNova;
        let nova = Simulation::new(cfg).run(&mut RandomSelector::new());
        let drops = |r: &SimResult| -> usize { r.records.iter().map(|x| x.dropped.len()).sum() };
        assert!(drops(&avg) > 0, "interference should create stragglers");
        assert_eq!(drops(&nova), 0, "FedNova accepts partial updates");
    }

    #[test]
    fn round_energy_includes_idle_fleet() {
        let mut sim = Simulation::new(SimConfig::tiny_test(3));
        let rec = sim.run_round(&mut RandomSelector::new(), 0);
        assert!(rec.idle_energy_j > 0.0);
        assert!(rec.active_energy_j > 0.0);
        assert_eq!(rec.participants.len(), 4);
    }

    #[test]
    fn disabled_fleet_block_reports_a_static_available_fleet() {
        let mut cfg = SimConfig::tiny_test(5);
        cfg.max_rounds = 6;
        cfg.target_accuracy = Some(1.1);
        let result = Simulation::new(cfg).run(&mut RandomSelector::new());
        for rec in &result.records {
            assert!(rec.dropouts.is_empty(), "static fleets never drop out");
            assert_eq!(rec.ineligible, 0, "static fleets are always eligible");
        }
    }

    #[test]
    fn fleet_dynamics_create_dropouts_churn_and_reweighted_survivors() {
        let mut cfg = SimConfig::smoke(8);
        cfg.max_rounds = 30;
        cfg.target_accuracy = Some(1.1);
        cfg.fleet = Some(crate::fleet::FleetDynamics::with_dropout_rate(0.4));
        let result = Simulation::new(cfg).run(&mut RandomSelector::new());
        let dropouts: usize = result.records.iter().map(|r| r.dropouts.len()).sum();
        assert!(dropouts > 0, "40% churn must produce mid-round dropouts");
        assert!(
            result.records.iter().any(|r| r.ineligible > 0),
            "sessions and battery gates must make some devices ineligible"
        );
        for rec in &result.records {
            for id in &rec.dropouts {
                assert!(
                    rec.participants.contains(id),
                    "dropout outside the selection"
                );
                assert!(
                    !rec.dropped.contains(id),
                    "dropouts and stragglers must stay disjoint"
                );
                let i = rec.participants.iter().position(|p| p == id).unwrap();
                assert_eq!(
                    rec.update_fractions[i], 0.0,
                    "a dropout contributes no update"
                );
            }
            assert_eq!(
                rec.survivors().len(),
                rec.participants.len() - rec.dropouts.len() - rec.dropped.len(),
                "survivors = participants minus dropouts minus stragglers"
            );
        }
    }

    #[test]
    fn overselect_provisions_extra_participants() {
        let mut cfg = SimConfig::smoke(3);
        cfg.max_rounds = 8;
        cfg.target_accuracy = Some(1.1);
        // Calm dynamics: nobody churns, so the whole fleet is eligible
        // and the over-provisioned K is always realised.
        let calm = crate::fleet::FleetDynamics {
            foreground_prob: 0.0,
            offline_prob: 0.0,
            mid_round_drop_prob: 0.0,
            initial_soc_min: 1.0,
            initial_soc_max: 1.0,
            ..crate::fleet::FleetDynamics::realistic()
        };
        cfg.fleet = Some(calm.straggler(crate::fleet::StragglerPolicy::OverSelect { extra: 5 }));
        let k = cfg.params.num_participants;
        let result = Simulation::new(cfg).run(&mut RandomSelector::new());
        for rec in &result.records {
            assert_eq!(rec.participants.len(), k + 5, "round {}", rec.round);
        }
    }

    #[test]
    fn overselect_clamps_to_the_eligible_pool_under_dynamics() {
        // Validation rejects K + extra > N, so the fleet size never
        // binds at dispatch; under dynamics the advertised cohort is
        // bounded by the round's *eligible* pool instead — never a
        // promise the policy cannot realise.
        let mut cfg = SimConfig::smoke(9);
        cfg.max_rounds = 12;
        cfg.target_accuracy = Some(1.1);
        let stormy = crate::fleet::FleetDynamics {
            foreground_prob: 0.5,
            offline_prob: 0.4,
            ..crate::fleet::FleetDynamics::realistic()
        };
        cfg.fleet = Some(stormy.straggler(crate::fleet::StragglerPolicy::OverSelect { extra: 19 }));
        let n = cfg.num_devices;
        let k = cfg.params.num_participants;
        let result = Simulation::new(cfg).run(&mut RandomSelector::new());
        assert!(
            result.records.iter().any(|r| n - r.ineligible < k + 19),
            "dynamics must shrink the eligible pool below K + extra"
        );
        for rec in &result.records {
            assert_eq!(
                rec.participants.len(),
                (n - rec.ineligible).min(k + 19),
                "round {}: cohort must fill min(K + extra, eligible)",
                rec.round
            );
        }
    }

    #[test]
    fn deadline_is_projected_not_truncated_by_dropouts() {
        // The straggler deadline is the median of completion times
        // *projected at dispatch*: a device that dies at 10% of the
        // round still contributes its full projected time, because the
        // server sets the deadline when it hands out work and cannot
        // foresee deaths. Two fleets differing only in mid-round dropout
        // probability therefore cut exactly the same stragglers — minus
        // those that dropped out before the deadline could cut them.
        let run = |drop_prob: f64| {
            let mut cfg = SimConfig::smoke(17);
            cfg.scenario = VarianceScenario::with_interference();
            cfg.straggler_deadline_factor = 1.3;
            let calm = crate::fleet::FleetDynamics {
                foreground_prob: 0.0,
                offline_prob: 0.0,
                initial_soc_min: 1.0,
                initial_soc_max: 1.0,
                mid_round_drop_prob: drop_prob,
                ..crate::fleet::FleetDynamics::realistic()
            };
            cfg.fleet = Some(calm.straggler(crate::fleet::StragglerPolicy::Drop));
            Simulation::new(cfg).run_round(&mut RandomSelector::new(), 0)
        };
        let without = run(0.0);
        let with = run(0.9);
        assert_eq!(
            without.participants, with.participants,
            "dropout probability must not perturb dispatch"
        );
        assert!(!with.dropouts.is_empty(), "90% churn must kill devices");
        assert!(
            !without.dropped.is_empty(),
            "interference must create stragglers"
        );
        let expected: Vec<DeviceId> = without
            .dropped
            .iter()
            .copied()
            .filter(|id| !with.dropouts.contains(id))
            .collect();
        assert_eq!(
            with.dropped, expected,
            "dropouts must not move the deadline for the survivors"
        );
    }

    #[test]
    fn wait_bounded_keeps_updates_that_drop_would_cut() {
        let mut cfg = SimConfig::smoke(6);
        cfg.scenario = VarianceScenario::with_interference();
        cfg.straggler_deadline_factor = 1.3;
        cfg.max_rounds = 15;
        cfg.target_accuracy = Some(1.1);
        let calm = crate::fleet::FleetDynamics {
            foreground_prob: 0.0,
            offline_prob: 0.0,
            mid_round_drop_prob: 0.0,
            ..crate::fleet::FleetDynamics::realistic()
        };
        let misses = |straggler| {
            let mut cfg = cfg.clone();
            cfg.fleet = Some(calm.clone().straggler(straggler));
            let result = Simulation::new(cfg).run(&mut RandomSelector::new());
            result
                .records
                .iter()
                .map(|r| r.dropped.len())
                .sum::<usize>()
        };
        let dropped = misses(crate::fleet::StragglerPolicy::Drop);
        let waited = misses(crate::fleet::StragglerPolicy::WaitBounded { grace: 2.0 });
        assert!(dropped > 0, "interference must create stragglers");
        assert!(
            waited < dropped,
            "waiting must keep updates: {waited} vs {dropped}"
        );
    }

    /// The eager reference for [`RoundConditions`]: the whole fleet
    /// sampled into a store with the throttles overlaid, and a copy with
    /// the faulty sensors' lies written over their slots.
    fn eager_conditions(
        sim: &Simulation,
        round: usize,
    ) -> (
        autofl_device::store::ConditionsStore,
        autofl_device::store::ConditionsStore,
    ) {
        let cfg = &sim.config;
        let mut truth = autofl_device::store::ConditionsStore::new(sim.fleet.len(), cfg.shards);
        cfg.scenario
            .sample_into(&sim.fleet, round_stream_seed(cfg.seed, round), &mut truth);
        if let Some(store) = &sim.fleet_state {
            store.overlay_throttle(&mut truth);
        }
        let mut reported = truth.clone();
        if let Some(adv) = &cfg.adversary {
            for id in 0..sim.fleet.len() {
                if adv.role_of(cfg.seed, id) == AdversaryRole::FaultySensor {
                    let lie = AdversaryConfig::corrupt_report(&mut adv_stream(cfg.seed, round, id));
                    reported.set(id, &lie);
                }
            }
        }
        (truth, reported)
    }

    #[test]
    fn lazy_round_conditions_equal_the_eager_fleet_sample() {
        let dynamics = crate::fleet::FleetDynamics::realistic();
        let liars = AdversaryConfig {
            faulty_sensor_fraction: 0.3,
            ..AdversaryConfig::poisoning(0.0)
        };
        let worlds = [
            ("static", None, None),
            ("dynamics", Some(dynamics.clone()), None),
            ("faulty sensors", Some(dynamics), Some(liars)),
        ];
        for shards in [1, 16] {
            for (label, fleet, adversary) in worlds.clone() {
                let mut cfg = SimConfig::smoke(21);
                cfg.scenario = VarianceScenario::realistic();
                cfg.shards = shards;
                cfg.fleet = fleet;
                cfg.adversary = adversary;
                let mut sim = Simulation::new(cfg);
                let mut selector = RandomSelector::new();
                let round = 6;
                for r in 0..round {
                    sim.run_round(&mut selector, r);
                }
                let lazy =
                    RoundConditions::new(&sim.config, &sim.fleet, sim.fleet_state.as_ref(), round);
                let (truth, reported) = eager_conditions(&sim, round);
                assert_eq!(lazy.len(), truth.len());
                for i in 0..truth.len() {
                    let at = format!("{label}, {shards} shards, device {i}");
                    assert_eq!(lazy.get(i), truth.get(i), "{at}");
                    assert_eq!(lazy.reported().get(i), reported.get(i), "{at} (reported)");
                }
                if sim.fleet_state.is_some() {
                    assert!(
                        (0..truth.len()).any(|i| truth.throttle(i) > 0.0),
                        "{label}: training rounds must leave some device throttled"
                    );
                }
                if adversary.is_some() {
                    assert!(
                        (0..truth.len()).any(|i| truth.get(i) != reported.get(i)),
                        "{label}: some faulty sensor must lie"
                    );
                }
            }
        }
    }

    #[test]
    fn no_fleet_sized_conditions_buffer_is_held() {
        for fleet in [None, Some(crate::fleet::FleetDynamics::realistic())] {
            let mut cfg = SimConfig::smoke(4);
            cfg.shards = 4;
            cfg.fleet = fleet;
            let mut sim = Simulation::new(cfg);
            let mut selector = RandomSelector::new();
            for round in 0..5 {
                sim.run_round(&mut selector, round);
            }
            // 0 on a static fleet: nothing per-device is stored there.
            let lifecycle = sim.fleet_state.as_ref().map_or(0, |s| s.size_bytes());
            assert_eq!(
                sim.store_bytes(),
                lifecycle,
                "only the lifecycle store may scale with the fleet"
            );
        }
    }

    #[test]
    fn in_flight_dispatch_outcome_keeps_its_wire_shape() {
        // Checkpoints hold in-flight cohorts as serialized
        // `DispatchOutcome`s, so these keys, in this order, are the
        // contract that lets an older checkpoint resume.
        let mut cfg = SimConfig::smoke(23);
        cfg.fleet = Some(crate::fleet::FleetDynamics::realistic());
        cfg.network = Some(NetworkFabric::new(crate::fabric::LinkModel::calm()));
        cfg.adversary = Some(AdversaryConfig::mixed(0.2));
        cfg.runtime = Some(crate::runtime::AsyncRuntime::buffered(2, 1.0).concurrent_cohorts(2));
        let mut sim = Simulation::new(cfg);
        let mut run = crate::runtime::EventDrivenRun::new(&sim);
        let mut selector = RandomSelector::new();
        for _ in 0..3 {
            run.step(&mut sim, &mut selector, &mut []).unwrap();
        }
        let snapshot = run.state_snapshot();
        let Some(serde::Value::Seq(in_flight)) = snapshot.get("in_flight") else {
            panic!("the snapshot lists its in-flight cohorts");
        };
        assert!(
            !in_flight.is_empty(),
            "two concurrent cohorts: one in flight"
        );
        for cohort in in_flight {
            let outcome = cohort.get("state").and_then(|s| s.get("outcome"));
            let Some(serde::Value::Map(fields)) = outcome else {
                panic!("an in-flight cohort holds its outcome");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "ineligible",
                    "prev_accuracy",
                    "participants",
                    "plans",
                    "completion",
                    "fractions",
                    "per_participant_energy",
                    "dropped",
                    "dropouts",
                    "round_time_s",
                    "active_energy_j",
                    "net",
                    "codec_fidelity",
                    "adversarial",
                    "flagged",
                ]
            );
        }
    }
}
