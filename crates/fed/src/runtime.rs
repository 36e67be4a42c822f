//! Deterministic discrete-event runtime on logical time — the one
//! multi-round driver.
//!
//! Every run replays its cohorts as *timestamped events* on a logical
//! clock: device check-in/training/upload durations come from the
//! per-device cost model, and a cohort's completion event aggregates it,
//! advances lifecycles and feeds it back. The server may aggregate
//! asynchronously, FedBuff-style: updates accumulate in a buffer of size
//! `M` and each is discounted by its staleness (the number of global
//! aggregation steps that happened since its cohort was dispatched) with
//! weight `1 / (1 + staleness)^a`.
//!
//! Two contracts make this safe:
//!
//! 1. **Barrier equivalence.** [`AsyncRuntime::barrier`] (buffer = whole
//!    cohort, staleness exponent 0, one cohort in flight) — also what
//!    `SimConfig::runtime = None` runs — reproduces a hand-stepped loop
//!    of [`Simulation::run_round`] *bit for bit*: same selections, plans,
//!    energies, accuracies and logical times, pinned for every
//!    registered policy in `tests/async_runtime.rs`.
//! 2. **Determinism.** The event loop runs in-process on a
//!    [`std::collections::BinaryHeap`] ordered by `(time, sequence)`;
//!    all stochastic inputs flow through the engine's existing seeded
//!    streams, so the same seed reproduces a run bit for bit at any
//!    `AUTOFL_THREADS` or shard count (see `docs/async-runtime.md`).

use crate::engine::{DispatchOutcome, RoundRecord, SimResult, Simulation};
use crate::observe::RoundObserver;
use crate::selection::Selector;
use autofl_device::fleet::DeviceId;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Configuration of the event-driven asynchronous aggregation runtime.
///
/// Attach one to a simulation with
/// [`crate::builder::SimBuilder::runtime`] (or by setting
/// [`crate::engine::SimConfig::runtime`] on a profile); `None` runs
/// [`AsyncRuntime::barrier`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsyncRuntime {
    /// Server aggregation buffer size `M`: the global model folds in
    /// buffered updates as soon as `M` have arrived. `None` is the full
    /// barrier — each cohort aggregates exactly when its slowest
    /// surviving member finishes: synchronous FedAvg.
    pub buffer_size: Option<usize>,
    /// Staleness-discount exponent `a` in `1 / (1 + staleness)^a`.
    /// `0.0` weights every update fully regardless of staleness.
    pub staleness_exponent: f64,
    /// Number of cohorts in flight at once. The scheduler keeps this
    /// many dispatched: a new cohort starts the moment one completes.
    /// `1` is sequential dispatch (required for barrier equivalence).
    pub concurrent_cohorts: usize,
}

impl AsyncRuntime {
    /// The full-barrier special case: aggregate each cohort exactly at
    /// its completion event, no staleness discount, one cohort in
    /// flight. What `SimConfig::runtime = None` runs, and bit-identical
    /// to stepping [`Simulation::run_round`] by hand.
    pub fn barrier() -> Self {
        AsyncRuntime {
            buffer_size: None,
            staleness_exponent: 0.0,
            concurrent_cohorts: 1,
        }
    }

    /// Buffered asynchronous aggregation: fold the global model forward
    /// whenever `buffer_size` updates have arrived, discounting each by
    /// `1 / (1 + staleness)^staleness_exponent`.
    pub fn buffered(buffer_size: usize, staleness_exponent: f64) -> Self {
        AsyncRuntime {
            buffer_size: Some(buffer_size),
            staleness_exponent,
            concurrent_cohorts: 1,
        }
    }

    /// Returns `self` with `cohorts` cohorts kept in flight at once.
    pub fn concurrent_cohorts(mut self, cohorts: usize) -> Self {
        self.concurrent_cohorts = cohorts;
        self
    }
}

/// The staleness discount `1 / (1 + staleness)^exponent` applied to an
/// update that waited `staleness` global aggregation steps in the buffer.
///
/// Exactly `1.0` (not merely approximately) when `staleness == 0` or
/// `exponent == 0.0`, so a fresh update's fraction passes through the
/// multiplication bit-unchanged — the identity the barrier-equivalence
/// contract rests on. Deterministic: a pure function of its arguments.
pub fn staleness_weight(staleness: u64, exponent: f64) -> f64 {
    if staleness == 0 || exponent == 0.0 {
        1.0
    } else {
        (1.0 + staleness as f64).powf(exponent).recip()
    }
}

/// What the scheduler does when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum EventKind {
    /// One participant's update arrives at the server (buffered mode
    /// only; the barrier aggregates whole cohorts at `CohortDone`).
    Upload { round: usize, slot: usize },
    /// A cohort's slowest surviving member finished: close out the
    /// round — aggregate, advance lifecycles, emit the record.
    CohortDone { round: usize },
}

/// A timestamped event. Ordered by `(time, seq)`: `seq` is the global
/// scheduling counter, so simultaneous events fire in the deterministic
/// order they were scheduled (uploads before their cohort's completion).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A dispatched cohort waiting for its events to fire.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct InFlight {
    /// Logical time the cohort was dispatched.
    dispatch_time_s: f64,
    /// Global aggregation version at dispatch; staleness of this
    /// cohort's updates is measured against it.
    version_at_dispatch: u64,
    /// Sum of the staleness values its aggregated updates carried.
    staleness_sum: f64,
    /// How many of its updates have been folded into the global model.
    aggregated: usize,
    /// The cohort's execution outcome, held until completion.
    outcome: DispatchOutcome,
}

/// One update sitting in the server's aggregation buffer.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct BufferedUpdate {
    round: usize,
    slot: usize,
    id: DeviceId,
    fraction: f64,
}

/// The multi-round driver: a resumable discrete-event scheduler that can
/// stop after any emitted record, serialize itself into a checkpoint
/// ([`crate::serve`]), and continue — on this process or a later one —
/// bit-identically to a run that never stopped. [`Simulation::run`] and
/// [`crate::serve::ExperimentRun`] both drive runs through it; with
/// `config.runtime = None` it runs the full barrier.
pub(crate) struct EventDrivenRun {
    rt: AsyncRuntime,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    in_flight: BTreeMap<usize, InFlight>,
    buffer: Vec<BufferedUpdate>,
    /// Global aggregation version: the number of flushes applied so far.
    version: u64,
    target: f64,
    max_rounds: usize,
    /// Completed records in *emission* order (completion order, not round
    /// order): the order round traces stream in, and therefore the order
    /// a checkpoint must replay them in.
    records: Vec<RoundRecord>,
    next_round: usize,
    dispatching: bool,
}

impl EventDrivenRun {
    /// An empty scheduler for `sim`: nothing dispatched yet, so the first
    /// [`EventDrivenRun::step`] starts a fresh run, while
    /// [`EventDrivenRun::state_restore`] continues a checkpointed one.
    pub(crate) fn new(sim: &Simulation) -> Self {
        EventDrivenRun {
            rt: sim.config().runtime.unwrap_or_else(AsyncRuntime::barrier),
            heap: BinaryHeap::new(),
            seq: 0,
            in_flight: BTreeMap::new(),
            buffer: Vec::new(),
            version: 0,
            target: sim.config().target(),
            max_rounds: sim.config().max_rounds,
            records: Vec::new(),
            next_round: 0,
            dispatching: true,
        }
    }

    fn schedule(&mut self, time: f64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { time, seq, kind }));
    }

    /// Dispatches cohort `round` at the simulation's logical clock:
    /// check-in, selection and execution run immediately (consuming the
    /// engine's sequential RNG in dispatch order); upload/completion land
    /// on the heap at their cost-model times.
    fn dispatch(
        &mut self,
        sim: &mut Simulation,
        selector: &mut dyn Selector,
        observers: &mut [&mut dyn RoundObserver],
        round: usize,
    ) -> std::io::Result<()> {
        for obs in observers.iter_mut() {
            obs.on_round_start(round)?;
        }
        let at = sim.clock_s;
        let (outcome, _) = sim.dispatch_round(selector, round, None);
        if self.rt.buffer_size.is_some() {
            // Uploads are scheduled before the cohort's completion so
            // an upload tied with CohortDone at the same instant (the
            // slowest survivor's own update) is buffered first.
            for (slot, _, _) in outcome.survivors() {
                self.schedule(
                    at + outcome.completion[slot],
                    EventKind::Upload { round, slot },
                );
            }
        }
        self.schedule(at + outcome.round_time_s, EventKind::CohortDone { round });
        self.in_flight.insert(
            round,
            InFlight {
                dispatch_time_s: at,
                version_at_dispatch: self.version,
                staleness_sum: 0.0,
                aggregated: 0,
                outcome,
            },
        );
        Ok(())
    }

    /// Folds `entries` into the global model as one aggregation step and
    /// returns the new accuracy. Entries are ordered by `(round, slot)`
    /// — dispatch order, never arrival order — so aggregation is
    /// independent of how uploads interleaved on the clock. Always
    /// aggregates, even with zero entries: the surrogate engine draws
    /// from its RNG once per aggregation step, including a fully-dropped
    /// round's.
    fn flush(&mut self, sim: &mut Simulation, mut entries: Vec<BufferedUpdate>) -> f64 {
        entries.sort_by_key(|e| (e.round, e.slot));
        let mut ids = Vec::with_capacity(entries.len());
        let mut fractions = Vec::with_capacity(entries.len());
        for e in &entries {
            let fl = self
                .in_flight
                .get_mut(&e.round)
                .expect("buffered update from a cohort not in flight");
            let staleness = self.version - fl.version_at_dispatch;
            fl.staleness_sum += staleness as f64;
            fl.aggregated += 1;
            ids.push(e.id);
            // Both discounts are exactly 1.0 in their disabled cases
            // (fresh update / no fabric), so each multiply passes the
            // fraction through bit-unchanged — the barrier-equivalence
            // and fabric-off contracts rest on this. `codec_fidelity` is
            // read per entry: a mixed flush may span cohorts.
            fractions.push(
                e.fraction
                    * staleness_weight(staleness, self.rt.staleness_exponent)
                    * fl.outcome.codec_fidelity,
            );
        }
        let accuracy = sim.aggregate_update(ids, fractions);
        self.version += 1;
        accuracy
    }

    /// Records emitted so far, in emission order.
    pub(crate) fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Tops the pipeline up to `concurrent_cohorts` cohorts at the
    /// current clock, then fires events until the next cohort completes
    /// and returns its record (also appended to
    /// [`EventDrivenRun::records`]), or `None` once the run has drained.
    /// Dispatching lazily, at the start of a step rather than the end of
    /// the previous one, lets a caller retune the parameters between two
    /// steps and have the retune reach the very next cohort. The state
    /// between two `step` calls is exactly what
    /// [`EventDrivenRun::state_snapshot`] captures.
    pub(crate) fn step(
        &mut self,
        sim: &mut Simulation,
        selector: &mut dyn Selector,
        observers: &mut [&mut dyn RoundObserver],
    ) -> std::io::Result<Option<&RoundRecord>> {
        while self.dispatching
            && self.next_round < self.max_rounds
            && self.in_flight.len() < self.rt.concurrent_cohorts.max(1)
        {
            self.dispatch(sim, selector, observers, self.next_round)?;
            self.next_round += 1;
        }
        while let Some(Reverse(event)) = self.heap.pop() {
            sim.clock_s = event.time;
            match event.kind {
                EventKind::Upload { round, slot } => {
                    let outcome = &self.in_flight[&round].outcome;
                    self.buffer.push(BufferedUpdate {
                        round,
                        slot,
                        id: outcome.participants[slot],
                        fraction: outcome.fractions[slot],
                    });
                    if self.rt.buffer_size.is_some_and(|m| self.buffer.len() >= m) {
                        let entries = std::mem::take(&mut self.buffer);
                        self.flush(sim, entries);
                    }
                }
                EventKind::CohortDone { round } => {
                    // The closing aggregation step: the cohort's own
                    // survivors under a barrier; everything still buffered
                    // (this cohort's tail plus any other cohort's early
                    // uploads) under buffered aggregation.
                    let entries: Vec<BufferedUpdate> = if self.rt.buffer_size.is_none() {
                        self.in_flight[&round]
                            .outcome
                            .survivors()
                            .map(|(slot, id, fraction)| BufferedUpdate {
                                round,
                                slot,
                                id,
                                fraction,
                            })
                            .collect()
                    } else {
                        std::mem::take(&mut self.buffer)
                    };
                    let accuracy = self.flush(sim, entries);
                    let fl = self
                        .in_flight
                        .remove(&round)
                        .expect("completed cohort not in flight");
                    let mean_staleness = if fl.aggregated > 0 {
                        fl.staleness_sum / fl.aggregated as f64
                    } else {
                        0.0
                    };
                    let record = sim.complete_round(
                        selector,
                        round,
                        fl.outcome,
                        accuracy,
                        fl.dispatch_time_s,
                        mean_staleness,
                    );
                    for obs in observers.iter_mut() {
                        obs.on_round_end(&record)?;
                    }
                    if record.accuracy >= self.target {
                        // Stop dispatching; cohorts already in flight
                        // drain to completion so no consumed device work
                        // is lost.
                        self.dispatching = false;
                    }
                    self.records.push(record);
                    return Ok(self.records.last());
                }
            }
        }
        Ok(None)
    }

    /// Finishes the run: sorts the emitted records by round (cohorts can
    /// complete out of dispatch order; reports and sinks expect
    /// round-ordered records — logical times stay monotone in
    /// `logical_time_s`, not in round index) and wraps them in a
    /// [`SimResult`].
    pub(crate) fn into_result(self, policy: String) -> SimResult {
        let mut records = self.records;
        records.sort_by_key(|r| r.round);
        SimResult {
            policy,
            target_accuracy: self.target,
            records,
        }
    }

    /// Serializes the full scheduler state — pending events in pop
    /// order, in-flight cohorts (with their execution outcomes), the
    /// aggregation buffer and version, the dispatch cursor, and every
    /// record emitted so far (in emission order, so a resumed trace
    /// replays byte-identically). The logical clock lives in the
    /// simulation's own snapshot.
    pub(crate) fn state_snapshot(&self) -> serde::Value {
        let mut events: Vec<&Event> = self.heap.iter().map(|Reverse(e)| e).collect();
        events.sort();
        let in_flight: Vec<serde::Value> = self
            .in_flight
            .iter()
            .map(|(round, fl)| {
                serde::Value::Map(vec![
                    ("round".to_string(), round.to_value()),
                    ("state".to_string(), fl.to_value()),
                ])
            })
            .collect();
        serde::Value::Map(vec![
            ("seq".to_string(), self.seq.to_value()),
            ("version".to_string(), self.version.to_value()),
            ("events".to_string(), events.to_value()),
            ("in_flight".to_string(), serde::Value::Seq(in_flight)),
            ("buffer".to_string(), self.buffer.to_value()),
            ("records".to_string(), self.records.to_value()),
            ("next_round".to_string(), self.next_round.to_value()),
            ("dispatching".to_string(), self.dispatching.to_value()),
        ])
    }

    /// Restores the state captured by
    /// [`EventDrivenRun::state_snapshot`] onto a fresh
    /// [`EventDrivenRun::new`] for the same config.
    pub(crate) fn state_restore(&mut self, value: &serde::Value) -> Result<(), serde::Error> {
        use serde::field;
        self.seq = field(value, "seq")?;
        self.version = field(value, "version")?;
        let events: Vec<Event> = field(value, "events")?;
        self.heap = events.into_iter().map(Reverse).collect();
        self.in_flight = match serde::field_or_null(value, "in_flight") {
            serde::Value::Seq(items) => items
                .iter()
                .map(|item| {
                    Ok((
                        field::<usize>(item, "round")?,
                        field::<InFlight>(item, "state")?,
                    ))
                })
                .collect::<Result<BTreeMap<usize, InFlight>, serde::Error>>()
                .map_err(|e| e.at("in_flight"))?,
            other => return Err(serde::Error::invalid_type("sequence", other).at("in_flight")),
        };
        self.buffer = field(value, "buffer")?;
        self.records = field(value, "records")?;
        self.next_round = field(value, "next_round")?;
        self.dispatching = field(value, "dispatching")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_weight_is_exactly_one_when_fresh_or_flat() {
        for exponent in [0.0, 0.3, 1.0, 2.5] {
            assert_eq!(staleness_weight(0, exponent).to_bits(), 1.0f64.to_bits());
        }
        for staleness in [0u64, 1, 5, 1000] {
            assert_eq!(staleness_weight(staleness, 0.0).to_bits(), 1.0f64.to_bits());
        }
    }

    #[test]
    fn staleness_weight_decays_monotonically() {
        let mut prev = staleness_weight(0, 0.5);
        for s in 1..20 {
            let w = staleness_weight(s, 0.5);
            assert!(w < prev, "weight must strictly decay at staleness {s}");
            assert!(w > 0.0);
            prev = w;
        }
    }

    #[test]
    fn events_order_by_time_then_sequence() {
        let mut heap = BinaryHeap::new();
        let k = EventKind::CohortDone { round: 0 };
        for (time, seq) in [(2.0, 0), (1.0, 2), (1.0, 1), (3.0, 3)] {
            heap.push(Reverse(Event { time, seq, kind: k }));
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|Reverse(e)| e.seq)).collect();
        assert_eq!(order, vec![1, 2, 0, 3]);
    }

    #[test]
    fn barrier_constructor_is_the_lockstep_special_case() {
        let rt = AsyncRuntime::barrier();
        assert_eq!(rt.buffer_size, None);
        assert_eq!(rt.staleness_exponent, 0.0);
        assert_eq!(rt.concurrent_cohorts, 1);
        let buffered = AsyncRuntime::buffered(8, 0.5).concurrent_cohorts(3);
        assert_eq!(buffered.buffer_size, Some(8));
        assert_eq!(buffered.concurrent_cohorts, 3);
    }
}
