//! `fleet_faults`: four VersaSlot Big.Little shards behind hash placement with
//! spillover, sharing one Poisson stream, with the fault plane on.
//!
//! The measured path is `FleetEngine::run_epochs_on` a one-worker
//! `WorkerPool`, timed in blocks of [`SEGMENT_EPOCHS`] epochs (the engine
//! resumes byte-identically across calls, as its own tests prove).  The checks
//! step the same fleet through `advance_epoch(Sequential)` and run it on a
//! pool of [`pool_workers`]; both must give a byte-identical report.
//! [`replica`] rebuilds the fleet from public parts (`ArrivalDriver`,
//! `ShardRouter`, one `SharingSimulator` per shard) so requests can be timed
//! one by one and their layers split; it must match the engine's report
//! exactly.

use std::collections::VecDeque;
use std::time::Instant;

use versaslot::core::config::SystemConfig;
use versaslot::core::engine::SharingSimulator;
use versaslot::core::fleet::{FleetConfig, FleetEngine, FleetReport};
use versaslot::core::par::{Parallelism, WorkerPool};
use versaslot::core::policy::Policy;
use versaslot::core::runner::SchedulerKind;
use versaslot::sim::{FaultProfile, FaultSchedule, FaultStats, SimDuration, SimTime, Welford};
use versaslot::workload::{AppArrival, ArrivalDriver, ArrivalProcess, BenchmarkApp, ShardRouter};

use crate::trace::{Acc, Clock, PolicyTotals, TimedPolicy};
use crate::{mix, Args, Digest, Laps, Report, Responses};

const SHARDS: usize = 4;
/// Simulated horizon of one run.
const HORIZON_S: u64 = 20_000;
/// Epoch barrier interval (2,000 barriers per run).
const EPOCH_S: u64 = 10;
/// Epochs per timed segment of the measured run (40 segments).
const SEGMENT_EPOCHS: u64 = 50;
/// Pool workers of the measured run.  One, so the pool runs its inline path:
/// on a shared 2-core host a run that needs both cores at every barrier reads
/// the other tenants' load on the second core.  Back-to-back runs of one seed
/// moved `apps_per_s` by 18% with two workers and by 2% with one.
pub const WORKERS: usize = 1;
/// Pool workers of the checking and traced pooled runs, capped by the host's
/// cores; the traced one gives the pool layer's metrics.
const POOL_WORKERS: usize = 2;
/// Latency limit of `sim_slo_miss_share`.
pub const LIMIT_MS: f64 = 10_000.0;
const SEED_SALT: u64 = 0xF1EE_7000;
const FAULT_SALT: u64 = 0xFA17_0000;
const KIND: SchedulerKind = SchedulerKind::VersaSlotBigLittle;

/// Pool workers of the checking and traced pooled runs: [`POOL_WORKERS`], or
/// fewer on a smaller host.
pub fn pool_workers() -> usize {
    POOL_WORKERS.min(crate::nproc())
}

fn config(seed: u64) -> FleetConfig {
    let faults = FaultProfile::new(mix(seed, FAULT_SALT))
        .with_pr_failures(0.05)
        .with_board_failures(SimDuration::from_secs(600), SimDuration::from_secs(10))
        .with_link_flaps(0.05, SimDuration::from_secs(1));
    FleetConfig::new(SHARDS, ArrivalProcess::Poisson { rate_per_sec: 2.4 })
        .with_seed(mix(seed, SEED_SALT))
        .with_horizon(SimDuration::from_secs(HORIZON_S))
        .with_epoch(SimDuration::from_secs(EPOCH_S))
        // One window over the whole run: the timeline is not measured here.
        .with_window(SimDuration::from_secs(HORIZON_S))
        .with_spillover(6, SimDuration::from_millis(50))
        .with_faults(faults)
}

fn setup(seed: u64, workers: usize) -> (FleetEngine, WorkerPool) {
    (
        FleetEngine::new(KIND, config(seed)),
        WorkerPool::new(workers),
    )
}

/// What the measured path leaves behind for the checks.
struct Measured {
    report: FleetReport,
    grow_events: Vec<u64>,
    faults: FaultStats,
}

fn measure((engine, pool): &mut (FleetEngine, WorkerPool), laps: &mut Laps) -> (u64, Measured) {
    while engine.run_epochs_on(pool, SEGMENT_EPOCHS) {
        laps.lap();
    }
    laps.lap();
    let report = engine.report();
    let measured = Measured {
        grow_events: engine.shard_grow_events(),
        faults: engine.fault_stats(),
        report,
    };
    (measured.report.completions, measured)
}

/// Layer spans of the replica.
#[derive(Debug, Default)]
struct Layers {
    arrival: Acc,
    routing: Acc,
    /// Barrier bookkeeping: forwarding latency, in-flight forwards, batch
    /// sorting and delivery, completion snapshots.
    barrier: Acc,
    inject: Acc,
    step: Acc,
    fold: Acc,
}

/// One replica shard: a service spine fed from a routed arrival queue.
struct Shard {
    sim: SharingSimulator,
    queue: VecDeque<AppArrival>,
    injected: u64,
    completions: u64,
    moments: Welford,
    responses_ms: Vec<f64>,
}

impl Shard {
    /// Keeps exactly one routed arrival injected ahead of the simulator.
    fn inject_pending(&mut self) {
        if self.injected == self.sim.arrivals_admitted() {
            if let Some(arrival) = self.queue.pop_front() {
                self.sim.inject_arrival(arrival);
                self.injected += 1;
            }
        }
    }

    fn fold(&mut self, warmup_end: SimTime) {
        let Shard {
            sim,
            completions,
            moments,
            responses_ms,
            ..
        } = self;
        sim.retire_completed(|app| {
            *completions += 1;
            if app.arrival >= warmup_end {
                let completion = app.completion.expect("retired application completed");
                let ms = (completion - app.arrival).as_millis_f64();
                moments.record(ms);
                responses_ms.push(ms);
            }
        });
    }

    /// One epoch of this shard: every event strictly before `barrier`, or on
    /// the final epoch a drive until the first event at or past the horizon.
    fn run_epoch<const ON: bool>(
        &mut self,
        policy: &mut dyn Policy,
        epoch: (SimTime, bool),
        horizon: SimTime,
        warmup_end: SimTime,
        clock: &mut Clock<ON>,
        layers: &mut Layers,
    ) {
        let (barrier, is_final) = epoch;
        loop {
            self.inject_pending();
            clock.lap(&mut layers.inject);
            if is_final {
                let stepped = self.sim.step(policy);
                clock.lap(&mut layers.step);
                if !stepped {
                    break;
                }
            } else {
                match self.sim.next_event_time() {
                    Some(next) if next < barrier => {}
                    _ => break,
                }
                self.sim.step(policy);
                clock.lap(&mut layers.step);
            }
            self.fold(warmup_end);
            clock.lap(&mut layers.fold);
            if is_final && self.sim.now() >= horizon {
                break;
            }
        }
    }
}

/// Outcome of the replica.
struct Replica {
    generated: u64,
    forwarded: u64,
    undelivered: u64,
    epochs: u64,
    shard_events: Vec<u64>,
    completions: u64,
    in_flight: u64,
    moments: Welford,
    responses_ms: Vec<f64>,
    measured_in_flight: u64,
    measured_late: u64,
    grow_events: u64,
}

/// The fleet rebuilt from public parts: route the shared stream epoch by
/// epoch (forwards pay the hop latency plus any fabric link stall), deliver
/// per-shard batches in (time, id) order, run every shard to the barrier in
/// shard order, then hand completion counters back to the router.
fn replica<const ON: bool>(
    config: &FleetConfig,
    policies: &mut [&mut dyn Policy],
    layers: &mut Layers,
) -> Replica {
    let suite = BenchmarkApp::suite();
    let mut shards: Vec<Shard> = (0..config.shards)
        .map(|index| {
            let mut system = SystemConfig::single_board(KIND.board());
            if let Some(profile) = config.shard_fault_profile(index) {
                system = system.with_faults(profile);
            }
            Shard {
                sim: SharingSimulator::for_service(system, suite.clone(), 1),
                queue: VecDeque::new(),
                injected: 0,
                completions: 0,
                moments: Welford::new(),
                responses_ms: Vec::new(),
            }
        })
        .collect();
    let mut driver = ArrivalDriver::new(
        config.process.scaled(config.load),
        suite.len(),
        config.batch_range,
        config.seed,
    );
    let mut router = ShardRouter::new(
        config.placement,
        config.shards,
        config.seed,
        config.spillover_threshold,
    );
    let mut fabric = config.faults.map(|profile| {
        FaultSchedule::new(
            profile.with_seed(profile.seed ^ config.seed.rotate_left(17)),
            1,
        )
    });
    let warmup_end = SimTime::ZERO + config.warmup;
    let horizon = SimTime::ZERO + config.horizon;
    let mut lookahead: Option<AppArrival> = None;
    let mut deferred: Vec<(usize, AppArrival)> = Vec::new();
    let mut due: Vec<Vec<AppArrival>> = vec![Vec::new(); config.shards];
    let (mut generated, mut epochs) = (0u64, 0u64);
    let mut clock = Clock::<ON>::start();
    loop {
        let end = ((epochs + 1) * config.epoch.as_micros()).min(config.horizon.as_micros());
        let barrier = SimTime::from_micros(end);
        let is_final = end >= config.horizon.as_micros();
        deferred.retain(|&(shard, arrival)| {
            let keep = arrival.arrival >= barrier;
            if !keep {
                due[shard].push(arrival);
            }
            keep
        });
        clock.lap(&mut layers.barrier);
        loop {
            let arrival = match lookahead.take() {
                Some(pending) => pending,
                None => driver.next_arrival(),
            };
            clock.lap(&mut layers.arrival);
            if arrival.arrival >= barrier {
                lookahead = Some(arrival);
                break;
            }
            generated += 1;
            let decision = router.route(&arrival);
            clock.lap(&mut layers.routing);
            let delivered = if decision.forwarded {
                let stall = fabric.as_mut().map_or(SimDuration::ZERO, |schedule| {
                    schedule.link_stall(0, arrival.arrival)
                });
                AppArrival::new(
                    arrival.id,
                    arrival.app_index,
                    arrival.batch_size,
                    arrival.arrival + config.forward_latency + stall,
                )
            } else {
                arrival
            };
            if delivered.arrival < barrier {
                due[decision.shard].push(delivered);
            } else {
                deferred.push((decision.shard, delivered));
            }
            clock.lap(&mut layers.barrier);
        }
        for (shard, batch) in shards.iter_mut().zip(due.iter_mut()) {
            batch.sort_by_key(|arrival| (arrival.arrival, arrival.id));
            shard.queue.extend(batch.drain(..));
        }
        clock.lap(&mut layers.barrier);
        for (shard, policy) in shards.iter_mut().zip(policies.iter_mut()) {
            shard.run_epoch(
                *policy,
                (barrier, is_final),
                horizon,
                warmup_end,
                &mut clock,
                layers,
            );
        }
        for (index, shard) in shards.iter().enumerate() {
            router.record_completions(index, shard.completions);
        }
        clock.lap(&mut layers.barrier);
        epochs += 1;
        if is_final {
            break;
        }
    }

    let mut replica = Replica {
        generated,
        forwarded: router.forwarded(),
        undelivered: deferred.len() as u64,
        epochs,
        shard_events: Vec::new(),
        completions: 0,
        in_flight: 0,
        moments: Welford::new(),
        responses_ms: Vec::new(),
        measured_in_flight: 0,
        measured_late: 0,
        grow_events: 0,
    };
    for shard in &mut shards {
        let sim = &shard.sim;
        replica.undelivered += shard.queue.len() as u64;
        replica.shard_events.push(sim.events_processed());
        replica.completions += shard.completions;
        replica.in_flight +=
            sim.active_apps().len() as u64 + (shard.injected - sim.arrivals_admitted());
        replica.moments.merge(&shard.moments);
        replica.responses_ms.append(&mut shard.responses_ms);
        replica.grow_events += sim.event_queue_grow_events();
        for &id in sim.active_apps() {
            let arrival = sim.app(id).arrival;
            if arrival >= warmup_end {
                replica.measured_in_flight += 1;
                if (sim.now() - arrival).as_millis_f64() > LIMIT_MS {
                    replica.measured_late += 1;
                }
            }
        }
    }
    replica
}

fn fresh_policy() -> Box<dyn Policy + Send> {
    KIND.policy().expect("VersaSlot is a sharing policy")
}

/// Steps the fleet sequentially through `advance_epoch`, one span per epoch.
fn sequential(seed: u64) -> (FleetReport, Vec<f64>) {
    let mut engine = FleetEngine::new(KIND, config(seed));
    let mut epoch_ms = Vec::new();
    loop {
        let start = Instant::now();
        let more = engine.advance_epoch(Parallelism::Sequential);
        epoch_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if !more {
            break;
        }
    }
    (engine.report(), epoch_ms)
}

fn serialized(report: &FleetReport) -> String {
    serde_json::to_string(report).expect("fleet report serializes")
}

/// Checks the other runs' reports and the replica against the measured run,
/// records the request accounting and the exact `sim_*` metrics.
fn check_and_report(
    report: &mut Report,
    measured: &Measured,
    others: &[&FleetReport],
    replica: Replica,
) {
    let fleet = &measured.report;
    report.attempted = replica.generated;
    report.lost = replica
        .generated
        .abs_diff(replica.completions + replica.in_flight + replica.undelivered);
    report.check(
        "accounting: generated = completed + in flight + undelivered",
        report.lost == 0,
    );
    report.check(
        "queue never grew on any shard",
        measured.grow_events.iter().all(|&g| g == 0) && replica.grow_events == 0,
    );
    report.check(
        "advance_epoch(Sequential) and pooled reports are byte-identical to the measured one",
        others
            .iter()
            .all(|other| serialized(other) == serialized(fleet)),
    );
    let shard_events: Vec<u64> = fleet
        .shards
        .iter()
        .map(|shard| shard.service.events_processed)
        .collect();
    report.check(
        "replica matches the fleet report: generated, forwarded, undelivered, epochs",
        replica.generated == fleet.arrivals_generated
            && replica.forwarded == fleet.forwarded
            && replica.undelivered == fleet.undelivered
            && replica.epochs == fleet.epochs,
    );
    report.check(
        "replica matches the fleet report: per-shard events, completions",
        replica.shard_events == shard_events
            && replica.completions == fleet.completions
            && replica.moments.count() == fleet.measured_completions,
    );
    report.check(
        "replica matches the fleet report: mean response (bit-exact)",
        fleet.overall.as_ref().map(|s| s.mean.to_bits())
            == replica.moments.mean().map(f64::to_bits),
    );
    let mut digest = Digest::default();
    digest.json(serde_json::to_string(fleet));
    report.digest(digest.finish());
    Responses {
        completed_ms: replica.responses_ms,
        mean_ms: replica.moments.mean().expect("measured completions"),
        in_flight: replica.measured_in_flight,
        in_flight_late: replica.measured_late,
    }
    .report(report, LIMIT_MS);
}

pub fn run(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let reps = crate::repeat(
        args.seconds,
        || setup(seed, WORKERS),
        measure,
        |m| {
            let mut digest = Digest::default();
            digest.json(serde_json::to_string(&m.report));
            digest.json(serde_json::to_string(&m.faults));
            m.grow_events.iter().for_each(|&g| digest.u64(g));
            digest.finish()
        },
    );
    crate::report_reps(report, &reps);
    let (sequential, _) = sequential(seed);
    let (_, pooled) = measure(&mut setup(seed, pool_workers()), &mut Laps::start());
    let mut boxes: Vec<_> = (0..SHARDS).map(|_| fresh_policy()).collect();
    let mut policies: Vec<&mut dyn Policy> = boxes
        .iter_mut()
        .map(|p| p.as_mut() as &mut dyn Policy)
        .collect();
    let replica = replica::<false>(&config(seed), &mut policies, &mut Layers::default());
    check_and_report(
        report,
        &reps.first.1,
        &[&sequential, &pooled.report],
        replica,
    );
}

pub fn run_traced(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let start = Instant::now();
    let (_, measured) = measure(&mut setup(seed, pool_workers()), &mut Laps::start());
    let pooled_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let (sequential_report, mut epoch_ms) = sequential(seed);
    let sequential_s = start.elapsed().as_secs_f64();

    let mut wrapped: Vec<TimedPolicy> = (0..SHARDS)
        .map(|_| TimedPolicy::new(fresh_policy()))
        .collect();
    let mut layers = Layers::default();
    let start = Instant::now();
    let replica = {
        let mut policies: Vec<&mut dyn Policy> =
            wrapped.iter_mut().map(|p| p as &mut dyn Policy).collect();
        replica::<true>(&config(seed), &mut policies, &mut layers)
    };
    let wall_s = start.elapsed().as_secs_f64();

    let mut policy = PolicyTotals::default();
    for p in &wrapped {
        policy.add(p);
    }
    let pass = policy.pass;
    let pooled = &measured.report;
    let events = pooled.events_processed as f64;
    let engine_s = layers.step.secs() - pass.secs();
    let covered = [
        layers.arrival,
        layers.routing,
        layers.barrier,
        layers.inject,
        layers.step,
        layers.fold,
    ]
    .iter()
    .map(Acc::secs)
    .sum();
    let shard_events: Vec<f64> = pooled
        .shards
        .iter()
        .map(|shard| shard.service.events_processed as f64)
        .collect();
    let mean_events = shard_events.iter().sum::<f64>() / shard_events.len() as f64;
    let faults = measured.faults;

    report.layer("policy.passes", pass.calls as f64);
    report.layer("policy.self_s", pass.secs());
    report.layer("policy.ns_per_pass", pass.ns_per_call());
    report.layer("policy.share", pass.secs() / wall_s);
    report.layer(
        "policy.productive_share",
        policy.productive as f64 / pass.calls as f64,
    );
    report.layer("engine.events", events);
    report.layer("engine.events_per_s", events / layers.step.secs());
    report.layer("engine.self_s", engine_s);
    report.layer("engine.ns_per_event", engine_s * 1e9 / events);
    report.layer("engine.events_per_pass", events / pass.calls as f64);
    report.layer("engine.queue_grow_events", replica.grow_events as f64);
    report.layer("engine.total_pr", pooled.total_pr as f64);
    report.layer("engine.blocked_events", pooled.blocked_events as f64);
    report.layer("service.inject_s", layers.inject.secs());
    report.layer("service.fold_s", layers.fold.secs());
    report.layer("service.completions", pooled.completions as f64);
    report.layer("service.backlog_end", replica.in_flight as f64);
    report.layer("arrival.generated", pooled.arrivals_generated as f64);
    report.layer("arrival.ns_per_arrival", layers.arrival.ns_per_call());
    report.layer("routing.ns_per_route", layers.routing.ns_per_call());
    report.layer(
        "routing.forward_share",
        pooled.forwarded as f64 / pooled.arrivals_generated as f64,
    );
    report.layer("routing.undelivered", pooled.undelivered as f64);
    report.layer("fleet.epochs", pooled.epochs as f64);
    report.layer("fleet.epoch_ms_p50", crate::percentile(&mut epoch_ms, 0.50));
    report.layer("fleet.epoch_ms_p99", crate::percentile(&mut epoch_ms, 0.99));
    report.layer("fleet.barrier_s", layers.barrier.secs());
    report.layer("fleet.sequential_s", sequential_s);
    report.layer("fleet.pooled_s", pooled_s);
    report.layer("fleet.workers", pool_workers() as f64);
    report.layer(
        "fleet.parallel_efficiency",
        sequential_s / (pooled_s * pool_workers() as f64),
    );
    report.layer(
        "fleet.shard_imbalance",
        shard_events.iter().cloned().fold(0.0, f64::max) / mean_events,
    );
    report.layer("fault.pr_failures", faults.pr_failures as f64);
    report.layer("fault.pr_retries", faults.pr_retries as f64);
    report.layer("fault.evictions", faults.evictions as f64);
    report.layer("fault.board_failures", faults.board_failures as f64);
    report.layer("fault.cancelled_events", faults.cancelled_events as f64);
    report.layer("fault.link_flaps", faults.link_flaps as f64);
    crate::report_trace(report, wall_s, sequential_s, covered);
    check_and_report(report, &measured, &[&sequential_report], replica);
}
