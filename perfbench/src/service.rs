//! `service_diurnal`: one VersaSlot Big.Little service spine on one thread,
//! under diurnal Poisson arrivals.
//!
//! The measured path is `ServiceRunner::run_to_barrier` in segments of
//! [`SEGMENT_S`] simulated seconds, then `ServiceRunner::run` to the horizon
//! (a segmented run processes the byte-identical event sequence).  The
//! checking and traced path
//! drives the same inject → step → fold loop from the public simulator API
//! ([`drive`]) and must reproduce the runner's events, completions and mean
//! exactly; it also yields the exact per-request response times.

use std::time::Instant;

use versaslot::core::config::SystemConfig;
use versaslot::core::engine::SharingSimulator;
use versaslot::core::policy::Policy;
use versaslot::core::runner::SchedulerKind;
use versaslot::core::service::{ServiceConfig, ServiceReport, ServiceRunner, StopCondition};
use versaslot::sim::{SimDuration, SimTime, Welford};
use versaslot::workload::{ArrivalDriver, ArrivalProcess, BenchmarkApp};

use crate::trace::{Acc, Clock, TimedPolicy};
use crate::{mix, Args, Digest, Laps, Report, Responses};

/// Simulated horizon of one run.
const HORIZON_S: u64 = 60_000;
/// Simulated time per timed segment of the measured run (60 segments).
const SEGMENT_S: u64 = 1_000;
/// Latency limit of `sim_slo_miss_share`.
pub const LIMIT_MS: f64 = 10_000.0;
const SEED_SALT: u64 = 0x5E41_1CE0;
const KIND: SchedulerKind = SchedulerKind::VersaSlotBigLittle;

fn config(seed: u64) -> ServiceConfig {
    ServiceConfig::new(ArrivalProcess::Diurnal {
        base_rate_per_sec: 0.6,
        amplitude: 0.5,
        period: SimDuration::from_secs(3_600),
    })
    .with_seed(mix(seed, SEED_SALT))
    .with_stop(StopCondition::Horizon(SimDuration::from_secs(HORIZON_S)))
    // One window over the whole run: the timeline is not measured here.
    .with_window(SimDuration::from_secs(HORIZON_S))
}

fn system() -> SystemConfig {
    SystemConfig::single_board(KIND.board())
}

fn policy() -> Box<dyn Policy + Send> {
    KIND.policy().expect("VersaSlot is a sharing policy")
}

fn setup(seed: u64) -> (ServiceRunner, Box<dyn Policy + Send>) {
    (
        ServiceRunner::new(system(), BenchmarkApp::suite(), config(seed)),
        policy(),
    )
}

/// What the measured path leaves behind for the checks.
struct Measured {
    report: ServiceReport,
    grow_events: u64,
    backlog_end: u64,
}

fn measure(
    (runner, policy): &mut (ServiceRunner, Box<dyn Policy + Send>),
    laps: &mut Laps,
) -> (u64, Measured) {
    for segment in 1..HORIZON_S / SEGMENT_S {
        let barrier = SimTime::ZERO + SimDuration::from_secs(segment * SEGMENT_S);
        runner.run_to_barrier(policy.as_mut(), barrier, &mut |_| {});
        laps.lap();
    }
    let report = runner.run(policy.as_mut());
    laps.lap();
    let sim = runner.simulator();
    let measured = Measured {
        grow_events: sim.event_queue_grow_events(),
        backlog_end: sim.active_apps().len() as u64,
        report,
    };
    (measured.report.completions, measured)
}

/// Layer spans of the public-API loop.
#[derive(Debug, Default)]
struct Layers {
    arrival: Acc,
    inject: Acc,
    step: Acc,
    fold: Acc,
}

/// Outcome of the public-API loop.
struct Driven {
    generated: u64,
    events: u64,
    admitted: u64,
    completions: u64,
    moments: Welford,
    responses_ms: Vec<f64>,
    in_flight: u64,
    measured_in_flight: u64,
    measured_late: u64,
    grow_events: u64,
    total_pr: u64,
    blocked_events: u64,
}

/// The `ServiceRunner` loop rebuilt from the public simulator API: keep one
/// future arrival injected, step, retire completions, stop at the horizon.
fn drive<const ON: bool>(seed: u64, policy: &mut dyn Policy, layers: &mut Layers) -> Driven {
    let config = config(seed);
    let suite = BenchmarkApp::suite();
    let mut driver = ArrivalDriver::new(
        config.process.scaled(config.load),
        suite.len(),
        config.batch_range,
        config.seed,
    );
    let mut sim = SharingSimulator::for_service(system(), suite, 1);
    let warmup_end = SimTime::ZERO + config.warmup;
    let horizon = SimTime::ZERO + SimDuration::from_secs(HORIZON_S);
    let mut injected = 0u64;
    let mut completions = 0u64;
    let mut moments = Welford::new();
    let mut responses_ms = Vec::new();
    let mut clock = Clock::<ON>::start();
    loop {
        if injected == sim.arrivals_admitted() {
            let arrival = driver.next_arrival();
            clock.lap(&mut layers.arrival);
            sim.inject_arrival(arrival);
            clock.lap(&mut layers.inject);
            injected += 1;
        }
        let stepped = sim.step(policy);
        clock.lap(&mut layers.step);
        assert!(stepped, "an arrival is always pending");
        sim.retire_completed(|app| {
            completions += 1;
            if app.arrival >= warmup_end {
                let completion = app.completion.expect("retired application completed");
                let ms = (completion - app.arrival).as_millis_f64();
                moments.record(ms);
                responses_ms.push(ms);
            }
        });
        clock.lap(&mut layers.fold);
        if sim.now() >= horizon {
            break;
        }
    }
    let (mut measured_in_flight, mut measured_late) = (0, 0);
    for &id in sim.active_apps() {
        let arrival = sim.app(id).arrival;
        if arrival >= warmup_end {
            measured_in_flight += 1;
            if (sim.now() - arrival).as_millis_f64() > LIMIT_MS {
                measured_late += 1;
            }
        }
    }
    Driven {
        generated: driver.generated(),
        events: sim.events_processed(),
        admitted: sim.arrivals_admitted(),
        completions,
        moments,
        responses_ms,
        in_flight: sim.active_apps().len() as u64 + (injected - sim.arrivals_admitted()),
        measured_in_flight,
        measured_late,
        grow_events: sim.event_queue_grow_events(),
        total_pr: sim.total_pr(),
        blocked_events: sim.blocked_events(),
    }
}

/// Checks the public-API loop against the runner's report, records the
/// request accounting and the exact `sim_*` metrics.
fn check_and_report(report: &mut Report, measured: &Measured, driven: Driven) {
    let runner = &measured.report;
    report.attempted = driven.generated;
    // Requests are never undelivered on a single spine.
    report.lost = driven
        .generated
        .abs_diff(driven.completions + driven.in_flight);
    report.check(
        "accounting: generated = completed + in flight + undelivered",
        report.lost == 0,
    );
    report.check(
        "queue never grew",
        measured.grow_events == 0 && driven.grow_events == 0,
    );
    report.check(
        "public-API loop matches ServiceRunner: events, admissions, completions",
        driven.events == runner.events_processed
            && driven.admitted == runner.arrivals_admitted
            && driven.completions == runner.completions
            && driven.moments.count() == runner.measured_completions,
    );
    let runner_mean = runner.overall.as_ref().map(|s| s.mean.to_bits());
    report.check(
        "public-API loop matches ServiceRunner: mean response (bit-exact)",
        runner_mean == driven.moments.mean().map(f64::to_bits),
    );
    let mut digest = Digest::default();
    for value in [
        driven.events,
        driven.completions,
        driven.total_pr,
        driven.blocked_events,
    ] {
        digest.u64(value);
    }
    for &ms in &driven.responses_ms {
        digest.f64(ms);
    }
    report.digest(digest.finish());
    Responses {
        completed_ms: driven.responses_ms,
        mean_ms: driven.moments.mean().expect("measured completions"),
        in_flight: driven.measured_in_flight,
        in_flight_late: driven.measured_late,
    }
    .report(report, LIMIT_MS);
}

pub fn run(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let reps = crate::repeat(
        args.seconds,
        || setup(seed),
        measure,
        |m| {
            let mut digest = Digest::default();
            digest.json(serde_json::to_string(&m.report));
            digest.u64(m.grow_events);
            digest.u64(m.backlog_end);
            digest.finish()
        },
    );
    crate::report_reps(report, &reps);
    let driven = drive::<false>(seed, policy().as_mut(), &mut Layers::default());
    check_and_report(report, &reps.first.1, driven);
}

pub fn run_traced(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let start = Instant::now();
    let (_, measured) = measure(&mut setup(seed), &mut Laps::start());
    let untraced_s = start.elapsed().as_secs_f64();

    let mut policy = TimedPolicy::new(policy());
    let mut layers = Layers::default();
    let start = Instant::now();
    let driven = drive::<true>(seed, &mut policy, &mut layers);
    let wall_s = start.elapsed().as_secs_f64();

    let pass = policy.pass;
    let engine_s = layers.step.secs() - pass.secs();
    let covered =
        layers.arrival.secs() + layers.inject.secs() + layers.step.secs() + layers.fold.secs();
    report.layer("policy.passes", pass.calls as f64);
    report.layer("policy.self_s", pass.secs());
    report.layer("policy.ns_per_pass", pass.ns_per_call());
    report.layer("policy.share", pass.secs() / wall_s);
    report.layer(
        "policy.productive_share",
        policy.productive as f64 / pass.calls as f64,
    );
    report.layer("engine.events", driven.events as f64);
    report.layer(
        "engine.events_per_s",
        driven.events as f64 / layers.step.secs(),
    );
    report.layer("engine.self_s", engine_s);
    report.layer("engine.ns_per_event", engine_s * 1e9 / driven.events as f64);
    report.layer(
        "engine.events_per_pass",
        driven.events as f64 / pass.calls as f64,
    );
    report.layer("engine.queue_grow_events", driven.grow_events as f64);
    report.layer("engine.total_pr", driven.total_pr as f64);
    report.layer("engine.blocked_events", driven.blocked_events as f64);
    report.layer("service.inject_s", layers.inject.secs());
    report.layer("service.fold_s", layers.fold.secs());
    report.layer("service.completions", driven.completions as f64);
    report.layer("service.backlog_end", measured.backlog_end as f64);
    report.layer("arrival.generated", driven.generated as f64);
    report.layer("arrival.ns_per_arrival", layers.arrival.ns_per_call());
    crate::report_trace(report, wall_s, untraced_s, covered);
    check_and_report(report, &measured, driven);
}
