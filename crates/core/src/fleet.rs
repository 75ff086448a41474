//! Fleet mode: scale-out simulation of hundreds-to-thousands of boards as
//! K independent shards.
//!
//! The single-spine service mode (PR 6/7) tops out at one simulator's event
//! rate no matter how many cores the host has.  This module shards the fleet:
//!
//! * **One spine per shard.**  Each shard owns a full [`ServiceRunner`] — its
//!   own pre-sized [`SharingSimulator`][crate::engine::SharingSimulator]
//!   (`grow_events() == 0` holds per shard), its own application store and
//!   slot masks, and its own constant-memory streaming accumulators
//!   ([`StreamingSummary`]: Welford moments + a mergeable log-histogram, and a
//!   [`TumblingWindow`][versaslot_sim::TumblingWindow]).  Shards share **no
//!   mutable state**; they share only the suite's immutable application
//!   specifications, one process-wide copy behind a reference count.
//! * **Front-end admission.**  A [`ShardRouter`] assigns every generated
//!   arrival to a shard with a seeded deterministic [`Placement`] policy
//!   (hash or least-loaded-by-snapshot).  Spillover admission — the one
//!   cross-shard effect at admission time — re-routes arrivals away from
//!   backlogged shards as **explicit latency-bearing messages**: a forwarded
//!   arrival reaches its new shard [`FleetConfig::forward_latency`] later.
//! * **Epoch barriers.**  Time advances in epochs of [`FleetConfig::epoch`]
//!   simulated seconds.  Between epochs the engine exchanges barrier
//!   messages: per-shard completion counters flow back to the router (the
//!   "least-loaded" snapshots) and routed/forwarded arrivals flow forward to
//!   the shards that will admit them.  Within an epoch every shard runs
//!   independently — and, because routing is a pure function of barrier
//!   snapshots and execution order is restored by shard index, the fleet
//!   output is **byte-identical** across
//!   `Parallelism::{Sequential, Threads, Auto}` and from run to run.
//! * **Scoped shard sessions.**  One epoch loop runs every fleet:
//!   [`FleetEngine::run_epochs_on`] (and so [`FleetEngine::run`],
//!   [`FleetEngine::advance_epoch`] and [`run_fleet`]) runs its epochs in one
//!   [`std::thread::scope`].  Worker `w` borrows the `w`-th contiguous chunk
//!   of shards for every epoch of the call, so a shard spine never moves
//!   between threads.  The calling thread is worker 0, so a one-worker
//!   session (`Parallelism::Sequential`) spawns no thread and runs every
//!   shard in place.  At each barrier the driver routes the epoch, lends
//!   every worker its chunk's arrival batches (over a one-slot channel to
//!   each spawned worker), runs the first chunk itself, and takes the drained
//!   batches back with the chunks' completion counters.  The same buffers go
//!   out and come back, so steady-state epochs allocate nothing.
//! * **Mergeable metrics.**  [`FleetEngine::report`] folds the per-shard
//!   accumulators with [`StreamingSummary::merge`] (exact Welford moments,
//!   bin-wise histogram tails) into one fleet-wide [`Summary`], alongside the
//!   full per-shard [`ServiceReport`]s and windowed timelines.  Shard and
//!   fleet summaries come from the same accumulator, so a 1-shard fleet
//!   reports exactly its shard's summary.
//!
//! # Example
//!
//! ```
//! use versaslot_core::fleet::{run_fleet, FleetConfig};
//! use versaslot_core::par::Parallelism;
//! use versaslot_core::runner::SchedulerKind;
//! use versaslot_sim::SimDuration;
//! use versaslot_workload::ArrivalProcess;
//!
//! let config = FleetConfig::new(4, ArrivalProcess::Poisson { rate_per_sec: 1.2 })
//!     .with_horizon(SimDuration::from_secs(300))
//!     .with_epoch(SimDuration::from_secs(60));
//! let report = run_fleet(Parallelism::Auto, SchedulerKind::VersaSlotBigLittle, config);
//! assert_eq!(report.shards.len(), 4);
//! assert!(report.completions > 0);
//! ```

use std::sync::mpsc::sync_channel;

use serde::{Deserialize, Serialize};
use versaslot_sim::fault::{FaultProfile, FaultSchedule, FaultStats};
use versaslot_sim::{ConfigError, SimDuration, SimTime, StreamingSummary, Summary, WindowSummary};
use versaslot_workload::benchmarks::BenchmarkApp;
use versaslot_workload::{AppArrival, ArrivalDriver, ArrivalProcess, Placement, ShardRouter};

use crate::config::SystemConfig;
use crate::par::{Parallelism, WorkerPool};
use crate::policy::Policy;
use crate::runner::SchedulerKind;
use crate::service::{ServiceConfig, ServiceReport, ServiceRunner, StopCondition};

/// Parameters of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of shards (each is a full board + simulator spine).
    pub shards: usize,
    /// The **fleet-wide** arrival process the admission layer splits across
    /// the shards.
    pub process: ArrivalProcess,
    /// Load multiplier applied to the process rates.
    pub load: f64,
    /// Inclusive batch-size range of generated applications.
    pub batch_range: (u32, u32),
    /// Fleet seed: drives the arrival stream, the router hash and the
    /// per-shard seeds.
    pub seed: u64,
    /// Per-shard warm-up cutoff (arrivals before it execute unmeasured).
    pub warmup: SimDuration,
    /// Simulated-time horizon at which the fleet run ends.
    pub horizon: SimDuration,
    /// Epoch barrier interval: router snapshots and cross-shard messages are
    /// exchanged every `epoch` of simulated time.
    pub epoch: SimDuration,
    /// Width of the per-shard tumbling timeline windows.
    pub window: SimDuration,
    /// Primary placement policy of the admission layer.
    pub placement: Placement,
    /// Spill arrivals away from a primary shard whose backlog snapshot is at
    /// or above this bound (`None` disables spillover).
    pub spillover_threshold: Option<u64>,
    /// Latency charged to every spilled-over arrival (the cross-shard
    /// forwarding message takes this long to reach the new shard).
    pub forward_latency: SimDuration,
    /// Deterministic fault injection; `None` disables the fault plane on
    /// every shard and on the forwarding fabric.  Each shard reseeds the
    /// profile with its `FleetConfig::shard_seed` so shards fail
    /// independently; link flaps additionally stall spillover forwards.
    pub faults: Option<FaultProfile>,
}

impl FleetConfig {
    /// A fleet configuration with the evaluation defaults: unit load, the
    /// paper's batch sizes, 30 s warm-up, a one-hour horizon with five-minute
    /// epochs and timeline windows, hash placement, no spillover.
    pub fn new(shards: usize, process: ArrivalProcess) -> Self {
        FleetConfig {
            shards,
            process,
            load: 1.0,
            batch_range: (5, 30),
            seed: 0x5EED_F1EE,
            warmup: SimDuration::from_secs(30),
            horizon: SimDuration::from_secs(3_600),
            epoch: SimDuration::from_secs(300),
            window: SimDuration::from_secs(300),
            placement: Placement::Hash,
            spillover_threshold: None,
            forward_latency: SimDuration::from_millis(50),
            faults: None,
        }
    }

    /// Returns a copy with a different fleet seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different warm-up cutoff.
    pub fn with_warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Returns a copy with a different horizon.
    pub fn with_horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Returns a copy with a different epoch barrier interval.
    pub fn with_epoch(mut self, epoch: SimDuration) -> Self {
        self.epoch = epoch;
        self
    }

    /// Returns a copy with a different timeline window width.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// Returns a copy with a different placement policy.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Returns a copy with spillover admission enabled: backlogs at or above
    /// `threshold` redirect arrivals, each charged `forward_latency`.
    pub fn with_spillover(mut self, threshold: u64, forward_latency: SimDuration) -> Self {
        self.spillover_threshold = Some(threshold);
        self.forward_latency = forward_latency;
        self
    }

    /// Returns a copy with a fault profile attached to every shard and to the
    /// forwarding fabric.
    pub fn with_faults(mut self, faults: FaultProfile) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Checks that the configuration is not degenerate, naming the first
    /// offending parameter.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::ensure(
            self.shards >= 1,
            "shards",
            format_args!("a fleet needs at least one shard"),
        )?;
        ConfigError::ensure(
            !self.horizon.is_zero(),
            "horizon",
            format_args!("horizon must be positive"),
        )?;
        ConfigError::ensure(
            !self.epoch.is_zero(),
            "epoch",
            format_args!("epoch must be positive"),
        )?;
        if let Some(threshold) = self.spillover_threshold {
            ConfigError::ensure(
                threshold > 0,
                "spillover_threshold",
                format_args!("spillover threshold must be positive"),
            )?;
            ConfigError::ensure(
                !self.forward_latency.is_zero(),
                "forward_latency",
                format_args!("spillover needs a positive forwarding latency"),
            )?;
        }
        // The fleet-wide stream must be a valid service run's: process, load,
        // batch range and window.
        ServiceConfig {
            process: self.process,
            load: self.load,
            batch_range: self.batch_range,
            seed: self.seed,
            warmup: self.warmup,
            stop: StopCondition::Horizon(self.horizon),
            window: self.window,
        }
        .validate()?;
        match &self.faults {
            Some(faults) => faults.validate(),
            None => Ok(()),
        }
    }

    /// The fault profile shard `shard` runs under: the fleet profile reseeded
    /// with the shard's own seed, so shards fail independently while the whole
    /// fleet stays replayable from [`FleetConfig::seed`].
    pub fn shard_fault_profile(&self, shard: usize) -> Option<FaultProfile> {
        self.faults
            .map(|profile| profile.with_seed(profile.seed ^ self.shard_seed(shard)))
    }

    /// The deterministic seed of shard `shard` (SplitMix64 mix of the fleet
    /// seed and the shard index).  Reseeds the shard's fault profile.
    pub(crate) fn shard_seed(&self, shard: usize) -> u64 {
        let mut x = self
            .seed
            .wrapping_add((shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// One shard: a full service spine plus its policy and window timeline.
///
/// Deliberately free of router-side bookkeeping: everything the admission
/// layer counts lives in the driver-owned [`ShardAdmission`] table, so a
/// session worker can borrow the `ShardState` for a whole session while the
/// driver keeps routing without touching it.
struct ShardState {
    index: usize,
    runner: ServiceRunner,
    policy: Box<dyn Policy + Send>,
    windows: Vec<WindowSummary>,
}

impl ShardState {
    /// Runs this shard's slice of one epoch: the runner's stepping loop up to
    /// the barrier, or — on the final epoch — up to the horizon stop plus the
    /// window flush, so a segmented run is byte-identical to an unsegmented
    /// one.
    fn run_epoch(&mut self, barrier: SimTime, is_final: bool) {
        let ShardState {
            runner,
            policy,
            windows,
            ..
        } = self;
        let on_window = &mut |w: &WindowSummary| windows.push(*w);
        runner.run_until(policy.as_mut(), (!is_final).then_some(barrier), on_window);
        if is_final {
            runner.flush_windows(on_window);
        }
    }
}

/// Driver-side admission counters of one shard.
#[derive(Debug, Clone, Copy, Default)]
struct ShardAdmission {
    /// Arrivals delivered to the shard by the admission layer.
    routed: u64,
    /// Of those, arrivals that reached it via spillover forwarding.
    forwarded_in: u64,
}

/// What travels between the driver and one session worker each epoch: the
/// chunk's arrival batches out, and the same batches back, drained, with the
/// chunk's completion counters.  The batches are the engine's routing
/// buffers, lent for one epoch, so steady-state epochs allocate nothing.
struct Parcel {
    barrier: SimTime,
    is_final: bool,
    batches: Vec<Vec<AppArrival>>,
    completions: Vec<u64>,
}

impl Parcel {
    /// An empty parcel for a chunk of `shards` shards.
    fn new(shards: usize) -> Self {
        Parcel {
            barrier: SimTime::ZERO,
            is_final: false,
            batches: vec![Vec::new(); shards],
            completions: vec![0; shards],
        }
    }

    /// Runs `chunk`'s slice of the epoch: admits each shard's batch, runs it
    /// to the barrier and records its completion counter.
    fn run(&mut self, chunk: &mut [ShardState]) {
        for ((shard, batch), done) in chunk
            .iter_mut()
            .zip(&mut self.batches)
            .zip(&mut self.completions)
        {
            shard.runner.enqueue_arrivals(batch.drain(..));
            shard.run_epoch(self.barrier, self.is_final);
            *done = shard.runner.completions();
        }
    }
}

/// Per-shard slice of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Arrivals the admission layer delivered to this shard.
    pub routed: u64,
    /// Arrivals that reached this shard via spillover forwarding.
    pub forwarded_in: u64,
    /// The shard's windowed tail-latency timeline.
    pub windows: Vec<WindowSummary>,
    /// The shard's full service report.
    pub service: ServiceReport,
}

/// The fold of a fleet run: fleet-wide totals, a merged tail summary, and the
/// per-shard reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Scheduler label.
    pub scheduler: String,
    /// Admission placement policy.
    pub placement: Placement,
    /// Number of shards.
    pub shard_count: usize,
    /// Epoch barriers crossed (including the final one).
    pub epochs: u64,
    /// Arrivals generated by the fleet-wide stream.
    pub arrivals_generated: u64,
    /// Arrivals redirected by spillover forwarding.
    pub forwarded: u64,
    /// Arrivals still in flight as forwarding messages when the horizon hit
    /// (routed, never delivered to a shard).
    pub undelivered: u64,
    /// Simulator events processed, summed over shards.
    pub events_processed: u64,
    /// Arrivals admitted into shard simulators, summed over shards.
    pub arrivals_admitted: u64,
    /// Applications completed (measured or not), summed over shards.
    pub completions: u64,
    /// Completions that counted toward the merged statistics.
    pub measured_completions: u64,
    /// Completions excluded by the warm-up cutoff, summed over shards.
    pub warmup_completions: u64,
    /// Latest shard simulated time when the run ended.
    pub end_time: SimTime,
    /// Partial reconfigurations performed, summed over shards.
    pub total_pr: u64,
    /// Blocked events, summed over shards.
    pub blocked_events: u64,
    /// Fleet-wide response-time summary in milliseconds: the merge of the
    /// shards' [`StreamingSummary`] accumulators (exact moments, log-histogram
    /// tail quantiles).
    pub overall: Option<Summary>,
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
}

/// The sharded fleet engine: admission routing, epoch barriers, and parallel
/// shard execution.  See the [module docs](self).
pub struct FleetEngine {
    config: FleetConfig,
    scheduler: String,
    shards: Vec<ShardState>,
    router: ShardRouter,
    /// The fleet-wide front-end arrival stream.
    driver: ArrivalDriver,
    /// First generated arrival at or past the last barrier, kept for the next
    /// epoch (the driver cannot be peeked without consuming).
    lookahead: Option<AppArrival>,
    /// Routed arrivals whose (possibly forwarding-delayed) delivery time lies
    /// beyond the epoch that routed them: in-flight cross-shard messages.
    deferred: Vec<(usize, AppArrival)>,
    /// Fault schedule of the cross-shard forwarding fabric (one Aurora-style
    /// link, distinct seed stream): flaps stall spillover forwards on top of
    /// [`FleetConfig::forward_latency`].  `None` when the fault plane is off
    /// or its profile injects nothing.
    fabric: Option<FaultSchedule>,
    /// What the forwarding fabric injected so far.
    fabric_stats: FaultStats,
    /// Per-shard arrival batches of the epoch being routed.  Reused across
    /// epochs with high-water retention (a session lends them to its parcels
    /// for each epoch, which drain them, and takes them back), so
    /// steady-state routing allocates nothing; see
    /// `FleetEngine::arrival_scratch_capacities`.
    due: Vec<Vec<AppArrival>>,
    /// Driver-side admission counters, indexed by shard.
    admission: Vec<ShardAdmission>,
    arrivals_generated: u64,
    epochs_run: u64,
    finished: bool,
}

impl FleetEngine {
    /// Creates a fleet of `config.shards` shards under `kind`'s policy and
    /// board layout.  Every shard's simulator holds clones of
    /// [`BenchmarkApp::suite`]'s specifications, which share their data.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails `FleetConfig::validate`, or for
    /// [`SchedulerKind::Baseline`] (no service-mode equivalent).
    pub fn new(kind: SchedulerKind, config: FleetConfig) -> Self {
        config.validate().unwrap_or_else(|err| panic!("{err}"));
        let suite = BenchmarkApp::suite();
        let mut shards = Vec::with_capacity(config.shards);
        for index in 0..config.shards {
            let policy = kind
                .policy()
                .expect("the Baseline comparator is not supported in fleet mode");
            let mut system = SystemConfig::single_board(kind.board());
            if let Some(profile) = config.shard_fault_profile(index) {
                system = system.with_faults(profile);
            }
            let runner = ServiceRunner::new_routed(
                system,
                suite.clone(),
                config.warmup,
                StopCondition::Horizon(config.horizon),
                config.window,
            );
            shards.push(ShardState {
                index,
                runner,
                policy,
                windows: Vec::new(),
            });
        }
        let driver = ArrivalDriver::new(
            config.process.scaled(config.load),
            suite.len(),
            config.batch_range,
            config.seed,
        );
        let router = ShardRouter::new(
            config.placement,
            config.shards,
            config.seed,
            config.spillover_threshold,
        );
        // The forwarding fabric draws from its own seed stream so adding a
        // shard never perturbs the link-flap timeline.  A profile that
        // injects nothing builds no fabric, like the shards' engines.
        let fabric = config
            .faults
            .filter(|profile| !profile.is_noop())
            .map(|profile| {
                FaultSchedule::new(
                    profile.with_seed(profile.seed ^ config.seed.rotate_left(17)),
                    1,
                )
            });
        FleetEngine {
            scheduler: kind.label().to_string(),
            config,
            shards,
            router,
            driver,
            lookahead: None,
            deferred: Vec::new(),
            fabric,
            fabric_stats: FaultStats::default(),
            due: vec![Vec::new(); config.shards],
            admission: vec![ShardAdmission::default(); config.shards],
            arrivals_generated: 0,
            epochs_run: 0,
            finished: false,
        }
    }

    /// Per-shard event-queue growth counters — all must stay `0` for the
    /// allocation-free invariant to extend across the fleet.
    pub fn shard_grow_events(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|shard| shard.runner.simulator().event_queue_grow_events())
            .collect()
    }

    /// What the fault plane injected across the whole fleet: the merge of
    /// every shard's engine-level [`FaultStats`] plus the forwarding fabric's
    /// link flaps.  All-zero when [`FleetConfig::faults`] is `None`.
    pub fn fault_stats(&self) -> FaultStats {
        let mut stats = self.fabric_stats;
        for shard in &self.shards {
            stats.merge(&shard.runner.fault_stats());
        }
        stats
    }

    /// Whether any fault plane was built: the fabric's or a shard engine's.
    #[cfg(test)]
    fn has_fault_plane(&self) -> bool {
        self.fabric.is_some()
            || self
                .shards
                .iter()
                .any(|shard| shard.runner.simulator().has_fault_plane())
    }

    /// Per-shard policy scratch high-water marks (see
    /// [`Policy::scratch_allocs`]) — stable values across steady-state epochs
    /// mean no policy allocates per pass on any shard.
    #[cfg(test)]
    fn shard_scratch_allocs(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|shard| shard.policy.scratch_allocs())
            .collect()
    }

    /// The epoch barrier after `epochs_run` epochs: `(barrier, is_final)`.
    fn next_barrier(&self) -> (SimTime, bool) {
        let horizon_micros = self.config.horizon.as_micros();
        let end_micros = (self.epochs_run + 1)
            .saturating_mul(self.config.epoch.as_micros())
            .min(horizon_micros);
        (
            SimTime::from_micros(end_micros),
            end_micros >= horizon_micros,
        )
    }

    /// Runs one epoch: delivers due cross-shard messages and newly routed
    /// arrivals, executes every shard up to the next barrier, then exchanges
    /// barrier snapshots.  Returns `false` once the horizon has been reached
    /// (further calls are no-ops).
    ///
    /// The epoch is a one-epoch session of `parallelism.workers(shards)`
    /// workers (see [`FleetEngine::run_epochs_on`]); under
    /// [`Parallelism::Sequential`] that is the calling thread alone.  Whole
    /// runs should use [`FleetEngine::run`] instead, which spawns the workers
    /// once.
    pub fn advance_epoch(&mut self, parallelism: Parallelism) -> bool {
        let workers = parallelism.workers(self.shards.len());
        self.run_epochs_on(&WorkerPool::new(workers), 1)
    }

    /// Runs the fleet to its horizon in one session of
    /// `Parallelism::workers` workers (see [`FleetEngine::run_epochs_on`]).
    pub fn run(&mut self, parallelism: Parallelism) {
        let workers = parallelism.workers(self.shards.len());
        self.run_epochs_on(&WorkerPool::new(workers), u64::MAX);
    }

    /// Runs up to `max_epochs` epochs on `pool.workers()` workers and returns
    /// `true` while the horizon has not been reached.
    ///
    /// One call is one **session**, a [`std::thread::scope`]: worker `w`
    /// borrows the `w`-th contiguous chunk of shards for every epoch of the
    /// call, and worker 0 is the calling thread, so a one-worker session
    /// spawns no thread and runs every shard in place.  Each epoch the driver
    /// routes the arrivals, lends every worker its chunk's batches (over a
    /// one-slot channel to each spawned one), runs its own chunk, takes the
    /// drained batches back and folds the completion counters in shard-index
    /// order.  The shards are back in the engine when the call returns, so a
    /// run resumes in a session of any size byte-identically.  A shard that
    /// panics fails the call: on a spawned worker the driver panics with "a
    /// fleet worker panicked while running its shards", and the scope joins
    /// the other workers before the panic leaves this call.
    pub fn run_epochs_on(&mut self, pool: &WorkerPool, max_epochs: u64) -> bool {
        if self.finished {
            return false;
        }
        let workers = pool.workers().min(self.shards.len());
        let mut shards = std::mem::take(&mut self.shards);
        std::thread::scope(|scope| {
            let chunk_len = shards.len().div_ceil(workers);
            let mut chunks = shards.chunks_mut(chunk_len);
            let own = chunks.next().expect("a fleet has at least one shard");
            let mut parcels = vec![Parcel::new(own.len())];
            let mut links = Vec::with_capacity(workers - 1);
            for chunk in chunks {
                let (orders, inbox) = sync_channel::<Parcel>(1);
                let (outbox, replies) = sync_channel::<Parcel>(1);
                parcels.push(Parcel::new(chunk.len()));
                links.push((orders, replies));
                scope.spawn(move || {
                    for mut parcel in inbox {
                        parcel.run(chunk);
                        if outbox.send(parcel).is_err() {
                            break;
                        }
                    }
                });
            }

            for _ in 0..max_epochs {
                if self.finished {
                    break;
                }
                let (barrier, is_final) = self.next_barrier();
                self.route_epoch(barrier);
                // A swap lends the routed batches to the parcels; the swap
                // back below returns them drained, so `due` keeps its
                // high-water buffers from session to session.
                for parcel in &mut parcels {
                    parcel.barrier = barrier;
                    parcel.is_final = is_final;
                }
                self.swap_batches(&mut parcels);
                for ((orders, _), parcel) in links.iter().zip(parcels.drain(1..)) {
                    orders
                        .send(parcel)
                        .expect("a fleet worker panicked while running its shards");
                }
                // The driver works the first chunk itself while the others
                // run: a session then spawns one thread fewer, and on a host
                // with as many cores as workers no thread waits for a core.
                parcels[0].run(own);
                for (_, replies) in &links {
                    parcels.push(
                        replies
                            .recv()
                            .expect("a fleet worker panicked while running its shards"),
                    );
                }
                self.swap_batches(&mut parcels);
                // Barrier snapshot exchange, in shard-index order: completion
                // counters flow back to the router for the next epoch's
                // least-loaded / spillover decisions.
                let completions = parcels.iter().flat_map(|parcel| &parcel.completions);
                for (index, &done) in completions.enumerate() {
                    self.router.record_completions(index, done);
                }
                self.epochs_run += 1;
                self.finished = is_final;
            }
        });
        self.shards = shards;
        !self.finished
    }

    /// Swaps the per-shard arrival batches of `parcels`, in chunk order, with
    /// the engine's routing buffers `due`.
    fn swap_batches(&mut self, parcels: &mut [Parcel]) {
        let batches = parcels.iter_mut().flat_map(|parcel| &mut parcel.batches);
        for (batch, routed) in batches.zip(&mut self.due) {
            std::mem::swap(batch, routed);
        }
    }

    /// Current capacities of the reused per-shard arrival scratch buffers.
    /// After warm-up these must be **stable**: routing retains the high-water
    /// capacity across epochs and never reallocates in steady state (the
    /// fleet-level analogue of [`crate::policy::ScratchMeter`]).
    #[cfg(test)]
    fn arrival_scratch_capacities(&self) -> Vec<usize> {
        self.due.iter().map(Vec::capacity).collect()
    }

    /// Pulls the arrival stream up to `barrier`, routes every arrival, applies
    /// forwarding latency to spilled-over ones, and leaves the per-shard
    /// delivery batches in `self.due` in (time, id) order.  Deliveries whose
    /// time lands past the barrier stay in flight (`deferred`) until their
    /// epoch comes.  Touches no shard state, so it runs no matter who owns
    /// the shards — session workers or the caller.
    fn route_epoch(&mut self, barrier: SimTime) {
        let Self {
            config,
            router,
            driver,
            lookahead,
            deferred,
            fabric,
            fabric_stats,
            due,
            admission,
            arrivals_generated,
            ..
        } = self;
        debug_assert!(due.iter().all(Vec::is_empty), "stale arrival batches");

        // In-flight messages due this epoch.
        deferred.retain(|(shard, arrival)| {
            if arrival.arrival < barrier {
                due[*shard].push(*arrival);
                false
            } else {
                true
            }
        });

        // New arrivals strictly before the barrier.
        loop {
            let arrival = match lookahead.take() {
                Some(pending) => pending,
                None => driver.next_arrival(),
            };
            if arrival.arrival >= barrier {
                *lookahead = Some(arrival);
                break;
            }
            *arrivals_generated += 1;
            let decision = router.route(&arrival);
            let delivered = if decision.forwarded {
                admission[decision.shard].forwarded_in += 1;
                // A flapping fabric link stalls the forwarding message on top
                // of the base hop latency (queries are monotone: the stream
                // generates arrivals in time order).
                let stall = match fabric.as_mut() {
                    Some(schedule) => schedule.link_stall(0, arrival.arrival),
                    None => SimDuration::ZERO,
                };
                if !stall.is_zero() {
                    fabric_stats.link_flaps += 1;
                    fabric_stats.flap_stall += stall;
                }
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
        }

        for (batch, shard_admission) in due.iter_mut().zip(admission.iter_mut()) {
            // Forwarded stragglers from earlier epochs interleave with fresh
            // arrivals; ids are unique, so this order is a deterministic total
            // order and matches the injection protocol's time-monotonicity.
            batch.sort_by_key(|arrival| (arrival.arrival, arrival.id));
            shard_admission.routed += batch.len() as u64;
        }
    }

    /// Folds the fleet into a [`FleetReport`]: sums the per-shard counters and
    /// merges the per-shard accumulators into one fleet-wide summary.
    pub fn report(&self) -> FleetReport {
        let mut overall = StreamingSummary::new();
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut events_processed = 0;
        let mut arrivals_admitted = 0;
        let mut completions = 0;
        let mut warmup_completions = 0;
        let mut total_pr = 0;
        let mut blocked_events = 0;
        let mut end_time = SimTime::ZERO;
        let mut undelivered = self.deferred.len() as u64;
        for shard in &self.shards {
            let service = shard.runner.service_report(&self.scheduler);
            overall.merge(shard.runner.overall_stream());
            events_processed += service.events_processed;
            arrivals_admitted += service.arrivals_admitted;
            completions += service.completions;
            warmup_completions += service.warmup_completions;
            total_pr += service.total_pr;
            blocked_events += service.blocked_events;
            end_time = end_time.max_of(service.end_time);
            undelivered += shard.runner.pending_routed() as u64;
            let admission = self.admission[shard.index];
            shards.push(ShardReport {
                shard: shard.index,
                routed: admission.routed,
                forwarded_in: admission.forwarded_in,
                windows: shard.windows.clone(),
                service,
            });
        }
        FleetReport {
            scheduler: self.scheduler.clone(),
            placement: self.config.placement,
            shard_count: self.shards.len(),
            epochs: self.epochs_run,
            arrivals_generated: self.arrivals_generated,
            forwarded: self.router.forwarded(),
            undelivered,
            events_processed,
            arrivals_admitted,
            completions,
            measured_completions: overall.count(),
            warmup_completions,
            end_time,
            total_pr,
            blocked_events,
            overall: overall.summary(),
            shards,
        }
    }
}

/// Runs a whole fleet to its horizon and returns the report.  Convenience
/// wrapper: create the engine, run it in one session of
/// `Parallelism::workers` workers, and fold the report.
pub fn run_fleet(
    parallelism: Parallelism,
    kind: SchedulerKind,
    config: FleetConfig,
) -> FleetReport {
    let mut engine = FleetEngine::new(kind, config);
    engine.run(parallelism);
    engine.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fleet_config() -> FleetConfig {
        FleetConfig::new(4, ArrivalProcess::Poisson { rate_per_sec: 1.2 })
            .with_horizon(SimDuration::from_secs(400))
            .with_epoch(SimDuration::from_secs(90)) // non-divisor: partial final epoch
            .with_window(SimDuration::from_secs(120))
    }

    /// Every shard's simulator holds the process-wide suite specifications
    /// themselves (shared data), not copies.
    #[test]
    fn shards_share_the_suite_specs() {
        let suite = BenchmarkApp::suite();
        let engine = FleetEngine::new(SchedulerKind::VersaSlotBigLittle, fleet_config());
        for shard in &engine.shards {
            let held = shard.runner.simulator().suite();
            assert_eq!(held.len(), suite.len());
            for (held, spec) in held.iter().zip(&suite) {
                assert!(std::ptr::eq(held.tasks(), spec.tasks()), "{}", spec.name());
            }
        }
    }

    #[test]
    fn fleet_run_is_consistent_and_allocation_free() {
        for shards in [4, 1] {
            let config = FleetConfig {
                shards,
                ..fleet_config()
            };
            let mut engine = FleetEngine::new(SchedulerKind::VersaSlotBigLittle, config);
            while engine.advance_epoch(Parallelism::Sequential) {}
            // 400 s of 90 s epochs: four full barriers plus the partial fifth.
            assert_eq!(engine.epochs_run, 5);
            let report = engine.report();
            assert_eq!(report.shard_count, shards);
            assert_eq!(report.epochs, 5);
            assert!(report.completions > 0, "no shard completed anything");
            assert!(report.arrivals_generated > 0);

            // Admission accounting: every generated arrival was either delivered
            // to a shard or is still in flight.
            let routed_sum: u64 = report.shards.iter().map(|s| s.routed).sum();
            assert_eq!(report.arrivals_generated, routed_sum + report.undelivered);
            // Hash placement spreads a few hundred arrivals over every shard.
            for shard in &report.shards {
                assert!(shard.routed > 0, "shard {} got nothing", shard.shard);
                assert!(shard.service.arrivals_admitted <= shard.routed);
            }

            // Fleet totals are the shard sums.
            let events_sum: u64 = report
                .shards
                .iter()
                .map(|s| s.service.events_processed)
                .sum();
            assert_eq!(report.events_processed, events_sum);
            let completions_sum: u64 = report.shards.iter().map(|s| s.service.completions).sum();
            assert_eq!(report.completions, completions_sum);
            let measured_sum: u64 = report
                .shards
                .iter()
                .map(|s| s.service.measured_completions)
                .sum();
            assert_eq!(report.measured_completions, measured_sum);

            // The merged summary is sane.
            let overall = report.overall.expect("measured completions exist");
            assert_eq!(overall.count as u64, report.measured_completions);
            assert!(overall.p50 <= overall.p95 && overall.p95 <= overall.p99);
            assert!(overall.min <= overall.p50 && overall.p99 <= overall.max);

            // Zero-allocation invariant holds on every shard.
            assert_eq!(engine.shard_grow_events(), vec![0; shards]);

            if shards == 1 {
                // One accumulator end to end: the fleet summary of a single
                // shard is that shard's own summary, tails included.
                assert_eq!(report.overall, report.shards[0].service.overall);
            }
        }
    }

    #[test]
    fn fleet_reports_are_byte_identical_across_parallelism_and_runs() {
        let run = |parallelism, config| {
            let report = run_fleet(parallelism, SchedulerKind::VersaSlotBigLittle, config);
            (
                report.epochs,
                serde_json::to_string(&report).expect("report serializes"),
            )
        };
        // The standard fleet, and the same fleet with 3 s epochs: 134 epoch
        // barriers for the pooled runs (one worker per shard at 4 threads).
        for (config, epochs) in [
            (fleet_config(), 5),
            (fleet_config().with_epoch(SimDuration::from_secs(3)), 134),
        ] {
            let sequential = run(Parallelism::Sequential, config);
            assert_eq!(sequential.0, epochs);
            for (parallelism, mode) in [
                (Parallelism::Threads(2), "2 threads"),
                (Parallelism::Threads(4), "4 threads"),
                (Parallelism::Auto, "auto"),
                (Parallelism::Sequential, "a rerun"),
            ] {
                assert_eq!(run(parallelism, config), sequential, "{mode} differs");
            }
        }
        // The fleet seed is not ignored.
        assert_ne!(
            run(Parallelism::Sequential, fleet_config()),
            run(Parallelism::Sequential, fleet_config().with_seed(99))
        );
    }

    #[test]
    fn least_loaded_placement_balances_the_shards() {
        let config = fleet_config().with_placement(Placement::LeastLoaded);
        let report = run_fleet(
            Parallelism::Sequential,
            SchedulerKind::VersaSlotBigLittle,
            config,
        );
        let routed: Vec<u64> = report.shards.iter().map(|s| s.routed).collect();
        let min = *routed.iter().min().unwrap();
        let max = *routed.iter().max().unwrap();
        assert!(min > 0, "least-loaded starved a shard: {routed:?}");
        // Least-loaded keeps the shard loads close: the spread stays well
        // under the per-shard mean (hash placement is much noisier).
        let mean = routed.iter().sum::<u64>() / routed.len() as u64;
        assert!(
            max - min <= mean.max(4),
            "least-loaded spread too wide: {routed:?}"
        );
    }

    #[test]
    fn spillover_forwards_with_latency_and_accounts_for_messages() {
        // A threshold of 1 forces heavy spillover on a hash-placed stream.
        let config = fleet_config().with_spillover(1, SimDuration::from_secs(20));
        let report = run_fleet(
            Parallelism::Sequential,
            SchedulerKind::VersaSlotBigLittle,
            config,
        );
        assert!(report.forwarded > 0, "threshold 1 must forward something");
        let forwarded_in: u64 = report.shards.iter().map(|s| s.forwarded_in).sum();
        assert_eq!(report.forwarded, forwarded_in);
        let routed_sum: u64 = report.shards.iter().map(|s| s.routed).sum();
        assert_eq!(report.arrivals_generated, routed_sum + report.undelivered);
        // Forwarding is deterministic too.
        let again = run_fleet(
            Parallelism::Threads(3),
            SchedulerKind::VersaSlotBigLittle,
            config,
        );
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn steady_state_epochs_keep_scratch_and_queues_stable() {
        // Warm the fleet up for several epochs, snapshot the policy scratch
        // high-water marks and the router's arrival-scratch capacities, then
        // run more epochs: steady state must not grow any scratch buffer,
        // arrival batch or event queue on any shard.
        let config = FleetConfig::new(3, ArrivalProcess::Poisson { rate_per_sec: 0.9 })
            .with_horizon(SimDuration::from_secs(900))
            .with_epoch(SimDuration::from_secs(60));
        let mut engine = FleetEngine::new(SchedulerKind::VersaSlotBigLittle, config);
        for _ in 0..8 {
            assert!(engine.advance_epoch(Parallelism::Sequential));
        }
        let warmed = engine.shard_scratch_allocs();
        let warmed_caps = engine.arrival_scratch_capacities();
        assert!(
            warmed_caps.iter().all(|&capacity| capacity > 0),
            "warm-up routed nothing: {warmed_caps:?}"
        );
        while engine.advance_epoch(Parallelism::Sequential) {}
        assert_eq!(
            engine.shard_scratch_allocs(),
            warmed,
            "a policy re-allocated scratch after warm-up"
        );
        assert_eq!(
            engine.arrival_scratch_capacities(),
            warmed_caps,
            "an arrival scratch buffer re-allocated after warm-up"
        );
        assert_eq!(engine.shard_grow_events(), vec![0; 3]);
    }

    #[test]
    fn pooled_fleet_run_is_consistent_and_allocation_free() {
        // The pooled path must uphold the same invariants the sequential path
        // does: admission accounting balances and no shard's event queue ever
        // grows, even with heavy spillover traffic through the parcels.
        let config = fleet_config().with_spillover(2, SimDuration::from_secs(10));
        let mut engine = FleetEngine::new(SchedulerKind::VersaSlotBigLittle, config);
        engine.run(Parallelism::Threads(4));
        assert!(engine.finished);
        let report = engine.report();
        assert!(report.completions > 0);
        assert!(report.forwarded > 0, "threshold 2 must forward something");
        let routed_sum: u64 = report.shards.iter().map(|s| s.routed).sum();
        assert_eq!(report.arrivals_generated, routed_sum + report.undelivered);
        let forwarded_in: u64 = report.shards.iter().map(|s| s.forwarded_in).sum();
        assert_eq!(report.forwarded, forwarded_in);
        assert_eq!(engine.shard_grow_events(), vec![0; 4]);
    }

    #[test]
    fn pooled_run_interrupted_mid_run_resumes_byte_identically() {
        // A partial session must hand every shard back and leave the engine
        // in a state that resumes — in a session of another size, one worker
        // included, or sequentially — to the exact bytes of an uninterrupted
        // sequential run.
        let kind = SchedulerKind::VersaSlotBigLittle;
        let reference = {
            let mut engine = FleetEngine::new(kind, fleet_config());
            while engine.advance_epoch(Parallelism::Sequential) {}
            serde_json::to_string(&engine.report()).unwrap()
        };
        let mut engine = FleetEngine::new(kind, fleet_config());
        assert!(engine.run_epochs_on(&WorkerPool::new(3), 2));
        assert_eq!(engine.epochs_run, 2);
        assert!(engine.run_epochs_on(&WorkerPool::new(2), 1));
        assert_eq!(engine.epochs_run, 3);
        assert!(engine.run_epochs_on(&WorkerPool::new(1), 1));
        assert_eq!(engine.epochs_run, 4);
        engine.run(Parallelism::Sequential);
        assert!(engine.finished);
        assert_eq!(reference, serde_json::to_string(&engine.report()).unwrap());
    }

    proptest! {
        /// A two-worker session is byte-identical to one-worker epochs across
        /// shard counts (including more shards than workers), epoch lengths
        /// and fault seeds.
        #[test]
        fn pooled_fleet_matches_sequential_fleet(
            shards in prop::sample::select(vec![1usize, 2, 7]),
            epoch_secs in prop::sample::select(vec![25u64, 40, 60]),
            fault_seed in 0u64..1_000,
        ) {
            let profile = FaultProfile::new(fault_seed)
                .with_pr_failures(0.05)
                .with_link_flaps(0.1, SimDuration::from_secs(4));
            let config = FleetConfig::new(shards, ArrivalProcess::Poisson { rate_per_sec: 0.6 })
                .with_horizon(SimDuration::from_secs(100))
                .with_epoch(SimDuration::from_secs(epoch_secs))
                .with_window(SimDuration::from_secs(50))
                .with_spillover(2, SimDuration::from_secs(10))
                .with_faults(profile)
                .with_seed(fault_seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
            let kind = SchedulerKind::VersaSlotBigLittle;
            let mut sequential = FleetEngine::new(kind, config);
            while sequential.advance_epoch(Parallelism::Sequential) {}
            let mut pooled = FleetEngine::new(kind, config);
            pooled.run(Parallelism::Threads(2));
            prop_assert_eq!(
                serde_json::to_string(&sequential.report()).unwrap(),
                serde_json::to_string(&pooled.report()).unwrap()
            );
            prop_assert_eq!(sequential.fault_stats(), pooled.fault_stats());
        }
    }

    #[test]
    fn noop_fault_profile_keeps_fleet_reports_byte_identical() {
        let plain = run_fleet(
            Parallelism::Sequential,
            SchedulerKind::VersaSlotBigLittle,
            fleet_config(),
        );
        let mut engine = FleetEngine::new(
            SchedulerKind::VersaSlotBigLittle,
            fleet_config().with_faults(FaultProfile::new(5)),
        );
        while engine.advance_epoch(Parallelism::Sequential) {}
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&engine.report()).unwrap(),
            "an empty fault schedule must not change a single fleet byte"
        );
        assert!(engine.fault_stats().is_zero());
        // Structurally, too: no shard engine and no fabric built a fault plane.
        assert!(
            !engine.has_fault_plane(),
            "an empty fault schedule built a fault plane"
        );
        let faulted = FleetEngine::new(
            SchedulerKind::VersaSlotBigLittle,
            fleet_config().with_faults(FaultProfile::new(5).with_pr_failures(0.05)),
        );
        assert!(faulted.has_fault_plane());
    }

    #[test]
    fn faulty_fleet_is_deterministic_and_merges_stats() {
        // Heavy spillover (threshold 1) exercises the forwarding fabric; a
        // high flap duty cycle guarantees stalled forwards, and PR failures
        // exercise every shard's retry path.
        let profile = FaultProfile::new(11)
            .with_pr_failures(0.05)
            .with_link_flaps(0.2, SimDuration::from_secs(5));
        let config = fleet_config()
            .with_spillover(1, SimDuration::from_secs(20))
            .with_faults(profile);
        let run = |modes: &[Parallelism]| {
            let mut engine = FleetEngine::new(SchedulerKind::VersaSlotBigLittle, config);
            for mode in modes.iter().cycle() {
                if !engine.advance_epoch(*mode) {
                    break;
                }
            }
            engine
        };
        let sequential = run(&[Parallelism::Sequential]);
        let reference = serde_json::to_string(&sequential.report()).unwrap();
        let stats = sequential.fault_stats();
        // One-epoch three-worker sessions, alone and alternating with
        // one-worker epochs, so shards are handed back between epochs.
        for modes in [
            &[Parallelism::Threads(3)][..],
            &[Parallelism::Threads(3), Parallelism::Sequential],
        ] {
            let other = run(modes);
            assert_eq!(
                reference,
                serde_json::to_string(&other.report()).unwrap(),
                "fault injection broke fleet determinism under {modes:?}"
            );
            assert_eq!(stats, other.fault_stats(), "{modes:?}");
        }
        assert!(
            stats.pr_failures > 0,
            "no PR failed on any shard: {stats:?}"
        );
        assert!(stats.pr_retries > 0, "no PR retried: {stats:?}");
        assert!(stats.link_flaps > 0, "no forward was stalled: {stats:?}");
        assert!(!stats.flap_stall.is_zero());
        // The allocation-free invariant survives fault events on every shard.
        assert_eq!(sequential.shard_grow_events(), vec![0; 4]);
    }

    /// Panics on its first scheduling pass.
    struct PanickingPolicy;

    impl Policy for PanickingPolicy {
        fn name(&self) -> &'static str {
            "panicking"
        }

        fn schedule(&mut self, _sim: &mut crate::engine::SharingSimulator) {
            panic!("shard policy exploded");
        }
    }

    #[test]
    #[should_panic(expected = "a fleet worker panicked")]
    fn a_panicking_shard_fails_the_pooled_run_instead_of_hanging() {
        // On 2 workers the calling thread runs shards 0 and 1, and a spawned
        // worker runs shards 2 and 3.
        let mut engine = FleetEngine::new(SchedulerKind::VersaSlotBigLittle, fleet_config());
        engine.shards[3].policy = Box::new(PanickingPolicy);
        engine.run(Parallelism::Threads(2));
    }

    #[test]
    #[should_panic(expected = "not supported in fleet mode")]
    fn baseline_fleets_are_rejected() {
        FleetEngine::new(SchedulerKind::Baseline, fleet_config());
    }

    #[test]
    fn validate_names_the_offending_parameter() {
        let process = ArrivalProcess::Poisson { rate_per_sec: 1.0 };
        let err = FleetConfig::new(0, process).validate().unwrap_err();
        assert_eq!(err.parameter(), "shards");
        assert_eq!(err.to_string(), "a fleet needs at least one shard");
        let err = fleet_config()
            .with_faults(FaultProfile::new(0).with_pr_failures(2.0))
            .validate()
            .unwrap_err();
        assert_eq!(err.parameter(), "pr_fail_prob");
        assert_eq!(fleet_config().validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shard_fleets_are_rejected() {
        FleetEngine::new(
            SchedulerKind::VersaSlotBigLittle,
            FleetConfig::new(0, ArrivalProcess::Poisson { rate_per_sec: 1.0 }),
        );
    }
}
