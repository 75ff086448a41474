//! In-memory spans taken from the benchmark's own code around calls into the
//! simulator's public API.
//!
//! Per-call layers (policy pass, engine step, arrival draw, fold) keep only an
//! aggregate ([`Acc`]); per-epoch and per-run spans are kept whole by the
//! workloads and summarised at the end.  Nothing is written until the run is
//! over.

use std::time::{Duration, Instant};

use versaslot::core::engine::SharingSimulator;
use versaslot::core::policy::Policy;
use versaslot::fpga::SlotKind;

/// Aggregate of one layer's spans: how many calls and how long they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub calls: u64,
    pub total: Duration,
}

impl Acc {
    pub fn add(&mut self, elapsed: Duration) {
        self.calls += 1;
        self.total += elapsed;
    }

    pub fn secs(&self) -> f64 {
        self.total.as_secs_f64()
    }

    /// Mean nanoseconds per call (0 when the layer was never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_nanos() as f64 / self.calls as f64
        }
    }
}

/// A lap clock: each [`Clock::lap`] charges the time since the previous lap
/// to one layer, so consecutive spans share one clock read and the loop code
/// between calls is charged to the call that follows it.  With `ON = false`
/// every method compiles to nothing, so the checking runs share the traced
/// loops' code without paying for the clock.
pub struct Clock<const ON: bool> {
    last: Option<Instant>,
}

impl<const ON: bool> Clock<ON> {
    pub fn start() -> Self {
        Clock {
            last: ON.then(Instant::now),
        }
    }

    #[inline(always)]
    pub fn lap(&mut self, acc: &mut Acc) {
        if !ON {
            return;
        }
        if let Some(last) = self.last.as_mut() {
            let now = Instant::now();
            acc.add(now - *last);
            *last = now;
        }
    }
}

/// A [`Policy`] wrapper that times every scheduling pass and counts the
/// productive ones: passes after which the PR count or the number of free
/// Big/Little slots changed.
pub struct TimedPolicy {
    inner: Box<dyn Policy + Send>,
    pub pass: Acc,
    pub productive: u64,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn Policy + Send>) -> Self {
        TimedPolicy {
            inner,
            pass: Acc::default(),
            productive: 0,
        }
    }
}

fn occupancy(sim: &SharingSimulator) -> (u64, u32, u32) {
    (
        sim.total_pr(),
        sim.free_slot_count(SlotKind::Big),
        sim.free_slot_count(SlotKind::Little),
    )
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, sim: &mut SharingSimulator) {
        let before = occupancy(sim);
        let start = Instant::now();
        self.inner.schedule(sim);
        self.pass.add(start.elapsed());
        if occupancy(sim) != before {
            self.productive += 1;
        }
    }

    fn scratch_allocs(&self) -> u64 {
        self.inner.scratch_allocs()
    }
}

/// Policy-layer totals over a set of wrapped policies.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyTotals {
    pub pass: Acc,
    pub productive: u64,
}

impl PolicyTotals {
    pub fn add(&mut self, policy: &TimedPolicy) {
        self.pass.calls += policy.pass.calls;
        self.pass.total += policy.pass.total;
        self.productive += policy.productive;
    }
}
