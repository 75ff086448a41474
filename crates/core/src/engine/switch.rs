//! The switch plane: D_switch (Eq. 1) and cross-board live migration.  It
//! exists only when [`SystemConfig::switching`] is `Some`.  Every admission
//! and completion updates the candidate queue; every *n*-th update closes a
//! [`DswitchWindow`] period (see [`crate::dswitch`] for the reading of Eq. 1)
//! and feeds its value to the [`SwitchLoop`].  A switch disables the source
//! board at once, so in-flight pipelines drain on their home board, and
//! enables the target when the migration payload has crossed the Aurora link.
//!
//! [`SystemConfig::switching`]: crate::config::SystemConfig::switching

use versaslot_sim::{TraceDetail, TraceKind};

use crate::config::SystemConfig;
use crate::dswitch::{dswitch_value, DswitchSample, DswitchWindow, SwitchLoop};
use crate::migration::{migration_overhead, MigrationRecord};

use super::{Event, SharingSimulator};

/// Runtime state of the switch plane.
#[derive(Debug)]
pub(super) struct SwitchPlane {
    /// The board taking new grants (the source until a switch completes).
    active_board: usize,
    /// A switch was triggered and has not completed yet.
    pending: bool,
    switch_loop: SwitchLoop,
    window: DswitchWindow,
    trace: Vec<DswitchSample>,
    migrations: Vec<MigrationRecord>,
}

impl SwitchPlane {
    /// The plane of `config` on board 0; `None` without switching.
    pub(super) fn new(config: &SystemConfig) -> Option<Self> {
        let cfg = config.switching?;
        Some(SwitchPlane {
            active_board: 0,
            pending: false,
            switch_loop: SwitchLoop::new(cfg.thresholds, config.boards[0].layout.kind()),
            window: DswitchWindow::new(cfg.period),
            trace: Vec::new(),
            migrations: Vec::new(),
        })
    }

    /// The D_switch samples and the migrations so far.
    pub(super) fn records(&self) -> (&[DswitchSample], &[MigrationRecord]) {
        (&self.trace, &self.migrations)
    }
}

impl SharingSimulator {
    /// The board taking new grants: board 0 without switching.
    pub(super) fn active_board(&self) -> usize {
        self.switch.as_ref().map_or(0, |switch| switch.active_board)
    }

    /// Adds the `tasks` of an application granted its first slot to `N_PR`.
    pub(super) fn record_app_started(&mut self, tasks: u32) {
        if let Some(switch) = self.switch.as_mut() {
            switch.window.record_started(u64::from(tasks));
        }
    }

    /// One candidate-queue update: at the end of a period, evaluates
    /// D_switch, records the sample and triggers a switch when the loop asks
    /// for one and none is in flight.
    #[inline(never)]
    pub(super) fn candidate_queue_updated(&mut self) {
        let Some(switch) = self.switch.as_mut() else {
            return;
        };
        if !switch.window.update_ends_period() {
            return;
        }
        let candidate_batch: u64 = self
            .active
            .iter()
            .map(|&id| u64::from(self.apps.expect(id).batch))
            .sum();
        let inputs = switch.window.close_period(
            self.blocked_events,
            self.active.len() as u64,
            candidate_batch,
        );
        let value = dswitch_value(inputs);
        let source = switch.active_board;
        let target = switch
            .switch_loop
            .observe(value)
            .filter(|_| !switch.pending)
            .and_then(|layout| {
                self.config
                    .boards
                    .iter()
                    .position(|board| board.layout.kind() == layout)
            })
            .filter(|&board| board != source);
        switch.trace.push(DswitchSample {
            // Every admitted application is active or completed, retired or not.
            completed_apps: self.arrivals_admitted - self.active.len() as u64,
            value,
            active_layout: self.config.boards[source].layout.kind(),
            triggered_switch: target.is_some(),
        });
        if let Some(target) = target {
            self.perform_switch(source, target, value);
        }
    }

    /// Migrates the ready applications from board `source` to `target`: the
    /// source stops taking grants now, and the target starts when the
    /// payload (stalled by any link flap in progress) has crossed.
    fn perform_switch(&mut self, source: usize, target: usize, dswitch: f64) {
        let now = self.now;
        let migrated_apps = self.active.len() as u32;
        let switching = self.config.switching.expect("switching configured");
        let overhead = migration_overhead(
            migrated_apps,
            switching.payload_per_app_bytes,
            &self.config.boards[source].aurora,
        ) + self.link_stall(source);
        self.set_board_enabled(source, false);
        let switch = self.switch.as_mut().expect("switch plane present");
        switch.pending = true;
        switch.migrations.push(MigrationRecord {
            triggered_at: now,
            migrated_apps,
            overhead,
            dswitch,
        });
        self.events
            .push(now + overhead, Event::SwitchComplete { board: target });
        self.trace.log(
            now,
            TraceKind::SwitchTriggered,
            None,
            None,
            None,
            TraceDetail::SwitchTriggered {
                board: target as u32,
                migrated_apps,
                overhead,
            },
        );
        self.trace.log(
            now,
            TraceKind::AppMigrated,
            None,
            None,
            None,
            TraceDetail::Migrated {
                apps: migrated_apps,
            },
        );
    }

    #[inline(never)]
    pub(super) fn handle_switch_complete(&mut self, board: usize) {
        self.set_board_enabled(board, true);
        let switch = self.switch.as_mut().expect("switch plane present");
        switch.active_board = board;
        switch.pending = false;
        self.pass_due = true;
        self.trace.log(
            self.now,
            TraceKind::Note,
            None,
            None,
            None,
            TraceDetail::SwitchComplete {
                board: board as u32,
            },
        );
    }

    /// Checks the window's `N_PR` against the tasks of every stored
    /// application that started: equal until one is retired, no less after.
    #[cfg(any(test, debug_assertions))]
    pub(super) fn verify_switch_plane(&self) {
        let Some(switch) = self.switch.as_ref() else {
            return;
        };
        let walked: u64 = self
            .apps
            .iter()
            .filter(|a| a.started || a.state == super::AppState::Completed)
            .map(|a| u64::from(self.suite[a.app_index].task_count()))
            .sum();
        let (counted, retired) = (
            switch.window.pr_tasks(),
            self.apps.len() as u64 != self.arrivals_admitted,
        );
        assert!(
            counted == walked || (retired && counted > walked),
            "the D_switch PR-task counter diverged: {counted} vs {walked}"
        );
    }
}
