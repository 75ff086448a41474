//! The fault plane: PCAP load failures with retries, board failures and
//! repairs, and Aurora link flaps during a migration.  It exists only when
//! [`SystemConfig::active_faults`] is `Some`, so the fault-free hot path pays
//! one `Option` check per event at most.  Each slot carries an eviction
//! generation in its completion events: an eviction bumps it, so a completion
//! pushed for the evicted occupant is dropped (counted, never a panic).
//!
//! [`SystemConfig::active_faults`]: crate::config::SystemConfig::active_faults

use versaslot_sim::fault::{FaultProfile, FaultSchedule, FaultStats};
use versaslot_sim::{SimDuration, TraceDetail, TraceKind};
use versaslot_workload::AppId;

use super::mask::SlotMask;
use super::{Event, SharingSimulator, SlotState};

/// Runtime state of the fault plane: one record per slot and per board.
#[derive(Debug)]
pub(super) struct FaultState {
    schedule: FaultSchedule,
    stats: FaultStats,
    slots: Vec<SlotFault>,
    boards: Vec<BoardFault>,
}

#[derive(Debug, Clone, Copy, Default)]
struct SlotFault {
    /// Eviction generation (see the module docs).
    gen: u32,
    /// Failed attempts of the in-flight reconfiguration.
    pr_attempts: u32,
    /// Evicted with its completion still queued (see `release_quarantined`).
    quarantined: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct BoardFault {
    down: bool,
    /// Whether the board accepted grants when it failed (restored on repair).
    was_enabled: bool,
    /// A `BoardDown`/`BoardUp` timer is pending (at most one per board).
    timer_armed: bool,
}

impl FaultState {
    /// The plane of `profile` over `boards` boards and `slots` slots.
    pub(super) fn new(profile: FaultProfile, boards: usize, slots: usize) -> Self {
        FaultState {
            schedule: FaultSchedule::new(profile, boards),
            stats: FaultStats::default(),
            slots: vec![SlotFault::default(); slots],
            boards: vec![BoardFault::default(); boards],
        }
    }

    /// A fresh load was issued into `slot`: its failed attempts restart.
    /// Returns the generation its completion carries.
    pub(super) fn pr_issued(&mut self, slot: usize) -> u32 {
        let record = &mut self.slots[slot];
        record.pr_attempts = 0;
        record.gen
    }

    /// Draws whether the load completing in `slot` failed; a success
    /// restarts the slot's failed attempts.
    pub(super) fn pr_load_fails(&mut self, slot: usize) -> bool {
        if self.schedule.next_pr_outcome() {
            return true;
        }
        self.slots[slot].pr_attempts = 0;
        false
    }
}

impl SharingSimulator {
    /// Counters of the fault plane; all-zero when no fault profile is
    /// attached (kept out of `RunReport` so fault-free reports are
    /// byte-identical to builds without the fault plane).
    pub(crate) fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Whether the fault plane was built (see
    /// [`SystemConfig::active_faults`](crate::config::SystemConfig::active_faults)).
    #[cfg(test)]
    pub(crate) fn has_fault_plane(&self) -> bool {
        self.fault.is_some()
    }

    /// Whether `board` is currently failed by the fault plane.
    pub(super) fn board_fault_down(&self, board: usize) -> bool {
        self.fault.as_ref().is_some_and(|f| f.boards[board].down)
    }

    /// The eviction generation completion events for `slot_idx` must carry.
    pub(super) fn slot_event_gen(&self, slot_idx: usize) -> u32 {
        self.fault.as_ref().map_or(0, |f| f.slots[slot_idx].gen)
    }

    /// Consumes the stale completion of a slot evicted by a board failure and
    /// returns the slot to the free pool.  The release is deferred to this
    /// point (rather than eviction time) so each slot keeps at most one event
    /// in flight — the bound the pre-sized queue reserves.
    #[cold]
    #[inline(never)]
    pub(super) fn release_quarantined(&mut self, slot_idx: usize) {
        let fault = self.fault.as_deref_mut().expect("fault plane present");
        fault.stats.cancelled_events += 1;
        let record = &mut fault.slots[slot_idx];
        debug_assert!(
            record.quarantined,
            "stale completion on a slot that was never quarantined"
        );
        record.quarantined = false;
        let app_id = match self.slots[slot_idx].state {
            SlotState::Reconfiguring { app, .. } => app,
            SlotState::Loaded { app, .. } => app,
            SlotState::Free => unreachable!("quarantined slots stay occupied until released"),
        };
        let kind = self.slots[slot_idx].descriptor.kind;
        self.set_slot_state(slot_idx, SlotState::Free);
        self.index_slot_freed(slot_idx);
        self.update_app(app_id, |app| app.vacate(kind));
    }

    /// A PCAP bitstream load failed.  While retries remain the same bitstream
    /// is re-driven through the board's serial PR path after a capped
    /// exponential backoff (occupying the issuing core again, exactly like a
    /// fresh load); once retries are exhausted the placement is abandoned and
    /// the unit returns to the unplaced set for the policy to re-place.
    #[inline(never)]
    pub(super) fn handle_pr_failed(
        &mut self,
        slot_idx: usize,
        app_id: AppId,
        unit_idx: usize,
    ) -> (AppId, usize) {
        let now = self.now;
        let fault = self.fault.as_deref_mut().expect("fault plane present");
        let record = &mut fault.slots[slot_idx];
        let attempt = record.pr_attempts + 1;
        let backoff = fault.schedule.pr_backoff(attempt);
        let retry = attempt <= fault.schedule.profile().max_pr_retries;
        fault.stats.pr_failures += 1;
        if retry {
            record.pr_attempts = attempt;
            fault.stats.pr_retries += 1;
        } else {
            record.pr_attempts = 0;
            fault.stats.pr_gave_up += 1;
            fault.stats.evictions += 1;
        }
        let gen = record.gen;
        let descriptor = self.slots[slot_idx].descriptor;
        let board = self.slots[slot_idx].board.0 as usize;
        self.trace.log(
            now,
            TraceKind::PrFailed,
            Some(app_id.0),
            Some(unit_idx as u32),
            Some(descriptor.id.0),
            TraceDetail::PrFault { attempt },
        );
        if retry {
            let at = now + backoff;
            let window = self.cores[board].issue_pr(&mut self.pr_paths[board], descriptor.kind, at);
            self.total_pr += 1;
            self.apps.expect_mut(app_id).pr_count += 1;
            self.events.push(
                window.finish,
                Event::PrComplete {
                    slot: slot_idx,
                    gen,
                },
            );
            self.trace.log(
                now,
                TraceKind::PrRetried,
                Some(app_id.0),
                Some(unit_idx as u32),
                Some(descriptor.id.0),
                TraceDetail::PrRetry { attempt, backoff },
            );
        } else {
            // Out of retries: free the slot and hand the unit back to the
            // scheduler (the next flush pass re-places it, possibly elsewhere).
            self.set_slot_state(slot_idx, SlotState::Free);
            self.index_slot_freed(slot_idx);
            self.update_app(app_id, |app| {
                app.vacate(descriptor.kind);
                app.unplace_unit(unit_idx);
            });
        }
        (app_id, unit_idx)
    }

    /// The fault plane takes `board` offline: every occupant (reconfiguring or
    /// loaded) is evicted back to the unplaced set with its in-flight
    /// completion cancelled via the slot generation, the board's slots leave
    /// the enabled mask, and a repair (`BoardUp`) is scheduled from the MTTR
    /// stream.
    #[inline(never)]
    pub(super) fn handle_board_down(&mut self, board: usize) {
        let now = self.now;
        let was_enabled = !(self.index.enabled & self.index.board[board]).is_empty();
        let fault = self.fault.as_deref_mut().expect("fault plane present");
        let record = &mut fault.boards[board];
        debug_assert!(!record.down, "board failed twice without repair");
        record.down = true;
        record.was_enabled = was_enabled;
        // Evict every occupant not already quarantined by an earlier failure
        // of this board.  `in_flight` tells whether the slot has a completion
        // event in the queue: a reconfiguring slot awaits `PrComplete`, a
        // busy slot awaits `ItemComplete`, an idle loaded slot awaits nothing.
        // An occupant in flight is detached now and its slot freed when its
        // stale event drains (see `release_quarantined`).
        let mut evicted = SlotMask::EMPTY;
        for slot_idx in self.index.board[board].iter() {
            let record = &mut fault.slots[slot_idx];
            let in_flight = match self.slots[slot_idx].state {
                _ if record.quarantined => continue,
                SlotState::Reconfiguring { .. } => true,
                SlotState::Loaded { busy, .. } => busy,
                SlotState::Free => continue,
            };
            record.pr_attempts = 0;
            if in_flight {
                record.gen = record.gen.wrapping_add(1);
                record.quarantined = true;
            }
            evicted.insert(slot_idx);
        }
        fault.stats.board_failures += 1;
        fault.stats.evictions += u64::from(evicted.count());
        let repair = fault.schedule.board_repair(board);

        self.pass_due = true;
        if was_enabled {
            self.set_board_enabled(board, false);
        }
        for slot_idx in evicted.iter() {
            let (app_id, unit_idx, in_flight) = match self.slots[slot_idx].state {
                SlotState::Reconfiguring { app, unit } => (app, unit, true),
                SlotState::Loaded { app, unit, busy } => (app, unit, busy),
                SlotState::Free => unreachable!("evicted slots are occupied"),
            };
            let slot_kind = self.slots[slot_idx].descriptor.kind;
            self.update_app(app_id, |app| {
                app.unplace_unit(unit_idx);
                if !in_flight {
                    app.vacate(slot_kind);
                }
            });
            if !in_flight {
                self.set_slot_state(slot_idx, SlotState::Free);
                self.index_slot_freed(slot_idx);
            }
        }
        self.events.push(now + repair, Event::BoardUp { board });
        self.trace.log(
            now,
            TraceKind::BoardDown,
            None,
            None,
            None,
            TraceDetail::BoardFailed {
                board: board as u32,
                evicted: evicted.count(),
                repair,
            },
        );
    }

    /// The fault plane repairs `board`: its slots rejoin the enabled mask (if
    /// the board accepted grants when it failed) and the next failure timer is
    /// armed — but only while the run still has work, so finite workloads
    /// always drain the queue.
    #[inline(never)]
    pub(super) fn handle_board_up(&mut self, board: usize) {
        let fault = self.fault.as_deref_mut().expect("fault plane present");
        let record = &mut fault.boards[board];
        debug_assert!(record.down, "repair of a healthy board");
        record.down = false;
        record.timer_armed = false;
        fault.stats.board_repairs += 1;
        let restore = record.was_enabled;
        self.pass_due = true;
        if restore {
            self.set_board_enabled(board, true);
        }
        self.trace.log(
            self.now,
            TraceKind::BoardUp,
            None,
            None,
            None,
            TraceDetail::BoardRepaired {
                board: board as u32,
            },
        );
        self.arm_board_timers();
    }

    /// Arms one pending failure timer per healthy board, drawing the delay
    /// from the board's MTTF stream.  Called from arrivals and repairs only,
    /// and only while work remains (live applications or future arrivals), so
    /// a finite run's queue drains once its workload does.
    pub(super) fn arm_board_timers(&mut self) {
        let Some(fault) = self.fault.as_deref_mut() else {
            return;
        };
        if fault.schedule.profile().board_mttf.is_none()
            || (self.active.is_empty() && self.pending_arrivals == 0)
        {
            return;
        }
        for (board, record) in fault.boards.iter_mut().enumerate() {
            if record.timer_armed || record.down {
                continue;
            }
            let Some(delay) = fault.schedule.next_board_failure(board) else {
                continue;
            };
            record.timer_armed = true;
            self.events
                .push(self.now + delay, Event::BoardDown { board });
        }
    }

    /// The stall an Aurora link flap in progress on `link` adds to a
    /// migration payload sent at `now`, counted and traced when not zero.
    pub(super) fn link_stall(&mut self, link: usize) -> SimDuration {
        let now = self.now;
        let Some(fault) = self.fault.as_deref_mut() else {
            return SimDuration::ZERO;
        };
        let stall = fault.schedule.link_stall(link, now);
        if !stall.is_zero() {
            fault.stats.link_flaps += 1;
            fault.stats.flap_stall += stall;
            self.trace.log(
                now,
                TraceKind::LinkFlap,
                None,
                None,
                None,
                TraceDetail::LinkFlapped {
                    link: link as u32,
                    stall,
                },
            );
        }
        stall
    }
}
