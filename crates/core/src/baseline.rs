//! Exclusive temporal multiplexing (the paper's Baseline).
//!
//! Traditional FPGA-as-a-service offerings give each application the whole FPGA and
//! time-multiplex applications by full fabric reconfiguration.  Each application
//! therefore pays a large context-switch overhead (reading and loading the full
//! bitstream), but once loaded every task of its pipeline is resident
//! simultaneously, so its batch executes as a maximally wide pipeline.  Queueing is
//! strictly first-come-first-served on the single whole-FPGA resource.
//!
//! Because nothing is shared, this scheduler does not need the event engine: the
//! run is a simple sequential recurrence, which also makes it a convenient
//! analytical cross-check for the simulator.

use versaslot_sim::{SimDuration, SimTime, TimeWeightedRatios};
use versaslot_workload::{AppArrival, ApplicationSpec};

use crate::ilp::pipeline_makespan;
use crate::metrics::{AppRecord, RunReport};
use versaslot_fpga::bitstream::BitstreamKind;
use versaslot_fpga::board::BoardSpec;
use versaslot_fpga::ResourceVector;

/// Name under which baseline runs appear in reports.
pub(crate) const BASELINE_NAME: &str = "baseline-temporal";

/// The full reconfiguration every application pays on `board`: a cold SD read
/// plus the PCAP load of the full-fabric bitstream.
fn full_reconfiguration(board: &BoardSpec) -> SimDuration {
    let full = board.bitstream_sizes.size_of(BitstreamKind::Full);
    board.sd_card.read_duration(full) + board.pcap.load_duration(full)
}

/// What one suite application costs on the whole FPGA, whatever its batch:
/// the per-item time of each pipeline stage (execution plus its DMA
/// transfer) and the fabric its resident pipeline occupies.
struct ExclusiveApp {
    stage_times: Vec<SimDuration>,
    resident: ResourceVector,
}

impl ExclusiveApp {
    fn of(board: &BoardSpec, spec: &ApplicationSpec) -> Self {
        ExclusiveApp {
            stage_times: spec
                .tasks()
                .iter()
                .map(|t| t.exec_per_item() + board.dma.transfer_duration(t.data_per_item_bytes()))
                .collect(),
            resident: spec.tasks().iter().map(|t| t.little_impl()).sum(),
        }
    }
}

/// Computes the time one application occupies the whole FPGA: full reconfiguration
/// (cold SD read plus PCAP load of the full-fabric bitstream) followed by the
/// pipelined batch execution with every task resident.
#[cfg(test)]
pub(crate) fn baseline_service_time(
    board: &BoardSpec,
    spec: &ApplicationSpec,
    batch: u32,
) -> SimDuration {
    full_reconfiguration(board)
        + pipeline_makespan(&ExclusiveApp::of(board, spec).stage_times, batch)
}

/// Runs the exclusive temporal-multiplexing baseline over one arrival sequence.
///
/// The full reconfiguration is computed once per run, and each suite
/// application's stage times and resident fabric once, at its first arrival.
///
/// # Panics
///
/// Panics if an arrival references an application outside `suite`.
pub(crate) fn run_baseline(
    board: &BoardSpec,
    suite: &[ApplicationSpec],
    arrivals: &[AppArrival],
) -> RunReport {
    let fabric = board.layout.total_capacity();
    // Occupancy, LUT and FF utilization, one lane each: the whole FPGA is one
    // slot, and the fabric's capacity the denominator of the other two.
    let idle = [(0, 1), (0, fabric.lut), (0, fabric.ff)];
    let mut utilization = TimeWeightedRatios::new(SimTime::ZERO, idle);

    let mut apps = Vec::with_capacity(arrivals.len());
    let mut fpga_free_at = SimTime::ZERO;

    let mut sorted: Vec<&AppArrival> = arrivals.iter().collect();
    sorted.sort_by_key(|a| (a.arrival, a.id));

    let reconfig = full_reconfiguration(board);
    let mut costs: Vec<Option<ExclusiveApp>> = Vec::new();
    costs.resize_with(suite.len(), || None);
    for arrival in sorted {
        let spec = suite
            .get(arrival.app_index)
            .unwrap_or_else(|| panic!("arrival {} has no suite entry", arrival.id));
        let cost = costs[arrival.app_index].get_or_insert_with(|| ExclusiveApp::of(board, spec));
        let start = arrival.arrival.max_of(fpga_free_at);
        let service = reconfig + pipeline_makespan(&cost.stage_times, arrival.batch_size);
        let completion = start + service;
        fpga_free_at = completion;

        // Utilization: while the app occupies the FPGA its whole pipeline is
        // resident; between apps the fabric is idle.
        let resident = cost.resident;
        utilization.set(
            start,
            [(1, 1), (resident.lut, fabric.lut), (resident.ff, fabric.ff)],
        );
        utilization.set(completion, idle);

        apps.push(AppRecord {
            id: arrival.id,
            app_index: arrival.app_index,
            batch_size: arrival.batch_size,
            arrival: arrival.arrival,
            completion,
            pr_count: 1,
            used_big_slot: false,
        });
    }

    let makespan = fpga_free_at;
    let [mean_slot_occupancy, mean_lut_utilization, mean_ff_utilization] =
        utilization.time_weighted_mean(makespan);
    RunReport {
        scheduler: BASELINE_NAME.to_string(),
        total_pr: apps.len() as u64,
        blocked_events: 0,
        blocked_tasks: 0,
        switches: 0,
        // The analytic baseline serves one request per application.
        events_processed: apps.len() as u64,
        makespan,
        mean_slot_occupancy,
        mean_lut_utilization,
        mean_ff_utilization,
        dswitch_trace: Vec::new(),
        migrations: Vec::new(),
        apps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use versaslot_workload::benchmarks::BenchmarkApp;
    use versaslot_workload::AppId;

    fn board() -> BoardSpec {
        BoardSpec::zcu216_only_little()
    }

    #[test]
    fn service_time_includes_full_reconfiguration() {
        let spec = BenchmarkApp::LeNet.spec();
        let service = baseline_service_time(&board(), &spec, 10);
        let full = board().bitstream_sizes.full;
        let reconfig = board().sd_card.read_duration(full) + board().pcap.load_duration(full);
        assert!(service > reconfig);
        // And it is far larger than a single partial reconfiguration would be.
        assert!(reconfig.as_millis_f64() > 500.0);
    }

    #[test]
    fn queueing_builds_up_when_arrivals_outpace_service() {
        let arrivals: Vec<AppArrival> = (0..5)
            .map(|i| {
                AppArrival::new(
                    AppId(i),
                    BenchmarkApp::AlexNet.suite_index(),
                    20,
                    SimTime::from_millis(u64::from(i) * 100),
                )
            })
            .collect();
        let report = run_baseline(&board(), &BenchmarkApp::suite(), &arrivals);
        assert_eq!(report.completed(), 5);
        // Response times grow roughly linearly with the queue position.
        let responses: Vec<f64> = report
            .apps
            .iter()
            .map(|a| a.response().as_millis_f64())
            .collect();
        assert!(responses.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn idle_system_has_no_queueing() {
        // With widely spaced arrivals every response equals the service time.
        let spec_index = BenchmarkApp::Rendering3D.suite_index();
        let arrivals: Vec<AppArrival> = (0..3)
            .map(|i| {
                AppArrival::new(
                    AppId(i),
                    spec_index,
                    10,
                    SimTime::from_secs(u64::from(i) * 60),
                )
            })
            .collect();
        let report = run_baseline(&board(), &BenchmarkApp::suite(), &arrivals);
        let service = baseline_service_time(&board(), &BenchmarkApp::Rendering3D.spec(), 10);
        for app in &report.apps {
            assert_eq!(app.response(), service);
        }
        assert!(report.mean_lut_utilization > 0.0);
        assert!(report.mean_slot_occupancy < 1.0);
    }

    /// The reported means are within 4 ulp of the exact rationals: busy
    /// time, and resident LUTs and FFs times busy time over the fabric's,
    /// divided by the makespan.  The arrivals leave the FPGA idle between
    /// some applications and queue others.
    #[test]
    fn utilization_is_the_exact_time_weighted_mean() {
        let suite = BenchmarkApp::suite();
        let arrivals: Vec<AppArrival> = [
            (BenchmarkApp::LeNet, 0),
            (BenchmarkApp::Rendering3D, 10),
            (BenchmarkApp::OpticalFlow, 20_000),
            (BenchmarkApp::AlexNet, 20_050),
        ]
        .into_iter()
        .enumerate()
        .map(|(id, (app, at_ms))| {
            AppArrival::new(
                AppId(id as u32),
                app.suite_index(),
                12,
                SimTime::from_millis(at_ms),
            )
        })
        .collect();
        let report = run_baseline(&board(), &suite, &arrivals);

        let (mut busy, mut lut, mut ff) = (0u128, 0u128, 0u128);
        for app in &report.apps {
            let spec = &suite[app.app_index];
            let service =
                u128::from(baseline_service_time(&board(), spec, app.batch_size).as_micros());
            let resident: versaslot_fpga::ResourceVector =
                spec.tasks().iter().map(|t| t.little_impl()).sum();
            busy += service;
            lut += u128::from(resident.lut) * service;
            ff += u128::from(resident.ff) * service;
        }
        let total = u128::from(report.makespan.as_micros());
        let fabric = board().layout.total_capacity();
        // p / q rounded once: both are below 2^53, so they convert exactly.
        let nearest = |p: u128, q: u128| {
            assert!(p < 1 << 53 && q < 1 << 53, "{p} / {q} is not exact in f64");
            p as f64 / q as f64
        };
        let exact = [
            nearest(busy, total),
            nearest(lut, u128::from(fabric.lut) * total),
            nearest(ff, u128::from(fabric.ff) * total),
        ];
        let reported = [
            report.mean_slot_occupancy,
            report.mean_lut_utilization,
            report.mean_ff_utilization,
        ];
        assert!(exact[0] < 1.0, "the FPGA never idles");
        for (mean, exact) in reported.into_iter().zip(exact) {
            // Adjacent non-negative doubles have adjacent bit patterns.
            let ulps = mean.to_bits().abs_diff(exact.to_bits());
            assert!(ulps <= 4, "reported {mean}, exact {exact} ({ulps} ulp)");
        }
    }

    #[test]
    fn arrivals_are_served_in_arrival_order() {
        let arrivals = vec![
            AppArrival::new(AppId(1), 0, 10, SimTime::from_millis(50)),
            AppArrival::new(AppId(0), 0, 10, SimTime::ZERO),
        ];
        let report = run_baseline(&board(), &BenchmarkApp::suite(), &arrivals);
        assert!(report.apps[0].completion <= report.apps[1].completion);
        assert_eq!(report.apps.len(), 2);
    }
}
