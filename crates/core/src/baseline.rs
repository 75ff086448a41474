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

use versaslot_sim::{SimDuration, SimTime, TimeWeightedSeries};
use versaslot_workload::{AppArrival, ApplicationSpec};

use crate::ilp::pipeline_makespan;
use crate::metrics::{AppRecord, RunReport};
use versaslot_fpga::bitstream::BitstreamKind;
use versaslot_fpga::board::BoardSpec;

/// Name under which baseline runs appear in reports.
pub(crate) const BASELINE_NAME: &str = "baseline-temporal";

/// Computes the time one application occupies the whole FPGA: full reconfiguration
/// (cold SD read plus PCAP load of the full-fabric bitstream) followed by the
/// pipelined batch execution with every task resident.
pub(crate) fn baseline_service_time(
    board: &BoardSpec,
    spec: &ApplicationSpec,
    batch: u32,
) -> SimDuration {
    let full = board.bitstream_sizes.size_of(BitstreamKind::Full);
    let reconfig = board.sd_card.read_duration(full) + board.pcap.load_duration(full);
    let stage_times: Vec<SimDuration> = spec
        .tasks()
        .iter()
        .map(|t| t.exec_per_item() + board.dma.transfer_duration(t.data_per_item_bytes()))
        .collect();
    reconfig + pipeline_makespan(&stage_times, batch)
}

/// Runs the exclusive temporal-multiplexing baseline over one arrival sequence.
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
    let mut lut_util = TimeWeightedSeries::new(SimTime::ZERO, 0.0);
    let mut ff_util = TimeWeightedSeries::new(SimTime::ZERO, 0.0);
    let mut occupancy = TimeWeightedSeries::new(SimTime::ZERO, 0.0);

    let mut apps = Vec::with_capacity(arrivals.len());
    let mut fpga_free_at = SimTime::ZERO;

    let mut sorted: Vec<&AppArrival> = arrivals.iter().collect();
    sorted.sort_by_key(|a| (a.arrival, a.id));

    for arrival in sorted {
        let spec = suite
            .get(arrival.app_index)
            .unwrap_or_else(|| panic!("arrival {} has no suite entry", arrival.id));
        let start = arrival.arrival.max_of(fpga_free_at);
        let service = baseline_service_time(board, spec, arrival.batch_size);
        let completion = start + service;
        fpga_free_at = completion;

        // Utilization: while the app occupies the FPGA its whole pipeline is
        // resident; between apps the fabric is idle.
        let resident: versaslot_fpga::ResourceVector =
            spec.tasks().iter().map(|t| t.little_impl()).sum();
        lut_util.set(start, resident.lut as f64 / fabric.lut.max(1) as f64);
        ff_util.set(start, resident.ff as f64 / fabric.ff.max(1) as f64);
        occupancy.set(start, 1.0);
        lut_util.set(completion, 0.0);
        ff_util.set(completion, 0.0);
        occupancy.set(completion, 0.0);

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
    RunReport {
        scheduler: BASELINE_NAME.to_string(),
        total_pr: apps.len() as u64,
        blocked_events: 0,
        blocked_tasks: 0,
        switches: 0,
        // The analytic baseline serves one request per application.
        events_processed: apps.len() as u64,
        makespan,
        mean_slot_occupancy: occupancy.time_weighted_mean(makespan),
        mean_lut_utilization: lut_util.time_weighted_mean(makespan),
        mean_ff_utilization: ff_util.time_weighted_mean(makespan),
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
