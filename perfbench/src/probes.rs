//! Layer probes: time calls into one public layer in isolation, sized to
//! the concurrency the workload actually reached.
//!
//! Each probe does a fixed amount of work derived from its inputs, so the
//! host time it reports moves only when the layer's code does.

use dosas_repro::cluster::{ClusterConfig, Fabric, NodeId, Topology};
use dosas_repro::dosas::driver::PolicyLogEntry;
use dosas_repro::dosas::schedule::{self, SolverKind};
use dosas_repro::dosas::{Item, RunMetrics};
use dosas_repro::simkit::{RngFactory, ShareResource, SimTime};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Completions (or task turnovers) each probe measures: about one turnover
/// of the whole in-flight set, bounded so a probe stays under a second.
fn probe_ops(concurrency: usize) -> usize {
    concurrency.clamp(2_000, 4_000)
}

/// Most requests of `m` in flight at once (sweep over issue/complete).
pub fn peak_in_flight(m: &RunMetrics) -> usize {
    let mut edges: Vec<(SimTime, i32)> = m
        .records
        .iter()
        .flat_map(|r| [(r.issued_at, 1), (r.completed_at, -1)])
        .collect();
    // Completions sort before issues at the same instant.
    edges.sort_unstable();
    let (mut now, mut peak) = (0i64, 0i64);
    for (_, d) in edges {
        now += i64::from(d);
        peak = peak.max(now);
    }
    peak as usize
}

/// Host microseconds per flow completion of a `cluster::Fabric` wired like
/// `cluster`, holding `flows` storage→compute transfers in flight: each
/// completion is replaced by a fresh flow, so every step pays
/// `next_completion` + `advance` + `take_completed` + `start_flow` at the
/// target concurrency.
pub fn fabric_us_per_completion(cluster: &ClusterConfig, flows: usize, seed: u64) -> f64 {
    let (compute, storage) = (cluster.compute_nodes, cluster.storage_nodes);
    let rng = RngFactory::new(seed);
    let mut fabric = Fabric::with_topology(
        Topology::build(&cluster.topology, compute + storage),
        cluster.nic_bandwidth,
        cluster.switch_bandwidth,
        cluster.net_latency,
        cluster.flow_bandwidth_jitter,
        rng.stream("probe-fabric"),
    );
    let mut sizes = rng.stream("probe-flow-sizes");
    let mut next = 0usize;
    let mut start = |fabric: &mut Fabric, now: SimTime, sizes: &mut rand_chacha::ChaCha8Rng| {
        let src = NodeId(compute + next % storage);
        let dst = NodeId(next % compute);
        next += 1;
        fabric.start_flow(now, src, dst, sizes.random_range(1e6..16e6));
    };
    for _ in 0..flows.max(1) {
        start(&mut fabric, SimTime::ZERO, &mut sizes);
    }
    let target = probe_ops(flows);
    let t0 = Instant::now();
    let mut done = 0;
    while done < target {
        let t = fabric.next_completion().expect("flows in flight complete");
        fabric.advance(t);
        let finished = black_box(fabric.take_completed(t)).len();
        for _ in 0..finished {
            start(&mut fabric, t, &mut sizes);
        }
        done += finished;
    }
    t0.elapsed().as_secs_f64() * 1e6 / done as f64
}

/// Host microseconds per task turnover of a `simkit::ShareResource` with
/// `cores` capacity and `tasks` one-core tasks in flight (each completion
/// is replaced, as a storage CPU sees kernels come and go).
pub fn share_us_per_op(cores: usize, tasks: usize, seed: u64) -> f64 {
    let mut res = ShareResource::new(cores.max(1) as f64);
    let mut work = RngFactory::new(seed).stream("probe-share-work");
    for _ in 0..tasks.max(1) {
        res.add(SimTime::ZERO, work.random_range(0.1..2.0), 1.0);
    }
    let target = probe_ops(tasks);
    let t0 = Instant::now();
    let mut done = 0;
    while done < target {
        let t = res.next_completion().expect("tasks in flight complete");
        res.advance(t);
        let finished = black_box(res.take_completed(t)).len();
        for _ in 0..finished {
            res.add(t, work.random_range(0.1..2.0), 1.0);
        }
        done += finished;
    }
    t0.elapsed().as_secs_f64() * 1e6 / done as f64
}

/// Host microseconds per `dosas::schedule::solve` call at the batch sizes
/// the run's CE logged (up to `MAX_SOLVES` entries, evenly strided), over
/// seeded Eq. 5–7 cost items. `None` when the run made no decisions.
pub fn ce_solve_us(log: &[PolicyLogEntry], solver: SolverKind, seed: u64) -> Option<f64> {
    const MAX_SOLVES: usize = 4_000;
    let ks: Vec<usize> = log
        .iter()
        .step_by(log.len().div_ceil(MAX_SOLVES).max(1))
        .map(|e| e.k)
        .filter(|&k| k > 0)
        .collect();
    if ks.is_empty() {
        return None;
    }
    let mut rng = RngFactory::new(seed).stream("probe-ce-items");
    let (kernel_rate, bw) = (80.0 * 1048576.0, 118.0 * 1048576.0);
    let batches: Vec<Vec<Item>> = ks
        .iter()
        .map(|&k| {
            (0..k)
                .map(|_| {
                    let d = rng.random_range(8.0..1024.0) * 1048576.0;
                    Item {
                        x: d / kernel_rate + 32.0 / bw,
                        y: d / bw,
                        z: d / kernel_rate,
                    }
                })
                .collect()
        })
        .collect();
    let t0 = Instant::now();
    for items in &batches {
        black_box(schedule::solve(solver, black_box(items)));
    }
    Some(t0.elapsed().as_secs_f64() * 1e6 / batches.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosas_repro::cluster::TopologySpec;

    #[test]
    fn probes_report_positive_times() {
        let star = ClusterConfig::discfarm();
        assert!(fabric_us_per_completion(&star, 16, 1) > 0.0);
        let fat = ClusterConfig {
            compute_nodes: 8,
            storage_nodes: 8,
            topology: TopologySpec::FatTree { k: 4 },
            ..ClusterConfig::discfarm()
        };
        assert!(fabric_us_per_completion(&fat, 32, 1) > 0.0);
        assert!(share_us_per_op(1, 8, 1) > 0.0);
        let log = [PolicyLogEntry {
            time: SimTime::ZERO,
            server: 0,
            k: 12,
            kept_active: 3,
            demoted: 9,
            predicted_time: 1.0,
        }];
        assert!(ce_solve_us(&log, SolverKind::Threshold, 1).expect("one batch") > 0.0);
        assert_eq!(ce_solve_us(&[], SolverKind::Threshold, 1), None);
    }
}
