//! Solver micro-benchmarks (ablation A3): the paper's 2^k enumeration vs
//! the production solvers as the active-I/O queue grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dosas::schedule::{self, SolverKind};
use dosas::{CostModel, OpRates, RequestSpec};
use std::hint::black_box;

const MIB: f64 = 1024.0 * 1024.0;

fn queue(k: usize) -> Vec<dosas::Item> {
    let rates = OpRates::paper();
    let model = CostModel::new(118.0 * MIB, 1.0, 1.0, &rates);
    let reqs: Vec<RequestSpec> = (0..k)
        .map(|i| {
            let mb = 128.0 + (i % 8) as f64 * 112.0; // 128..1024 MB mix
            let op = if i % 3 == 0 { "sum" } else { "gaussian2d" };
            RequestSpec::new(mb * MIB, rates.id(op).expect("paper op"))
        })
        .collect();
    model.items(&reqs)
}

fn bench_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver");
    for k in [4usize, 8, 12, 16, 32, 64] {
        let items = queue(k);
        for kind in [
            SolverKind::Exhaustive,
            SolverKind::Matrix,
            SolverKind::Threshold,
            SolverKind::BranchAndBound,
            SolverKind::Greedy,
        ] {
            let feasible = match kind {
                SolverKind::Exhaustive => k <= 16,
                SolverKind::Matrix => k <= 12,
                _ => true,
            };
            if !feasible {
                continue;
            }
            g.bench_with_input(BenchmarkId::new(kind.name(), k), &items, |b, items| {
                b.iter(|| schedule::solve(kind, black_box(items)))
            });
        }
    }
    g.finish();
}

/// One CE decision round over a borrowed snapshot, into a reused policy —
/// the way the driver runs it (no allocation once the buffers have grown).
fn bench_policy_generation(c: &mut Criterion) {
    use dosas::estimator::{ContentionEstimator, Policy, SystemProbe};
    use dosas::SolverKind;
    use pfs::{QueueSnapshot, RequestId, SnapshotRow};
    use simkit::SimTime;

    let mut estimator = ContentionEstimator::new(
        SolverKind::Threshold,
        OpRates::paper(),
        1.0,
        1.0,
        118.0 * MIB,
        16.0 * 1024.0 * MIB,
    );
    let gaussian = estimator.rates().id("gaussian2d");
    let mut policy = Policy::default();
    let mut g = c.benchmark_group("ce_policy");
    for k in [8usize, 64] {
        let mut queue = QueueSnapshot::default();
        queue.refill(
            SimTime::ZERO,
            (0..k).map(|i| SnapshotRow {
                id: RequestId(i as u64),
                op: gaussian,
                bytes: 128.0 * MIB,
            }),
        );
        let probe = SystemProbe::of(&queue);
        g.bench_with_input(BenchmarkId::from_parameter(k), &probe, |b, probe| {
            b.iter(|| estimator.generate_policy(SimTime::ZERO, black_box(probe), &mut policy))
        });
    }
    g.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_solvers, bench_policy_generation
}
criterion_main!(benches);
