//! Fractional (partial-offload) scheduling — the extension the paper's
//! framing invites.
//!
//! §I poses the problem as "splitting the computation part of active I/O
//! requests between the storage nodes and compute nodes", but the published
//! algorithm only picks endpoints (`a_i ∈ {0,1}`). With checkpointable
//! kernels a request can be *split*: the storage node processes the first
//! fraction `p` of the data, then ships the checkpoint plus the remaining
//! `(1−p)` for client-side completion — mechanically identical to an
//! interruption, but planned in advance.
//!
//! Unlike the binary objective (which serializes all storage-side work),
//! splitting pays off because the storage CPU and the network then run
//! **concurrently**. The planner therefore optimizes an overlap-aware
//! makespan estimate for a batch of `k` requests sharing one storage node:
//!
//! ```text
//! T(p) = max( Σ_i p·d_i / S_i ,  Σ_i (1−p)·d_i / bw )  +  max_i (1−p)·d_i / C_i
//!         └── storage CPU busy ┘ └── outbound link busy ┘   └── client tail ┘
//! ```
//!
//! `T` is convex piecewise-linear in `p`, so the optimum is at `p = 0`,
//! `p = 1`, or the intersection of the two busy terms; all three are
//! evaluated directly (no search needed).

use serde::{Deserialize, Serialize};

/// One request as the fractional planner sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitItem {
    /// Request size `d_i` in bytes.
    pub bytes: f64,
    /// Storage-node processing rate for the op (`S_{C,op}`), bytes/s.
    pub storage_rate: f64,
    /// Client processing rate (`C_{C,op}`), bytes/s.
    pub compute_rate: f64,
}

/// The planner's output: one storage fraction shared by every request of
/// the batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitPlan {
    /// Fraction of each request's data processed on the storage node, in
    /// `[0, 1]` (0 for an empty batch).
    pub fraction: f64,
    /// Predicted makespan under the overlap model.
    pub predicted: f64,
}

impl SplitPlan {
    /// True if the plan degenerates to pure active storage.
    pub fn is_all_storage(&self) -> bool {
        self.fraction >= 1.0 - 1e-12
    }

    /// True if the plan degenerates to traditional storage.
    pub fn is_all_client(&self) -> bool {
        self.fraction <= 1e-12
    }
}

/// Predicted makespan for a common storage fraction `p` over `items`,
/// given network bandwidth `bw`.
pub fn predict(items: &[SplitItem], bw: f64, p: f64) -> f64 {
    let storage: f64 = items.iter().map(|i| p * i.bytes / i.storage_rate).sum();
    let network: f64 = items.iter().map(|i| (1.0 - p) * i.bytes / bw).sum();
    let tail = items
        .iter()
        .map(|i| (1.0 - p) * i.bytes / i.compute_rate)
        .fold(0.0, f64::max);
    storage.max(network) + tail
}

/// Plan a common split fraction for a batch sharing one storage node.
///
/// A single `p` is exact for homogeneous batches (the paper's experimental
/// setting); for heterogeneous batches it is a good heuristic because all
/// requests share the same two bottlenecks. Returns that fraction and the
/// predicted makespan.
pub fn solve(items: &[SplitItem], bw: f64) -> SplitPlan {
    assert!(bw.is_finite() && bw > 0.0);
    if items.is_empty() {
        return SplitPlan {
            fraction: 0.0,
            predicted: 0.0,
        };
    }
    for i in items {
        assert!(i.bytes >= 0.0 && i.storage_rate > 0.0 && i.compute_rate > 0.0);
    }

    // Candidates: endpoints plus the balance point where the storage-CPU
    // and network busy times intersect:
    //   p·A = (1−p)·B  ⇒  p* = B / (A + B)
    // with A = Σ d_i/S_i and B = Σ d_i/bw.
    let a: f64 = items.iter().map(|i| i.bytes / i.storage_rate).sum();
    let b: f64 = items.iter().map(|i| i.bytes / bw).sum();
    let balance = (a + b > 0.0).then(|| (b / (a + b)).clamp(0.0, 1.0));
    // The client tail kinks T(p) once per distinct d_i/C_i at the point
    // where the tail overtakes the busy terms; with a common p the tail is
    // linear, so the three candidates above cover every vertex of the
    // piecewise-linear objective... except where max() switches sides,
    // which is exactly the balance point already included.
    let (fraction, predicted) = [0.0, 1.0]
        .into_iter()
        .chain(balance)
        .map(|p| (p, predict(items, bw, p)))
        .min_by(|x, y| x.1.partial_cmp(&y.1).expect("finite times"))
        .expect("non-empty candidates");
    SplitPlan {
        fraction,
        predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = 1024.0 * 1024.0;

    /// The paper's Gaussian point: S = 80 MB/s, C = 80 MB/s, bw = 118 MB/s.
    fn gaussian_batch(n: usize, mb: f64) -> Vec<SplitItem> {
        vec![
            SplitItem {
                bytes: mb * MIB,
                storage_rate: 80.0 * MIB,
                compute_rate: 80.0 * MIB,
            };
            n
        ]
    }

    #[test]
    fn empty_batch_is_trivial() {
        let plan = solve(&[], 118.0 * MIB);
        assert_eq!(plan.predicted, 0.0);
    }

    #[test]
    fn single_cheap_kernel_stays_on_storage() {
        // SUM: storage rate 860 ≫ wire 118; nothing to gain by shipping.
        let items = vec![SplitItem {
            bytes: 128.0 * MIB,
            storage_rate: 860.0 * MIB,
            compute_rate: 860.0 * MIB,
        }];
        let plan = solve(&items, 118.0 * MIB);
        assert!(plan.is_all_storage(), "{plan:?}");
    }

    #[test]
    fn balanced_split_beats_both_endpoints_at_mid_contention() {
        // 8 Gaussians: AS = 8·1.6 = 12.8 s, TS = 8·1.085 + 1.6 = 10.3 s.
        // Splitting overlaps CPU and wire: T(p*) ≈ 8·128/198 + tail ≈ 6 s.
        let items = gaussian_batch(8, 128.0);
        let bw = 118.0 * MIB;
        let plan = solve(&items, bw);
        let t_all_storage = predict(&items, bw, 1.0);
        let t_all_client = predict(&items, bw, 0.0);
        assert!(plan.predicted < t_all_storage * 0.8, "{plan:?}");
        assert!(plan.predicted < t_all_client * 0.8, "{plan:?}");
        let p = plan.fraction;
        assert!(p > 0.2 && p < 0.8, "expected a genuine split, got p={p}");
    }

    #[test]
    fn balance_point_equalizes_busy_times() {
        let items = gaussian_batch(4, 256.0);
        let bw = 118.0 * MIB;
        let p = solve(&items, bw).fraction;
        let storage: f64 = items.iter().map(|i| p * i.bytes / i.storage_rate).sum();
        let network: f64 = items.iter().map(|i| (1.0 - p) * i.bytes / bw).sum();
        assert!(
            (storage - network).abs() < 1e-6 * storage.max(1.0),
            "storage {storage} vs network {network}"
        );
    }

    #[test]
    fn predicted_matches_fraction_evaluation() {
        let items = gaussian_batch(3, 128.0);
        let bw = 118.0 * MIB;
        let plan = solve(&items, bw);
        let re = predict(&items, bw, plan.fraction);
        assert!((plan.predicted - re).abs() < 1e-9);
    }

    #[test]
    fn fractions_always_in_unit_interval() {
        for n in [1usize, 2, 7, 64] {
            for mb in [32.0, 128.0, 1024.0] {
                let p = solve(&gaussian_batch(n, mb), 118.0 * MIB).fraction;
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn split_never_loses_to_endpoints() {
        // The candidate set includes both endpoints, so the plan can't be
        // worse than either pure scheme under the same model.
        for n in [1usize, 4, 16, 64] {
            let items = gaussian_batch(n, 128.0);
            let bw = 118.0 * MIB;
            let plan = solve(&items, bw);
            assert!(plan.predicted <= predict(&items, bw, 0.0) + 1e-9);
            assert!(plan.predicted <= predict(&items, bw, 1.0) + 1e-9);
        }
    }

    #[test]
    fn heterogeneous_rates_supported() {
        let items = vec![
            SplitItem {
                bytes: 128.0 * MIB,
                storage_rate: 80.0 * MIB,
                compute_rate: 80.0 * MIB,
            },
            SplitItem {
                bytes: 512.0 * MIB,
                storage_rate: 860.0 * MIB,
                compute_rate: 860.0 * MIB,
            },
        ];
        let plan = solve(&items, 118.0 * MIB);
        assert!((0.0..=1.0).contains(&plan.fraction));
        assert!(plan.predicted > 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The solver's choice is optimal over a dense grid of fractions.
        #[test]
        fn beats_grid_search(
            n in 1usize..12,
            mb in 16.0f64..1024.0,
            s_rate in 10.0f64..1000.0,
            c_rate in 10.0f64..1000.0,
            bw in 10.0f64..1000.0,
        ) {
            const MIB: f64 = 1024.0 * 1024.0;
            let items = vec![SplitItem {
                bytes: mb * MIB,
                storage_rate: s_rate * MIB,
                compute_rate: c_rate * MIB,
            }; n];
            let plan = solve(&items, bw * MIB);
            for step in 0..=100 {
                let p = step as f64 / 100.0;
                let t = predict(&items, bw * MIB, p);
                prop_assert!(plan.predicted <= t + 1e-6 * t,
                    "p={p} gives {t}, solver claimed {}", plan.predicted);
            }
        }
    }
}
