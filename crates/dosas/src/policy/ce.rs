//! The paper's Contention Estimator as a [`ContentionPolicy`].
//!
//! The reference implementation: wraps [`ContentionEstimator`] (Eq. 8
//! solved by the configured [`SolverKind`]) behind the trait without
//! changing a single decision — the pre-refactor golden `RunMetrics`
//! matrix stays byte-identical under this policy (`tests/golden_metrics.rs`,
//! `tests/tenant_scenarios.rs`). Emits no rate caps.

use super::{ContentionPolicy, PolicyContext, PolicyInput, PolicyOutput};
use crate::estimator::{ContentionEstimator, SystemProbe};
use crate::schedule::SolverKind;

/// Offload/demotion decisions from the paper's CE cost model.
#[derive(Debug)]
pub struct CePolicy {
    estimator: ContentionEstimator,
    /// Plan fractional splits (`generate_split_policy`) instead of binary
    /// offload/demote decisions.
    partial_offload: bool,
}

impl CePolicy {
    pub fn new(solver: SolverKind, ctx: &PolicyContext<'_>) -> Self {
        CePolicy {
            estimator: ContentionEstimator::new(
                solver,
                ctx.rates.clone(),
                ctx.kernel_cores,
                ctx.client_cores,
                ctx.nominal_bw,
                ctx.memory_capacity,
            ),
            partial_offload: ctx.partial_offload,
        }
    }
}

impl ContentionPolicy for CePolicy {
    fn name(&self) -> &'static str {
        "ce"
    }

    fn decide(&mut self, input: &PolicyInput<'_>, out: &mut PolicyOutput) {
        let probe = SystemProbe {
            bandwidth_estimate: input.bandwidth_estimate,
            ..SystemProbe::of(input.queue)
        };
        let policy = out.offload_mut();
        if self.partial_offload {
            self.estimator
                .generate_split_policy(input.now, &probe, policy)
        } else {
            self.estimator.generate_policy(input.now, &probe, policy)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OpRates;
    use crate::estimator::{Decision, Policy};
    use crate::policy::{decide_once, PolicyTelemetry, ReqMeta};
    use cluster::NodeId;
    use pfs::{QueueSnapshot, RequestId, SnapshotRow};
    use proptest::prelude::*;
    use simkit::SimTime;

    const MIB: f64 = 1024.0 * 1024.0;

    #[test]
    fn matches_direct_estimator_output() {
        let rates = OpRates::paper();
        let ctx = PolicyContext {
            rates: &rates,
            kernel_cores: 2.0,
            client_cores: 1.0,
            nominal_bw: 118.0 * MIB,
            memory_capacity: 1024.0 * MIB,
            partial_offload: false,
            slos: &[],
            rank_tenants: &[],
        };
        let gaussian = rates.id("gaussian2d");
        let mut queue = QueueSnapshot::default();
        queue.refill(
            SimTime::ZERO,
            (0..4).map(|i| SnapshotRow {
                id: RequestId(i),
                op: gaussian,
                bytes: 128.0 * MIB,
            }),
        );
        let meta = vec![
            ReqMeta {
                rank: 0,
                tenant: None
            };
            4
        ];
        let telemetry = PolicyTelemetry::default();
        let input = PolicyInput {
            server: NodeId(0),
            now: SimTime::from_secs_f64(1.0),
            queue: &queue,
            meta: &meta,
            bandwidth_estimate: None,
            telemetry: &telemetry,
        };

        let mut policy = CePolicy::new(SolverKind::Threshold, &ctx);
        let out = decide_once(&mut policy, &input);
        assert!(out.rate_caps.is_empty(), "the CE never rate-caps");
        assert_eq!(out.generated_at, input.now);

        let mut direct = Policy::default();
        ContentionEstimator::new(
            SolverKind::Threshold,
            rates.clone(),
            2.0,
            1.0,
            118.0 * MIB,
            1024.0 * MIB,
        )
        .generate_policy(input.now, &SystemProbe::of(&queue), &mut direct);
        let got = out.offload.expect("CE always emits a policy");
        assert_eq!(got, direct, "trait wrapper must not change decisions");
        assert!(got
            .decisions
            .iter()
            .any(|&(_, d)| d == Decision::Active || d == Decision::Normal));
    }

    /// A CE built over the paper's rates, binary or split.
    fn ce(partial_offload: bool, memory_capacity: f64) -> CePolicy {
        let rates = OpRates::paper();
        CePolicy::new(
            SolverKind::Threshold,
            &PolicyContext {
                rates: &rates,
                kernel_cores: 2.0,
                client_cores: 1.0,
                nominal_bw: 118.0 * MIB,
                memory_capacity,
                partial_offload,
                slos: &[],
                rank_tenants: &[],
            },
        )
    }

    /// A queue of `rows` (`(op index into the paper table, MiB)`, `None` =
    /// a plain read), ids ascending with gaps.
    fn queue_of(rows: &[(Option<usize>, f64)]) -> QueueSnapshot {
        let mut queue = QueueSnapshot::default();
        queue.refill(
            SimTime::ZERO,
            rows.iter().enumerate().map(|(i, &(op, mib))| SnapshotRow {
                id: RequestId(3 * i as u64 + 1),
                op: op.map(|o| pfs::OpId(o as u32)),
                bytes: mib * MIB,
            }),
        );
        queue
    }

    /// One round of `policy` over `queue` into the reused `out`.
    fn round(
        policy: &mut CePolicy,
        queue: &QueueSnapshot,
        bw: Option<f64>,
        out: &mut PolicyOutput,
    ) -> Policy {
        let meta = vec![
            ReqMeta {
                rank: 0,
                tenant: None
            };
            queue.n
        ];
        let telemetry = PolicyTelemetry::default();
        let input = PolicyInput {
            server: NodeId(0),
            now: SimTime::from_secs_f64(1.0),
            queue,
            meta: &meta,
            bandwidth_estimate: bw,
            telemetry: &telemetry,
        };
        out.reset(input.now);
        policy.decide(&input, out);
        out.offload.clone().expect("the CE always emits a policy")
    }

    /// Up to 16 rows, about a fifth of them plain reads, at most 12
    /// active (later active rows turn into plain reads).
    fn arb_rows() -> impl Strategy<Value = Vec<(Option<usize>, f64)>> {
        collection::vec((0usize..9, 1.0f64..1024.0), 0..=16).prop_map(|rows| {
            let mut k = 0;
            rows.into_iter()
                .map(|(op, mib)| {
                    let active = op < 7 && k < 12;
                    k += usize::from(active);
                    (active.then_some(op), mib)
                })
                .collect()
        })
    }

    proptest! {
        /// The borrowed, buffer-reusing round over random queues: binary
        /// decisions are index-aligned with the active rows (normal rows
        /// never appear, so are never demoted), the predicted time is the
        /// objective of the returned assignment and the exact optimum when
        /// the memory guard cannot bind; split fractions lie in [0, 1] and
        /// `p ≤ 1e-9` is exactly a demotion; and a round repeated on the
        /// same buffers after an unrelated one returns the same policy.
        #[test]
        fn ce_round_matches_the_model_and_reuses_buffers_cleanly(
            rows in arb_rows(),
            other in arb_rows(),
            estimate in 0u8..2,
            bw_mib in 20.0f64..240.0,
            tight_memory in 0u8..2,
        ) {
            use crate::schedule::{self, exhaustive};
            let rates = OpRates::paper();
            let bw = (estimate == 1).then_some(bw_mib * MIB);
            let memory = if tight_memory == 1 { 600.0 * MIB } else { 1e6 * MIB };
            let queue = queue_of(&rows);
            let active: Vec<_> = queue.requests.iter().filter(|r| r.is_active()).collect();

            let mut binary = ce(false, memory);
            let mut out = PolicyOutput::default();
            let first = round(&mut binary, &queue, bw, &mut out);
            prop_assert_eq!(first.decisions.len(), active.len());
            for (&(id, _), row) in first.decisions.iter().zip(&active) {
                prop_assert_eq!(id, row.id);
            }
            let model = crate::cost::CostModel::new(bw.unwrap_or(118.0 * MIB), 2.0, 1.0, &rates);
            let items: Vec<_> = active
                .iter()
                .map(|r| model.item(r.op.expect("active"), r.bytes))
                .collect();
            let kept: Vec<bool> = first
                .decisions
                .iter()
                .map(|&(_, d)| d == Decision::Active)
                .collect();
            prop_assert_eq!(first.predicted_time, schedule::assignment_time(&items, &kept));
            let pinned: f64 = active.iter().map(|r| r.bytes).sum();
            if pinned <= memory {
                let optimum = exhaustive::solve(&items).time;
                prop_assert!((first.predicted_time - optimum).abs() < 1e-9);
            }
            round(&mut binary, &queue_of(&other), bw, &mut out);
            prop_assert_eq!(round(&mut binary, &queue, bw, &mut out), first);

            let mut split = ce(true, memory);
            let first = round(&mut split, &queue, bw, &mut out);
            let split_items: Vec<_> = active
                .iter()
                .map(|r| crate::schedule::fractional::SplitItem {
                    bytes: r.bytes,
                    storage_rate: model.storage_rate(r.op.expect("active")),
                    compute_rate: model.compute_rate(r.op.expect("active")),
                })
                .collect();
            let plan = crate::schedule::fractional::solve(&split_items, model.bw);
            let p = plan.fraction;
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert_eq!(first.predicted_time, plan.predicted);
            prop_assert_eq!(first.decisions.len(), active.len());
            let interior = p > 1e-9 && p < 1.0 - 1e-9;
            for (&(id, d), row) in first.decisions.iter().zip(&active) {
                prop_assert_eq!(id, row.id);
                prop_assert_eq!(d == Decision::Normal, p <= 1e-9);
                prop_assert_eq!(first.fraction(id), if interior { p } else { 1.0 });
            }
            round(&mut split, &queue_of(&other), bw, &mut out);
            prop_assert_eq!(round(&mut split, &queue, bw, &mut out), first);
        }
    }
}
