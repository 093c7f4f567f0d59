//! Straggler-aware request re-striping.
//!
//! Tavakoli-style: instead of modeling contention analytically, watch each
//! server's *measured* request latency (the driver's per-server EWMA in
//! [`PolicyTelemetry`](super::PolicyTelemetry)) and re-stripe work away
//! from stragglers. A server whose latency EWMA exceeds `threshold` × the
//! fleet-best EWMA has every queued/running active request demoted to
//! normal I/O — the bytes ship to the client, which computes locally, so
//! the straggler degrades into a plain (cheaper) byte-mover while healthy
//! servers keep their kernels. Emits no rate caps.

use super::{ContentionPolicy, PolicyInput, PolicyOutput};
use crate::estimator::Decision;
use serde::{Deserialize, Serialize};

/// Tunables for [`RestripePolicy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RestripeConfig {
    /// A server is a straggler when its latency EWMA exceeds this multiple
    /// of the fleet-minimum EWMA (among qualified servers).
    pub threshold: f64,
    /// Completed-request samples a server needs before it is judged (or
    /// used as the fleet baseline) — cold servers are neither victims nor
    /// reference points. Defaults to 1 (react on first evidence): the
    /// scenario-suite workloads complete only a couple of requests per
    /// server, so waiting longer means never acting; raise it on noisy
    /// fleets.
    pub min_samples: u64,
}

impl Default for RestripeConfig {
    fn default() -> Self {
        RestripeConfig {
            threshold: 2.0,
            min_samples: 1,
        }
    }
}

/// Demote the active queue of servers lagging the fleet's latency.
#[derive(Debug)]
pub struct RestripePolicy {
    cfg: RestripeConfig,
}

impl RestripePolicy {
    pub fn new(cfg: RestripeConfig) -> Self {
        assert!(cfg.threshold >= 1.0, "threshold below 1 demotes the best");
        RestripePolicy { cfg }
    }
}

impl ContentionPolicy for RestripePolicy {
    fn name(&self) -> &'static str {
        "restripe"
    }

    fn decide(&mut self, input: &PolicyInput<'_>, out: &mut PolicyOutput) {
        let lat = &input.telemetry.server_latency;
        let qualified = |samples: u64| samples >= self.cfg.min_samples;
        let Some(own) = lat
            .get(&input.server.0)
            .filter(|e| qualified(e.samples))
            .map(|e| e.ewma_secs)
        else {
            return;
        };
        // The fleet baseline needs at least one *other* qualified server:
        // a lone server has nobody to re-stripe relative to.
        let best_other = lat
            .iter()
            .filter(|(&node, e)| node != input.server.0 && qualified(e.samples))
            .map(|(_, e)| e.ewma_secs)
            .fold(f64::INFINITY, f64::min);
        if !best_other.is_finite() || own <= self.cfg.threshold * best_other {
            return;
        }
        let rows = &input.queue.requests;
        if !rows.iter().any(|r| r.is_active()) {
            return;
        }
        out.offload_mut().decisions.extend(
            rows.iter()
                .filter(|r| r.is_active())
                .map(|r| (r.id, Decision::Normal)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{decide_once, PolicyTelemetry, ReqMeta};
    use cluster::NodeId;
    use pfs::{OpId, QueueSnapshot, RequestId, SnapshotRow};
    use simkit::SimTime;

    fn queue_of(rows: Vec<SnapshotRow>) -> QueueSnapshot {
        let mut queue = QueueSnapshot::default();
        queue.refill(SimTime::ZERO, rows);
        queue
    }

    fn input_for<'a>(
        server: usize,
        queue: &'a QueueSnapshot,
        meta: &'a [ReqMeta],
        telemetry: &'a PolicyTelemetry,
    ) -> PolicyInput<'a> {
        PolicyInput {
            server: NodeId(server),
            now: SimTime::from_secs_f64(5.0),
            queue,
            meta,
            bandwidth_estimate: None,
            telemetry,
        }
    }

    #[test]
    fn demotes_straggler_queue_and_spares_healthy() {
        let mut telemetry = PolicyTelemetry::default();
        for _ in 0..5 {
            telemetry.note_delivery(0, 0.1); // healthy
            telemetry.note_delivery(1, 1.0); // 10× slower
        }
        let rows = vec![
            SnapshotRow {
                id: RequestId(7),
                op: Some(OpId(0)),
                bytes: 1e6,
            },
            SnapshotRow {
                id: RequestId(8),
                op: None,
                bytes: 1e6,
            },
        ];
        let queue = queue_of(rows);
        let meta = vec![
            ReqMeta {
                rank: 0,
                tenant: None
            };
            2
        ];
        let mut p = RestripePolicy::new(RestripeConfig::default());

        let straggler = decide_once(&mut p, &input_for(1, &queue, &meta, &telemetry));
        let policy = straggler.offload.expect("straggler gets demotions");
        assert_eq!(policy.decisions.len(), 1, "only active rows are demoted");
        assert_eq!(policy.decision(RequestId(7)), Decision::Normal);

        let healthy = decide_once(&mut p, &input_for(0, &queue, &meta, &telemetry));
        assert!(healthy.offload.is_none(), "healthy server is untouched");
    }

    #[test]
    fn needs_samples_and_a_peer() {
        let queue = queue_of(vec![SnapshotRow {
            id: RequestId(1),
            op: Some(OpId(0)),
            bytes: 1e6,
        }]);
        let meta = [ReqMeta {
            rank: 0,
            tenant: None,
        }];
        let mut p = RestripePolicy::new(RestripeConfig {
            threshold: 2.0,
            min_samples: 4,
        });

        // Under min_samples: no verdict.
        let mut cold = PolicyTelemetry::default();
        cold.note_delivery(1, 9.0);
        assert!(decide_once(&mut p, &input_for(1, &queue, &meta, &cold))
            .offload
            .is_none());

        // Qualified but with no qualified peer: no baseline, no verdict.
        let mut lonely = PolicyTelemetry::default();
        for _ in 0..5 {
            lonely.note_delivery(1, 9.0);
        }
        assert!(decide_once(&mut p, &input_for(1, &queue, &meta, &lonely))
            .offload
            .is_none());
    }
}
