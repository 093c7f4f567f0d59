//! PI-controller congestion governor.
//!
//! Collignon-style: treat each storage server's re-plannable queue depth
//! as the process variable and throttle the ranks feeding it until the
//! depth returns to a setpoint. The controller output (proportional +
//! clamped integral of the depth error) sets a bandwidth *fraction* in
//! `[min_fraction, 1]`; below 1.0 the present ranks split `fraction ×
//! nominal_bw` evenly as per-rank caps, at 1.0 all caps this governor set
//! are lifted. Makes no offload/demotion decisions; a rank throttled on
//! one server is throttled everywhere (per-rank caps are global — last
//! probe wins, which is deterministic because probes are totally ordered).

use super::{ContentionPolicy, PolicyContext, PolicyInput, PolicyOutput, RateCap};
use serde::{Deserialize, Serialize};
use simkit::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Tunables for [`PiGovernor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PiConfig {
    /// Target re-plannable queue depth per storage server. Defaults to 2:
    /// the scenario-suite workloads queue at most a handful of requests
    /// per server, so a deeper setpoint never engages; raise it for
    /// workloads with long queues.
    pub setpoint: f64,
    /// Proportional gain: bandwidth fraction per unit of depth error.
    pub kp: f64,
    /// Integral gain: bandwidth fraction per unit of accumulated
    /// depth-error-seconds.
    pub ki: f64,
    /// Lower bound on the commanded bandwidth fraction (caps never choke
    /// a queue to a standstill).
    pub min_fraction: f64,
    /// Anti-windup clamp on the error integral, in depth-seconds.
    pub integral_limit: f64,
}

impl Default for PiConfig {
    fn default() -> Self {
        PiConfig {
            setpoint: 2.0,
            kp: 0.15,
            ki: 0.05,
            min_fraction: 0.05,
            integral_limit: 20.0,
        }
    }
}

/// Per-server controller state.
#[derive(Debug, Clone, Default)]
struct Loop {
    integral: f64,
    last: Option<SimTime>,
    /// Ranks currently capped on this server's behalf (lifted when they
    /// leave the queue or the controller returns to fraction 1.0).
    capped: BTreeSet<usize>,
}

/// Queue-depth PI controller emitting per-rank rate caps.
#[derive(Debug)]
pub struct PiGovernor {
    cfg: PiConfig,
    nominal_bw: f64,
    loops: BTreeMap<usize, Loop>,
}

impl PiGovernor {
    pub fn new(cfg: PiConfig, ctx: &PolicyContext<'_>) -> Self {
        assert!(cfg.setpoint >= 0.0 && cfg.kp >= 0.0 && cfg.ki >= 0.0);
        assert!(cfg.min_fraction > 0.0 && cfg.min_fraction <= 1.0);
        assert!(cfg.integral_limit >= 0.0);
        PiGovernor {
            cfg,
            nominal_bw: ctx.nominal_bw,
            loops: BTreeMap::new(),
        }
    }
}

impl ContentionPolicy for PiGovernor {
    fn name(&self) -> &'static str {
        "pi"
    }

    fn decide(&mut self, input: &PolicyInput<'_>, out: &mut PolicyOutput) {
        let ctl = self.loops.entry(input.server.0).or_default();
        let depth = input.queue.n as f64;
        let error = self.cfg.setpoint - depth;
        let dt = ctl
            .last
            .map(|t| (input.now - t).as_secs_f64())
            .unwrap_or(0.0);
        ctl.last = Some(input.now);
        ctl.integral =
            (ctl.integral + error * dt).clamp(-self.cfg.integral_limit, self.cfg.integral_limit);
        let u = self.cfg.kp * error + self.cfg.ki * ctl.integral;
        let fraction = (1.0 + u).clamp(self.cfg.min_fraction, 1.0);

        let caps = &mut out.rate_caps;
        if fraction >= 1.0 {
            caps.extend(ctl.capped.iter().map(|&r| RateCap::lift(r)));
            ctl.capped.clear();
        } else {
            let present: BTreeSet<usize> = input.meta.iter().map(|m| m.rank).collect();
            for &gone in ctl.capped.difference(&present) {
                caps.push(RateCap::lift(gone));
            }
            let share = (fraction * self.nominal_bw / present.len().max(1) as f64).max(1.0);
            caps.extend(present.iter().map(|&r| RateCap::limit(r, share)));
            ctl.capped = present;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OpRates;
    use crate::policy::{decide_once, PolicyTelemetry, ReqMeta};
    use cluster::NodeId;
    use pfs::{OpId, QueueSnapshot, RequestId, SnapshotRow};

    fn governor(nominal_bw: f64) -> PiGovernor {
        let rates = OpRates::paper();
        let ctx = PolicyContext {
            rates: &rates,
            kernel_cores: 1.0,
            client_cores: 1.0,
            nominal_bw,
            memory_capacity: 1e9,
            partial_offload: false,
            slos: &[],
            rank_tenants: &[],
        };
        PiGovernor::new(PiConfig::default(), &ctx)
    }

    fn decide_depth(p: &mut PiGovernor, server: usize, now: f64, ranks: &[usize]) -> PolicyOutput {
        let mut queue = QueueSnapshot::default();
        queue.refill(
            SimTime::from_secs_f64(now),
            (0..ranks.len()).map(|i| SnapshotRow {
                id: RequestId(i as u64),
                op: Some(OpId(0)),
                bytes: 1e6,
            }),
        );
        let meta: Vec<ReqMeta> = ranks
            .iter()
            .map(|&rank| ReqMeta { rank, tenant: None })
            .collect();
        let telemetry = PolicyTelemetry::default();
        decide_once(
            p,
            &PolicyInput {
                server: NodeId(server),
                now: SimTime::from_secs_f64(now),
                queue: &queue,
                meta: &meta,
                bandwidth_estimate: None,
                telemetry: &telemetry,
            },
        )
    }

    #[test]
    fn throttles_deep_queue_and_releases_when_drained() {
        let mut p = governor(100.0);
        // Depth 12 vs setpoint 2: error −10 → fraction clamps well below 1.
        let out = decide_depth(&mut p, 0, 1.0, &[3, 3, 3, 3, 3, 3, 5, 5, 5, 5, 5, 5]);
        assert_eq!(out.rate_caps.len(), 2);
        for c in &out.rate_caps {
            assert!(c.bytes_per_sec.is_finite() && c.bytes_per_sec < 50.0);
        }
        // Same instant, ranks unchanged on a second server: independent loop.
        let other = decide_depth(&mut p, 1, 1.0, &[]);
        assert!(other.rate_caps.is_empty(), "empty queue is under setpoint");

        // Rank 5 leaves the queue: its cap lifts, rank 3's is refreshed.
        let next = decide_depth(&mut p, 0, 1.1, &[3, 3, 3, 3, 3, 3, 3, 3]);
        let lifted: Vec<_> = next
            .rate_caps
            .iter()
            .filter(|c| c.bytes_per_sec.is_infinite())
            .collect();
        assert_eq!(lifted.len(), 1);
        assert_eq!(lifted[0].rank, 5);

        // Queue drains below setpoint long enough for the integral to
        // recover: every remaining cap lifts.
        let mut released = false;
        for i in 0..200 {
            let out = decide_depth(&mut p, 0, 2.0 + i as f64, &[]);
            if out
                .rate_caps
                .iter()
                .any(|c| c.rank == 3 && c.bytes_per_sec.is_infinite())
            {
                released = true;
                break;
            }
        }
        assert!(released, "caps must lift once the queue stays drained");
    }

    #[test]
    fn depth_twelve_caps_match_hand_computation() {
        let mut p = governor(1000.0);
        // First round: dt = 0 so integral stays 0; u = kp·(2−12) = −1.5;
        // fraction clamps to min_fraction 0.05 → 50 B/s split over 2 ranks.
        let out = decide_depth(&mut p, 0, 1.0, &[0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]);
        let caps: BTreeMap<usize, f64> = out
            .rate_caps
            .iter()
            .map(|c| (c.rank, c.bytes_per_sec))
            .collect();
        assert_eq!(caps.len(), 2);
        assert!((caps[&0] - 25.0).abs() < 1e-9);
        assert!((caps[&1] - 25.0).abs() < 1e-9);
    }
}
