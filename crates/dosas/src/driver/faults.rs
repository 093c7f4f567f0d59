//! `faults` subsystem: deterministic fault-window application.
//!
//! At each fault-plan transition boundary the driver re-derives the
//! absolute degradation state (CPU capacity factors, per-node link
//! factors, membership) of the nodes whose windows open or close there and
//! pushes it into the cluster resources, and turns disk-stall windows into
//! blocking zero-byte disk requests tracked in `stall_reqs` (filtered out
//! of completion handling by the [`server`](super::server) subsystem).
//! Probe loss/delay and checkpoint-ship failures are *not* applied here —
//! they are point lookups at the moment the affected action happens, in
//! [`control`](super::control) and [`io_path`](super::io_path). Every
//! lookup goes through the per-node [`FaultIndex`] built once from the
//! plan. Routed events: [`Ev::Fault`](super::Ev::Fault).

use super::{Driver, Ev, Subsystem};
use cluster::NodeId;
use simkit::component::Component;
use simkit::fifo::ReqId as DiskReqId;
use simkit::{FaultIndex, FaultPlan, NodeFaults, Scheduler, SimSpan, SimTime};
use std::collections::BTreeSet;

/// Fault-injection state embedded in [`Driver`].
pub(super) struct Faults {
    /// The run's fault plan grouped by node.
    pub(super) index: FaultIndex,
    /// Injected disk-stall requests, filtered out of completion handling.
    pub(super) stall_reqs: BTreeSet<(usize, DiskReqId)>,
}

impl Faults {
    pub(super) fn new(plan: &FaultPlan) -> Self {
        Faults {
            index: FaultIndex::new(plan),
            stall_reqs: BTreeSet::new(),
        }
    }
}

/// Routed-event entry point for the subsystem.
pub(super) struct FaultsComponent;

impl Component<Driver> for FaultsComponent {
    const ROUTE: Subsystem = Subsystem::Faults;
    const NAME: &'static str = "faults";

    fn handle(world: &mut Driver, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Fault => world.apply_faults(now, sched),
            _ => unreachable!("non-fault event routed to faults"),
        }
    }
}

impl Driver {
    /// The fault windows afflicting `node`.
    pub(super) fn node_faults(&self, node: usize) -> NodeFaults<'_> {
        self.faults.index.node(node)
    }

    /// Re-evaluate the fault plan at a window boundary and push the current
    /// degradation state into the cluster resources. Factors are applied
    /// absolutely (not incrementally), so overlapping windows compose and
    /// closing the last window restores exactly the base capacity.
    ///
    /// Only the nodes with a window opening or closing at `now` are
    /// evaluated, in ascending order: every transition time is an
    /// `Ev::Fault`, and nothing else sets these factors, so any other
    /// node's state already matches the plan.
    fn apply_faults(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        if self.cfg.fault_plan.is_empty() {
            return;
        }
        self.obs_inc("faults", "transitions", obs::Label::None);
        let active = self.faults.index.active_count(now);
        self.obs_event(now, obs::Severity::Info, "faults", None, || {
            format!("fault-plan transition: {active} window(s) active")
        });
        let nodes = self.cluster.cpus.len();
        let touched: Vec<usize> = self
            .faults
            .index
            .touched_at(now)
            .filter(|&n| n < nodes)
            .collect();
        for &node in &touched {
            let faults = self.node_faults(node);
            let (cpu_f, net_f) = (faults.cpu_factor(now), faults.net_factor(now));
            let online = !faults.offline(now);
            if (cpu_f - self.cluster.cpus[node].capacity_factor()).abs() > f64::EPSILON {
                self.cluster.cpus[node].set_capacity_factor(now, cpu_f);
                self.schedule_cpu(node, sched);
            }
            if (net_f - self.cluster.fabric.link_factor(NodeId(node))).abs() > f64::EPSILON {
                self.cluster
                    .fabric
                    .set_link_factor(now, NodeId(node), net_f);
            }
            // Membership is tracked separately from link factors so a
            // fault-degraded factor survives a leave/rejoin cycle.
            if online != self.cluster.fabric.node_online(NodeId(node)) {
                self.cluster
                    .fabric
                    .set_node_online(now, NodeId(node), online);
            }
        }
        // Disk stalls opening at exactly this boundary become blocking
        // zero-byte requests; their completions are filtered in
        // `on_disk_tick` via `stall_reqs`.
        let window_end = now + SimSpan::from_nanos(1);
        for server in touched.into_iter().map(NodeId) {
            if !self.cluster.is_storage(server) {
                continue;
            }
            let stalls: Vec<SimSpan> = self
                .node_faults(server.0)
                .disk_stalls_starting(now, window_end)
                .map(|e| e.end - e.start)
                .collect();
            let ordinal = self.cluster.storage_ordinal(server);
            for duration in stalls {
                let rid = self.cluster.disks[ordinal].inject_stall(now, duration);
                self.faults.stall_reqs.insert((ordinal, rid));
                self.schedule_disk(ordinal, sched);
            }
        }
        self.schedule_net(sched);
    }
}
