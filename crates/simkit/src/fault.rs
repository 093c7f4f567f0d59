//! Deterministic fault injection for simulated clusters.
//!
//! A [`FaultPlan`] is plain data: a list of time-windowed [`FaultEvent`]s
//! targeting nodes (by plain index — simkit knows nothing about node roles).
//! The world that owns the plan queries it at event boundaries and applies
//! the effects to its resources; the plan never schedules anything itself,
//! keeping the substrate's "resources never schedule events" invariant.
//!
//! Plans are either hand-built (named test scenarios) or derived from a
//! seeded RNG ([`FaultPlan::random_storm`]), so every run is reproducible:
//! same seed → same plan → same event trace.

use crate::{SimSpan, SimTime};
use rand::Rng;

/// What goes wrong. Factors are multiplicative in `[0, 1]`; `1.0` is a
/// no-op and `0.0` a full stall for the window.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Node CPU capacity is multiplied by `factor` (background load spike,
    /// thermal throttling, a co-scheduled job...).
    CpuSlowdown { factor: f64 },
    /// The node's disk serves nothing for the window (firmware hiccup,
    /// internal GC; the queue keeps accepting work).
    DiskStall,
    /// The node's NIC bandwidth (both directions) is multiplied by `factor`.
    NetBandwidthDip { factor: f64 },
    /// Contention-estimator probes of this node are lost outright.
    ProbeLoss,
    /// Probe replies from this node arrive `delay` late.
    ProbeDelay { delay: SimSpan },
    /// Checkpoint shipments (interrupted-kernel state) from this node fail
    /// after consuming their transfer time.
    CheckpointShipFailure,
    /// The node leaves the cluster for the window: CPU capacity drops to
    /// zero, its disk stalls, its network links carry nothing, and probes of
    /// it are lost. A window ending at `t` models a (re)join at `t`, so an
    /// elastic pool that grows at `t_join` is a leave over `[0, t_join)`.
    NodeLeave,
}

/// One fault: `kind` afflicts `node` during `[start, end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    pub node: usize,
    pub kind: FaultKind,
    pub start: SimTime,
    pub end: SimTime,
}

impl FaultEvent {
    pub fn active_at(&self, now: SimTime) -> bool {
        self.start <= now && now < self.end
    }
}

/// A deterministic schedule of faults. See the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one fault window. Builder-style so named scenarios read linearly.
    pub fn inject(
        mut self,
        node: usize,
        kind: FaultKind,
        start: SimTime,
        duration: SimSpan,
    ) -> Self {
        if let FaultKind::CpuSlowdown { factor } | FaultKind::NetBandwidthDip { factor } = &kind {
            assert!(
                (0.0..=1.0).contains(factor),
                "fault factor {factor} outside [0, 1]"
            );
        }
        assert!(duration > SimSpan::ZERO, "fault window must be non-empty");
        self.events.push(FaultEvent {
            node,
            kind,
            start,
            end: start + duration,
        });
        self
    }

    /// Membership convenience: `node` is absent during `[start, start +
    /// duration)`. Sugar for `inject(node, FaultKind::NodeLeave, ...)`.
    pub fn node_leave(self, node: usize, start: SimTime, duration: SimSpan) -> Self {
        self.inject(node, FaultKind::NodeLeave, start, duration)
    }

    /// Membership convenience: `node` joins the cluster at `join` — i.e. it
    /// is absent over `[0, join)`.
    pub fn node_join(self, node: usize, join: SimTime) -> Self {
        assert!(join > SimTime::ZERO, "a join at t=0 is a no-op");
        self.inject(
            node,
            FaultKind::NodeLeave,
            SimTime::ZERO,
            join - SimTime::ZERO,
        )
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The windows afflicting `node`, found by a scan of the whole plan
    /// ([`FaultIndex::node`] finds them without one).
    pub fn node(&self, node: usize) -> NodeFaults<'_> {
        NodeFaults {
            node,
            events: &self.events,
        }
    }

    /// Number of fault windows (across all nodes) active at `now` — a
    /// gauge for observability sampling ([`FaultIndex::active_count`]
    /// answers it without a scan).
    pub fn active_count(&self, now: SimTime) -> usize {
        self.events.iter().filter(|e| e.active_at(now)).count()
    }

    /// Every window boundary, sorted and deduplicated: the times at which a
    /// driver must re-evaluate fault effects.
    pub fn transition_times(&self) -> Vec<SimTime> {
        let mut times: Vec<SimTime> = self.events.iter().flat_map(|e| [e.start, e.end]).collect();
        times.sort();
        times.dedup();
        times
    }

    /// A seeded random storm: over `[start, start + horizon)`, each listed
    /// node suffers `events_per_node` faults of random kind, onset, and
    /// duration (up to a quarter of the horizon each). Deterministic in the
    /// RNG stream.
    pub fn random_storm<R: Rng>(
        rng: &mut R,
        nodes: &[usize],
        start: SimTime,
        horizon: SimSpan,
        events_per_node: usize,
    ) -> Self {
        assert!(horizon > SimSpan::ZERO);
        let mut plan = FaultPlan::new();
        let horizon_ns = horizon.as_nanos();
        for &node in nodes {
            for _ in 0..events_per_node {
                let onset = SimSpan::from_nanos(rng.random_range(0..horizon_ns));
                let max_dur = (horizon_ns / 4).max(1);
                let duration = SimSpan::from_nanos(rng.random_range(1..=max_dur));
                let kind = match rng.random_range(0u32..6) {
                    0 => FaultKind::CpuSlowdown {
                        factor: rng.random_range(0.1..=0.9),
                    },
                    1 => FaultKind::DiskStall,
                    2 => FaultKind::NetBandwidthDip {
                        factor: rng.random_range(0.1..=0.9),
                    },
                    3 => FaultKind::ProbeLoss,
                    4 => FaultKind::ProbeDelay {
                        delay: SimSpan::from_nanos(rng.random_range(1..=horizon_ns / 8 + 1)),
                    },
                    _ => FaultKind::CheckpointShipFailure,
                };
                plan = plan.inject(node, kind, start + onset, duration);
            }
        }
        plan
    }
}

/// The fault windows of one node: every per-node query of a plan.
///
/// Drawn from a whole [`FaultPlan`] ([`FaultPlan::node`]) or from the node's
/// own run of a [`FaultIndex`] ([`FaultIndex::node`]). Queries skip windows
/// of other nodes and fold the node's windows in plan order, so both give
/// bit-identical answers.
#[derive(Debug, Clone, Copy)]
pub struct NodeFaults<'a> {
    node: usize,
    events: &'a [FaultEvent],
}

impl<'a> NodeFaults<'a> {
    /// Windows afflicting the node at `now`.
    pub fn active(self, now: SimTime) -> impl Iterator<Item = &'a FaultEvent> {
        self.events
            .iter()
            .filter(move |e| e.node == self.node && e.active_at(now))
    }

    /// Windows overlapping the half-open interval `[start, end)` — used
    /// for after-the-fact wait attribution: a hop that spent `[start, end)`
    /// queued on the node can ask whether a stall window intersected it.
    pub fn overlapping(self, start: SimTime, end: SimTime) -> impl Iterator<Item = &'a FaultEvent> {
        self.events
            .iter()
            .filter(move |e| e.node == self.node && e.start < end && start < e.end)
    }

    /// Combined CPU capacity factor at `now` (product of active slowdowns;
    /// `1.0` when healthy).
    pub fn cpu_factor(self, now: SimTime) -> f64 {
        self.active(now)
            .filter_map(|e| match e.kind {
                FaultKind::CpuSlowdown { factor } => Some(factor),
                FaultKind::NodeLeave => Some(0.0),
                _ => None,
            })
            .product()
    }

    /// Is the node out of the cluster at `now` (an active
    /// [`FaultKind::NodeLeave`] window)? Membership is the owner's concern —
    /// this only reports the plan.
    pub fn offline(self, now: SimTime) -> bool {
        self.active(now).any(|e| e.kind == FaultKind::NodeLeave)
    }

    /// Combined NIC bandwidth factor at `now`.
    pub fn net_factor(self, now: SimTime) -> f64 {
        self.active(now)
            .filter_map(|e| match e.kind {
                FaultKind::NetBandwidthDip { factor } => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Is a probe of the node sent at `now` lost? (An offline node answers
    /// nothing, so a leave window also loses probes.)
    pub fn probe_lost(self, now: SimTime) -> bool {
        self.active(now)
            .any(|e| matches!(e.kind, FaultKind::ProbeLoss | FaultKind::NodeLeave))
    }

    /// Extra latency on a probe of the node sent at `now` (max of active
    /// delays), or `None` when replies are prompt.
    pub fn probe_delay(self, now: SimTime) -> Option<SimSpan> {
        self.active(now)
            .filter_map(|e| match e.kind {
                FaultKind::ProbeDelay { delay } => Some(delay),
                _ => None,
            })
            .max()
    }

    /// Does a checkpoint shipment leaving the node at `now` fail?
    pub fn checkpoint_ship_fails(self, now: SimTime) -> bool {
        self.active(now)
            .any(|e| e.kind == FaultKind::CheckpointShipFailure)
    }

    /// Disk-stall windows that begin exactly in `[from, to)` — used by
    /// drivers to inject the blocking request once per window. A node-leave
    /// window stalls the disk too: an absent node serves nothing.
    pub fn disk_stalls_starting(
        self,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &'a FaultEvent> {
        self.events.iter().filter(move |e| {
            e.node == self.node
                && matches!(e.kind, FaultKind::DiskStall | FaultKind::NodeLeave)
                && from <= e.start
                && e.start < to
        })
    }
}

/// A [`FaultPlan`] grouped by node, for drivers that query it on hot paths.
///
/// A query of the plan scans all of its windows; the index answers it from
/// the node's own windows. It also lists, for every window boundary, the
/// nodes whose windows open or close there: a node's fault state changes
/// only at its own boundaries.
#[derive(Debug, Clone, Default)]
pub struct FaultIndex {
    /// The plan's windows sorted by node; each node's in plan order.
    events: Vec<FaultEvent>,
    /// `(boundary, node)` for every window start and end, sorted and
    /// deduplicated.
    boundaries: Vec<(SimTime, usize)>,
    /// Window starts and ends, each sorted, for [`FaultIndex::active_count`].
    starts: Vec<SimTime>,
    ends: Vec<SimTime>,
}

impl FaultIndex {
    pub fn new(plan: &FaultPlan) -> Self {
        let mut events = plan.events.clone();
        events.sort_by_key(|e| e.node); // stable: plan order within a node
        let mut boundaries: Vec<(SimTime, usize)> = events
            .iter()
            .flat_map(|e| [(e.start, e.node), (e.end, e.node)])
            .collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        let mut starts: Vec<SimTime> = events.iter().map(|e| e.start).collect();
        let mut ends: Vec<SimTime> = events.iter().map(|e| e.end).collect();
        starts.sort_unstable();
        ends.sort_unstable();
        FaultIndex {
            events,
            boundaries,
            starts,
            ends,
        }
    }

    /// The windows afflicting `node`.
    pub fn node(&self, node: usize) -> NodeFaults<'_> {
        let lo = self.events.partition_point(|e| e.node < node);
        let hi = lo + self.events[lo..].partition_point(|e| e.node == node);
        NodeFaults {
            node,
            events: &self.events[lo..hi],
        }
    }

    /// Nodes with a window opening or closing exactly at `now`, ascending.
    /// Every other node's fault state is the same as just before `now`.
    pub fn touched_at(&self, now: SimTime) -> impl Iterator<Item = usize> + '_ {
        let lo = self.boundaries.partition_point(|&(t, _)| t < now);
        let hi = lo + self.boundaries[lo..].partition_point(|&(t, _)| t == now);
        self.boundaries[lo..hi].iter().map(|&(_, node)| node)
    }

    /// Same as [`FaultPlan::active_count`], by binary search: windows
    /// started by `now` minus windows ended by `now` (a window ends after
    /// it starts).
    pub fn active_count(&self, now: SimTime) -> usize {
        self.starts.partition_point(|&t| t <= now) - self.ends.partition_point(|&t| t <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RngFactory;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn span(s: f64) -> SimSpan {
        SimSpan::from_secs_f64(s)
    }

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::new().inject(3, FaultKind::ProbeLoss, secs(1.0), span(2.0));
        assert!(!plan.node(3).probe_lost(secs(0.999)));
        assert!(plan.node(3).probe_lost(secs(1.0)));
        assert!(plan.node(3).probe_lost(secs(2.999)));
        assert!(!plan.node(3).probe_lost(secs(3.0)));
        assert!(
            !plan.node(4).probe_lost(secs(1.5)),
            "other nodes unaffected"
        );
    }

    #[test]
    fn factors_compose_multiplicatively() {
        let plan = FaultPlan::new()
            .inject(
                0,
                FaultKind::CpuSlowdown { factor: 0.5 },
                secs(0.0),
                span(10.0),
            )
            .inject(
                0,
                FaultKind::CpuSlowdown { factor: 0.5 },
                secs(5.0),
                span(10.0),
            );
        assert!((plan.node(0).cpu_factor(secs(1.0)) - 0.5).abs() < 1e-12);
        assert!((plan.node(0).cpu_factor(secs(6.0)) - 0.25).abs() < 1e-12);
        assert!((plan.node(0).cpu_factor(secs(12.0)) - 0.5).abs() < 1e-12);
        assert!((plan.node(0).cpu_factor(secs(20.0)) - 1.0).abs() < 1e-12);
        assert!((plan.node(0).net_factor(secs(1.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probe_delay_takes_the_max() {
        let plan = FaultPlan::new()
            .inject(
                2,
                FaultKind::ProbeDelay { delay: span(0.05) },
                secs(0.0),
                span(4.0),
            )
            .inject(
                2,
                FaultKind::ProbeDelay { delay: span(0.2) },
                secs(1.0),
                span(1.0),
            );
        assert_eq!(plan.node(2).probe_delay(secs(0.5)), Some(span(0.05)));
        assert_eq!(plan.node(2).probe_delay(secs(1.5)), Some(span(0.2)));
        assert_eq!(plan.node(2).probe_delay(secs(3.0)), Some(span(0.05)));
        assert_eq!(plan.node(2).probe_delay(secs(5.0)), None);
    }

    #[test]
    fn transition_times_sorted_dedup() {
        let plan = FaultPlan::new()
            .inject(0, FaultKind::DiskStall, secs(2.0), span(1.0))
            .inject(1, FaultKind::ProbeLoss, secs(1.0), span(2.0));
        assert_eq!(
            plan.transition_times(),
            vec![secs(1.0), secs(2.0), secs(3.0)]
        );
    }

    #[test]
    fn overlapping_uses_half_open_intersection() {
        let plan = FaultPlan::new().inject(5, FaultKind::DiskStall, secs(2.0), span(1.0));
        assert_eq!(plan.node(5).overlapping(secs(0.0), secs(2.0)).count(), 0);
        assert_eq!(plan.node(5).overlapping(secs(2.5), secs(4.0)).count(), 1);
        assert_eq!(plan.node(5).overlapping(secs(0.0), secs(9.0)).count(), 1);
        assert_eq!(plan.node(5).overlapping(secs(3.0), secs(9.0)).count(), 0);
        assert_eq!(plan.node(6).overlapping(secs(2.0), secs(4.0)).count(), 0);
    }

    #[test]
    fn disk_stall_window_query() {
        let plan = FaultPlan::new().inject(5, FaultKind::DiskStall, secs(2.0), span(1.0));
        assert_eq!(
            plan.node(5)
                .disk_stalls_starting(secs(0.0), secs(2.0))
                .count(),
            0
        );
        assert_eq!(
            plan.node(5)
                .disk_stalls_starting(secs(2.0), secs(2.5))
                .count(),
            1
        );
        assert_eq!(
            plan.node(5)
                .disk_stalls_starting(secs(2.5), secs(9.0))
                .count(),
            0
        );
    }

    #[test]
    fn random_storm_is_deterministic_per_seed() {
        let mk = || {
            let mut rng = RngFactory::new(17).stream("storm");
            FaultPlan::random_storm(&mut rng, &[8, 9], secs(0.0), span(10.0), 3)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 6);
        let mut rng = RngFactory::new(18).stream("storm");
        let c = FaultPlan::random_storm(&mut rng, &[8, 9], secs(0.0), span(10.0), 3);
        assert_ne!(a, c, "different seed should differ");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_factor() {
        let _ = FaultPlan::new().inject(
            0,
            FaultKind::CpuSlowdown { factor: 1.5 },
            secs(0.0),
            span(1.0),
        );
    }

    #[test]
    fn node_leave_is_total_absence() {
        let plan = FaultPlan::new().node_leave(4, secs(1.0), span(2.0));
        assert!(!plan.node(4).offline(secs(0.5)));
        assert!(plan.node(4).offline(secs(1.0)));
        assert!(plan.node(4).offline(secs(2.999)));
        assert!(!plan.node(4).offline(secs(3.0)), "rejoin at window end");
        assert!(!plan.node(5).offline(secs(1.5)), "other nodes unaffected");
        // Absence implies: no CPU, lost probes, a stalled disk.
        assert_eq!(plan.node(4).cpu_factor(secs(1.5)), 0.0);
        assert!(plan.node(4).probe_lost(secs(1.5)));
        assert_eq!(
            plan.node(4)
                .disk_stalls_starting(secs(0.0), secs(2.0))
                .count(),
            1
        );
        // Net links are handled by fabric membership, not the dip factor.
        assert_eq!(plan.node(4).net_factor(secs(1.5)), 1.0);
    }

    #[test]
    fn node_join_is_a_leave_from_time_zero() {
        let plan = FaultPlan::new().node_join(2, secs(4.0));
        assert!(plan.node(2).offline(secs(0.0)));
        assert!(plan.node(2).offline(secs(3.999)));
        assert!(!plan.node(2).offline(secs(4.0)));
        assert_eq!(plan.transition_times(), vec![secs(0.0), secs(4.0)]);
    }

    /// Every query through the index equals the same query on the whole
    /// plan, bit for bit, at every boundary and between boundaries.
    #[test]
    fn index_answers_like_the_plan() {
        let mut rng = RngFactory::new(5).stream("storm");
        let plan = FaultPlan::random_storm(&mut rng, &[0, 1, 2, 3], secs(0.0), span(1.0), 6)
            .node_leave(2, secs(0.1), span(0.3))
            .node_join(3, secs(0.4));
        let index = FaultIndex::new(&plan);
        let mut probes = plan.transition_times();
        probes.extend(
            plan.transition_times()
                .iter()
                .map(|&t| t + SimSpan::from_nanos(1)),
        );
        for &t in &probes {
            assert_eq!(index.active_count(t), plan.active_count(t));
            for node in 0..5 {
                let (sub, all) = (index.node(node), plan.node(node));
                assert_eq!(sub.cpu_factor(t).to_bits(), all.cpu_factor(t).to_bits());
                assert_eq!(sub.net_factor(t).to_bits(), all.net_factor(t).to_bits());
                assert_eq!(sub.offline(t), all.offline(t));
                assert_eq!(sub.probe_lost(t), all.probe_lost(t));
                assert_eq!(sub.probe_delay(t), all.probe_delay(t));
                assert_eq!(sub.checkpoint_ship_fails(t), all.checkpoint_ship_fails(t));
                let end = t + SimSpan::from_nanos(50_000_000);
                assert!(sub.overlapping(t, end).eq(all.overlapping(t, end)));
                let next = t + SimSpan::from_nanos(1);
                assert!(sub
                    .disk_stalls_starting(t, next)
                    .eq(all.disk_stalls_starting(t, next)));
            }
            let touched: Vec<usize> = (0..5)
                .filter(|&n| {
                    plan.events()
                        .iter()
                        .any(|e| e.node == n && (e.start == t || e.end == t))
                })
                .collect();
            assert!(index.touched_at(t).eq(touched));
        }
    }

    #[test]
    fn zero_factor_models_a_full_stall() {
        let plan = FaultPlan::new()
            .inject(
                0,
                FaultKind::CpuSlowdown { factor: 0.0 },
                secs(1.0),
                span(2.0),
            )
            .inject(
                0,
                FaultKind::NetBandwidthDip { factor: 0.0 },
                secs(1.0),
                span(2.0),
            );
        assert_eq!(plan.node(0).cpu_factor(secs(2.0)), 0.0);
        assert_eq!(plan.node(0).net_factor(secs(2.0)), 0.0);
        assert_eq!(plan.node(0).cpu_factor(secs(4.0)), 1.0);
    }
}
