//! Data server: the per-storage-node I/O request queue.
//!
//! This is the state the DOSAS Contention Estimator probes (paper §III-D):
//! the I/O queue with, in Table II's notation, `n` requests of which `k` are
//! active, request sizes `d_i`, and the derived totals `D_A`, `D_N`, `D`.
//!
//! The data server tracks requests from arrival to final completion
//! (including the client-side completion of demoted active I/O); the
//! simulation driver moves requests through their disk/CPU/network stages
//! and informs the queue of completions.

use cluster::NodeId;
use serde::{Deserialize, Serialize};
use simkit::stats::TimeWeighted;
use simkit::SimTime;
use std::collections::BTreeMap;

/// Globally unique request id (assigned by the driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(pub u64);

/// An interned kernel operation: an index into the rate table the driver
/// was built with (`dosas::OpRates`). Interning happens once, when the
/// driver is built; afterwards an op travels as this `Copy` id and its
/// name is looked up only where a kernel is instantiated or printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpId(pub u32);

/// Whether a request asks for plain bytes or for an operation's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoKind {
    /// Traditional read: ship `d_i` bytes to the client.
    Normal,
    /// Active read: run the processing kernel `op` server-side and ship
    /// only its (small) result.
    Active { op: OpId },
}

impl IoKind {
    pub fn is_active(&self) -> bool {
        matches!(self, IoKind::Active { .. })
    }
}

/// One queued I/O request as the server sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueuedRequest {
    pub id: RequestId,
    pub kind: IoKind,
    /// Requested data size `d_i` in bytes.
    pub bytes: f64,
    /// Issuing client (compute node).
    pub client: NodeId,
    pub arrived: SimTime,
}

/// One row of a [`QueueSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnapshotRow {
    pub id: RequestId,
    /// Operation for active requests, `None` for normal I/O.
    pub op: Option<OpId>,
    /// `d_i` in bytes.
    pub bytes: f64,
}

impl SnapshotRow {
    pub fn is_active(&self) -> bool {
        self.op.is_some()
    }
}

/// Point-in-time view of the queue, in the paper's Table II notation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueSnapshot {
    /// `n` — number of I/O requests in the queue.
    pub n: usize,
    /// `k` — number of active I/O requests.
    pub k: usize,
    /// `D_A` — total bytes requested by active I/O.
    pub d_active: f64,
    /// `D_N` — total bytes requested by normal I/O.
    pub d_normal: f64,
    /// Per-request rows for the scheduler.
    pub requests: Vec<SnapshotRow>,
    pub taken_at: SimTime,
}

impl QueueSnapshot {
    /// `D = D_A + D_N` — total requested bytes.
    pub fn d_total(&self) -> f64 {
        self.d_active + self.d_normal
    }

    /// Overwrite the snapshot with `rows` taken at `now`, in their order,
    /// recomputing `n`, `k`, `D_A` and `D_N`. The row buffer keeps its
    /// allocation, so a snapshot refilled every decision round allocates
    /// only while it grows.
    pub fn refill(&mut self, now: SimTime, rows: impl IntoIterator<Item = SnapshotRow>) {
        self.requests.clear();
        self.k = 0;
        self.d_active = 0.0;
        self.d_normal = 0.0;
        for row in rows {
            if row.is_active() {
                self.k += 1;
                self.d_active += row.bytes;
            } else {
                self.d_normal += row.bytes;
            }
            self.requests.push(row);
        }
        self.n = self.requests.len();
        self.taken_at = now;
    }
}

/// The I/O queue of one data server.
#[derive(Debug)]
pub struct DataServer {
    node: NodeId,
    queue: BTreeMap<RequestId, QueuedRequest>,
    depth: TimeWeighted,
    active_depth: TimeWeighted,
    pub completed: u64,
    pub bytes_requested: f64,
}

impl DataServer {
    pub fn new(node: NodeId) -> Self {
        DataServer {
            node,
            queue: BTreeMap::new(),
            depth: TimeWeighted::new(SimTime::ZERO, 0.0),
            active_depth: TimeWeighted::new(SimTime::ZERO, 0.0),
            completed: 0,
            bytes_requested: 0.0,
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    /// A request has arrived at this server.
    pub fn arrive(&mut self, now: SimTime, req: QueuedRequest) {
        assert!(
            !self.queue.contains_key(&req.id),
            "request {:?} already queued",
            req.id
        );
        self.bytes_requested += req.bytes;
        self.depth.add(now, 1.0);
        if req.kind.is_active() {
            self.active_depth.add(now, 1.0);
        }
        self.queue.insert(req.id, req);
    }

    /// A request has fully completed (result delivered to the application).
    pub fn complete(&mut self, now: SimTime, id: RequestId) -> Option<QueuedRequest> {
        let req = self.queue.remove(&id)?;
        self.depth.add(now, -1.0);
        if req.kind.is_active() {
            self.active_depth.add(now, -1.0);
        }
        self.completed += 1;
        Some(req)
    }

    /// Change a queued active request into a normal one (DOSAS demotion).
    /// Returns `false` if the id is unknown or already normal.
    pub fn demote(&mut self, now: SimTime, id: RequestId) -> bool {
        match self.queue.get_mut(&id) {
            Some(req) if req.kind.is_active() => {
                req.kind = IoKind::Normal;
                self.active_depth.add(now, -1.0);
                true
            }
            _ => false,
        }
    }

    /// Look at one queued request.
    pub fn get(&self, id: RequestId) -> Option<&QueuedRequest> {
        self.queue.get(&id)
    }

    /// Current queue in Table II notation, in ascending request id.
    pub fn snapshot(&self, now: SimTime) -> QueueSnapshot {
        let mut snapshot = QueueSnapshot::default();
        snapshot.refill(
            now,
            self.queue.values().map(|req| SnapshotRow {
                id: req.id,
                op: match req.kind {
                    IoKind::Active { op } => Some(op),
                    IoKind::Normal => None,
                },
                bytes: req.bytes,
            }),
        );
        snapshot
    }

    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Instantaneous queue depth as tracked by the time-weighted statistic
    /// (queued + in service, including active requests).
    pub fn current_depth(&self) -> f64 {
        self.depth.current()
    }

    /// Time-weighted mean queue depth since simulation start.
    pub fn mean_depth(&self, now: SimTime) -> f64 {
        self.depth.mean(now)
    }

    /// Cumulative time-weighted queue-depth integral ∫ depth dt since
    /// simulation start (requests·seconds). Sampled by the observability
    /// layer so the timeline reconciles exactly with [`mean_depth`]:
    /// `depth_integral_at(end) / end == mean_depth(end)` for `end > 0`.
    ///
    /// [`mean_depth`]: DataServer::mean_depth
    pub fn depth_integral_at(&self, now: SimTime) -> f64 {
        self.depth.integral_at(now)
    }

    /// Peak queue depth seen.
    pub fn peak_depth(&self) -> f64 {
        self.depth.peak()
    }

    /// Time-weighted mean number of queued *active* requests.
    pub fn mean_active_depth(&self, now: SimTime) -> f64 {
        self.active_depth.mean(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, active: bool, bytes: f64) -> QueuedRequest {
        QueuedRequest {
            id: RequestId(id),
            kind: if active {
                IoKind::Active { op: OpId(0) }
            } else {
                IoKind::Normal
            },
            bytes,
            client: NodeId(0),
            arrived: SimTime::ZERO,
        }
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn snapshot_matches_table_ii_notation() {
        let mut ds = DataServer::new(NodeId(8));
        ds.arrive(SimTime::ZERO, req(0, true, 100.0));
        ds.arrive(SimTime::ZERO, req(1, true, 200.0));
        ds.arrive(SimTime::ZERO, req(2, false, 50.0));
        let s = ds.snapshot(SimTime::ZERO);
        assert_eq!(s.n, 3);
        assert_eq!(s.k, 2);
        assert_eq!(s.d_active, 300.0);
        assert_eq!(s.d_normal, 50.0);
        assert_eq!(s.d_total(), 350.0);
        assert_eq!(s.requests.len(), 3);
    }

    #[test]
    fn complete_removes_and_counts() {
        let mut ds = DataServer::new(NodeId(8));
        ds.arrive(SimTime::ZERO, req(0, true, 100.0));
        let r = ds.complete(secs(1.0), RequestId(0)).unwrap();
        assert!(r.kind.is_active());
        assert_eq!(ds.queue_len(), 0);
        assert_eq!(ds.completed, 1);
        assert!(ds.complete(secs(1.0), RequestId(0)).is_none());
    }

    #[test]
    fn demote_changes_kind_once() {
        let mut ds = DataServer::new(NodeId(8));
        ds.arrive(SimTime::ZERO, req(0, true, 100.0));
        assert!(ds.demote(secs(0.5), RequestId(0)));
        assert!(!ds.demote(secs(0.5), RequestId(0)), "already normal");
        let s = ds.snapshot(secs(0.5));
        assert_eq!(s.k, 0);
        assert_eq!(s.d_normal, 100.0);
        assert!(!ds.get(RequestId(0)).unwrap().kind.is_active());
    }

    #[test]
    fn demote_unknown_request_is_noop() {
        let mut ds = DataServer::new(NodeId(8));
        assert!(!ds.demote(SimTime::ZERO, RequestId(42)));
    }

    #[test]
    fn depth_statistics_are_time_weighted() {
        let mut ds = DataServer::new(NodeId(8));
        ds.arrive(SimTime::ZERO, req(0, false, 1.0));
        ds.arrive(SimTime::ZERO, req(1, false, 1.0));
        ds.complete(secs(1.0), RequestId(0));
        ds.complete(secs(2.0), RequestId(1));
        // Depth 2 for 1 s, 1 for 1 s => mean 1.5 at t=2.
        assert!((ds.mean_depth(secs(2.0)) - 1.5).abs() < 1e-9);
        assert_eq!(ds.peak_depth(), 2.0);
    }

    #[test]
    #[should_panic(expected = "already queued")]
    fn duplicate_arrival_panics() {
        let mut ds = DataServer::new(NodeId(8));
        ds.arrive(SimTime::ZERO, req(0, false, 1.0));
        ds.arrive(SimTime::ZERO, req(0, false, 1.0));
    }

    #[test]
    fn bytes_requested_accumulates() {
        let mut ds = DataServer::new(NodeId(8));
        ds.arrive(SimTime::ZERO, req(0, false, 10.0));
        ds.arrive(SimTime::ZERO, req(1, true, 30.0));
        assert_eq!(ds.bytes_requested, 40.0);
    }
}
