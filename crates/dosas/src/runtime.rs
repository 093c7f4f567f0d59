//! The Active I/O Runtime (R, paper §III-C): the server-side per-request
//! state machine.
//!
//! R serves requests according to the CE's policy:
//!
//! * a queued active request decided `Normal` is **demoted** — it will be
//!   served as a plain read (`completed = 0`, empty status);
//! * a *running* kernel decided `Normal` is **interrupted** — its variables
//!   are checkpointed through the shared-memory channel and shipped with the
//!   unprocessed bytes (`completed = 0`, status = checkpoint);
//! * a completed kernel's result is returned with `completed = 1`.
//!
//! The runtime tracks states and validates transitions; the simulation
//! driver charges the actual disk/CPU/network time against the `cluster`
//! resources.
//!
//! It also keeps the node's **plannable-row index**: the requests a
//! decision round may still re-plan (queued at the disk or running a
//! kernel), in ascending [`RequestId`], each with the fields the round
//! reads. The index is updated on the stage transitions that enter or
//! leave those stages, so a round reads its rows in one pass with no
//! per-row map lookup.

use crate::estimator::{Decision, Policy};
use pfs::{OpId, RequestId, SnapshotRow};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Server-side lifecycle of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerStage {
    /// Request message en route to the server.
    InFlight,
    /// In the I/O queue, disk read not finished yet.
    QueuedDisk,
    /// Kernel executing on the storage CPU (active service).
    Running,
    /// Result bytes being sent to the client (`completed = 1`).
    SendingResult,
    /// Raw data (plus checkpoint for migrations) being sent
    /// (`completed = 0`).
    SendingData,
    /// Fully served.
    Done,
}

/// How the request is currently being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceMode {
    /// Kernel on the storage node (as requested).
    Active,
    /// Plain data shipping (normal I/O, or demoted before starting).
    Normal,
    /// Interrupted mid-kernel; residual data + checkpoint shipping.
    Migrated,
}

/// Actions the runtime instructs the driver to take after a policy update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeAction {
    /// Change a queued active request to normal service.
    Demote(RequestId),
    /// Stop a running kernel, checkpoint it, ship residue + state.
    Interrupt(RequestId),
}

/// Typed errors for runtime transitions that faults can make reachable.
///
/// Ordinary (fault-free) transition bugs are still programming errors and
/// assert; these variants cover paths a fault plan can legitimately drive —
/// most notably checkpoint-ship failures, where a transfer the runtime
/// believed in flight dies out from under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeError {
    /// The request is not (or no longer) tracked by this runtime.
    NotTracked(RequestId),
    /// The request exists but is not in a stage/mode the operation accepts.
    InvalidTransition {
        id: RequestId,
        stage: ServerStage,
        mode: ServiceMode,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::NotTracked(id) => write!(f, "request {id:?} not tracked"),
            RuntimeError::InvalidTransition { id, stage, mode } => {
                write!(f, "request {id:?} in invalid state {stage:?}/{mode:?}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// What a decision round needs to know about a request, handed to the
/// runtime when the request enters the plannable stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestInfo {
    /// The requested kernel, `None` for a plain read.
    pub op: Option<OpId>,
    /// `d_i` in bytes.
    pub bytes: f64,
    /// Issuing rank.
    pub rank: usize,
    /// The rank's tenant, when the workload is tenanted.
    pub tenant: Option<usize>,
}

/// One row of the plannable-row index: a request queued at the disk or
/// running its kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanRow {
    pub id: RequestId,
    /// The kernel while the request is still served as active I/O; `None`
    /// for plain reads and once demoted.
    pub op: Option<OpId>,
    pub bytes: f64,
    pub rank: usize,
    pub tenant: Option<usize>,
    /// Running its kernel (else queued at the disk).
    running: bool,
    /// Planned partial-offload fraction (extension); 1.0 = run fully.
    split: f64,
}

impl PlanRow {
    /// The row as the probed queue shows it.
    pub fn snapshot_row(&self) -> SnapshotRow {
        SnapshotRow {
            id: self.id,
            op: self.op,
            bytes: self.bytes,
        }
    }
}

#[derive(Debug, Clone)]
struct Tracked {
    stage: ServerStage,
    mode: ServiceMode,
    active_requested: bool,
}

/// Counters the evaluation reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeCounters {
    pub admitted: u64,
    pub demoted: u64,
    pub interrupted: u64,
    /// Planned partial-offload migrations (extension).
    pub split: u64,
    pub completed_active: u64,
    pub completed_normal: u64,
    pub completed_migrated: u64,
    /// Checkpoint shipments that failed in flight and were re-queued as
    /// normal reads (fault-injection extension).
    #[serde(default)]
    pub checkpoint_failures: u64,
}

impl RuntimeCounters {
    /// Fold another node's counters into this aggregate.
    pub fn absorb(&mut self, other: &RuntimeCounters) {
        self.admitted += other.admitted;
        self.demoted += other.demoted;
        self.interrupted += other.interrupted;
        self.split += other.split;
        self.completed_active += other.completed_active;
        self.completed_normal += other.completed_normal;
        self.completed_migrated += other.completed_migrated;
        self.checkpoint_failures += other.checkpoint_failures;
    }
}

/// One storage node's Active I/O Runtime.
#[derive(Debug, Clone, Default)]
pub struct ActiveIoRuntime {
    requests: BTreeMap<RequestId, Tracked>,
    /// The plannable-row index: every tracked request in stage
    /// `QueuedDisk` or `Running`, in ascending id.
    plannable: Vec<PlanRow>,
    pub counters: RuntimeCounters,
}

impl ActiveIoRuntime {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a request the moment the client sends it.
    pub fn track(&mut self, id: RequestId, active: bool) {
        let prev = self.requests.insert(
            id,
            Tracked {
                stage: ServerStage::InFlight,
                mode: if active {
                    ServiceMode::Active
                } else {
                    ServiceMode::Normal
                },
                active_requested: active,
            },
        );
        assert!(prev.is_none(), "request {id:?} tracked twice");
        if active {
            self.counters.admitted += 1;
        }
    }

    /// The plannable rows — queued at the disk or running a kernel — in
    /// ascending id: what a decision round may still re-plan.
    pub fn plannable(&self) -> &[PlanRow] {
        &self.plannable
    }

    /// Planned partial-offload fraction of a running request (1.0 when
    /// it runs fully).
    pub fn planned_split(&self, id: RequestId) -> f64 {
        let i = self.row(id).expect("running request is indexed");
        self.plannable[i].split
    }

    /// Record a round's planned fractions on the requests still queued at
    /// the disk (plans are re-tunable until the disk read completes).
    pub fn plan_splits(&mut self, fractions: &[(RequestId, f64)]) {
        for &(id, p) in fractions {
            if let Some(i) = self.row(id) {
                let row = &mut self.plannable[i];
                if !row.running {
                    row.split = p;
                }
            }
        }
    }

    fn row(&self, id: RequestId) -> Option<usize> {
        self.plannable.binary_search_by_key(&id, |r| r.id).ok()
    }

    /// `id` enters the index queued at the disk, as served in `mode`.
    fn enter_plannable(&mut self, id: RequestId, info: RequestInfo, mode: ServiceMode) {
        let at = self
            .plannable
            .binary_search_by_key(&id, |r| r.id)
            .expect_err("request indexed twice");
        self.plannable.insert(
            at,
            PlanRow {
                id,
                op: info.op.filter(|_| mode == ServiceMode::Active),
                bytes: info.bytes,
                rank: info.rank,
                tenant: info.tenant,
                running: false,
                split: 1.0,
            },
        );
    }

    fn leave_plannable(&mut self, id: RequestId) {
        let i = self.row(id).expect("plannable request is indexed");
        self.plannable.remove(i);
    }

    pub fn stage(&self, id: RequestId) -> Option<ServerStage> {
        self.requests.get(&id).map(|t| t.stage)
    }

    pub fn mode(&self, id: RequestId) -> Option<ServiceMode> {
        self.requests.get(&id).map(|t| t.mode)
    }

    /// Requests currently running kernels.
    pub fn running(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.plannable.iter().filter(|r| r.running).map(|r| r.id)
    }

    fn tracked(&mut self, id: RequestId) -> &mut Tracked {
        self.requests
            .get_mut(&id)
            .unwrap_or_else(|| panic!("request {id:?} not tracked"))
    }

    /// Arrival at the server: the disk read is submitted and the request
    /// becomes plannable.
    pub fn on_arrival(&mut self, id: RequestId, info: RequestInfo) {
        let t = self.tracked(id);
        assert_eq!(t.stage, ServerStage::InFlight, "{id:?}");
        t.stage = ServerStage::QueuedDisk;
        let mode = t.mode;
        self.enter_plannable(id, info, mode);
    }

    /// Disk read finished. Returns the service mode that must now proceed:
    /// `Active` → start the kernel; otherwise → ship the data.
    pub fn on_disk_done(&mut self, id: RequestId) -> ServiceMode {
        let t = self.tracked(id);
        assert_eq!(t.stage, ServerStage::QueuedDisk, "{id:?}");
        let mode = t.mode;
        match mode {
            ServiceMode::Active => {
                t.stage = ServerStage::Running;
                let i = self.row(id).expect("queued request is indexed");
                self.plannable[i].running = true;
            }
            ServiceMode::Normal | ServiceMode::Migrated => {
                t.stage = ServerStage::SendingData;
                self.leave_plannable(id);
            }
        }
        mode
    }

    /// Kernel finished; result transfer begins.
    pub fn on_kernel_done(&mut self, id: RequestId) {
        let t = self.tracked(id);
        assert_eq!(t.stage, ServerStage::Running, "{id:?}");
        t.stage = ServerStage::SendingResult;
        self.leave_plannable(id);
    }

    /// Kernel reached its *planned* partial-offload point: checkpoint and
    /// ship residual data + state, exactly like an interruption but
    /// scheduled in advance (extension; see `schedule::fractional`).
    pub fn on_kernel_split(&mut self, id: RequestId) {
        let t = self.tracked(id);
        assert_eq!(t.stage, ServerStage::Running, "{id:?}");
        assert_eq!(t.mode, ServiceMode::Active, "{id:?}");
        t.mode = ServiceMode::Migrated;
        t.stage = ServerStage::SendingData;
        self.counters.split += 1;
        self.leave_plannable(id);
    }

    /// Final transfer delivered; the request leaves the runtime.
    pub fn on_delivered(&mut self, id: RequestId) -> ServiceMode {
        let t = self
            .requests
            .remove(&id)
            .unwrap_or_else(|| panic!("request {id:?} not tracked"));
        assert!(
            matches!(
                t.stage,
                ServerStage::SendingResult | ServerStage::SendingData
            ),
            "{id:?} delivered from stage {:?}",
            t.stage
        );
        match t.mode {
            ServiceMode::Active => self.counters.completed_active += 1,
            ServiceMode::Migrated => self.counters.completed_migrated += 1,
            ServiceMode::Normal => {
                if t.active_requested {
                    self.counters.completed_normal += 1;
                } else {
                    // plain reads aren't counted as active completions
                }
            }
        }
        t.mode
    }

    /// A migrated request's checkpoint shipment failed in flight (fault
    /// injection): the data + state never reached the client. The request
    /// falls back to plain data shipping — it re-enters the disk queue as a
    /// `Normal` request so the raw bytes can be re-read and re-shipped
    /// without kernel state, plannable again. Any partial kernel progress is
    /// discarded by the caller (processed bytes reset).
    pub fn on_checkpoint_failed(
        &mut self,
        id: RequestId,
        info: RequestInfo,
    ) -> Result<(), RuntimeError> {
        let t = self
            .requests
            .get_mut(&id)
            .ok_or(RuntimeError::NotTracked(id))?;
        if t.stage != ServerStage::SendingData || t.mode != ServiceMode::Migrated {
            return Err(RuntimeError::InvalidTransition {
                id,
                stage: t.stage,
                mode: t.mode,
            });
        }
        t.stage = ServerStage::QueuedDisk;
        t.mode = ServiceMode::Normal;
        self.counters.checkpoint_failures += 1;
        self.enter_plannable(id, info, ServiceMode::Normal);
        Ok(())
    }

    /// Apply a CE policy: which queued requests to demote and which running
    /// kernels to interrupt, pushed onto `actions` in decision order.
    /// `allow_interrupt = false` restricts R to acting on not-yet-started
    /// requests (ablation). Only `Normal` decisions touch the request
    /// table; `Active` ones are skipped without a lookup.
    pub fn apply_policy(
        &mut self,
        policy: &Policy,
        allow_interrupt: bool,
        actions: &mut Vec<RuntimeAction>,
    ) {
        for &(id, decision) in &policy.decisions {
            if decision != Decision::Normal {
                continue;
            }
            let Some(t) = self.requests.get_mut(&id) else {
                continue; // completed since the probe
            };
            match (t.stage, t.mode) {
                (ServerStage::InFlight | ServerStage::QueuedDisk, ServiceMode::Active) => {
                    t.mode = ServiceMode::Normal;
                    let queued = t.stage == ServerStage::QueuedDisk;
                    self.counters.demoted += 1;
                    actions.push(RuntimeAction::Demote(id));
                    if queued {
                        let i = self.row(id).expect("queued request is indexed");
                        self.plannable[i].op = None;
                    }
                }
                (ServerStage::Running, ServiceMode::Active) if allow_interrupt => {
                    t.mode = ServiceMode::Migrated;
                    t.stage = ServerStage::SendingData;
                    self.counters.interrupted += 1;
                    actions.push(RuntimeAction::Interrupt(id));
                    self.leave_plannable(id);
                }
                // Too late (already sending) or already normal: no-op.
                _ => {}
            }
        }
    }

    pub fn tracked_count(&self) -> usize {
        self.requests.len()
    }

    /// Cumulative demotions this runtime has performed — the demotion-rate
    /// signal the observability sampler exports per server (a consumer can
    /// difference consecutive samples for a rate).
    pub fn demoted_total(&self) -> u64 {
        self.counters.demoted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn policy(entries: &[(u64, Decision)]) -> Policy {
        Policy {
            decisions: entries.iter().map(|&(id, d)| (RequestId(id), d)).collect(),
            ..Policy::default()
        }
    }

    /// A 1 MB request of rank 0 running op 0 when served as active I/O.
    fn info() -> RequestInfo {
        RequestInfo {
            op: Some(OpId(0)),
            bytes: 1e6,
            rank: 0,
            tenant: None,
        }
    }

    /// Apply `policy` and return the actions it produced.
    fn apply(r: &mut ActiveIoRuntime, policy: &Policy, allow: bool) -> Vec<RuntimeAction> {
        let mut actions = Vec::new();
        r.apply_policy(policy, allow, &mut actions);
        actions
    }

    #[test]
    fn active_request_happy_path() {
        let mut r = ActiveIoRuntime::new();
        r.track(RequestId(0), true);
        r.on_arrival(RequestId(0), info());
        assert_eq!(r.on_disk_done(RequestId(0)), ServiceMode::Active);
        r.on_kernel_done(RequestId(0));
        assert_eq!(r.on_delivered(RequestId(0)), ServiceMode::Active);
        assert_eq!(r.counters.completed_active, 1);
        assert_eq!(r.tracked_count(), 0);
    }

    #[test]
    fn normal_request_skips_kernel() {
        let mut r = ActiveIoRuntime::new();
        r.track(RequestId(1), false);
        r.on_arrival(RequestId(1), info());
        assert_eq!(r.on_disk_done(RequestId(1)), ServiceMode::Normal);
        assert_eq!(r.stage(RequestId(1)), Some(ServerStage::SendingData));
        r.on_delivered(RequestId(1));
        assert_eq!(r.counters.completed_active, 0);
    }

    #[test]
    fn demotion_before_disk_read() {
        let mut r = ActiveIoRuntime::new();
        r.track(RequestId(0), true);
        r.on_arrival(RequestId(0), info());
        let actions = apply(&mut r, &policy(&[(0, Decision::Normal)]), true);
        assert_eq!(actions, vec![RuntimeAction::Demote(RequestId(0))]);
        assert_eq!(r.counters.demoted, 1);
        // Disk completion now routes to data shipping.
        assert_eq!(r.on_disk_done(RequestId(0)), ServiceMode::Normal);
        assert_eq!(r.on_delivered(RequestId(0)), ServiceMode::Normal);
        assert_eq!(r.counters.completed_normal, 1);
    }

    #[test]
    fn interruption_of_running_kernel() {
        let mut r = ActiveIoRuntime::new();
        r.track(RequestId(0), true);
        r.on_arrival(RequestId(0), info());
        r.on_disk_done(RequestId(0));
        assert_eq!(r.running().collect::<Vec<_>>(), vec![RequestId(0)]);
        let actions = apply(&mut r, &policy(&[(0, Decision::Normal)]), true);
        assert_eq!(actions, vec![RuntimeAction::Interrupt(RequestId(0))]);
        assert_eq!(r.mode(RequestId(0)), Some(ServiceMode::Migrated));
        assert_eq!(r.on_delivered(RequestId(0)), ServiceMode::Migrated);
        assert_eq!(r.counters.interrupted, 1);
        assert_eq!(r.counters.completed_migrated, 1);
    }

    #[test]
    fn planned_split_transitions_like_interruption() {
        let mut r = ActiveIoRuntime::new();
        r.track(RequestId(0), true);
        r.on_arrival(RequestId(0), info());
        r.on_disk_done(RequestId(0));
        r.on_kernel_split(RequestId(0));
        assert_eq!(r.stage(RequestId(0)), Some(ServerStage::SendingData));
        assert_eq!(r.mode(RequestId(0)), Some(ServiceMode::Migrated));
        assert_eq!(r.counters.split, 1);
        assert_eq!(r.on_delivered(RequestId(0)), ServiceMode::Migrated);
    }

    #[test]
    fn interruption_disabled_leaves_kernel_running() {
        let mut r = ActiveIoRuntime::new();
        r.track(RequestId(0), true);
        r.on_arrival(RequestId(0), info());
        r.on_disk_done(RequestId(0));
        let actions = apply(&mut r, &policy(&[(0, Decision::Normal)]), false);
        assert!(actions.is_empty());
        assert_eq!(r.stage(RequestId(0)), Some(ServerStage::Running));
    }

    #[test]
    fn active_decision_is_noop() {
        let mut r = ActiveIoRuntime::new();
        r.track(RequestId(0), true);
        r.on_arrival(RequestId(0), info());
        let actions = apply(&mut r, &policy(&[(0, Decision::Active)]), true);
        assert!(actions.is_empty());
    }

    #[test]
    fn policy_for_unknown_request_is_ignored() {
        let mut r = ActiveIoRuntime::new();
        let actions = apply(&mut r, &policy(&[(42, Decision::Normal)]), true);
        assert!(actions.is_empty());
    }

    #[test]
    fn double_demotion_is_idempotent() {
        let mut r = ActiveIoRuntime::new();
        r.track(RequestId(0), true);
        r.on_arrival(RequestId(0), info());
        apply(&mut r, &policy(&[(0, Decision::Normal)]), true);
        let again = apply(&mut r, &policy(&[(0, Decision::Normal)]), true);
        assert!(again.is_empty());
        assert_eq!(r.counters.demoted, 1);
    }

    #[test]
    #[should_panic(expected = "tracked twice")]
    fn double_track_panics() {
        let mut r = ActiveIoRuntime::new();
        r.track(RequestId(0), true);
        r.track(RequestId(0), true);
    }

    #[test]
    #[should_panic(expected = "not tracked")]
    fn transition_without_tracking_panics() {
        let mut r = ActiveIoRuntime::new();
        r.on_arrival(RequestId(5), info());
    }

    #[test]
    fn checkpoint_failure_requeues_as_normal() {
        let mut r = ActiveIoRuntime::new();
        r.track(RequestId(0), true);
        r.on_arrival(RequestId(0), info());
        r.on_disk_done(RequestId(0));
        apply(&mut r, &policy(&[(0, Decision::Normal)]), true);
        assert_eq!(r.mode(RequestId(0)), Some(ServiceMode::Migrated));
        // The checkpoint shipment dies in flight.
        r.on_checkpoint_failed(RequestId(0), info()).unwrap();
        assert_eq!(r.stage(RequestId(0)), Some(ServerStage::QueuedDisk));
        assert_eq!(r.mode(RequestId(0)), Some(ServiceMode::Normal));
        assert_eq!(r.counters.checkpoint_failures, 1);
        // The re-read then ships plain data to completion.
        assert_eq!(r.on_disk_done(RequestId(0)), ServiceMode::Normal);
        assert_eq!(r.on_delivered(RequestId(0)), ServiceMode::Normal);
        assert_eq!(r.counters.completed_normal, 1);
    }

    #[test]
    fn checkpoint_failure_rejects_wrong_states() {
        let mut r = ActiveIoRuntime::new();
        assert_eq!(
            r.on_checkpoint_failed(RequestId(3), info()),
            Err(RuntimeError::NotTracked(RequestId(3)))
        );
        r.track(RequestId(0), true);
        r.on_arrival(RequestId(0), info());
        // QueuedDisk/Active is not a failable shipment.
        assert_eq!(
            r.on_checkpoint_failed(RequestId(0), info()),
            Err(RuntimeError::InvalidTransition {
                id: RequestId(0),
                stage: ServerStage::QueuedDisk,
                mode: ServiceMode::Active,
            })
        );
        // Neither is a plain demoted data shipment (no checkpoint aboard).
        apply(&mut r, &policy(&[(0, Decision::Normal)]), true);
        r.on_disk_done(RequestId(0));
        assert!(r.on_checkpoint_failed(RequestId(0), info()).is_err());
        assert_eq!(r.counters.checkpoint_failures, 0);
    }

    // ----- State-machine property (fault-interleaving robustness) -----

    /// The set of (stage, mode) pairs the runtime may legally occupy.
    fn state_is_legal(stage: ServerStage, mode: ServiceMode) -> bool {
        matches!(
            (stage, mode),
            (
                ServerStage::InFlight,
                ServiceMode::Active | ServiceMode::Normal
            ) | (
                ServerStage::QueuedDisk,
                ServiceMode::Active | ServiceMode::Normal
            ) | (ServerStage::Running, ServiceMode::Active)
                | (ServerStage::SendingResult, ServiceMode::Active)
                | (
                    ServerStage::SendingData,
                    ServiceMode::Normal | ServiceMode::Migrated
                )
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        /// Drive one tracked request through an arbitrary interleaving of
        /// driver events, policy updates, and injected checkpoint failures.
        /// The runtime must never reach an illegal (stage, mode) pair, never
        /// accept `on_checkpoint_failed` outside Migrated shipment, and its
        /// counters must stay consistent with observed completions.
        #[test]
        fn arbitrary_interleavings_never_reach_invalid_state(
            active in 0u8..2,
            cmds in proptest::collection::vec(0u8..7, 1..60),
        ) {
            let mut r = ActiveIoRuntime::new();
            let id = RequestId(0);
            r.track(id, active == 1);
            let mut delivered = false;
            for cmd in cmds {
                if delivered {
                    break;
                }
                let stage = r.stage(id).unwrap();
                let mode = r.mode(id).unwrap();
                match cmd {
                    0 if stage == ServerStage::InFlight => r.on_arrival(id, info()),
                    1 if stage == ServerStage::QueuedDisk => {
                        let served = r.on_disk_done(id);
                        prop_assert_eq!(served, mode);
                    }
                    2 if stage == ServerStage::Running => r.on_kernel_done(id),
                    3 if stage == ServerStage::Running && mode == ServiceMode::Active => {
                        r.on_kernel_split(id)
                    }
                    4 => {
                        // Policy flips to Normal; allow_interrupt alternates
                        // with the command parity of the stage.
                        let allow = stage != ServerStage::SendingResult;
                        apply(&mut r, &policy(&[(0, Decision::Normal)]), allow);
                    }
                    5 => {
                        let failable = stage == ServerStage::SendingData
                            && mode == ServiceMode::Migrated;
                        let res = r.on_checkpoint_failed(id, info());
                        prop_assert_eq!(res.is_ok(), failable);
                    }
                    6 if matches!(
                        stage,
                        ServerStage::SendingResult | ServerStage::SendingData
                    ) =>
                    {
                        r.on_delivered(id);
                        delivered = true;
                    }
                    _ => {} // command not applicable in this state: skip
                }
                if !delivered {
                    let (s, m) = (r.stage(id).unwrap(), r.mode(id).unwrap());
                    prop_assert!(
                        state_is_legal(s, m),
                        "illegal state {:?}/{:?} after cmd {}",
                        s,
                        m,
                        cmd
                    );
                    // The plannable-row index mirrors the state machine:
                    // indexed exactly while queued or running, showing the
                    // op exactly while still served as active I/O.
                    let row = r.plannable().iter().find(|row| row.id == id);
                    prop_assert_eq!(
                        row.is_some(),
                        matches!(s, ServerStage::QueuedDisk | ServerStage::Running)
                    );
                    if let Some(row) = row {
                        prop_assert_eq!(row.op.is_some(), m == ServiceMode::Active);
                        prop_assert_eq!(row.running, s == ServerStage::Running);
                    }
                } else {
                    prop_assert!(r.plannable().is_empty());
                }
            }
            let c = r.counters;
            // A single tracked request can be demoted/interrupted at most
            // once each, and interruption + planned split are exclusive.
            prop_assert!(c.demoted <= 1 && c.interrupted <= 1 && c.split <= 1);
            prop_assert!(c.interrupted + c.split <= 1);
            let completions = c.completed_active + c.completed_normal + c.completed_migrated;
            prop_assert!(completions <= 1);
            if delivered {
                prop_assert_eq!(r.tracked_count(), 0);
            }
        }
    }
}
