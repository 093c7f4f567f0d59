//! The Contention Estimator (CE, paper §III-D).
//!
//! Periodically probes the storage node's state — CPU utilization, memory
//! use, and the I/O queue — and generates the scheduling policy for every
//! active I/O request in the queue by solving the binary optimization of
//! Eq. 8 over the probed state. The policy is handed to the Active I/O
//! Runtime for execution.
//!
//! `S_{C,op}` is estimated from its maximum value (per-core rate × kernel
//! cores, "achieved when a storage node is fully dedicated to executing the
//! op") scaled by the fraction of CPU not consumed by other duties, exactly
//! as the paper describes. The CE plans with the *nominal* network bandwidth
//! — it cannot observe per-flow jitter — which is one of the two reasons the
//! paper gives for its boundary misjudgments (Table IV).

use crate::config::{OpRates, ProbeConfig};
use crate::cost::{CostModel, Item};
use crate::schedule::fractional::{self, SplitItem};
use crate::schedule::{self, SolverKind};
use pfs::{OpId, QueueSnapshot, RequestId};
use serde::{Deserialize, Serialize};
use simkit::{SimSpan, SimTime};

/// Per-request scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Serve as requested: kernel runs on the storage node.
    Active,
    /// Serve as normal I/O: ship bytes, client computes.
    Normal,
}

/// The CE's output: one decision per queued active request.
///
/// Both lists are in the probed queue's row order, which is ascending
/// [`RequestId`]; lookups by id binary-search them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Policy {
    pub decisions: Vec<(RequestId, Decision)>,
    /// Partial-offload extension: for requests decided `Active`, the
    /// fraction of the data to process on the storage node before a
    /// planned migration (absent = run to completion).
    pub fractions: Vec<(RequestId, f64)>,
    /// The solver's predicted completion time for the batch.
    pub predicted_time: f64,
    pub generated_at: SimTime,
}

impl Policy {
    /// Empty this policy for a round generated at `now`, keeping its
    /// buffers.
    pub fn reset(&mut self, now: SimTime) {
        self.decisions.clear();
        self.fractions.clear();
        self.predicted_time = 0.0;
        self.generated_at = now;
    }

    /// Decision for `id`; requests unknown to the policy default to Active
    /// (the runtime only acts on explicit demotions).
    pub fn decision(&self, id: RequestId) -> Decision {
        self.decisions
            .binary_search_by_key(&id, |&(rid, _)| rid)
            .map_or(Decision::Active, |i| self.decisions[i].1)
    }

    /// Planned storage-side fraction for `id` (1.0 when not split).
    pub fn fraction(&self, id: RequestId) -> f64 {
        self.fractions
            .binary_search_by_key(&id, |&(rid, _)| rid)
            .map_or(1.0, |i| self.fractions[i].1)
    }

    pub fn active_count(&self) -> usize {
        self.decisions
            .iter()
            .filter(|&&(_, d)| d == Decision::Active)
            .count()
    }

    pub fn normal_count(&self) -> usize {
        self.decisions.len() - self.active_count()
    }
}

/// What the CE sees when it probes the node. Borrows the probed queue, so
/// a decision round lends the CE its snapshot instead of copying it.
#[derive(Debug, Clone, Copy)]
pub struct SystemProbe<'a> {
    /// The data server's I/O queue (Table II's `n`, `k`, `d_i`, …).
    pub queue: &'a QueueSnapshot,
    /// Fraction of storage CPU consumed by duties *other than* the queued
    /// kernels the CE is about to schedule (e.g. other applications).
    pub background_cpu: f64,
    /// Bytes of storage-node memory pinned by other tenants.
    pub background_memory: f64,
    /// Online estimate of the node's achievable outbound bandwidth
    /// (extension: EWMA over observed saturated-link throughput). `None`
    /// falls back to the nominal bandwidth, as in the paper — whose authors
    /// name the unobserved 111–120 MB/s variation as a misjudgment cause.
    pub bandwidth_estimate: Option<f64>,
}

impl<'a> SystemProbe<'a> {
    /// A probe of `queue` with no background load and nominal bandwidth.
    pub fn of(queue: &'a QueueSnapshot) -> Self {
        SystemProbe {
            queue,
            background_cpu: 0.0,
            background_memory: 0.0,
            bandwidth_estimate: None,
        }
    }
}

/// Buffers one decision round fills and the next reuses, so a round
/// allocates only while they grow to the largest queue seen.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// `(id, d_i)` of the queue's active rows, in row order.
    active: Vec<(RequestId, f64)>,
    /// Solver items, index-aligned with `active`.
    items: Vec<Item>,
    split_items: Vec<SplitItem>,
    /// Memory guard: indices into `active` admitted by the solver.
    admitted: Vec<usize>,
    solve: schedule::Workspace,
}

/// The Contention Estimator.
#[derive(Debug, Clone)]
pub struct ContentionEstimator {
    solver: SolverKind,
    rates: OpRates,
    /// Kernel-usable cores on the storage node.
    kernel_cores: f64,
    /// Cores one client process can apply to a demoted request.
    client_cores: f64,
    /// Nominal network bandwidth, bytes/second.
    nominal_bw: f64,
    /// Storage-node memory available for kernel buffers, bytes.
    memory_capacity: f64,
    scratch: Scratch,
}

impl ContentionEstimator {
    pub fn new(
        solver: SolverKind,
        rates: OpRates,
        kernel_cores: f64,
        client_cores: f64,
        nominal_bw: f64,
        memory_capacity: f64,
    ) -> Self {
        assert!(kernel_cores > 0.0 && client_cores > 0.0);
        assert!(nominal_bw > 0.0 && memory_capacity > 0.0);
        ContentionEstimator {
            solver,
            rates,
            kernel_cores,
            client_cores,
            nominal_bw,
            memory_capacity,
            scratch: Scratch::default(),
        }
    }

    /// The cost model the CE plans with, given the probed load.
    pub fn cost_model(&self, probe: &SystemProbe<'_>) -> CostModel<'_> {
        Self::model(
            &self.rates,
            self.kernel_cores,
            self.client_cores,
            self.nominal_bw,
            probe,
        )
    }

    fn model<'r>(
        rates: &'r OpRates,
        kernel_cores: f64,
        client_cores: f64,
        nominal_bw: f64,
        probe: &SystemProbe<'_>,
    ) -> CostModel<'r> {
        let available = (1.0 - probe.background_cpu).clamp(0.05, 1.0);
        let bw = probe.bandwidth_estimate.unwrap_or(nominal_bw);
        CostModel::new(bw, kernel_cores * available, client_cores, rates)
    }

    /// Generate the scheduling policy for the probed queue (paper Eq. 8)
    /// into `out`, which is reset first; `out` and the estimator's own
    /// buffers are reused, so a round allocates nothing once they have
    /// grown.
    pub fn generate_policy(&mut self, now: SimTime, probe: &SystemProbe<'_>, out: &mut Policy) {
        out.reset(now);
        let model = Self::model(
            &self.rates,
            self.kernel_cores,
            self.client_cores,
            self.nominal_bw,
            probe,
        );
        let s = &mut self.scratch;
        s.active.clear();
        s.items.clear();
        for row in &probe.queue.requests {
            if let Some(op) = row.op {
                s.active.push((row.id, row.bytes));
                s.items.push(model.item(op, row.bytes));
            }
        }
        if s.items.is_empty() {
            return;
        }
        schedule::solve_into(self.solver, &s.items, &mut s.solve);
        let assignment = &mut s.solve.assignment;

        // Memory guard: active kernels pin roughly their request buffers;
        // demote the largest admitted requests until the working set fits.
        let budget = (self.memory_capacity - probe.background_memory).max(0.0);
        s.admitted.clear();
        s.admitted
            .extend((0..s.active.len()).filter(|&i| assignment.active[i]));
        let mut pinned: f64 = s.admitted.iter().map(|&i| s.active[i].1).sum();
        if pinned > budget {
            // Largest first; equal sizes keep row order.
            let active = &s.active;
            s.admitted.sort_unstable_by(|&a, &b| {
                active[b]
                    .1
                    .partial_cmp(&active[a].1)
                    .expect("finite size")
                    .then(a.cmp(&b))
            });
            for &i in &s.admitted {
                if pinned <= budget {
                    break;
                }
                assignment.active[i] = false;
                pinned -= s.active[i].1;
            }
            assignment.time = schedule::assignment_time(&s.items, &assignment.active);
        }

        out.decisions.extend(
            s.active
                .iter()
                .zip(&assignment.active)
                .map(|(&(id, _), &a)| {
                    (
                        id,
                        if a {
                            Decision::Active
                        } else {
                            Decision::Normal
                        },
                    )
                }),
        );
        out.predicted_time = assignment.time;
    }

    /// Partial-offload policy (extension): plan a storage-side fraction for
    /// every queued active request using the overlap-aware model of
    /// [`crate::schedule::fractional`], into `out` (reset first). `p = 0`
    /// becomes a plain demotion.
    pub fn generate_split_policy(
        &mut self,
        now: SimTime,
        probe: &SystemProbe<'_>,
        out: &mut Policy,
    ) {
        out.reset(now);
        let model = Self::model(
            &self.rates,
            self.kernel_cores,
            self.client_cores,
            self.nominal_bw,
            probe,
        );
        let s = &mut self.scratch;
        s.active.clear();
        s.split_items.clear();
        for row in &probe.queue.requests {
            if let Some(op) = row.op {
                let per_core = self.rates.rate(op).per_core;
                s.active.push((row.id, row.bytes));
                s.split_items.push(SplitItem {
                    bytes: row.bytes,
                    storage_rate: per_core * model.storage_cores,
                    compute_rate: per_core * model.compute_cores,
                });
            }
        }
        if s.split_items.is_empty() {
            return;
        }
        // Every request gets the plan's common fraction.
        let plan = fractional::solve(&s.split_items, model.bw);
        let p = plan.fraction;
        for &(id, _) in &s.active {
            if p <= 1e-9 {
                out.decisions.push((id, Decision::Normal));
            } else {
                out.decisions.push((id, Decision::Active));
                if p < 1.0 - 1e-9 {
                    out.fractions.push((id, p));
                }
            }
        }
        out.predicted_time = plan.predicted;
    }

    /// Static comparison of the two pure schemes for one homogeneous batch —
    /// this is the "Algorithm Decision" column of Table IV.
    pub fn static_decision(&self, op: OpId, bytes: f64, n_requests: usize) -> Decision {
        let model = CostModel::new(
            self.nominal_bw,
            self.kernel_cores,
            self.client_cores,
            &self.rates,
        );
        let sizes = vec![bytes; n_requests];
        let t_active = model.t_all_active(op, bytes * n_requests as f64, 0.0);
        let t_normal = model.t_all_normal(op, &sizes);
        if t_active <= t_normal {
            Decision::Active
        } else {
            Decision::Normal
        }
    }

    /// The rate table the estimator plans with (to intern op names).
    pub fn rates(&self) -> &OpRates {
        &self.rates
    }
}

/// What the CE should do after a probe failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeVerdict {
    /// Send another probe `after` this long (measured from the time the
    /// failure was observed — send time for losses, arrival time for stale
    /// policies).
    Retry { after: SimSpan },
    /// Retries exhausted: stop acting on policies. The runtime serves every
    /// request as requested (static all-Active, the traditional
    /// active-storage behaviour) until a probe succeeds again.
    Fallback,
}

/// Counters of the CE's probe-robustness machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CeStats {
    pub probes_sent: u64,
    pub probes_lost: u64,
    /// Retry verdicts issued (the driver may not schedule all of them;
    /// arrival-triggered probes don't spawn their own retries).
    pub retries: u64,
    /// Policies discarded because they arrived past the staleness bound.
    pub stale_discards: u64,
    pub fallback_entries: u64,
    pub recoveries: u64,
}

impl CeStats {
    /// Fold another supervisor's counters into this aggregate.
    pub fn absorb(&mut self, other: &CeStats) {
        self.probes_sent += other.probes_sent;
        self.probes_lost += other.probes_lost;
        self.retries += other.retries;
        self.stale_discards += other.stale_discards;
        self.fallback_entries += other.fallback_entries;
        self.recoveries += other.recoveries;
    }
}

/// Supervises one storage node's probe loop: bounded retry with exponential
/// backoff on probe loss, staleness checks on delayed policies, and the
/// fallback/recovery state machine. Pure (no scheduling, no I/O): callers
/// feed it probe outcomes and act on the verdicts, which keeps every
/// transition unit-testable.
#[derive(Debug, Clone)]
pub struct CeSupervisor {
    cfg: ProbeConfig,
    /// Consecutive failures in the current outage (resets on success).
    failures: u32,
    fallback: bool,
    last_success: Option<SimTime>,
    pub stats: CeStats,
}

impl CeSupervisor {
    pub fn new(cfg: ProbeConfig) -> Self {
        CeSupervisor {
            cfg,
            failures: 0,
            fallback: false,
            last_success: None,
            stats: CeStats::default(),
        }
    }

    pub fn config(&self) -> &ProbeConfig {
        &self.cfg
    }

    /// Is the CE currently fallen back to the static all-Active policy?
    pub fn in_fallback(&self) -> bool {
        self.fallback
    }

    /// Time of the last successfully applied probe, if any.
    pub fn last_success(&self) -> Option<SimTime> {
        self.last_success
    }

    /// Age of the CE's knowledge at `now`, in seconds: time since the last
    /// successfully applied probe, or `-1.0` if none succeeded yet. This is
    /// the staleness signal the observability sampler exports per server.
    pub fn probe_age_secs(&self, now: SimTime) -> f64 {
        self.last_success.map_or(-1.0, |t| (now - t).as_secs_f64())
    }

    /// A probe was sent (accounting only).
    pub fn on_probe_sent(&mut self) {
        self.stats.probes_sent += 1;
    }

    /// The probe sent at `sent` got no reply within the timeout. Returns
    /// `Retry { after }` with `after` measured from `sent` (the CE only
    /// *notices* the loss at `sent + timeout`, so the k-th retry goes out
    /// at `sent + timeout + backoff · 2^k`), or `Fallback` once the retry
    /// budget is spent.
    pub fn on_probe_lost(&mut self, _sent: SimTime) -> ProbeVerdict {
        self.stats.probes_lost += 1;
        self.register_failure(self.cfg.timeout)
    }

    /// A delayed policy arrived at `now` but was older than the staleness
    /// bound and was discarded. Counts as a failure; any retry delay is
    /// measured from `now` (the timeout has implicitly already passed).
    pub fn on_stale_policy(&mut self, _now: SimTime) -> ProbeVerdict {
        self.stats.stale_discards += 1;
        self.register_failure(SimSpan::ZERO)
    }

    /// A probe round-trip completed and its policy was fresh enough to act
    /// on: reset the failure budget and leave fallback if active.
    pub fn on_probe_success(&mut self, now: SimTime) {
        self.failures = 0;
        self.last_success = Some(now);
        if self.fallback {
            self.fallback = false;
            self.stats.recoveries += 1;
        }
    }

    /// May a policy generated at `generated_at` still be applied at `now`?
    /// Exactly at the bound is still usable (`age <= staleness_bound`).
    pub fn policy_usable(&self, generated_at: SimTime, now: SimTime) -> bool {
        now.saturating_sub(generated_at) <= self.cfg.staleness_bound
    }

    fn register_failure(&mut self, base: SimSpan) -> ProbeVerdict {
        if self.failures >= self.cfg.max_retries {
            if !self.fallback {
                self.fallback = true;
                self.stats.fallback_entries += 1;
            }
            ProbeVerdict::Fallback
        } else {
            let shift = self.failures.min(16);
            let backoff =
                SimSpan::from_nanos(self.cfg.retry_backoff.as_nanos().saturating_mul(1 << shift));
            self.failures += 1;
            self.stats.retries += 1;
            ProbeVerdict::Retry {
                after: base + backoff,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfs::{DataServer, IoKind, QueuedRequest};

    const MIB: f64 = 1024.0 * 1024.0;

    fn estimator() -> ContentionEstimator {
        ContentionEstimator::new(
            SolverKind::Threshold,
            OpRates::paper(),
            1.0,
            1.0,
            118.0 * MIB,
            16.0 * 1024.0 * MIB,
        )
    }

    /// The queue of a data server holding `reqs` (`""` = a plain read).
    fn queue_with(reqs: &[(u64, &str, f64)]) -> QueueSnapshot {
        let rates = OpRates::paper();
        let mut ds = DataServer::new(cluster::NodeId(8));
        for &(id, op, bytes) in reqs {
            ds.arrive(
                SimTime::ZERO,
                QueuedRequest {
                    id: RequestId(id),
                    kind: match rates.id(op) {
                        Some(op) => IoKind::Active { op },
                        None => IoKind::Normal,
                    },
                    bytes,
                    client: cluster::NodeId(0),
                    arrived: SimTime::ZERO,
                },
            );
        }
        ds.snapshot(SimTime::ZERO)
    }

    fn binary(ce: &mut ContentionEstimator, probe: &SystemProbe<'_>) -> Policy {
        let mut out = Policy::default();
        ce.generate_policy(SimTime::ZERO, probe, &mut out);
        out
    }

    fn split(ce: &mut ContentionEstimator, probe: &SystemProbe<'_>) -> Policy {
        let mut out = Policy::default();
        ce.generate_split_policy(SimTime::ZERO, probe, &mut out);
        out
    }

    #[test]
    fn small_gaussian_batch_stays_active() {
        let mut ce = estimator();
        let queue = queue_with(&[
            (0, "gaussian2d", 128.0 * MIB),
            (1, "gaussian2d", 128.0 * MIB),
        ]);
        let p = binary(&mut ce, &SystemProbe::of(&queue));
        assert_eq!(p.decisions.len(), 2);
        assert_eq!(p.active_count(), 2);
    }

    #[test]
    fn large_gaussian_batch_is_demoted() {
        let mut ce = estimator();
        let reqs: Vec<(u64, &str, f64)> = (0..16).map(|i| (i, "gaussian2d", 128.0 * MIB)).collect();
        let p = binary(&mut ce, &SystemProbe::of(&queue_with(&reqs)));
        assert_eq!(
            p.normal_count(),
            16,
            "16 concurrent Gaussians overload the node"
        );
    }

    #[test]
    fn sum_never_demoted() {
        let mut ce = estimator();
        let reqs: Vec<(u64, &str, f64)> = (0..64).map(|i| (i, "sum", 128.0 * MIB)).collect();
        let p = binary(&mut ce, &SystemProbe::of(&queue_with(&reqs)));
        assert_eq!(
            p.active_count(),
            64,
            "860 MB/s/core >> network: always offload"
        );
    }

    #[test]
    fn normal_requests_are_ignored() {
        let mut ce = estimator();
        let queue = queue_with(&[(0, "", 128.0 * MIB), (1, "sum", 64.0 * MIB)]);
        let p = binary(&mut ce, &SystemProbe::of(&queue));
        assert_eq!(p.decisions.len(), 1);
        assert_eq!(p.decision(RequestId(1)), Decision::Active);
        // Unknown ids default to Active.
        assert_eq!(p.decision(RequestId(99)), Decision::Active);
    }

    #[test]
    fn background_cpu_shrinks_storage_capability() {
        let mut ce = estimator();
        let queue = queue_with(&[(0, "gaussian2d", 128.0 * MIB)]);
        let probe = SystemProbe {
            background_cpu: 0.9,
            ..SystemProbe::of(&queue)
        };
        let gaussian = ce.rates().id("gaussian2d").unwrap();
        let model = ce.cost_model(&probe);
        // 80 MB/s × 0.1 = 8 MB/s effective.
        assert!((model.storage_rate(gaussian) / MIB - 8.0).abs() < 1e-6);
        // With 90% of the CPU gone even one Gaussian is better demoted:
        // 128/8 = 16 s active vs 128/118 + 128/80 ≈ 2.7 s normal.
        let p = binary(&mut ce, &probe);
        assert_eq!(p.decision(RequestId(0)), Decision::Normal);
    }

    #[test]
    fn memory_pressure_demotes_largest_requests() {
        let mut ce = ContentionEstimator::new(
            SolverKind::Threshold,
            OpRates::paper(),
            1.0,
            1.0,
            118.0 * MIB,
            300.0 * MIB, // tiny memory: fits ~2 of the 128 MB buffers
        );
        let reqs: Vec<(u64, &str, f64)> = (0..4).map(|i| (i, "sum", 128.0 * MIB)).collect();
        let p = binary(&mut ce, &SystemProbe::of(&queue_with(&reqs)));
        assert_eq!(p.active_count(), 2, "only two buffers fit in memory");
        // Equal sizes demote in row order: the first admitted go first.
        assert_eq!(p.decision(RequestId(0)), Decision::Normal);
        assert_eq!(p.decision(RequestId(3)), Decision::Active);
    }

    #[test]
    fn static_decision_matches_figure_2_crossover() {
        let ce = estimator();
        let gaussian = ce.rates().id("gaussian2d").unwrap();
        let sum = ce.rates().id("sum").unwrap();
        assert_eq!(
            ce.static_decision(gaussian, 128.0 * MIB, 2),
            Decision::Active
        );
        assert_eq!(
            ce.static_decision(gaussian, 128.0 * MIB, 16),
            Decision::Normal
        );
        assert_eq!(ce.static_decision(sum, 128.0 * MIB, 64), Decision::Active);
    }

    #[test]
    fn empty_queue_yields_empty_policy() {
        let mut ce = estimator();
        let p = binary(&mut ce, &SystemProbe::of(&queue_with(&[])));
        assert!(p.decisions.is_empty());
        assert_eq!(p.predicted_time, 0.0);
    }

    #[test]
    fn split_policy_balances_mid_contention() {
        let mut ce = estimator();
        let reqs: Vec<(u64, &str, f64)> = (0..8).map(|i| (i, "gaussian2d", 128.0 * MIB)).collect();
        let p = split(&mut ce, &SystemProbe::of(&queue_with(&reqs)));
        assert_eq!(p.decisions.len(), 8);
        assert_eq!(p.active_count(), 8, "split mode keeps requests active");
        // Every request gets a genuine interior fraction.
        for i in 0..8 {
            let f = p.fraction(RequestId(i));
            assert!(f > 0.2 && f < 0.8, "fraction {f}");
        }
        // Predicted time beats both endpoints' analytic times.
        assert!(p.predicted_time < 8.0 * 1.6);
    }

    #[test]
    fn split_policy_keeps_cheap_kernels_whole() {
        let mut ce = estimator();
        let queue = queue_with(&[(0, "sum", 128.0 * MIB)]);
        let p = split(&mut ce, &SystemProbe::of(&queue));
        assert_eq!(p.fraction(RequestId(0)), 1.0, "sum never splits");
        assert!(p.fractions.is_empty());
    }

    #[test]
    fn split_policy_bandwidth_estimate_shifts_balance() {
        let mut ce = estimator();
        let queue = queue_with(&[(0, "gaussian2d", 128.0 * MIB)]);
        let base = split(&mut ce, &SystemProbe::of(&queue));
        // The network collapsed.
        let degraded = split(
            &mut ce,
            &SystemProbe {
                bandwidth_estimate: Some(40.0 * MIB),
                ..SystemProbe::of(&queue)
            },
        );
        // With a slow network, more of the work should stay on storage.
        assert!(
            degraded.fraction(RequestId(0)) >= base.fraction(RequestId(0)),
            "slower wire must not shrink the storage share"
        );
    }

    #[test]
    fn policy_fraction_defaults_to_one() {
        let p = Policy::default();
        assert_eq!(p.fraction(RequestId(9)), 1.0);
    }

    // ----- CeSupervisor (probe robustness) -----

    fn probe_cfg() -> ProbeConfig {
        ProbeConfig {
            timeout: SimSpan::from_millis(20),
            max_retries: 2,
            retry_backoff: SimSpan::from_millis(10),
            staleness_bound: SimSpan::from_millis(300),
            min_bw_samples: 3,
        }
    }

    #[test]
    fn retries_back_off_exponentially_then_fall_back() {
        let mut sup = CeSupervisor::new(probe_cfg());
        let t = SimTime::ZERO;
        // Attempt 0 lost → retry after timeout + backoff·2^0.
        assert_eq!(
            sup.on_probe_lost(t),
            ProbeVerdict::Retry {
                after: SimSpan::from_millis(30)
            }
        );
        // Attempt 1 lost → timeout + backoff·2^1.
        assert_eq!(
            sup.on_probe_lost(t),
            ProbeVerdict::Retry {
                after: SimSpan::from_millis(40)
            }
        );
        // Retry budget (2) spent: the third loss falls back.
        assert_eq!(sup.on_probe_lost(t), ProbeVerdict::Fallback);
        assert!(sup.in_fallback());
        assert_eq!(sup.stats.probes_lost, 3);
        assert_eq!(sup.stats.retries, 2);
        assert_eq!(sup.stats.fallback_entries, 1);
        // Staying lost does not re-enter fallback (no double counting).
        assert_eq!(sup.on_probe_lost(t), ProbeVerdict::Fallback);
        assert_eq!(sup.stats.fallback_entries, 1);
    }

    #[test]
    fn zero_retry_config_falls_back_on_first_loss() {
        let mut sup = CeSupervisor::new(ProbeConfig {
            max_retries: 0,
            ..probe_cfg()
        });
        assert_eq!(sup.on_probe_lost(SimTime::ZERO), ProbeVerdict::Fallback);
        assert!(sup.in_fallback());
        assert_eq!(sup.stats.retries, 0);
    }

    #[test]
    fn policy_exactly_at_staleness_deadline_is_usable() {
        let sup = CeSupervisor::new(probe_cfg());
        let generated = SimTime::from_secs_f64(1.0);
        let bound = probe_cfg().staleness_bound;
        assert!(sup.policy_usable(generated, generated));
        assert!(
            sup.policy_usable(generated, generated + bound),
            "age == bound is usable"
        );
        assert!(
            !sup.policy_usable(generated, generated + bound + SimSpan::from_nanos(1)),
            "one nanosecond past the bound is stale"
        );
    }

    #[test]
    fn fallback_then_recovery() {
        let mut sup = CeSupervisor::new(ProbeConfig {
            max_retries: 0,
            ..probe_cfg()
        });
        sup.on_probe_sent();
        assert_eq!(sup.on_probe_lost(SimTime::ZERO), ProbeVerdict::Fallback);
        assert!(sup.in_fallback());
        // The node answers again: the CE resumes dynamic scheduling.
        let t = SimTime::from_secs_f64(2.0);
        sup.on_probe_success(t);
        assert!(!sup.in_fallback());
        assert_eq!(sup.last_success(), Some(t));
        assert_eq!(sup.stats.recoveries, 1);
        // And the failure budget is fresh: the next loss is a fallback
        // again (zero retries), counted as a second entry.
        assert_eq!(sup.on_probe_lost(t), ProbeVerdict::Fallback);
        assert_eq!(sup.stats.fallback_entries, 2);
    }

    #[test]
    fn stale_policy_counts_and_retries_without_timeout() {
        let mut sup = CeSupervisor::new(probe_cfg());
        // Staleness is noticed at arrival: retry delay omits the timeout.
        assert_eq!(
            sup.on_stale_policy(SimTime::ZERO),
            ProbeVerdict::Retry {
                after: SimSpan::from_millis(10)
            }
        );
        assert_eq!(sup.stats.stale_discards, 1);
        assert_eq!(sup.stats.probes_lost, 0);
    }
}
