//! Operation rates and scheme configuration.

use crate::cost::ResultModel;
use crate::policy::PolicyConfig;
use pfs::OpId;
use serde::{Deserialize, Serialize};
use simkit::SimSpan;

/// Bytes in a mebibyte (the paper's "MB").
const MIB: f64 = 1024.0 * 1024.0;

/// Per-core processing rate and result-size model for one operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpRate {
    /// Bytes/second one core sustains for this op (paper Table III).
    pub per_core: f64,
    /// The paper's `h(x)`: result size as a function of input size.
    pub result: ResultModel,
}

/// Rate table for all known operations, and the interning table of
/// [`OpId`]s: an op's id is its index in the table, assigned when the op is
/// first [`set`](OpRates::set) and stable afterwards.
///
/// The Contention Estimator derives `S_{C,op}` (storage capability) and
/// `C_{C,op}` (compute capability) from these per-core rates and the node
/// core counts. The driver resolves every op its workload names once, when
/// it is built ([`Driver::validate`](crate::Driver::validate) rejects a
/// name missing here); from then on rates are read by id, one index per
/// lookup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpRates {
    /// `(name, rate)` indexed by [`OpId`].
    ops: Vec<(String, OpRate)>,
}

impl OpRates {
    pub fn empty() -> Self {
        OpRates { ops: Vec::new() }
    }

    /// The paper's measured rates (Table III): SUM 860 MB/s/core, 2-D
    /// Gaussian 80 MB/s/core — plus plausible rates for the extension
    /// kernels (not in the paper; calibrate on your host with
    /// `bench/calibrate` for real numbers).
    pub fn paper() -> Self {
        let mut r = Self::empty();
        r.set("sum", 860.0 * MIB, ResultModel::fixed(16));
        r.set("gaussian2d", 80.0 * MIB, ResultModel::fixed(32));
        r.set("stats", 700.0 * MIB, ResultModel::fixed(40));
        r.set("grep", 900.0 * MIB, ResultModel::fixed(8));
        r.set("histogram", 1100.0 * MIB, ResultModel::fixed(2048));
        r.set("kmeans1d", 250.0 * MIB, ResultModel::fixed(72));
        r.set("smooth1d", 500.0 * MIB, ResultModel::fixed(32));
        r
    }

    /// Set `op`'s rate: replaces an existing entry in place (its id is
    /// kept) or interns a new op under the next id.
    pub fn set(&mut self, op: &str, per_core: f64, result: ResultModel) -> OpId {
        assert!(per_core.is_finite() && per_core > 0.0);
        let rate = OpRate { per_core, result };
        match self.id(op) {
            Some(id) => {
                self.ops[id.0 as usize].1 = rate;
                id
            }
            None => {
                self.ops.push((op.to_string(), rate));
                OpId((self.ops.len() - 1) as u32)
            }
        }
    }

    /// The interned id of `op`, `None` if no rate is configured for it.
    pub fn id(&self, op: &str) -> Option<OpId> {
        self.ops
            .iter()
            .position(|(name, _)| name == op)
            .map(|i| OpId(i as u32))
    }

    /// The rate of an interned op. Ids come from this table, so an
    /// out-of-range id is a programming error and panics.
    pub fn rate(&self, id: OpId) -> &OpRate {
        &self.ops[id.0 as usize].1
    }

    /// The name an op was interned under.
    pub fn name(&self, id: OpId) -> &str {
        &self.ops[id.0 as usize].0
    }

    pub fn get(&self, op: &str) -> Option<&OpRate> {
        self.id(op).map(|id| self.rate(id))
    }

    /// Every configured op name, sorted.
    pub fn ops(&self) -> impl Iterator<Item = &str> {
        let mut names: Vec<&str> = self.ops.iter().map(|(name, _)| name.as_str()).collect();
        names.sort_unstable();
        names.into_iter()
    }
}

/// The three evaluated schemes (paper §IV-A3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// Traditional Storage: servers only move bytes; kernels run at clients.
    Traditional,
    /// Normal Active Storage: kernels always run server-side.
    ActiveStorage,
    /// Dynamic Operation Scheduling Active Storage.
    Dosas(DosasConfig),
}

impl Scheme {
    pub fn dosas_default() -> Self {
        Scheme::Dosas(DosasConfig::default())
    }

    /// DOSAS with a non-default contention-control policy (see
    /// [`crate::policy`]); everything else stays at the defaults.
    pub fn dosas_with_policy(policy: PolicyConfig) -> Self {
        Scheme::Dosas(DosasConfig {
            policy,
            ..Default::default()
        })
    }

    /// DOSAS with fractional (partial-offload) scheduling — the
    /// future-work extension; see [`crate::schedule::fractional`].
    pub fn dosas_partial() -> Self {
        Scheme::Dosas(DosasConfig {
            partial_offload: true,
            kernel_fifo: true,
            ..Default::default()
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Traditional => "TS",
            Scheme::ActiveStorage => "AS",
            Scheme::Dosas(_) => "DOSAS",
        }
    }
}

/// Tunables of the DOSAS scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DosasConfig {
    /// Which contention-control policy drives offload/demotion and rate-cap
    /// decisions (see [`crate::policy`]). Default: the paper's Contention
    /// Estimator solving Eq. 8 with the exact O(k log k) threshold solver
    /// (the paper itself enumerates all 2^k assignments).
    pub policy: PolicyConfig,
    /// How often the CE re-probes the system and refreshes the policy.
    pub probe_period: SimSpan,
    /// Whether the runtime may interrupt kernels that are already running
    /// (paper §III-C: it may; disable for ablation).
    pub allow_interrupt: bool,
    /// Also re-evaluate the policy on every request arrival (the "on the
    /// fly" scheduling of §II), not only at probe ticks.
    pub decide_on_arrival: bool,
    /// Extension beyond the paper: split each active request fractionally
    /// between the storage node and the client (planned mid-kernel
    /// migration) instead of the binary offload/demote decision. See
    /// [`crate::schedule::fractional`].
    pub partial_offload: bool,
    /// Plan with an online bandwidth estimate (EWMA over the storage
    /// node's observed saturated-link throughput) instead of the nominal
    /// bandwidth. Extension: addresses the paper's first misjudgment cause
    /// ("the network bandwidth is not always fixed in practice").
    pub estimate_bandwidth: bool,
    /// Run kernels from a FIFO work queue (one per kernel core) instead of
    /// processor-sharing all admitted kernels. FIFO pipelines each
    /// request's result/residue transfer behind the next kernel, which is
    /// what realizes the partial-offload overlap; processor sharing is the
    /// paper's (and the default binary mode's) behaviour.
    pub kernel_fifo: bool,
    /// Probe robustness: timeout/retry/staleness handling for the CE's
    /// probe loop (fault-injection extension; no effect when probes never
    /// fail).
    #[serde(default)]
    pub probe: ProbeConfig,
}

/// Robustness knobs for the Contention Estimator's probe loop.
///
/// The paper assumes probes always succeed; under injected faults (probe
/// loss, delays) the CE needs a failure policy. A probe unanswered after
/// `timeout` is retried with exponential backoff (`retry_backoff`,
/// `max_retries`); once retries are exhausted the CE enters **fallback**:
/// it stops issuing demotions/interruptions, so every request is served as
/// requested — the static all-Active (traditional active storage) policy.
/// A policy that arrives more than `staleness_bound` after it was generated
/// is discarded rather than acted on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeConfig {
    /// A probe with no reply after this long is presumed lost.
    pub timeout: SimSpan,
    /// Retries of a lost probe before the CE gives up and falls back.
    /// `0` means a single loss triggers fallback immediately.
    pub max_retries: u32,
    /// Base retry backoff; attempt `k` waits `timeout + backoff · 2^k`
    /// after its probe was sent.
    pub retry_backoff: SimSpan,
    /// Maximum age (`now - generated_at`) at which a policy may still be
    /// applied; exactly at the bound is still usable.
    pub staleness_bound: SimSpan,
    /// Minimum per-node observation count before an online bandwidth
    /// estimate is trusted (used by the EWMA sampler's consumers and the
    /// end-of-run `estimated_bandwidth` report). Below the threshold the
    /// estimate is treated as absent.
    #[serde(default)]
    pub min_bw_samples: u32,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            timeout: SimSpan::from_millis(20),
            max_retries: 2,
            retry_backoff: SimSpan::from_millis(20),
            staleness_bound: SimSpan::from_millis(300),
            min_bw_samples: 3,
        }
    }
}

/// A per-tenant service-level objective, verified at the end of a run.
///
/// SLOs are declarative: the driver does not act on them mid-run (DOSAS's
/// contention control is tenant-blind, as in the paper); they are checked
/// against the per-tenant aggregates in `RunMetrics::tenants` and exported
/// through the obs registry so scenario tests and dashboards can assert
/// them. Unset bounds are unconstrained.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSlo {
    /// Tenant this objective applies to (an index into `Workload::tenants`).
    pub tenant: usize,
    /// Minimum acceptable achieved bandwidth, bytes/second over the run.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub min_bandwidth: Option<f64>,
    /// Maximum acceptable p95 request latency, seconds.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_p95_latency_secs: Option<f64>,
}

impl TenantSlo {
    /// An objective with no bounds (always met) — a starting point for
    /// builder-style tightening.
    pub fn for_tenant(tenant: usize) -> Self {
        TenantSlo {
            tenant,
            min_bandwidth: None,
            max_p95_latency_secs: None,
        }
    }

    /// Require at least `bytes_per_sec` achieved bandwidth.
    pub fn min_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec.is_finite() && bytes_per_sec >= 0.0);
        self.min_bandwidth = Some(bytes_per_sec);
        self
    }

    /// Require p95 request latency at or below `secs`.
    pub fn max_p95_latency_secs(mut self, secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0);
        self.max_p95_latency_secs = Some(secs);
        self
    }
}

impl Default for DosasConfig {
    fn default() -> Self {
        DosasConfig {
            policy: PolicyConfig::default(),
            probe_period: SimSpan::from_millis(100),
            allow_interrupt: true,
            decide_on_arrival: true,
            partial_offload: false,
            estimate_bandwidth: false,
            kernel_fifo: false,
            probe: ProbeConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rates_match_table_iii() {
        let r = OpRates::paper();
        assert!((r.get("sum").unwrap().per_core / MIB - 860.0).abs() < 1e-9);
        assert!((r.get("gaussian2d").unwrap().per_core / MIB - 80.0).abs() < 1e-9);
        assert_eq!(r.get("sum").unwrap().result.bytes(128.0 * MIB), 16.0);
    }

    #[test]
    fn ids_index_the_table_and_round_trip_names() {
        let r = OpRates::paper();
        for name in r.ops() {
            let id = r.id(name).expect("listed op interns");
            assert_eq!(r.name(id), name);
            assert_eq!(r.rate(id), r.get(name).unwrap());
        }
        assert_eq!(r.id("sum"), Some(OpId(0)));
        assert_eq!(r.id("gaussian2d"), Some(OpId(1)));
    }

    #[test]
    fn ops_enumerates_sorted() {
        let r = OpRates::paper();
        let ops: Vec<&str> = r.ops().collect();
        assert!(ops.contains(&"sum"));
        assert!(ops.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn unknown_op_has_no_id() {
        assert_eq!(OpRates::empty().id("sum"), None);
        assert!(OpRates::paper().get("nonsense").is_none());
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Traditional.name(), "TS");
        assert_eq!(Scheme::ActiveStorage.name(), "AS");
        assert_eq!(Scheme::dosas_default().name(), "DOSAS");
    }

    #[test]
    fn dosas_defaults() {
        use crate::schedule::SolverKind;
        let c = DosasConfig::default();
        assert!(c.allow_interrupt);
        assert!(c.decide_on_arrival);
        assert!(!c.partial_offload);
        assert_eq!(
            c.policy,
            PolicyConfig::Ce {
                solver: SolverKind::Threshold
            }
        );
    }

    #[test]
    fn partial_constructor_sets_flag() {
        match Scheme::dosas_partial() {
            Scheme::Dosas(c) => {
                assert!(c.partial_offload);
                assert!(c.kernel_fifo);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn probe_defaults_are_sane() {
        let p = ProbeConfig::default();
        assert!(p.timeout > SimSpan::ZERO);
        assert!(p.staleness_bound >= DosasConfig::default().probe_period);
        assert_eq!(p.max_retries, 2);
    }

    #[test]
    fn set_replaces_rate_and_keeps_the_id() {
        let mut r = OpRates::paper();
        let before = r.id("sum");
        assert_eq!(Some(r.set("sum", 1.0, ResultModel::fixed(1))), before);
        assert_eq!(r.get("sum").unwrap().per_core, 1.0);
        let fresh = r.set("custom", 2.0, ResultModel::fixed(1));
        assert_eq!(r.name(fresh), "custom");
        assert_eq!(r.ops().count(), 8);
    }
}
