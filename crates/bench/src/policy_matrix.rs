//! Policy arena: every contention-control policy × every scenario.
//!
//! Runs each policy in [`dosas::policy`] (the paper's CE plus the
//! competitor policies from the literature) against each scenario of the
//! multi-tenant suite ([`crate::scenarios`]) and reduces every run to an
//! EXPERIMENTS-style comparison row: makespan, aggregate and per-tenant
//! bandwidth, p95 latency, Jain fairness, SLO verdicts, demotions and
//! rate-cap activity. Consumed by `bench_baseline` (the `policies` section
//! of `BENCH_simulator.json`, schema v5), the `scenario` binary's
//! `--policy`/`--matrix` flags, and the EXPERIMENTS.md "Policy comparison"
//! table.

use crate::scenarios::{self, Scenario};
use dosas::policy::PolicyConfig;
use dosas::{Driver, DriverConfig, RunMetrics, Scheme};
use serde::Serialize;

/// Per-tenant slice of one matrix cell.
#[derive(Debug, Clone, Serialize)]
pub struct TenantCell {
    pub tenant: usize,
    pub bandwidth_mib_s: f64,
    pub p95_latency_secs: f64,
    pub slo_met: Option<bool>,
}

/// One (policy, scenario) run, reduced to comparison metrics.
#[derive(Debug, Clone, Serialize)]
pub struct MatrixCell {
    pub policy: String,
    pub scenario: String,
    pub makespan_secs: f64,
    pub bandwidth_mib_s: f64,
    /// Jain fairness over per-tenant achieved bandwidth (1.0 when the
    /// scenario is untenanted).
    pub jain_fairness: f64,
    /// Declared SLOs met / declared SLOs total.
    pub slos_met: usize,
    pub slos_total: usize,
    /// Requests served as normal I/O after a demotion decision.
    pub demotions: u64,
    /// Kernels interrupted mid-run.
    pub interrupts: u64,
    /// Rate-cap directives that changed some rank's cap.
    pub rate_caps: u64,
    pub events: u64,
    pub per_tenant: Vec<TenantCell>,
}

impl MatrixCell {
    /// Reduce one finished run to its comparison row.
    pub fn from_metrics(policy: &str, scenario: &str, m: &RunMetrics) -> Self {
        let (jain, per_tenant, slos_met, slos_total) = match &m.tenants {
            Some(t) => {
                let cells = t
                    .per_tenant
                    .iter()
                    .map(|p| TenantCell {
                        tenant: p.tenant,
                        bandwidth_mib_s: p.achieved_bandwidth / crate::MIB,
                        p95_latency_secs: p.p95_latency_secs,
                        slo_met: t.slos.iter().find(|s| s.tenant == p.tenant).map(|s| s.met),
                    })
                    .collect();
                let met = t.slos.iter().filter(|s| s.met).count();
                (t.jain_fairness, cells, met, t.slos.len())
            }
            None => (1.0, Vec::new(), 0, 0),
        };
        MatrixCell {
            policy: policy.to_string(),
            scenario: scenario.to_string(),
            makespan_secs: m.makespan_secs,
            bandwidth_mib_s: m.achieved_bandwidth / crate::MIB,
            jain_fairness: jain,
            slos_met,
            slos_total,
            demotions: m.runtime.demoted,
            interrupts: m.runtime.interrupted,
            rate_caps: m.policy.as_ref().map_or(0, |p| p.rate_caps_applied),
            events: m.events,
            per_tenant,
        }
    }
}

/// The competitors: every selectable policy at default parameters.
pub fn policies() -> Vec<PolicyConfig> {
    PolicyConfig::all_names()
        .iter()
        .map(|n| PolicyConfig::by_name(n).expect("listed policies resolve"))
        .collect()
}

/// A scenario's config re-based onto `policy` (all other DOSAS tunables
/// kept; non-DOSAS schemes are re-based onto a default DOSAS config).
pub fn with_policy(cfg: &DriverConfig, policy: PolicyConfig) -> DriverConfig {
    let mut out = cfg.clone();
    let mut dosas = match &cfg.scheme {
        Scheme::Dosas(d) => d.clone(),
        _ => dosas::DosasConfig::default(),
    };
    dosas.policy = policy;
    out.scheme = Scheme::Dosas(dosas);
    out
}

/// Run one (scenario, policy) cell.
pub fn run_cell(scenario: &Scenario, policy: &PolicyConfig) -> MatrixCell {
    let cfg = with_policy(&scenario.cfg, policy.clone());
    let m = Driver::run(cfg, &scenario.workload);
    MatrixCell::from_metrics(policy.name(), scenario.name, &m)
}

/// The full arena: every policy × every scenario, scenario-major (all
/// policies of one scenario adjacent, for side-by-side reading).
pub fn run_matrix() -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for scenario in scenarios::all() {
        for policy in policies() {
            cells.push(run_cell(&scenario, &policy));
        }
    }
    cells
}

/// Render cells as a GitHub-markdown table (the EXPERIMENTS.md "Policy
/// comparison" section and `scenario --matrix` output).
pub fn matrix_table(cells: &[MatrixCell]) -> String {
    let mut out = String::from(
        "| scenario | policy | makespan (s) | agg BW (MiB/s) | Jain | SLOs | demoted | interrupted | rate caps |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for c in cells {
        let slos = if c.slos_total == 0 {
            "—".to_string()
        } else {
            format!("{}/{}", c.slos_met, c.slos_total)
        };
        out.push_str(&format!(
            "| {} | {} | {:.3} | {:.1} | {:.4} | {} | {} | {} | {} |\n",
            c.scenario,
            c.policy,
            c.makespan_secs,
            c.bandwidth_mib_s,
            c.jain_fairness,
            slos,
            c.demotions,
            c.interrupts,
            c.rate_caps,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_policy_rebases_scheme() {
        let s = scenarios::by_name("fault-storm").unwrap();
        let cfg = with_policy(&s.cfg, PolicyConfig::by_name("pi").unwrap());
        match &cfg.scheme {
            Scheme::Dosas(d) => assert_eq!(d.policy.name(), "pi"),
            _ => panic!("re-based scheme must be DOSAS"),
        }
        // The rest of the scenario's setup is untouched.
        assert_eq!(cfg.seed, s.cfg.seed);
        assert_eq!(cfg.cluster.storage_nodes, s.cfg.cluster.storage_nodes);
    }

    #[test]
    fn cell_reduces_tenant_report() {
        let s = scenarios::by_name("two-tenant-slo").unwrap();
        let cell = run_cell(&s, &PolicyConfig::default());
        assert_eq!(cell.policy, "ce");
        assert_eq!(cell.scenario, "two-tenant-slo");
        assert!(cell.makespan_secs > 0.0);
        assert_eq!(cell.per_tenant.len(), 2);
        assert!(cell.slos_total >= 1);
        assert_eq!(cell.rate_caps, 0, "the CE never rate-caps");
    }

    #[test]
    fn table_renders_one_row_per_cell() {
        let s = scenarios::by_name("fault-storm").unwrap();
        let cells = vec![run_cell(&s, &PolicyConfig::default())];
        let table = matrix_table(&cells);
        assert_eq!(table.lines().count(), 3, "header + separator + 1 row");
        assert!(table.contains("| fault-storm | ce |"));
    }
}
