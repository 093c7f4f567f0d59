//! Seeded input generators, one per benchmark workload.
//!
//! Every input reaches the simulator through its public API
//! (`Workload`, `RankProgram`, `FaultPlan`, `OpenLoopSpec`); the seed given
//! on the command line is the only source of variation, so the same seed
//! always yields the same inputs.

use dosas_repro::cluster::{ClusterConfig, TopologySpec};
use dosas_repro::dosas::workload::{FileSpec, LayoutSpec};
use dosas_repro::dosas::{DriverConfig, OpenLoopSpec, Scheme, Workload};
use dosas_repro::kernels::KernelParams;
use dosas_repro::mpiio::program::{Op, RankProgram};
use dosas_repro::mpiio::Datatype;
use dosas_repro::obs::ObsConfig;
use dosas_repro::simkit::{FaultPlan, RngFactory, SimSpan, SimTime};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

const MIB: u64 = 1024 * 1024;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    XlClosed,
    PaperSweep,
    OpenLoopObserved,
    FatTreeChurn,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::XlClosed,
        Kind::PaperSweep,
        Kind::OpenLoopObserved,
        Kind::FatTreeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::XlClosed => "xl-closed",
            Kind::PaperSweep => "paper-sweep",
            Kind::OpenLoopObserved => "open-loop-observed",
            Kind::FatTreeChurn => "fat-tree-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One simulated run: a configuration and the workload it drives.
#[derive(Debug, Clone)]
pub struct Point {
    pub cfg: DriverConfig,
    pub workload: Workload,
}

/// Generate every point of `kind` for `seed`.
pub fn generate(kind: Kind, seed: u64) -> Vec<Point> {
    match kind {
        Kind::XlClosed => vec![xl_closed(seed)],
        Kind::PaperSweep => paper_sweep(seed),
        Kind::OpenLoopObserved => vec![open_loop_observed(seed)],
        Kind::FatTreeChurn => vec![fat_tree_churn(seed)],
    }
}

fn stream(seed: u64, name: &str) -> ChaCha8Rng {
    RngFactory::new(seed).stream(name)
}

/// Each of `0..slots` repeated `per` times, in a seeded random order.
fn shuffled_slots(rng: &mut ChaCha8Rng, slots: usize, per: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..slots * per).map(|i| i / per).collect();
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
    v
}

fn read_ex(path: &str, offset: u64, count: u64, op: &str, params: &KernelParams) -> Op {
    Op::ReadEx {
        path: path.to_string(),
        offset,
        count,
        datatype: Datatype::Byte,
        operation: op.to_string(),
        params: params.clone(),
    }
}

fn write(path: &str, offset: u64, count: u64) -> Op {
    Op::Write {
        path: path.to_string(),
        offset,
        count,
        datatype: Datatype::Byte,
    }
}

fn server_files(prefix: &str, servers: usize, bytes: u64) -> Vec<FileSpec> {
    (0..servers)
        .map(|s| FileSpec {
            path: format!("/data/{prefix}-server{s}.dat"),
            bytes,
            layout: LayoutSpec::OneServer(s),
            content: None,
        })
        .collect()
}

/// 4096 ranks on 256 compute + 256 storage nodes (star fabric, jitter on),
/// DOSAS with the CE policy. Each rank issues `XL_CALLS` back-to-back
/// 8 MiB `gaussian2d` active reads against storage node `rank % 256`, the
/// layout of the paper's uniform benchmark; the seed drives the
/// simulator's jitter streams. (The layout matters: it keeps the fabric
/// split into 32 independent link components, while a random rank→node
/// map joins every flow into one component and costs ~100× more host
/// time per event.)
pub const XL_RANKS: usize = 4096;
pub const XL_SERVERS: usize = 256;
pub const XL_CALLS: usize = 4;

fn xl_closed(seed: u64) -> Point {
    let mut cfg = DriverConfig::paper(Scheme::dosas_default());
    cfg.seed = seed;
    cfg.cluster = ClusterConfig {
        compute_nodes: XL_SERVERS,
        storage_nodes: XL_SERVERS,
        ..ClusterConfig::discfarm()
    };
    let chunk = 8 * MIB;
    let files = server_files("xl", XL_SERVERS, chunk * XL_CALLS as u64);
    let params = KernelParams::with_width(1024);
    let programs = (0..XL_RANKS)
        .map(|r| {
            let s = r % XL_SERVERS;
            (0..XL_CALLS).fold(RankProgram::new(), |p, c| {
                p.push(read_ex(
                    &files[s].path,
                    c as u64 * chunk,
                    chunk,
                    "gaussian2d",
                    &params,
                ))
            })
        })
        .collect();
    Point {
        cfg,
        workload: Workload {
            files,
            programs,
            tenants: vec![],
        },
    }
}

/// The paper's figure grid on its 1-storage-node testbed: every scheme ×
/// per-server request count × request size × kernel, replicated with
/// `SWEEP_REPLICAS` simulator seeds drawn from the benchmark seed.
pub const SWEEP_NS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
pub const SWEEP_SIZES_MB: [u64; 4] = [128, 256, 512, 1024];
pub const SWEEP_OPS: [&str; 2] = ["gaussian2d", "sum"];
pub const SWEEP_REPLICAS: usize = 6;

pub fn sweep_schemes() -> [Scheme; 4] {
    [
        Scheme::Traditional,
        Scheme::ActiveStorage,
        Scheme::dosas_default(),
        Scheme::dosas_partial(),
    ]
}

fn paper_sweep(seed: u64) -> Vec<Point> {
    let mut rng = stream(seed, "paper-sweep");
    let replica_seeds: Vec<u64> = (0..SWEEP_REPLICAS).map(|_| rng.random()).collect();
    let mut points = Vec::new();
    for scheme in sweep_schemes() {
        for n in SWEEP_NS {
            for size in SWEEP_SIZES_MB {
                for op in SWEEP_OPS {
                    let params = match op {
                        "gaussian2d" => KernelParams::with_width(4096),
                        _ => KernelParams::default(),
                    };
                    let workload = Workload::uniform_active(n, 1, size * MIB, op, params);
                    for &s in &replica_seeds {
                        let mut cfg = DriverConfig::paper(scheme.clone());
                        cfg.seed = s;
                        points.push(Point {
                            cfg,
                            workload: workload.clone(),
                        });
                    }
                }
            }
        }
    }
    points
}

/// Two tenants (`gaussian2d`, `sum`) arrive by a Poisson process below
/// service capacity over 16 storage nodes, with bounded-Pareto sizes;
/// one request in `OPEN_WRITE_EVERY` is turned into a write of the same
/// range. Obs sampling (every 10 ms of simulated time) and request
/// autopsy are on.
pub const OPEN_RATE: f64 = 120.0;
pub const OPEN_HORIZON_S: f64 = 500.0;
pub const OPEN_MAX_REQUESTS: usize = 60_000;
pub const OPEN_SERVERS: usize = 16;
pub const OPEN_WRITE_EVERY: u32 = 4;

pub fn open_loop_spec(seed: u64) -> OpenLoopSpec {
    OpenLoopSpec {
        arrival_rate: OPEN_RATE,
        horizon: SimSpan::from_secs_f64(OPEN_HORIZON_S),
        max_requests: OPEN_MAX_REQUESTS,
        size_min: MIB,
        size_max: 64 * MIB,
        alpha: 1.3,
        tenants: vec![
            ("gaussian2d".into(), KernelParams::with_width(1024), 1.0),
            ("sum".into(), KernelParams::default(), 1.0),
        ],
        storage_nodes: OPEN_SERVERS,
        seed,
    }
}

fn open_loop_observed(seed: u64) -> Point {
    let mut workload = Workload::open_loop(&open_loop_spec(seed));
    let mut rng = stream(seed, "open-loop-writes");
    for program in &mut workload.programs {
        if rng.random_range(0..OPEN_WRITE_EVERY) != 0 {
            continue;
        }
        for op in &mut program.ops {
            if let Op::ReadEx {
                path,
                offset,
                count,
                ..
            } = op
            {
                *op = write(path, *offset, *count);
            }
        }
    }
    let mut cfg = DriverConfig::paper(Scheme::dosas_default());
    cfg.seed = seed;
    cfg.cluster.storage_nodes = OPEN_SERVERS;
    cfg.obs = ObsConfig::enabled();
    cfg.autopsy = true;
    Point { cfg, workload }
}

/// A k=16 fat-tree with 512 compute + 512 storage hosts (every transfer
/// crosses the core), 2 ranks per storage node each issuing an active read
/// then a write, under a seeded fault storm over every host plus
/// leave/rejoin windows on a sixteenth of the storage nodes.
pub const FAT_K: usize = 16;
pub const FAT_SERVERS: usize = 512;
pub const FAT_RANKS_PER_SERVER: usize = 2;
pub const FAT_STORM_PER_HOST: usize = 1;
pub const FAT_STORM_HORIZON_S: f64 = 0.5;

fn fat_tree_churn(seed: u64) -> Point {
    let mut cfg = DriverConfig::paper(Scheme::dosas_default());
    cfg.seed = seed;
    cfg.cluster = ClusterConfig {
        compute_nodes: FAT_SERVERS,
        storage_nodes: FAT_SERVERS,
        topology: TopologySpec::FatTree { k: FAT_K },
        ..ClusterConfig::discfarm()
    };
    let chunk = 8 * MIB;
    let files = server_files("fat", FAT_SERVERS, 2 * chunk);
    let mut rng = stream(seed, "fat-tree-churn");
    let gaussian = KernelParams::with_width(1024);
    let sum = KernelParams::default();
    let programs = shuffled_slots(&mut rng, FAT_SERVERS, FAT_RANKS_PER_SERVER)
        .into_iter()
        .map(|s| {
            let (op, params) = if rng.random_range(0..2) == 0 {
                ("gaussian2d", &gaussian)
            } else {
                ("sum", &sum)
            };
            let path = &files[s].path;
            RankProgram::new()
                .push(read_ex(path, 0, chunk, op, params))
                .push(write(path, chunk, chunk / 2))
        })
        .collect();

    let hosts: Vec<usize> = (0..2 * FAT_SERVERS).collect();
    let horizon = SimSpan::from_secs_f64(FAT_STORM_HORIZON_S);
    let mut plan =
        FaultPlan::random_storm(&mut rng, &hosts, SimTime::ZERO, horizon, FAT_STORM_PER_HOST);
    for s in 0..FAT_SERVERS {
        if rng.random_range(0..16) == 0 {
            let start = SimTime::from_secs_f64(rng.random_range(0.0..FAT_STORM_HORIZON_S / 2.0));
            let away = SimSpan::from_secs_f64(rng.random_range(0.01..FAT_STORM_HORIZON_S / 4.0));
            plan = plan.node_leave(FAT_SERVERS + s, start, away);
        }
    }
    cfg.fault_plan = plan;
    Point {
        cfg,
        workload: Workload {
            files,
            programs,
            tenants: vec![],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(points: &[Point]) -> String {
        points
            .iter()
            .map(|p| {
                format!(
                    "{}|{:?}|{}",
                    p.cfg.seed,
                    p.cfg.fault_plan.events(),
                    serde_json::to_string(&p.workload).expect("workload serializes")
                )
            })
            .collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        for kind in Kind::ALL {
            let a = fingerprint(&generate(kind, 7));
            assert_eq!(a, fingerprint(&generate(kind, 7)), "{}", kind.name());
            assert_ne!(a, fingerprint(&generate(kind, 8)), "{}", kind.name());
        }
    }

    #[test]
    fn workload_shapes_match_their_descriptions() {
        let xl = generate(Kind::XlClosed, 1);
        assert_eq!(xl[0].workload.rank_count(), XL_RANKS);
        assert_eq!(
            xl[0].workload.total_request_bytes(),
            (XL_RANKS * XL_CALLS) as u64 * 8 * MIB
        );
        let sweep = generate(Kind::PaperSweep, 1);
        assert_eq!(sweep.len(), 4 * 7 * 4 * 2 * SWEEP_REPLICAS);
        let open = generate(Kind::OpenLoopObserved, 1);
        let writes = open[0]
            .workload
            .programs
            .iter()
            .filter(|p| p.ops.iter().any(Op::is_write))
            .count();
        let ranks = open[0].workload.rank_count();
        assert!(writes * 5 > ranks && writes * 3 < ranks, "{writes}/{ranks}");
        let fat = generate(Kind::FatTreeChurn, 1);
        assert_eq!(
            fat[0].workload.rank_count(),
            FAT_SERVERS * FAT_RANKS_PER_SERVER
        );
        assert!(fat[0].cfg.fault_plan.events().len() > 2 * FAT_SERVERS);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
