//! End-to-end driver tests: timing-model sanity against hand calculations,
//! scheme behaviour (the paper's headline shapes), interruption, striping,
//! determinism, and data-plane result equivalence.

use super::*;
use crate::config::{DosasConfig, OpRates, Scheme};
use crate::workload::{plain_reads, Workload};
use kernels::sum::SumKernel;
use kernels::{Kernel, KernelParams};
use simkit::SimSpan;

const MIB: f64 = 1024.0 * 1024.0;

/// Deterministic testbed: no jitter, no latency, no disk overhead — so
/// hand calculations hold exactly.
fn det_config(scheme: Scheme) -> DriverConfig {
    DriverConfig {
        cluster: ClusterConfig::deterministic(),
        scheme,
        rates: OpRates::paper(),
        seed: 7,
        data_plane: false,
        trace: false,
        fault_plan: FaultPlan::default(),
        slos: Vec::new(),
        obs: obs::ObsConfig::default(),
        autopsy: false,
    }
}

/// The paper's real testbed (jitter on) for qualitative comparisons.
fn paper_config(scheme: Scheme) -> DriverConfig {
    DriverConfig::paper(scheme)
}

fn gaussian_params() -> KernelParams {
    KernelParams::with_width(1024)
}

fn mb(v: u64) -> u64 {
    v * 1024 * 1024
}

#[test]
fn single_active_sum_timing_matches_hand_calculation() {
    // disk: 128/1000 s; kernel: 128/860 s; result: ~16 B (instant).
    let w = Workload::uniform_active(1, 1, mb(128), "sum", KernelParams::default());
    let m = Driver::run(det_config(Scheme::ActiveStorage), &w);
    let expect = 128.0 / 1000.0 + 128.0 / 860.0;
    assert!(
        (m.makespan_secs - expect).abs() < 0.01,
        "got {} want {}",
        m.makespan_secs,
        expect
    );
    assert_eq!(m.runtime.completed_active, 1);
    assert_eq!(m.records.len(), 1);
    assert_eq!(m.records[0].site, mpiio::status::ExecutionSite::Storage);
}

#[test]
fn single_traditional_gaussian_timing_matches_hand_calculation() {
    // disk 0.128 + transfer 128/118 + client compute 128/80.
    let w = Workload::uniform_active(1, 1, mb(128), "gaussian2d", gaussian_params());
    let m = Driver::run(det_config(Scheme::Traditional), &w);
    let expect = 128.0 / 1000.0 + 128.0 / 118.0 + 128.0 / 80.0;
    assert!(
        (m.makespan_secs - expect).abs() < 0.01,
        "got {} want {}",
        m.makespan_secs,
        expect
    );
    assert_eq!(m.records[0].site, mpiio::status::ExecutionSite::Compute);
    // No active service happened anywhere.
    assert_eq!(m.runtime.completed_active, 0);
}

#[test]
fn figure2_crossover_as_beats_ts_small_scale_loses_large() {
    let run = |scheme: Scheme, n: usize| {
        let w = Workload::uniform_active(n, 1, mb(128), "gaussian2d", gaussian_params());
        Driver::run(det_config(scheme), &w).makespan_secs
    };
    for n in [1usize, 2] {
        let as_t = run(Scheme::ActiveStorage, n);
        let ts_t = run(Scheme::Traditional, n);
        assert!(as_t < ts_t, "n={n}: AS {as_t:.2} should beat TS {ts_t:.2}");
    }
    for n in [8usize, 16, 32] {
        let as_t = run(Scheme::ActiveStorage, n);
        let ts_t = run(Scheme::Traditional, n);
        assert!(ts_t < as_t, "n={n}: TS {ts_t:.2} should beat AS {as_t:.2}");
    }
}

#[test]
fn figure6_sum_as_always_wins() {
    for n in [1usize, 8, 64] {
        let w = Workload::uniform_active(n, 1, mb(128), "sum", KernelParams::default());
        let as_t = Driver::run(det_config(Scheme::ActiveStorage), &w).makespan_secs;
        let ts_t = Driver::run(det_config(Scheme::Traditional), &w).makespan_secs;
        assert!(as_t < ts_t, "n={n}: AS {as_t:.2} vs TS {ts_t:.2}");
    }
}

#[test]
fn dosas_tracks_the_better_scheme_at_both_extremes() {
    let run = |scheme: Scheme, n: usize| {
        let w = Workload::uniform_active(n, 1, mb(128), "gaussian2d", gaussian_params());
        Driver::run(det_config(scheme), &w).makespan_secs
    };
    // Small scale: DOSAS ≈ AS (and well under TS).
    let d = run(Scheme::dosas_default(), 2);
    let a = run(Scheme::ActiveStorage, 2);
    let t = run(Scheme::Traditional, 2);
    assert!(
        (d - a).abs() / a < 0.15,
        "DOSAS {d:.2} should track AS {a:.2}"
    );
    assert!(d < t, "DOSAS {d:.2} must beat TS {t:.2} at small scale");

    // Large scale: DOSAS ≈ TS (and well under AS).
    let d = run(Scheme::dosas_default(), 32);
    let a = run(Scheme::ActiveStorage, 32);
    let t = run(Scheme::Traditional, 32);
    assert!(
        (d - t).abs() / t < 0.15,
        "DOSAS {d:.2} should track TS {t:.2}"
    );
    assert!(d < a, "DOSAS {d:.2} must beat AS {a:.2} at large scale");
}

#[test]
fn dosas_demotes_on_arrival_at_large_scale() {
    let w = Workload::uniform_active(16, 1, mb(128), "gaussian2d", gaussian_params());
    let m = Driver::run(det_config(Scheme::dosas_default()), &w);
    assert!(m.runtime.demoted > 0, "large batch must trigger demotions");
    assert!(!m.policy_log.is_empty());
    // Site classification: demoted requests completed on the compute side.
    assert!(m
        .records
        .iter()
        .any(|r| r.site == mpiio::status::ExecutionSite::Compute));
}

#[test]
fn two_wave_workload_interrupts_running_kernels() {
    // Wave 1 (2 Gaussians) is admitted and starts computing (≈1.6 s each);
    // wave 2 (2 more) lands at 0.5 s while they run — the batch of 4 tips
    // the model to all-normal, so the CE interrupts the running kernels.
    let w = Workload::two_waves(
        4,
        1,
        mb(128),
        "gaussian2d",
        gaussian_params(),
        SimSpan::from_millis(500),
    );
    let m = Driver::run(det_config(Scheme::dosas_default()), &w);
    assert!(
        m.runtime.interrupted > 0,
        "second wave must interrupt running kernels: {:?}",
        m.runtime
    );
    assert!(m
        .records
        .iter()
        .any(|r| r.site == mpiio::status::ExecutionSite::Migrated));
}

#[test]
fn interruption_disabled_ablation_never_migrates() {
    let cfg = DosasConfig {
        allow_interrupt: false,
        ..Default::default()
    };
    let w = Workload::two_waves(
        4,
        1,
        mb(128),
        "gaussian2d",
        gaussian_params(),
        SimSpan::from_millis(500),
    );
    let m = Driver::run(det_config(Scheme::Dosas(cfg)), &w);
    assert_eq!(m.runtime.interrupted, 0);
    assert!(m
        .records
        .iter()
        .all(|r| r.site != mpiio::status::ExecutionSite::Migrated));
}

#[test]
fn data_plane_schemes_produce_identical_results() {
    // Small real file; every scheme must compute the same sum.
    let bytes = 64 * 1024u64;
    let make = || {
        let mut w = Workload::uniform_active(3, 1, bytes, "sum", KernelParams::default());
        w.files[0].content = Some(kernels::calibrate::synthetic_f64_stream(bytes as usize));
        w
    };
    let run = |scheme: Scheme| {
        let mut cfg = det_config(scheme);
        cfg.data_plane = true;
        Driver::run(cfg, &make())
    };
    let ts = run(Scheme::Traditional);
    let as_ = run(Scheme::ActiveStorage);
    let ds = run(Scheme::dosas_default());
    assert_eq!(ts.results.len(), 3);
    for app in 0..3u64 {
        assert_eq!(ts.results[&app], as_.results[&app], "TS vs AS app {app}");
        assert_eq!(ts.results[&app], ds.results[&app], "TS vs DOSAS app {app}");
    }
    // And the result is the true sum.
    let (sum, count) = SumKernel::decode_result(&ts.results[&0]).unwrap();
    let data = kernels::calibrate::synthetic_f64_stream(bytes as usize);
    let expect: f64 = data
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .sum();
    assert_eq!(count, bytes / 8);
    assert!((sum - expect).abs() < 1e-9 * expect.abs().max(1.0));
}

#[test]
fn data_plane_migration_preserves_results() {
    // Force interruptions with a two-wave gaussian workload on real pixels,
    // then check the migrated kernels produced the exact digest.
    let width = 64u64;
    let rows = 256u64;
    let bytes = width * rows * 4;
    let image = kernels::calibrate::synthetic_image(width as usize, rows as usize);

    let make = |content: Vec<u8>| {
        let mut w = Workload::two_waves(
            6,
            1,
            bytes,
            "gaussian2d",
            KernelParams::with_width(width),
            SimSpan::from_micros(100),
        );
        w.files[0].content = Some(content);
        w
    };
    // Slow the kernel rate down so wave-1 kernels are still running when
    // wave 2 arrives (tiny file, real time would be instant).
    let mut rates = OpRates::paper();
    rates.set("gaussian2d", 0.5 * MIB, crate::cost::ResultModel::fixed(32));

    let mut cfg = det_config(Scheme::dosas_default());
    cfg.rates = rates;
    cfg.data_plane = true;
    let m = Driver::run(cfg, &make(image.clone()));

    // Expected digest from a reference kernel.
    let mut reference =
        kernels::GaussianFilter2D::new(width as usize, kernels::GaussianOutput::Digest).unwrap();
    reference.process_chunk(&image);
    let expect = reference.finalize();
    for (app, result) in &m.results {
        assert_eq!(result, &expect, "app {app} digest mismatch");
    }
    assert_eq!(m.results.len(), 6);
}

#[test]
fn runs_are_deterministic_per_seed() {
    let w = Workload::uniform_active(8, 1, mb(128), "gaussian2d", gaussian_params());
    let a = Driver::run(paper_config(Scheme::dosas_default()), &w);
    let b = Driver::run(paper_config(Scheme::dosas_default()), &w);
    assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
    assert_eq!(a.events, b.events);

    let mut cfg = paper_config(Scheme::dosas_default());
    cfg.seed = 1234;
    let c = Driver::run(cfg, &w);
    assert_ne!(
        a.makespan_secs.to_bits(),
        c.makespan_secs.to_bits(),
        "bandwidth jitter must respond to the seed"
    );
}

#[test]
fn plain_reads_move_bytes_without_kernels() {
    let w = plain_reads(4, 1, mb(64));
    let m = Driver::run(det_config(Scheme::Traditional), &w);
    assert_eq!(m.records.len(), 4);
    assert!(m
        .records
        .iter()
        .all(|r| r.site == mpiio::status::ExecutionSite::None));
    // 4 × 64 MB over a 118 MB/s link, plus serialized disk reads.
    let expect = 64.0 / 1000.0 + 4.0 * 64.0 / 118.0;
    assert!(
        (m.makespan_secs - expect).abs() < 0.1,
        "got {} want {expect}",
        m.makespan_secs
    );
}

#[test]
fn striped_reads_fan_out_over_servers() {
    let mut cfg = det_config(Scheme::ActiveStorage);
    cfg.cluster.storage_nodes = 4;
    let w = Workload::striped_active(2, 1 << 20, mb(64), "sum", KernelParams::default());
    let m = Driver::run(cfg, &w);
    assert_eq!(m.records.len(), 2);
    // Each request fanned out to 4 servers → 8 active completions.
    assert_eq!(m.runtime.completed_active, 8);
    // Striping divides per-server work by 4: faster than one server.
    let mut cfg1 = det_config(Scheme::ActiveStorage);
    cfg1.cluster.storage_nodes = 1;
    let w1 = Workload::uniform_active(2, 1, mb(64), "sum", KernelParams::default());
    let m1 = Driver::run(cfg1, &w1);
    assert!(m.makespan_secs < m1.makespan_secs);
}

#[test]
fn compute_and_barrier_steps_execute() {
    use mpiio::program::Op;
    let mut w = plain_reads(2, 1, mb(1));
    for p in &mut w.programs {
        p.ops.insert(
            0,
            Op::Compute {
                span: SimSpan::from_millis(50),
            },
        );
        p.ops.insert(1, Op::Barrier);
    }
    let m = Driver::run(det_config(Scheme::Traditional), &w);
    assert!(m.makespan_secs >= 0.05);
    assert_eq!(m.records.len(), 2);
}

#[test]
fn achieved_bandwidth_is_bytes_over_makespan() {
    let w = Workload::uniform_active(4, 1, mb(128), "gaussian2d", gaussian_params());
    let m = Driver::run(det_config(Scheme::Traditional), &w);
    let expect = m.total_requested_bytes / m.makespan_secs;
    assert!((m.achieved_bandwidth - expect).abs() < 1e-6);
    assert!(m.bandwidth_mb_per_s() < 118.0 + 1.0);
}

#[test]
fn queue_depth_statistics_are_recorded() {
    let w = Workload::uniform_active(16, 1, mb(128), "gaussian2d", gaussian_params());
    let m = Driver::run(det_config(Scheme::Traditional), &w);
    assert_eq!(m.peak_queue_depth, 16.0);
    assert!(m.mean_queue_depth > 0.0);
}

#[test]
fn multi_storage_nodes_split_the_load() {
    let w1 = Workload::uniform_active(8, 1, mb(128), "gaussian2d", gaussian_params());
    let m1 = Driver::run(det_config(Scheme::ActiveStorage), &w1);

    let mut cfg = det_config(Scheme::ActiveStorage);
    cfg.cluster.storage_nodes = 4;
    let w4 = Workload::uniform_active(2, 4, mb(128), "gaussian2d", gaussian_params());
    let m4 = Driver::run(cfg, &w4);
    // Same total work over 4× the kernel capacity.
    assert!(
        m4.makespan_secs < m1.makespan_secs / 2.0,
        "4 nodes {m4:.2?} vs 1 node {m1:.2?}",
    );
}

#[test]
fn explicit_file_content_must_match_size() {
    let mut w = Workload::uniform_active(1, 1, 1024, "sum", KernelParams::default());
    w.files[0].content = Some(vec![0u8; 10]); // wrong length
    let mut cfg = det_config(Scheme::ActiveStorage);
    cfg.data_plane = true;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| Driver::run(cfg, &w)));
    assert!(result.is_err());
}

#[test]
fn asc_counters_follow_the_protocol() {
    let w = Workload::uniform_active(16, 1, mb(128), "gaussian2d", gaussian_params());
    let m = Driver::run(det_config(Scheme::dosas_default()), &w);
    // Every app I/O is accounted exactly once.
    let done =
        m.runtime.completed_active + m.runtime.completed_normal + m.runtime.completed_migrated;
    assert_eq!(done, 16);
}

#[test]
fn partial_offload_beats_both_pure_schemes_at_mid_contention() {
    // 8 Gaussians: AS is CPU-bound (~13 s), TS is wire-bound (~10.5 s);
    // splitting each request uses CPU and wire concurrently.
    let w = Workload::uniform_active(8, 1, mb(128), "gaussian2d", gaussian_params());
    let ts = Driver::run(det_config(Scheme::Traditional), &w).makespan_secs;
    let as_ = Driver::run(det_config(Scheme::ActiveStorage), &w).makespan_secs;
    let split = Driver::run(det_config(Scheme::dosas_partial()), &w);
    assert!(
        split.makespan_secs < ts.min(as_) * 0.9,
        "partial {:.2} should clearly beat TS {ts:.2} and AS {as_:.2}",
        split.makespan_secs
    );
    assert!(split.runtime.split > 0, "splits must actually be planned");
    assert!(split
        .records
        .iter()
        .any(|r| r.site == mpiio::status::ExecutionSite::Migrated));
}

#[test]
fn partial_offload_degenerates_to_pure_schemes_at_extremes() {
    // n=1 SUM: all-storage is optimal; the planner must not split.
    let w = Workload::uniform_active(1, 1, mb(128), "sum", KernelParams::default());
    let m = Driver::run(det_config(Scheme::dosas_partial()), &w);
    assert_eq!(m.runtime.split, 0);
    assert_eq!(m.runtime.completed_active, 1);
}

#[test]
fn partial_offload_data_plane_results_are_exact() {
    let bytes = 512 * 1024u64;
    let content = kernels::calibrate::synthetic_f64_stream(bytes as usize);
    let mut w = Workload::uniform_active(6, 1, bytes, "stats", KernelParams::default());
    w.files[0].content = Some(content.clone());

    // Slow the kernel so splits land mid-stream with a tiny file.
    let mut cfg = det_config(Scheme::dosas_partial());
    let mut rates = OpRates::paper();
    rates.set("stats", 4.0 * MIB, crate::cost::ResultModel::fixed(40));
    cfg.rates = rates;
    cfg.data_plane = true;
    let m = Driver::run(cfg, &w);

    let mut reference = kernels::StatsKernel::new();
    reference.process_chunk(&content);
    let expect = reference.finalize();
    assert!(
        m.runtime.split > 0,
        "expected planned splits: {:?}",
        m.runtime
    );
    for (app, result) in &m.results {
        assert_eq!(result, &expect, "app {app}");
    }
    assert_eq!(m.results.len(), 6);
}

#[test]
fn bandwidth_estimator_converges_to_the_sampled_link() {
    // 16 demoted Gaussians saturate the storage node's tx link, so the
    // CE's EWMA must land inside the configured jitter range.
    let cfg = DosasConfig {
        estimate_bandwidth: true,
        ..Default::default()
    };
    let w = Workload::uniform_active(16, 1, mb(128), "gaussian2d", gaussian_params());
    let m = Driver::run(paper_config(Scheme::Dosas(cfg)), &w);
    let server = m
        .estimated_bandwidth
        .values()
        .next()
        .copied()
        .expect("estimator produced a value");
    let (lo, hi) = (111.0 * MIB, 120.0 * MIB);
    assert!(
        server >= lo * 0.97 && server <= hi * 1.01,
        "estimate {:.1} MB/s outside the plausible range",
        server / MIB
    );
}

#[test]
fn bandwidth_estimation_off_reports_nothing() {
    let w = Workload::uniform_active(16, 1, mb(128), "gaussian2d", gaussian_params());
    let m = Driver::run(paper_config(Scheme::dosas_default()), &w);
    assert!(m.estimated_bandwidth.is_empty());
}

#[test]
fn write_path_moves_data_to_disk_and_acks() {
    use mpiio::program::{Op, RankProgram};
    use mpiio::Datatype;
    let mut w = plain_reads(1, 1, mb(64));
    w.programs[0] = RankProgram::new().push(Op::Write {
        path: "/data/server0.dat".into(),
        offset: 0,
        count: mb(64),
        datatype: Datatype::Byte,
    });
    let m = Driver::run(det_config(Scheme::Traditional), &w);
    // Transfer 64 MB at 118 MB/s, then a 64 MB disk write at 1000 MB/s.
    let expect = 64.0 / 118.0 + 64.0 / 1000.0;
    assert!(
        (m.makespan_secs - expect).abs() < 0.01,
        "got {} want {expect}",
        m.makespan_secs
    );
    assert_eq!(m.records.len(), 1);
}

#[test]
fn write_then_active_read_sees_written_content() {
    use mpiio::program::{Op, RankProgram};
    use mpiio::Datatype;
    let bytes = 256 * 1024u64;
    // Rank 0 writes the file; both ranks barrier; rank 1 sums it.
    let w0 = RankProgram::new()
        .push(Op::Write {
            path: "/data/server0.dat".into(),
            offset: 0,
            count: bytes,
            datatype: Datatype::Byte,
        })
        .push(Op::Barrier);
    let w1 = RankProgram::new().push(Op::Barrier).push(Op::ReadEx {
        path: "/data/server0.dat".into(),
        offset: 0,
        count: bytes,
        datatype: Datatype::Byte,
        operation: "sum".into(),
        params: KernelParams::default(),
    });
    let mut w = Workload::uniform_active(1, 1, bytes, "sum", KernelParams::default());
    w.programs = vec![w0, w1];
    // Start the store empty of meaningful content: all zeros.
    w.files[0].content = Some(vec![0u8; bytes as usize]);

    let mut cfg = det_config(Scheme::ActiveStorage);
    cfg.data_plane = true;
    let m = Driver::run(cfg, &w);

    // The reader's sum must reflect the writer's deterministic stream,
    // not the initial zeros.
    let expect_data = kernels::calibrate::synthetic_f64_stream(bytes as usize);
    let expect: f64 = expect_data
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .sum();
    let read_result = m
        .results
        .values()
        .find(|r| r.len() == 16)
        .expect("sum result present");
    let (sum, count) = SumKernel::decode_result(read_result).unwrap();
    assert_eq!(count, bytes / 8);
    assert!((sum - expect).abs() < 1e-9 * expect.abs().max(1.0));
}

#[test]
fn bcast_and_reduce_execute_over_the_fabric() {
    use mpiio::program::{Op, RankProgram};
    // 4 ranks on 4 distinct nodes broadcast 118 MB then reduce it back:
    // log2(4) = 2 rounds each way; round 1 of bcast is a single full-link
    // transfer, round 2 runs two transfers in parallel.
    let mut w = plain_reads(4, 1, mb(1));
    for p in &mut w.programs {
        *p = RankProgram::new()
            .push(Op::Bcast {
                root: 0,
                bytes: mb(118),
            })
            .push(Op::Reduce {
                root: 0,
                bytes: mb(118),
            });
    }
    let mut cfg = det_config(Scheme::Traditional);
    cfg.cluster.compute_nodes = 4;
    cfg.cluster.cores_per_compute = 1;
    let m = Driver::run(cfg, &w);
    // Each collective: 2 rounds × ~1 s per 118 MB full-link transfer.
    assert!(
        (m.makespan_secs - 4.0).abs() < 0.1,
        "expected ~4 s of tree transfers, got {}",
        m.makespan_secs
    );
    assert_eq!(m.records.len(), 0, "collectives issue no file I/O");
}

#[test]
fn collective_on_shared_nodes_is_cheaper() {
    use mpiio::program::{Op, RankProgram};
    // All 4 ranks on one node: every tree message is intra-node (free).
    let mut w = plain_reads(4, 1, mb(1));
    for p in &mut w.programs {
        *p = RankProgram::new().push(Op::Bcast {
            root: 0,
            bytes: mb(118),
        });
    }
    let mut cfg = det_config(Scheme::Traditional);
    cfg.cluster.compute_nodes = 1;
    cfg.cluster.cores_per_compute = 4;
    let m = Driver::run(cfg, &w);
    assert!(m.makespan_secs < 0.01, "intra-node bcast must be ~free");
}

#[test]
fn server_cache_skips_repeat_disk_reads() {
    // 8 readers of the same 128 MB file on a slow (100 MB/s) disk: without
    // a cache the disk serializes 8 full reads; with a big cache only the
    // first read touches the platter.
    let run = |cache_bytes: f64| {
        let mut cfg = det_config(Scheme::Traditional);
        cfg.cluster.disk_bandwidth = 100.0 * MIB;
        cfg.cluster.server_cache_bytes = cache_bytes;
        let w = Workload::uniform_active(8, 1, mb(128), "gaussian2d", gaussian_params());
        Driver::run(cfg, &w).makespan_secs
    };
    let cold = run(0.0);
    let warm = run(1024.0 * MIB);
    assert!(
        warm < cold - 1.0,
        "cache should save most of the serialized disk time: cold {cold:.2} warm {warm:.2}"
    );
}

#[test]
fn write_invalidates_cached_blocks() {
    use mpiio::program::{Op, RankProgram};
    use mpiio::Datatype;
    // read (populates cache) → write (invalidates) → read (must miss).
    let prog = RankProgram::new()
        .push(Op::Read {
            path: "/data/server0.dat".into(),
            offset: 0,
            count: mb(64),
            datatype: Datatype::Byte,
            client_op: None,
        })
        .push(Op::Write {
            path: "/data/server0.dat".into(),
            offset: 0,
            count: mb(64),
            datatype: Datatype::Byte,
        })
        .push(Op::Read {
            path: "/data/server0.dat".into(),
            offset: 0,
            count: mb(64),
            datatype: Datatype::Byte,
            client_op: None,
        });
    let mut w = plain_reads(1, 1, mb(64));
    w.programs = vec![prog];
    let mut cfg = det_config(Scheme::Traditional);
    cfg.cluster.disk_bandwidth = 100.0 * MIB;
    cfg.cluster.server_cache_bytes = 1024.0 * MIB;
    let m = Driver::run(cfg, &w);
    // Two cold reads (0.64 s disk each) + write (transfer + disk) + two
    // transfers: both reads hit the disk because the write invalidated.
    let expect = 2.0 * (64.0 / 100.0) // both reads from disk
        + 2.0 * (64.0 / 118.0)        // two read transfers
        + 64.0 / 118.0 + 64.0 / 100.0; // write transfer + disk write
    assert!(
        (m.makespan_secs - expect).abs() < 0.05,
        "got {} want {expect}",
        m.makespan_secs
    );
}

#[test]
fn memory_guard_limits_admitted_kernels() {
    // Storage memory fits only two 128 MB buffers: even SUM (which always
    // profits from offloading) must see demotions beyond that.
    let mut cfg = det_config(Scheme::dosas_default());
    cfg.cluster.storage_memory = 300.0 * MIB;
    let w = Workload::uniform_active(8, 1, mb(128), "sum", KernelParams::default());
    let m = Driver::run(cfg, &w);
    assert!(
        m.runtime.demoted >= 6,
        "memory pressure must demote most of the batch: {:?}",
        m.runtime
    );
    let done =
        m.runtime.completed_active + m.runtime.completed_normal + m.runtime.completed_migrated;
    assert_eq!(done, 8);
}

#[test]
fn trace_records_every_stage() {
    let mut cfg = det_config(Scheme::dosas_default());
    cfg.trace = true;
    let w = Workload::uniform_active(4, 1, mb(128), "gaussian2d", gaussian_params());
    let m = Driver::run(cfg, &w);
    let trace = m.trace.as_ref().expect("tracing enabled");
    assert!(!trace.is_empty());
    let cats: std::collections::BTreeSet<&str> = trace.iter().map(|e| e.cat).collect();
    assert!(cats.contains("disk"), "{cats:?}");
    assert!(cats.contains("net"), "{cats:?}");
    // 4 Gaussians at n=4 are demoted -> client compute spans exist.
    assert!(cats.contains("cpu"), "{cats:?}");
    // Spans are well-formed and inside the run.
    for e in trace {
        assert!(e.dur_us >= 0.0);
        assert!(e.end_secs() <= m.makespan_secs + 1e-6);
    }
    // Chrome export round-trips.
    let json = super::trace::to_chrome_json(trace);
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed.as_array().unwrap().len(), trace.len());
}

#[test]
fn trace_disabled_is_absent_and_free() {
    let w = Workload::uniform_active(2, 1, mb(128), "sum", KernelParams::default());
    let m = Driver::run(det_config(Scheme::ActiveStorage), &w);
    assert!(m.trace.is_none());
}

#[test]
fn allreduce_and_gather_execute() {
    use mpiio::program::{Op, RankProgram};
    let mut w = plain_reads(4, 1, mb(1));
    for p in &mut w.programs {
        *p = RankProgram::new()
            .push(Op::Allreduce { bytes: mb(118) })
            .push(Op::Gather {
                root: 0,
                bytes: mb(10),
            });
    }
    let mut cfg = det_config(Scheme::Traditional);
    cfg.cluster.compute_nodes = 4;
    cfg.cluster.cores_per_compute = 1;
    let m = Driver::run(cfg, &w);
    // Allreduce = reduce (2 rounds) + bcast (2 rounds) of ~1 s full-link
    // transfers; gather = 3 × 10 MB into one rx link ≈ 0.25 s.
    let expect = 4.0 * (118.0 / 118.0) + 3.0 * 10.0 / 118.0;
    assert!(
        (m.makespan_secs - expect).abs() < 0.15,
        "got {} want ~{expect}",
        m.makespan_secs
    );
}

#[test]
fn striped_active_reads_under_dosas() {
    // Striped file over 4 servers, 8 readers under DOSAS: each server's CE
    // decides over its own quarter-size parts; everything completes and
    // accounting balances across servers.
    let mut cfg = det_config(Scheme::dosas_default());
    cfg.cluster.storage_nodes = 4;
    let w = Workload::striped_active(8, 1 << 20, mb(256), "gaussian2d", gaussian_params());
    let m = Driver::run(cfg, &w);
    assert_eq!(m.records.len(), 8);
    let done =
        m.runtime.completed_active + m.runtime.completed_normal + m.runtime.completed_migrated;
    assert_eq!(done, 8 * 4, "8 requests × 4 per-server parts");
    // Parts are 64 MB on each server; 8 concurrent Gaussians per server is
    // past the crossover, so demotions must happen.
    assert!(m.runtime.demoted > 0);
}

#[test]
fn switch_capacity_caps_aggregate_throughput() {
    // 4 storage nodes × 2 TS readers of 128 MB: per-link limits allow
    // 4 × 118 MB/s, but a 200 MB/s switch core caps the fabric.
    let run = |switch: Option<f64>| {
        let mut cfg = det_config(Scheme::Traditional);
        cfg.cluster.storage_nodes = 4;
        cfg.cluster.switch_bandwidth = switch;
        let w = Workload::uniform_active(2, 4, mb(128), "gaussian2d", gaussian_params());
        Driver::run(cfg, &w).makespan_secs
    };
    let open = run(None);
    let capped = run(Some(200.0 * MIB));
    // 8 × 128 MB through a 200 MB/s core is at least 5.1 s of transfer.
    assert!(
        capped > open,
        "switch cap must slow the run: {capped} vs {open}"
    );
    assert!(capped >= 8.0 * 128.0 / 200.0 - 0.1);
}

#[test]
fn probe_only_dosas_still_converges() {
    // decide_on_arrival off and a coarse probe: the periodic CE alone must
    // still drain a large batch correctly.
    let dosas = DosasConfig {
        decide_on_arrival: false,
        probe_period: SimSpan::from_millis(250),
        ..Default::default()
    };
    let w = Workload::uniform_active(16, 1, mb(128), "gaussian2d", gaussian_params());
    let m = Driver::run(det_config(Scheme::Dosas(dosas)), &w);
    let done =
        m.runtime.completed_active + m.runtime.completed_normal + m.runtime.completed_migrated;
    assert_eq!(done, 16);
    // Coarse probing wastes a little time vs arrival-time decisions but
    // must stay in the same regime as TS.
    let ts = Driver::run(det_config(Scheme::Traditional), &w).makespan_secs;
    assert!(
        m.makespan_secs < ts * 1.25,
        "{} vs TS {ts}",
        m.makespan_secs
    );
}

#[test]
fn oversized_fat_tree_is_a_config_error_not_a_panic() {
    // `dosas-sim --topology fat-tree:16 --storage-nodes 512 --n 16`: 8192
    // ranks expand to 1024 compute nodes, and with 512 storage nodes that
    // is more hosts than a k = 16 fat-tree (1024) can wire.
    let mut cfg = paper_config(Scheme::dosas_default());
    cfg.cluster.topology = cluster::TopologySpec::FatTree { k: 16 };
    cfg.cluster.storage_nodes = 512;
    let w = Workload::uniform_active(16, 512, mb(128), "gaussian2d", gaussian_params());
    let err = Driver::validate(&cfg, &w).expect_err("too many hosts for the fat-tree");
    assert!(err.to_string().starts_with("invalid cluster config: "));

    // The same fabric with room to spare validates, with the compute pool
    // expanded to one core per rank.
    // 128 ranks on 8-core compute nodes need 16 of them (8 configured).
    cfg.cluster.storage_nodes = 8;
    let w = Workload::uniform_active(16, 8, mb(128), "gaussian2d", gaussian_params());
    assert_eq!(
        (cfg.cluster.compute_nodes, cfg.cluster.cores_per_compute),
        (8, 8)
    );
    let cluster = Driver::validate(&cfg, &w).expect("fits the fat-tree");
    assert_eq!(cluster.compute_nodes, 16);
}

/// Fault transitions evaluate only the nodes whose windows open or close
/// at `now`. Under random storms with overlapping windows plus leave /
/// rejoin windows, after every `Ev::Fault` each node's CPU capacity
/// factor, link factor and membership must still equal a re-derivation
/// from the whole plan (factors up to the `f64::EPSILON` change threshold
/// `apply_faults` uses).
#[test]
fn fault_state_matches_the_whole_plan_after_every_transition() {
    use proptest::prelude::*;
    proptest!(|(seed in 0u64..1_000_000,
                per_node in 1usize..5,
                leaves in proptest::collection::vec((0usize..64, 0.0f64..1.5, 0.05f64..1.0), 0..4))| {
        let mut cfg = det_config(Scheme::dosas_default());
        cfg.cluster.storage_nodes = 4;
        let w = Workload::uniform_active(4, 4, mb(32), "gaussian2d", gaussian_params());
        let total = Driver::validate(&cfg, &w).expect("valid").total_nodes();
        let nodes: Vec<usize> = (0..total).collect();
        let mut rng = simkit::RngFactory::new(seed).stream("storm");
        let mut plan = FaultPlan::random_storm(&mut rng, &nodes, SimTime::ZERO,
            SimSpan::from_secs_f64(1.5), per_node);
        for (node, start, len) in leaves {
            plan = plan.node_leave(node % total, SimTime::from_secs_f64(start),
                SimSpan::from_secs_f64(len));
        }
        cfg.fault_plan = plan.clone();

        let driver = Driver::new(cfg, &w);
        let seeds = driver.seed_plan();
        let mut sim = Simulation::new(driver);
        seeds.apply(sim.scheduler());
        for t in plan.transition_times() {
            sim.run_until(t);
            let cluster = &sim.world.cluster;
            for n in 0..total {
                let cpu = cluster.cpus[n].capacity_factor();
                prop_assert!((cpu - plan.node(n).cpu_factor(t)).abs() <= f64::EPSILON,
                    "node {} cpu factor {} at {:?}", n, cpu, t);
                let net = cluster.fabric.link_factor(NodeId(n));
                prop_assert!((net - plan.node(n).net_factor(t)).abs() <= f64::EPSILON,
                    "node {} link factor {} at {:?}", n, net, t);
                prop_assert_eq!(cluster.fabric.node_online(NodeId(n)), !plan.node(n).offline(t),
                    "node {} membership at {:?}", n, t);
            }
        }
        sim.run();
    });
}

/// Conservation at the end of a run: every world a golden snapshot pins —
/// the scheme × seed goldens, each scenario-suite world and the pinned
/// policy cells — runs to completion and leaves nothing in flight: no
/// fabric flow, no projected flow completion, no task on any CPU's
/// processor-sharing resource and no queued disk request.
#[test]
fn every_golden_world_ends_drained() {
    let drained = |name: &str, cfg: DriverConfig, w: &Workload| {
        let driver = Driver::new(cfg, w);
        let seeds = driver.seed_plan();
        let mut sim = Simulation::new(driver);
        seeds.apply(sim.scheduler());
        sim.run();
        let cluster = &mut sim.world.cluster;
        assert_eq!(cluster.fabric.active_flows(), 0, "{name}: flows in flight");
        assert_eq!(
            cluster.fabric.next_completion(),
            None,
            "{name}: a flow completion is still projected"
        );
        for (n, cpu) in cluster.cpus.iter_mut().enumerate() {
            assert_eq!(cpu.load(), 0, "{name}: node {n} has CPU tasks left");
            assert_eq!(cpu.next_completion(), None, "{name}: node {n} CPU");
        }
        for (s, disk) in cluster.disks.iter().enumerate() {
            assert!(
                !disk.busy() && disk.queue_len() == 0,
                "{name}: storage ordinal {s} has disk requests left"
            );
        }
    };

    // tests/golden_metrics.rs: four schemes × three seeds on the paper's
    // testbed.
    let w = Workload::uniform_active(6, 1, mb(64), "gaussian2d", gaussian_params());
    let schemes = [
        ("ts", Scheme::Traditional),
        ("as", Scheme::ActiveStorage),
        ("dosas", Scheme::dosas_default()),
        ("dosas-partial", Scheme::dosas_partial()),
    ];
    for (key, scheme) in schemes {
        for seed in 1..=3 {
            let name = format!("{key}-seed{seed}");
            let cfg = DriverConfig {
                cluster: ClusterConfig::discfarm(),
                seed,
                ..det_config(scheme.clone())
            };
            drained(&name, cfg, &w);
        }
    }
    // tests/tenant_scenarios.rs: the scenario suite.
    for s in crate::scenarios::all() {
        drained(s.name, s.cfg.clone(), &s.workload);
    }
    // tests/policy_arena.rs: the pinned (policy, scenario) cells.
    for (policy, scenario) in [
        ("restripe", "straggler"),
        ("token-bucket", "two-tenant-slo"),
        ("pi", "fault-storm"),
    ] {
        let s = crate::scenarios::by_name(scenario).expect("pinned scenario exists");
        let mut cfg = s.cfg.clone();
        let Scheme::Dosas(dosas) = &mut cfg.scheme else {
            panic!("{scenario}: scenarios run DOSAS");
        };
        dosas.policy = crate::policy::PolicyConfig::by_name(policy).expect("pinned policy exists");
        drained(&format!("{policy} x {scenario}"), cfg, &s.workload);
    }
}
