//! Table III on this host: measure every built-in kernel's per-core rate
//! with the real implementations, plus the chunked map/merge runner rate
//! (`par` column) for the mergeable kernels. The vendored rayon stand-in
//! runs that runner sequentially, so `par` is a one-core rate too.
//!
//! ```text
//! cargo run -p bench --release --bin calibrate
//! ```

use kernels::calibrate::{measure_rate, synthetic_f64_stream, synthetic_image};
use kernels::parallel::par_process;
use kernels::{
    GaussianFilter2D, GaussianOutput, GrepKernel, HistogramKernel, KMeansKernel, Kernel,
    SmoothKernel, StatsKernel, SumKernel,
};
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

fn line(op: &str, paper: Option<f64>, rate: f64, par: Option<f64>) {
    let paper = paper.map_or("     -".to_string(), |p| format!("{p:>6.0}"));
    let par = par.map_or("      -".to_string(), |p| format!("{p:>7.0}"));
    println!("{op:<20} {paper}  {rate:>10.0}  {par}");
}

fn main() {
    let budget: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    println!("Kernel calibration (paper Table III), {budget:.1} s per kernel\n");
    println!(
        "{:<20} {:>6}  {:>10}  {:>7}",
        "kernel", "paper", "host MB/s", "par"
    );
    println!("{}", "-".repeat(50));

    let stream = synthetic_f64_stream(8 << 20);
    let image = synthetic_image(2048, 1024);
    let chunk = 256 << 10;

    let mut sum = SumKernel::new();
    let r = measure_rate(&mut sum, &stream, chunk, budget);
    let par = par_rate(SumKernel::new, &stream, budget);
    line("SUM", Some(860.0), r.rate_mb_per_s, Some(par));

    let mut gauss = GaussianFilter2D::new(2048, GaussianOutput::Digest).unwrap();
    let r = measure_rate(&mut gauss, &image, chunk, budget);
    line("2D Gaussian Filter", Some(80.0), r.rate_mb_per_s, None);

    let mut stats = StatsKernel::new();
    let r = measure_rate(&mut stats, &stream, chunk, budget);
    let par = par_rate(StatsKernel::new, &stream, budget);
    line("stats", None, r.rate_mb_per_s, Some(par));

    let mut grep = GrepKernel::new(b"needle").unwrap();
    let r = measure_rate(&mut grep, &stream, chunk, budget);
    line("grep", None, r.rate_mb_per_s, None);

    let mut hist = HistogramKernel::new();
    let r = measure_rate(&mut hist, &stream, chunk, budget);
    let par = par_rate(HistogramKernel::new, &stream, budget);
    line("histogram", None, r.rate_mb_per_s, Some(par));

    let mut smooth = SmoothKernel::new(16).unwrap();
    let r = measure_rate(&mut smooth, &stream, chunk, budget);
    line("smooth1d (w=16)", None, r.rate_mb_per_s, None);

    let mut km = KMeansKernel::new(vec![0.25, 0.5, 0.75]).unwrap();
    let r = measure_rate(&mut km, &stream, chunk, budget);
    let par = par_rate(
        || KMeansKernel::new(vec![0.25, 0.5, 0.75]).unwrap(),
        &stream,
        budget,
    );
    line("kmeans1d (k=3)", None, r.rate_mb_per_s, Some(par));

    println!(
        "\nnote: 'paper' rates were measured on 2012-era Dell R415 cores; \
         shapes (SUM >> Gaussian) transfer, absolute numbers do not."
    );
}

/// Rate of the chunked map/merge runner (mergeable kernels only). With the
/// vendored, sequential rayon stand-in this is a one-core rate.
fn par_rate<K, F>(make: F, data: &[u8], budget: f64) -> f64
where
    K: Kernel + kernels::parallel::Merge + Send,
    F: Fn() -> K + Sync + Send + Copy,
{
    let start = Instant::now();
    let mut bytes = 0u64;
    loop {
        let k = par_process(make, data, 1 << 20);
        std::hint::black_box(k.finalize());
        bytes += data.len() as u64;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= budget {
            return bytes as f64 / elapsed / MIB;
        }
    }
}
