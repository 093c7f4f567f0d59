//! Chunked map/merge execution of mergeable kernels.
//!
//! Reduction kernels (sum, stats, histogram, kmeans) are associative: the
//! input can be split at item boundaries, processed independently and the
//! partial states merged. The runners here are written against rayon's
//! `par_chunks` API, but the workspace builds against a vendored stand-in
//! (`vendor/rayon`) that runs every chunk *sequentially* on the calling
//! thread: results are exactly those of a parallel split, while the work
//! uses one core.
//!
//! The Gaussian filter is *not* chunk-mergeable (each output row needs halo
//! rows), and grep needs boundary stitching — see [`crate::grep`]'s
//! dedicated [`par_count`](crate::grep::GrepKernel) helper below.

use crate::grep::count_occurrences;
use crate::kernel::Kernel;
use rayon::prelude::*;

/// Kernels whose partial states combine associatively.
pub trait Merge: Sized {
    /// Fold `other`'s accumulated state into `self`.
    ///
    /// Both kernels must have consumed item-aligned inputs (no pending
    /// partial item), which `par_process` guarantees.
    fn merge(&mut self, other: Self);
}

/// Process `data` in chunks with one kernel instance per chunk and merge
/// the partials. `chunk_bytes` must be a multiple of the kernel's item
/// size so no task ends mid-item.
pub fn par_process<K, F>(make: F, data: &[u8], chunk_bytes: usize) -> K
where
    K: Kernel + Merge + Send,
    F: Fn() -> K + Sync + Send,
{
    let proto = make();
    let item = proto.complexity().item_bytes as usize;
    assert!(
        chunk_bytes > 0 && chunk_bytes.is_multiple_of(item),
        "chunk_bytes {chunk_bytes} must be a positive multiple of the item size {item}"
    );
    assert!(
        data.len().is_multiple_of(item),
        "input length {} is not item-aligned (item size {item})",
        data.len()
    );

    data.par_chunks(chunk_bytes)
        .map(|chunk| {
            let mut k = make();
            k.process_chunk(chunk);
            k
        })
        .reduce_with(|mut a, b| {
            a.merge(b);
            a
        })
        .unwrap_or(proto)
}

/// Count overlapping pattern occurrences chunk by chunk: per-chunk counts
/// plus a stitch pass over each chunk boundary.
pub fn par_grep_count(data: &[u8], pattern: &[u8], chunk_bytes: usize) -> u64 {
    assert!(!pattern.is_empty());
    assert!(
        chunk_bytes >= pattern.len(),
        "chunks must hold at least one pattern"
    );
    let m = pattern.len();
    let local: u64 = data
        .par_chunks(chunk_bytes)
        .map(|c| count_occurrences(c, pattern))
        .sum();
    // Matches that span a boundary start within m-1 bytes before it.
    let mut spanning = 0u64;
    let mut b = chunk_bytes;
    while b < data.len() {
        let lo = b.saturating_sub(m - 1);
        let hi = (b + m - 1).min(data.len());
        let window = &data[lo..hi];
        if window.len() >= m {
            for i in 0..=window.len() - m {
                let (start, end) = (lo + i, lo + i + m);
                if start < b && end > b && &data[start..end] == pattern {
                    spanning += 1;
                }
            }
        }
        b += chunk_bytes;
    }
    local + spanning
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::HistogramKernel;
    use crate::kmeans::KMeansKernel;
    use crate::stats::StatsKernel;
    use crate::sum::SumKernel;

    fn encode(vals: &[f64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn parallel_sum_equals_sequential() {
        let vals: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let data = encode(&vals);
        let par = par_process(SumKernel::new, &data, 1024);
        let mut seq = SumKernel::new();
        seq.process_chunk(&data);
        let (ps, pc) = SumKernel::decode_result(&par.finalize()).unwrap();
        let (ss, sc) = SumKernel::decode_result(&seq.finalize()).unwrap();
        assert_eq!(pc, sc);
        assert!((ps - ss).abs() < 1e-6 * ss.abs().max(1.0));
    }

    #[test]
    fn parallel_stats_equals_sequential() {
        let vals: Vec<f64> = (0..5_000).map(|i| ((i * 37) % 101) as f64).collect();
        let data = encode(&vals);
        let par = par_process(StatsKernel::new, &data, 800);
        let mut seq = StatsKernel::new();
        seq.process_chunk(&data);
        let p = StatsKernel::decode_result(&par.finalize()).unwrap();
        let s = StatsKernel::decode_result(&seq.finalize()).unwrap();
        assert_eq!(p.0, s.0); // min
        assert_eq!(p.1, s.1); // max
        assert!((p.2 - s.2).abs() < 1e-9);
        assert!((p.3 - s.3).abs() < 1e-6 * s.3.max(1.0));
        assert_eq!(p.4, s.4); // count
    }

    #[test]
    fn parallel_histogram_equals_sequential() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let par = par_process(HistogramKernel::new, &data, 4096);
        let mut seq = HistogramKernel::new();
        seq.process_chunk(&data);
        assert_eq!(par.finalize(), seq.finalize());
    }

    #[test]
    fn parallel_kmeans_equals_sequential() {
        let vals: Vec<f64> = (0..4_000).map(|i| (i % 100) as f64).collect();
        let data = encode(&vals);
        let make = || KMeansKernel::new(vec![10.0, 50.0, 90.0]).unwrap();
        let par = par_process(make, &data, 1600);
        let mut seq = make();
        seq.process_chunk(&data);
        assert_eq!(par.finalize(), seq.finalize());
    }

    #[test]
    fn empty_input_yields_fresh_kernel() {
        let k = par_process(SumKernel::new, &[], 8);
        assert_eq!(SumKernel::decode_result(&k.finalize()), Some((0.0, 0)));
    }

    #[test]
    #[should_panic(expected = "multiple of the item size")]
    fn misaligned_chunk_rejected() {
        let data = encode(&[1.0, 2.0]);
        let _ = par_process(SumKernel::new, &data, 7);
    }

    #[test]
    fn par_grep_counts_spanning_matches() {
        // Pattern straddles the 8-byte chunk boundary.
        let data = b"xxxxxxhello-yyyyhello";
        let seq = count_occurrences(data, b"hello");
        assert_eq!(par_grep_count(data, b"hello", 8), seq);
        assert_eq!(seq, 2);
    }

    #[test]
    fn par_grep_overlapping_pattern() {
        let data = vec![b'a'; 100];
        assert_eq!(par_grep_count(&data, b"aaa", 16), 98);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::grep::count_occurrences;
    use crate::sum::SumKernel;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn par_grep_matches_reference(
            hay in proptest::collection::vec(0u8..3, 0..400),
            pat in proptest::collection::vec(0u8..3, 1..4),
            chunk in 4usize..64,
        ) {
            prop_assume!(chunk >= pat.len());
            prop_assert_eq!(
                par_grep_count(&hay, &pat, chunk),
                count_occurrences(&hay, &pat)
            );
        }

        #[test]
        fn par_sum_matches_reference(
            vals in proptest::collection::vec(-1e3f64..1e3, 0..500),
            chunk_items in 1usize..64,
        ) {
            let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            let k = par_process(SumKernel::new, &data, chunk_items * 8);
            let (sum, count) = SumKernel::decode_result(&k.finalize()).unwrap();
            prop_assert_eq!(count, vals.len() as u64);
            let naive: f64 = vals.iter().sum();
            prop_assert!((sum - naive).abs() < 1e-7 * naive.abs().max(1.0));
        }
    }
}
