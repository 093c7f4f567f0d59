//! Pure data-plane helpers of the I/O path: client-side result assembly
//! and server buffer-cache accounting. No driver state, no scheduling —
//! everything here is unit-testable in isolation.

use super::types::{AppIo, Piece};
use kernels::KernelRegistry;
use pfs::{BlockCache, FileHandle};

/// Pure cache accounting for one read: the disk only serves the bytes the
/// block cache misses, capped at the request size.
pub(in super::super) fn cache_miss_bytes(
    cache: &mut BlockCache,
    fh: FileHandle,
    extents: &[(u64, u64)],
    bytes: f64,
) -> f64 {
    let mut miss = 0u64;
    for &(offset, len) in extents {
        miss += cache.access(fh, offset, len).miss_bytes;
    }
    (miss as f64).min(bytes)
}

/// Reassemble an app I/O's final bytes from its delivered pieces: raw
/// extents replay in file order (through the client kernel when the read
/// was TS-degraded), server-side results concatenate in part order, and
/// migrated kernels finish their tails locally.
pub(in super::super) fn assemble_result(
    app: &mut AppIo,
    registry: &KernelRegistry,
) -> Option<Vec<u8>> {
    app.pieces.sort_by_key(|(idx, _)| *idx);
    if let Some(call) = &app.client_op {
        // TS-style read: one client kernel over all raw extents, replayed
        // in file order.
        let mut kernel = registry
            .create(&call.name, &call.params)
            .expect("client op constructs");
        let mut extents: Vec<(u64, Vec<u8>)> = Vec::new();
        for (_, piece) in app.pieces.drain(..) {
            match piece {
                Piece::Raw(chunks) => extents.extend(chunks),
                _ => unreachable!("client-op apps only receive raw pieces"),
            }
        }
        extents.sort_by_key(|&(offset, _)| offset);
        for (_, data) in &extents {
            kernel.process_chunk(data);
        }
        Some(kernel.finalize())
    } else if app.pieces.len() == 1 {
        match app.pieces.pop().expect("one piece").1 {
            Piece::Ready(bytes) => Some(bytes),
            Piece::Finish(mut kernel, tail) => {
                kernel.process_chunk(&tail);
                Some(kernel.finalize())
            }
            Piece::Raw(chunks) => {
                let mut sorted = chunks;
                sorted.sort_by_key(|&(offset, _)| offset);
                Some(sorted.into_iter().flat_map(|(_, d)| d).collect())
            }
        }
    } else if !app.pieces.is_empty() {
        // Multi-server reads: reassemble raw extents in file order;
        // server-side results concatenate in part order.
        let mut extents: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut out = Vec::new();
        for (_, piece) in app.pieces.drain(..) {
            match piece {
                Piece::Raw(chunks) => extents.extend(chunks),
                Piece::Ready(b) => out.extend_from_slice(&b),
                Piece::Finish(mut kernel, tail) => {
                    kernel.process_chunk(&tail);
                    out.extend_from_slice(&kernel.finalize());
                }
            }
        }
        extents.sort_by_key(|&(offset, _)| offset);
        for (_, d) in extents {
            out.extend_from_slice(&d);
        }
        Some(out)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cache-filtered read accounting: a cold read misses everything, a
    /// repeat hits, a partial overlap pays only for the cold blocks, and
    /// the result never exceeds the requested byte count.
    #[test]
    fn cache_filter_accounts_hits_and_misses() {
        let block = 1 << 20u64;
        let mut cache = BlockCache::new(block, 64 * block);
        let fh = FileHandle(1);
        let extents = vec![(0u64, 4 * block), (8 * block, 2 * block)];
        let bytes = (6 * block) as f64;

        // Cold: every byte is a miss.
        let cold = cache_miss_bytes(&mut cache, fh, &extents, bytes);
        assert_eq!(cold, bytes);

        // Warm: the same extents are fully resident.
        let warm = cache_miss_bytes(&mut cache, fh, &extents, bytes);
        assert_eq!(warm, 0.0);

        // Half-overlapping read: only the cold half touches the disk.
        let shifted = vec![(2 * block, 4 * block)];
        let partial = cache_miss_bytes(&mut cache, fh, &shifted, (4 * block) as f64);
        assert_eq!(partial, (2 * block) as f64);
    }

    /// The miss total is clamped to the request size: block-granular
    /// over-fetch must not charge the disk for more than was asked.
    #[test]
    fn cache_filter_never_exceeds_request_bytes() {
        let block = 1 << 20u64;
        let mut cache = BlockCache::new(block, 16 * block);
        let fh = FileHandle(2);
        // A sub-block read still misses a whole block internally.
        let extents = vec![(10u64, 100u64)];
        let miss = cache_miss_bytes(&mut cache, fh, &extents, 100.0);
        assert_eq!(miss, 100.0, "clamped to the requested bytes");
    }

    /// Different files do not share cache lines.
    #[test]
    fn cache_filter_is_per_file() {
        let block = 1 << 20u64;
        let mut cache = BlockCache::new(block, 64 * block);
        let extents = vec![(0u64, block)];
        assert!(cache_miss_bytes(&mut cache, FileHandle(1), &extents, block as f64) > 0.0);
        assert!(
            cache_miss_bytes(&mut cache, FileHandle(2), &extents, block as f64) > 0.0,
            "a different file's first read is cold even at the same offset"
        );
        assert_eq!(
            cache_miss_bytes(&mut cache, FileHandle(1), &extents, block as f64),
            0.0,
            "the original file stays warm"
        );
    }
}
