//! Exact `O(k log k)` solver.
//!
//! Structure of the objective: the `z` term depends only on the *largest*
//! `z_i` among demoted requests. Fix which request `m` carries that maximum;
//! then every other request `i` with `z_i ≤ z_m` should be demoted exactly
//! when it pays on its own (`y_i − x_i < 0`), and every request with
//! `z_i > z_m` must stay active (or it would be the maximum instead).
//! Scanning candidates `m` in ascending `z` order with a running sum of
//! profitable demotions evaluates all candidate maxima in linear time after
//! sorting. The empty demoted set (all active) is a separate candidate.
//!
//! This is the default solver of the Contention Estimator: exact like the
//! paper's `2^k` enumeration, but fast enough for the 64-request queues of
//! the evaluation.

use super::Assignment;
use crate::cost::Item;

/// Solve exactly in `O(k log k)`.
pub fn solve(items: &[Item]) -> Assignment {
    let mut out = Assignment::default();
    solve_with(items, &mut Vec::new(), &mut out);
    out
}

/// [`solve`] into `out`, with `order` as the sort buffer: both keep their
/// allocations across calls.
pub fn solve_with(items: &[Item], order: &mut Vec<usize>, out: &mut Assignment) {
    let k = items.len();
    out.active.clear();
    out.active.resize(k, true);
    if k == 0 {
        out.time = 0.0;
        return;
    }

    // Baseline: everything active.
    let all_active_time: f64 = items.iter().map(|i| i.x).sum();

    // Candidates sorted by z ascending (index into `items`); indices break
    // ties, so the unstable sort is deterministic.
    order.clear();
    order.extend(0..k);
    order.sort_unstable_by(|&a, &b| {
        items[a]
            .z
            .partial_cmp(&items[b].z)
            .expect("finite z")
            .then(a.cmp(&b))
    });

    // For each candidate maximum m (at sorted position j):
    //   time(m) = all_active + Σ_{pos ≤ j, delta<0} delta
    //             + (delta_m if delta_m ≥ 0 else 0)   [m itself must demote]
    //             + z_m
    // where delta_i = y_i − x_i.
    let mut best_time = all_active_time;
    let mut best_pos: Option<usize> = None;
    let mut neg_prefix = 0.0; // Σ of negative deltas among positions ≤ current
    for (pos, &m) in order.iter().enumerate() {
        let delta_m = items[m].y - items[m].x;
        if delta_m < 0.0 {
            neg_prefix += delta_m;
        }
        let extra = if delta_m < 0.0 { 0.0 } else { delta_m };
        let t = all_active_time + neg_prefix + extra + items[m].z;
        if t < best_time {
            best_time = t;
            best_pos = Some(pos);
        }
    }

    // Demote m plus every profitable request at a sorted position ≤ pos(m)
    // — exactly the set the scan accounted for. (Equal-z requests after
    // pos(m) are covered when they are the candidate maximum themselves.)
    if let Some(pos_m) = best_pos {
        for (pos, &i) in order.iter().enumerate().take(pos_m + 1) {
            let delta = items[i].y - items[i].x;
            if pos == pos_m || delta < 0.0 {
                out.active[i] = false;
            }
        }
    }

    out.time = super::assignment_time(items, &out.active);
    debug_assert!(
        (out.time - best_time).abs() < 1e-9,
        "reconstructed assignment ({}) must match scanned optimum ({best_time})",
        out.time
    );
}

#[cfg(test)]
mod tests {
    use super::super::{assignment_time, exhaustive, item};
    use super::*;

    #[test]
    fn trivial_cases() {
        let a = solve(&[item(2.0, 1.0, 0.5)]);
        assert_eq!(a.active, vec![false]);
        assert!((a.time - 1.5).abs() < 1e-12);

        let a = solve(&[item(1.0, 5.0, 0.5)]);
        assert_eq!(a.active, vec![true]);
        assert!((a.time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shares_z_among_profitable_demotions() {
        // Each demotion saves 4 but one must pay z=2: demote both.
        let items = vec![item(5.0, 1.0, 2.0), item(5.0, 1.0, 2.0)];
        let a = solve(&items);
        assert!(a.all_normal());
        assert!((a.time - 4.0).abs() < 1e-12);
    }

    #[test]
    fn does_not_demote_past_profitability() {
        // First request profits from demotion, second does not.
        let items = vec![item(5.0, 1.0, 1.0), item(1.0, 5.0, 1.0)];
        let a = solve(&items);
        assert_eq!(a.active, vec![false, true]);
        assert!((a.time - (1.0 + 1.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn large_z_candidate_can_still_win() {
        // Demoting the big request costs z=3 but saves 10.
        let items = vec![item(12.0, 2.0, 3.0), item(1.0, 0.9, 0.1)];
        let a = solve(&items);
        assert_eq!(a.active, vec![false, false]);
        let t = assignment_time(&items, &a.active);
        assert!((a.time - t).abs() < 1e-12);
    }

    #[test]
    fn equal_z_ties_handled() {
        let items = vec![item(2.0, 1.0, 1.0); 5];
        let a = solve(&items);
        let brute = exhaustive::solve(&items);
        assert!((a.time - brute.time).abs() < 1e-12);
    }

    #[test]
    fn sixty_four_requests_fast_and_exact_vs_bnb() {
        // The paper's largest queue: 64 requests. (Exhaustive would need
        // 2^64 evaluations; threshold and bnb agree.)
        let items: Vec<_> = (0..64)
            .map(|i| {
                let f = 1.0 + (i % 7) as f64 * 0.3;
                item(1.6 * f, 1.08 * f, 1.6 * f)
            })
            .collect();
        let t = solve(&items);
        let b = super::super::bnb::solve(&items);
        assert!((t.time - b.time).abs() < 1e-9);
    }
}
