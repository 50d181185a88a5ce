//! Fast non-dominated sorting (Deb et al., 2002, §III-A).
//!
//! Partitions a population into Pareto fronts `F₁, F₂, …` where `F₁` is the
//! non-dominated set, `F₂` is non-dominated once `F₁` is removed, and so
//! on. O(M·N²) like the original algorithm — N here is a NAS population of
//! tens, so the quadratic term is irrelevant; the benchmark's
//! `nsga.sort_us_per_gen` probe tracks it anyway.

use crate::objectives::{Dominance, Objectives};

/// Sort `points` into Pareto fronts; returns the fronts as index lists,
/// best front first. Every input index appears in exactly one front.
pub fn fast_non_dominated_sort(points: &[Objectives]) -> Vec<Vec<usize>> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    // dominated_by[p] = set of indices p dominates; counts[p] = number of
    // points dominating p.
    let mut dominates: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut counts = vec![0usize; n];
    for p in 0..n {
        for q in (p + 1)..n {
            match points[p].compare(&points[q]) {
                Dominance::Dominates => {
                    dominates[p].push(q);
                    counts[q] += 1;
                }
                Dominance::DominatedBy => {
                    dominates[q].push(p);
                    counts[p] += 1;
                }
                Dominance::Indifferent => {}
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&p| counts[p] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &p in &current {
            for &q in &dominates[p] {
                counts[q] -= 1;
                if counts[q] == 0 {
                    next.push(q);
                }
            }
        }
        fronts.push(std::mem::take(&mut current));
        current = next;
    }
    fronts
}

/// Ranks per index: `rank[i]` is the 0-based front number of point `i`.
pub fn ranks_from_fronts(fronts: &[Vec<usize>], n: usize) -> Vec<usize> {
    let mut ranks = vec![usize::MAX; n];
    for (r, front) in fronts.iter().enumerate() {
        for &i in front {
            ranks[i] = r;
        }
    }
    debug_assert!(ranks.iter().all(|&r| r != usize::MAX));
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn objs(rows: &[&[f64]]) -> Vec<Objectives> {
        rows.iter().map(|r| Objectives::new(r.to_vec())).collect()
    }

    #[test]
    fn single_front_when_all_incomparable() {
        let pts = objs(&[&[1.0, 4.0], &[2.0, 3.0], &[3.0, 2.0], &[4.0, 1.0]]);
        let fronts = fast_non_dominated_sort(&pts);
        assert_eq!(fronts.len(), 1);
        assert_eq!(fronts[0].len(), 4);
    }

    #[test]
    fn chain_of_dominated_points_yields_layered_fronts() {
        let pts = objs(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let fronts = fast_non_dominated_sort(&pts);
        assert_eq!(fronts, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn mixed_population() {
        // Points 0 and 1 form the first front; 2 is dominated by 0; 3 by all.
        let pts = objs(&[&[1.0, 3.0], &[3.0, 1.0], &[2.0, 4.0], &[4.0, 4.0]]);
        let fronts = fast_non_dominated_sort(&pts);
        assert_eq!(fronts[0], vec![0, 1]);
        assert_eq!(fronts[1], vec![2]);
        assert_eq!(fronts[2], vec![3]);
    }

    #[test]
    fn empty_population() {
        assert!(fast_non_dominated_sort(&[]).is_empty());
    }

    #[test]
    fn duplicates_share_a_front() {
        let pts = objs(&[&[1.0, 1.0], &[1.0, 1.0], &[2.0, 2.0]]);
        let fronts = fast_non_dominated_sort(&pts);
        assert_eq!(fronts[0], vec![0, 1]);
        assert_eq!(fronts[1], vec![2]);
    }

    #[test]
    fn every_index_appears_exactly_once() {
        let pts = objs(&[
            &[5.0, 1.0],
            &[4.0, 2.0],
            &[3.0, 3.0],
            &[6.0, 6.0],
            &[1.0, 5.0],
            &[2.0, 2.0],
        ]);
        let fronts = fast_non_dominated_sort(&pts);
        let mut seen: Vec<usize> = fronts.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..pts.len()).collect::<Vec<_>>());
    }

    #[test]
    fn front_members_do_not_dominate_each_other() {
        let pts = objs(&[
            &[5.0, 1.0],
            &[4.0, 2.0],
            &[3.0, 3.0],
            &[6.0, 6.0],
            &[1.0, 5.0],
            &[2.0, 2.0],
        ]);
        let fronts = fast_non_dominated_sort(&pts);
        for front in &fronts {
            for &a in front {
                for &b in front {
                    assert!(!pts[a].dominates(&pts[b]));
                }
            }
        }
    }

    #[test]
    fn later_fronts_are_dominated_by_earlier_ones() {
        let pts = objs(&[&[1.0, 1.0], &[2.0, 2.0], &[1.5, 3.0], &[3.0, 3.0]]);
        let fronts = fast_non_dominated_sort(&pts);
        for w in fronts.windows(2) {
            for &q in &w[1] {
                assert!(
                    w[0].iter().any(|&p| pts[p].dominates(&pts[q])),
                    "each member of front k+1 must be dominated by some member of front k"
                );
            }
        }
    }

    #[test]
    fn ranks_cover_population() {
        let pts = objs(&[&[1.0, 1.0], &[2.0, 2.0], &[1.5, 0.5]]);
        let fronts = fast_non_dominated_sort(&pts);
        let ranks = ranks_from_fronts(&fronts, pts.len());
        assert_eq!(ranks.len(), 3);
        assert_eq!(ranks[0], 0);
        assert_eq!(ranks[2], 0);
        assert_eq!(ranks[1], 1);
    }
}
