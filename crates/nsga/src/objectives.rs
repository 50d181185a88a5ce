//! Objective vectors and Pareto dominance.
//!
//! All objectives are *minimized*. Callers maximizing a quantity (e.g.
//! validation accuracy) negate it; A4NN's NAS problem is
//! `minimize (−accuracy, FLOPs)` exactly as NSGA-Net does.
//!
//! NaN objectives are legal — a model whose training crashed out of its
//! retry budget reports NaN/partial fitness — and rank *strictly worst*:
//! per coordinate, NaN (of either sign) compares greater than every real
//! value and equal to any other NaN. A failed model can therefore never
//! dominate, and is dominated by anything no-worse on the remaining
//! coordinates, but it still flows through sorting and selection without
//! panicking the search.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Total order on one objective coordinate under the minimization
/// convention, ranking NaN of either sign strictly worst (greatest).
/// Unlike `f64::total_cmp`, which puts negative NaN *below* −∞ — so a
/// negated NaN fitness would rank best — this treats all NaNs alike.
pub fn cmp_objective(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        // Non-NaN values are totally ordered; total_cmp also ranks
        // -0.0 < +0.0, which keeps the sort deterministic.
        (false, false) => a.total_cmp(&b),
    }
}

/// Outcome of a pairwise dominance comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominance {
    /// `self` dominates the other vector (no-worse in all, better in one).
    Dominates,
    /// The other vector dominates `self`.
    DominatedBy,
    /// Neither dominates (incomparable or equal).
    Indifferent,
}

/// A vector of objective values under the minimization convention.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Objectives(Vec<f64>);

impl Objectives {
    /// Wrap raw objective values. NaN entries are legal and rank strictly
    /// worst (see [`cmp_objective`]).
    pub fn new(values: Vec<f64>) -> Self {
        Objectives(values)
    }

    /// True if any coordinate is NaN (a failed evaluation).
    pub fn has_nan(&self) -> bool {
        self.0.iter().any(|v| v.is_nan())
    }

    /// The raw values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Number of objectives.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no objectives are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Pairwise Pareto comparison. Panics if dimensionalities differ —
    /// inside one search every vector shares the configured dimension by
    /// construction, so a mismatch here is a bug. Data crossing a trust
    /// boundary (snapshot or commons loads) checks its dimensions first.
    pub fn compare(&self, other: &Objectives) -> Dominance {
        assert_eq!(
            self.0.len(),
            other.0.len(),
            "objective vectors must have equal dimension"
        );
        let mut better = false;
        let mut worse = false;
        for (&a, &b) in self.0.iter().zip(&other.0) {
            match cmp_objective(a, b) {
                Ordering::Less => better = true,
                Ordering::Greater => worse = true,
                Ordering::Equal => {}
            }
        }
        match (better, worse) {
            (true, false) => Dominance::Dominates,
            (false, true) => Dominance::DominatedBy,
            _ => Dominance::Indifferent,
        }
    }

    /// `self` strictly dominates `other`.
    #[inline]
    pub fn dominates(&self, other: &Objectives) -> bool {
        self.compare(other) == Dominance::Dominates
    }
}

impl From<Vec<f64>> for Objectives {
    fn from(v: Vec<f64>) -> Self {
        Objectives::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_dominance() {
        let a = Objectives::new(vec![1.0, 2.0]);
        let b = Objectives::new(vec![2.0, 3.0]);
        assert_eq!(a.compare(&b), Dominance::Dominates);
        assert_eq!(b.compare(&a), Dominance::DominatedBy);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn weak_dominance_counts() {
        // Equal in one objective, better in the other ⇒ dominates.
        let a = Objectives::new(vec![1.0, 2.0]);
        let b = Objectives::new(vec![1.0, 3.0]);
        assert_eq!(a.compare(&b), Dominance::Dominates);
    }

    #[test]
    fn incomparable_vectors() {
        let a = Objectives::new(vec![1.0, 3.0]);
        let b = Objectives::new(vec![2.0, 2.0]);
        assert_eq!(a.compare(&b), Dominance::Indifferent);
        assert_eq!(b.compare(&a), Dominance::Indifferent);
    }

    #[test]
    fn equal_vectors_are_indifferent() {
        let a = Objectives::new(vec![1.0, 2.0]);
        assert_eq!(a.compare(&a.clone()), Dominance::Indifferent);
    }

    #[test]
    #[should_panic(expected = "equal dimension")]
    fn dimension_mismatch_panics() {
        let a = Objectives::new(vec![1.0]);
        let b = Objectives::new(vec![1.0, 2.0]);
        let _ = a.compare(&b);
    }

    #[test]
    fn nan_ranks_strictly_worst_per_coordinate() {
        assert_eq!(cmp_objective(f64::NAN, 1.0), Ordering::Greater);
        assert_eq!(cmp_objective(f64::NAN, f64::INFINITY), Ordering::Greater);
        assert_eq!(cmp_objective(1.0, f64::NAN), Ordering::Less);
        assert_eq!(cmp_objective(f64::NAN, f64::NAN), Ordering::Equal);
        // A negated NaN fitness (-NaN) must not rank best, which plain
        // total_cmp would allow.
        assert_eq!(
            cmp_objective(-f64::NAN, f64::NEG_INFINITY),
            Ordering::Greater
        );
        assert_eq!(cmp_objective(-f64::NAN, f64::NAN), Ordering::Equal);
    }

    #[test]
    fn nan_vector_is_dominated_never_dominating() {
        let failed = Objectives::new(vec![f64::NAN, f64::NAN]);
        let ok = Objectives::new(vec![-90.0, 1e9]);
        assert_eq!(failed.compare(&ok), Dominance::DominatedBy);
        assert_eq!(ok.compare(&failed), Dominance::Dominates);
        assert!(failed.has_nan() && !ok.has_nan());
    }

    #[test]
    fn partial_nan_vector_compares_coordinatewise() {
        // NaN fitness but smaller FLOPs: incomparable, like any trade-off.
        let failed = Objectives::new(vec![f64::NAN, 1.0]);
        let ok = Objectives::new(vec![-90.0, 2.0]);
        assert_eq!(failed.compare(&ok), Dominance::Indifferent);
        // NaN fitness and larger FLOPs: strictly dominated.
        let worse = Objectives::new(vec![f64::NAN, 3.0]);
        assert_eq!(worse.compare(&ok), Dominance::DominatedBy);
    }

    #[test]
    fn dominance_is_antisymmetric_and_transitive() {
        let a = Objectives::new(vec![0.0, 0.0]);
        let b = Objectives::new(vec![1.0, 1.0]);
        let c = Objectives::new(vec![2.0, 2.0]);
        assert!(a.dominates(&b) && b.dominates(&c) && a.dominates(&c));
        assert!(!b.dominates(&a));
    }
}
