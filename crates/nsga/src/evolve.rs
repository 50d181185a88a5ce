//! One NSGA-II generation step, generic over genomes: [`breed`] varies
//! λ offspring from tournament-selected parents, and
//! [`environmental_selection`] keeps the elitist (μ+λ) survivors. The
//! caller evaluates the offspring in between, however it likes — A4NN's
//! workflow trains a whole generation concurrently before selecting.

use crate::crowding::crowding_distance;
use crate::objectives::Objectives;
use crate::select::{tournament_select, RankedIndividual};
use crate::sort::{fast_non_dominated_sort, ranks_from_fronts};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hash::Hash;

/// One evaluated individual.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Individual<G> {
    /// Globally unique id in evaluation order (0-based).
    pub id: u64,
    /// Generation that produced this individual.
    pub generation: usize,
    /// The genome.
    pub genome: G,
    /// Its objective vector (minimization convention).
    pub objectives: Objectives,
}

/// How many times [`breed`] re-varies a child that duplicates a genome
/// already seen before accepting the duplicate.
const DUPLICATE_RETRIES: usize = 16;

/// Breed `count` offspring from the survivors `parents` (indices into
/// `archive`, every individual evaluated so far).
///
/// The parents are ranked by non-dominated sorting and crowding
/// distance. Each child draws two binary tournaments, then
/// `vary(a, b, rng)`; while its `key` matches an archived genome or an
/// earlier child of this call, it is re-varied from the same two parents,
/// at most 16 times. The RNG is drawn in exactly that order, so a search
/// seeded alike breeds alike.
pub fn breed<G, K: Eq + Hash, R: Rng + ?Sized>(
    archive: &[Individual<G>],
    parents: &[usize],
    count: usize,
    rng: &mut R,
    key: impl Fn(&G) -> K,
    mut vary: impl FnMut(&G, &G, &mut R) -> G,
) -> Vec<G> {
    let objectives: Vec<Objectives> = parents
        .iter()
        .map(|&i| archive[i].objectives.clone())
        .collect();
    let fronts = fast_non_dominated_sort(&objectives);
    let ranks = ranks_from_fronts(&fronts, parents.len());
    let mut crowding = vec![0.0f64; parents.len()];
    for front in &fronts {
        for (&i, d) in front.iter().zip(crowding_distance(&objectives, front)) {
            crowding[i] = d;
        }
    }
    let ranked: Vec<RankedIndividual> = ranks
        .iter()
        .zip(&crowding)
        .map(|(&rank, &crowding)| RankedIndividual { rank, crowding })
        .collect();

    let mut seen: HashSet<K> = archive.iter().map(|ind| key(&ind.genome)).collect();
    let mut children = Vec::with_capacity(count);
    for _ in 0..count {
        let a = &archive[parents[tournament_select(&ranked, rng)]].genome;
        let b = &archive[parents[tournament_select(&ranked, rng)]].genome;
        let mut child = vary(a, b, rng);
        for _ in 0..DUPLICATE_RETRIES {
            if !seen.contains(&key(&child)) {
                break;
            }
            child = vary(a, b, rng);
        }
        seen.insert(key(&child));
        children.push(child);
    }
    children
}

/// Pick `keep` survivors from `pool` (indices into `all`): whole fronts
/// while they fit, then the most crowded-distance-sparse members of the
/// first overflowing front.
pub fn environmental_selection<G>(
    all: &[Individual<G>],
    pool: &[usize],
    keep: usize,
) -> Vec<usize> {
    let objs: Vec<Objectives> = pool.iter().map(|&i| all[i].objectives.clone()).collect();
    let fronts = fast_non_dominated_sort(&objs);
    let mut survivors = Vec::with_capacity(keep);
    for front in fronts {
        if survivors.len() + front.len() <= keep {
            survivors.extend(front.iter().map(|&local| pool[local]));
            if survivors.len() == keep {
                break;
            }
        } else {
            let d = crowding_distance(&objs, &front);
            let mut order: Vec<usize> = (0..front.len()).collect();
            // Descending crowding distance; infinities (extremes) first,
            // NaN-objective members (pinned at 0) last. total_cmp keeps
            // the sort total even if a distance were ever NaN.
            order.sort_by(|&a, &b| d[b].total_cmp(&d[a]));
            for &local in order.iter().take(keep - survivors.len()) {
                survivors.push(pool[front[local]]);
            }
            break;
        }
    }
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Evolve real-valued genomes drawn from `[-6, 6)` for `generations`
    /// through `breed` + `environmental_selection`, varying by midpoint
    /// plus `U(-spread, spread)`: every individual evaluated and the
    /// final survivors.
    fn evolve(
        seed: u64,
        population: usize,
        generations: usize,
        spread: f64,
        evaluate: impl Fn(f64) -> Objectives,
    ) -> (Vec<Individual<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut all: Vec<Individual<f64>> = Vec::new();
        let mut parents: Vec<usize> = Vec::new();
        for generation in 0..generations {
            let genomes: Vec<f64> = if generation == 0 {
                (0..population).map(|_| rng.gen_range(-6.0..6.0)).collect()
            } else {
                breed(
                    &all,
                    &parents,
                    population,
                    &mut rng,
                    |g| g.to_bits(),
                    |a, b, r| (a + b) / 2.0 + r.gen_range(-spread..spread),
                )
            };
            let start = all.len();
            for (k, genome) in genomes.into_iter().enumerate() {
                all.push(Individual {
                    id: (start + k) as u64,
                    generation,
                    genome,
                    objectives: evaluate(genome),
                });
            }
            let mut pool = parents.clone();
            pool.extend(start..all.len());
            parents = environmental_selection(&all, &pool, population);
        }
        (all, parents)
    }

    /// SCH: minimize (x², (x−2)²); Pareto set is x ∈ [0, 2].
    fn sch(x: f64) -> Objectives {
        Objectives::new(vec![x * x, (x - 2.0) * (x - 2.0)])
    }

    fn pareto_front(all: &[Individual<f64>]) -> Vec<&Individual<f64>> {
        let objs: Vec<Objectives> = all.iter().map(|i| i.objectives.clone()).collect();
        fast_non_dominated_sort(&objs)
            .first()
            .map(|f| f.iter().map(|&i| &all[i]).collect())
            .unwrap_or_default()
    }

    #[test]
    fn converges_to_sch_pareto_set() {
        let (all, survivors) = evolve(3, 16, 25, 0.3, sch);
        assert!(pareto_front(&all).len() >= 4);
        // The final population should be concentrated near [0, 2].
        let inside = survivors
            .iter()
            .filter(|&&i| (-0.3..=2.3).contains(&all[i].genome))
            .count();
        assert!(
            inside * 10 >= survivors.len() * 8,
            "{inside}/{} in Pareto region",
            survivors.len()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = evolve(1, 16, 25, 0.3, sch);
        let (b, _) = evolve(2, 16, 25, 0.3, sch);
        let same = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x.genome.to_bits() == y.genome.to_bits())
            .count();
        assert!(same < a.len() / 2);
    }

    #[test]
    fn environmental_selection_is_elitist() {
        // Survivors of each generation are never dominated by a discarded
        // pool member of the same generation — check the final population
        // against the global archive of its last two generations.
        let (all, survivors) = evolve(13, 16, 25, 0.3, sch);
        let last_gen = all.last().unwrap().generation;
        let pool: Vec<usize> = (0..all.len())
            .filter(|&i| all[i].generation >= last_gen.saturating_sub(1))
            .collect();
        for &s in &survivors {
            for &p in &pool {
                if all[p].objectives.dominates(&all[s].objectives) {
                    // A dominating pool member must itself be a survivor.
                    assert!(survivors.contains(&p), "non-surviving dominator found");
                }
            }
        }
    }

    /// Archive of integer genomes `0..n` with distinct objectives.
    fn integer_archive(n: u32) -> Vec<Individual<u32>> {
        (0..n)
            .map(|g| Individual {
                id: u64::from(g),
                generation: 0,
                genome: g,
                objectives: Objectives::new(vec![f64::from(g), -f64::from(g)]),
            })
            .collect()
    }

    #[test]
    fn breed_re_varies_archived_and_sibling_duplicates() {
        let archive = integer_archive(4);
        // Child 1: 0 and 1 are archived, 7 is new. Child 2: 7 is its
        // sibling, 8 is new.
        let mut script = [0u32, 1, 7, 7, 8].into_iter();
        let mut rng = StdRng::seed_from_u64(0);
        let children = breed(
            &archive,
            &[0, 1, 2, 3],
            2,
            &mut rng,
            |g| *g,
            |_, _, _| script.next().unwrap(),
        );
        assert_eq!(children, vec![7, 8]);
        assert_eq!(script.next(), None, "every scripted variation was drawn");
    }

    #[test]
    fn breed_accepts_a_duplicate_after_bounded_retries() {
        let archive = integer_archive(4);
        let mut calls = 0u32;
        let mut rng = StdRng::seed_from_u64(0);
        let children = breed(
            &archive,
            &[0, 1, 2, 3],
            2,
            &mut rng,
            |_| (),
            |_, _, _| {
                calls += 1;
                calls
            },
        );
        let per_child = 1 + DUPLICATE_RETRIES as u32;
        assert_eq!(calls, 2 * per_child);
        assert_eq!(children, vec![per_child, 2 * per_child]);
    }

    /// Regression: a population containing failed models (NaN objectives,
    /// legal since trainings can exhaust their retry budget) must evolve
    /// to completion instead of panicking in crowding/selection, and the
    /// failed models must never displace viable ones from the survivors.
    #[test]
    fn evolves_population_containing_failed_models() {
        let population = 12;
        let (all, survivors) = evolve(11, population, 8, 1.0, |g| {
            if g < 0.0 {
                // Crashed training: NaN fitness (negated, as the
                // workflow negates accuracy) and NaN cost.
                Objectives::new(vec![-f64::NAN, f64::NAN])
            } else {
                sch(g)
            }
        });
        assert_eq!(all.len(), population * 8);
        let failed_total = all.iter().filter(|i| i.objectives.has_nan()).count();
        assert!(failed_total > 0, "test needs some failed evaluations");
        // Survivors: only failed if fewer viable candidates than slots.
        if all.len() - failed_total >= population {
            for &s in &survivors {
                assert!(
                    !all[s].objectives.has_nan(),
                    "failed model survived selection over viable ones"
                );
            }
        }
        // The global Pareto front never contains a fully-NaN individual.
        for ind in pareto_front(&all) {
            assert!(!ind.objectives.values().iter().all(|v| v.is_nan()));
        }
    }

    /// environmental_selection over an overflowing front with a NaN
    /// member: no panic, and the NaN member is cut first.
    #[test]
    fn selection_discards_nan_member_first() {
        let mk = |objs: Vec<f64>, id: u64| Individual {
            id,
            generation: 0,
            genome: 0.0f64,
            objectives: Objectives::new(objs),
        };
        // Mutually indifferent trade-off front plus one partially-NaN
        // member that is indifferent to all (cheapest FLOPs).
        let all = vec![
            mk(vec![0.0, 3.0], 0),
            mk(vec![1.0, 2.0], 1),
            mk(vec![2.0, 1.0], 2),
            mk(vec![f64::NAN, 0.5], 3),
        ];
        let pool: Vec<usize> = (0..4).collect();
        let survivors = environmental_selection(&all, &pool, 3);
        assert_eq!(survivors.len(), 3);
        assert!(
            !survivors.contains(&3),
            "NaN member outlived a viable one: {survivors:?}"
        );
    }
}
