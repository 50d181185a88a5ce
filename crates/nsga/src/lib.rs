//! # a4nn-nsga — NSGA-II primitives and the generation step
//!
//! From-scratch implementation of the NSGA-II algorithm (Deb et al., 2002)
//! that underlies NSGA-Net (Lu et al., 2019), the NAS the A4NN paper plugs
//! into its workflow. The crate owns selection and variation but not the
//! loop: the caller evaluates each generation's offspring itself, which is
//! exactly what A4NN's composability story requires — the workflow trains
//! a whole generation with the prediction engine in situ, then selects.
//!
//! Components:
//!
//! - [`objectives`] — objective vectors and Pareto dominance (minimization
//!   convention; accuracy is negated by callers that maximize it),
//! - [`sort`] — fast non-dominated sorting into Pareto fronts,
//! - [`crowding`] — crowding-distance assignment within a front,
//! - [`select`] — binary tournament selection on (rank, crowding),
//! - [`evolve`] — one generation: [`breed`] λ offspring from the ranked
//!   parents with a duplicate filter, then elitist (μ+λ)
//!   [`environmental_selection`].
//!
//! ```
//! use a4nn_nsga::{breed, environmental_selection, fast_non_dominated_sort, Individual, Objectives};
//! use rand::{rngs::StdRng, Rng, SeedableRng};
//!
//! // Minimize the classic SCH problem: f1 = x², f2 = (x−2)².
//! let sch = |x: f64| Objectives::new(vec![x * x, (x - 2.0) * (x - 2.0)]);
//! let (population, generations) = (20, 20);
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut all: Vec<Individual<f64>> = Vec::new();
//! let mut parents: Vec<usize> = Vec::new();
//! for generation in 0..generations {
//!     let genomes: Vec<f64> = if generation == 0 {
//!         (0..population).map(|_| rng.gen_range(-4.0..4.0)).collect()
//!     } else {
//!         breed(&all, &parents, population, &mut rng, |x| x.to_bits(), |a, b, r| {
//!             (a + b) / 2.0 + r.gen_range(-0.2..0.2)
//!         })
//!     };
//!     let start = all.len();
//!     for (k, x) in genomes.into_iter().enumerate() {
//!         let id = (start + k) as u64;
//!         all.push(Individual { id, generation, genome: x, objectives: sch(x) });
//!     }
//!     let mut pool = parents.clone();
//!     pool.extend(start..all.len());
//!     parents = environmental_selection(&all, &pool, population);
//! }
//!
//! // All Pareto-optimal x over everything evaluated lie in [0, 2].
//! let objectives: Vec<Objectives> = all.iter().map(|i| i.objectives.clone()).collect();
//! let front = &fast_non_dominated_sort(&objectives)[0];
//! assert!(!front.is_empty());
//! for &i in front {
//!     assert!(all[i].genome > -0.5 && all[i].genome < 2.5);
//! }
//! ```
#![warn(clippy::redundant_clone)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod crowding;
pub mod evolve;
pub mod objectives;
pub mod select;
pub mod sort;

pub use crowding::crowding_distance;
pub use evolve::{breed, environmental_selection, Individual};
pub use objectives::{cmp_objective, Dominance, Objectives};
pub use select::{tournament_select, RankedIndividual};
pub use sort::{fast_non_dominated_sort, ranks_from_fronts};
