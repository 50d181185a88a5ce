//! k-nearest-neighbor classification on latent features.

use a4nn_nn::par::par_map;

/// A fitted kNN classifier (stores the training features verbatim, as kNN
/// does).
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    k: usize,
    dim: usize,
    features: Vec<f32>,
    labels: Vec<usize>,
}

impl KnnClassifier {
    /// Fit on row-major `features` (`n × dim`) with one label per row.
    pub fn fit(k: usize, dim: usize, features: Vec<f32>, labels: Vec<usize>) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(dim > 0, "features must have dimensions");
        assert_eq!(features.len(), labels.len() * dim, "feature matrix shape");
        assert!(!labels.is_empty(), "cannot fit on an empty training set");
        KnnClassifier {
            k,
            dim,
            features,
            labels,
        }
    }

    /// Number of stored neighbors.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no training points are stored (unreachable via `fit`).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Classify one query vector by majority vote among the k nearest
    /// training points (Euclidean distance; ties break toward the nearer
    /// neighbor's class).
    pub fn predict_one(&self, query: &[f32]) -> usize {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let k = self.k.min(self.labels.len());
        // (distance², label) of the best k so far, sorted ascending.
        let mut best: Vec<(f32, usize)> = Vec::with_capacity(k + 1);
        for (i, &label) in self.labels.iter().enumerate() {
            let row = &self.features[i * self.dim..(i + 1) * self.dim];
            let mut d = 0.0f32;
            for (a, b) in query.iter().zip(row) {
                let diff = a - b;
                d += diff * diff;
            }
            if best.len() < k || d < best[best.len() - 1].0 {
                let pos = best.partition_point(|&(bd, _)| bd <= d);
                best.insert(pos, (d, label));
                if best.len() > k {
                    best.pop();
                }
            }
        }
        // Majority vote; first-encountered (nearest) class wins ties.
        let mut counts: Vec<(usize, usize)> = Vec::new(); // (label, count)
        for &(_, label) in &best {
            match counts.iter_mut().find(|(l, _)| *l == label) {
                Some((_, c)) => *c += 1,
                None => counts.push((label, 1)),
            }
        }
        // First-encountered class wins ties: `counts` is ordered by the
        // nearest occurrence of each class, so prefer strictly greater.
        let mut winner = counts[0];
        for &c in &counts[1..] {
            if c.1 > winner.1 {
                winner = c;
            }
        }
        winner.0
    }

    /// Classify a row-major batch in parallel.
    pub fn predict_batch(&self, queries: &[f32]) -> Vec<usize> {
        assert_eq!(queries.len() % self.dim, 0, "query matrix shape");
        par_map(queries.len() / self.dim, |i| {
            self.predict_one(&queries[i * self.dim..(i + 1) * self.dim])
        })
    }

    /// Accuracy (%) on a labeled query batch.
    pub fn accuracy(&self, queries: &[f32], labels: &[usize]) -> f64 {
        let preds = self.predict_batch(queries);
        assert_eq!(preds.len(), labels.len(), "one label per query row");
        if labels.is_empty() {
            return 0.0;
        }
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        100.0 * correct as f64 / labels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clusters() -> (Vec<f32>, Vec<usize>) {
        // Class 0 near (0,0), class 1 near (10,10).
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            feats.extend_from_slice(&[0.1 * i as f32, 0.05 * i as f32]);
            labels.push(0);
            feats.extend_from_slice(&[10.0 + 0.1 * i as f32, 10.0 - 0.05 * i as f32]);
            labels.push(1);
        }
        (feats, labels)
    }

    #[test]
    fn separable_clusters_classify_perfectly() {
        let (f, l) = clusters();
        let knn = KnnClassifier::fit(3, 2, f, l);
        assert_eq!(knn.predict_one(&[0.2, 0.2]), 0);
        assert_eq!(knn.predict_one(&[9.5, 10.2]), 1);
        let acc = knn.accuracy(&[0.0, 0.0, 10.0, 10.0], &[0, 1]);
        assert_eq!(acc, 100.0);
    }

    #[test]
    fn k1_returns_nearest_label() {
        let knn = KnnClassifier::fit(1, 1, vec![0.0, 5.0, 10.0], vec![0, 1, 0]);
        assert_eq!(knn.predict_one(&[4.4]), 1);
        assert_eq!(knn.predict_one(&[9.0]), 0);
    }

    #[test]
    fn k_larger_than_train_set_is_clamped() {
        let knn = KnnClassifier::fit(99, 1, vec![0.0, 1.0, 2.0], vec![0, 0, 1]);
        // All 3 points vote: majority is 0.
        assert_eq!(knn.predict_one(&[1.5]), 0);
    }

    #[test]
    fn tie_breaks_toward_nearest_class() {
        // k=2 with one vote each: class of the nearer point wins.
        let knn = KnnClassifier::fit(2, 1, vec![1.0, 3.0], vec![7, 9]);
        assert_eq!(knn.predict_one(&[1.5]), 7);
        assert_eq!(knn.predict_one(&[2.9]), 9);
    }

    #[test]
    fn batch_matches_individual_predictions() {
        let (f, l) = clusters();
        let knn = KnnClassifier::fit(3, 2, f, l);
        let queries = vec![0.0, 0.0, 10.0, 10.0, 5.0, 5.1];
        let batch = knn.predict_batch(&queries);
        for (i, chunk) in queries.chunks(2).enumerate() {
            assert_eq!(batch[i], knn.predict_one(chunk));
        }
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_fit_panics() {
        let _ = KnnClassifier::fit(1, 2, vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_query_dim_panics() {
        let knn = KnnClassifier::fit(1, 2, vec![0.0, 0.0], vec![0]);
        let _ = knn.predict_one(&[1.0]);
    }
}
