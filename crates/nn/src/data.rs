//! Labeled image datasets and minibatch iteration.

use crate::tensor::Tensor4;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A labeled set of single- or multi-channel images.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Flattened image data, sample-major (`len = n · c · h · w`).
    pub images: Vec<f32>,
    /// One class label per sample.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Create an empty dataset with the given geometry.
    pub fn empty(channels: usize, height: usize, width: usize) -> Self {
        Dataset {
            channels,
            height,
            width,
            images: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Elements per sample.
    pub fn sample_stride(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Append one image; `pixels.len()` must equal
    /// [`sample_stride`](Self::sample_stride).
    pub fn push(&mut self, pixels: &[f32], label: usize) {
        assert_eq!(pixels.len(), self.sample_stride(), "pixel count mismatch");
        self.images.extend_from_slice(pixels);
        self.labels.push(label);
    }

    /// Gather the samples at `indices` into caller-owned buffers,
    /// reshaping `batch` in place; allocation-free once `batch`/`labels`
    /// capacities have warmed up.
    pub fn gather_into(&self, indices: &[usize], batch: &mut Tensor4, labels: &mut Vec<usize>) {
        let stride = self.sample_stride();
        batch.reset(indices.len(), self.channels, self.height, self.width);
        labels.clear();
        for (b, &i) in indices.iter().enumerate() {
            batch
                .sample_mut(b)
                .copy_from_slice(&self.images[i * stride..(i + 1) * stride]);
            labels.push(self.labels[i]);
        }
    }

    /// Copy the contiguous sample range `start..end` into `batch`,
    /// reshaping it in place (chunked evaluation without materializing
    /// the whole set).
    pub fn copy_range_into(&self, start: usize, end: usize, batch: &mut Tensor4) {
        assert!(
            start <= end && end <= self.len(),
            "sample range out of bounds"
        );
        let stride = self.sample_stride();
        batch.reset(end - start, self.channels, self.height, self.width);
        batch
            .data_mut()
            .copy_from_slice(&self.images[start * stride..end * stride]);
    }

    /// Split off the last `fraction` of samples into a second dataset
    /// (e.g. `0.2` for the paper's 80/20 train/test split). The split is
    /// positional.
    pub fn split(mut self, fraction: f64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
        let n_tail = (self.len() as f64 * fraction).round() as usize;
        let n_head = self.len() - n_tail;
        let stride = self.sample_stride();
        let tail = Dataset {
            channels: self.channels,
            height: self.height,
            width: self.width,
            images: self.images.split_off(n_head * stride),
            labels: self.labels.split_off(n_head),
        };
        (self, tail)
    }

    /// Iterator over shuffled minibatches for one epoch.
    pub fn shuffled_batches<'a, R: Rng + ?Sized>(
        &'a self,
        batch_size: usize,
        rng: &mut R,
    ) -> BatchIter<'a> {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        BatchIter {
            dataset: self,
            order,
            batch_size,
            cursor: 0,
        }
    }

    /// Per-class sample counts (indexed by label).
    pub fn class_counts(&self) -> Vec<usize> {
        let max = self.labels.iter().copied().max().map_or(0, |m| m + 1);
        let mut counts = vec![0usize; max];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

/// Minibatch iterator produced by [`Dataset::shuffled_batches`].
pub struct BatchIter<'a> {
    dataset: &'a Dataset,
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl BatchIter<'_> {
    /// Advance to the next minibatch, gathering into caller-owned
    /// buffers instead of allocating. Returns `false` when the epoch is
    /// exhausted (buffers are left untouched).
    pub fn next_into(&mut self, batch: &mut Tensor4, labels: &mut Vec<usize>) -> bool {
        if self.cursor >= self.order.len() {
            return false;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        self.dataset
            .gather_into(&self.order[self.cursor..end], batch, labels);
        self.cursor = end;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn dataset(n: usize) -> Dataset {
        let mut d = Dataset::empty(1, 2, 2);
        for i in 0..n {
            d.push(&[i as f32; 4], i % 2);
        }
        d
    }

    #[test]
    fn push_and_gather_roundtrip() {
        let d = dataset(5);
        let (mut batch, mut labels) = (Tensor4::zeros(0, 0, 0, 0), Vec::new());
        d.gather_into(&[3, 1], &mut batch, &mut labels);
        assert_eq!(batch.shape(), (2, 1, 2, 2));
        assert_eq!(batch.sample(0), &[3.0; 4]);
        assert_eq!(batch.sample(1), &[1.0; 4]);
        assert_eq!(labels, vec![1, 1]);
    }

    #[test]
    fn split_80_20() {
        let (train, test) = dataset(10).split(0.2);
        assert_eq!(train.len(), 8);
        assert_eq!(test.len(), 2);
        // Tail samples preserved in order.
        let mut batch = Tensor4::zeros(0, 0, 0, 0);
        test.copy_range_into(0, 1, &mut batch);
        assert_eq!(batch.sample(0), &[8.0; 4]);
    }

    #[test]
    fn split_edge_fractions() {
        let (a, b) = dataset(4).split(0.0);
        assert_eq!((a.len(), b.len()), (4, 0));
        let (a, b) = dataset(4).split(1.0);
        assert_eq!((a.len(), b.len()), (0, 4));
    }

    #[test]
    fn batches_cover_every_sample_once() {
        let d = dataset(10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut seen = Vec::new();
        let mut batches = d.shuffled_batches(3, &mut rng);
        let (mut batch, mut labels) = (Tensor4::zeros(0, 0, 0, 0), Vec::new());
        while batches.next_into(&mut batch, &mut labels) {
            assert!(batch.n <= 3);
            assert_eq!(batch.n, labels.len());
            for b in 0..batch.n {
                seen.push(batch.sample(b)[0] as usize);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn class_counts_balanced() {
        let d = dataset(10);
        assert_eq!(d.class_counts(), vec![5, 5]);
    }

    #[test]
    fn gather_into_reshapes_reused_buffers() {
        let d = dataset(6);
        let mut batch = Tensor4::zeros(0, 0, 0, 0);
        let mut labels = Vec::new();
        d.gather_into(&[4, 0, 2], &mut batch, &mut labels);
        assert_eq!(batch.shape(), (3, 1, 2, 2));
        assert_eq!(batch.sample(0), &[4.0; 4]);
        assert_eq!(batch.sample(1), &[0.0; 4]);
        assert_eq!(batch.sample(2), &[2.0; 4]);
        assert_eq!(labels, vec![0, 0, 0]);
        // Reuse with a different batch size: shape follows the indices.
        d.gather_into(&[1], &mut batch, &mut labels);
        assert_eq!(batch.shape(), (1, 1, 2, 2));
        assert_eq!(labels, vec![1]);
    }

    #[test]
    fn batches_are_deterministic_per_seed() {
        let d = dataset(10);
        let mut a = d.shuffled_batches(3, &mut rand::rngs::StdRng::seed_from_u64(4));
        let mut b = d.shuffled_batches(3, &mut rand::rngs::StdRng::seed_from_u64(4));
        let (mut batch_a, mut labels_a) = (Tensor4::zeros(0, 0, 0, 0), Vec::new());
        let (mut batch_b, mut labels_b) = (Tensor4::zeros(0, 0, 0, 0), Vec::new());
        let mut batches = 0;
        while a.next_into(&mut batch_a, &mut labels_a) {
            assert!(b.next_into(&mut batch_b, &mut labels_b));
            assert_eq!(batch_a, batch_b);
            assert_eq!(labels_a, labels_b);
            batches += 1;
        }
        assert!(!b.next_into(&mut batch_b, &mut labels_b));
        assert_eq!(batches, 4);
    }

    #[test]
    fn copy_range_into_extracts_contiguous_samples() {
        let d = dataset(5);
        let mut batch = Tensor4::zeros(0, 0, 0, 0);
        d.copy_range_into(2, 5, &mut batch);
        assert_eq!(batch.shape(), (3, 1, 2, 2));
        assert_eq!(batch.sample(0), &[2.0; 4]);
        assert_eq!(batch.sample(2), &[4.0; 4]);
        d.copy_range_into(0, 0, &mut batch);
        assert_eq!(batch.shape(), (0, 1, 2, 2));
    }

    #[test]
    #[should_panic(expected = "pixel count mismatch")]
    fn push_wrong_size_panics() {
        let mut d = Dataset::empty(1, 2, 2);
        d.push(&[0.0; 3], 0);
    }
}
