//! Phase-DAG networks: the trainable realization of a decoded NSGA-Net
//! macro genome.
//!
//! A [`Network`] is a chain of phases; each phase is a stem conv block
//! followed by a DAG of conv blocks with sum joins, an optional residual
//! skip from the stem to the phase output, and a 2×2 max pool. The network
//! ends with global average pooling and a dense classifier.
//!
//! The crate stays decoupled from `a4nn-genome` by accepting a neutral
//! [`NetSpec`]; the workflow crate converts decoded genomes into specs.

use crate::data::Dataset;
use crate::layers::{
    reference, BatchNorm2d, Conv2d, Dense, GlobalAvgPool, MaxPool2d, ParamVisitor, Relu,
};
use crate::tensor::{Tensor2, Tensor4};
use crate::workspace::Workspace;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Default evaluation chunk size: bounds peak activation memory on large
/// validation sets while keeping per-chunk overhead negligible.
pub const DEFAULT_EVAL_CHUNK: usize = 256;

/// An empty placeholder tensor (capacity 0, no allocation) used to move
/// buffers out of slots that must keep a value.
fn empty_t4() -> Tensor4 {
    Tensor4::from_vec(0, 0, 0, 0, Vec::new())
}

/// Specification of one phase. Node indices refer to positions in
/// `node_inputs`; an empty input list means the node reads the stem.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseNetSpec {
    /// Phase width (stem and node output channels).
    pub out_channels: usize,
    /// Conv kernel side.
    pub kernel: usize,
    /// Per-node input lists; `node_inputs[i]` only references `j < i`.
    pub node_inputs: Vec<Vec<usize>>,
    /// Nodes whose outputs are summed into the phase output. Must be
    /// non-empty when `node_inputs` is non-empty.
    pub leaves: Vec<usize>,
    /// Residual connection from the stem output to the phase output.
    pub skip: bool,
}

impl PhaseNetSpec {
    /// A degenerate phase: stem plus a single default conv block.
    pub fn degenerate(out_channels: usize, kernel: usize) -> Self {
        PhaseNetSpec {
            out_channels,
            kernel,
            node_inputs: vec![vec![]],
            leaves: vec![0],
            skip: false,
        }
    }

    fn validate(&self) {
        assert!(
            !self.node_inputs.is_empty(),
            "phase needs at least one node"
        );
        assert!(!self.leaves.is_empty(), "phase needs at least one leaf");
        for (i, ins) in self.node_inputs.iter().enumerate() {
            for &j in ins {
                assert!(j < i, "node {i} may only consume earlier nodes, got {j}");
            }
        }
        for &l in &self.leaves {
            assert!(l < self.node_inputs.len(), "leaf {l} out of range");
        }
    }
}

/// Full network specification.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetSpec {
    /// Input image channels.
    pub input_channels: usize,
    /// The phases.
    pub phases: Vec<PhaseNetSpec>,
    /// Classifier classes.
    pub num_classes: usize,
}

/// Conv → BN → ReLU composite block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ConvBnRelu {
    conv: Conv2d,
    bn: BatchNorm2d,
    relu: Relu,
}

impl ConvBnRelu {
    fn new<R: Rng + ?Sized>(c_in: usize, c_out: usize, kernel: usize, rng: &mut R) -> Self {
        ConvBnRelu {
            conv: Conv2d::new(c_in, c_out, kernel, rng),
            bn: BatchNorm2d::new(c_out),
            relu: Relu::new(),
        }
    }

    fn forward_ws(&mut self, x: &Tensor4, training: bool, ws: &mut Workspace) -> Tensor4 {
        let a = self.conv.forward_ws(x, training, ws);
        let b = self.bn.forward_ws(&a, training, ws);
        ws.give4(a);
        self.relu.forward_owned(b)
    }

    fn backward_ws(&mut self, grad: Tensor4, ws: &mut Workspace) -> Tensor4 {
        let g = self.relu.backward_owned(grad);
        let g = self.bn.backward_owned(g, ws);
        let gin = self.conv.backward_ws(&g, ws);
        ws.give4(g);
        gin
    }

    fn visit_params(&mut self, f: ParamVisitor<'_>) {
        self.conv.visit_params(f);
        self.bn.visit_params(f);
    }

    fn rebuild_buffers(&mut self) {
        self.conv.rebuild_buffers();
        self.bn.rebuild_buffers();
    }

    fn flops(&self, h: usize, w: usize) -> f64 {
        self.conv.flops(h, w) + self.bn.flops(h, w) + self.relu.flops(self.conv.c_out, h, w)
    }
}

/// One instantiated phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PhaseBlock {
    spec: PhaseNetSpec,
    stem: ConvBnRelu,
    nodes: Vec<ConvBnRelu>,
    pool: MaxPool2d,
    #[serde(skip)]
    cache: Option<PhaseCache>,
    /// Persistent node-output slots: drained back into the workspace at
    /// the end of every forward, so only the `Vec` capacity survives.
    #[serde(skip)]
    node_outs: Vec<Tensor4>,
    /// Persistent node-gradient slots (see `node_outs`).
    #[serde(skip)]
    node_grads: Vec<Tensor4>,
}

#[derive(Debug, Clone)]
struct PhaseCache {
    // Each conv block caches its own input for backward; the phase only
    // needs the stem output's shape (the stem activation's gradient path
    // flows through `stem.backward_ws`).
    stem_shape: (usize, usize, usize, usize),
}

impl PhaseBlock {
    fn new<R: Rng + ?Sized>(c_in: usize, spec: &PhaseNetSpec, rng: &mut R) -> Self {
        spec.validate();
        let stem = ConvBnRelu::new(c_in, spec.out_channels, spec.kernel, rng);
        let nodes = (0..spec.node_inputs.len())
            .map(|_| ConvBnRelu::new(spec.out_channels, spec.out_channels, spec.kernel, rng))
            .collect();
        PhaseBlock {
            spec: spec.clone(),
            stem,
            nodes,
            pool: MaxPool2d::new(),
            cache: None,
            node_outs: Vec::new(),
            node_grads: Vec::new(),
        }
    }

    fn forward_ws(&mut self, x: &Tensor4, training: bool, ws: &mut Workspace) -> Tensor4 {
        let stem_out = self.stem.forward_ws(x, training, ws);
        let mut node_outs = std::mem::take(&mut self.node_outs);
        node_outs.reserve(self.nodes.len());
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let out = if self.spec.node_inputs[i].is_empty() {
                node.forward_ws(&stem_out, training, ws)
            } else {
                let mut acc = ws.t4_copy(&node_outs[self.spec.node_inputs[i][0]]);
                for &j in &self.spec.node_inputs[i][1..] {
                    acc.add_assign(&node_outs[j]);
                }
                let out = node.forward_ws(&acc, training, ws);
                ws.give4(acc);
                out
            };
            node_outs.push(out);
        }
        let mut out = ws.t4_copy(&node_outs[self.spec.leaves[0]]);
        for &l in &self.spec.leaves[1..] {
            out.add_assign(&node_outs[l]);
        }
        if self.spec.skip {
            out.add_assign(&stem_out);
        }
        for t in node_outs.drain(..) {
            ws.give4(t);
        }
        self.node_outs = node_outs;
        self.cache = Some(PhaseCache {
            stem_shape: stem_out.shape(),
        });
        ws.give4(stem_out);
        let pooled = self.pool.forward_ws(&out, ws);
        ws.give4(out);
        pooled
    }

    fn backward_ws(&mut self, grad: &Tensor4, ws: &mut Workspace) -> Tensor4 {
        let Some(cache) = self.cache.take() else {
            panic!("phase backward before forward")
        };
        let grad = self.pool.backward_ws(grad, ws);
        let (n, c, h, w) = cache.stem_shape;
        let mut node_grads = std::mem::take(&mut self.node_grads);
        node_grads.reserve(self.nodes.len());
        for _ in 0..self.nodes.len() {
            node_grads.push(ws.t4_zeroed(n, c, h, w));
        }
        let mut stem_grad = ws.t4_zeroed(n, c, h, w);
        for &l in &self.spec.leaves {
            node_grads[l].add_assign(&grad);
        }
        if self.spec.skip {
            stem_grad.add_assign(&grad);
        }
        ws.give4(grad);
        for i in (0..self.nodes.len()).rev() {
            let ng = std::mem::replace(&mut node_grads[i], empty_t4());
            let gin = self.nodes[i].backward_ws(ng, ws);
            if self.spec.node_inputs[i].is_empty() {
                stem_grad.add_assign(&gin);
            } else {
                for &j in &self.spec.node_inputs[i] {
                    node_grads[j].add_assign(&gin);
                }
            }
            ws.give4(gin);
        }
        for t in node_grads.drain(..) {
            ws.give4(t);
        }
        self.node_grads = node_grads;
        self.stem.backward_ws(stem_grad, ws)
    }

    fn visit_params(&mut self, f: ParamVisitor<'_>) {
        self.stem.visit_params(f);
        for node in &mut self.nodes {
            node.visit_params(f);
        }
    }

    fn rebuild_buffers(&mut self) {
        self.stem.rebuild_buffers();
        for node in &mut self.nodes {
            node.rebuild_buffers();
        }
        self.cache = None;
    }

    fn flops(&self, h: usize, w: usize) -> f64 {
        let mut total = self.stem.flops(h, w);
        for node in &self.nodes {
            total += node.flops(h, w);
        }
        // Sum joins + skip + pool.
        let joins: usize = self
            .spec
            .node_inputs
            .iter()
            .map(|ins| ins.len().saturating_sub(1))
            .sum::<usize>()
            + self.spec.leaves.len().saturating_sub(1)
            + usize::from(self.spec.skip);
        total += (joins * self.spec.out_channels * h * w) as f64;
        total += self.pool.flops(self.spec.out_channels, h, w);
        total
    }
}

/// A trainable phase-DAG network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    spec: NetSpec,
    phases: Vec<PhaseBlock>,
    gap: GlobalAvgPool,
    classifier: Dense,
}

impl Network {
    /// Instantiate a network from its spec with seeded weights.
    pub fn new<R: Rng + ?Sized>(spec: &NetSpec, rng: &mut R) -> Self {
        assert!(!spec.phases.is_empty(), "network needs at least one phase");
        let mut phases = Vec::with_capacity(spec.phases.len());
        let mut c_in = spec.input_channels;
        for ps in &spec.phases {
            phases.push(PhaseBlock::new(c_in, ps, rng));
            c_in = ps.out_channels;
        }
        let classifier = Dense::new(c_in, spec.num_classes, rng);
        Network {
            spec: spec.clone(),
            phases,
            gap: GlobalAvgPool::new(),
            classifier,
        }
    }

    /// The spec this network was built from.
    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }

    /// Forward pass returning classifier logits, drawing every
    /// intermediate activation from `ws`. The returned logits borrow pool
    /// storage; recycle them with [`Workspace::give2`] when done.
    pub fn forward_ws(&mut self, x: &Tensor4, training: bool, ws: &mut Workspace) -> Tensor2 {
        let pooled = self.features_ws(x, training, ws);
        let logits = self.classifier.forward_ws(&pooled, training, ws);
        ws.give2(pooled);
        logits
    }

    /// Everything before the classifier: the phases, then global average
    /// pooling.
    fn features_ws(&mut self, x: &Tensor4, training: bool, ws: &mut Workspace) -> Tensor2 {
        let mut act = self.phases[0].forward_ws(x, training, ws);
        for phase in &mut self.phases[1..] {
            let next = phase.forward_ws(&act, training, ws);
            ws.give4(act);
            act = next;
        }
        let pooled = self.gap.forward_ws(&act, ws);
        ws.give4(act);
        pooled
    }

    /// Backward pass from the logits gradient, drawing every
    /// intermediate gradient from `ws`.
    pub fn backward_ws(&mut self, dlogits: &Tensor2, ws: &mut Workspace) {
        let g = self.classifier.backward_ws(dlogits, ws);
        self.backward_features_ws(g, ws);
    }

    /// Backward through everything before the classifier, from the
    /// gradient with respect to the pooled features.
    fn backward_features_ws(&mut self, g: Tensor2, ws: &mut Workspace) {
        let mut g4 = self.gap.backward_ws(&g, ws);
        ws.give2(g);
        for phase in self.phases.iter_mut().rev() {
            let next = phase.backward_ws(&g4, ws);
            ws.give4(g4);
            g4 = next;
        }
        ws.give4(g4);
    }

    /// [`forward_ws`](Self::forward_ws) with the classifier on the sequential
    /// reference loops: the oracle of the whole-network check in
    /// `tests/dense_equivalence.rs`, which is its only caller.
    #[doc(hidden)]
    pub fn forward_reference_dense(&mut self, x: &Tensor4, training: bool) -> Tensor2 {
        let pooled = self.features_ws(x, training, &mut Workspace::default());
        reference::dense_forward(&mut self.classifier, &pooled)
    }

    /// [`backward_ws`](Self::backward_ws) counterpart of
    /// [`forward_reference_dense`](Self::forward_reference_dense).
    #[doc(hidden)]
    pub fn backward_reference_dense(&mut self, dlogits: &Tensor2) {
        let g = reference::dense_backward(&mut self.classifier, dlogits);
        self.backward_features_ws(g, &mut Workspace::default());
    }

    /// Visit all `(param, grad)` pairs in a stable order.
    pub fn visit_params(&mut self, f: ParamVisitor<'_>) {
        for phase in &mut self.phases {
            phase.visit_params(f);
        }
        self.classifier.visit_params(f);
    }

    /// Total trainable parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p, _| count += p.len());
        count
    }

    /// Exact forward FLOPs for one sample of `input_hw` pixels.
    pub fn flops(&self, input_hw: (usize, usize)) -> f64 {
        let (mut h, mut w) = input_hw;
        let mut total = 0.0;
        for phase in &self.phases {
            total += phase.flops(h, w);
            h = (h / 2).max(1);
            w = (w / 2).max(1);
        }
        let Some(last_phase) = self.spec.phases.last() else {
            unreachable!("spec has at least one phase")
        };
        let c_last = last_phase.out_channels;
        total += (c_last * h * w) as f64; // global average pool
        total += self.classifier.flops();
        total
    }

    /// Classification accuracy (%) over a [`Dataset`], forwarding at most
    /// `chunk` samples at a time (capping peak activation memory; `0` is
    /// clamped to 1) without materializing the set as one tensor: chunks
    /// are copied straight from the dataset's flat storage into a pooled
    /// batch buffer. Serial over chunks (inner ops still use the intra-op
    /// budget); `ws` persists across calls so steady-state evaluation
    /// allocates nothing. Chunking cannot change the result: eval-mode
    /// forward treats every sample independently (per-sample im2col,
    /// running BN stats, row-wise dense), and the correct-count sum is an
    /// integer.
    ///
    /// An empty dataset returns the sentinel `0.0` — accuracy over zero
    /// samples is undefined, and `0.0` keeps search callers (which treat
    /// accuracy as a fitness to maximize) conservative.
    pub fn evaluate_dataset(&mut self, ds: &Dataset, chunk: usize, ws: &mut Workspace) -> f32 {
        if ds.is_empty() {
            return 0.0;
        }
        let chunk = chunk.max(1);
        let mut x = ws.t4_scratch(chunk.min(ds.len()), ds.channels, ds.height, ds.width);
        let mut correct = 0usize;
        let mut start = 0;
        while start < ds.len() {
            let end = (start + chunk).min(ds.len());
            ds.copy_range_into(start, end, &mut x);
            let logits = self.forward_ws(&x, false, ws);
            correct += count_correct(&logits, &ds.labels[start..end]);
            ws.give2(logits);
            start = end;
        }
        ws.give4(x);
        100.0 * correct as f32 / ds.len() as f32
    }

    /// Rebuild transient buffers after deserialization.
    pub fn rebuild_buffers(&mut self) {
        for phase in &mut self.phases {
            phase.rebuild_buffers();
        }
        self.classifier.rebuild_buffers();
    }
}

/// Count rows of `logits` whose argmax matches the label. The argmax is
/// a plain `max_by` over `total_cmp` — the same reduction whether the
/// rows arrive chunked or whole, so every chunk size agrees bitwise.
fn count_correct(logits: &Tensor2, labels: &[usize]) -> usize {
    let mut correct = 0;
    for (r, &label) in labels.iter().enumerate() {
        let row = logits.row(r);
        let Some((pred, _)) = row.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)) else {
            unreachable!("logits row is non-empty")
        };
        if pred == label {
            correct += 1;
        }
    }
    correct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::cross_entropy_ws;
    use crate::optim::Sgd;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn tiny_spec() -> NetSpec {
        NetSpec {
            input_channels: 1,
            phases: vec![
                PhaseNetSpec {
                    out_channels: 4,
                    kernel: 3,
                    node_inputs: vec![vec![], vec![0]],
                    leaves: vec![1],
                    skip: true,
                },
                PhaseNetSpec::degenerate(8, 3),
            ],
            num_classes: 2,
        }
    }

    #[test]
    fn forward_shapes() {
        let mut net = Network::new(&tiny_spec(), &mut rng(1));
        let x = Tensor4::zeros(3, 1, 8, 8);
        let logits = net.forward_ws(&x, true, &mut Workspace::new());
        assert_eq!(logits.rows, 3);
        assert_eq!(logits.cols, 2);
    }

    #[test]
    fn param_count_is_positive_and_stable() {
        let mut net = Network::new(&tiny_spec(), &mut rng(2));
        let count = net.param_count();
        assert!(count > 100);
        assert_eq!(net.param_count(), count);
    }

    #[test]
    fn flops_positive_and_monotone_in_resolution() {
        let net = Network::new(&tiny_spec(), &mut rng(3));
        let lo = net.flops((8, 8));
        let hi = net.flops((16, 16));
        assert!(lo > 0.0);
        assert!(hi > lo);
    }

    #[test]
    fn deterministic_construction() {
        let mut a = Network::new(&tiny_spec(), &mut rng(5));
        let mut b = Network::new(&tiny_spec(), &mut rng(5));
        let x = Tensor4::zeros(1, 1, 8, 8);
        let mut ws = Workspace::new();
        let ya = a.forward_ws(&x, false, &mut ws);
        let yb = b.forward_ws(&x, false, &mut ws);
        assert_eq!(ya.data(), yb.data());
    }

    #[test]
    fn training_reduces_loss_on_separable_toy_task() {
        // Class 0: bright top half; class 1: bright bottom half.
        let mut r = rng(7);
        let mut ds = Dataset::empty(1, 8, 8);
        for i in 0..32 {
            let label = i % 2;
            let pixels: Vec<f32> = (0..64)
                .map(|p| {
                    let bright = if label == 0 { p / 8 < 4 } else { p / 8 >= 4 };
                    let base = if bright { 1.0 } else { 0.0 };
                    base + r.gen_range(-0.1..0.1)
                })
                .collect();
            ds.push(&pixels, label);
        }
        let mut images = Tensor4::zeros(0, 0, 0, 0);
        ds.copy_range_into(0, ds.len(), &mut images);
        let mut net = Network::new(&tiny_spec(), &mut r);
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        let mut ws = Workspace::new();
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..30 {
            let logits = net.forward_ws(&images, true, &mut ws);
            let out = cross_entropy_ws(&logits, &ds.labels, &mut ws);
            net.backward_ws(&out.dlogits, &mut ws);
            opt.step(&mut net);
            first_loss.get_or_insert(out.loss);
            last_loss = out.loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "loss {} -> {last_loss}",
            first_loss.unwrap()
        );
        let acc = net.evaluate_dataset(&ds, DEFAULT_EVAL_CHUNK, &mut Workspace::new());
        assert!(acc > 90.0, "train accuracy {acc}");
    }

    #[test]
    fn evaluate_on_empty_set_is_zero() {
        let mut net = Network::new(&tiny_spec(), &mut rng(8));
        let acc = net.evaluate_dataset(
            &Dataset::empty(1, 8, 8),
            DEFAULT_EVAL_CHUNK,
            &mut Workspace::new(),
        );
        assert_eq!(acc, 0.0);
    }

    #[test]
    #[should_panic(expected = "earlier nodes")]
    fn forward_reference_in_spec_panics() {
        let spec = NetSpec {
            input_channels: 1,
            phases: vec![PhaseNetSpec {
                out_channels: 4,
                kernel: 3,
                node_inputs: vec![vec![1], vec![]], // node 0 consuming node 1
                leaves: vec![1],
                skip: false,
            }],
            num_classes: 2,
        };
        let _ = Network::new(&spec, &mut rng(9));
    }

    #[test]
    fn multi_leaf_and_join_phase_trains() {
        let spec = NetSpec {
            input_channels: 1,
            phases: vec![PhaseNetSpec {
                out_channels: 4,
                kernel: 3,
                // Diamond: 0 and 1 read stem; 2 joins both; leaves 2.
                node_inputs: vec![vec![], vec![], vec![0, 1]],
                leaves: vec![2],
                skip: true,
            }],
            num_classes: 2,
        };
        let mut net = Network::new(&spec, &mut rng(10));
        let mut ws = Workspace::new();
        let x = Tensor4::zeros(2, 1, 8, 8);
        let logits = net.forward_ws(&x, true, &mut ws);
        let out = cross_entropy_ws(&logits, &[0, 1], &mut ws);
        net.backward_ws(&out.dlogits, &mut ws); // must not panic
    }
}
