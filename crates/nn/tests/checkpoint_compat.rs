//! Checkpoints written before the `Naive|Gemm` kernel switch was removed
//! carry a `"conv_impl"` key on every `Conv2d` and a `"dense_impl"` key on
//! every `Dense`. They must keep loading, and must evaluate exactly as
//! they did when they were written.
//!
//! `fixtures/network_with_impl_keys.json` was produced by the last commit
//! that had the switch: `{"network": <Network>, "logits": [..],
//! "hyperparams": <TrainingHyperparams>}`, the logits being that commit's
//! eval-mode forward of [`probe_input`]. The hyperparameters, which carry
//! the same two keys, are checked where their type lives
//! (`a4nn-core`'s `real` module).
//!
//! `fixtures/model_state_epoch_7.a4nn` is the binary checkpoint format as
//! the last commit with the vendored `bytes` crate wrote it for
//! [`fixture_state`]; the slice-based codec must write and read it
//! byte for byte.

use a4nn_nn::{ModelState, NetSpec, Network, PhaseNetSpec, Tensor4};
use rand::SeedableRng;

const FIXTURE: &str = include_str!("fixtures/network_with_impl_keys.json");
const STATE_FIXTURE: &[u8] = include_bytes!("fixtures/model_state_epoch_7.a4nn");

/// The small seeded net at epoch 7 that `STATE_FIXTURE` encodes.
fn fixture_state() -> ModelState {
    let spec = NetSpec {
        input_channels: 1,
        phases: vec![PhaseNetSpec {
            out_channels: 4,
            kernel: 3,
            node_inputs: vec![vec![], vec![0]],
            leaves: vec![1],
            skip: false,
        }],
        num_classes: 2,
    };
    let mut net = Network::new(&spec, &mut rand::rngs::StdRng::seed_from_u64(2023));
    ModelState::capture(&mut net, 7)
}

#[test]
fn binary_checkpoint_format_is_unchanged() {
    let state = fixture_state();
    assert_eq!(state.to_bytes(), STATE_FIXTURE, "encoder drifted");
    let decoded = ModelState::from_bytes(STATE_FIXTURE).expect("fixture decodes");
    assert_eq!(decoded, state);
    assert_eq!(decoded.to_bytes(), STATE_FIXTURE);
}

#[derive(serde::Deserialize)]
struct OldCheckpoint {
    network: Network,
    logits: Vec<f32>,
}

fn probe_input() -> Tensor4 {
    let data = (0..128)
        .map(|i| ((i * 37 % 101) as f32) / 101.0 - 0.5)
        .collect();
    Tensor4::from_vec(2, 1, 8, 8, data)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn checkpoint_with_impl_keys_loads_and_evaluates_bitwise_equal() {
    assert!(FIXTURE.contains("\"conv_impl\"") && FIXTURE.contains("\"dense_impl\""));
    let old: OldCheckpoint = serde_json::from_str(FIXTURE).expect("old checkpoint loads");
    let mut loaded = old.network;
    loaded.rebuild_buffers();

    let fresh_json = serde_json::to_string(&loaded).expect("network serializes");
    assert!(
        !fresh_json.contains("_impl"),
        "a fresh checkpoint carries no kernel-switch key"
    );
    let mut fresh: Network = serde_json::from_str(&fresh_json).expect("fresh copy loads");
    fresh.rebuild_buffers();

    let x = probe_input();
    let from_old = loaded.forward(&x, false);
    let from_fresh = fresh.forward(&x, false);
    assert_eq!(bits(from_old.data()), bits(from_fresh.data()));
    assert_eq!(
        bits(from_old.data()),
        bits(&old.logits),
        "the checkpoint evaluates as it did when it was written"
    );
}
