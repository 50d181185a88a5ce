//! Model checkpointing.
//!
//! §2.2.2: "the workflow orchestrator writes the partially trained NN's
//! state to memory, such that each model can be loaded and re-evaluated
//! from any point in the training phase." A [`ModelState`] is that
//! state: the spec plus every parameter and batch-norm statistic, with a
//! compact little-endian binary wire format and serde support for JSON
//! record trails.

use crate::graph::{NetSpec, Network};
use serde::{Deserialize, Serialize};

/// A serializable snapshot of a network's trainable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelState {
    /// The architecture spec.
    pub spec: NetSpec,
    /// Flattened parameter tensors in visit order (including running
    /// batch-norm statistics captured separately by the snapshotting
    /// network clone).
    pub params: Vec<Vec<f32>>,
    /// Epoch at which the snapshot was taken (0 = initialization).
    pub epoch: u32,
}

impl ModelState {
    /// Capture the current state of `net`.
    pub fn capture(net: &mut Network, epoch: u32) -> Self {
        let mut params = Vec::new();
        net.visit_params(&mut |p, _| params.push(p.to_vec()));
        ModelState {
            spec: net.spec().clone(),
            params,
            epoch,
        }
    }

    /// Rebuild a network carrying this state. The RNG seeds the transient
    /// construction only; all trainable parameters are overwritten.
    pub fn restore(&self, rng: &mut impl rand::Rng) -> Network {
        let mut net = Network::new(&self.spec, rng);
        let mut cursor = 0usize;
        let params = &self.params;
        net.visit_params(&mut |p, _| {
            assert!(cursor < params.len(), "state has too few tensors");
            assert_eq!(
                p.len(),
                params[cursor].len(),
                "tensor {cursor} size mismatch"
            );
            p.copy_from_slice(&params[cursor]);
            cursor += 1;
        });
        assert_eq!(cursor, params.len(), "state has too many tensors");
        net
    }

    /// Compact binary encoding: a little-endian stream of tensor lengths
    /// and payloads wrapped around the JSON-encoded spec.
    pub fn to_bytes(&self) -> Vec<u8> {
        let spec_json = match serde_json::to_vec(&self.spec) {
            Ok(json) => json,
            // NetSpec is a plain data struct; serialization cannot fail.
            Err(e) => unreachable!("spec serializes: {e}"),
        };
        let mut buf = Vec::with_capacity(
            16 + spec_json.len() + self.params.iter().map(|p| 4 + p.len() * 4).sum::<usize>(),
        );
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&(spec_json.len() as u32).to_le_bytes());
        buf.extend_from_slice(&spec_json);
        buf.extend_from_slice(&(self.params.len() as u32).to_le_bytes());
        for p in &self.params {
            buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
            for &v in p {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    /// Decode the binary form produced by [`to_bytes`](Self::to_bytes).
    ///
    /// The input is untrusted (a checkpoint file on disk): every length
    /// is checked against the bytes that remain before anything is
    /// allocated for it.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, String> {
        let epoch = read_u32(&mut data)?;
        let spec_len = read_u32(&mut data)? as usize;
        let spec: NetSpec = serde_json::from_slice(take(&mut data, spec_len)?)
            .map_err(|e| format!("bad spec: {e}"))?;
        let n_tensors = read_u32(&mut data)? as usize;
        // Every tensor needs at least its 4-byte length.
        if n_tensors > data.len() / 4 {
            return Err(truncated(n_tensors.saturating_mul(4)));
        }
        let mut params = Vec::with_capacity(n_tensors);
        for _ in 0..n_tensors {
            let len = read_u32(&mut data)? as usize;
            let payload = take(&mut data, len.saturating_mul(4))?;
            params.push(
                payload
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect(),
            );
        }
        Ok(ModelState {
            spec,
            params,
            epoch,
        })
    }
}

fn truncated(need: usize) -> String {
    format!("truncated model state: need {need} more bytes")
}

/// Split the next `n` bytes off the front of `data`.
fn take<'a>(data: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
    if data.len() < n {
        return Err(truncated(n));
    }
    let (head, rest) = data.split_at(n);
    *data = rest;
    Ok(head)
}

/// Read the next little-endian `u32` off the front of `data`.
fn read_u32(data: &mut &[u8]) -> Result<u32, String> {
    let b = take(data, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PhaseNetSpec;
    use crate::tensor::Tensor4;
    use crate::workspace::Workspace;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn spec() -> NetSpec {
        NetSpec {
            input_channels: 1,
            phases: vec![PhaseNetSpec {
                out_channels: 4,
                kernel: 3,
                node_inputs: vec![vec![], vec![0]],
                leaves: vec![1],
                skip: false,
            }],
            num_classes: 2,
        }
    }

    #[test]
    fn capture_restore_preserves_outputs() {
        let mut net = Network::new(&spec(), &mut rng(1));
        let state = ModelState::capture(&mut net, 7);
        assert_eq!(state.epoch, 7);
        let mut restored = state.restore(&mut rng(999)); // different seed on purpose
        let x = Tensor4::from_vec(1, 1, 6, 6, (0..36).map(|i| i as f32 / 36.0).collect());
        let mut ws = Workspace::new();
        assert_eq!(
            net.forward_ws(&x, false, &mut ws).data(),
            restored.forward_ws(&x, false, &mut ws).data()
        );
    }

    #[test]
    fn binary_roundtrip() {
        let mut net = Network::new(&spec(), &mut rng(2));
        let state = ModelState::capture(&mut net, 3);
        let bytes = state.to_bytes();
        let back = ModelState::from_bytes(&bytes).unwrap();
        assert_eq!(state, back);
    }

    #[test]
    fn truncated_bytes_error() {
        let mut net = Network::new(&spec(), &mut rng(3));
        let state = ModelState::capture(&mut net, 0);
        let bytes = state.to_bytes();
        assert!(ModelState::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn hostile_tensor_count_errors_instead_of_allocating() {
        // A valid header whose tensor count claims u32::MAX tensors: the
        // decoder must refuse it, not reserve ~100 GB and abort.
        let mut net = Network::new(&spec(), &mut rng(3));
        let mut bytes = ModelState::capture(&mut net, 1).to_bytes();
        let spec_len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        bytes[8 + spec_len..12 + spec_len].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ModelState::from_bytes(&bytes).unwrap_err();
        assert!(err.starts_with("truncated model state"), "{err}");
    }

    #[test]
    fn json_roundtrip() {
        let mut net = Network::new(&spec(), &mut rng(4));
        let state = ModelState::capture(&mut net, 12);
        let json = serde_json::to_string(&state).unwrap();
        let back: ModelState = serde_json::from_str(&json).unwrap();
        assert_eq!(state, back);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn restore_rejects_mismatched_tensors() {
        let mut net = Network::new(&spec(), &mut rng(5));
        let mut state = ModelState::capture(&mut net, 0);
        state.params[0].pop();
        let _ = state.restore(&mut rng(6));
    }
}
