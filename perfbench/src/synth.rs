//! Seeded input generation. The program only ever sees the tensors made
//! here; the same `--seed` always yields the same inputs.

use mvq_core::pipeline::PipelineSpec;
use mvq_core::{LayerMeta, LayerStream, MvqError};
use mvq_tensor::{kaiming_normal, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Conv weight dims of the ResNet-18-lite stack, in visit order.
pub fn resnet18_lite_dims() -> Vec<Vec<usize>> {
    // shapes only: the model's own initial values are never used
    let model = mvq_nn::models::resnet18_lite(10, &mut StdRng::seed_from_u64(0));
    let mut dims = Vec::new();
    model.visit_convs(&mut |conv| dims.push(conv.weight.value.dims().to_vec()));
    dims
}

/// A Kaiming-normal weight of `dims` drawn from `seed`.
pub fn weight(dims: &[usize], seed: u64) -> Tensor {
    let fan_in: usize = dims[1..].iter().product();
    kaiming_normal(dims.to_vec(), fan_in.max(1), &mut StdRng::seed_from_u64(seed))
}

/// Whether `spec`'s grouping accepts `dims` (the stream skips the rest;
/// the wire workloads never send them).
pub fn compressible(dims: &[usize], spec: &PipelineSpec) -> bool {
    spec.grouping.group(&Tensor::zeros(dims.to_vec()), spec.d).is_ok()
}

/// Weight bytes of a layer of `dims`.
pub fn bytes_of(dims: &[usize]) -> u64 {
    (dims.iter().product::<usize>() * 4) as u64
}

/// The synthetic model stream: `dims` materialized one layer at a time
/// from a per-layer seed, never all resident at once.
#[derive(Debug, Clone)]
pub struct SyntheticModel {
    /// Per-conv dims.
    pub dims: Vec<Vec<usize>>,
    /// Base seed; conv `i` draws from `mix(seed, i)`.
    pub seed: u64,
}

impl SyntheticModel {
    /// `reps` copies of the ResNet-18-lite conv stack.
    pub fn resnet18_lite_x(reps: usize, seed: u64) -> SyntheticModel {
        let proto = resnet18_lite_dims();
        let dims = (0..reps).flat_map(|_| proto.iter().cloned()).collect();
        SyntheticModel { dims, seed }
    }

    /// Conv `i`'s weight.
    pub fn layer(&self, i: usize) -> Tensor {
        weight(&self.dims[i], mix(self.seed, i as u64))
    }

    /// Total weight bytes.
    pub fn total_bytes(&self) -> u64 {
        self.dims.iter().map(|d| bytes_of(d)).sum()
    }

    /// The largest layer's weight bytes.
    pub fn largest_bytes(&self) -> u64 {
        self.dims.iter().map(|d| bytes_of(d)).max().unwrap_or(0)
    }
}

impl LayerStream for SyntheticModel {
    fn layer_meta(&self) -> Vec<LayerMeta> {
        self.dims.iter().map(|d| LayerMeta { depthwise: false, bytes: bytes_of(d) }).collect()
    }

    fn materialize(&mut self, conv_index: usize) -> Result<Tensor, MvqError> {
        Ok(self.layer(conv_index))
    }
}

/// One weight the wire workloads send: its content seed also pins the
/// compression seed, so the request is fully reproducible.
#[derive(Debug, Clone)]
pub struct WireItem {
    /// The weight.
    pub weight: Tensor,
    /// The request's pinned compression seed.
    pub seed: u64,
}

/// The hot set: one weight per compressible ResNet-18-lite conv shape,
/// as a model (for streaming it) and as requests.
pub fn hot_set(seed: u64, spec: &PipelineSpec) -> (SyntheticModel, Vec<WireItem>) {
    let dims: Vec<Vec<usize>> =
        resnet18_lite_dims().into_iter().filter(|d| compressible(d, spec)).collect();
    let model = SyntheticModel { dims, seed: mix(seed, 0x4f7) };
    let items = (0..model.dims.len())
        .map(|i| WireItem { weight: model.layer(i), seed: mix(model.seed, 1000 + i as u64) })
        .collect();
    (model, items)
}

/// Dims of a fresh miss in the mixed workload.
pub const MISS_DIMS: [usize; 2] = [512, 16];

/// The `i`-th fresh miss: a never-seen 512×16 weight.
pub fn miss(seed: u64, i: u64) -> WireItem {
    let s = mix(seed ^ 0x6d15_5000, i);
    WireItem { weight: weight(&MISS_DIMS, s), seed: s }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_ten_resnet18_lite_stacks() {
        let m = SyntheticModel::resnet18_lite_x(10, 1);
        assert_eq!(m.dims.len(), 150);
        assert_eq!(m.total_bytes(), 6_939_520);
        assert_eq!(m.largest_bytes(), 147_456);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = SyntheticModel::resnet18_lite_x(1, 5);
        let b = SyntheticModel::resnet18_lite_x(1, 5);
        let c = SyntheticModel::resnet18_lite_x(1, 6);
        assert_eq!(a.layer(3).data(), b.layer(3).data());
        assert_ne!(a.layer(3).data(), c.layer(3).data());
        assert_eq!(miss(9, 4).weight.data(), miss(9, 4).weight.data());
        assert_ne!(miss(9, 4).seed, miss(9, 5).seed);
    }
}
