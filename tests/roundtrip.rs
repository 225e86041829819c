//! Round-trip property tests for the artifact codec (`mvq_core::store`):
//! for every registry algorithm over randomized shapes, specs and seeds,
//! `from_bytes(to_bytes(a))` must reconstruct **0-ULP identical** to `a`,
//! and the storage accounting must be preserved exactly.
//!
//! Run in debug *and* `--release` (CI does both): layout and
//! reassociation bugs are precisely the class that only shows under
//! optimizations.

use mvq::core::pipeline::{by_name, PipelineSpec, ALGORITHM_NAMES};
use mvq::core::store::{Persist, FORMAT_VERSION, MAGIC};
use mvq::core::{
    CompressedArtifact, GroupingStrategy, LayerArtifact, ModelArtifacts, MvqCompressor, MvqConfig,
};
use mvq::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// 0-ULP equality of artifact observables: reconstruction bit patterns,
/// storage breakdown, compression ratio, SSE bit patterns, dims.
fn assert_equivalent(
    a: &CompressedArtifact,
    b: &CompressedArtifact,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let ra = a.reconstruct().expect("reconstruct original");
    let rb = b.reconstruct().expect("reconstruct decoded");
    prop_assert_eq!(ra.dims(), rb.dims(), "{}: dims", ctx);
    prop_assert_eq!(bits(&ra), bits(&rb), "{}: reconstruction bits", ctx);
    prop_assert_eq!(a.storage(), b.storage(), "{}: storage", ctx);
    prop_assert_eq!(
        a.compression_ratio().to_bits(),
        b.compression_ratio().to_bits(),
        "{}: ratio",
        ctx
    );
    prop_assert_eq!(a.orig_dims(), b.orig_dims(), "{}: orig_dims", ctx);
    prop_assert_eq!(a.sse().map(f32::to_bits), b.sse().map(f32::to_bits), "{}: sse", ctx);
    Ok(())
}

/// Builds a randomized (weight, spec) pair valid for every registry
/// algorithm: d is a multiple of m, rows a multiple of d (output-channel-
/// wise grouping), and k small enough to stay clusterable.
fn weight_and_spec(
    seed: u64,
    row_blocks: usize,
    nmd: (usize, usize, usize),
) -> (Tensor, PipelineSpec) {
    let (keep_n, m, d) = nmd;
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = d * (row_blocks + 1);
    let cols = 4;
    let w = mvq::tensor::kaiming_normal(vec![rows, cols], cols, &mut rng);
    let spec = PipelineSpec { k: 4, d, keep_n, m, swap_trials: 50, ..PipelineSpec::default() };
    (w, spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every registry algorithm's artifact survives bytes with 0-ULP
    /// identical reconstruction and exact storage accounting.
    #[test]
    fn every_algorithm_round_trips_through_bytes(
        seed in 0u64..1_000_000,
        row_blocks in 1usize..4,
        nmd in prop_oneof![
            Just((2usize, 4usize, 8usize)),
            Just((4, 16, 16)),
            Just((2, 8, 16)),
        ],
    ) {
        let (w, spec) = weight_and_spec(seed, row_blocks, nmd);
        for name in ALGORITHM_NAMES {
            let comp = by_name(name, &spec).expect("valid spec");
            let artifact = comp
                .compress_matrix(&w, &mut StdRng::seed_from_u64(seed))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let encoded = artifact.to_bytes().unwrap_or_else(|e| panic!("{name}: encode: {e}"));
            let decoded = CompressedArtifact::from_bytes(&encoded)
                .unwrap_or_else(|e| panic!("{name}: decode: {e}"));
            assert_equivalent(&artifact, &decoded, name)?;
            // encoding is deterministic: re-encoding the decoded artifact
            // reproduces the exact bytes
            prop_assert_eq!(
                encoded,
                decoded.to_bytes().expect("re-encode"),
                "{}: re-encode drifted",
                name
            );
        }
    }

    /// Layer and model wrappers round-trip, including skipped-conv lists
    /// and the algorithm name.
    #[test]
    fn model_artifacts_round_trip(algo_idx in 0usize..ALGORITHM_NAMES.len(), seed in 0u64..10_000) {
        let name = ALGORITHM_NAMES[algo_idx];
        let spec = PipelineSpec { k: 8, swap_trials: 50, ..PipelineSpec::default() };
        let comp = by_name(name, &spec).expect("valid spec");
        let mut rng = StdRng::seed_from_u64(seed);
        let model = mvq::nn::models::tiny_cnn(4, 8, &mut rng);
        let arts = comp
            .compress_model_artifacts(&model, &mut rng)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let decoded =
            ModelArtifacts::from_bytes(&arts.to_bytes().unwrap_or_else(|e| panic!("{name}: {e}")))
                .unwrap_or_else(|e| panic!("{name}: decode: {e}"));
        prop_assert_eq!(decoded.algorithm, arts.algorithm);
        prop_assert_eq!(&decoded.skipped, &arts.skipped);
        prop_assert_eq!(decoded.layers.len(), arts.layers.len());
        prop_assert_eq!(decoded.storage(), arts.storage());
        for (a, b) in arts.layers.iter().zip(&decoded.layers) {
            prop_assert_eq!(a.conv_index, b.conv_index);
            assert_equivalent(&a.artifact, &b.artifact, name)?;
        }
        // a single layer round-trips standalone too
        let layer = &arts.layers[0];
        let layer_decoded =
            LayerArtifact::from_bytes(&layer.to_bytes().expect("layer encode"))
                .expect("layer decode");
        prop_assert_eq!(layer_decoded.conv_index, layer.conv_index);
        assert_equivalent(&layer.artifact, &layer_decoded.artifact, name)?;
        if name == "mvq" {
            // one codebook shared by every layer: still counted once after decode
            let cfg = MvqConfig::new(spec.k, spec.d, spec.keep_n, spec.m).expect("valid spec");
            let shared = MvqCompressor::new(cfg)
                .compress_model_shared(&model, &mut rng)
                .expect("shared compress");
            let decoded = ModelArtifacts::from_bytes(&shared.to_bytes().expect("shared encode"))
                .expect("shared decode");
            prop_assert_eq!(decoded.storage(), shared.storage());
            prop_assert_eq!(decoded.fingerprint().unwrap(), shared.fingerprint().unwrap());
            let cb = shared.layers[0].artifact.codebook().expect("mvq has a codebook");
            prop_assert_eq!(decoded.storage().codebook_bits, cb.storage_bits());
        }
    }

    /// Grouping strategies and unquantized codebooks are preserved (the
    /// non-default corners of the per-variant field layout).
    #[test]
    fn non_default_spec_corners_round_trip(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = mvq::tensor::kaiming_normal(vec![16, 4, 3, 3], 36, &mut rng);
        let spec = PipelineSpec {
            k: 4,
            d: 9,
            keep_n: 3,
            m: 9,
            grouping: GroupingStrategy::KernelWise,
            codebook_bits: None, // fp32 codebook: Option-tag path
            swap_trials: 50,
            ..PipelineSpec::default()
        };
        for name in ["mvq", "vq-c", "pqf", "bgd"] {
            let artifact = by_name(name, &spec)
                .expect("valid spec")
                .compress_matrix(&w, &mut StdRng::seed_from_u64(seed))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let decoded =
                CompressedArtifact::from_bytes(&artifact.to_bytes().expect("encode"))
                    .expect("decode");
            assert_equivalent(&artifact, &decoded, name)?;
            prop_assert_eq!(
                decoded.codebook().expect("has codebook").bits(),
                None,
                "{}: fp32 codebook must stay unquantized",
                name
            );
        }
    }
}

/// Golden-blob regression pin for format v1: a hand-assembled scalar
/// artifact whose exact bytes are pinned. If the layout ever changes this
/// fails, which is the signal to bump `FORMAT_VERSION`, re-pin against
/// the new version, and keep this old-version decode path working.
#[test]
fn format_v1_golden_blob_decodes() {
    let quantized = Tensor::from_vec(vec![2, 2], vec![0.5, -0.5, 1.0, 0.0]).unwrap();
    let artifact = CompressedArtifact::Scalar(mvq::core::pipeline::ScalarQuantized {
        result: mvq::core::baselines::pvq::PvqResult { quantized, scale: 0.5, bits: 2, sse: 0.25 },
    });
    let encoded = artifact.to_bytes().expect("encode");
    // header: magic + version + kind(artifact) + payload_len + checksum
    assert_eq!(&encoded[0..4], &MAGIC);
    assert_eq!(u16::from_le_bytes(encoded[4..6].try_into().unwrap()), FORMAT_VERSION);
    let golden: Vec<u8> = vec![
        // magic "MVQA", version 1, kind 0
        0x4d, 0x56, 0x51, 0x41, 0x01, 0x00, 0x00, //
        // payload length 46
        0x2e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        // FNV-1a payload checksum
        0x18, 0x7b, 0x29, 0x91, 0x01, 0x87, 0xf8, 0x2e, //
        // payload: variant tag 3 (scalar)
        0x03, //
        // tensor dims: rank 2, [2, 2]
        0x02, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        // f32 bit patterns: 0.5, -0.5, 1.0, 0.0
        0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0x00, 0xbf, //
        0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x00, //
        // scale 0.5, bits 2, sse 0.25
        0x00, 0x00, 0x00, 0x3f, 0x02, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0x80, 0x3e,
    ];
    assert_eq!(
        encoded, golden,
        "format v1 layout drifted — bump FORMAT_VERSION and keep this blob decodable"
    );
    let decoded = CompressedArtifact::from_bytes(&golden).expect("golden v1 blob must decode");
    assert_eq!(bits(&decoded.reconstruct().unwrap()), bits(&artifact.reconstruct().unwrap()));
}
