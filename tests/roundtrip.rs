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

/// Element bit patterns the fused decode must carry through untouched:
/// both zeros, quiet and signaling NaNs with payloads, infinities.
const SPECIAL_BITS: [u32; 7] =
    [0x0000_0000, 0x8000_0000, 0x7fc0_0001, 0xffa0_0f00, 0x7f80_0001, 0x7f80_0000, 0xff80_0000];

/// A framed payload of three leading fields and a trailing rank-0..=4
/// tensor whose elements mix random bit patterns with [`SPECIAL_BITS`].
fn hashed_frame(seed: u64, rank: usize) -> Vec<u8> {
    use mvq::core::store::{frame_blob, put_opt_u64, put_str, put_tensor, put_u64, BlobKind};
    use rand::{Rng, RngCore};
    let mut rng = StdRng::seed_from_u64(seed);
    let dims: Vec<usize> = (0..rank).map(|_| rng.gen_range(0..=4usize)).collect();
    let numel = dims.iter().product();
    let data = (0..numel)
        .map(|_| {
            let bits = if rng.gen_bool(0.3) {
                SPECIAL_BITS[rng.gen_range(0..SPECIAL_BITS.len())]
            } else {
                rng.next_u32()
            };
            f32::from_bits(bits)
        })
        .collect();
    let weight = Tensor::from_vec(dims, data).expect("dims match data");
    let mut p = Vec::new();
    put_u64(&mut p, rng.next_u64());
    put_str(&mut p, &format!("layer{}", rng.gen_range(0..1000))).expect("short name");
    put_opt_u64(&mut p, rng.gen_bool(0.5).then(|| rng.next_u64()));
    put_tensor(&mut p, &weight).expect("rank fits");
    frame_blob(BlobKind::WireRequest, p)
}

type Fields = (u64, String, Option<u64>);

fn read_fields(r: &mut mvq::core::store::Reader<'_>) -> Result<Fields, mvq::core::MvqError> {
    Ok((r.u64()?, r.str()?, r.opt_u64()?))
}

/// The unfused reference: verify the frame, read the fields and the
/// tensor, then hash the tensor in a second pass.
fn reference_decode(frame: &[u8]) -> Result<(Fields, Tensor, u64), mvq::core::MvqError> {
    use mvq::core::store::{unframe_blob, weight_hash, BlobKind, Reader};
    let mut r = Reader::new(unframe_blob(BlobKind::WireRequest, frame)?);
    let fields = read_fields(&mut r)?;
    let tensor = r.tensor()?;
    r.finish()?;
    let hash = weight_hash(&tensor);
    Ok((fields, tensor, hash))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one-pass decode (checksum + weight hash + f32s in one loop)
    /// equals frame verification, field reads and a separate
    /// `weight_hash`, bit for bit; and a single flipped payload byte
    /// anywhere — leading fields, dims or elements — is the checksum
    /// mismatch, exactly as the unfused path reports it.
    #[test]
    fn fused_hashed_decode_equals_unframe_read_and_hash(seed in 0u64..u64::MAX, rank in 0usize..=4) {
        use mvq::core::store::{unframe_hashed, BlobKind, HashedWeight, HEADER_LEN};
        let frame = hashed_frame(seed, rank);
        let (fields, tensor, hash) = reference_decode(&frame).expect("reference decode");
        let (fused_fields, weight) =
            unframe_hashed(BlobKind::WireRequest, &frame, read_fields).expect("fused decode");
        prop_assert_eq!(&fused_fields, &fields);
        prop_assert_eq!(weight.tensor().dims(), tensor.dims());
        prop_assert_eq!(bits(weight.tensor()), bits(&tensor));
        prop_assert_eq!(weight.hash(), hash);
        prop_assert_eq!(HashedWeight::new(tensor).hash(), hash);

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for at in HEADER_LEN..frame.len() {
            let mut corrupt = frame.clone();
            corrupt[at] ^= rand::Rng::gen_range(&mut rng, 1..=255u8);
            let fused = unframe_hashed(BlobKind::WireRequest, &corrupt, read_fields);
            let reference = reference_decode(&corrupt);
            match (fused, reference) {
                (Err(mvq::core::MvqError::Codec(f)), Err(mvq::core::MvqError::Codec(r))) => {
                    prop_assert!(f.contains("checksum mismatch"), "byte {}: {}", at, f);
                    prop_assert_eq!(f, r, "byte {}", at);
                }
                (f, r) => prop_assert!(false, "byte {}: fused {:?}, reference {:?}", at, f, r),
            }
        }
    }
}

/// A tensor header claiming 2^32 - 1 elements over a 10-byte body is a
/// typed truncation error from both decoders — raised by the one
/// bounds-checked take of the body, before any element buffer exists.
#[test]
fn oversized_tensor_header_is_a_typed_error_before_allocation() {
    use mvq::core::store::{
        frame_blob, put_u64, put_u8, unframe_blob, unframe_hashed, BlobKind, Reader,
    };
    let mut p = Vec::new();
    put_u64(&mut p, 7);
    put_u8(&mut p, 1);
    put_u64(&mut p, u64::from(u32::MAX));
    p.extend_from_slice(&[0u8; 10]);
    let frame = frame_blob(BlobKind::WireRequest, p);
    match unframe_hashed(BlobKind::WireRequest, &frame, |r| r.u64()) {
        Err(mvq::core::MvqError::Codec(m)) => assert!(m.contains("truncated"), "{m}"),
        other => panic!("expected a typed truncation error, got {other:?}"),
    }
    let mut r = Reader::new(unframe_blob(BlobKind::WireRequest, &frame).expect("intact frame"));
    assert_eq!(r.u64().expect("id"), 7);
    match r.tensor() {
        Err(mvq::core::MvqError::Codec(m)) => assert!(m.contains("truncated"), "{m}"),
        other => panic!("expected a typed truncation error, got {other:?}"),
    }
}
