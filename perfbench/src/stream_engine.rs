//! Streams a synthetic model through `mvq_core::stream_compress` and
//! times each layer from the benchmark's side of the API.
//!
//! Two hooks sit at the program's public seams: a [`LayerStream`] that
//! records when each layer is admitted into the window, and a delegating
//! [`Compressor`] that records when a worker starts and finishes it.
//! Untraced, the compressor delegates to the registry `mvq` compressor
//! untouched. Traced, it runs the same steps through their public entry
//! points — `GroupingStrategy::group` + `prune_matrix_nm`,
//! `masked_kmeans`, `Codebook::quantize` — with a span around each, then
//! times one extra `masked_assign_with` pass with the final codebook and
//! one `Persist::to_bytes` of the artifact. The traced artifact is
//! checked bit-identical to the registry compressor's by the same gate.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use mvq_core::pipeline::{by_name, PipelineSpec};
use mvq_core::store::{ArtifactCache, BlobKind, CacheKey};
use mvq_core::{
    load_streamed_model, masked_assign_with, masked_kmeans, prune_matrix_nm, stream_compress,
    CompressedArtifact, CompressedMatrix, Compressor, LayerArtifact, LayerMeta, LayerStream,
    MaskedDistancePlan, MvqConfig, MvqError, Persist, StreamConfig, StreamReport,
};
use mvq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::synth::{mix, SyntheticModel};
use crate::trace::Tracer;

/// One layer's pass through the pipeline, ns on the tracer's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTiming {
    /// Conv index.
    pub conv: usize,
    /// Materialized into the window.
    pub admitted_ns: u64,
    /// A worker started compressing it.
    pub start_ns: u64,
    /// The worker finished compressing it.
    pub end_ns: u64,
    /// Whether compression produced an artifact (shape skips do not).
    pub compressed: bool,
}

/// Work counts of one traced layer, for the kernel roofline figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerWork {
    /// Subvectors.
    pub ng: usize,
    /// Codewords actually used.
    pub k: usize,
    /// Subvector length.
    pub d: usize,
    /// k-means iterations run.
    pub iterations: usize,
    /// The measured single assignment pass without its mask-plan build,
    /// ns.
    pub assign_ns: u64,
    /// One mask-plan build (`MaskedDistancePlan::new`), ns.
    pub plan_ns: u64,
    /// The masked_kmeans span, ns.
    pub kmeans_ns: u64,
    /// Encoded artifact bytes.
    pub encoded_bytes: usize,
}

impl LayerWork {
    /// Floating-point operations of one masked assignment pass, computed
    /// from tensor sizes: a subtract, a multiply and an add per lane for
    /// every (subvector, codeword) pair.
    pub fn assign_flops(&self) -> f64 {
        3.0 * (self.ng * self.k * self.d) as f64
    }

    /// Bytes one assignment pass reads and writes, computed from tensor
    /// sizes: the f32 data and codebook, and the u32 assignments.
    pub fn assign_bytes(&self) -> f64 {
        (4 * (self.ng * self.d + self.k * self.d + self.ng)) as f64
    }

    /// Assignment passes inside `masked_kmeans`: one per iteration plus
    /// the final one.
    pub fn passes(&self) -> f64 {
        (self.iterations + 1) as f64
    }
}

/// Shared between the producer hook, the worker hook and the caller.
#[derive(Debug, Default)]
struct Log {
    /// Weight buffer address → (conv, admitted ns). A materialized
    /// weight's heap buffer moves with it to the worker unchanged, and
    /// it is removed here before the buffer can be freed and reused.
    admitted: Mutex<HashMap<usize, (usize, u64)>>,
    timings: Mutex<Vec<LayerTiming>>,
    work: Mutex<Vec<LayerWork>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("stream hook lock poisoned by a panicking worker")
}

/// The benchmark's [`LayerStream`]: materializes the synthetic model
/// and stamps each layer's admission.
struct Source<'a> {
    model: SyntheticModel,
    clock: &'a Tracer,
    traced: bool,
    log: &'a Log,
}

impl LayerStream for Source<'_> {
    fn layer_meta(&self) -> Vec<LayerMeta> {
        self.model.layer_meta()
    }

    fn materialize(&mut self, conv_index: usize) -> Result<Tensor, MvqError> {
        let start = self.clock.now();
        let w = self.model.layer(conv_index);
        let end = self.clock.now();
        if self.traced {
            self.clock.record("stream.materialize", None, conv_index as u64, start, end);
        }
        lock(&self.log.admitted).insert(w.data().as_ptr() as usize, (conv_index, end));
        Ok(w)
    }
}

/// The delegating [`Compressor`] the stream's workers call.
struct Hooked<'a> {
    registry: Box<dyn Compressor>,
    cfg: MvqConfig,
    clock: &'a Tracer,
    traced: bool,
    log: &'a Log,
}

impl Hooked<'_> {
    /// The registry steps through their public entry points, one span
    /// each, under a `stream.compress` root.
    fn compress_traced(
        &self,
        w: &Tensor,
        rng: &mut StdRng,
        conv: u64,
    ) -> Result<CompressedArtifact, MvqError> {
        let t = self.clock;
        let cfg = &self.cfg;
        let root = t.open();
        let root_start = t.now();
        let finish = |r: Result<CompressedArtifact, MvqError>| {
            t.close(root, "stream.compress", None, conv, root_start);
            r
        };
        let pruned = t.span("pruning.prune_nm", Some(root), conv, || {
            cfg.grouping.group(w, cfg.d).and_then(|g| prune_matrix_nm(&g, cfg.keep_n, cfg.m))
        });
        let (pruned, mask) = match pruned {
            Ok(p) => p,
            Err(e) => return finish(Err(e)),
        };
        let km_start = t.now();
        let result = masked_kmeans(&pruned, &mask, &cfg.kmeans(), rng);
        let km_end = t.now();
        t.record("masked_kmeans", Some(root), conv, km_start, km_end);
        let mut result = match result {
            Ok(r) => r,
            Err(e) => return finish(Err(e)),
        };
        // the final codebook before quantization, for the timing pass
        let centers = result.codebook.centers().clone();
        let final_assign = result.assignments.indices().to_vec();
        if let Some(bits) = cfg.codebook_bits {
            if let Err(e) = result.codebook.quantize(bits) {
                return finish(Err(e));
            }
        }
        let (ng, d) = (pruned.dims()[0], pruned.dims()[1]);
        let k = result.codebook.k();
        let iterations = result.iterations;
        let artifact = CompressedMatrix::from_parts(
            result.codebook,
            result.assignments,
            mask.clone(),
            w.dims().to_vec(),
            cfg.grouping,
        )
        .map(|m| CompressedArtifact::Masked(m.with_sse(result.sse)));
        let artifact = finish(artifact)?;

        // off the pipeline's path: one assignment pass with the final
        // codebook (it must reproduce k-means' own final assignment), and
        // one encode of the artifact. masked_assign_with builds its mask
        // plan on every call while masked_kmeans builds it once, so the
        // build is timed alone and only the rest charged to the pass.
        let p_start = t.now();
        std::hint::black_box(MaskedDistancePlan::new(&mask)?);
        let plan_ns = t.now() - p_start;
        let a_start = t.now();
        let assign = masked_assign_with(cfg.kernel, &pruned, &mask, &centers)?;
        let a_end = t.now();
        t.record("kernels.assign", None, conv, a_start, a_end);
        if assign != final_assign {
            return Err(MvqError::InvalidConfig(format!(
                "conv {conv}: masked_assign_with disagrees with masked_kmeans' final assignment"
            )));
        }
        let e_start = t.now();
        let encoded = artifact.to_bytes()?;
        t.record("codec.encode", None, conv, e_start, t.now());
        lock(&self.log.work).push(LayerWork {
            ng,
            k,
            d,
            iterations,
            assign_ns: (a_end - a_start).saturating_sub(plan_ns),
            plan_ns,
            kmeans_ns: km_end - km_start,
            encoded_bytes: encoded.len(),
        });
        Ok(artifact)
    }
}

impl Compressor for Hooked<'_> {
    fn name(&self) -> &'static str {
        self.registry.name()
    }

    fn config_summary(&self) -> String {
        self.registry.config_summary()
    }

    fn compress_matrix(
        &self,
        weight: &Tensor,
        rng: &mut StdRng,
    ) -> Result<CompressedArtifact, MvqError> {
        let start_ns = self.clock.now();
        let (conv, admitted_ns) = lock(&self.log.admitted)
            .remove(&(weight.data().as_ptr() as usize))
            .ok_or_else(|| MvqError::InvalidConfig("worker got a weight never admitted".into()))?;
        let out = if self.traced {
            self.compress_traced(weight, rng, conv as u64)
        } else {
            self.registry.compress_matrix(weight, rng)
        };
        let end_ns = self.clock.now();
        lock(&self.log.timings).push(LayerTiming {
            conv,
            admitted_ns,
            start_ns,
            end_ns,
            compressed: out.is_ok(),
        });
        out
    }
}

/// One finished pass: its cache (still open, for the gates), the key it
/// is stored under, and the timings.
pub struct Pass {
    /// The synthetic model this pass streamed.
    pub model: SyntheticModel,
    /// Where its layers were spilled.
    pub cache: ArtifactCache,
    /// The cache's directory.
    pub dir: PathBuf,
    /// The model key.
    pub key: CacheKey,
    /// The stream's own report.
    pub report: StreamReport,
    /// Wall time of `stream_compress`, ns.
    pub wall_ns: u64,
    /// Per-layer timings, in completion order.
    pub timings: Vec<LayerTiming>,
    /// Per-layer work counts (traced passes only).
    pub work: Vec<LayerWork>,
}

/// Streams `model` into a fresh disk-backed cache under `dir`.
///
/// # Errors
///
/// Propagates stream, cache and compression errors.
pub fn run_pass(
    model: SyntheticModel,
    spec: &PipelineSpec,
    config: &StreamConfig,
    dir: &Path,
    clock: &Tracer,
    traced: bool,
) -> Result<Pass, MvqError> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = ArtifactCache::with_dir(dir)?;
    let key = CacheKey {
        algo: "mvq",
        weight_hash: mix(model.seed, 0x57ea),
        spec_fingerprint: spec.fingerprint(),
        kernel: spec.kernel,
        seed: mix(model.seed, 0x5eed),
    };
    let cfg = MvqConfig::new(spec.k, spec.d, spec.keep_n, spec.m)?
        .with_grouping(spec.grouping)
        .with_codebook_bits(spec.codebook_bits)
        .with_kernel(spec.kernel);
    let log = Log::default();
    let comp = Hooked { registry: by_name("mvq", spec)?, cfg, clock, traced, log: &log };
    let mut source = Source { model: model.clone(), clock, traced, log: &log };
    let start_ns = clock.now();
    let report = stream_compress(&comp, &mut source, &cache, &key, config, None)?;
    let wall_ns = clock.now() - start_ns;
    if traced {
        clock.record("stream.pass", None, 0, start_ns, start_ns + wall_ns);
    }
    let timings = std::mem::take(&mut *lock(&log.timings));
    let work = std::mem::take(&mut *lock(&log.work));
    Ok(Pass { model, cache, dir: dir.to_path_buf(), key, report, wall_ns, timings, work })
}

/// Times every layer blob is fetched back per pass, for the hit-latency
/// sample.
const RELOAD_ROUNDS: usize = 5;

/// What the correctness gate found for one pass.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Layers compared bit-for-bit against the registry oracle.
    pub oracle_checked: usize,
    /// Σ masked SSE recomputed from the reloaded artifacts.
    pub masked_sse: f64,
    /// Σ ‖W‖² over the compressed layers.
    pub weight_energy: f64,
    /// µs per `get_raw_kind` of each layer blob while reloading.
    pub reload_us: Vec<f64>,
}

/// Reloads the pass from its cache and checks it: the reassembly must be
/// complete, skip exactly the shapes the grouping rejects, and match the
/// registry `compress_matrix` oracle bit-for-bit on `sample` layers.
/// Recomputes the masked SSE from the reloaded artifacts.
///
/// # Errors
///
/// A readable description of the first failed check.
pub fn gate(pass: &Pass, spec: &PipelineSpec, sample: &[usize]) -> Result<GateReport, String> {
    let loaded = load_streamed_model(&pass.cache, &pass.key)
        .map_err(|e| format!("reload failed: {e}"))?
        .ok_or("the streamed model is missing from its cache")?;
    let n = pass.model.dims.len();
    let expect_skipped: Vec<usize> =
        (0..n).filter(|&i| !crate::synth::compressible(&pass.model.dims[i], spec)).collect();
    if loaded.skipped != expect_skipped {
        return Err(format!("skipped {:?}, expected {expect_skipped:?}", loaded.skipped));
    }
    if loaded.layers.len() + loaded.skipped.len() != n {
        return Err(format!(
            "{} layers + {} skipped != {n}",
            loaded.layers.len(),
            loaded.skipped.len()
        ));
    }
    let mut out = GateReport::default();
    for _ in 0..RELOAD_ROUNDS {
        for layer in &loaded.layers {
            let key = pass.key.layer_key(layer.conv_index);
            let t = std::time::Instant::now();
            let blob = pass.cache.get_raw_kind(&key, BlobKind::Layer);
            out.reload_us.push(t.elapsed().as_secs_f64() * 1e6);
            blob.map_err(|e| format!("layer blob reload failed: {e}"))?
                .ok_or("layer blob vanished between reloads")?;
        }
    }
    // per-conv seeds: the serial draws stream_compress makes
    let mut rng = StdRng::seed_from_u64(pass.key.seed);
    let seeds: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let oracle = by_name("mvq", spec).map_err(|e| e.to_string())?;
    for &conv in sample {
        let Some(layer) = loaded.layers.iter().find(|l| l.conv_index == conv) else {
            continue; // a skipped shape
        };
        let w = pass.model.layer(conv);
        let expected = oracle
            .compress_matrix(&w, &mut StdRng::seed_from_u64(seeds[conv]))
            .map_err(|e| format!("oracle failed on conv {conv}: {e}"))?;
        let expected = LayerArtifact { conv_index: conv, artifact: expected }.to_bytes();
        if expected.ok() != layer.to_bytes().ok() {
            return Err(format!("conv {conv}: streamed artifact differs from the oracle"));
        }
        out.oracle_checked += 1;
    }
    for layer in &loaded.layers {
        let w = pass.model.layer(layer.conv_index);
        let (sse, energy) = masked_sse_of(&layer.artifact, &w, spec)?;
        out.masked_sse += sse;
        out.weight_energy += energy;
    }
    Ok(out)
}

/// Masked SSE of `artifact` against the original `w` (Σ over kept lanes
/// of (w − codeword)²) and ‖w‖², recomputed from the artifact's parts.
///
/// # Errors
///
/// Describes an artifact that is not masked or does not fit `w`.
pub fn masked_sse_of(
    artifact: &CompressedArtifact,
    w: &Tensor,
    spec: &PipelineSpec,
) -> Result<(f64, f64), String> {
    let CompressedArtifact::Masked(cm) = artifact else {
        return Err("mvq produced a non-masked artifact".into());
    };
    let g = spec.grouping.group(w, spec.d).map_err(|e| e.to_string())?;
    let d = spec.d;
    let (mask, cb, asg) = (cm.mask(), cm.codebook(), cm.assignments());
    if mask.ng() * d != g.numel() || asg.len() != mask.ng() {
        return Err(format!("artifact [{}, {d}] does not fit weight {:?}", mask.ng(), w.dims()));
    }
    let mut sse = 0.0f64;
    for (j, row) in g.data().chunks_exact(d).enumerate() {
        let c = cb.codeword(asg.of(j));
        for ((&x, &keep), &cv) in row.iter().zip(mask.row(j)).zip(c) {
            if keep {
                sse += f64::from(x - cv).powi(2);
            }
        }
    }
    let energy = w.data().iter().map(|&x| f64::from(x).powi(2)).sum();
    Ok((sse, energy))
}

/// µs per `put_raw_kind` of each of `pass`'s layer blobs into a fresh
/// disk-backed cache under `dir` (the writer thread's spill, fsync
/// included), replayed after the pass.
///
/// # Errors
///
/// Propagates cache errors.
pub fn replay_puts(pass: &Pass, dir: &Path) -> Result<Vec<f64>, MvqError> {
    let _ = std::fs::remove_dir_all(dir);
    let probe = ArtifactCache::with_dir(dir)?;
    let mut out = Vec::new();
    for &conv in &pass.report.index.layers {
        let key = pass.key.layer_key(conv);
        let Some(blob) = pass.cache.get_raw_kind(&key, BlobKind::Layer)? else {
            return Err(MvqError::InvalidConfig(format!("conv {conv} blob missing")));
        };
        let t = std::time::Instant::now();
        probe.put_raw_kind(&key, BlobKind::Layer, blob)?;
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(probe);
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}
