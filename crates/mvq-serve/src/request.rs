//! Typed, construction-validated compression requests.
//!
//! [`CompressionRequest`] is the unit of work [`crate::CompressionService`]
//! accepts: one weight matrix or one whole model. A request is validated
//! by [`CompressionRequestBuilder::build`]: the algorithm name is resolved
//! against the pipeline registry, the spec is compiled for that algorithm,
//! the weight is shape-checked (or the model checked for convs), and the
//! options are checked against the kind of work, each failure a typed
//! [`MvqError::InvalidConfig`]. A request that builds cannot fail
//! admission; only the compression itself can still error (per job, as a
//! [`crate::JobError`]).

use std::time::{Duration, Instant};

use mvq_core::pipeline::{by_name, canonical_name, PipelineSpec};
use mvq_core::store::{Fnv1a, HashedWeight};
use mvq_core::{model_weight_hash, MvqError, StreamConfig};
use mvq_nn::Sequential;
use mvq_tensor::Tensor;

use crate::ticket::CancelToken;

/// Scheduling priority of a request. Workers always pop the
/// highest-priority queued job; within one priority, submission order
/// (FIFO) breaks ties.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Run after everything else.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Run before Normal and Low work.
    High,
}

/// How a request interacts with the service's artifact cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CacheMode {
    /// Answer from the cache when possible and store fresh results — the
    /// default.
    #[default]
    ReadWrite,
    /// Answer from the cache when possible but never store — useful for
    /// probing without growing a budgeted cache.
    ReadOnly,
    /// Ignore the cache entirely: always compress fresh, store nothing,
    /// and never share another in-flight job's result.
    Bypass,
}

impl CacheMode {
    pub(crate) fn reads_cache(self) -> bool {
        !matches!(self, CacheMode::Bypass)
    }

    pub(crate) fn writes_cache(self) -> bool {
        matches!(self, CacheMode::ReadWrite)
    }

    /// Whether the request may share an identical in-flight job's result.
    /// The executing (first-submitted) job's mode governs cache writes.
    pub(crate) fn dedupes(self) -> bool {
        !matches!(self, CacheMode::Bypass)
    }
}

/// What a request compresses.
#[derive(Debug, Clone)]
pub(crate) enum Work {
    /// One weight matrix, hashed once when the request was started.
    Matrix(HashedWeight),
    /// Every conv of a model, streamed through the bounded-window
    /// pipeline. `hash` is the model's [`model_weight_hash`], computed
    /// once: both the content seed and the cache key derive from it.
    Model { model: Sequential, hash: u64, stream: StreamConfig },
}

impl Work {
    /// The content hash the cache key and the content seed derive from.
    fn hash(&self) -> u64 {
        match self {
            Work::Matrix(weight) => weight.hash(),
            Work::Model { hash, .. } => *hash,
        }
    }

    /// The content-seed domain. Both strings are pinned: existing
    /// unseeded cache blobs are keyed under them, so changing either
    /// would orphan them.
    fn seed_domain(&self) -> &'static [u8] {
        match self {
            Work::Matrix(_) => b"mvq.serve.contentseed.v1",
            Work::Model { .. } => b"mvq.serve.modelseed.v1",
        }
    }
}

/// One validated unit of work for [`crate::CompressionService`]: compress
/// one weight matrix, or stream-compress every conv of a model, with
/// `algo` under `spec`, at `priority`, interacting with the cache per
/// `cache_mode`.
///
/// Construct through [`CompressionRequest::builder`] (a weight) or
/// [`CompressionRequest::model_builder`] (a model); the fields are
/// read-only outside this crate, so a request in the queue can never be
/// in a state the service did not validate.
///
/// A model job spills each finished layer to the service's cache under
/// the model key's [`layer_key`](mvq_core::store::CacheKey::layer_key),
/// bounds its in-flight working set by its [`StreamConfig`] window, and
/// reports per-layer progress on [`crate::Ticket::progress`] while it
/// runs. The streaming pipeline *is* a cache writer, so model requests
/// are always [`CacheMode::ReadWrite`].
#[derive(Debug, Clone)]
pub struct CompressionRequest {
    pub(crate) name: String,
    pub(crate) work: Work,
    pub(crate) algo: &'static str,
    pub(crate) spec: PipelineSpec,
    pub(crate) seed: Option<u64>,
    pub(crate) priority: Priority,
    pub(crate) cache_mode: CacheMode,
    pub(crate) deadline: Option<Instant>,
    pub(crate) cancel: Option<CancelToken>,
}

impl CompressionRequest {
    /// Starts building a request to compress `weight` with the registry
    /// algorithm `algo` (aliases like `vq` are canonicalized at build).
    ///
    /// `weight` is a [`Tensor`] (hashed here, once) or a
    /// [`HashedWeight`] that already carries its hash — e.g. one the
    /// network front decoded and hashed in a single pass. The hash keys
    /// the cache and derives the content seed; the service never hashes
    /// the weight again.
    pub fn builder(
        name: impl Into<String>,
        weight: impl Into<HashedWeight>,
        algo: impl Into<String>,
    ) -> CompressionRequestBuilder {
        CompressionRequestBuilder::new(name.into(), Work::Matrix(weight.into()), algo.into())
    }

    /// Starts building a request to stream-compress every conv of
    /// `model` with the registry algorithm `algo` (aliases canonicalized
    /// at build). The model is hashed here, once.
    pub fn model_builder(
        name: impl Into<String>,
        model: Sequential,
        algo: impl Into<String>,
    ) -> CompressionRequestBuilder {
        let hash = model_weight_hash(&model);
        let work = Work::Model { model, hash, stream: StreamConfig::default() };
        CompressionRequestBuilder::new(name.into(), work, algo.into())
    }

    /// Caller-chosen label (e.g. a layer name); not part of the identity.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The weight tensor to compress; `None` for a model request.
    pub fn weight(&self) -> Option<&Tensor> {
        match &self.work {
            Work::Matrix(weight) => Some(weight.tensor()),
            Work::Model { .. } => None,
        }
    }

    /// The model whose convs will be streamed; `None` for a weight
    /// request.
    pub fn model(&self) -> Option<&Sequential> {
        match &self.work {
            Work::Matrix(_) => None,
            Work::Model { model, .. } => Some(model),
        }
    }

    /// The streaming window/worker knobs of a model request; `None` for
    /// a weight request. Not part of the cache identity: the streamed
    /// result is bit-identical across window shapes.
    pub fn stream(&self) -> Option<&StreamConfig> {
        match &self.work {
            Work::Matrix(_) => None,
            Work::Model { stream, .. } => Some(stream),
        }
    }

    /// The content hash computed once when the request was started: the
    /// weight's [`mvq_core::weight_hash`] or the model's
    /// [`model_weight_hash`].
    pub(crate) fn content_hash(&self) -> u64 {
        self.work.hash()
    }

    /// Canonical registry algorithm name.
    pub fn algo(&self) -> &'static str {
        self.algo
    }

    /// Pipeline hyperparameters.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// The pinned RNG seed, if any. `None` means the service derives a
    /// deterministic content seed so identical unseeded requests dedupe
    /// and cache across batches and processes.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Scheduling priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Cache interaction policy.
    pub fn cache_mode(&self) -> CacheMode {
        self.cache_mode
    }

    /// The queue deadline, if any. Not part of the cache identity.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The attached cancellation token, if any. Not part of the cache
    /// identity.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The seed this request will actually compress with: the pinned seed
    /// or the content-derived one.
    pub(crate) fn resolved_seed(&self) -> u64 {
        self.seed.unwrap_or_else(|| {
            content_seed(self.work.seed_domain(), self.work.hash(), &self.spec, self.algo)
        })
    }
}

/// Builder for [`CompressionRequest`]; see [`CompressionRequest::builder`]
/// and [`CompressionRequest::model_builder`].
#[derive(Debug, Clone)]
pub struct CompressionRequestBuilder {
    name: String,
    work: Work,
    algo: String,
    spec: PipelineSpec,
    stream: Option<StreamConfig>,
    seed: Option<u64>,
    priority: Priority,
    cache_mode: CacheMode,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl CompressionRequestBuilder {
    fn new(name: String, work: Work, algo: String) -> CompressionRequestBuilder {
        CompressionRequestBuilder {
            name,
            work,
            algo,
            spec: PipelineSpec::default(),
            stream: None,
            seed: None,
            priority: Priority::default(),
            cache_mode: CacheMode::default(),
            deadline: None,
            cancel: None,
        }
    }

    /// Sets the pipeline hyperparameters (default: [`PipelineSpec::default`]).
    pub fn spec(mut self, spec: PipelineSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets a model request's streaming window/worker knobs (default:
    /// [`StreamConfig::default`]). A weight request given a window is
    /// rejected at build.
    pub fn stream(mut self, stream: StreamConfig) -> Self {
        self.stream = Some(stream);
        self
    }

    /// Pins the RNG seed (the seed becomes part of the cache identity).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the scheduling priority (default: [`Priority::Normal`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the cache interaction policy (default: [`CacheMode::ReadWrite`]).
    /// A model request must stay `ReadWrite`; any other mode is rejected
    /// at build.
    pub fn cache_mode(mut self, mode: CacheMode) -> Self {
        self.cache_mode = mode;
        self
    }

    /// Sets an absolute queue deadline: a job still queued when `deadline`
    /// passes is dropped at dequeue with
    /// [`crate::JobError::Cancelled`] (`kind:`
    /// [`crate::CancelKind::DeadlineExpired`]) — expired work never
    /// occupies a worker. A job already running is not interrupted.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Shorthand for [`Self::deadline`] at `now + timeout`.
    pub fn deadline_after(self, timeout: Duration) -> Self {
        self.deadline(Instant::now() + timeout)
    }

    /// Attaches a cancellation token: cancelling any clone of `token`
    /// while the job is queued drops it at dequeue with
    /// [`crate::JobError::Cancelled`] (`kind:`
    /// [`crate::CancelKind::Explicit`]).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Validates and finishes the request.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when the name is empty, the
    /// weight has no elements, the model has no conv layers, the
    /// algorithm is unknown, the spec does not compile for the algorithm
    /// (e.g. `d` not a multiple of `m` for `mvq`), a weight request sets
    /// a stream window, or a model request's cache mode is not
    /// [`CacheMode::ReadWrite`].
    pub fn build(self) -> Result<CompressionRequest, MvqError> {
        let name = self.name;
        if name.is_empty() {
            return Err(MvqError::InvalidConfig("request name must not be empty".into()));
        }
        let work = match (self.work, self.stream) {
            (Work::Matrix(weight), None) => {
                if weight.tensor().numel() == 0 {
                    return Err(MvqError::InvalidConfig(format!(
                        "request `{name}`: weight of dims {:?} has no elements",
                        weight.tensor().dims()
                    )));
                }
                Work::Matrix(weight)
            }
            (Work::Matrix(_), Some(_)) => {
                return Err(MvqError::InvalidConfig(format!(
                    "request `{name}`: a stream window applies to model requests only"
                )));
            }
            (Work::Model { model, hash, stream }, window) => {
                let mut convs = 0usize;
                model.visit_convs(&mut |_| convs += 1);
                if convs == 0 {
                    return Err(MvqError::InvalidConfig(format!(
                        "request `{name}`: model has no conv layers to compress"
                    )));
                }
                if self.cache_mode != CacheMode::ReadWrite {
                    return Err(MvqError::InvalidConfig(format!(
                        "request `{name}`: a model job spills its layers to the cache, so its \
                         cache mode must be ReadWrite, not {:?}",
                        self.cache_mode
                    )));
                }
                Work::Model { model, hash, stream: window.unwrap_or(stream) }
            }
        };
        let algo = canonical_name(&self.algo).ok_or_else(|| {
            MvqError::InvalidConfig(format!("request `{name}`: unknown compressor `{}`", self.algo))
        })?;
        // compiling the compressor front-loads algorithm/spec mismatches
        // (the registry's own validation) to submission time
        by_name(algo, &self.spec)?;
        Ok(CompressionRequest {
            name,
            work,
            algo,
            spec: self.spec,
            seed: self.seed,
            priority: self.priority,
            cache_mode: self.cache_mode,
            deadline: self.deadline,
            cancel: self.cancel,
        })
    }
}

/// Deterministic seed for an unseeded request, derived from its content
/// identity under `domain` — the same weight (or model)/spec/algorithm
/// always compresses with the same RNG stream, so unseeded work dedupes
/// and caches across batches and processes.
fn content_seed(domain: &[u8], hash: u64, spec: &PipelineSpec, canonical_algo: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.update(domain);
    h.update_u64(hash);
    h.update_u64(spec.fingerprint());
    h.update(canonical_algo.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn weight() -> Tensor {
        let mut rng = StdRng::seed_from_u64(0);
        mvq_tensor::kaiming_normal(vec![32, 16], 16, &mut rng)
    }

    #[test]
    fn builder_validates_at_construction() {
        let ok = CompressionRequest::builder("a", weight(), "mvq")
            .spec(PipelineSpec { k: 8, ..PipelineSpec::default() })
            .seed(3)
            .priority(Priority::High)
            .cache_mode(CacheMode::ReadOnly)
            .build()
            .unwrap();
        assert_eq!(ok.algo(), "mvq");
        assert_eq!(ok.seed(), Some(3));
        assert_eq!(ok.priority(), Priority::High);
        assert_eq!(ok.cache_mode(), CacheMode::ReadOnly);

        let unknown = CompressionRequest::builder("a", weight(), "vqgan").build();
        assert!(matches!(unknown, Err(MvqError::InvalidConfig(_))));
        let empty_name = CompressionRequest::builder("", weight(), "mvq").build();
        assert!(matches!(empty_name, Err(MvqError::InvalidConfig(_))));
        let empty_weight =
            CompressionRequest::builder("a", Tensor::from_vec(vec![0, 8], vec![]).unwrap(), "mvq")
                .build();
        assert!(matches!(empty_weight, Err(MvqError::InvalidConfig(_))));
        // spec that cannot compile for mvq: d not a multiple of m
        let bad_spec = CompressionRequest::builder("a", weight(), "mvq")
            .spec(PipelineSpec { d: 6, m: 4, ..PipelineSpec::default() })
            .build();
        assert!(matches!(bad_spec, Err(MvqError::InvalidConfig(_))));
    }

    #[test]
    fn aliases_canonicalize_and_share_content_seeds() {
        let a = CompressionRequest::builder("a", weight(), "vq").build().unwrap();
        let b = CompressionRequest::builder("b", weight(), "vq-a").build().unwrap();
        assert_eq!(a.algo(), "vq-a");
        assert_eq!(a.resolved_seed(), b.resolved_seed());
        // one identity: the two spellings address one cache key
        let key = |r: &CompressionRequest| {
            let weight = r.weight().unwrap();
            mvq_core::store::CacheKey::new(r.algo(), weight, r.spec(), r.resolved_seed()).unwrap()
        };
        assert_eq!(key(&a), key(&b));
    }

    /// The hashes a request computes once at build are the tensor's and
    /// model's content hashes, and the content seeds derived from them
    /// are pinned: a drift would orphan every unseeded cache blob.
    #[test]
    fn stored_hashes_keep_seed_and_key_values() {
        let request = CompressionRequest::builder("a", weight(), "mvq").build().unwrap();
        assert_eq!(request.content_hash(), mvq_core::weight_hash(request.weight().unwrap()));
        assert_eq!(request.content_hash(), 17906136501245852845);
        assert_eq!(request.resolved_seed(), 13928516773902597487);
        let hashed =
            CompressionRequest::builder("b", HashedWeight::new(weight()), "mvq").build().unwrap();
        assert_eq!(hashed.resolved_seed(), request.resolved_seed());

        let mut rng = StdRng::seed_from_u64(24);
        let model = mvq_nn::models::tiny_cnn(4, 8, &mut rng);
        let request = CompressionRequest::model_builder("m", model, "mvq").build().unwrap();
        assert_eq!(request.content_hash(), model_weight_hash(request.model().unwrap()));
        assert_eq!(request.content_hash(), 2026147136727711821);
        assert_eq!(request.resolved_seed(), 10879602731211789246);
    }

    #[test]
    fn priority_orders_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
    }
}
