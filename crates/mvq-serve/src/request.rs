//! Typed, construction-validated compression requests.
//!
//! [`CompressionRequest`] is the unit of work [`crate::CompressionService`]
//! accepts. A request is validated by
//! [`CompressionRequestBuilder::build`]: the algorithm name is resolved
//! against the pipeline registry, the spec is compiled for that algorithm,
//! and the weight is shape-checked, each failure a typed
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

/// One validated unit of work for [`crate::CompressionService`]: compress
/// `weight` with `algo` under `spec`, at `priority`, interacting with the
/// cache per `cache_mode`.
///
/// Construct through [`CompressionRequest::builder`]; the fields are
/// read-only afterwards so a request in the queue can never be in a state
/// the service did not validate.
#[derive(Debug, Clone)]
pub struct CompressionRequest {
    name: String,
    weight: HashedWeight,
    algo: &'static str,
    spec: PipelineSpec,
    seed: Option<u64>,
    priority: Priority,
    cache_mode: CacheMode,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
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
        CompressionRequestBuilder {
            name: name.into(),
            weight: weight.into(),
            algo: algo.into(),
            spec: PipelineSpec::default(),
            seed: None,
            priority: Priority::default(),
            cache_mode: CacheMode::default(),
            deadline: None,
            cancel: None,
        }
    }

    /// Caller-chosen label (e.g. a layer name); not part of the identity.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The weight tensor to compress.
    pub fn weight(&self) -> &Tensor {
        self.weight.tensor()
    }

    /// The weight's [`mvq_core::weight_hash`], computed once when the
    /// request was built.
    pub(crate) fn weight_hash(&self) -> u64 {
        self.weight.hash()
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
        self.seed.unwrap_or_else(|| content_seed(self.weight.hash(), &self.spec, self.algo))
    }

    pub(crate) fn into_parts(
        self,
    ) -> (String, Tensor, &'static str, PipelineSpec, Option<Instant>, Option<CancelToken>) {
        (self.name, self.weight.into_tensor(), self.algo, self.spec, self.deadline, self.cancel)
    }
}

/// Builder for [`CompressionRequest`]; see [`CompressionRequest::builder`].
#[derive(Debug, Clone)]
pub struct CompressionRequestBuilder {
    name: String,
    weight: HashedWeight,
    algo: String,
    spec: PipelineSpec,
    seed: Option<u64>,
    priority: Priority,
    cache_mode: CacheMode,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl CompressionRequestBuilder {
    /// Sets the pipeline hyperparameters (default: [`PipelineSpec::default`]).
    pub fn spec(mut self, spec: PipelineSpec) -> Self {
        self.spec = spec;
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
    /// weight has no elements, the algorithm is unknown, or the spec does
    /// not compile for the algorithm (e.g. `d` not a multiple of `m` for
    /// `mvq`).
    pub fn build(self) -> Result<CompressionRequest, MvqError> {
        if self.name.is_empty() {
            return Err(MvqError::InvalidConfig("request name must not be empty".into()));
        }
        if self.weight.tensor().numel() == 0 {
            return Err(MvqError::InvalidConfig(format!(
                "request `{}`: weight of dims {:?} has no elements",
                self.name,
                self.weight.tensor().dims()
            )));
        }
        let algo = canonical_name(&self.algo).ok_or_else(|| {
            MvqError::InvalidConfig(format!(
                "request `{}`: unknown compressor `{}`",
                self.name, self.algo
            ))
        })?;
        // compiling the compressor front-loads algorithm/spec mismatches
        // (the registry's own validation) to submission time
        by_name(algo, &self.spec)?;
        Ok(CompressionRequest {
            name: self.name,
            weight: self.weight,
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

/// One validated whole-model unit of work for
/// [`crate::CompressionService::submit_model`]: stream-compress every
/// conv of `model` with `algo` under `spec`, spilling each finished layer
/// to the service's cache under the model key's
/// [`layer_key`](mvq_core::store::CacheKey::layer_key) and bounding the
/// in-flight working set by `stream`'s window.
///
/// Model jobs always interact with the cache read-write — the streaming
/// pipeline *is* a cache writer by construction (layers spill as they
/// finish), so there is no [`CacheMode`] knob here. Per-layer progress is
/// observable on the returned [`crate::Ticket::progress`] while the job
/// runs.
#[derive(Debug, Clone)]
pub struct ModelCompressionRequest {
    name: String,
    model: Sequential,
    /// [`model_weight_hash`] of `model`, computed once at build: both the
    /// content seed and the cache key derive from it.
    model_hash: u64,
    algo: &'static str,
    spec: PipelineSpec,
    stream: StreamConfig,
    seed: Option<u64>,
    priority: Priority,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl ModelCompressionRequest {
    /// Starts building a request to stream-compress `model` with the
    /// registry algorithm `algo` (aliases canonicalized at build).
    pub fn builder(
        name: impl Into<String>,
        model: Sequential,
        algo: impl Into<String>,
    ) -> ModelCompressionRequestBuilder {
        ModelCompressionRequestBuilder {
            name: name.into(),
            model,
            algo: algo.into(),
            spec: PipelineSpec::default(),
            stream: StreamConfig::default(),
            seed: None,
            priority: Priority::default(),
            deadline: None,
            cancel: None,
        }
    }

    /// Caller-chosen label; not part of the identity.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The model whose convs will be streamed.
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// Canonical registry algorithm name.
    pub fn algo(&self) -> &'static str {
        self.algo
    }

    /// Pipeline hyperparameters.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// The streaming window/worker knobs. Not part of the cache identity:
    /// the streamed result is bit-identical across window shapes.
    pub fn stream(&self) -> &StreamConfig {
        &self.stream
    }

    /// The pinned RNG seed, if any (`None`: a deterministic content seed
    /// is derived, as for [`CompressionRequest::seed`]).
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Scheduling priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The queue deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The attached cancellation token, if any.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The model's [`model_weight_hash`], computed once at build.
    pub(crate) fn model_hash(&self) -> u64 {
        self.model_hash
    }

    /// The seed this request will actually compress with.
    pub(crate) fn resolved_seed(&self) -> u64 {
        self.seed.unwrap_or_else(|| {
            let mut h = Fnv1a::new();
            h.update(b"mvq.serve.modelseed.v1");
            h.update_u64(self.model_hash);
            h.update_u64(self.spec.fingerprint());
            h.update(self.algo.as_bytes());
            h.finish()
        })
    }

    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(
        self,
    ) -> (
        String,
        Sequential,
        &'static str,
        PipelineSpec,
        StreamConfig,
        Option<Instant>,
        Option<CancelToken>,
    ) {
        (self.name, self.model, self.algo, self.spec, self.stream, self.deadline, self.cancel)
    }
}

/// Builder for [`ModelCompressionRequest`]; see
/// [`ModelCompressionRequest::builder`].
#[derive(Debug, Clone)]
pub struct ModelCompressionRequestBuilder {
    name: String,
    model: Sequential,
    algo: String,
    spec: PipelineSpec,
    stream: StreamConfig,
    seed: Option<u64>,
    priority: Priority,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl ModelCompressionRequestBuilder {
    /// Sets the pipeline hyperparameters (default: [`PipelineSpec::default`]).
    pub fn spec(mut self, spec: PipelineSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the streaming window/worker knobs (default:
    /// [`StreamConfig::default`]).
    pub fn stream(mut self, stream: StreamConfig) -> Self {
        self.stream = stream;
        self
    }

    /// Pins the RNG seed (part of the cache identity).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the scheduling priority (default: [`Priority::Normal`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets an absolute queue deadline; semantics as
    /// [`CompressionRequestBuilder::deadline`].
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Shorthand for [`Self::deadline`] at `now + timeout`.
    pub fn deadline_after(self, timeout: Duration) -> Self {
        self.deadline(Instant::now() + timeout)
    }

    /// Attaches a cancellation token; semantics as
    /// [`CompressionRequestBuilder::cancel_token`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Validates and finishes the request.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when the name is empty, the
    /// model has no conv layers, the algorithm is unknown, or the spec
    /// does not compile for the algorithm.
    pub fn build(self) -> Result<ModelCompressionRequest, MvqError> {
        if self.name.is_empty() {
            return Err(MvqError::InvalidConfig("request name must not be empty".into()));
        }
        let mut convs = 0usize;
        self.model.visit_convs(&mut |_| convs += 1);
        if convs == 0 {
            return Err(MvqError::InvalidConfig(format!(
                "request `{}`: model has no conv layers to compress",
                self.name
            )));
        }
        let algo = canonical_name(&self.algo).ok_or_else(|| {
            MvqError::InvalidConfig(format!(
                "request `{}`: unknown compressor `{}`",
                self.name, self.algo
            ))
        })?;
        by_name(algo, &self.spec)?;
        Ok(ModelCompressionRequest {
            name: self.name,
            model_hash: model_weight_hash(&self.model),
            model: self.model,
            algo,
            spec: self.spec,
            stream: self.stream,
            seed: self.seed,
            priority: self.priority,
            deadline: self.deadline,
            cancel: self.cancel,
        })
    }
}

/// Deterministic seed for an unseeded request, derived from its content
/// identity — the same weight/spec/algorithm always compresses with the
/// same RNG stream, so unseeded work dedupes and caches across batches
/// and processes. The domain string is pinned: existing unseeded cache
/// blobs are keyed under it, so changing it would orphan them.
pub(crate) fn content_seed(weight_hash: u64, spec: &PipelineSpec, canonical_algo: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.update(b"mvq.serve.contentseed.v1");
    h.update_u64(weight_hash);
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
            mvq_core::store::CacheKey::new(r.algo(), r.weight(), r.spec(), r.resolved_seed())
                .unwrap()
        };
        assert_eq!(key(&a), key(&b));
    }

    /// The hashes a request computes once at build are the tensor's and
    /// model's content hashes, and the content seeds derived from them
    /// are pinned: a drift would orphan every unseeded cache blob.
    #[test]
    fn stored_hashes_keep_seed_and_key_values() {
        let request = CompressionRequest::builder("a", weight(), "mvq").build().unwrap();
        assert_eq!(request.weight_hash(), mvq_core::weight_hash(request.weight()));
        assert_eq!(request.weight_hash(), 17906136501245852845);
        assert_eq!(request.resolved_seed(), 13928516773902597487);
        let hashed =
            CompressionRequest::builder("b", HashedWeight::new(weight()), "mvq").build().unwrap();
        assert_eq!(hashed.resolved_seed(), request.resolved_seed());

        let mut rng = StdRng::seed_from_u64(24);
        let model = mvq_nn::models::tiny_cnn(4, 8, &mut rng);
        let request = ModelCompressionRequest::builder("m", model, "mvq").build().unwrap();
        assert_eq!(request.model_hash(), model_weight_hash(request.model()));
        assert_eq!(request.model_hash(), 2026147136727711821);
        assert_eq!(request.resolved_seed(), 10879602731211789246);
    }

    #[test]
    fn priority_orders_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
    }
}
