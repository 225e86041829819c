//! Per-layer metrics of a traced run, and the reconciliation of layer
//! self times against the untraced end-to-end number.

use std::collections::BTreeMap;

use mvq_obs::{names as m, RegistrySnapshot, Stage, TraceOutcome, TraceSnapshot};

use crate::accounting::PhaseCounts;
use crate::stats::{mean, Latency};
use crate::stream_engine::{LayerWork, Pass};
use crate::trace::{durations_us, totals, Span};

/// Per-layer metric values by name; a later insert overrides an earlier
/// one (a workload's own path overrides a probe's number).
pub type Layers = BTreeMap<&'static str, f64>;

fn mean_dur(spans: &[Span], name: &str) -> f64 {
    mean(&durations_us(spans, name))
}

/// Prints the per-layer numbers as a table.
pub fn print(l: &Layers) {
    println!(
        "per-layer (means per call unless named p50/p99; kernel FLOPs and bytes computed \
         from tensor sizes):"
    );
    for (name, v) in l {
        println!("  {name:<32} {v:>14.3}");
    }
}

/// Layer numbers of traced stream passes: the clustering layers from
/// their spans and work counts, the spill from replayed puts.
pub fn stream_layers(
    out: &mut Layers,
    passes: &[&Pass],
    spans: &[Span],
    put_us: &[f64],
    workers: usize,
) {
    let work: Vec<&LayerWork> = passes.iter().flat_map(|p| &p.work).collect();
    let per = |f: &dyn Fn(&LayerWork) -> f64| mean(&work.iter().map(|w| f(w)).collect::<Vec<_>>());
    let assign_ns: f64 = work.iter().map(|w| w.assign_ns as f64).sum();
    let flops: f64 = work.iter().map(|w| w.assign_flops()).sum();
    out.insert("kernels.assign.us", per(&|w| w.assign_ns as f64 / 1e3));
    out.insert("kernels.assign.gflop_s", if assign_ns > 0.0 { flops / assign_ns } else { 0.0 });
    out.insert("kernels.assign.bytes", per(&|w| w.assign_bytes()));
    out.insert(
        "masked_kmeans.us",
        per(&|w| (w.kmeans_ns as f64 - w.passes() * w.assign_ns as f64).max(0.0) / 1e3),
    );
    out.insert("masked_kmeans.iterations", per(&|w| w.iterations as f64));
    out.insert("pruning.prune_nm.us", mean_dur(spans, "pruning.prune_nm"));
    out.insert("codec.encode.us", mean_dur(spans, "codec.encode"));
    out.insert("codec.encode.bytes", per(&|w| w.encoded_bytes as f64));
    out.insert("store.put_raw.us", mean(put_us));
    out.insert("stream.compress.us", mean_dur(spans, "stream.compress"));
    out.insert("stream.materialize.us", mean_dur(spans, "stream.materialize"));
    let busy_ns: f64 =
        spans.iter().filter(|s| s.name == "stream.compress").map(|s| s.dur_ns() as f64).sum();
    let wall_ns: f64 = passes.iter().map(|p| p.wall_ns as f64).sum();
    out.insert("stream.worker.busy_ratio", busy_ns / (wall_ns * workers as f64).max(1.0));
    let peak = passes.iter().map(|p| p.report.peak_window_bytes).max().unwrap_or(0);
    out.insert("stream.window.bytes_peak", peak as f64);
}

/// Exact per-job serving times, read from the server's ring of
/// completed traces while the run goes (the registry's histograms hold
/// the same quantities, bucketed to within 25%).
#[derive(Debug, Clone, Default)]
pub struct ServerTimes {
    /// Queued → dequeued, µs, per executed job.
    pub queue_us: Vec<f64>,
    /// Submit → reply, µs, per job answered from the cache.
    pub hit_us: Vec<f64>,
    /// Dequeued → reply, µs, per executed job.
    pub run_us: Vec<f64>,
}

impl ServerTimes {
    /// Folds in one completed trace. Dedup riders carry only their submit
    /// and reply stamps; they are left out, as the registry leaves them.
    pub fn add(&mut self, t: &TraceSnapshot) {
        if t.deduped || t.outcome != TraceOutcome::Ok {
            return;
        }
        let at = |s| t.stage_us(s).map(|us| us as f64);
        if let (Some(q), Some(d)) = (at(Stage::Queued), at(Stage::Dequeued)) {
            self.queue_us.push(d - q);
        }
        if let (Some(d), Some(r)) = (at(Stage::Dequeued), at(Stage::Replied)) {
            self.run_us.push(r - d);
        }
        if let (Some(_), None, Some(r)) =
            (at(Stage::CacheProbe), at(Stage::Kernel), at(Stage::Replied))
        {
            self.hit_us.push(r);
        }
    }
}

/// What a traced wire run measured on the client side.
#[derive(Debug, Clone, Default)]
pub struct WireSide {
    /// The serving stack's registry at the end of the timed phase.
    pub snapshot: RegistrySnapshot,
    /// Client-observed p50 of the workload's timed requests, µs.
    pub client_p50_us: f64,
    /// Generator lag p99, µs (for a closed loop: reply to next request).
    pub lag_p99_us: f64,
    /// Client counts over every phase.
    pub counts: PhaseCounts,
    /// `WireRequest::encode`, µs per call.
    pub encode_us: Vec<f64>,
    /// Replayed `WireRequest::decode`, µs per call.
    pub decode_us: Vec<f64>,
    /// Replayed `CacheKey::new`, µs per call.
    pub key_us: Vec<f64>,
    /// `ArtifactCache::get_raw` on hot keys, µs per call.
    pub get_us: Vec<f64>,
    /// Exact serving times of the traced phase.
    pub server: ServerTimes,
}

/// Layer numbers of a traced wire run.
pub fn wire_layers(out: &mut Layers, w: &WireSide) {
    let s = &w.snapshot;
    let (hits, misses) = (s.value(m::STORE_CACHE_HITS), s.value(m::STORE_CACHE_MISSES));
    let queue = Latency::of(&w.server.queue_us);
    let hit = Latency::of(&w.server.hit_us);
    let submitted = s.value(m::SERVE_JOBS_SUBMITTED);
    out.insert("store.key_hash.us", mean(&w.key_us));
    out.insert("store.get_raw.us", mean(&w.get_us));
    out.insert("store.hit_ratio", hits as f64 / ((hits + misses) as f64).max(1.0));
    out.insert("store.shard.evictions_memory", s.value(m::STORE_SHARD_EVICTIONS_MEMORY) as f64);
    out.insert("store.shard.evictions_disk", s.value(m::STORE_SHARD_EVICTIONS_DISK) as f64);
    out.insert("serve.queue.wait_us.p50", queue.p50);
    out.insert("serve.queue.wait_us.p99", queue.p99);
    out.insert("serve.hit.latency_us.p50", hit.p50);
    out.insert("serve.hit.latency_us.p99", hit.p99);
    out.insert("serve.job.run_us.p99", Latency::of(&w.server.run_us).p99);
    out.insert(
        "serve.dedup_ratio",
        s.value(m::SERVE_JOBS_DEDUPED) as f64 / (submitted as f64).max(1.0),
    );
    out.insert("net.request.encode_us", mean(&w.encode_us));
    out.insert("net.request.decode_us", mean(&w.decode_us));
    out.insert("net.wire_gap_us.p50", w.client_p50_us - hit.p50);
    out.insert("client.lag_us.p99", w.lag_p99_us);
    out.insert("client.sent", w.counts.sent as f64);
    out.insert("client.ok", w.counts.ok as f64);
    out.insert("client.failed", w.counts.failed as f64);
}

/// Mean of a registry histogram over the interval between two
/// snapshots (the histograms are cumulative).
pub fn delta_mean(before: &RegistrySnapshot, after: &RegistrySnapshot, id: u16) -> (f64, u64) {
    let (a, b) = (before.histogram(id), after.histogram(id));
    let n = b.count.saturating_sub(a.count);
    let sum = b.sum.saturating_sub(a.sum);
    (if n == 0 { 0.0 } else { sum as f64 / n as f64 }, n)
}

/// Layer self times that should add up, with a named residual, to an
/// end-to-end number measured with tracing off.
#[derive(Debug, Clone)]
pub struct Reconciliation {
    /// What is being reconciled, with its unit.
    pub what: String,
    /// `(layer, value)` rows in the end-to-end number's unit.
    pub rows: Vec<(String, f64)>,
    /// What the residual stands for.
    pub residual: String,
    /// The traced run's end-to-end value.
    pub traced: f64,
    /// The untraced run's end-to-end value.
    pub untraced: f64,
    /// Largest accepted |traced − untraced| / untraced.
    pub margin: f64,
}

impl Reconciliation {
    /// Renders the table and the verdict.
    pub fn render(&self) -> String {
        let explained: f64 = self.rows.iter().map(|(_, v)| v).sum();
        let residual = self.traced - explained;
        let mut s = format!("reconciliation: {}\n", self.what);
        for (name, v) in &self.rows {
            s += &format!("  {name:<56} {v:>12.1}  {:>5.1}%\n", 100.0 * v / self.traced);
        }
        s += &format!(
            "  {:<56} {residual:>12.1}  {:>5.1}%\n",
            format!("residual: {}", self.residual),
            100.0 * residual / self.traced
        );
        s += &format!(
            "  {:<56} {:>12.1}\n",
            "= traced end-to-end (self times + residual)", self.traced
        );
        s += &format!("  {:<56} {:>12.1}\n", "untraced end-to-end", self.untraced);
        let overhead = self.traced - self.untraced;
        let share = overhead / self.untraced;
        s += &format!(
            "  tracing overhead: {overhead:+.1} ({:+.1}%); margin ±{:.0}%: {}\n",
            100.0 * share,
            100.0 * self.margin,
            if share.abs() <= self.margin { "RECONCILED" } else { "NOT RECONCILED" }
        );
        s
    }
}

/// Mean self time (µs per span) of the spans named `name`; 0 if none.
pub fn self_mean(spans: &[Span], name: &str) -> f64 {
    totals(spans).get(name).map_or(0.0, |t| t.self_us / t.count.max(1) as f64)
}
