//! `stream-model`: offline compression of a model-scale synthetic stream
//! (10× the ResNet-18-lite conv stack, 150 layers, 6.9 MB of f32) through
//! `mvq_core::stream_compress` with the registry `mvq` compressor at
//! `PipelineSpec::default()`, into a fresh disk-backed cache per pass.
//!
//! Nearly all of its time is grouping, pruning, masked k-means and the
//! assignment kernel, then encode and spill; there is no wire or queue
//! work, so kernel and clustering changes show here first.

use std::time::Instant;

use mvq_core::pipeline::PipelineSpec;
use mvq_core::StreamConfig;
use mvq_obs::names as m;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, Layers, Reconciliation};
use crate::stats::{mean, median, windowed, Latency, WINDOW_MIN};
use crate::stream_engine::{gate, replay_puts, run_pass, Pass};
use crate::synth::{compressible, mix, SyntheticModel, WireItem};
use crate::trace::{self, Tracer};
use crate::{host, wire_hit, Ctx, Outcome};

/// Copies of the ResNet-18-lite conv stack in one model.
const REPS: usize = 10;
/// Window cap in layers; the byte cap is two of the largest layer.
const WINDOW_LAYERS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: u64 = 5;
/// Layers per pass checked bit-for-bit against the registry oracle.
const ORACLE_SAMPLE: usize = 3;
/// Accepted |traced − untraced| / untraced pass time.
const MARGIN: f64 = 0.15;

/// What the untraced passes measured.
#[derive(Default)]
struct Timed {
    walls_s: Vec<f64>,
    bytes: u64,
    layer_latency_us: Vec<f64>,
    compress_us: Vec<f64>,
    reload_us: Vec<f64>,
    attempted: u64,
    compressed: u64,
    sse: Option<(f64, f64)>,
    /// Traced passes, kept open for the per-layer numbers.
    kept: Vec<Pass>,
}

/// Checks a finished pass and folds it into `t`.
fn account(
    t: &mut Timed,
    pass: &Pass,
    spec: &PipelineSpec,
    seed: u64,
    window: u64,
) -> Result<(), String> {
    if pass.report.peak_window_bytes > window || pass.report.peak_window_layers > WINDOW_LAYERS {
        return Err(format!(
            "window bound violated: {} B / {} layers",
            pass.report.peak_window_bytes, pass.report.peak_window_layers
        ));
    }
    let n = pass.model.dims.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let sample: Vec<usize> = (0..ORACLE_SAMPLE).map(|_| rng.gen_range(0..n)).collect();
    let g = gate(pass, spec, &sample)?;
    if t.sse.is_none() {
        t.sse = Some((g.masked_sse, g.weight_energy));
    }
    t.reload_us.extend(g.reload_us);
    let wall = pass.wall_ns as f64 / 1e9;
    let expected = pass.model.dims.iter().filter(|d| compressible(d, spec)).count() as u64;
    let done = pass.timings.iter().filter(|l| l.compressed).count() as u64;
    t.attempted += expected;
    t.compressed += done;
    t.walls_s.push(wall);
    t.bytes += pass.model.total_bytes();
    for l in pass.timings.iter().filter(|l| l.compressed) {
        t.layer_latency_us.push((l.end_ns - l.admitted_ns) as f64 / 1e3);
        t.compress_us.push((l.end_ns - l.start_ns) as f64 / 1e3);
    }
    Ok(())
}

/// Runs passes for `budget` seconds of pass time (and until the run has
/// [`WINDOW_MIN`] layer latencies), checking each.
fn passes(
    ctx: &Ctx,
    spec: &PipelineSpec,
    config: &StreamConfig,
    clock: &Tracer,
    traced: bool,
    budget: f64,
    first: u64,
) -> Result<Timed, String> {
    let window = config.max_bytes;
    let mut t = Timed::default();
    let mut i = first;
    while t.walls_s.iter().sum::<f64>() < budget || (!traced && t.compress_us.len() < WINDOW_MIN) {
        let model = SyntheticModel::resnet18_lite_x(REPS, mix(ctx.seed, i));
        let dir = ctx.dir.join(format!("pass-{i}"));
        let pass = run_pass(model, spec, config, &dir, clock, traced).map_err(|e| e.to_string())?;
        account(&mut t, &pass, spec, mix(ctx.seed, 0x0a11 + i), window)?;
        if traced {
            t.kept.push(pass);
        } else {
            drop(pass);
            let _ = std::fs::remove_dir_all(&dir);
        }
        i += 1;
    }
    Ok(t)
}

/// Runs the workload.
///
/// # Errors
///
/// A failed pass, gate or check.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let spec = PipelineSpec::default();
    let proto = SyntheticModel::resnet18_lite_x(REPS, 0);
    let config = StreamConfig::default().with_window(WINDOW_LAYERS, 2 * proto.largest_bytes());
    let workers = config.workers.max(1);
    if 4 * config.max_bytes >= proto.total_bytes() {
        return Err("the window is not well below the model size".into());
    }
    std::fs::create_dir_all(&ctx.dir).map_err(|e| format!("scratch dir: {e}"))?;
    let clock = Tracer::new();

    // set-up: a fresh disk-backed cache and a warm-up pass over one copy
    // of the conv stack, repeated
    let mut setup_s = Vec::new();
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let warm = SyntheticModel::resnet18_lite_x(1, mix(ctx.seed, 0xa110 + i));
        let dir = ctx.dir.join(format!("setup-{i}"));
        drop(run_pass(warm, &spec, &config, &dir, &clock, false).map_err(|e| e.to_string())?);
        let _ = std::fs::remove_dir_all(&dir);
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let budget = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let t = passes(ctx, &spec, &config, &clock, false, budget, 0)?;
    println!(
        "stream-model: {} passes of {} layers ({:.2} MB), window {} layers / {} B, {workers} workers",
        t.walls_s.len(),
        proto.dims.len(),
        proto.total_bytes() as f64 / 1e6,
        WINDOW_LAYERS,
        config.max_bytes
    );
    let mut out = Outcome {
        attempted: t.attempted,
        failed: t.attempted - t.compressed,
        ..Outcome::default()
    };
    if !ctx.trace {
        // a layer's latency is its compress call: the wait in the window
        // before it depends on which layers happen to be ahead of it and
        // swings the p50 between the sizes of the layers in the mix
        let lat = Latency::of(&t.compress_us);
        let hit = Latency::of(&t.reload_us);
        let (Some(wlat), Some(whit)) = (windowed(&t.compress_us), windowed(&t.reload_us)) else {
            return Err(format!("too few samples for a p99: {} / {}", lat.count, hit.count));
        };
        println!(
            "  reported: medians over {} / {} windows of the compress / reload samples",
            wlat.windows, whit.windows
        );
        println!(
            "  layer admitted → compressed (not reported): {}",
            Latency::of(&t.layer_latency_us).describe("us")
        );
        println!("  layer compress (latency, miss):             {}", lat.describe("us"));
        println!("  layer blob reload (hit):                    {}", hit.describe("us"));
        let (sse, energy) = t.sse.ok_or("no pass was checked")?;
        let within = t.compress_us.iter().filter(|&&l| l <= ctx.slo_us).count();
        out.put("setup_s", median(&setup_s));
        out.put("peak_rss_mb", host::peak_rss_mb());
        out.put("success_ratio", t.compressed as f64 / t.attempted.max(1) as f64);
        // throughputs over all timed passes: every pass streams a
        // different model, so a single pass's figure carries its work too
        let pass_s: f64 = t.walls_s.iter().sum();
        out.put("model_mb_per_s", t.bytes as f64 / 1e6 / pass_s);
        out.put("sse_rel", sse / energy);
        out.put("latency_p50_us", wlat.p50);
        out.put("latency_p99_us", wlat.p99);
        out.put("jobs_per_s", t.compressed as f64 / pass_s);
        out.put("hit_latency_p99_us", whit.p99);
        out.put("miss_latency_p50_us", lat.p50);
        out.put("slo_attainment", within as f64 / t.attempted.max(1) as f64);
        return Ok(out);
    }

    // traced: the same passes through the decomposed compressor
    let mut traced = passes(ctx, &spec, &config, &clock, true, budget, 1_000)?;
    let kept = std::mem::take(&mut traced.kept);
    let last = kept.last().ok_or("no traced pass ran")?;
    let put_us = replay_puts(last, &ctx.dir.join("put-replay")).map_err(|e| e.to_string())?;
    let reload_snapshot = last.cache.registry().snapshot();
    let spans = clock.spans();
    let refs: Vec<&Pass> = kept.iter().collect();
    let mut l = Layers::new();
    // the wire layers are off this workload's path: measure them on its
    // own inputs (the first conv stack) over a loopback server
    let first = SyntheticModel {
        dims: last.model.dims[..proto.dims.len() / REPS].to_vec(),
        seed: last.model.seed,
    };
    let probe_items: Vec<WireItem> = (0..first.dims.len())
        .filter(|&i| compressible(&first.dims[i], &crate::wire_engine::wire_spec()))
        .map(|i| WireItem { weight: first.layer(i), seed: mix(first.seed, 7_000 + i as u64) })
        .collect();
    let probe = wire_hit::probe(first, probe_items, 1.0, &clock)?;
    layers::wire_layers(&mut l, &probe);
    layers::stream_layers(&mut l, &refs, &spans, &put_us, workers);
    // the store's on-path numbers here are the stream cache's own
    let s = &reload_snapshot;
    let (hits, misses) = (s.value(m::STORE_CACHE_HITS), s.value(m::STORE_CACHE_MISSES));
    l.insert("store.get_raw.us", mean(&traced.reload_us));
    l.insert("store.hit_ratio", hits as f64 / ((hits + misses) as f64).max(1.0));
    l.insert("store.shard.evictions_memory", s.value(m::STORE_SHARD_EVICTIONS_MEMORY) as f64);
    l.insert("store.shard.evictions_disk", s.value(m::STORE_SHARD_EVICTIONS_DISK) as f64);

    // reconciliation, µs per pass: worker-thread self times ÷ workers
    let n_passes = kept.len() as f64;
    let tot = trace::totals(&spans);
    let sum = |name: &str| tot.get(name).map_or(0.0, |t| t.self_us) / n_passes / workers as f64;
    let work: Vec<_> = kept.iter().flat_map(|p| &p.work).collect();
    let in_kmeans_assign: f64 =
        work.iter().map(|w| w.passes() * w.assign_ns as f64 / 1e3).sum::<f64>()
            / n_passes
            / workers as f64;
    let probe_assign: f64 =
        work.iter().map(|w| (2 * w.plan_ns + w.assign_ns) as f64 / 1e3).sum::<f64>()
            / n_passes
            / workers as f64;
    let rec = Reconciliation {
        what: format!(
            "stream-model pass time, us per pass (worker self times / {workers} workers)"
        ),
        rows: vec![
            ("kernels.assign (inside masked_kmeans, est.)".into(), in_kmeans_assign),
            (
                "masked_kmeans (excluding assignment)".into(),
                sum("masked_kmeans") - in_kmeans_assign,
            ),
            ("pruning.prune_nm (group + prune)".into(), sum("pruning.prune_nm")),
            ("stream.compress self (codebook quantize, assembly)".into(), sum("stream.compress")),
            ("codec.encode".into(), sum("codec.encode")),
            ("trace probe: extra assignment pass + 2 plan builds".into(), probe_assign),
        ],
        residual: "stream pipeline: window waits, hand-offs, pass ramp-up/drain".into(),
        traced: median(&traced.walls_s) * 1e6,
        untraced: median(&t.walls_s) * 1e6,
        margin: MARGIN,
    };
    print!("{}", rec.render());
    layers::print(&l);
    trace::write_tsv(&ctx.spans_path, &spans).map_err(|e| format!("writing spans: {e}"))?;
    println!("spans: {} written to {}", spans.len(), ctx.spans_path.display());
    for pass in kept {
        let dir = pass.dir.clone();
        drop(pass);
        let _ = std::fs::remove_dir_all(dir);
    }
    out.attempted += traced.attempted;
    out.failed += traced.attempted - traced.compressed;
    for (name, v) in l {
        out.put(name, v);
    }
    Ok(out)
}
