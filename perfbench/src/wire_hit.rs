//! `wire-hit`: a closed loop of warm cache hits. One `NetClient`
//! connection sends requests back to back to an in-process `NetServer`
//! over loopback; the server has an in-memory cache and the default
//! worker count. Requests are drawn by seed from a hot set of
//! ResNet-18-lite-shaped weights, all primed during set-up.
//!
//! Apart from one fresh 512×16 miss every [`MISS_EVERY`] (the sample for
//! `miss_latency_p50_us`, spread over the whole run so that it sees the
//! same host as the hits), no compression runs in the timed phase: the
//! time is request encode and decode, hashing the whole weight for the
//! cache key, the queue hand-off, the cache lookup and the reply.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use mvq_core::StreamConfig;
use mvq_net::{NetClient, NetServer};
use mvq_obs::names as m;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::accounting::{Ledger, PhaseCounts};
use crate::layers::{self, delta_mean, Layers, Reconciliation, ServerTimes, WireSide};
use crate::stats::{mean, median, windowed, windowed_rates, Latency};
use crate::stream_engine::{gate, replay_puts, run_pass};
use crate::synth::{hot_set, miss, mix, SyntheticModel, WireItem};
use crate::trace::{self, durations_us, Tracer};
use crate::wire_engine::{
    check_served, local_artifact, masked_sse, misses_sse, net_request, prime, replay_get_raw,
    replay_request_side, start_server, traced_round, wire_spec, CacheSetup,
};
use crate::{host, Ctx, Outcome};

/// Interval between the fresh misses sent inside the timed loop.
const MISS_EVERY: Duration = Duration::from_millis(100);
/// Every this many fresh misses, one is checked against a local
/// compression; the first this many count towards `sse_rel`.
const MISS_CHECK_EVERY: usize = 20;
const MISS_SSE: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Accepted |traced − untraced| / untraced mean latency.
const MARGIN: f64 = 0.25;

/// A primed server and its client.
pub struct Primed {
    /// The server.
    pub server: NetServer,
    /// The client connection that primed it.
    pub client: NetClient,
    /// The hot set as a model (for the stream probe).
    pub model: SyntheticModel,
    /// The hot set as requests.
    pub items: Vec<WireItem>,
    /// The artifact frame served for each hot item.
    pub served: Vec<Vec<u8>>,
    /// Priming-phase counts.
    pub counts: PhaseCounts,
}

/// Generates the hot set, builds and binds the service, connects and
/// primes every hot item.
///
/// # Errors
///
/// Describes a failed build, connect or priming request.
pub fn setup(seed: u64, cache: &CacheSetup) -> Result<Primed, String> {
    let (model, items) = hot_set(seed, &wire_spec());
    setup_with(model, items, cache)
}

/// Builds and binds the service, connects and primes `items`.
///
/// # Errors
///
/// Describes a failed build, connect or priming request.
pub fn setup_with(
    model: SyntheticModel,
    items: Vec<WireItem>,
    cache: &CacheSetup,
) -> Result<Primed, String> {
    let server = start_server(cache)?;
    let mut client =
        NetClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let (_, served, counts) = prime(&mut client, &items)?;
    Ok(Primed { server, client, model, items, served, counts })
}

/// Local compressions of the hot set with the spec and seeds the
/// service uses: the gate's reference, computed before any set-up (it
/// also warms the process, so set-up and priming are not timed cold).
///
/// # Errors
///
/// Describes a local failure.
pub fn reference(seed: u64) -> Result<Vec<Vec<u8>>, String> {
    hot_set(seed, &wire_spec()).1.iter().map(local_artifact).collect()
}

/// Checks every served hot artifact against its reference.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check_hot(p: &Primed, reference: &[Vec<u8>]) -> Result<(), String> {
    for (i, (r, served)) in reference.iter().zip(&p.served).enumerate() {
        check_served(r, served).map_err(|e| format!("hot item {i}: {e}"))?;
    }
    Ok(())
}

/// What one closed loop measured.
#[derive(Debug, Default)]
struct Loop {
    /// Round trips through `NetClient`, µs.
    lat: Vec<f64>,
    /// Traced round trips, µs.
    traced: Vec<f64>,
    /// Gaps between a reply and the next request, µs (the closed loop's
    /// generator lag).
    lag: Vec<f64>,
    counts: PhaseCounts,
    /// Completion times of the `NetClient` requests, s since the start.
    done_s: Vec<f64>,
    /// Weight bytes each of those requests carried.
    bytes: Vec<f64>,
    /// Round trips of the fresh misses, µs.
    miss_lat: Vec<f64>,
    /// Miss number and served artifact frame of each fresh miss.
    miss_served: Vec<(usize, Vec<u8>)>,
    /// Exact serving times (traced runs only).
    server: ServerTimes,
}

/// The closed loop for `seconds`, through `NetClient`. With a tracer,
/// every other request instead goes over a second connection making the
/// same calls `NetClient::submit` makes, one span each, so traced and
/// untraced round trips share one time window. With `miss_seed`, one
/// fresh miss goes out every [`MISS_EVERY`] in place of a hit.
fn closed_loop(
    p: &mut Primed,
    rng: &mut StdRng,
    seconds: f64,
    clock: Option<&Tracer>,
    miss_seed: Option<u64>,
) -> Result<Loop, String> {
    let reqs: Vec<_> =
        p.items.iter().enumerate().map(|(i, it)| net_request(format!("hot-{i}"), it)).collect();
    let mut raw = match clock {
        Some(_) => {
            let s =
                TcpStream::connect(p.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
            let _ = s.set_nodelay(true);
            Some(s)
        }
        None => None,
    };
    let mut out = Loop::default();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let mut last_reply: Option<Instant> = None;
    let mut n = 0u64;
    let mut miss_due = t0 + MISS_EVERY;
    while Instant::now() < end {
        if let Some(seed) = miss_seed.filter(|_| Instant::now() >= miss_due) {
            miss_due += MISS_EVERY;
            let j = out.miss_served.len();
            let req = net_request(format!("miss-{j}"), &miss(seed, j as u64));
            let t = Instant::now();
            out.counts.sent += 1;
            match p.client.submit(&req) {
                Ok(o) if !o.from_cache && !o.deduped => {
                    out.miss_lat.push(t.elapsed().as_secs_f64() * 1e6);
                    out.counts.ok += 1;
                    out.miss_served.push((j, o.bytes));
                }
                Ok(_) => return Err(format!("fresh miss {j} was not a fresh compression")),
                Err(e) => {
                    out.counts.failed += 1;
                    eprintln!("wire-hit: miss request failed: {e}");
                }
            }
            last_reply = Some(Instant::now());
            continue;
        }
        let i = rng.gen_range(0..reqs.len());
        let t = Instant::now();
        if let Some(prev) = last_reply {
            out.lag.push((t - prev).as_secs_f64() * 1e6);
        }
        out.counts.sent += 1;
        let reply = match (clock, raw.as_mut()) {
            (Some(clock), Some(stream)) if n % 2 == 1 => {
                traced_round(stream, clock, n, &p.items[i]).map(|(us, r)| {
                    out.traced.push(us);
                    (r.from_cache, r.deduped, r.bytes)
                })
            }
            _ => p.client.submit(&reqs[i]).map_err(|e| e.to_string()).map(|o| {
                out.lat.push(t.elapsed().as_secs_f64() * 1e6);
                out.done_s.push(t0.elapsed().as_secs_f64());
                out.bytes.push((p.items[i].weight.numel() * 4) as f64);
                (o.from_cache, o.deduped, o.bytes)
            }),
        };
        last_reply = Some(Instant::now());
        n += 1;
        if clock.is_some() {
            // one request in flight: the newest completed trace is its own
            if let Some(t) = p.server.registry().traces().recent(1).first() {
                out.server.add(t);
            }
        }
        match reply {
            Ok((true, false, bytes)) if bytes == p.served[i] => {
                out.counts.ok += 1;
            }
            Ok(_) => return Err(format!("hot item {i} was not served from the cache unchanged")),
            Err(e) => {
                out.counts.failed += 1;
                eprintln!("wire-hit: request failed: {e}");
            }
        }
    }
    Ok(out)
}

/// The wire layers measured on `items` over a fresh loopback server:
/// prime, then a half-traced closed loop of hits for `seconds`. Used by
/// the workloads whose own path has no wire.
///
/// # Errors
///
/// Describes a failed request or check.
pub fn probe(
    model: SyntheticModel,
    items: Vec<WireItem>,
    seconds: f64,
    clock: &Tracer,
) -> Result<WireSide, String> {
    let mut p = setup_with(model, items, &CacheSetup::Memory)?;
    let mut rng = StdRng::seed_from_u64(0x9be);
    let l = closed_loop(&mut p, &mut rng, seconds, Some(clock), None)?;
    let mut counts = p.counts;
    counts.add(l.counts);
    let snapshot = p.server.registry().snapshot();
    Ledger::new(&snapshot, counts).check()?;
    let (decode_us, key_us) = replay_request_side(clock, &p.items, 10);
    let get_us = replay_get_raw(clock, &p.server, &p.items, 10);
    p.server.shutdown();
    Ok(WireSide {
        snapshot,
        client_p50_us: Latency::of(&l.lat).p50,
        lag_p99_us: Latency::of(&l.lag).p99,
        counts,
        encode_us: durations_us(&clock.spans(), "net.request.encode"),
        decode_us,
        key_us,
        get_us,
        server: l.server,
    })
}

/// The stream layers measured on the hot set: one traced pass through
/// `stream_compress` into a disk-backed cache, plus replayed puts.
/// Used by the wire workloads, whose own path has no stream.
///
/// # Errors
///
/// Describes a failed pass or gate.
pub fn stream_probe(
    out: &mut Layers,
    model: SyntheticModel,
    ctx: &Ctx,
    clock: &Tracer,
) -> Result<(), String> {
    let spec = wire_spec();
    let config = StreamConfig::default().with_window(3, 2 * model.largest_bytes());
    let dir = ctx.dir.join("stream-probe");
    let pass = run_pass(model, &spec, &config, &dir, clock, true).map_err(|e| e.to_string())?;
    gate(&pass, &spec, &[0, 1, 2])?;
    let puts = replay_puts(&pass, &ctx.dir.join("stream-probe-puts")).map_err(|e| e.to_string())?;
    let spans = clock.spans();
    layers::stream_layers(out, &[&pass], &spans, &puts, config.workers.max(1));
    drop(pass);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// A failed gate, identity or request check.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.dir).map_err(|e| format!("scratch dir: {e}"))?;
    let reference = reference(ctx.seed)?;
    let mut setup_s = Vec::new();
    let mut primed = None;
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut p = setup(ctx.seed, &CacheSetup::Memory)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUP_REPEATS {
            primed = Some(p);
        } else {
            p.server.shutdown();
        }
    }
    let mut p = primed.ok_or("no set-up ran")?;
    check_hot(&p, &reference)?;
    let workers = p.server.service().workers();
    println!(
        "wire-hit: {} hot items ({:.1} KB of weights), {workers} service workers, closed loop on one connection",
        p.items.len(),
        p.items.iter().map(|it| it.weight.numel() * 4).sum::<usize>() as f64 / 1e3
    );
    let mut rng = StdRng::seed_from_u64(mix(ctx.seed, 0xc105ed));
    let clock = Tracer::new();
    let before = p.server.registry().snapshot();
    let lp =
        closed_loop(&mut p, &mut rng, ctx.seconds, ctx.trace.then_some(&clock), Some(ctx.seed))?;
    for (n, served) in lp.miss_served.iter().step_by(MISS_CHECK_EVERY) {
        check_served(&local_artifact(&miss(ctx.seed, *n as u64))?, served)
            .map_err(|e| format!("fresh miss {n}: {e}"))?;
    }
    // quality over the hot set and a fixed number of the fresh misses
    let (hot_sse, hot_energy) = masked_sse(&p.items, &p.served)?;
    let fresh = &lp.miss_served[..lp.miss_served.len().min(MISS_SSE)];
    let (miss_sse, miss_energy) = misses_sse(ctx.seed, fresh)?;
    let (sse, energy) = (hot_sse + miss_sse, hot_energy + miss_energy);
    let mut all = p.counts;
    all.add(lp.counts);
    let snapshot = p.server.registry().snapshot();
    let ledger = Ledger::new(&snapshot, all).check();
    let l = Latency::of(&lp.lat);
    println!("  round trip: {}", l.describe("us"));
    let mut out =
        Outcome { attempted: lp.counts.sent, failed: lp.counts.failed, ..Outcome::default() };

    if !ctx.trace {
        p.server.shutdown();
        ledger?;
        let w = windowed(&lp.lat).ok_or(format!("too few samples for a p99: {}", l.count))?;
        let (jobs_per_s, mb_per_s) =
            windowed_rates(&lp.done_s, &lp.bytes).ok_or("too few samples for a rate")?;
        println!(
            "  reported: medians over {} windows of {} samples",
            w.windows,
            w.count / w.windows
        );
        let within = lp.lat.iter().filter(|&&v| v <= ctx.slo_us).count() as f64;
        out.put("setup_s", median(&setup_s));
        out.put("peak_rss_mb", host::peak_rss_mb());
        out.put("success_ratio", lp.counts.ok as f64 / lp.counts.sent.max(1) as f64);
        out.put("model_mb_per_s", mb_per_s / 1e6);
        out.put("sse_rel", sse / energy);
        out.put("latency_p50_us", w.p50);
        out.put("latency_p99_us", w.p99);
        out.put("jobs_per_s", jobs_per_s);
        out.put("hit_latency_p99_us", w.p99);
        if lp.miss_lat.is_empty() {
            return Err("no fresh miss completed".into());
        }
        println!("  fresh miss round trip: {}", Latency::of(&lp.miss_lat).describe("us"));
        out.put("miss_latency_p50_us", median(&lp.miss_lat));
        out.put("slo_attainment", within / lp.counts.sent.max(1) as f64);
        return Ok(out);
    }

    let (decode_us, key_us) = replay_request_side(&clock, &p.items, 20);
    let get_us = replay_get_raw(&clock, &p.server, &p.items, 20);
    p.server.shutdown();
    ledger?;
    let spans = clock.spans();
    let mean_of = |name: &str| layers::self_mean(&spans, name);
    let (hit_mean, _) = delta_mean(&before, &snapshot, m::SERVE_HIT_LATENCY_US);
    let (queue_mean, _) = delta_mean(&before, &snapshot, m::SERVE_QUEUE_WAIT_US);
    let key = mean(&key_us);
    let get = mean(&get_us);
    let rec = Reconciliation {
        what: "wire-hit mean round trip, us per request (traced and untraced interleaved)".into(),
        rows: vec![
            ("net.request.encode (client)".into(), mean_of("net.request.encode")),
            ("net.write (client socket write)".into(), mean_of("net.write")),
            ("client.request self (client bookkeeping)".into(), mean_of("client.request")),
            ("net.request.decode (server, replayed)".into(), mean(&decode_us)),
            ("store.key_hash (server, replayed CacheKey::new)".into(), key),
            ("serve.queue.wait (registry)".into(), queue_mean),
            ("store.get_raw (server cache, replayed)".into(), get),
            (
                "serve.hit rest (registry hit latency - above three)".into(),
                hit_mean - key - queue_mean - get,
            ),
        ],
        residual: "net.wire_gap: socket hops, reader/writer hand-off, reply read".into(),
        traced: mean(&lp.traced),
        untraced: l.mean,
        margin: MARGIN,
    };
    print!("{}", rec.render());
    let mut lay = Layers::new();
    stream_probe(&mut lay, p.model.clone(), ctx, &clock)?;
    let side = WireSide {
        snapshot,
        client_p50_us: l.p50,
        lag_p99_us: Latency::of(&lp.lag).p99,
        counts: all,
        encode_us: durations_us(&clock.spans(), "net.request.encode"),
        decode_us,
        key_us,
        get_us,
        server: lp.server,
    };
    layers::wire_layers(&mut lay, &side);
    layers::print(&lay);
    let spans = clock.spans();
    trace::write_tsv(&ctx.spans_path, &spans).map_err(|e| format!("writing spans: {e}"))?;
    println!("spans: {} written to {}", spans.len(), ctx.spans_path.display());
    for (name, v) in lay {
        out.put(name, v);
    }
    Ok(out)
}
