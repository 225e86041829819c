//! `wire-mixed`: an open loop on one pipelined connection. A sender
//! thread writes requests on a seeded Poisson schedule at a fixed
//! offered rate; a receiver thread reads the replies, which come back in
//! request order. The mix is ~80% hot-set hits, ~10% fresh misses (a
//! full compression plus insert) and ~10% duplicates of a miss sent
//! right behind it (dedup riders). The server's cache is disk-backed
//! with a memory budget of about half the hot set, so eviction and
//! disk-tier hits both run while misses insert.
//!
//! Every request is timed from when it was due, so a stall in the
//! sender or the server is charged to every request it delayed.

use std::collections::HashSet;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use mvq_obs::names as m;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::accounting::{Ledger, PhaseCounts};
use crate::layers::{self, delta_mean, Layers, Reconciliation, ServerTimes, WireSide};
use crate::stats::{mean, median, windowed, Latency};
use crate::synth::{miss, mix, WireItem, MISS_DIMS};
use crate::trace::{self, durations_us, Tracer};
use crate::wire_engine::{
    check_served, local_artifact, masked_sse, misses_sse, read_reply, replay_get_raw,
    replay_request_side, wire_request, write_frame, CacheSetup,
};
use crate::wire_hit::{self, Primed};
use crate::{host, Ctx, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: u64 = 5;
/// Fresh misses bit-compared against a local compression per phase.
const MISS_CHECKS: usize = 6;
/// Accepted |traced − untraced| / untraced mean latency.
const MARGIN: f64 = 0.25;
/// Generator lag p99 beyond which the offered rate is not being met.
const MAX_LAG_P99_US: f64 = 50_000.0;

/// What a scheduled request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A primed hot item.
    Hit,
    /// A never-seen weight.
    Miss,
    /// The same request as the miss just before it.
    Rider,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When it is due, ns after the phase starts.
    pub due_ns: u64,
    /// Its class.
    pub class: Class,
    /// Hot-set index, or the miss number.
    pub item: usize,
}

/// A seeded Poisson schedule at `rate` requests/s over `seconds`: each
/// arrival is a hit with probability 8/9, otherwise a miss and its rider
/// (so hits, misses and riders are 80/10/10 of requests).
pub fn schedule(seed: u64, rate: f64, seconds: f64, hot: usize, first_miss: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut next_miss = first_miss;
    // arrivals come at rate × 9/10: a miss arrival carries two requests
    let arrival_rate = rate * 0.9;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / arrival_rate;
        if t >= seconds {
            return out;
        }
        let due_ns = (t * 1e9) as u64;
        if rng.gen_range(0..9) < 8 {
            out.push(Arrival { due_ns, class: Class::Hit, item: rng.gen_range(0..hot) });
        } else {
            out.push(Arrival { due_ns, class: Class::Miss, item: next_miss });
            out.push(Arrival { due_ns, class: Class::Rider, item: next_miss });
            next_miss += 1;
        }
    }
}

/// The sender's view of time: the real clock, or a fake one in tests.
pub trait Clock {
    /// ns since the phase's origin.
    fn now(&mut self) -> u64;
    /// Blocks until `t` (returns at once when `t` has passed).
    fn sleep_until(&mut self, t: u64);
}

/// When one request was written, ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sent {
    /// Write started.
    pub start_ns: u64,
    /// Write finished.
    pub end_ns: u64,
}

/// Paces `dues` (ascending, ns): `prepare(i)` builds request `i` ahead
/// of time, then the sender sleeps until it is due and `send`s it.
/// A request whose predecessor ran late is sent late too; its lag is
/// `start_ns − due`.
///
/// # Errors
///
/// The first error from `prepare` or `send`.
pub fn pace<C: Clock, T>(
    dues: &[u64],
    clock: &mut C,
    mut prepare: impl FnMut(usize) -> Result<T, String>,
    mut send: impl FnMut(usize, T, &mut C) -> Result<(), String>,
) -> Result<Vec<Sent>, String> {
    let mut out = Vec::with_capacity(dues.len());
    for (i, &due) in dues.iter().enumerate() {
        let request = prepare(i)?;
        clock.sleep_until(due);
        let start_ns = clock.now();
        send(i, request, clock)?;
        out.push(Sent { start_ns, end_ns: clock.now() });
    }
    Ok(out)
}

/// The real clock, anchored at `origin` on the tracer's timeline.
struct RealClock<'a> {
    tracer: &'a Tracer,
    origin: u64,
}

impl Clock for RealClock<'_> {
    fn now(&mut self) -> u64 {
        self.tracer.now() - self.origin
    }

    fn sleep_until(&mut self, t: u64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// One request's fate (every request of a finished phase succeeded: a
/// failure ends the phase with an error).
#[derive(Debug, Clone, Copy, Default)]
struct Fate {
    sent: Sent,
    recv_ns: u64,
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
struct Phase {
    arrivals: Vec<Arrival>,
    fates: Vec<Fate>,
    counts: PhaseCounts,
    /// `(miss number, served frame)` of every miss.
    miss_bytes: Vec<(usize, Vec<u8>)>,
    /// Ns from phase origin to the last reply.
    span_ns: u64,
    /// Weight bytes of successful replies.
    ok_weight_bytes: f64,
    /// Exact serving times (traced runs only).
    server: ServerTimes,
}

impl Phase {
    fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        self.latencies_by(|_, a| class.is_none_or(|c| a.class == c))
    }

    /// Latencies (µs, from the due time) of the requests
    /// `keep(index, arrival)` selects.
    fn latencies_by(&self, keep: impl Fn(usize, &Arrival) -> bool) -> Vec<f64> {
        self.arrivals
            .iter()
            .zip(&self.fates)
            .enumerate()
            .filter(|(i, (a, _))| keep(*i, a))
            .map(|(_, (a, f))| (f.recv_ns - a.due_ns) as f64 / 1e3)
            .collect()
    }

    fn lags(&self) -> Vec<f64> {
        self.arrivals
            .iter()
            .zip(&self.fates)
            .map(|(a, f)| f.sent.start_ns.saturating_sub(a.due_ns) as f64 / 1e3)
            .collect()
    }

    /// Fails when the offered rate outran the system: the generator fell
    /// behind, or latency kept growing through the phase.
    fn check_backlog(&self) -> Result<(), String> {
        let lag = Latency::of(&self.lags());
        if lag.p99 > MAX_LAG_P99_US {
            return Err(format!("generator lag p99 {:.0}us: the rate was not met", lag.p99));
        }
        let lat = self.latencies(None);
        let q = lat.len() / 4;
        let (first, last) = (mean(&lat[..q]), mean(&lat[lat.len() - q..]));
        if q > 0 && last > 3.0 * first + 2_000.0 {
            return Err(format!("backlog grew: mean latency {first:.0}us → {last:.0}us"));
        }
        Ok(())
    }
}

/// Runs one open-loop phase on a fresh connection to `p.server`.
fn open_loop(
    p: &Primed,
    arrivals: Vec<Arrival>,
    seed: u64,
    clock: &Tracer,
    trace: bool,
) -> Result<Phase, String> {
    let stream = TcpStream::connect(p.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let mut writer = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
    let mut reader = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
    let n = arrivals.len();
    // with tracing, every other request is traced, so traced and
    // untraced requests share one time window and one schedule
    let traced = |i: usize| trace && i % 2 == 1;
    let roots: Vec<u32> = if trace { (0..n).map(|_| clock.open()).collect() } else { Vec::new() };
    let dues: Vec<u64> = arrivals.iter().map(|a| a.due_ns).collect();
    let origin = clock.now();

    let (sent, received) = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut counts = PhaseCounts::default();
            let mut miss_bytes: Vec<(usize, Vec<u8>)> = Vec::new();
            let mut weight_bytes = 0.0;
            let mut last_miss: Option<(usize, Vec<u8>)> = None;
            let mut recv_ns = Vec::with_capacity(n);
            let mut server = ServerTimes::default();
            let mut seen = HashSet::new();
            for (i, a) in arrivals.iter().enumerate() {
                let reply = read_reply(&mut reader, i as u64);
                let at = clock.now() - origin;
                if traced(i) {
                    clock.close(roots[i], "client.request", None, i as u64, origin + a.due_ns);
                }
                let reply = match reply {
                    Ok(r) => r,
                    Err(e) => {
                        let _ = stream.shutdown(Shutdown::Both);
                        return Err(e);
                    }
                };
                let verdict = match a.class {
                    // a hit may ride on an identical hit still in flight
                    Class::Hit if !reply.from_cache => Err("hit not served from the cache"),
                    Class::Hit if reply.bytes != p.served[a.item] => Err("hit served other bytes"),
                    Class::Miss if reply.from_cache || reply.deduped => Err("miss was not fresh"),
                    Class::Rider if !(reply.deduped || reply.from_cache) => {
                        Err("rider was compressed again")
                    }
                    Class::Rider
                        if last_miss
                            .as_ref()
                            .is_none_or(|(m, b)| *m != a.item || *b != reply.bytes) =>
                    {
                        Err("rider got other bytes than its miss")
                    }
                    _ => Ok(()),
                };
                if let Err(why) = verdict {
                    let _ = stream.shutdown(Shutdown::Both);
                    return Err(format!("request {i} ({:?} {}): {why}", a.class, a.item));
                }
                counts.ok += 1;
                weight_bytes += match a.class {
                    Class::Hit => (p.items[a.item].weight.numel() * 4) as f64,
                    _ => (MISS_DIMS[0] * MISS_DIMS[1] * 4) as f64,
                };
                if a.class == Class::Miss {
                    miss_bytes.push((a.item, reply.bytes.clone()));
                    last_miss = Some((a.item, reply.bytes));
                }
                recv_ns.push(at);
                if trace {
                    // this phase's jobs, each once, from the server's ring
                    // of completed traces (it holds the last 64)
                    for t in p.server.registry().traces().recent(64) {
                        if t.name.starts_with('r') && seen.insert(t.name.clone()) {
                            server.add(&t);
                        }
                    }
                }
            }
            Ok((counts, miss_bytes, weight_bytes, recv_ns, server))
        });
        let mut rc = RealClock { tracer: clock, origin };
        let mut current_miss: Option<WireItem> = None;
        let sent = pace(
            &dues,
            &mut rc,
            |i| {
                let a = arrivals[i];
                let item = match a.class {
                    Class::Hit => p.items[a.item].clone(),
                    Class::Miss => {
                        let it = miss(seed, a.item as u64);
                        current_miss = Some(it.clone());
                        it
                    }
                    Class::Rider => current_miss.clone().ok_or("rider without a miss")?,
                };
                let req = wire_request(i as u64, format!("r{i}"), &item);
                let t0 = clock.now();
                let frame = req.encode().map_err(|e| format!("encode: {e}"))?;
                if traced(i) {
                    clock.record("net.request.encode", None, i as u64, t0, clock.now());
                }
                Ok(frame)
            },
            |i, frame, c| {
                let start = c.now();
                let res = write_frame(&mut writer, &frame).map_err(|e| format!("write {i}: {e}"));
                if traced(i) {
                    let due = origin + arrivals[i].due_ns;
                    clock.record("client.lag", Some(roots[i]), i as u64, due, origin + start);
                    clock.record(
                        "net.write",
                        Some(roots[i]),
                        i as u64,
                        origin + start,
                        clock.now(),
                    );
                }
                res
            },
        );
        if sent.is_err() {
            let _ = writer.shutdown(Shutdown::Both);
        }
        let received = receiver.join().unwrap_or_else(|_| Err("receiver panicked".into()));
        (sent, received)
    });
    // the receiver's error is the cause when both failed: it shuts the
    // socket, which is what breaks the sender's write
    let (mut counts, miss_bytes, ok_weight_bytes, recv, server) = received?;
    let sent = sent?;
    counts.sent = sent.len() as u64;
    let fates: Vec<Fate> =
        sent.iter().zip(&recv).map(|(&s, &recv_ns)| Fate { sent: s, recv_ns }).collect();
    let span_ns = recv.last().copied().unwrap_or(1);
    Ok(Phase { arrivals, fates, counts, miss_bytes, span_ns, ok_weight_bytes, server })
}

/// Bit-compares a seeded sample of a phase's misses to local
/// compressions.
fn check_misses(phase: &Phase, seed: u64) -> Result<(), String> {
    if phase.miss_bytes.is_empty() {
        return Err("the phase sent no misses".into());
    }
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x3155));
    for _ in 0..MISS_CHECKS {
        let (i, bytes) = &phase.miss_bytes[rng.gen_range(0..phase.miss_bytes.len())];
        check_served(&local_artifact(&miss(seed, *i as u64))?, bytes)
            .map_err(|e| format!("miss {i}: {e}"))?;
    }
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// A failed gate, identity, class check or backlog check.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.dir).map_err(|e| format!("scratch dir: {e}"))?;
    // the memory budget holds about half the hot set's blob bytes
    let reference = wire_hit::reference(ctx.seed)?;
    let hot_blob_bytes: u64 = reference.iter().map(|r| r.len() as u64).sum();
    let cache = CacheSetup::Disk { dir: ctx.dir.join("cache"), memory_bytes: hot_blob_bytes / 2 };

    let mut setup_s = Vec::new();
    let mut primed = None;
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut p = wire_hit::setup(ctx.seed, &cache)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUP_REPEATS {
            primed = Some(p);
        } else {
            p.server.shutdown();
        }
    }
    let mut p = primed.ok_or("no set-up ran")?;
    wire_hit::check_hot(&p, &reference)?;
    println!(
        "wire-mixed: {} hot items ({} B of blobs, memory budget {} B), open loop at {} req/s, slo {} us",
        p.items.len(),
        hot_blob_bytes,
        hot_blob_bytes / 2,
        ctx.rate,
        ctx.slo_us
    );

    let clock = Tracer::new();
    let before = p.server.registry().snapshot();
    let arrivals = schedule(mix(ctx.seed, 0x0b3), ctx.rate, ctx.seconds, p.items.len(), 0);
    let mut phase = open_loop(&p, arrivals, ctx.seed, &clock, ctx.trace)?;
    check_misses(&phase, ctx.seed)?;
    phase.check_backlog()?;
    let mut all = p.counts;
    all.add(phase.counts);
    let snapshot = p.server.registry().snapshot();
    let ledger = Ledger::new(&snapshot, all).check();
    let lat = Latency::of(&phase.latencies(None));
    let hit = Latency::of(&phase.latencies(Some(Class::Hit)));
    let missl = Latency::of(&phase.latencies(Some(Class::Miss)));
    let lag = Latency::of(&phase.lags());
    let riders = phase.arrivals.iter().filter(|a| a.class == Class::Rider).count();
    println!("  all:    {}", lat.describe("us"));
    println!("  hits:   {}", hit.describe("us"));
    println!("  misses: {}", missl.describe("us"));
    println!("  riders: {riders}; generator lag {}", lag.describe("us"));
    let mut out =
        Outcome { attempted: phase.counts.sent, failed: phase.counts.failed, ..Outcome::default() };
    if !ctx.trace {
        p.server.shutdown();
        ledger?;
        let (Some(wlat), Some(whit)) =
            (windowed(&phase.latencies(None)), windowed(&phase.latencies(Some(Class::Hit))))
        else {
            return Err(format!("too few samples for a p99: {} / {}", lat.count, hit.count));
        };
        println!(
            "  reported: medians over {} / {} windows of all / hit latencies",
            wlat.windows, whit.windows
        );
        let secs = phase.span_ns as f64 / 1e9;
        // quality over everything the run compressed: hot set and misses
        let (hot_sse, hot_energy) = masked_sse(&p.items, &p.served)?;
        let (miss_sse, miss_energy) = misses_sse(ctx.seed, &phase.miss_bytes)?;
        let (sse, energy) = (hot_sse + miss_sse, hot_energy + miss_energy);
        let within = phase.latencies(None).iter().filter(|&&l| l <= ctx.slo_us).count();
        out.put("setup_s", median(&setup_s));
        out.put("peak_rss_mb", host::peak_rss_mb());
        out.put("success_ratio", phase.counts.ok as f64 / phase.counts.sent.max(1) as f64);
        out.put("model_mb_per_s", phase.ok_weight_bytes / 1e6 / secs);
        out.put("sse_rel", sse / energy);
        out.put("latency_p50_us", wlat.p50);
        out.put("latency_p99_us", wlat.p99);
        out.put("jobs_per_s", phase.counts.ok as f64 / secs);
        out.put("hit_latency_p99_us", whit.p99);
        out.put("miss_latency_p50_us", missl.p50);
        out.put("slo_attainment", within as f64 / phase.counts.sent.max(1) as f64);
        return Ok(out);
    }

    let (decode_us, key_us) = replay_request_side(&clock, &p.items, 10);
    let get_us = replay_get_raw(&clock, &p.server, &p.items, 10);
    p.server.shutdown();
    ledger?;
    let spans = clock.spans();
    let mean_of = |name: &str| layers::self_mean(&spans, name);
    let requests = phase.counts.sent.max(1) as f64;
    let (queue_mean, dequeued) = delta_mean(&before, &snapshot, m::SERVE_QUEUE_WAIT_US);
    let (run_mean, ran) = delta_mean(&before, &snapshot, m::SERVE_JOB_RUN_US);
    let rec = Reconciliation {
        what: "wire-mixed mean latency from due time, us per request (odd requests traced)".into(),
        rows: vec![
            ("client.lag (sent late)".into(), mean_of("client.lag")),
            ("net.write (client socket write)".into(), mean_of("net.write")),
            ("net.request.decode (server, replayed)".into(), mean(&decode_us)),
            ("store.key_hash (server, replayed CacheKey::new)".into(), mean(&key_us)),
            (
                "serve.queue.wait (registry, per request)".into(),
                queue_mean * dequeued as f64 / requests,
            ),
            (
                "serve.job.run (registry: probe/compress/insert)".into(),
                run_mean * ran as f64 / requests,
            ),
        ],
        residual: "wire, head-of-line wait on the connection, riders".into(),
        traced: mean(&phase.latencies_by(|i, _| i % 2 == 1)),
        untraced: mean(&phase.latencies_by(|i, _| i % 2 == 0)),
        margin: MARGIN,
    };
    print!("{}", rec.render());

    let mut lay = Layers::new();
    let mut probe_model = p.model.clone();
    probe_model.dims.extend(std::iter::repeat_n(MISS_DIMS.to_vec(), 16));
    wire_hit::stream_probe(&mut lay, probe_model, ctx, &clock)?;
    let side = WireSide {
        snapshot,
        client_p50_us: lat.p50,
        lag_p99_us: lag.p99,
        counts: all,
        encode_us: durations_us(&clock.spans(), "net.request.encode"),
        decode_us,
        key_us,
        get_us,
        server: std::mem::take(&mut phase.server),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake clock: sleeping jumps to the target, a stall advances it.
    struct Fake(u64);

    impl Clock for Fake {
        fn now(&mut self) -> u64 {
            self.0
        }
        fn sleep_until(&mut self, t: u64) {
            self.0 = self.0.max(t);
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn a_stall_is_charged_to_every_request_it_delayed() {
        let dues = [0, 10 * MS, 20 * MS, 30 * MS, 60 * MS];
        // request 1's write stalls for 25 ms; every write otherwise takes 1 ms
        let sent = pace(&dues, &mut Fake(0), Ok, |i, _, c: &mut Fake| {
            c.0 += if i == 1 { 25 * MS } else { MS };
            Ok(())
        })
        .unwrap();
        let lag: Vec<u64> = sent.iter().zip(&dues).map(|(s, d)| s.start_ns - d).collect();
        assert_eq!(lag, vec![0, 0, 15 * MS, 6 * MS, 0]);
        // replies arrive 2 ms after each write ends: latency from the due
        // time carries the stall, latency from the send time would hide it
        let from_due: Vec<u64> =
            sent.iter().zip(&dues).map(|(s, d)| s.end_ns + 2 * MS - d).collect();
        let from_send: Vec<u64> = sent.iter().map(|s| s.end_ns + 2 * MS - s.start_ns).collect();
        assert_eq!(from_due, vec![3 * MS, 27 * MS, 18 * MS, 9 * MS, 3 * MS]);
        assert_eq!(from_send[2], 3 * MS);
    }

    #[test]
    fn pace_never_sends_early() {
        let dues = [5 * MS, 7 * MS];
        let sent = pace(&dues, &mut Fake(0), |_| Ok(()), |_, _, _| Ok(())).unwrap();
        assert_eq!(sent[0].start_ns, 5 * MS);
        assert_eq!(sent[1].start_ns, 7 * MS);
    }

    #[test]
    fn schedule_is_seeded_and_mixed_80_10_10() {
        let a = schedule(3, 500.0, 20.0, 14, 0);
        assert_eq!(a, schedule(3, 500.0, 20.0, 14, 0));
        assert_ne!(a, schedule(4, 500.0, 20.0, 14, 0));
        let n = a.len() as f64;
        assert!((n / 20.0 - 500.0).abs() < 40.0, "rate {}", n / 20.0);
        let share = |c| a.iter().filter(|x| x.class == c).count() as f64 / n;
        assert!((share(Class::Hit) - 0.8).abs() < 0.03);
        assert!((share(Class::Miss) - 0.1).abs() < 0.02);
        assert_eq!(share(Class::Miss), share(Class::Rider));
        for w in a.windows(2) {
            assert!(w[0].due_ns <= w[1].due_ns);
            if w[1].class == Class::Rider {
                assert_eq!(
                    (w[0].class, w[0].item, w[0].due_ns),
                    (Class::Miss, w[1].item, w[1].due_ns)
                );
            }
        }
    }
}
