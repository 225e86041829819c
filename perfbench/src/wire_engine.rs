//! Pieces shared by the wire workloads: the in-process server, request
//! framing, priming, the traced closed-loop client, correctness checks
//! on served artifacts, and the layer replays of a traced run.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Instant;

use mvq_core::pipeline::{by_name, PipelineSpec};
use mvq_core::store::{validate_frame, BlobKind, CacheKey};
use mvq_core::{CompressedArtifact, Persist};
use mvq_net::{NetClient, NetRequest, NetServer, WireRequest, WireResponse};
use mvq_serve::{CacheMode, CachePolicy, CompressionService, Priority};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::accounting::PhaseCounts;
use crate::synth::WireItem;
use crate::trace::Tracer;

/// The spec every wire request carries: the paper's operating point with
/// a 16-codeword book, so a fresh 512×16 miss costs milliseconds.
pub fn wire_spec() -> PipelineSpec {
    PipelineSpec::default().with_k(16)
}

/// Largest message either side accepts.
const MAX_MESSAGE: usize = mvq_net::DEFAULT_MAX_MESSAGE_LEN;

/// Where the server keeps its cache.
#[derive(Debug, Clone)]
pub enum CacheSetup {
    /// Unbounded, in memory.
    Memory,
    /// Disk-backed under `dir`, with a memory budget.
    Disk {
        /// Cache directory (emptied first).
        dir: PathBuf,
        /// Memory-tier budget, bytes.
        memory_bytes: u64,
    },
}

/// Builds the service with its default worker count and binds it on
/// loopback.
///
/// # Errors
///
/// Describes a build or bind failure.
pub fn start_server(cache: &CacheSetup) -> Result<NetServer, String> {
    let builder = CompressionService::builder();
    let builder = match cache {
        CacheSetup::Memory => builder,
        CacheSetup::Disk { dir, memory_bytes } => {
            let _ = std::fs::remove_dir_all(dir);
            builder
                .cache_dir(dir)
                .cache_policy(CachePolicy::UNBOUNDED.with_memory_budget(*memory_bytes))
        }
    };
    let service = builder.build().map_err(|e| format!("service build failed: {e}"))?;
    NetServer::bind("127.0.0.1:0", service).map_err(|e| format!("bind failed: {e}"))
}

/// The request for `item` as the service API sees it.
pub fn net_request(name: String, item: &WireItem) -> NetRequest {
    let mut r = NetRequest::new(name, item.weight.clone(), "mvq");
    r.spec = wire_spec();
    r.seed = Some(item.seed);
    r
}

/// The request for `item` as it travels on the wire.
pub fn wire_request(id: u64, name: String, item: &WireItem) -> WireRequest {
    WireRequest {
        id,
        name,
        algo: "mvq".into(),
        spec: wire_spec(),
        seed: Some(item.seed),
        priority: Priority::default(),
        cache_mode: CacheMode::default(),
        deadline_ms: None,
        weight: item.weight.clone(),
    }
}

/// The cache key the service files `item` under.
pub fn cache_key(item: &WireItem) -> CacheKey {
    CacheKey::new("mvq", &item.weight, &wire_spec(), item.seed)
        .expect("mvq is a registry algorithm")
}

/// Writes one length-prefixed message, as `NetClient` does.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(frame.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds the u32 prefix")
    })?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(frame)
}

/// Reads one length-prefixed message, bounding the length first.
///
/// # Errors
///
/// Propagates socket errors; rejects lengths outside the frame bounds.
pub fn read_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if !(mvq_core::store::HEADER_LEN..=MAX_MESSAGE).contains(&len) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("message length {len} out of bounds"),
        ));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

/// A reply as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Served from the cache.
    pub from_cache: bool,
    /// Rode on an identical in-flight job.
    pub deduped: bool,
    /// The artifact frame (validated).
    pub bytes: Vec<u8>,
}

/// Reads one reply (header, then the artifact frame on success) and
/// validates it: the id must be `id` and the artifact frame must pass
/// the codec's frame check.
///
/// # Errors
///
/// Describes a transport error, a remote error reply, or a failed check.
pub fn read_reply(stream: &mut TcpStream, id: u64) -> Result<Reply, String> {
    let header = read_frame(stream).map_err(|e| format!("reply header: {e}"))?;
    match WireResponse::decode(&header).map_err(|e| format!("reply header decode: {e}"))? {
        WireResponse::Ok { id: rid, from_cache, deduped, .. } => {
            if rid != id {
                return Err(format!("reply id {rid} answers request {id}"));
            }
            let bytes = read_frame(stream).map_err(|e| format!("reply body: {e}"))?;
            validate_frame(BlobKind::Artifact, &bytes).map_err(|e| format!("reply body: {e}"))?;
            Ok(Reply { from_cache, deduped, bytes })
        }
        WireResponse::Err { id: rid, kind, message } => {
            Err(format!("request {id} (reply {rid}) failed remotely: {kind:?}: {message}"))
        }
    }
}

/// Per-request round-trip µs, the served artifact frames, and the
/// phase's counts of a priming pass.
pub type Priming = (Vec<f64>, Vec<Vec<u8>>, PhaseCounts);

/// Primes every item through `client`: each must be a fresh compression.
/// Returns per-request round-trip µs, the served artifact frames, and
/// the phase's counts.
///
/// # Errors
///
/// Describes the first failed or misclassified request.
pub fn prime(client: &mut NetClient, items: &[WireItem]) -> Result<Priming, String> {
    let mut lat = Vec::with_capacity(items.len());
    let mut bytes = Vec::with_capacity(items.len());
    let mut counts = PhaseCounts::default();
    for (i, item) in items.iter().enumerate() {
        let req = net_request(format!("prime-{i}"), item);
        let t = Instant::now();
        counts.sent += 1;
        let out = client.submit(&req).map_err(|e| format!("priming request {i}: {e}"))?;
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        if out.from_cache || out.deduped {
            return Err(format!("priming request {i} was not a fresh compression"));
        }
        counts.ok += 1;
        bytes.push(out.bytes);
    }
    Ok((lat, bytes, counts))
}

/// The artifact frame a local compression of `item` produces (the same
/// spec and seed the service uses).
///
/// # Errors
///
/// Describes a local failure.
pub fn local_artifact(item: &WireItem) -> Result<Vec<u8>, String> {
    let comp = by_name("mvq", &wire_spec()).map_err(|e| e.to_string())?;
    comp.compress_matrix(&item.weight, &mut StdRng::seed_from_u64(item.seed))
        .and_then(|a| a.to_bytes())
        .map_err(|e| format!("local compression failed: {e}"))
}

/// Checks a served artifact frame: it must decode, re-encode to itself,
/// and equal the local reference bit for bit.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_served(reference: &[u8], served: &[u8]) -> Result<(), String> {
    let decoded = CompressedArtifact::from_bytes(served).map_err(|e| format!("decode: {e}"))?;
    let reencoded = decoded.to_bytes().map_err(|e| format!("re-encode: {e}"))?;
    if reencoded != served || reference != served {
        return Err("served artifact differs from a local compression".into());
    }
    Ok(())
}

/// Σ masked SSE and Σ ‖W‖² over `items` and their served artifacts.
///
/// # Errors
///
/// Describes an undecodable or mismatched artifact.
pub fn masked_sse(items: &[WireItem], served: &[Vec<u8>]) -> Result<(f64, f64), String> {
    let mut acc = (0.0, 0.0);
    for (item, bytes) in items.iter().zip(served) {
        let a = CompressedArtifact::from_bytes(bytes).map_err(|e| format!("decode: {e}"))?;
        let (s, e) = crate::stream_engine::masked_sse_of(&a, &item.weight, &wire_spec())?;
        acc.0 += s;
        acc.1 += e;
    }
    Ok(acc)
}

/// Σ masked SSE and Σ ‖W‖² over fresh misses given as `(miss number,
/// served frame)`, regenerating each weight from `seed` one at a time.
///
/// # Errors
///
/// Describes an undecodable or mismatched artifact.
pub fn misses_sse(seed: u64, misses: &[(usize, Vec<u8>)]) -> Result<(f64, f64), String> {
    let mut acc = (0.0, 0.0);
    for (i, bytes) in misses {
        let item = crate::synth::miss(seed, *i as u64);
        let (s, e) = masked_sse(std::slice::from_ref(&item), std::slice::from_ref(bytes))?;
        acc.0 += s;
        acc.1 += e;
    }
    Ok(acc)
}

/// One traced closed-loop round trip, with the same calls `NetClient`
/// makes, each in a span under a `client.request` root. Returns the
/// root's duration in µs.
///
/// # Errors
///
/// Describes a transport error or a failed check.
pub fn traced_round(
    stream: &mut TcpStream,
    t: &Tracer,
    id: u64,
    item: &WireItem,
) -> Result<(f64, Reply), String> {
    let req = wire_request(id, format!("r{id}"), item);
    let root = t.open();
    let start = t.now();
    let frame = t.span("net.request.encode", Some(root), id, || req.encode());
    let frame = frame.map_err(|e| format!("encode: {e}"))?;
    t.span("net.write", Some(root), id, || write_frame(stream, &frame))
        .map_err(|e| format!("write: {e}"))?;
    let reply = t.span("client.read", Some(root), id, || read_reply(stream, id))?;
    t.close(root, "client.request", None, id, start);
    Ok(((t.now() - start) as f64 / 1e3, reply))
}

/// Replays of server-side layer work on the client's copy of the same
/// inputs, µs per call: `WireRequest::decode` of the request frame and
/// `CacheKey::new` over the request weight.
pub fn replay_request_side(t: &Tracer, items: &[WireItem], rounds: usize) -> (Vec<f64>, Vec<f64>) {
    let mut decode = Vec::new();
    let mut key = Vec::new();
    for r in 0..rounds {
        for (i, item) in items.iter().enumerate() {
            let id = (r * items.len() + i) as u64;
            let frame = wire_request(id, format!("r{id}"), item).encode().expect("encode");
            let s = t.now();
            let decoded = WireRequest::decode(&frame).expect("a frame this process encoded");
            let e = t.now();
            t.record("net.request.decode", None, id, s, e);
            decode.push((e - s) as f64 / 1e3);
            let s = t.now();
            let k = CacheKey::new("mvq", &decoded.weight, &decoded.spec, item.seed);
            let e = t.now();
            t.record("store.key_hash", None, id, s, e);
            std::hint::black_box(k.expect("mvq is a registry algorithm"));
            key.push((e - s) as f64 / 1e3);
        }
    }
    (decode, key)
}

/// µs per `ArtifactCache::get_raw` on the server's own cache for every
/// hot key, `rounds` times. Run after the final snapshot: it bumps the
/// cache's counters and recency.
pub fn replay_get_raw(
    t: &Tracer,
    server: &NetServer,
    items: &[WireItem],
    rounds: usize,
) -> Vec<f64> {
    let cache = server.service().cache();
    let keys: Vec<CacheKey> = items.iter().map(cache_key).collect();
    let mut out = Vec::new();
    for r in 0..rounds {
        for (i, key) in keys.iter().enumerate() {
            let s = t.now();
            let hit = cache.get_raw(key);
            let e = t.now();
            t.record("store.get_raw", None, (r * keys.len() + i) as u64, s, e);
            std::hint::black_box(hit.ok().flatten().map(|b| b.len()));
            out.push((e - s) as f64 / 1e3);
        }
    }
    out
}
