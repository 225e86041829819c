//! The metric catalog: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a test keeps
//! the two in step). Every workload reports every metric; what each one
//! means on each workload is documented in `perfbench/README.md`.

/// `(name, unit, better)` of each end-to-end metric (`--trace 0`).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_ratio", "ratio", "higher"),
    ("model_mb_per_s", "MB/s", "higher"),
    ("sse_rel", "ratio", "lower"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("jobs_per_s", "jobs/s", "higher"),
    ("hit_latency_p99_us", "us", "lower"),
    ("miss_latency_p50_us", "us", "lower"),
    ("slo_attainment", "ratio", "higher"),
];

/// `(name, unit, better)` of each per-layer metric (`--trace 1`).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("kernels.assign.us", "us", "lower"),
    ("kernels.assign.gflop_s", "GFLOP/s", "higher"),
    ("kernels.assign.bytes", "B", "lower"),
    ("masked_kmeans.us", "us", "lower"),
    ("masked_kmeans.iterations", "count", "lower"),
    ("pruning.prune_nm.us", "us", "lower"),
    ("codec.encode.us", "us", "lower"),
    ("codec.encode.bytes", "B", "lower"),
    ("store.key_hash.us", "us", "lower"),
    ("store.get_raw.us", "us", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.shard.evictions_memory", "count", "lower"),
    ("store.shard.evictions_disk", "count", "lower"),
    ("store.put_raw.us", "us", "lower"),
    ("stream.compress.us", "us", "lower"),
    ("stream.materialize.us", "us", "lower"),
    ("stream.worker.busy_ratio", "ratio", "higher"),
    ("stream.window.bytes_peak", "B", "lower"),
    ("serve.queue.wait_us.p50", "us", "lower"),
    ("serve.queue.wait_us.p99", "us", "lower"),
    ("serve.hit.latency_us.p50", "us", "lower"),
    ("serve.hit.latency_us.p99", "us", "lower"),
    ("serve.job.run_us.p99", "us", "lower"),
    ("serve.dedup_ratio", "ratio", "higher"),
    ("net.request.encode_us", "us", "lower"),
    ("net.request.decode_us", "us", "lower"),
    ("net.wire_gap_us.p50", "us", "lower"),
    ("client.lag_us.p99", "us", "lower"),
    ("client.sent", "count", "higher"),
    ("client.ok", "count", "higher"),
    ("client.failed", "count", "lower"),
];

/// The unit of `name` in either catalog.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _, _)| *n == name).map(|&(_, u, _)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalog and the repository's `BENCHMARK.json` name the same
    /// metrics with the same units and directions, in the same order.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        let mut at = 0;
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"");
            let found = compact[at..].find(&needle);
            assert!(found.is_some(), "{needle} missing from BENCHMARK.json (or out of order)");
            at += found.unwrap_or(0) + needle.len();
        }
        let count = compact.matches("\"better\":").count();
        assert_eq!(count, END_TO_END.len() + PER_LAYER.len(), "BENCHMARK.json has extra metrics");
    }

    #[test]
    fn names_and_units_fit_the_benchmark_format() {
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(unit.len() <= 16);
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["lower", "higher"].contains(better));
        }
    }
}
