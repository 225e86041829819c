//! Provenance stamp carried by every result: the host it ran on, how the
//! program was built, which code, and which seed. Two results whose host
//! stamps differ are not comparable (`run.py compare` refuses them).

use crate::json::Obj;

/// Seed held out from tuning: later changes confirm a claimed gain on
/// it after developing against other seeds.
pub const HELD_OUT_SEED: u64 = 20_250_317;

/// Whether the CPU supports `feature` at run time.
fn has(feature: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match feature {
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            "fma" => std::arch::is_x86_feature_detected!("fma"),
            "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = feature;
        false
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Instruction-set extensions the compiler was allowed to use.
fn compiled_features() -> Vec<&'static str> {
    let mut v = Vec::new();
    if cfg!(target_feature = "avx2") {
        v.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        v.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        v.push("avx512f");
    }
    v
}

/// The host half of the stamp: every field must match for two results
/// to be compared.
pub fn host_stamp() -> Obj {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let isa: Vec<&str> = ["avx2", "fma", "avx512f"].into_iter().filter(|f| has(f)).collect();
    let mut o = Obj::new();
    o.num("logical_cores", cores as f64)
        .str("cpu_model", &cpu_model())
        .str("isa", &isa.join(","))
        .str("compiled_target_features", &compiled_features().join(","))
        .str("rustflags", env!("PERFBENCH_RUSTFLAGS"))
        .str("build_profile", env!("PERFBENCH_PROFILE"))
        // mvq-core is built without its `simd-intrinsics` feature, so the
        // simd kernel strategy runs its portable chunked backend
        .str("simd_backend", "portable-chunked")
        .str("default_kernel", mvq_core::KernelStrategy::default().name())
        .str("target_arch", std::env::consts::ARCH)
        .str("os", std::env::consts::OS);
    o
}

/// The run half: which code, which seed, the host's speed index before
/// and after the run, and the share of CPU time the hypervisor stole
/// during it.
pub fn run_stamp(
    git_commit: &str,
    source_digest: &str,
    workload: &str,
    seed: u64,
    speed: (f64, f64),
    steal_share: f64,
) -> Obj {
    let mut o = Obj::new();
    o.str("git_commit", git_commit)
        .str("source_digest", source_digest)
        .str("workload", workload)
        .num("seed", seed as f64)
        .num("held_out_seed", HELD_OUT_SEED as f64)
        .num("speed_index_before", speed.0)
        .num("speed_index_after", speed.1)
        .num("steal_share", steal_share);
    o
}

/// Cumulative (steal, total) ticks over all CPUs from `/proc/stat`;
/// zeros where that file is missing.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // and guest time is already counted in user
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Share of the CPU time between two [`cpu_ticks`] readings that the
/// hypervisor gave to other guests (steal): a shared host's main source
/// of run-to-run noise, recorded next to results and never folded into
/// them.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Millions of iterations per second of a fixed single-threaded loop
/// that touches no program code: how fast this (possibly shared) host ran
/// around a measurement. Recorded next to results, never folded into
/// them, so a slow run can be told apart from a slow program.
pub fn speed_index() -> f64 {
    const ITERS: u64 = 20_000_000;
    let t = std::time::Instant::now();
    let mut x = 1.0f64;
    let mut acc = 0u64;
    for i in 0..std::hint::black_box(ITERS) {
        x = x * 1.000_000_1 + 1e-9;
        acc = acc.wrapping_add((x.to_bits() >> 7) ^ i);
    }
    std::hint::black_box(acc);
    ITERS as f64 / 1e6 / t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
