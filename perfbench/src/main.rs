//! The MVQ benchmark: one binary, three workloads.
//!
//! ```text
//! mvq-perfbench --workload <stream-model|wire-hit|wire-mixed> --seed N
//!               --seconds S --trace 0|1 --slo-ms L [--rate R]
//!               [--git-commit C] [--source-digest D]
//! ```
//!
//! `perfbench/run.py` builds this binary and passes the workload's
//! latency limit and offered rate from `BENCHMARK.json`. Every run
//! checks the program's outputs first; a failed gate or accounting
//! identity prints `"correct": false` with no numbers and exits 1. The
//! last stdout line is the JSON result; with `--trace 0` it carries
//! every end-to-end metric, with `--trace 1` every per-layer metric.
//! Inputs come from `--seed` alone.

mod accounting;
mod catalog;
mod host;
mod json;
mod layers;
mod stats;
mod stream_engine;
mod stream_model;
mod synth;
mod trace;
mod wire_engine;
mod wire_hit;
mod wire_mixed;

use std::path::PathBuf;

use json::Obj;

/// What a workload needs to know about its run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
    /// Latency limit for `slo_attainment`, µs.
    pub slo_us: f64,
    /// Offered rate of an open-loop workload, requests/s.
    pub rate: f64,
    /// Scratch space for this run, inside the checkout.
    pub dir: PathBuf,
    /// Where spans are written.
    pub spans_path: PathBuf,
}

/// A workload's result, before printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or layers) attempted in the timed phase.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// `(name, value)` of every metric; units come from the catalog.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records one metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    slo_ms: Option<f64>,
    rate: Option<f64>,
    git_commit: String,
    source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        slo_ms: None,
        rate: None,
        git_commit: "unknown".into(),
        source_digest: "unknown".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<f64>().map_err(|_| format!("{flag}: bad number {value}"));
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| format!("--seed: bad seed {value}"))?,
            "--seconds" => a.seconds = num()?,
            "--trace" => a.trace = value == "1",
            "--slo-ms" => a.slo_ms = Some(num()?),
            "--rate" => a.rate = Some(num()?),
            "--git-commit" => a.git_commit = value.clone(),
            "--source-digest" => a.source_digest = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range", a.seconds));
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_root = PathBuf::from(".bench_out");
    let run_name = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        slo_us: args.slo_ms.unwrap_or(0.0) * 1e3,
        rate: args.rate.unwrap_or(0.0),
        dir: out_root.join(format!("run-{}", std::process::id())),
        spans_path: out_root.join("spans").join(format!("{run_name}.tsv")),
    };
    let speed_before = host::speed_index();
    let ticks_before = host::cpu_ticks();
    let cleanup = RemoveOnDrop(ctx.dir.clone());
    let result = if ctx.slo_us <= 0.0 {
        Err("--slo-ms is required (run.py reads it from BENCHMARK.json)".to_string())
    } else {
        match args.workload.as_str() {
            "stream-model" => stream_model::run(&ctx),
            "wire-hit" => wire_hit::run(&ctx),
            "wire-mixed" if ctx.rate > 0.0 => wire_mixed::run(&ctx),
            "wire-mixed" => Err("--rate is required for wire-mixed".into()),
            other => Err(format!("unknown workload `{other}`")),
        }
    };
    drop(cleanup);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} FAILED: {e}", args.workload);
            println!(r#"{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}"#);
            std::process::exit(1);
        }
    };
    if let Err(e) = check_complete(&outcome, ctx.trace) {
        eprintln!("perfbench: {e}");
        println!(r#"{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}"#);
        std::process::exit(1);
    }

    let steal = host::steal_share(ticks_before, host::cpu_ticks());
    let speed = (speed_before, host::speed_index());
    println!(
        "host speed index (fixed loop, M iter/s): {:.1} before, {:.1} after; steal {:.1}% of CPU time",
        speed.0,
        speed.1,
        steal * 100.0
    );
    let mut metrics = Obj::new();
    println!("{:<32} {:>16}  unit", "metric", "value");
    for &(name, value) in &outcome.metrics {
        let unit = catalog::unit_of(name).unwrap_or("?");
        println!("{name:<32} {value:>16.4}  {unit}");
        let mut m = Obj::new();
        m.num("value", value).str("unit", unit);
        metrics.obj(name, &m);
    }
    let mut line = Obj::new();
    line.bool("correct", true)
        .num("attempted", outcome.attempted.max(1) as f64)
        .num("failed", outcome.failed as f64)
        .obj("metrics", &metrics);
    let mut record = line.clone();
    record.obj("host", &host::host_stamp()).obj(
        "run",
        &host::run_stamp(
            &args.git_commit,
            &args.source_digest,
            &args.workload,
            args.seed,
            speed,
            steal,
        ),
    );
    let record_path = out_root.join("results").join(format!("{run_name}.json"));
    let written = std::fs::create_dir_all(out_root.join("results"))
        .and_then(|()| std::fs::write(&record_path, record.render() + "\n"));
    match written {
        Ok(()) => println!("result record with host stamp: {}", record_path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", record_path.display()),
    }
    println!("{}", line.render());
}

/// Removes the run's scratch directory when dropped, also when a
/// workload panics.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every catalog metric of the run's kind is present exactly once and
/// finite.
fn check_complete(outcome: &Outcome, trace: bool) -> Result<(), String> {
    let want = if trace { catalog::PER_LAYER } else { catalog::END_TO_END };
    for (name, _, _) in want {
        let n = outcome.metrics.iter().filter(|(m, _)| m == name).count();
        if n != 1 {
            return Err(format!("metric {name} reported {n} times"));
        }
    }
    for (name, v) in &outcome.metrics {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        if !want.iter().any(|(n, _, _)| n == name) {
            return Err(format!("metric {name} is not in the catalog"));
        }
    }
    Ok(())
}
