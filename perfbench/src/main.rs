//! The repository benchmark: three workloads, end-to-end metrics from
//! untraced passes, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <fig6|cdn-wide|idicn-mix> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 1 when
//! a correctness check failed and 2 on a usage error. See README.md for
//! the workloads, the metrics and which layer metric should move which
//! end-to-end metric.

mod overlay;
mod sim;
mod stats;
mod trace;

use icn_obs::json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::{SpanId, Tracer};

/// The workloads, in the order a traced run measures them, with the spans
/// whose self time a traced pass reports.
const WORKLOADS: [(&str, &[&str]); 3] = [
    ("fig6", sim::FIG6_SPANS),
    ("cdn-wide", sim::CDN_SPANS),
    ("idicn-mix", overlay::SPANS),
];

/// An untraced run starts with this many warm-up passes, checked but not
/// timed, so allocator pools, page tables and loopback sockets are warm.
const WARMUP_PASSES: usize = 1;

/// An untraced run then repeats whole passes for at least this many timed
/// passes and at least `--seconds` in all, and reports medians over them.
const MIN_PASSES: usize = 3;

/// The quantile of a piece's durations over the timed passes that counts
/// as its time on an unloaded host (see `stats::speed_factors`): the
/// fastest, since a busy host only ever adds time.
const FAST_QUANTILE: f64 = 0.0;

/// Traced passes per workload in a traced run (with one more untraced
/// pass around each).
const TRACED_PASSES: usize = 2;

/// How far a traced pass's attributed self times may stray from the
/// untraced end-to-end time before the attribution is not to be used.
const ATTRIBUTION_TOLERANCE_PCT: f64 = 15.0;

/// What one pass of a workload measured and checked.
pub struct Pass {
    /// Seconds of set-up (see README.md, per workload).
    pub setup_s: f64,
    /// Seconds from the start of set-up to checked results.
    pub wall_s: f64,
    /// Requests served: simulated requests or verified fetches.
    pub work: u64,
    /// Seconds the serving part of the pass took.
    pub work_s: f64,
    /// Seconds each fixed piece of set-up took: the same pieces, in the
    /// same order, on every pass of a workload.
    pub setup_parts: Vec<f64>,
    /// Seconds each fixed piece of serving took, likewise.
    pub work_parts: Vec<f64>,
    /// Operations attempted: simulator cells or overlay operations.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// Digest of the simulated statistics (simulator workloads).
    pub digest: Option<String>,
    /// Root span of a traced pass.
    pub root: SpanId,
    /// Per-layer metrics of a traced pass.
    pub layers: BTreeMap<String, f64>,
    /// Human-readable notes.
    pub info: Vec<String>,
}

/// Derives an independent seed for one input from the benchmark seed
/// (SplitMix64 finaliser).
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.as_str(), v.as_str());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
    if !names.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {names:?}"
        ));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out: flags.get("--out").map(PathBuf::from),
    })
}

fn run_pass(workload: &str, seed: u64, nproc: usize, tracer: Option<&Tracer>) -> Pass {
    match workload {
        "fig6" => sim::fig6_pass(seed, nproc, tracer),
        "cdn-wide" => sim::cdn_pass(seed, tracer),
        _ => overlay::mix_pass(&overlay::Mix::standard(nproc), seed, tracer),
    }
}

/// Running totals of the checks across passes.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn add(&mut self, workload: &str, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.failures
            .extend(pass.failures.iter().map(|f| format!("{workload}: {f}")));
    }
}

fn metric(value: f64, unit: &str) -> Value {
    let mut m = BTreeMap::new();
    m.insert("value".to_string(), Value::Float(value));
    m.insert("unit".to_string(), Value::Str(unit.to_string()));
    Value::Obj(m)
}

/// The unit of a per-layer metric, read off its name.
fn unit_of(name: &str) -> &'static str {
    let suffixes = [
        ("_ms", "ms"),
        ("_us", "us"),
        ("_ns_per_op", "ns"),
        ("_per_s", "1/s"),
        ("_pct", "%"),
        ("_s", "s"),
        ("_bytes", "bytes"),
    ];
    suffixes
        .iter()
        .find(|(suffix, _)| name.ends_with(suffix))
        .map_or(
            if name.ends_with("ratio") || name.contains(".phase.") || name.ends_with("_eff") {
                "ratio"
            } else {
                "count"
            },
            |(_, unit)| unit,
        )
}

/// Untraced: warm-up, then whole passes until both `MIN_PASSES` timed
/// passes and `--seconds` are reached. Each timed pass's figures are
/// scaled by its host-speed factor (see `stats::speed_factors`), and the
/// metrics are the medians of the scaled figures.
fn end_to_end(args: &Args, nproc: usize, outcome: &mut Outcome) -> BTreeMap<String, Value> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < WARMUP_PASSES + MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds
    {
        let pass = run_pass(&args.workload, args.seed, nproc, None);
        outcome.add(&args.workload, &pass);
        passes.push(pass);
    }
    let timed = &passes[WARMUP_PASSES..];
    let factors = |parts: fn(&Pass) -> Vec<f64>| {
        let parts: Vec<Vec<f64>> = timed.iter().map(parts).collect();
        stats::speed_factors(&parts, FAST_QUANTILE)
    };
    let setup_f = factors(|p| p.setup_parts.clone());
    let work_f = factors(|p| p.work_parts.clone());
    let wall_f = factors(|p| p.setup_parts.iter().chain(&p.work_parts).copied().collect());
    for (i, p) in passes.iter().enumerate() {
        let speed = match i.checked_sub(WARMUP_PASSES) {
            Some(t) => format!(
                ", host speed setup {:.3} serve {:.3} all {:.3}",
                setup_f[t], work_f[t], wall_f[t]
            ),
            None => " (warm-up)".to_string(),
        };
        println!(
            "pass {i}: setup {:.4} s, wall {:.4} s, {} requests in {:.4} s{speed}{}",
            p.setup_s,
            p.wall_s,
            p.work,
            p.work_s,
            p.digest
                .as_ref()
                .map_or(String::new(), |d| format!(", digest {d}"))
        );
        p.info.iter().for_each(|line| println!("  {line}"));
    }
    let digests: Vec<&String> = passes.iter().filter_map(|p| p.digest.as_ref()).collect();
    if let Some(first) = digests.first() {
        println!("digest {}: {first}", args.workload);
        if digests.iter().any(|d| d != first) {
            outcome.failed += 1;
            outcome
                .failures
                .push("passes on one seed produced different digests".into());
        }
    }
    let med = |values: Vec<f64>| stats::median(&values).unwrap_or(0.0);
    let scaled = |f: fn(&Pass) -> f64, factors: &[f64]| {
        med(timed.iter().zip(factors).map(|(p, k)| f(p) * k).collect())
    };
    let ones = vec![1.0; timed.len()];
    println!(
        "unscaled medians: setup {:.4} s, wall {:.4} s, serving {:.4} s",
        scaled(|p| p.setup_s, &ones),
        scaled(|p| p.wall_s, &ones),
        scaled(|p| p.work_s, &ones),
    );
    let mut m = BTreeMap::new();
    m.insert(
        "setup_s".into(),
        metric(scaled(|p| p.setup_s, &setup_f), "s"),
    );
    m.insert("wall_s".into(), metric(scaled(|p| p.wall_s, &wall_f), "s"));
    m.insert(
        "req_per_s".into(),
        metric(
            med(timed
                .iter()
                .zip(&work_f)
                .map(|(p, k)| p.work as f64 / (p.work_s * k).max(f64::MIN_POSITIVE))
                .collect()),
            "1/s",
        ),
    );
    m.insert(
        "peak_rss_mb".into(),
        metric(icn_obs::peak_rss_kb() as f64 / 1024.0, "MB"),
    );
    m
}

/// Traced: every workload, so every per-layer metric is measured in every
/// traced run. Each workload alternates untraced and traced passes,
/// `U T U T U`; the per-layer figures come from the last traced pass, and
/// the attribution gap and tracing overhead compare traced wall times with
/// the median untraced one, so one slow pass on a noisy host does not
/// decide them.
fn per_layer(args: &Args, nproc: usize, outcome: &mut Outcome) -> BTreeMap<String, Value> {
    let mut m = BTreeMap::new();
    for (workload, spans) in WORKLOADS {
        let mut untraced_walls = Vec::new();
        let mut traced_walls = Vec::new();
        let mut last = None;
        for round in 0..=TRACED_PASSES {
            let pass = run_pass(workload, args.seed, nproc, None);
            outcome.add(workload, &pass);
            untraced_walls.push(pass.wall_s);
            if round == TRACED_PASSES {
                break;
            }
            let tracer = Tracer::new();
            let traced = run_pass(workload, args.seed, nproc, Some(&tracer));
            outcome.add(workload, &traced);
            traced_walls.push(traced.wall_s);
            last = Some((tracer, traced));
        }
        let (tracer, traced) = last.expect("at least one traced pass");
        let untraced = stats::median(&untraced_walls).unwrap_or(f64::NAN);
        let traced_mean = traced_walls.iter().sum::<f64>() / traced_walls.len() as f64;
        let self_times = tracer.self_times(traced.root);
        let attributed: f64 = self_times.values().sum();
        let gap_pct = (attributed - untraced) / untraced * 100.0;
        let overhead_pct = (traced_mean - untraced) / untraced * 100.0;
        println!(
            "{workload}: untraced {untraced:.4} s (median of {}), traced {traced_mean:.4} s (mean of {}), \
             layer self times sum to {attributed:.4} s ({gap_pct:+.2}% of untraced; tolerance \
             ±{ATTRIBUTION_TOLERANCE_PCT}%: {})",
            untraced_walls.len(),
            traced_walls.len(),
            if gap_pct.abs() <= ATTRIBUTION_TOLERANCE_PCT { "ok" } else { "NOT WITHIN TOLERANCE" },
        );
        for (name, secs) in &self_times {
            println!(
                "  self {name:<18} {secs:>10.4} s {:>6.1}%",
                secs / attributed * 100.0
            );
        }
        traced.info.iter().for_each(|line| println!("{line}"));
        for name in spans.iter() {
            let secs = self_times.get(*name).copied().unwrap_or(0.0);
            m.insert(format!("{workload}.self.{name}_s"), metric(secs, "s"));
        }
        m.insert(
            format!("{workload}.obs.trace_overhead_pct"),
            metric(overhead_pct, "%"),
        );
        m.insert(
            format!("{workload}.obs.attribution_gap_pct"),
            metric(gap_pct, "%"),
        );
        for (name, value) in &traced.layers {
            m.insert(name.clone(), metric(*value, unit_of(name)));
        }
        if let Some(dir) = &args.out {
            let path = dir.join(format!("spans-{workload}-seed{}.jsonl", args.seed));
            match std::fs::create_dir_all(dir).and_then(|()| tracer.write_jsonl(&path)) {
                Ok(()) => println!(
                    "{workload}: {} spans written to {}",
                    tracer.len(),
                    path.display()
                ),
                Err(e) => eprintln!("warning: cannot write spans to {}: {e}", path.display()),
            }
        }
    }
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out DIR]",
                WORKLOADS.map(|(name, _)| name).join("|")
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut outcome = Outcome::default();
    let metrics = if args.trace {
        per_layer(&args, nproc, &mut outcome)
    } else {
        end_to_end(&args, nproc, &mut outcome)
    };
    for (name, v) in &metrics {
        let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("metric {name} = {value} {unit}");
    }
    for f in &outcome.failures {
        println!("FAILED {f}");
    }
    let correct = outcome.failures.is_empty();
    let mut result = BTreeMap::new();
    result.insert("correct".to_string(), Value::Bool(correct));
    result.insert(
        "attempted".to_string(),
        Value::UInt(outcome.attempted.max(1)),
    );
    result.insert("failed".to_string(), Value::UInt(outcome.failed));
    result.insert("metrics".to_string(), Value::Obj(metrics));
    println!("{}", Value::Obj(result).to_json());
    if !correct {
        std::process::exit(1);
    }
}
