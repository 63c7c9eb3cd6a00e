//! The repository benchmark: three closed-loop workloads, each handing
//! most of its time to a different layer of the synthesis pipeline.
//! See `perfbench/README.md` for the workloads, the metrics and how to
//! read them.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign_full|synth_fig4b|sim_aes> \
//!     --seed <n> --seconds <s> --trace <0|1> [--workload-seed <n>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a readable summary
//! goes to standard error.

mod aes;
mod campaign;
mod probe;
mod synth;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use probe::{Pins, Probe, ACCOUNTED};

/// Expected outputs for the default workload seeds.
const PINS: &str = include_str!("../pins.txt");

/// Set-up repetitions after each measured pass; `setup_s` is the median
/// over the run.
const SETUPS_PER_PASS: usize = 3;

/// Percentiles `op_ms_tail` may report, highest first: it takes the
/// highest one with at least `TAIL_BEYOND` samples above it, else the
/// median. They need 100 and 34 samples. The steps are coarse so that
/// the run-to-run wobble in sample count does not switch the tail
/// between steps: every workload sits well inside one step at
/// `run_seconds`. There is no p99 step: `synth_fig4b` runs about 1500
/// ops, where the tenth slowest is set by the machine's hiccups, not by
/// an instance.
const TAIL_LADDER: [f64; 2] = [0.90, 0.70];
const TAIL_BEYOND: usize = 10;

/// One workload: a fixed list of ops that a run repeats in whole passes.
pub trait Workload {
    fn ops_per_pass(&self) -> usize;
    /// Runs op `op` of the pass, checking its outputs against the pins.
    fn run(&mut self, op: usize, probe: &mut Probe) -> OpResult;
}

/// What one op did.
#[derive(Debug)]
pub struct OpResult {
    /// Design points completed.
    points: usize,
    /// The op's contribution to the `quality` metric, if any.
    quality: Option<f64>,
    /// An error the op returned; it makes `correct` false.
    error: Option<String>,
    mismatches: Vec<String>,
}

impl OpResult {
    pub fn done(points: usize, quality: Option<f64>, pins: &mut Pins) -> Self {
        OpResult {
            points,
            quality,
            error: None,
            mismatches: pins.take_mismatches(),
        }
    }

    /// An op the program got wrong: `correct` becomes false.
    pub fn failed(error: String, pins: &mut Pins) -> Self {
        OpResult {
            points: 0,
            quality: None,
            error: Some(error),
            mismatches: pins.take_mismatches(),
        }
    }
}

/// Per-layer metrics reported as a mean per traced op, with their units.
const PER_OP: [(&str, &str); 21] = [
    ("floorplan.ms", "ms"),
    ("floorplan.calls", "count"),
    ("decompose.ms", "ms"),
    ("decompose.nodes_visited", "count"),
    ("decompose.leaves_evaluated", "count"),
    ("constraints.ms", "ms"),
    ("constraints.calls", "count"),
    ("glue.ms", "ms"),
    ("verify.ms", "ms"),
    ("verify.cdg_edges", "count"),
    ("sim.compile_ms", "ms"),
    ("sim.run_ms.ideal", "ms"),
    ("sim.run_ms.credit", "ms"),
    ("sim.cycles", "count"),
    ("sim.flits", "count"),
    ("sim.saturation_cutoffs", "count"),
    ("explore.synthesize_ms", "ms"),
    ("explore.measure_ms", "ms"),
    ("explore.report_json_ms", "ms"),
    ("explore.report_bytes", "bytes"),
    ("aes.prototype_ms", "ms"),
];

const WORKLOADS: [&str; 3] = ["campaign_full", "synth_fig4b", "sim_aes"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workload_seed: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        workload_seed: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--workload-seed" => args.workload_seed = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn default_workload_seed(workload: &str) -> u64 {
    match workload {
        "campaign_full" => campaign::DEFAULT_SEED,
        "sim_aes" => aes::DEFAULT_SEED,
        _ => synth::DEFAULT_SEED,
    }
}

fn setup(workload: &str, workload_seed: u64, pins: Pins) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "campaign_full" => Box::new(campaign::CampaignFull::setup(workload_seed, pins)?),
        "synth_fig4b" => Box::new(synth::Synth::setup(workload_seed, pins)),
        "sim_aes" => Box::new(aes::SimAes::setup(workload_seed, pins)?),
        _ => unreachable!("workload name validated by parse_args"),
    })
}

/// Op times and outcomes of one measured phase.
#[derive(Default)]
struct Samples {
    op_ms: Vec<f64>,
    wall_s: f64,
    points: usize,
    /// Ops with a pin mismatch or an error.
    failed: usize,
    /// Quality by op index: every pass must reproduce it, so one value
    /// per op keeps the metric independent of pass count and order.
    quality: BTreeMap<usize, f64>,
    setup_s: Vec<f64>,
    /// Distinct failure messages with their counts.
    problems: BTreeMap<String, usize>,
}

/// Re-runs the workload's set-up; `measure` times it between passes.
type Setup<'a> = &'a dyn Fn() -> Box<dyn Workload>;

/// Runs whole passes until `seconds` of ops have elapsed, starting each
/// pass at op `first`, so every run samples the same mixture of ops.
/// With `setup`, the set-up is timed `SETUPS_PER_PASS` times after each
/// pass: spread over the run, its median sees the same machine as the
/// ops do. Set-up time is excluded from `wall_s`.
fn measure(
    w: &mut dyn Workload,
    probe: &mut Probe,
    seconds: f64,
    first: usize,
    setup: Option<Setup>,
    s: &mut Samples,
) {
    let n = w.ops_per_pass();
    let start = Instant::now();
    let mut setup_total = 0.0;
    loop {
        for k in 0..n {
            let op = (first + k) % n;
            let t0 = Instant::now();
            let r = w.run(op, probe);
            s.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if probe.is_on() {
                // The campaign drains its own spans; drop the rest so the
                // bounded log never fills.
                if let Some(t) = noc::telemetry::active() {
                    t.drain();
                }
            }
            s.points += r.points;
            if let Some(q) = r.quality {
                s.quality.insert(op, q);
            }
            if r.error.is_some() || !r.mismatches.is_empty() {
                s.failed += 1;
            }
            for msg in r.error.into_iter().chain(r.mismatches) {
                *s.problems.entry(msg).or_insert(0) += 1;
            }
        }
        if let Some(setup) = setup {
            for _ in 0..SETUPS_PER_PASS {
                let t0 = Instant::now();
                let again = setup();
                let dt = t0.elapsed().as_secs_f64();
                drop(again);
                s.setup_s.push(dt);
                setup_total += dt;
            }
        }
        if start.elapsed().as_secs_f64() - setup_total >= seconds {
            break;
        }
    }
    s.wall_s = start.elapsed().as_secs_f64() - setup_total;
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest ladder percentile with at least `TAIL_BEYOND` samples
/// above it (nearest rank), else the median, as `(percentile, value)`.
fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in TAIL_LADDER {
        let rank = (p * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= TAIL_BEYOND {
            return (p, v[rank - 1]);
        }
    }
    (0.5, median(xs))
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let default_seed = default_workload_seed(&args.workload);
    let workload_seed = args.workload_seed.unwrap_or(default_seed);
    let pins = match Pins::new(PINS, workload_seed != default_seed) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut w = match setup(&args.workload, workload_seed, pins.clone()) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let n = w.ops_per_pass();
    let first = (args.seed % n as u64) as usize;

    // The first set-up succeeded and set-up is deterministic.
    let setup_again =
        || setup(&args.workload, workload_seed, pins.clone()).expect("set-up repeats");
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // One warm-up pass, excluded from every metric.
    let mut warm = Samples::default();
    measure(
        w.as_mut(),
        &mut Probe::new(false),
        0.0,
        first,
        None,
        &mut warm,
    );
    let mut plain = Samples::default();
    let timed_setup = (!args.trace).then_some(&setup_again as Setup);
    measure(
        w.as_mut(),
        &mut Probe::new(false),
        seconds,
        first,
        timed_setup,
        &mut plain,
    );
    let mut traced = Samples::default();
    let mut probe = Probe::new(true);
    if args.trace {
        noc::telemetry::install(noc::telemetry::Telemetry::recording());
        measure(w.as_mut(), &mut probe, seconds, first, None, &mut traced);
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let all = [&warm, &plain, &traced];
    let attempted: usize = [&plain, &traced].iter().map(|s| s.op_ms.len()).sum();
    let failed: usize = [&plain, &traced].iter().map(|s| s.failed).sum();
    // The warm-up pass is checked too.
    let mut correct = all.iter().all(|s| s.failed == 0);
    let (tail_p, tail_ms) = tail(&plain.op_ms);
    let threads = if args.workload == "campaign_full" {
        campaign::THREADS
    } else {
        1
    };
    eprintln!(
        "{}: workload seed {workload_seed}, {n} ops per pass starting at op {first}, \
         {threads} thread(s), nproc {nproc}",
        args.workload
    );
    eprintln!(
        "untraced: {} ops in {:.2} s, op_ms_tail = p{:.0} over {} samples, fail_ratio {}/{}",
        plain.op_ms.len(),
        plain.wall_s,
        tail_p * 100.0,
        plain.op_ms.len(),
        plain.failed,
        plain.op_ms.len()
    );
    let mut problems = BTreeMap::new();
    for s in [&plain, &traced] {
        for (msg, count) in &s.problems {
            *problems.entry(msg).or_insert(0) += count;
        }
    }
    for (msg, count) in problems {
        eprintln!("failure x{count}: {msg}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        metrics.extend([
            ("setup_s", median(&plain.setup_s), "s"),
            ("points_per_s", plain.points as f64 / plain.wall_s, "1/s"),
            ("op_ms_p50", median(&plain.op_ms), "ms"),
            ("op_ms_tail", tail_ms, "ms"),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
            (
                "quality",
                mean(&plain.quality.values().copied().collect::<Vec<_>>()),
                "ratio",
            ),
        ]);
    } else {
        let ops = traced.op_ms.len() as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let per_s = |cycles: &str, ms: &str| ratio(probe.sum(cycles), probe.sum(ms) / 1e3);
        eprintln!(
            "traced: {} ops in {:.2} s",
            traced.op_ms.len(),
            traced.wall_s
        );
        for (name, unit) in PER_OP {
            metrics.push((name, probe.sum(name) / ops, unit));
        }
        let sum = |name: &str| probe.sum(name);
        metrics.extend([
            (
                "floorplan.useful_ratio",
                ratio(sum("floorplan.distinct"), sum("floorplan.calls")),
                "ratio",
            ),
            (
                "decompose.cache_hit_ratio",
                ratio(
                    sum("decompose.cache_hits"),
                    sum("decompose.cache_hits") + sum("decompose.cache_misses"),
                ),
                "ratio",
            ),
            (
                "constraints.exact_share",
                ratio(sum("constraints.exact"), sum("constraints.calls")),
                "ratio",
            ),
            (
                "sim.cycles_per_s.ideal",
                per_s("sim.cycles.ideal", "sim.run_ms.ideal"),
                "1/s",
            ),
            (
                "sim.cycles_per_s.credit",
                per_s("sim.cycles.credit", "sim.run_ms.credit"),
                "1/s",
            ),
            (
                "aes.energy_saving",
                ratio(sum("aes.energy_saving"), sum("aes.runs")),
                "ratio",
            ),
            (
                "residual_ms",
                mean(&traced.op_ms) - sum(ACCOUNTED) / ops,
                "ms",
            ),
            (
                "telemetry.overhead_ratio",
                median(&traced.op_ms) / median(&plain.op_ms),
                "ratio",
            ),
        ]);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            if !value.is_finite() {
                eprintln!("metric {name} is not finite");
                correct = false;
            }
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}
