//! The sqlml benchmark: three workloads that drive the SQL → ML pipeline
//! end to end through the workspace's public API, check every output,
//! and print every metric by name with its unit. The last line of
//! standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! ```text
//! sqlml-perfbench --workload <stream-cold|insql-dfs|serve-mix> --seed N
//!                 --seconds S --trace <0|1> [--trace-out FILE]
//!                 [--rate QPS] [--setup-only]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (set-up is repeated in
//! child processes and its median reported); `--trace 1` is a separate
//! run that reports the per-layer metrics. `--rate` overrides the
//! `serve-mix` arrival rate, for re-measuring saturation. See
//! `perfbench/README.md` for the workloads, metrics and predictions.

mod closed;
mod schedule;
mod serve;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per `--trace 0` run: this process's own plus child processes
/// that only set up; `setup_s` is their median.
const SETUP_RUNS: usize = 3;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub rate: Option<f64>,
    pub setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        trace_out: None,
        rate: None,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("whole seconds"))?;
                if args.seconds == 0 {
                    return Err(bad("at least 1"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(&value)),
            "--rate" => {
                let r: f64 = value.parse().map_err(|_| bad("a rate in q/s"))?;
                if !(r > 0.0 && r.is_finite()) {
                    return Err(bad("a positive rate"));
                }
                args.rate = Some(r);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("goodput_qps", "1/s"),
    ("rows_per_s", "rows/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics of the traced run. A layer a workload never
/// calls reports 0 there.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("sqlengine.prep_ms", "ms"),
    ("sqlengine.prep_rows", "count"),
    ("transform.recode_map_ms", "ms"),
    ("transform.apply_ms", "ms"),
    ("transform.rows_out", "count"),
    ("transfer.stream_ms", "ms"),
    ("transfer.wire_bytes_per_row", "B/row"),
    ("transfer.frames", "count"),
    ("transfer.spill_bytes", "B"),
    ("transfer.sender_stall_ms", "ms"),
    ("transfer.decode_wait_ms", "ms"),
    ("transfer.first_row_ms", "ms"),
    ("transfer.attempts", "count"),
    ("mlengine.ingest_ms", "ms"),
    ("mlengine.train_ms", "ms"),
    ("mlengine.rows", "count"),
    ("mlengine.local_split_frac", "frac"),
    ("dfs.save_ms", "ms"),
    ("dfs.handoff_bytes", "B"),
    ("core.naive_prep_ms", "ms"),
    ("core.naive_trsfm_ms", "ms"),
    ("core.naive_input_ms", "ms"),
    ("cache.full_hits", "count"),
    ("cache.map_hits", "count"),
    ("cache.bypass", "count"),
    ("class.full_hit_p50_ms", "ms"),
    ("class.map_hit_p50_ms", "ms"),
    ("class.bypass_p50_ms", "ms"),
    ("sched.queue_wait_p50_ms", "ms"),
    ("sched.queue_wait_p90_ms", "ms"),
    ("sched.run_p50_ms", "ms"),
    ("sched.stolen", "count"),
    ("sched.affinity_hits", "count"),
    ("sched.rejected", "count"),
    ("sched.inflight_hw", "count"),
    ("gen.late_p90_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.traced_ops", "count"),
];

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every check passed (no failed op, and every run-level check held).
    pub correct: bool,
    /// Metric name → value; must cover [`END_TO_END`] (minus `setup_s`,
    /// which `main` adds) or [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// This process's own set-up time.
    pub setup: Duration,
}

/// Milliseconds, with all digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Log one failed op to stderr (the first few only) without stopping.
pub fn note_failure(failed: u64, what: &str) {
    if failed <= 5 {
        eprintln!("op failed: {what}");
    }
}

/// The end-to-end metrics common to every workload, from one measured
/// phase. `latencies_ms` holds the correct ops only.
pub fn end_to_end(
    latencies_ms: &[f64],
    good_within_limit: u64,
    rows: u64,
    wall: Duration,
    cpu: Duration,
    attempted: u64,
) -> BTreeMap<&'static str, f64> {
    let sorted = stats::sorted(latencies_ms);
    let (p50, tail) = if sorted.is_empty() {
        (0.0, 0.0)
    } else {
        (
            stats::percentile(&sorted, 50),
            stats::percentile(&sorted, stats::TAIL),
        )
    };
    let secs = wall.as_secs_f64().max(1e-9);
    let mut m = BTreeMap::new();
    m.insert("latency_p50_ms", p50);
    m.insert("latency_p90_ms", tail);
    m.insert("goodput_qps", good_within_limit as f64 / secs);
    m.insert("rows_per_s", rows as f64 / secs);
    m.insert("cpu_ms_per_op", ms(cpu) / attempted.max(1) as f64);
    m.insert("peak_rss_mb", sys::usage().max_rss_kib as f64 / 1024.0);
    let n = sorted.len();
    match stats::highest_supported_percentile(n) {
        Some(p) if p >= stats::TAIL => {
            println!("samples: {n} (p{p} is the highest percentile with >= 10 beyond it)")
        }
        _ => println!(
            "samples: {n} -- too few for p{}; the tail figure is not supported",
            stats::TAIL
        ),
    }
    m
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "stream-cold" => closed::run(&closed::STREAM_COLD, args),
        "insql-dfs" => closed::run(&closed::INSQL_DFS, args),
        "serve-mix" => serve::run(args),
        other => Err(format!(
            "unknown workload {other:?} (stream-cold, insql-dfs, serve-mix)"
        )),
    }
}

/// Set up in `SETUP_RUNS - 1` fresh child processes, one at a time, and
/// return their set-up times.
fn child_setups(args: &Args) -> Result<Vec<Duration>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut out = Vec::new();
    for _ in 1..SETUP_RUNS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--setup-only");
        if let Some(rate) = args.rate {
            cmd.args(["--rate", &rate.to_string()]);
        }
        let child = cmd
            .output()
            .map_err(|e| format!("spawning a set-up run: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        if !child.status.success() {
            return Err(format!(
                "set-up run failed ({}): {}",
                child.status,
                String::from_utf8_lossy(&child.stderr)
            ));
        }
        let secs: f64 = stdout
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("set-up run printed no setup_s: {stdout}"))?;
        out.push(Duration::from_secs_f64(secs));
    }
    Ok(out)
}

fn result_json(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}}");
    json
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match run_workload(&args) {
            Ok(o) => {
                println!("setup_s {:?}", o.setup.as_secs_f64());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} cores)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut outcome = match run_workload(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        let mut setups = vec![outcome.setup];
        match child_setups(&args) {
            Ok(more) => setups.extend(more),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
        let secs: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
        println!("set-up runs (s): {secs:?}");
        outcome.metrics.insert("setup_s", stats::median(&secs));
        &END_TO_END
    };
    println!(
        "error_rate: {} ({} of {} ops failed or were wrong)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for (name, unit) in names {
        if let Some(v) = outcome.metrics.get(name) {
            println!("{name:<28} {v:>14.4} {unit}");
        }
    }
    println!("{}", result_json(&outcome, names));
    ExitCode::SUCCESS
}
