//! The `serve-mix` workload: an open loop at one fixed arrival rate
//! through the sharded [`QueryScheduler`], with a seeded mix of three
//! request classes whose cache outcome is a property of the request.
//!
//! Set-up warms every shard's cache with pinned submits, so a full-hit
//! or map-hit request hits on whichever shard runs it. Each request is
//! timed from when it was due, not from when it was submitted. Its
//! per-layer numbers come from the scheduler's public outputs (the
//! report, the handle's latency split, the stats snapshot), which the
//! untraced run reads too: the traced run adds no instrumentation.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{CacheMode, PipelineReport, PipelineRequest, SimCluster, Strategy, WorkloadScale};
use sqlml_sched::{QueryHandle, QueryScheduler, QuerySpec, SchedulerConfig, SubmitOpts};
use sqlml_transform::TransformSpec;

use crate::closed::{check_stream, cluster_config, request};
use crate::schedule::{self, Arrival, Class, BLOCK, TENANTS};
use crate::trace::Tracer;
use crate::{end_to_end, ms, note_failure, stats, sys, Args, Outcome};

pub const SHARDS: usize = 2;
/// Per shard (`WorkloadScale::with_carts(40_000)`).
pub const SCALE: WorkloadScale = WorkloadScale {
    carts: 40_000,
    users: 400,
};
pub const THROTTLE_MBPS: u64 = 4;
/// Requests per class in every block of ten: full-hit, map-hit, bypass.
pub const SHARES: [usize; 3] = [7, 1, 2];
/// Arrivals per second: about half the saturation rate measured with the
/// host fast, and below saturation when it is slow (see
/// `perfbench/README.md`), so queueing does not amplify host-speed drift.
pub const RATE_QPS: f64 = 14.0;
/// A request counts towards goodput only if it is correct and completes
/// within this long of when it was due.
pub const LIMIT: Duration = Duration::from_millis(1000);

/// The §5.2 follow-up of `core::pipeline`'s tests: an extra predicate on
/// an unprojected field and a wider projection, so only the recode map
/// can be reused.
pub const FOLLOW_UP_QUERY: &str = "SELECT U.age, U.gender, C.amount, C.nitems, C.abandoned \
     FROM carts C, users U \
     WHERE C.userid = U.userid AND U.country = 'USA' AND C.year = 2014";

fn class_request(class: Class) -> (PipelineRequest, Strategy) {
    match class {
        Class::FullHit => (request(), Strategy::InSqlStream),
        Class::MapHit => (
            PipelineRequest {
                prep_sql: FOLLOW_UP_QUERY.to_string(),
                spec: TransformSpec::new(&["gender"]),
                ml_command: "svm label=5 iterations=10".to_string(),
            },
            Strategy::InSqlStream,
        ),
        Class::Bypass => (request(), Strategy::Naive),
    }
}

fn expected_mode(class: Class) -> CacheMode {
    match class {
        Class::FullHit => CacheMode::FullResult,
        Class::MapHit => CacheMode::RecodeMap,
        Class::Bypass => CacheMode::None,
    }
}

/// The oracle for one served request of `class`.
fn check(report: &PipelineReport, class: Class, reference: &[usize; 3]) -> Result<(), String> {
    let (_, strategy) = class_request(class);
    if report.strategy != strategy {
        return Err(format!("{}: ran {:?}", class.label(), report.strategy));
    }
    if report.cache_use != expected_mode(class) {
        return Err(format!(
            "{}: cache use {:?}, planned {:?}",
            class.label(),
            report.cache_use,
            expected_mode(class)
        ));
    }
    if report.rows_to_ml != reference[class as usize] {
        return Err(format!(
            "{}: {} rows reached ML, the reference count is {}",
            class.label(),
            report.rows_to_ml,
            reference[class as usize]
        ));
    }
    if let Some(s) = &report.stream_stats {
        check_stream(
            s.rows_sent,
            s.receive.rows_received,
            s.rows_ingested,
            s.max_attempts,
        )
        .map_err(|e| format!("{}: {e}", class.label()))?;
    }
    Ok(())
}

/// Run the cache-filling miss pinned to `shard` and check it ran there.
fn warm(sched: &QueryScheduler, shard: usize) -> Result<(), String> {
    let (req, strategy) = class_request(Class::FullHit);
    let handle = sched
        .submit_opts(
            QuerySpec::new(TENANTS[0].0, req, strategy),
            SubmitOpts::pinned(shard).no_retry(),
        )
        .map_err(|e| format!("warming shard {shard}: {e}"))?;
    let result = handle.wait();
    let report = result
        .as_ref()
        .as_ref()
        .map_err(|e| format!("warming shard {shard}: {e}"))?;
    if handle.ran_on() != Some(shard) || report.cache_use != CacheMode::None {
        return Err(format!(
            "warming shard {shard}: ran on {:?} with cache use {:?}",
            handle.ran_on(),
            report.cache_use
        ));
    }
    Ok(())
}

/// Boot the fleet, compute reference row counts, and warm every shard's
/// cache with one pinned miss, which is also the shard's warm-up op.
fn set_up(seed: u64) -> Result<(QueryScheduler, [usize; 3]), String> {
    let clusters =
        SimCluster::start_shards(cluster_config(Some(THROTTLE_MBPS)), SHARDS, SCALE, seed)
            .map_err(|e| format!("shard boot: {e}"))?;
    let rows = |sql: &str| {
        clusters[0]
            .engine
            .query(sql)
            .map(|t| t.num_rows())
            .map_err(|e| format!("reference query: {e}"))
    };
    let prep_rows = rows(PREP_QUERY)?;
    let reference = [prep_rows, rows(FOLLOW_UP_QUERY)?, prep_rows];
    let sched = QueryScheduler::builder(SchedulerConfig::default())
        .clusters(clusters)
        .build()
        .map_err(|e| format!("scheduler: {e}"))?;
    for (tenant, weight) in TENANTS {
        sched.set_tenant_weight(tenant, weight);
    }
    for shard in sched.shard_ids() {
        // Stores the transformed result and its recode map, so every
        // full-hit and map-hit request hits wherever it runs.
        warm(&sched, shard)?;
    }
    Ok((sched, reference))
}

/// What the generator hands the collector for one arrival.
struct Submitted {
    arrival: Arrival,
    due: Instant,
    submit: Instant,
    admitted: Instant,
    handle: Result<QueryHandle, String>,
}

/// One finished request, as the collector saw it.
struct Served {
    class: Class,
    due: Instant,
    late: Duration,
    /// `Some` when the request ran: (queued, running, finished at).
    timing: Option<(Duration, Duration, Instant)>,
    result: Result<Facts, String>,
}

/// The parts of a checked report the metrics need.
struct Facts {
    rows: usize,
    train: Duration,
    stages: Vec<(String, Duration)>,
    stream: Option<StreamFacts>,
}

/// Stream counters copied out of a report, so the report itself can be
/// dropped as soon as it is checked.
#[derive(Debug, Clone, Copy)]
struct StreamFacts {
    wire_bytes_per_row: f64,
    frames: u64,
    spill_bytes: u64,
    sender_stall_ms: f64,
    decode_wait_ms: f64,
    first_row_ms: f64,
    attempts: u32,
    local_split_frac: f64,
}

fn facts(report: &PipelineReport) -> Facts {
    Facts {
        rows: report.rows_to_ml,
        train: report.train_time,
        stages: report
            .timer
            .stages()
            .iter()
            .map(|s| (s.name.clone(), s.duration))
            .collect(),
        stream: report.stream_stats.as_ref().map(|s| StreamFacts {
            wire_bytes_per_row: s.bytes_sent as f64 / s.rows_sent.max(1) as f64,
            frames: s.batches_sent,
            spill_bytes: s.bytes_spilled,
            sender_stall_ms: s.sender_stall_us as f64 / 1e3,
            decode_wait_ms: ms(s.receive.prefetch_wait),
            first_row_ms: s.receive.time_to_first_row.map_or(0.0, ms),
            attempts: s.max_attempts,
            local_split_frac: s.local_splits as f64 / s.num_splits.max(1) as f64,
        }),
    }
}

/// Wait for each submitted request in arrival order and check it. The
/// finish time comes from the handle's own latency split, so waiting in
/// order does not delay it.
fn collect(rx: mpsc::Receiver<Submitted>, reference: [usize; 3]) -> Vec<Served> {
    let mut out = Vec::new();
    for sub in rx {
        let class = sub.arrival.class;
        let late = sub.submit.saturating_duration_since(sub.due);
        let served = match sub.handle {
            Err(reject) => Served {
                class,
                due: sub.due,
                late,
                timing: None,
                result: Err(format!("{}: rejected: {reject}", class.label())),
            },
            Ok(handle) => {
                let result = handle.wait();
                // Admission stamps the handle just before `submit`
                // returns, so `admitted + total` is its finish time.
                let timing = handle
                    .latency()
                    .map(|l| (l.queued, l.running, sub.admitted + l.total));
                let result = match result.as_ref() {
                    Ok(report) => check(report, class, &reference).map(|()| facts(report)),
                    Err(e) => Err(format!("{}: {e}", class.label())),
                };
                Served {
                    class,
                    due: sub.due,
                    late,
                    timing,
                    result,
                }
            }
        };
        out.push(served);
    }
    out
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let (sched, reference) = set_up(args.seed)?;
    let setup = t0.elapsed();
    println!(
        "serve-mix: {SHARDS} shards x {} carts, {} / {} rows to ML (prep / follow-up), set up in {:.3} s",
        SCALE.carts,
        reference[0],
        reference[1],
        setup.as_secs_f64()
    );
    if args.setup_only {
        sched.shutdown();
        return Ok(Outcome {
            setup,
            ..Outcome::default()
        });
    }

    let rate = args.rate.unwrap_or(RATE_QPS);
    let blocks = ((rate * args.seconds as f64) / BLOCK as f64)
        .round()
        .max(1.0) as usize;
    let plan = schedule::plan(args.seed, blocks, SHARES);
    let planned = schedule::class_counts(&plan);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let requests: Vec<(PipelineRequest, Strategy)> =
        Class::ALL.iter().map(|&c| class_request(c)).collect();

    let before = sched.stats();
    let cpu0 = sys::usage().cpu;
    let start = Instant::now();
    let served = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let collector = scope.spawn(move || collect(rx, reference));
        for (i, arrival) in plan.iter().enumerate() {
            let due = start + interval.mul_f64(i as f64);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submit = Instant::now();
            let (req, strategy) = &requests[arrival.class as usize];
            let handle = sched
                .submit_opts(
                    QuerySpec::new(TENANTS[arrival.tenant].0, req.clone(), *strategy),
                    SubmitOpts::default().no_retry(),
                )
                .map_err(|r| r.to_string());
            let admitted = Instant::now();
            let sent = tx.send(Submitted {
                arrival: *arrival,
                due,
                submit,
                admitted,
                handle,
            });
            if sent.is_err() {
                break;
            }
        }
        drop(tx);
        collector.join()
    })
    .map_err(|_| "the collector thread panicked".to_string())?;
    let cpu = sys::usage().cpu - cpu0;
    let after = sched.stats();
    sched.shutdown();

    let attempted = plan.len() as u64;
    let mut failed = 0u64;
    let mut latencies = Vec::new();
    let (mut good, mut rows) = (0u64, 0u64);
    let mut end = start;
    let mut class_ms: [Vec<f64>; 3] = Default::default();
    let mut served_counts = [0usize; 3];
    for s in &served {
        if let Some((_, _, finished)) = s.timing {
            end = end.max(finished);
        }
        match (&s.result, s.timing) {
            (Ok(f), Some((_, _, finished))) => {
                let latency = finished.saturating_duration_since(s.due);
                latencies.push(ms(latency));
                class_ms[s.class as usize].push(ms(latency));
                served_counts[s.class as usize] += 1;
                rows += f.rows as u64;
                good += u64::from(latency <= LIMIT);
            }
            (Ok(_), None) => {
                failed += 1;
                note_failure(failed, "a completed request has no latency split");
            }
            (Err(e), _) => {
                failed += 1;
                note_failure(failed, e);
            }
        }
    }
    failed += attempted.saturating_sub(served.len() as u64);
    let wall = end.saturating_duration_since(start);
    let late_ms: Vec<f64> = served.iter().map(|s| ms(s.late)).collect();
    let late_sorted = stats::sorted(&late_ms);
    let late_p90 = stats::percentile(&late_sorted, stats::TAIL);
    println!(
        "rate {rate} q/s for {:.1} s, {} requests, planned classes {planned:?}, served {served_counts:?}",
        interval.as_secs_f64() * plan.len() as f64,
        plan.len(),
    );
    println!(
        "class p50 ms: full-hit {:.3}, map-hit {:.3}, bypass {:.3}; generator late p90 {late_p90:.3} ms; rejected {}",
        stats::median(&class_ms[0]),
        stats::median(&class_ms[1]),
        stats::median(&class_ms[2]),
        after.rejected - before.rejected,
    );
    let correct = failed == 0 && served_counts == planned;

    let metrics = if args.trace {
        let mut tracer = Tracer::with_epoch(start);
        let m = layer_metrics(&served, &before, &after, &class_ms, &mut tracer);
        if let Some(path) = &args.trace_out {
            tracer.write_chrome(path)?;
        }
        m
    } else {
        end_to_end(&latencies, good, rows, wall, cpu, attempted)
    };
    Ok(Outcome {
        attempted,
        failed,
        correct,
        metrics,
        setup,
    })
}

/// The per-layer numbers of one run, from the public outputs of its
/// requests. Each request becomes an `op` span (due → finished) with
/// `sched.queue` and `sched.run` children from its latency split.
fn layer_metrics(
    served: &[Served],
    before: &sqlml_sched::SchedStatsSnapshot,
    after: &sqlml_sched::SchedStatsSnapshot,
    class_ms: &[Vec<f64>; 3],
    tracer: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let ok: Vec<&Facts> = served
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .collect();
    let mut modes = [0usize; 3];
    for s in served.iter().filter(|s| s.result.is_ok()) {
        modes[s.class as usize] += 1;
    }
    m.insert("cache.full_hits", modes[0] as f64);
    m.insert("cache.map_hits", modes[1] as f64);
    m.insert("cache.bypass", modes[2] as f64);
    m.insert("class.full_hit_p50_ms", stats::median(&class_ms[0]));
    m.insert("class.map_hit_p50_ms", stats::median(&class_ms[1]));
    m.insert("class.bypass_p50_ms", stats::median(&class_ms[2]));

    let timed: Vec<(Duration, Duration)> = served
        .iter()
        .filter_map(|s| s.timing.map(|(q, r, _)| (q, r)))
        .collect();
    let queued: Vec<f64> = timed.iter().map(|(q, _)| ms(*q)).collect();
    let running: Vec<f64> = timed.iter().map(|(_, r)| ms(*r)).collect();
    if !queued.is_empty() {
        let sorted = stats::sorted(&queued);
        m.insert("sched.queue_wait_p50_ms", stats::percentile(&sorted, 50));
        m.insert(
            "sched.queue_wait_p90_ms",
            stats::percentile(&sorted, stats::TAIL),
        );
    }
    m.insert("sched.run_p50_ms", stats::median(&running));
    let sum = |s: &sqlml_sched::SchedStatsSnapshot, f: fn(&sqlml_sched::ClusterCounters) -> u64| {
        s.per_cluster.iter().map(f).sum::<u64>()
    };
    m.insert(
        "sched.stolen",
        (sum(after, |c| c.stolen) - sum(before, |c| c.stolen)) as f64,
    );
    m.insert(
        "sched.affinity_hits",
        (sum(after, |c| c.cache_affinity_hits) - sum(before, |c| c.cache_affinity_hits)) as f64,
    );
    m.insert("sched.rejected", (after.rejected - before.rejected) as f64);
    m.insert("sched.inflight_hw", after.inflight_high_water as f64);

    let late: Vec<f64> = served.iter().map(|s| ms(s.late)).collect();
    let late_sorted = stats::sorted(&late);
    m.insert(
        "gen.late_p90_ms",
        stats::percentile(&late_sorted, stats::TAIL),
    );
    m.insert(
        "gen.late_max_ms",
        late_sorted.last().copied().unwrap_or(0.0),
    );

    let stage = |name: &str| -> f64 {
        let v: Vec<f64> = ok
            .iter()
            .flat_map(|f| {
                f.stages
                    .iter()
                    .filter(|(n, _)| n == name)
                    .map(|(_, d)| ms(*d))
            })
            .collect();
        stats::median(&v)
    };
    // A full-hit request's one pipelined stage is a select over the
    // cached result plus the stream into ML, training excluded.
    let full_hit_stage: Vec<f64> = served
        .iter()
        .filter(|s| s.class == Class::FullHit)
        .filter_map(|s| s.result.as_ref().ok())
        .flat_map(|f| f.stages.iter().map(|(_, d)| ms(*d)))
        .collect();
    m.insert("transfer.stream_ms", stats::median(&full_hit_stage));
    m.insert("core.naive_prep_ms", stage("prep"));
    m.insert("core.naive_trsfm_ms", stage("trsfm"));
    m.insert("core.naive_input_ms", stage("input for ml"));

    let streams: Vec<StreamFacts> = ok.iter().filter_map(|f| f.stream).collect();
    let med =
        |f: fn(&StreamFacts) -> f64| stats::median(&streams.iter().map(f).collect::<Vec<_>>());
    m.insert("transfer.wire_bytes_per_row", med(|s| s.wire_bytes_per_row));
    m.insert("transfer.frames", med(|s| s.frames as f64));
    m.insert("transfer.spill_bytes", med(|s| s.spill_bytes as f64));
    m.insert("transfer.sender_stall_ms", med(|s| s.sender_stall_ms));
    m.insert("transfer.decode_wait_ms", med(|s| s.decode_wait_ms));
    m.insert("transfer.first_row_ms", med(|s| s.first_row_ms));
    m.insert(
        "transfer.attempts",
        streams
            .iter()
            .map(|s| f64::from(s.attempts))
            .fold(0.0, f64::max),
    );
    m.insert("mlengine.local_split_frac", med(|s| s.local_split_frac));
    m.insert(
        "mlengine.train_ms",
        stats::median(&ok.iter().map(|f| ms(f.train)).collect::<Vec<_>>()),
    );
    m.insert(
        "mlengine.rows",
        ok.iter().map(|f| f.rows as f64).sum::<f64>() / ok.len().max(1) as f64,
    );

    // Spans: due → finished per request, covered by queue wait and run.
    let mut coverage = Vec::new();
    for (i, s) in served.iter().enumerate() {
        let Some((queued, running, finished)) = s.timing else {
            continue;
        };
        let op = u32::try_from(i + 1).unwrap_or(u32::MAX);
        let started = finished - running;
        let root = tracer.record(op, None, "op", tracer.at(s.due), tracer.at(finished));
        tracer.record(
            op,
            Some(root),
            "sched.queue",
            tracer.at(started - queued),
            tracer.at(started),
        );
        tracer.record(
            op,
            Some(root),
            "sched.run",
            tracer.at(started),
            tracer.at(finished),
        );
        let total = tracer.spans()[root].duration_ns().max(1) as f64;
        coverage.push(1.0 - tracer.self_time_ns(root) as f64 / total);
    }
    m.insert("trace.coverage", stats::median(&coverage));
    // Read from outputs the untraced run reads too: no added cost.
    m.insert("trace.overhead_frac", 0.0);
    m.insert("trace.traced_ops", served.len() as f64);
    m
}
