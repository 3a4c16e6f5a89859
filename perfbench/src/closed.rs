//! The two closed-loop workloads, `stream-cold` and `insql-dfs`: one
//! client calls [`Pipeline::run`] without a cache, sending its next op
//! only when the previous one has returned.
//!
//! The traced run alternates untimed [`Pipeline::run`] ops with ops
//! driven through the layers' public calls in the pipeline's own order,
//! each call inside a span, so the per-layer split comes from the same
//! work the end-to-end figure measures.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sqlml_common::CancelToken;
use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{
    describe_prep, ClusterConfig, Pipeline, PipelineReport, PipelineRequest, SimCluster, Strategy,
    WorkloadScale,
};
use sqlml_mlengine::{JobRunner, TrainingSpec};
use sqlml_transform::{InSqlTransformer, TransformSpec};

use crate::trace::Tracer;
use crate::{end_to_end, ms, note_failure, stats, sys, Args, Outcome};

/// One closed-loop workload.
pub struct ClosedLoop {
    pub name: &'static str,
    pub strategy: Strategy,
    pub scale: WorkloadScale,
    /// Per-datanode DFS bandwidth in MiB/s (`None` = unthrottled).
    pub throttle_mbps: Option<u64>,
    /// An op counts towards goodput only if it is correct and at most
    /// this slow.
    pub limit: Duration,
}

/// The compute-bound regime: In-SQL transformation streamed straight
/// into the ML job, no DFS throttle.
pub const STREAM_COLD: ClosedLoop = ClosedLoop {
    name: "stream-cold",
    strategy: Strategy::InSqlStream,
    scale: WorkloadScale::SMALL,
    throttle_mbps: None,
    limit: Duration::from_secs(2),
};

/// The paper's I/O-bound regime: In-SQL transformation with one DFS
/// hand-off at the paper's 4 MB/s per-datanode throttle.
pub const INSQL_DFS: ClosedLoop = ClosedLoop {
    name: "insql-dfs",
    strategy: Strategy::InSql,
    // `WorkloadScale::with_carts(100_000)`.
    scale: WorkloadScale {
        carts: 100_000,
        users: 1_000,
    },
    throttle_mbps: Some(4),
    limit: Duration::from_secs(2),
};

/// The paper's 4-node layout (one SQL and one ML worker per node,
/// k = 1, 4 KiB buffers) with the workload's DFS throttle.
pub fn cluster_config(throttle_mbps: Option<u64>) -> ClusterConfig {
    let mut config = ClusterConfig::default();
    config.dfs.bytes_per_sec = throttle_mbps.map(|m| m * 1024 * 1024);
    config
}

/// The running example: prepare carts of USA users, dummy-code gender,
/// train an SVM on `abandoned` (index 4 after dummy coding).
pub fn request() -> PipelineRequest {
    PipelineRequest {
        prep_sql: PREP_QUERY.to_string(),
        spec: TransformSpec::new(&["gender"]),
        ml_command: "svm label=4 iterations=10".to_string(),
    }
}

/// The oracle for one uncached pipeline report.
pub fn check_report(
    report: &PipelineReport,
    reference_rows: usize,
    strategy: Strategy,
) -> Result<(), String> {
    if report.strategy != strategy {
        return Err(format!("ran {:?}, asked {strategy:?}", report.strategy));
    }
    if report.rows_to_ml != reference_rows {
        return Err(format!(
            "{} rows reached ML, the reference count is {reference_rows}",
            report.rows_to_ml
        ));
    }
    match (&report.stream_stats, strategy) {
        (Some(s), Strategy::InSqlStream) => check_stream(
            s.rows_sent,
            s.receive.rows_received,
            s.rows_ingested,
            s.max_attempts,
        ),
        (None, Strategy::InSqlStream) => Err("a streaming run reported no stream stats".into()),
        _ => Ok(()),
    }
}

/// §6 exactly-once on one clean transfer: every row sent was received
/// and ingested once, in one attempt.
pub fn check_stream(
    sent: u64,
    received: u64,
    ingested: usize,
    attempts: u32,
) -> Result<(), String> {
    if sent != received || received != ingested as u64 {
        return Err(format!(
            "rows sent {sent}, received {received}, ingested {ingested}"
        ));
    }
    if attempts != 1 {
        return Err(format!("transfer took {attempts} attempts"));
    }
    Ok(())
}

pub fn run(w: &ClosedLoop, args: &Args) -> Result<Outcome, String> {
    // Set-up: boot, load the seeded warehouse, compute the reference
    // row count, and run one warm-up op.
    let t0 = Instant::now();
    let cluster = SimCluster::start(cluster_config(w.throttle_mbps))
        .map_err(|e| format!("cluster start: {e}"))?;
    cluster
        .load_workload(w.scale, args.seed)
        .map_err(|e| format!("workload load: {e}"))?;
    let req = request();
    let reference = cluster
        .engine
        .query(&req.prep_sql)
        .map_err(|e| format!("reference query: {e}"))?
        .num_rows();
    let pipeline = Pipeline::new(&cluster);
    let warm = pipeline
        .run(&req, w.strategy)
        .map_err(|e| format!("warm-up op: {e}"))?;
    check_report(&warm, reference, w.strategy).map_err(|e| format!("warm-up op: {e}"))?;
    let setup = t0.elapsed();
    println!(
        "{}: {} carts, {} rows to ML per op, set up in {:.3} s",
        w.name,
        w.scale.carts,
        reference,
        setup.as_secs_f64()
    );
    if args.setup_only {
        return Ok(Outcome {
            setup,
            ..Outcome::default()
        });
    }
    let mut outcome = if args.trace {
        traced(w, args, &cluster, &pipeline, &req, reference)?
    } else {
        timed(w, args, &pipeline, &req, reference)
    };
    outcome.setup = setup;
    Ok(outcome)
}

fn timed(
    w: &ClosedLoop,
    args: &Args,
    pipeline: &Pipeline<'_>,
    req: &PipelineRequest,
    reference: usize,
) -> Outcome {
    let (mut attempted, mut failed, mut good, mut rows) = (0u64, 0u64, 0u64, 0u64);
    let mut latencies = Vec::new();
    let cpu0 = sys::usage().cpu;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(args.seconds) {
        let t = Instant::now();
        let result = pipeline.run(req, w.strategy);
        let latency = t.elapsed();
        attempted += 1;
        match result
            .map_err(|e| e.to_string())
            .and_then(|r| check_report(&r, reference, w.strategy).map(|()| r.rows_to_ml))
        {
            Ok(n) => {
                latencies.push(ms(latency));
                rows += n as u64;
                good += u64::from(latency <= w.limit);
            }
            Err(e) => {
                failed += 1;
                note_failure(failed, &e);
            }
        }
    }
    let wall = start.elapsed();
    let cpu = sys::usage().cpu - cpu0;
    Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics: end_to_end(&latencies, good, rows, wall, cpu, attempted),
        setup: Duration::ZERO,
    }
}

/// The per-layer values of one traced op.
type LayerValues = BTreeMap<&'static str, f64>;

fn traced(
    w: &ClosedLoop,
    args: &Args,
    cluster: &SimCluster,
    pipeline: &Pipeline<'_>,
    req: &PipelineRequest,
    reference: usize,
) -> Result<Outcome, String> {
    let transformer = InSqlTransformer::new(cluster.engine.clone());
    let mut tracer = Tracer::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut per_op: Vec<LayerValues> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(args.seconds) {
        attempted += 1;
        let op = u32::try_from(attempted).unwrap_or(u32::MAX);
        let t = Instant::now();
        // Even ops untraced, odd ops traced, so drift hits both alike.
        let result = if attempted % 2 == 0 {
            pipeline
                .run(req, w.strategy)
                .map_err(|e| e.to_string())
                .and_then(|r| check_report(&r, reference, w.strategy))
                .map(|()| None)
        } else {
            traced_op(
                &mut tracer,
                op,
                cluster,
                &transformer,
                req,
                w.strategy,
                reference,
            )
            .map(Some)
        };
        let latency = ms(t.elapsed());
        match result {
            Ok(None) => untraced_ms.push(latency),
            Ok(Some(values)) => {
                traced_ms.push(latency);
                per_op.push(values);
            }
            Err(e) => {
                failed += 1;
                note_failure(failed, &e);
            }
        }
    }
    if let Some(path) = &args.trace_out {
        tracer.write_chrome(path)?;
    }
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let names: Vec<&'static str> = per_op
        .first()
        .map_or_else(Vec::new, |v| v.keys().copied().collect());
    for name in names {
        let values: Vec<f64> = per_op.iter().filter_map(|v| v.get(name).copied()).collect();
        metrics.insert(name, stats::median(&values));
    }
    let (traced_p50, untraced_p50) = (stats::median(&traced_ms), stats::median(&untraced_ms));
    if untraced_p50 > 0.0 {
        metrics.insert("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0);
    }
    metrics.insert("trace.traced_ops", per_op.len() as f64);
    println!(
        "traced p50 {traced_p50:.3} ms over {} ops, untraced p50 {untraced_p50:.3} ms over {} ops",
        traced_ms.len(),
        untraced_ms.len()
    );
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        setup: Duration::ZERO,
    })
}

/// One uncached op driven through each layer's public calls, in the
/// order [`Pipeline::run`] makes them, with a span around each call.
/// Returns the op's per-layer values after checking its output.
fn traced_op(
    tracer: &mut Tracer,
    op: u32,
    cluster: &SimCluster,
    transformer: &InSqlTransformer,
    req: &PipelineRequest,
    strategy: Strategy,
    reference: usize,
) -> Result<LayerValues, String> {
    let engine = &cluster.engine;
    let root = tracer.open(op, None, "op");
    let mut v = LayerValues::new();
    let prep = format!("__perfbench_prep_{op}");
    let handoff = format!("__perfbench_stream_{op}");
    let dir = format!("/perfbench/{op}/insql");
    let result = (|| -> Result<(), String> {
        let ml_spec = tracer.time(op, Some(root), "core.plan", || {
            let spec = TrainingSpec::parse(&req.ml_command).map_err(|e| e.to_string())?;
            describe_prep(engine, &req.prep_sql).map_err(|e| e.to_string())?;
            Ok::<_, String>(spec)
        })?;
        tracer
            .time(op, Some(root), "sqlengine.prep", || {
                engine.execute(&format!("CREATE TABLE {prep} AS {}", req.prep_sql))
            })
            .map_err(|e| format!("prep: {e}"))?;
        v.insert(
            "sqlengine.prep_rows",
            engine.table_rows(&prep).map_err(|e| e.to_string())? as f64,
        );
        let schema = engine
            .catalog()
            .table(&prep)
            .map_err(|e| e.to_string())?
            .schema()
            .clone();
        let columns = req.spec.effective_recode_columns(&schema);
        let map = tracer
            .time(op, Some(root), "transform.recode_map", || {
                transformer.build_recode_map(&prep, &columns)
            })
            .map_err(|e| format!("recode map: {e}"))?;
        let out = tracer
            .time(op, Some(root), "transform.apply", || {
                transformer.transform_with_map(&prep, &req.spec, &map)
            })
            .map_err(|e| format!("transform: {e}"))?;
        tracer
            .time(op, Some(root), "sqlengine.drop", || {
                engine.execute(&format!("DROP TABLE {prep}"))
            })
            .map_err(|e| e.to_string())?;
        v.insert("transform.rows_out", out.table.num_rows() as f64);
        let rows = match strategy {
            Strategy::InSqlStream => {
                engine.register_table(&handoff, out.table);
                let t = Instant::now();
                let outcome = tracer
                    .time(op, Some(root), "transfer.stream", || {
                        cluster.stream.run_with_cancel(
                            engine,
                            &handoff,
                            &req.ml_command,
                            &cluster.stream_config(),
                            &CancelToken::new(),
                        )
                    })
                    .map_err(|e| format!("stream: {e}"))?;
                let wall = t.elapsed();
                let s = &outcome.stats;
                check_stream(
                    s.rows_sent,
                    s.receive.rows_received,
                    s.rows_ingested,
                    s.max_attempts,
                )?;
                let train = outcome.job.train_duration;
                v.insert("transfer.stream_ms", ms(wall.saturating_sub(train)));
                v.insert("mlengine.train_ms", ms(train));
                v.insert(
                    "transfer.wire_bytes_per_row",
                    s.bytes_sent as f64 / s.rows_sent.max(1) as f64,
                );
                v.insert("transfer.frames", s.batches_sent as f64);
                v.insert("transfer.spill_bytes", s.bytes_spilled as f64);
                v.insert("transfer.sender_stall_ms", s.sender_stall_us as f64 / 1e3);
                v.insert("transfer.decode_wait_ms", ms(s.receive.prefetch_wait));
                v.insert(
                    "transfer.first_row_ms",
                    s.receive.time_to_first_row.map_or(0.0, ms),
                );
                v.insert("transfer.attempts", f64::from(s.max_attempts));
                v.insert(
                    "mlengine.local_split_frac",
                    s.local_splits as f64 / s.num_splits.max(1) as f64,
                );
                s.rows_ingested
            }
            _ => {
                let dfs = &cluster.dfs;
                let out_schema = out.table.schema().clone();
                tracer
                    .time(op, Some(root), "dfs.save", || {
                        out.table.save_text(dfs, &dir)
                    })
                    .map_err(|e| format!("hand-off write: {e}"))?;
                let listing = dfs.list(&format!("{dir}/"));
                v.insert(
                    "dfs.handoff_bytes",
                    listing.iter().map(|f| f.len).sum::<u64>() as f64,
                );
                let runner = JobRunner::new(cluster.ml_job_config());
                let (dataset, ingest) = tracer
                    .time(op, Some(root), "mlengine.ingest", || {
                        let fmt = cluster.text_input_format(&dir, out_schema);
                        runner.ingest_dataset(&fmt, ml_spec.label_col())
                    })
                    .map_err(|e| format!("ingest: {e}"))?;
                tracer
                    .time(op, Some(root), "mlengine.train", || {
                        runner.train(&dataset, &ml_spec)
                    })
                    .map_err(|e| format!("train: {e}"))?;
                tracer.time(op, Some(root), "dfs.cleanup", || {
                    for f in dfs.list(&format!("{dir}/")) {
                        let _ = dfs.delete(&f.path);
                    }
                });
                v.insert(
                    "mlengine.local_split_frac",
                    ingest.local_splits as f64 / ingest.num_splits.max(1) as f64,
                );
                ingest.rows
            }
        };
        v.insert("mlengine.rows", rows as f64);
        if rows != reference {
            return Err(format!(
                "traced op delivered {rows} rows to ML, the reference count is {reference}"
            ));
        }
        Ok(())
    })();
    // Leave nothing behind on a failed op.
    let _ = engine.catalog().drop_table(&prep);
    let _ = engine.catalog().drop_table(&handoff);
    for f in cluster.dfs.list(&format!("{dir}/")) {
        let _ = cluster.dfs.delete(&f.path);
    }
    tracer.close(root);
    result?;
    let self_ns = tracer.op_self_times_ns(op);
    let self_ms = |name: &str| self_ns.get(name).map_or(0.0, |&ns| ns as f64 / 1e6);
    v.insert("sqlengine.prep_ms", self_ms("sqlengine.prep"));
    v.insert("transform.recode_map_ms", self_ms("transform.recode_map"));
    v.insert("transform.apply_ms", self_ms("transform.apply"));
    if strategy != Strategy::InSqlStream {
        v.insert("dfs.save_ms", self_ms("dfs.save"));
        v.insert("mlengine.ingest_ms", self_ms("mlengine.ingest"));
        v.insert("mlengine.train_ms", self_ms("mlengine.train"));
    }
    let wall: u64 = self_ns.values().sum();
    v.insert(
        "trace.coverage",
        1.0 - self_ns.get("op").copied().unwrap_or(0) as f64 / wall.max(1) as f64,
    );
    Ok(v)
}
