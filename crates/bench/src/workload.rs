//! Mixed read/write workload driver.
//!
//! Drives concurrent sessions against one engine table with a configured
//! read fraction (e.g. 90/10), reproducing the *system-level* shape of
//! the paper's Experiment 3: query traffic and index-maintenance traffic
//! compete for the same buffer pools and disks, so every extra secondary
//! B+Tree taxes both sides while CMs stay memory-resident. On a sharded
//! engine the driver also exposes the sharding win: per-shard I/O, the
//! makespan over the parallel spindles, and WAL group-commit counters.

use cm_engine::{DesignSet, Engine, EngineError, Result, RouteCounts};
use cm_query::Query;
use cm_storage::{makespan_ms, GroupCommitStats, IoStats, PoolStats, Row};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Mixed-workload parameters.
#[derive(Debug, Clone)]
pub struct MixedWorkloadConfig {
    /// Target table.
    pub table: String,
    /// Pool of read queries; the driver draws from it uniformly.
    pub reads: Vec<Query>,
    /// Rows available for insertion; each is inserted at most once.
    pub insert_rows: Vec<Row>,
    /// Fraction of operations that are reads (e.g. `0.9`).
    pub read_fraction: f64,
    /// Total operations across all threads.
    pub ops: usize,
    /// Concurrent sessions.
    pub threads: usize,
    /// Operations between WAL group commits on each writer.
    pub commit_every: usize,
    /// Workload RNG seed (deterministic op mix per thread).
    pub seed: u64,
    /// Advise mode: after this many completed operations (across all
    /// threads), the crossing thread harvests the table's workload
    /// profile, runs [`Engine::advise_design`], and applies the
    /// recommended set with [`Engine::apply_design`] — a mid-run
    /// re-plan while the other sessions keep working. `None` disables.
    pub advise_after: Option<usize>,
}

/// What a mid-run [`Engine::advise_design`] re-plan did (reported when
/// [`MixedWorkloadConfig::advise_after`] fired).
#[derive(Debug, Clone)]
pub struct AdviceOutcome {
    /// The operation count at which the re-plan ran.
    pub at_op: u64,
    /// The design set the advisor chose and the driver applied.
    pub design: DesignSet,
    /// Human-readable set summary (`col:btree col:cm(2^12) ...`).
    pub label: String,
    /// Structures dropped by the switch.
    pub dropped: usize,
}

/// Per-query latency percentiles over a full sample of simulated
/// per-query times (nearest-rank percentiles; no reservoir — the driver
/// keeps every sample, op counts here are small enough).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Samples observed.
    pub count: u64,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Median (ms).
    pub p50_ms: f64,
    /// 95th percentile (ms).
    pub p95_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// Worst sample (ms).
    pub max_ms: f64,
}

impl LatencyStats {
    /// Summarise a full sample (consumed; sorted internally). Zeros for
    /// an empty sample.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_by(f64::total_cmp);
        let count = samples.len() as u64;
        let mean_ms = samples.iter().sum::<f64>() / count as f64;
        let pct = |q: f64| -> f64 {
            // Nearest-rank: the smallest sample with at least q of the
            // distribution at or below it.
            let rank = ((q * count as f64).ceil() as usize).clamp(1, samples.len());
            samples[rank - 1]
        };
        LatencyStats {
            count,
            mean_ms,
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            max_ms: *samples.last().expect("non-empty"),
        }
    }
}

/// What the driver measured.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Operations completed (reads + writes).
    pub ops: u64,
    /// Read operations completed.
    pub reads: u64,
    /// Write operations completed.
    pub writes: u64,
    /// Rows matched across all reads.
    pub rows_matched: u64,
    /// Simulated disk I/O charged during the run, summed over every
    /// shard disk and the log disk.
    pub io: IoStats,
    /// Per-shard I/O deltas (shard disks only, in shard order).
    pub per_shard_io: Vec<IoStats>,
    /// Simulated time of the busiest disk (shards + log) — the run's
    /// makespan with all spindles working in parallel.
    pub sim_makespan_ms: f64,
    /// Buffer-pool deltas during the run, summed over every shard pool.
    pub pool: PoolStats,
    /// WAL group-commit deltas during the run.
    pub wal: GroupCommitStats,
    /// Planner routing decisions during the run (one per executed leg,
    /// so multi-shard queries count once per shard they ran on).
    pub routes: RouteCounts,
    /// The mid-run design re-plan, when `advise_after` fired.
    pub advice: Option<AdviceOutcome>,
    /// Per-read-query simulated latency percentiles. Each sample is the
    /// query's fan-out makespan ([`cm_engine::QueryOutcome::parallel_ms`]):
    /// on a 1-worker engine that is the serial per-shard sum, with
    /// workers it is the legs list-scheduled over the pool.
    pub read_latency: LatencyStats,
    /// Per-write wall-clock latency percentiles: each sample times one
    /// `insert` call (lock wait included — the number that exposes
    /// writer stalls behind long scans), plus its share of the periodic
    /// group commit when this op triggered one.
    pub write_latency: LatencyStats,
    /// Wall-clock milliseconds the driver ran for.
    pub wall_ms: f64,
    /// Operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Operations per simulated second, charging the disks serially
    /// (total I/O time).
    pub ops_per_sim_sec: f64,
    /// Operations per simulated second with the disks working in
    /// parallel (makespan time) — the aggregate-throughput figure for a
    /// sharded engine.
    pub ops_per_sim_sec_parallel: f64,
    /// The RNG seed the run used ([`MixedWorkloadConfig::seed`]) —
    /// reported so a bench line can be re-run bit-identically.
    pub seed: u64,
}

/// Run a mixed workload against `engine`; blocks until every op is done.
///
/// Operations are split evenly across `threads` sessions. Each session
/// draws its own deterministic op sequence: with probability
/// `read_fraction` a read from `reads`, otherwise the next unclaimed row
/// from `insert_rows` (writers fall back to reads once rows run out).
pub fn run_mixed(engine: &Arc<Engine>, cfg: &MixedWorkloadConfig) -> Result<WorkloadReport> {
    assert!(!cfg.reads.is_empty(), "workload needs at least one read query");
    assert!((0.0..=1.0).contains(&cfg.read_fraction), "read_fraction in [0,1]");
    assert!(cfg.threads > 0, "workload needs at least one thread");

    let io_before = engine.io_totals();
    let shard_before = engine.shard_io();
    let log_before = engine.log_disk().stats();
    let pool_before = engine.pool_totals();
    let wal_before = engine.wal_stats();
    let routes_before = engine.route_counts();

    let next_row = AtomicU64::new(0);
    let reads_done = AtomicU64::new(0);
    let writes_done = AtomicU64::new(0);
    let matched = AtomicU64::new(0);
    let ops_done = AtomicU64::new(0);
    let latencies: parking_lot::Mutex<Vec<f64>> =
        parking_lot::Mutex::new(Vec::with_capacity(cfg.ops));
    let write_latencies: parking_lot::Mutex<Vec<f64>> = parking_lot::Mutex::new(Vec::new());
    let first_err: parking_lot::Mutex<Option<EngineError>> =
        parking_lot::Mutex::new(None);
    let advice: parking_lot::Mutex<Option<AdviceOutcome>> = parking_lot::Mutex::new(None);

    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..cfg.threads {
            let ops = cfg.ops / cfg.threads + usize::from(t < cfg.ops % cfg.threads);
            let session = engine.session();
            let next_row = &next_row;
            let reads_done = &reads_done;
            let writes_done = &writes_done;
            let matched = &matched;
            let ops_done = &ops_done;
            let latencies = &latencies;
            let write_latencies = &write_latencies;
            let first_err = &first_err;
            let advice = &advice;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9E37));
                let mut since_commit = 0usize;
                let mut local_lat: Vec<f64> = Vec::new();
                let mut local_wlat: Vec<f64> = Vec::new();
                for _ in 0..ops {
                    let is_read = rng.gen_bool(cfg.read_fraction);
                    let claimed = if is_read {
                        None
                    } else {
                        let i = next_row.fetch_add(1, Ordering::Relaxed) as usize;
                        cfg.insert_rows.get(i).cloned()
                    };
                    let result = match claimed {
                        Some(row) => {
                            since_commit += 1;
                            let begun = Instant::now();
                            let r = session.insert(&cfg.table, row).map(|_| ());
                            if since_commit >= cfg.commit_every.max(1) {
                                session.commit();
                                since_commit = 0;
                            }
                            local_wlat.push(begun.elapsed().as_secs_f64() * 1000.0);
                            writes_done.fetch_add(1, Ordering::Relaxed);
                            r
                        }
                        None => {
                            let q = &cfg.reads[rng.gen_range(0..cfg.reads.len())];
                            let r = session.execute(&cfg.table, q).map(|out| {
                                matched.fetch_add(out.run.matched, Ordering::Relaxed);
                                local_lat.push(out.parallel_ms);
                            });
                            reads_done.fetch_add(1, Ordering::Relaxed);
                            r
                        }
                    };
                    if let Err(e) = result {
                        latencies.lock().append(&mut local_lat);
                        write_latencies.lock().append(&mut local_wlat);
                        first_err.lock().get_or_insert(e);
                        return;
                    }
                    // Advise mode: the thread that crosses the threshold
                    // re-plans the physical design mid-run — profile
                    // harvest, recommendation, and the structure switch
                    // all happen while the other sessions keep going.
                    let done = ops_done.fetch_add(1, Ordering::Relaxed) + 1;
                    if cfg.advise_after == Some(done as usize) {
                        let replan = session.engine().advise_design(&cfg.table).and_then(
                            |rec| {
                                let applied =
                                    session.engine().apply_design(&cfg.table, &rec.best)?;
                                let schema = session.engine().table_schema(&cfg.table)?;
                                Ok(AdviceOutcome {
                                    at_op: done,
                                    label: rec.best.label(&schema),
                                    design: rec.best,
                                    dropped: applied.dropped,
                                })
                            },
                        );
                        match replan {
                            Ok(outcome) => *advice.lock() = Some(outcome),
                            Err(e) => {
                                latencies.lock().append(&mut local_lat);
                                write_latencies.lock().append(&mut local_wlat);
                                first_err.lock().get_or_insert(e);
                                return;
                            }
                        }
                    }
                }
                if since_commit > 0 {
                    session.commit();
                }
                latencies.lock().append(&mut local_lat);
                write_latencies.lock().append(&mut local_wlat);
            });
        }
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;

    if let Some(e) = first_err.into_inner() {
        return Err(e);
    }

    let io = engine.io_totals().since(&io_before);
    let per_shard_io: Vec<IoStats> = engine
        .shard_io()
        .iter()
        .zip(shard_before.iter())
        .map(|(after, before)| after.since(before))
        .collect();
    let log_io = engine.log_disk().stats().since(&log_before);
    let mut parallel_legs = per_shard_io.clone();
    parallel_legs.push(log_io);
    let sim_makespan_ms = makespan_ms(parallel_legs.iter());
    let reads = reads_done.load(Ordering::Relaxed);
    let writes = writes_done.load(Ordering::Relaxed);
    let ops = reads + writes;
    let read_latency = LatencyStats::from_samples(latencies.into_inner());
    let write_latency = LatencyStats::from_samples(write_latencies.into_inner());
    Ok(WorkloadReport {
        ops,
        reads,
        writes,
        rows_matched: matched.load(Ordering::Relaxed),
        io,
        per_shard_io,
        sim_makespan_ms,
        pool: engine.pool_totals().since(&pool_before),
        wal: engine.wal_stats().since(&wal_before),
        routes: engine.route_counts().since(&routes_before),
        advice: advice.into_inner(),
        read_latency,
        write_latency,
        wall_ms,
        ops_per_sec: if wall_ms > 0.0 { ops as f64 / (wall_ms / 1000.0) } else { 0.0 },
        ops_per_sim_sec: if io.elapsed_ms > 0.0 {
            ops as f64 / (io.elapsed_ms / 1000.0)
        } else {
            0.0
        },
        ops_per_sim_sec_parallel: if sim_makespan_ms > 0.0 {
            ops as f64 / (sim_makespan_ms / 1000.0)
        } else {
            0.0
        },
        seed: cfg.seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_engine::EngineConfig;
    use cm_core::CmSpec;
    use cm_query::Pred;
    use cm_storage::{Column, Schema, Value, ValueType};

    fn engine_with_cm_sharded(shards: usize) -> Arc<Engine> {
        let engine = Engine::new(EngineConfig { shards, ..EngineConfig::default() });
        let schema = Arc::new(Schema::new(vec![
            Column::new("catid", ValueType::Int),
            Column::new("price", ValueType::Int),
        ]));
        engine.create_table("items", schema, 0, 20, 100).unwrap();
        let rows: Vec<Row> = (0..4000i64)
            .map(|i| {
                let cat = i % 80;
                vec![Value::Int(cat), Value::Int(cat * 100 + (i * 13) % 100)]
            })
            .collect();
        engine.load("items", rows).unwrap();
        engine.create_cm("items", "price_cm", CmSpec::single_pow2(1, 4)).unwrap();
        engine
    }

    fn engine_with_cm() -> Arc<Engine> {
        engine_with_cm_sharded(1)
    }

    fn workload(read_fraction: f64, ops: usize, threads: usize) -> MixedWorkloadConfig {
        MixedWorkloadConfig {
            table: "items".into(),
            reads: (0..20)
                .map(|i| Query::single(Pred::eq(1, (i * 397) % 8000i64)))
                .collect(),
            insert_rows: (0..ops as i64)
                .map(|i| vec![Value::Int(80 + i % 5), Value::Int(8000 + i)])
                .collect(),
            read_fraction,
            ops,
            threads,
            commit_every: 16,
            seed: 0xC0FFEE,
            advise_after: None,
        }
    }

    #[test]
    fn mixed_run_completes_all_ops() {
        let engine = engine_with_cm();
        let report = run_mixed(&engine, &workload(0.9, 400, 4)).unwrap();
        assert_eq!(report.ops, 400);
        assert!(report.reads > report.writes, "90/10 mix skews to reads");
        assert!(report.io.elapsed_ms > 0.0);
        assert!(report.ops_per_sim_sec > 0.0);
        assert!(report.sim_makespan_ms > 0.0);
        assert!(report.sim_makespan_ms <= report.io.elapsed_ms + 1e-9);
        assert_eq!(report.per_shard_io.len(), 1);
        // Every read contributed a latency sample.
        assert_eq!(report.read_latency.count, report.reads);
        // ... and every write a wall-clock sample.
        assert_eq!(report.write_latency.count, report.writes);
        assert!(report.write_latency.p50_ms <= report.write_latency.p95_ms);
        assert!(report.write_latency.p95_ms <= report.write_latency.p99_ms);
        assert!(report.write_latency.max_ms > 0.0);
        assert!(report.read_latency.p50_ms <= report.read_latency.p95_ms);
        assert!(report.read_latency.p95_ms <= report.read_latency.p99_ms);
        assert!(report.read_latency.p99_ms <= report.read_latency.max_ms);
        assert!(report.read_latency.max_ms > 0.0);
        // Reads were cost-routed (mostly to the CM for these selective
        // predicates; one leg per read on a single-shard engine).
        assert_eq!(report.routes.total(), report.reads);
        assert!(report.routes.cm_scan > 0, "routes: {:?}", report.routes);
        // Writers committed through the group-commit WAL.
        assert!(report.wal.commit_requests > 0);
        assert_eq!(
            report.wal.commit_requests,
            report.wal.flushes + report.wal.absorbed
        );
        // Inserted rows are visible afterwards.
        let out = engine
            .execute("items", &Query::single(Pred::between(1, 8000i64, 100_000i64)))
            .unwrap();
        assert_eq!(out.run.matched, report.writes);
    }

    #[test]
    fn latency_percentiles_from_samples() {
        let s = LatencyStats::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        assert_eq!(LatencyStats::from_samples(Vec::new()), LatencyStats::default());
        let one = LatencyStats::from_samples(vec![7.0]);
        assert_eq!((one.p50_ms, one.p99_ms, one.count), (7.0, 7.0, 1));
        // Unsorted input is handled.
        let s = LatencyStats::from_samples(vec![5.0, 1.0, 3.0]);
        assert_eq!(s.p50_ms, 3.0);
        assert_eq!(s.max_ms, 5.0);
    }

    #[test]
    fn fanout_workers_cut_read_latency_percentiles() {
        // Same sharded data, same read-only workload: an engine with
        // fan-out workers must report lower per-query latency than the
        // sequential engine, with identical matched counts.
        let run_with = |workers: usize| {
            let engine = Engine::new(EngineConfig {
                shards: 4,
                workers,
                ..EngineConfig::default()
            });
            let schema = Arc::new(Schema::new(vec![
                Column::new("catid", ValueType::Int),
                Column::new("price", ValueType::Int),
            ]));
            engine.create_table("items", schema, 0, 20, 100).unwrap();
            let rows: Vec<Row> = (0..4000i64)
                .map(|i| vec![Value::Int(i % 80), Value::Int(i)])
                .collect();
            engine.load("items", rows).unwrap();
            let wl = MixedWorkloadConfig {
                table: "items".into(),
                // Wide clustered ranges spanning every shard.
                reads: (0..8)
                    .map(|i| Query::single(Pred::between(0, i, 79i64)))
                    .collect(),
                insert_rows: Vec::new(),
                read_fraction: 1.0,
                ops: 40,
                threads: 1,
                commit_every: 16,
                seed: 7,
                advise_after: None,
            };
            run_mixed(&engine, &wl).unwrap()
        };
        let seq = run_with(1);
        let par = run_with(4);
        assert_eq!(seq.rows_matched, par.rows_matched);
        assert!(
            par.read_latency.p99_ms < 0.7 * seq.read_latency.p99_ms,
            "4 workers beat 1: {} vs {}",
            par.read_latency.p99_ms,
            seq.read_latency.p99_ms
        );
    }

    #[test]
    fn advise_mode_replans_mid_run_and_stays_correct() {
        // Start with no secondary structures: the profiling prefix
        // routes scans, then the crossing thread advises and applies a
        // design mid-run while the other sessions keep operating.
        let engine = Engine::new(EngineConfig::default());
        let schema = Arc::new(Schema::new(vec![
            Column::new("catid", ValueType::Int),
            Column::new("price", ValueType::Int),
        ]));
        engine.create_table("items", schema, 0, 20, 100).unwrap();
        let rows: Vec<Row> = (0..4000i64)
            .map(|i| {
                let cat = i % 80;
                vec![Value::Int(cat), Value::Int(cat * 100 + (i * 13) % 100)]
            })
            .collect();
        engine.load("items", rows).unwrap();

        let mut wl = workload(0.9, 400, 4);
        wl.advise_after = Some(100);
        let report = run_mixed(&engine, &wl).unwrap();
        assert_eq!(report.ops, 400);
        let advice = report.advice.expect("re-plan fired");
        assert_eq!(advice.at_op, 100);
        assert!(!advice.label.is_empty());
        assert!(
            advice.design.columns.iter().any(|c| c.col == 1 && c.structure.is_some()),
            "the hot price column earned a structure: {advice:?}"
        );
        // The applied design is live on the table.
        let info = engine.table_info("items").unwrap();
        assert_eq!(
            info.secondaries + info.cms,
            advice.design.btrees() + advice.design.cms()
        );
        // Results after the mid-run switch agree with a scan oracle.
        let q = Query::single(Pred::eq(1, 397i64));
        let routed = engine.execute_collect("items", &q).unwrap();
        let oracle = engine
            .execute_via_collect("items", cm_query::AccessPath::FullScan, &q)
            .unwrap();
        let (mut a, mut b) = (routed.rows.unwrap(), oracle.rows.unwrap());
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Without the threshold no advice is reported.
        let engine2 = engine_with_cm();
        let report2 = run_mixed(&engine2, &workload(0.9, 100, 2)).unwrap();
        assert!(report2.advice.is_none());
    }

    #[test]
    fn pure_read_workload_never_writes() {
        let engine = engine_with_cm();
        let report = run_mixed(&engine, &workload(1.0, 100, 2)).unwrap();
        assert_eq!(report.writes, 0);
        assert_eq!(report.reads, 100);
        assert_eq!(engine.stats().inserts, 0);
    }

    #[test]
    fn single_thread_is_deterministic_in_op_mix() {
        let e1 = engine_with_cm();
        let e2 = engine_with_cm();
        let r1 = run_mixed(&e1, &workload(0.8, 200, 1)).unwrap();
        let r2 = run_mixed(&e2, &workload(0.8, 200, 1)).unwrap();
        assert_eq!(r1.reads, r2.reads);
        assert_eq!(r1.writes, r2.writes);
        assert_eq!(r1.rows_matched, r2.rows_matched);
        assert!((r1.io.elapsed_ms - r2.io.elapsed_ms).abs() < 1e-6);
    }

    #[test]
    fn sharded_run_spreads_io_and_stays_correct() {
        let engine = engine_with_cm_sharded(4);
        let report = run_mixed(&engine, &workload(0.5, 400, 4)).unwrap();
        assert_eq!(report.ops, 400);
        assert_eq!(report.per_shard_io.len(), 4);
        let busy = report.per_shard_io.iter().filter(|io| io.pages() > 0).count();
        assert!(busy >= 2, "work lands on multiple shards");
        assert!(report.ops_per_sim_sec_parallel >= report.ops_per_sim_sec);
        // Inserted rows are visible afterwards (all inserts carry
        // catid 80..85, owned by the last shard).
        let out = engine
            .execute("items", &Query::single(Pred::between(1, 8000i64, 100_000i64)))
            .unwrap();
        assert_eq!(out.run.matched, report.writes);
    }
}
