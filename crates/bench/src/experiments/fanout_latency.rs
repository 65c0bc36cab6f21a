//! **Fan-out latency benchmark** — per-query latency of multi-shard
//! range queries as the executor worker count grows, at fixed shard
//! counts.
//!
//! PR 2's sharding improved *aggregate* throughput (concurrent sessions
//! stop interleaving one disk head) but left per-query latency flat: a
//! query spanning N shards still ran its legs one after another on the
//! calling thread. The two-phase plan/execute pipeline fans the legs out
//! on the engine's worker pool, so a query's simulated wall-clock drops
//! from the sum of its legs toward its longest leg. This sweep measures
//! that directly: p50/p95/p99 of per-query latency
//! ([`cm_engine::QueryOutcome::parallel_ms`], the legs list-scheduled
//! over the pool) across workers × shards, with the serial sum
//! (`run.ms()`) reported alongside so the win is charged honestly —
//! a 1-worker engine's "parallel" latency *is* the serial sum.

use crate::datasets::{catid_range, ebay_engine, BenchScale};
use crate::report::Report;
use crate::workload::LatencyStats;
use cm_core::CmSpec;
use cm_datagen::ebay::{ebay, EbayConfig, EbayData, COL_CATID, COL_PRICE};
use cm_engine::{Engine, EngineConfig};
use cm_query::{Pred, Query};

/// Total pool pages, divided across shards (equal RAM per config).
const POOL_PAGES: usize = 512;
/// Shard counts swept.
const SHARD_COUNTS: [usize; 3] = [2, 4, 8];
/// Worker counts swept at each shard count.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn build_engine(data: &EbayData, shards: usize, workers: usize) -> std::sync::Arc<Engine> {
    let engine = ebay_engine(
        data,
        EngineConfig {
            pool_pages: POOL_PAGES,
            shards,
            workers,
            ..EngineConfig::default()
        },
    );
    engine
        .create_cm("items", "cat_cm", CmSpec::single_raw(COL_CATID))
        .expect("CM");
    engine
        .create_cm("items", "price_cm", CmSpec::single_pow2(COL_PRICE, 12))
        .expect("CM");
    engine
}

/// The query mix whose tail the fan-out should shorten: mostly wide
/// clustered CATID ranges spanning several shards (each leg a clustered
/// sweep of its shard), plus Price lookups that fan out to every shard
/// through the CM.
fn read_queries(categories: usize, scale: BenchScale) -> Vec<Query> {
    (0..scale.n(240, 36))
        .map(|s| {
            if s % 3 == 2 {
                let p = (s as i64 * 7919) % 1_000_000;
                Query::single(Pred::between(COL_PRICE, p, p + 2_000))
            } else {
                catid_range(categories, s)
            }
        })
        .collect()
}

/// Execute every query once on a cold session (reads charge straight to
/// the shard disks — deterministic, no pool state carried between
/// configurations) and collect per-query latency samples: the fan-out
/// makespan and the serial per-shard sum.
fn measure(engine: &std::sync::Arc<Engine>, queries: &[Query]) -> (LatencyStats, LatencyStats) {
    let mut session = engine.session();
    session.set_cold_reads(true);
    let mut parallel = Vec::with_capacity(queries.len());
    let mut serial = Vec::with_capacity(queries.len());
    for q in queries {
        let out = session.execute("items", q).expect("query runs");
        parallel.push(out.parallel_ms);
        serial.push(out.run.ms());
    }
    (
        LatencyStats::from_samples(parallel),
        LatencyStats::from_samples(serial),
    )
}

/// Run the benchmark.
pub fn run(scale: BenchScale) -> Report {
    let cfg = EbayConfig {
        categories: scale.n(2_000, 200),
        min_items: scale.n(100, 3),
        max_items: scale.n(200, 8),
        seed: 0xFA40,
    };

    let mut report = Report::new(
        "fanout_latency",
        "per-query latency of multi-shard range queries vs executor workers \
         (range-partitioned eBay table, cost-routed cold reads, workers x shards sweep)",
        "sharding alone leaves per-query latency at the sum of the per-shard legs; \
         executing the legs on a worker pool should shrink a multi-shard query's \
         latency toward its longest leg — roughly min(workers, shards)x at the p99, \
         which is dominated by the widest all-shard ranges",
        vec![
            "configuration",
            "queries",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "p99 serial (ms)",
            "p99 speedup vs 1 worker",
        ],
    );

    let data = ebay(cfg);
    let queries = read_queries(data.category_paths.len(), scale);

    let mut headline: Option<LatencyStats> = None;
    let mut speedup_4w_4s = 0.0;
    let mut speedup_8w_8s = 0.0;
    for &shards in &SHARD_COUNTS {
        let mut base_p99 = f64::NAN;
        for &workers in &WORKER_COUNTS {
            let engine = build_engine(&data, shards, workers);
            let (par, ser) = measure(&engine, &queries);
            if workers == 1 {
                base_p99 = par.p99_ms;
            }
            let speedup = base_p99 / par.p99_ms.max(1e-9);
            if shards == 4 && workers == 4 {
                speedup_4w_4s = speedup;
                headline = Some(par);
            }
            if shards == 8 && workers == 8 {
                speedup_8w_8s = speedup;
            }
            report.push(
                format!("{shards} shards x {workers} worker(s)"),
                vec![
                    par.count.to_string(),
                    format!("{:.2}", par.p50_ms),
                    format!("{:.2}", par.p95_ms),
                    format!("{:.2}", par.p99_ms),
                    format!("{:.2}", ser.p99_ms),
                    format!("{speedup:.2}x"),
                ],
            );
        }
    }

    report.latency = headline;
    report.commentary = format!(
        "p99 per-query latency speedup vs a 1-worker engine at the same shard count: \
         {speedup_4w_4s:.1}x at 4 workers / 4 shards, {speedup_8w_8s:.1}x at 8 workers / \
         8 shards — single-shard point legs are untouched (sequential fast path), the \
         win is the wide multi-shard ranges that dominate the tail"
    );
    report
}
