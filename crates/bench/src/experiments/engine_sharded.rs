//! **Sharding benchmark** — aggregate throughput of the `cm-engine`
//! facade as the shard count grows, under concurrent mixed read/write
//! workloads, plus the WAL group-commit effect at fixed concurrency.
//!
//! The paper's core claim is that CMs convert secondary-attribute probes
//! into a few *sequential* clustered ranges — but one shared simulated
//! disk head destroys that advantage the moment several sessions scan
//! concurrently: their page accesses interleave and every read becomes a
//! seek. Range-partitioning each table across N shards (each with its
//! own disk + pool) keeps concurrent scans sequential, and the
//! group-commit WAL keeps concurrent committers from serializing on the
//! log. Total buffer-pool RAM is held constant across shard counts, so
//! the sweep isolates the head-interleaving effect.

use crate::datasets::{ebay_engine, BenchScale};
use crate::report::{ms, Report};
use crate::workload::{run_mixed, MixedWorkloadConfig, WorkloadReport};
use cm_core::CmSpec;
use cm_datagen::ebay::{ebay, EbayConfig, EbayData, COL_CATID, COL_PRICE};
use cm_engine::{Engine, EngineConfig};
use cm_query::{Pred, Query};
use cm_storage::GroupCommitConfig;

/// Total pool pages, divided across shards (equal RAM per config).
const POOL_PAGES: usize = 512;
/// Concurrent sessions — enough that scans collide on a single head.
const THREADS: usize = 8;
/// Shard counts swept.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn build_engine(
    data: &EbayData,
    shards: usize,
    group_commit: GroupCommitConfig,
) -> std::sync::Arc<Engine> {
    let engine = ebay_engine(
        data,
        EngineConfig {
            pool_pages: POOL_PAGES,
            shards,
            group_commit,
            ..EngineConfig::default()
        },
    );
    // A CM on the clustered attribute itself guides range queries to the
    // overlapping buckets (intersected per shard), and a bucketed CM on
    // Price serves the secondary-attribute lookups.
    engine
        .create_cm("items", "cat_cm", CmSpec::single_raw(COL_CATID))
        .expect("CM");
    engine
        .create_cm("items", "price_cm", CmSpec::single_pow2(COL_PRICE, 12))
        .expect("CM");
    engine
}

/// Reads alternate between clustered CATID range scans (the sequential
/// sweeps sharding protects) and Price lookups through the CM (fanned
/// out to every shard, cheap on each).
fn read_queries(categories: usize, scale: BenchScale) -> Vec<Query> {
    let span = (categories / 40).max(1) as i64;
    (0..scale.n(64, 8))
        .map(|s| {
            if s % 2 == 0 {
                let lo = ((s as i64) * 613) % (categories as i64 - span).max(1);
                Query::single(Pred::between(COL_CATID, lo, lo + span))
            } else {
                let p = ((s as i64) * 7919) % 1_000_000;
                Query::single(Pred::between(COL_PRICE, p, p + 2_000))
            }
        })
        .collect()
}

fn workload(data: &mut EbayData, scale: BenchScale, read_fraction: f64) -> MixedWorkloadConfig {
    MixedWorkloadConfig {
        table: "items".into(),
        reads: read_queries(data.category_paths.len(), scale),
        insert_rows: data.insert_batch(scale.n(20_000, 400), 7),
        read_fraction,
        ops: scale.n(4_000, 240),
        threads: THREADS,
        commit_every: 16,
        seed: 0x5A4D,
        advise_after: None,
    }
}

fn row_cells(r: &WorkloadReport) -> Vec<String> {
    let busy = r.per_shard_io.iter().filter(|io| io.pages() > 0).count();
    vec![
        format!("{}/{}", r.reads, r.writes),
        format!("{:.1}", r.ops_per_sim_sec),
        format!("{:.1}", r.ops_per_sim_sec_parallel),
        ms(r.sim_makespan_ms),
        format!(
            "{:.1}/{:.1}/{:.1}",
            r.read_latency.p50_ms, r.read_latency.p95_ms, r.read_latency.p99_ms
        ),
        busy.to_string(),
        format!("{}/{}", r.wal.flushes, r.wal.commit_requests),
        r.wal.lingered.to_string(),
        format!(
            "{:.2}",
            r.wal.pages_flushed as f64 / (r.writes.max(1)) as f64
        ),
        format!("{:.0}%", r.pool.hit_rate() * 100.0),
        format!("{:.3}", r.io.seeks_per_page()),
    ]
}

/// Run the benchmark.
pub fn run(scale: BenchScale) -> Report {
    let cfg = EbayConfig {
        categories: scale.n(2_000, 200),
        min_items: scale.n(100, 3),
        max_items: scale.n(200, 8),
        seed: 0x5A4D,
    };

    let mut report = Report::new(
        "engine_sharded",
        "cm-engine aggregate throughput vs shard count (range-partitioned eBay \
         table, 8 sessions, cost-routed reads) and WAL group commit vs per-commit \
         flushing",
        "concurrent scans on one simulated head interleave into seeks; sharding by \
         clustered-key range keeps each shard's scans sequential, so aggregate \
         (makespan) throughput should scale with the shard count — and group commit \
         should cut WAL page writes per committed op once >= 4 sessions commit \
         concurrently",
        vec![
            "configuration",
            "reads/writes",
            "ops/s (sim, serial)",
            "ops/s (sim, parallel)",
            "makespan",
            "read p50/p95/p99 (ms)",
            "busy shards",
            "wal flushes/commits",
            "wal lingered",
            "wal pages per write",
            "pool hit",
            "seeks/page",
        ],
    );

    let mut data = ebay(cfg);

    // ---- shard-count sweep at two read/write mixes --------------------
    let mut headline = None;
    let mut par_at = |report: &mut Report, label: &str, read_fraction: f64| -> Vec<(usize, f64)> {
        let wl = workload(&mut data, scale, read_fraction);
        let mut out = Vec::new();
        for &shards in &SHARD_COUNTS {
            let engine = build_engine(&data, shards, GroupCommitConfig::default());
            let r = run_mixed(&engine, &wl).expect("workload runs");
            if shards == 4 && read_fraction > 0.5 {
                headline = Some(r.read_latency);
            }
            report.push(format!("{shards} shard(s) {label}"), row_cells(&r));
            out.push((shards, r.ops_per_sim_sec_parallel));
        }
        out
    };
    let read_heavy = par_at(&mut report, "90/10", 0.9);
    let write_heavy = par_at(&mut report, "10/90", 0.1);
    report.latency = headline;

    // ---- group commit vs per-commit flushing at 4 shards, 10/90 -------
    let wl = workload(&mut data, scale, 0.1);
    let mut wal_pages_per_write = Vec::new();
    for (label, gc) in [
        (
            "4 shards 10/90 per-commit WAL",
            GroupCommitConfig::per_commit(),
        ),
        ("4 shards 10/90 group commit", GroupCommitConfig::default()),
    ] {
        let engine = build_engine(&data, 4, gc);
        let r = run_mixed(&engine, &wl).expect("workload runs");
        wal_pages_per_write.push(r.wal.pages_flushed as f64 / r.writes.max(1) as f64);
        report.push(label, row_cells(&r));
    }

    let ratio = |sweep: &[(usize, f64)], shards: usize| -> f64 {
        let base = sweep
            .iter()
            .find(|(s, _)| *s == 1)
            .map(|(_, t)| *t)
            .unwrap_or(1.0);
        sweep
            .iter()
            .find(|(s, _)| *s == shards)
            .map(|(_, t)| *t / base.max(1e-9))
            .unwrap_or(0.0)
    };
    report.commentary = format!(
        "aggregate (makespan) throughput scaling vs 1 shard: {:.1}x at 4 shards / \
         {:.1}x at 8 shards on the 90/10 read-heavy mix, {:.1}x at 4 shards / {:.1}x \
         at 8 shards on the 10/90 write-heavy mix; WAL group commit cut log page \
         writes per committed op from {:.2} to {:.2} at 8 concurrent sessions \
         (4 shards, 10/90)",
        ratio(&read_heavy, 4),
        ratio(&read_heavy, 8),
        ratio(&write_heavy, 4),
        ratio(&write_heavy, 8),
        wal_pages_per_write[0],
        wal_pages_per_write[1],
    );
    report
}
