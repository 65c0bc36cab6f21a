//! **MVCC benchmark** — reader tail latency under categorical write
//! bursts: single-version shard locking vs MVCC snapshot reads.
//!
//! The workload is the pathology the MVCC layer exists for. Writer
//! threads replace a contiguous *range* of categories per burst
//! (one ranged `delete_where` + a batched reinsert of the same rows,
//! committed together, then a short sleep); reader threads fire point
//! queries on the clustered column and time each one with a wall clock.
//! Under single-version locking the ranged delete runs its victim
//! search — the planned path, here a scan of the whole shard with
//! column kernels that build no row — *under the shard write lock*, and
//! then maintains the secondary per victim in the same hold, so every
//! concurrent reader of that shard waits out the search; under MVCC the
//! search runs at a snapshot under the shard *read* lock, a window of
//! pages a hold, and the write lock is held only to stamp the victims,
//! so readers never wait on a search. The sweep crosses write pressure (0/1/4 writer
//! threads) with shard counts, plus one row per mode where the "writer"
//! is a loop of `apply_design` structure rebuilds. Both modes run the
//! same staged install step per shard; what differs is the build's
//! lock — the shard *write* lock under locking (a delete removes its
//! row, so the build must exclude deletes) vs the shard *read* lock
//! under MVCC, with only the brief catch-up-and-swap write-locked.

use crate::datasets::{ebay_engine, BenchScale};
use crate::report::Report;
use cm_datagen::ebay::{ebay, EbayConfig, EbayData, COL_CATID, COL_PRICE};
use crate::workload::LatencyStats;
use cm_engine::{ColumnDesign, DesignSet, Engine, EngineConfig, Structure};
use cm_query::{Pred, Query};
use cm_storage::{Row, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const POOL_PAGES: usize = 2048;
const SHARD_COUNTS: [usize; 2] = [1, 4];
const WRITER_COUNTS: [usize; 3] = [0, 1, 4];
/// Consecutive categories one write burst replaces. Ranges this wide
/// (several hundred rows) are what makes the single-version delete's
/// write-lock hold long enough to matter.
const BURST_CATS: usize = 8;

/// The categories and their row batches, extracted once from the
/// generated table so every burst reinserts exactly what it purged.
struct Churn {
    cats: Vec<i64>,
    rows_by_cat: BTreeMap<i64, Vec<Row>>,
}

fn churn_plan(data: &EbayData) -> Churn {
    let mut rows_by_cat: BTreeMap<i64, Vec<Row>> = BTreeMap::new();
    for row in &data.rows {
        if let Value::Int(cat) = row[COL_CATID] {
            rows_by_cat.entry(cat).or_default().push(row.clone());
        }
    }
    Churn {
        cats: rows_by_cat.keys().copied().collect(),
        rows_by_cat,
    }
}

fn build_engine(data: &EbayData, shards: usize, mvcc: bool) -> Arc<Engine> {
    let engine = ebay_engine(
        data,
        EngineConfig {
            pool_pages: POOL_PAGES,
            shards,
            mvcc,
            // Vacuum every few hundred deletes: dead versions never pile
            // past a few percent of the heap, and the chunked reclaim keeps
            // each pass's per-hold stall bounded.
            gc_every: if mvcc { 512 } else { 0 },
            ..EngineConfig::default()
        },
    );
    // A secondary on the price column: categorical deletes must maintain
    // it under the write lock in locking mode, widening the hold — MVCC
    // defers that erase work to vacuum.
    engine
        .create_btree("items", "price_ix", vec![COL_PRICE])
        .expect("index");
    // Touch the read path once so lazy per-table state (planner stats,
    // pool warmup) is charged to nobody's latency sample.
    for cat in data.rows.iter().step_by(97).take(32) {
        if let Value::Int(c) = cat[COL_CATID] {
            engine
                .execute("items", &Query::single(Pred::eq(COL_CATID, c)))
                .expect("warmup");
        }
    }
    engine
}

/// What one concurrent run measured.
struct RunResult {
    read: LatencyStats,
    /// Completed writer bursts (or design rebuilds for the redesign rows).
    bursts: u64,
    /// Rows the bursts replaced.
    churned: u64,
    /// Mean shard-read-lock wait per timed read (µs), from the engine's
    /// own stall counters. Unlike the wall-clock percentiles this is
    /// immune to scheduler preemption noise on starved hosts: it times
    /// exactly the lock acquisitions, which is the thing MVCC changes.
    lock_wait_us_per_read: f64,
    /// Acquisitions that waited past [`Engine::STALL_FLOOR`] — observed
    /// reader stalls.
    stalls: u64,
    /// Longest single lock wait (ms).
    max_wait_ms: f64,
}

/// Engine stall-counter deltas across a closure, folded into a
/// [`RunResult`] with the wall-clock samples.
fn with_stall_delta(
    engine: &Arc<Engine>,
    body: impl FnOnce() -> (Vec<f64>, u64, u64),
) -> RunResult {
    let before = engine.stats();
    let (samples, bursts, churned) = body();
    let after = engine.stats();
    let n = samples.len().max(1) as f64;
    RunResult {
        read: LatencyStats::from_samples(samples),
        bursts,
        churned,
        lock_wait_us_per_read: (after.read_stall_ms - before.read_stall_ms) * 1e3 / n,
        stalls: after.read_stalls - before.read_stalls,
        // The engine tracks a lifetime max; every run gets a fresh engine
        // whose warmup is single-threaded, so this is the run's max.
        max_wait_ms: after.read_stall_max_ms,
    }
}

/// Readers time `reads_each` point queries each while `writers` threads
/// churn disjoint category slices until the readers finish.
fn measure_mix(
    engine: &Arc<Engine>,
    churn: &Churn,
    writers: usize,
    readers: usize,
    reads_each: usize,
) -> RunResult {
    with_stall_delta(engine, || {
        let stop = AtomicBool::new(false);
        let bursts = AtomicU64::new(0);
        let churned = AtomicU64::new(0);
        let samples = std::thread::scope(|scope| {
            for w in 0..writers {
                let session = engine.session();
                let stop = &stop;
                let bursts = &bursts;
                let churned = &churned;
                // Contiguous per-writer category blocks: each burst
                // purges a clustered *range* of categories, the
                // categorical-delete shape whose victim count makes the
                // single-version write-lock hold (scan + per-row index
                // maintenance) genuinely long.
                let lo = w * churn.cats.len() / writers;
                let hi = (w + 1) * churn.cats.len() / writers;
                let mine = &churn.cats[lo..hi];
                let rows_by_cat = &churn.rows_by_cat;
                scope.spawn(move || {
                    let mut k = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let start = (k * BURST_CATS) % mine.len();
                        let end = (start + BURST_CATS).min(mine.len());
                        k += 1;
                        let victims = session
                            .delete_where(
                                "items",
                                &Query::single(Pred::between(
                                    COL_CATID,
                                    mine[start],
                                    mine[end - 1],
                                )),
                            )
                            .expect("categorical delete");
                        // Batched reinsert: chunked shard-lock holds, and
                        // the commit covers the delete too (same open
                        // transaction).
                        let mut replacement = Vec::with_capacity(victims.len());
                        for cat in &mine[start..end] {
                            replacement.extend(rows_by_cat[cat].iter().cloned());
                        }
                        session
                            .insert_many("items", replacement)
                            .expect("reinsert");
                        bursts.fetch_add(1, Ordering::Relaxed);
                        churned.fetch_add(victims.len() as u64, Ordering::Relaxed);
                        // Bursty, not a busy-loop: real ingest arrives in
                        // batches with gaps. A saturating writer spin on
                        // a small host would drown both modes in
                        // scheduler preemption and measure the OS, not
                        // the locking protocol.
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                });
            }
            let handles: Vec<_> = (0..readers)
                .map(|r| {
                    let session = engine.session();
                    let cats = &churn.cats;
                    scope.spawn(move || {
                        let mut seed = 0x9E37_79B9_7F4A_7C15u64
                            ^ (r as u64).wrapping_mul(0xA24B_AED4_963E_E407);
                        let mut samples = Vec::with_capacity(reads_each);
                        // A short untimed ramp so the first timed read isn't
                        // paying thread-start or cold-cache costs.
                        for k in 0..reads_each + reads_each / 8 {
                            seed = seed
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let cat = cats[(seed >> 33) as usize % cats.len()];
                            let q = Query::single(Pred::eq(COL_CATID, cat));
                            let t0 = Instant::now();
                            session.execute("items", &q).expect("point read");
                            if k >= reads_each / 8 {
                                samples.push(t0.elapsed().as_secs_f64() * 1e3);
                            }
                        }
                        samples
                    })
                })
                .collect();
            let mut all = Vec::new();
            for h in handles {
                all.extend(h.join().expect("reader thread"));
            }
            stop.store(true, Ordering::Relaxed);
            all
        });
        (
            samples,
            bursts.load(Ordering::Relaxed),
            churned.load(Ordering::Relaxed),
        )
    })
}

/// The structure set the redesign loop rebuilds: a B+Tree plus a CM, so
/// each `apply_design` round sorts the whole table and walks every heap
/// page. Costs are irrelevant to `apply_design` and left zero.
fn redesign_target() -> DesignSet {
    let columns = vec![
        ColumnDesign {
            col: 4,
            structure: Structure::Cm(cm_core::CmSpec::single_raw(4)),
            cold_read_ms: 0.0,
            maintenance_ms: 0.0,
        },
        ColumnDesign {
            col: COL_PRICE,
            structure: Structure::BTree,
            cold_read_ms: 0.0,
            maintenance_ms: 0.0,
        },
    ];
    DesignSet {
        columns,
        read_ms: 0.0,
        write_ms: 0.0,
        total_ms: 0.0,
        working_set_pages: 0.0,
        miss_rate: 0.0,
    }
}

/// Readers time point queries for as long as one thread takes to
/// re-apply the same design `rounds` times (every round rebuilds the
/// B+Tree and the CM from the heap), so the sample window is guaranteed
/// to overlap the rebuilds whatever their duration.
fn measure_redesign(engine: &Arc<Engine>, churn: &Churn, readers: usize, rounds: u64) -> RunResult {
    // Per-reader cap so a long rebuild can't grow samples unboundedly.
    const MAX_SAMPLES: usize = 50_000;
    with_stall_delta(engine, || {
        let stop = AtomicBool::new(false);
        let samples = std::thread::scope(|scope| {
            {
                let engine = engine.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let design = redesign_target();
                    for _ in 0..rounds {
                        engine.apply_design("items", &design).expect("redesign");
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            let handles: Vec<_> = (0..readers)
                .map(|r| {
                    let session = engine.session();
                    let cats = &churn.cats;
                    let stop = &stop;
                    scope.spawn(move || {
                        let mut seed = 0xD1B5_4A32_D192_ED03u64.wrapping_add(r as u64);
                        let mut samples = Vec::new();
                        while !stop.load(Ordering::Relaxed) && samples.len() < MAX_SAMPLES {
                            seed = seed
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let cat = cats[(seed >> 33) as usize % cats.len()];
                            let q = Query::single(Pred::eq(COL_CATID, cat));
                            let t0 = Instant::now();
                            session.execute("items", &q).expect("point read");
                            samples.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                        samples
                    })
                })
                .collect();
            let mut all = Vec::new();
            for h in handles {
                all.extend(h.join().expect("reader thread"));
            }
            all
        });
        (samples, rounds, 0)
    })
}

fn mode_name(mvcc: bool) -> &'static str {
    if mvcc {
        "mvcc"
    } else {
        "locking"
    }
}

fn row_cells(r: &RunResult) -> Vec<String> {
    vec![
        r.read.count.to_string(),
        r.bursts.to_string(),
        r.churned.to_string(),
        format!("{:.3}", r.read.p50_ms),
        format!("{:.3}", r.read.p95_ms),
        format!("{:.3}", r.read.p99_ms),
        format!("{:.3}", r.read.max_ms),
        format!("{:.1}", r.lock_wait_us_per_read),
        r.stalls.to_string(),
        format!("{:.3}", r.max_wait_ms),
    ]
}

/// Run the benchmark.
pub fn run(scale: BenchScale) -> Report {
    // The smoke table must stay big enough that a locking categorical
    // delete's victim search (a kernel scan of the whole shard, run
    // under the write lock) is a *material* hold — on a tiny heap
    // the hold shrinks below the fixed costs both modes share and the
    // contrast this benchmark exists to show disappears.
    let data = ebay(EbayConfig {
        categories: scale.n(800, 400),
        min_items: scale.n(80, 60),
        max_items: scale.n(160, 120),
        seed: 0x51AB,
    });
    let churn = churn_plan(&data);
    let readers = scale.n(2, 1);
    let reads_each = scale.n(1_500, 400);

    let mut report = Report::new(
        "mvcc_reads",
        "reader tail latency under categorical write bursts \
         (single-version shard locking vs MVCC snapshot reads)",
        "not a paper artifact — an engine-level property the versioned heap must \
         deliver: a categorical delete under single-version locking runs its \
         victim search (the planned path, here a column-kernel scan of the whole \
         shard) while holding the shard write lock, so concurrent readers absorb \
         the search into their tail; with MVCC the search runs at a snapshot \
         under the read lock and the write lock is held only to stamp the \
         victims, so the reader tail should barely move as write pressure rises \
         (and a structure rebuild should stop being an outage)",
        vec![
            "configuration",
            "reads",
            "bursts",
            "rows churned",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "max (ms)",
            "lock wait/read (µs)",
            "stalls >50µs",
            "max wait (ms)",
        ],
    );

    // (mvcc, shards, writers) -> (p99 ms, lock wait per read µs), for the
    // headline ratios.
    let mut measured = BTreeMap::new();
    for mvcc in [false, true] {
        for shards in SHARD_COUNTS {
            for writers in WRITER_COUNTS {
                let engine = build_engine(&data, shards, mvcc);
                let r = measure_mix(&engine, &churn, writers, readers, reads_each);
                measured.insert(
                    (mvcc, shards, writers),
                    (r.read.p99_ms, r.lock_wait_us_per_read),
                );
                if mvcc && shards == 1 && writers == *WRITER_COUNTS.last().expect("non-empty") {
                    report.latency = Some(r.read);
                }
                report.push(
                    format!(
                        "{} {}-shard, {} writer{}",
                        mode_name(mvcc),
                        shards,
                        writers,
                        if writers == 1 { "" } else { "s" }
                    ),
                    row_cells(&r),
                );
            }
        }
    }
    let mut redesign = BTreeMap::new();
    for mvcc in [false, true] {
        let shards = *SHARD_COUNTS.last().expect("non-empty");
        let engine = build_engine(&data, shards, mvcc);
        let r = measure_redesign(&engine, &churn, readers, 3);
        report.push(
            format!("{} {}-shard, redesign loop", mode_name(mvcc), shards),
            row_cells(&r),
        );
        redesign.insert(mvcc, r);
    }

    // The headline and the PR's acceptance gate, asserted at both scales
    // so the CI smoke run enforces it: at the write-heaviest point (one
    // shard, max writers) MVCC must at least halve the reader p99 — and
    // the mechanism behind the improvement must be visible in the
    // engine's own lock-wait counters, which time exactly the reader
    // lock acquisitions and are therefore immune to what the host's
    // scheduler does to the wall clock.
    let heavy_writers = *WRITER_COUNTS.last().expect("non-empty");
    let (lock_heavy_p99, lock_heavy_wait) = measured[&(false, 1, heavy_writers)];
    let (mvcc_heavy_p99, mvcc_heavy_wait) = measured[&(true, 1, heavy_writers)];
    let p99_ratio = lock_heavy_p99 / mvcc_heavy_p99.max(1e-9);
    assert!(
        p99_ratio >= 2.0,
        "MVCC must at least halve the contended read p99 \
         (got {p99_ratio:.2}x: locking {lock_heavy_p99:.3} ms vs \
         mvcc {mvcc_heavy_p99:.3} ms)"
    );
    let wait_ratio = lock_heavy_wait / mvcc_heavy_wait.max(1e-3);
    assert!(
        wait_ratio >= 2.0,
        "MVCC must cut the contended reader lock wait at least 2x \
         (got {wait_ratio:.2}x: locking {lock_heavy_wait:.1} µs/read vs \
         mvcc {mvcc_heavy_wait:.1} µs/read)"
    );
    let (mvcc_idle_p99, _) = measured[&(true, 1, 0)];
    report.commentary = format!(
        "at 1 shard under {heavy_writers} writers the reader p99 is \
         {lock_heavy_p99:.3} ms under locking vs {mvcc_heavy_p99:.3} ms under \
         MVCC ({p99_ratio:.1}x), and the mean shard-lock wait per read drops \
         from {lock_heavy_wait:.1} µs to {mvcc_heavy_wait:.1} µs \
         ({wait_ratio:.0}x less blocking); the MVCC read-only baseline p99 is \
         {mvcc_idle_p99:.3} ms; with an apply_design rebuild loop instead of \
         writers, readers observed {} stalls >50µs during write-locked builds vs \
         {} during read-locked MVCC builds (p99 {:.3} ms vs {:.3} ms)",
        redesign[&false].stalls,
        redesign[&true].stalls,
        redesign[&false].read.p99_ms,
        redesign[&true].read.p99_ms,
    );
    report
}
