//! **Recovery benchmark** — time-to-first-query after a crash, as a
//! function of WAL length and fuzzy-checkpoint interval.
//!
//! Each cell runs the same write-heavy mixed workload (sessions
//! committing every few ops) on a fresh engine, kills it at the durable
//! point, recovers into a new engine, and charges the whole restart to
//! the simulated disk: one sequential sweep over the surviving log plus
//! the redo/undo page traffic. Time-to-first-query is that restart cost
//! plus the first point query on the survivor.
//!
//! Without checkpoints the redo point stays at offset 0 and recovery
//! replays the entire log, so restart cost grows linearly with WAL
//! length. Fuzzy checkpoints (taken automatically every N records,
//! without stopping the writers) advance the redo point and bound the
//! replayed suffix, which is the ARIES argument for checkpointing at
//! all.

use crate::datasets::BenchScale;
use crate::report::{bytes, ms, Report};
use crate::workload::{run_mixed, MixedWorkloadConfig};
use cm_core::CmSpec;
use cm_engine::{Engine, EngineConfig};
use cm_query::{Pred, Query};
use cm_storage::{Column, Row, Schema, Value, ValueType};
use std::sync::Arc;

const CATS: i64 = 100;
const WORKLOAD_SEED: u64 = 0xC4A5;

/// Preload a two-column table and give it one secondary B+Tree and one
/// CM, so recovery also has to replay a design-change record and rebuild
/// the structures.
fn build_engine(config: EngineConfig, base_rows: usize) -> Arc<Engine> {
    let engine = Engine::new(config);
    let schema = Arc::new(Schema::new(vec![
        Column::new("catid", ValueType::Int),
        Column::new("price", ValueType::Int),
    ]));
    engine
        .create_table("items", schema, 0, 20, 100)
        .expect("fresh catalog");
    let rows: Vec<Row> = (0..base_rows as i64)
        .map(|i| {
            let cat = i % CATS;
            vec![Value::Int(cat), Value::Int(cat * 1_000 + (i * 7) % 1_000)]
        })
        .collect();
    engine.load("items", rows).expect("rows conform");
    engine
        .create_btree("items", "price_ix", vec![1])
        .expect("index");
    engine
        .create_cm("items", "cat_cm", CmSpec::single_raw(0))
        .expect("CM");
    engine
}

/// A 30/70 read/write mix: reads are category point queries, writes are
/// fresh rows in a disjoint price range, committed every 24 ops.
fn workload(ops: usize) -> MixedWorkloadConfig {
    let reads: Vec<Query> = (0..16i64)
        .map(|c| Query::single(Pred::eq(0, (c * 13) % CATS)))
        .collect();
    let insert_rows: Vec<Row> = (0..ops as i64)
        .map(|i| vec![Value::Int(i % CATS), Value::Int(1_000_000 + i)])
        .collect();
    MixedWorkloadConfig {
        table: "items".into(),
        reads,
        insert_rows,
        read_fraction: 0.3,
        ops,
        threads: 2,
        commit_every: 24,
        seed: WORKLOAD_SEED,
        advise_after: None,
    }
}

struct Cell {
    wal_bytes: u64,
    records: u64,
    images: usize,
    recover_ms: f64,
    ttfq_ms: f64,
    cells: Vec<String>,
}

/// Run one (WAL length, checkpoint interval) cell: workload, crash at
/// the durable point, recover, first query.
fn run_cell(base_rows: usize, ops: usize, checkpoint_every: u64) -> Cell {
    let config = EngineConfig {
        checkpoint_every,
        ..EngineConfig::default()
    };
    let engine = build_engine(config.clone(), base_rows);
    let wl = workload(ops);
    run_mixed(&engine, &wl).expect("workload runs");
    engine.commit();

    let state = engine.crash_state(None);
    let wal_bytes = state.log.len() as u64;
    let images = engine.checkpoint_count();

    let (recovered, report) = Engine::recover(config, &state).expect("recovery succeeds");
    let q = Query::single(Pred::eq(0, 17i64));
    let first = recovered
        .execute("items", &q)
        .expect("survivor answers queries");
    let ttfq_ms = report.sim_ms + first.run.ms();

    Cell {
        wal_bytes,
        records: report.records,
        images,
        recover_ms: report.sim_ms,
        ttfq_ms,
        cells: vec![
            bytes(wal_bytes),
            report.records.to_string(),
            images.to_string(),
            bytes(report.redo_lsn),
            report.redone.to_string(),
            report.undone.to_string(),
            ms(report.sim_ms),
            ms(ttfq_ms),
        ],
    }
}

/// Run the benchmark.
pub fn run(scale: BenchScale) -> Report {
    let base_rows = scale.n(20_000, 1_000);
    // Growing WAL lengths (ops per run) crossed with three checkpoint
    // policies: none, a coarse interval, and a fine one.
    let op_counts = [
        scale.n(2_000, 150),
        scale.n(6_000, 300),
        scale.n(12_000, 600),
    ];
    let policies: [(&str, u64); 3] = [
        ("no ckpt", 0),
        ("ckpt/coarse", scale.n(6_000, 500) as u64),
        ("ckpt/fine", scale.n(1_200, 120) as u64),
    ];

    let mut report = Report::new(
        "recovery",
        "crash-recovery cost: time-to-first-query vs WAL length and \
         fuzzy-checkpoint interval (redo from the checkpoint's redo point, \
         undo of uncommitted tails)",
        "without checkpoints the whole log is replayed, so restart cost grows \
         linearly with WAL length; fuzzy checkpoints advance the redo point \
         and bound the replayed suffix, holding time-to-first-query roughly \
         flat as the log grows",
        vec![
            "scenario",
            "wal",
            "records",
            "images",
            "redo point",
            "redone",
            "undone",
            "recover (sim)",
            "first query (sim)",
        ],
    );

    // recover_ms per (policy, op-count) for the commentary comparison.
    let mut grid: Vec<Vec<Cell>> = Vec::new();
    for (label, every) in policies {
        let mut row_cells = Vec::new();
        for &ops in &op_counts {
            let cell = run_cell(base_rows, ops, every);
            report.push(format!("{label}, {ops} ops"), cell.cells.clone());
            row_cells.push(cell);
        }
        grid.push(row_cells);
    }

    let no_ckpt = &grid[0];
    let fine = &grid[2];
    let last = op_counts.len() - 1;
    let growth = no_ckpt[last].recover_ms / no_ckpt[0].recover_ms.max(1e-9);
    let speedup = no_ckpt[last].recover_ms / fine[last].recover_ms.max(1e-9);
    report.commentary = format!(
        "with no checkpoints, recovery replays every record ({} over a {} log) \
         and restart cost grows {growth:.1}x across the sweep; fine fuzzy \
         checkpoints ({} images) cut the largest run's recovery to {} — \
         {speedup:.1}x faster, time-to-first-query {} vs {} — while the \
         writers never stopped; workload seed {WORKLOAD_SEED:#x}",
        no_ckpt[last].records,
        bytes(no_ckpt[last].wal_bytes),
        fine[last].images,
        ms(fine[last].recover_ms),
        ms(fine[last].ttfq_ms),
        ms(no_ckpt[last].ttfq_ms),
    );
    report
}
