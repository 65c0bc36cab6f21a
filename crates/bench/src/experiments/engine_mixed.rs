//! **Engine benchmark** — throughput of the `cm-engine` facade under a
//! concurrent mixed 90/10 read/write workload, with the reads cost-routed
//! by the engine's planner.
//!
//! Two engine configurations serve the same eBay table and an identical
//! operation mix: one with 5 secondary B+Trees, one with 5 CMs on the
//! same columns. This is the paper's Experiment 3 asymmetry restated as
//! a system-level throughput number: with B+Trees, insert maintenance
//! dirties buffer-pool pages that the SELECT traffic keeps needing; with
//! memory-resident CMs the pool serves reads almost exclusively.

use crate::datasets::{create_ladder, ebay_engine, selective_cat_pred, BenchScale};
use crate::report::{ms, Report};
use crate::workload::{run_mixed, MixedWorkloadConfig, WorkloadReport};
use cm_datagen::ebay::{ebay, EbayConfig, EbayData};
use cm_engine::{Engine, EngineConfig};
use cm_query::Query;

const POOL_PAGES: usize = 512;

fn build_engine(data: &EbayData, use_cms: bool) -> std::sync::Arc<Engine> {
    let engine = ebay_engine(
        data,
        EngineConfig {
            pool_pages: POOL_PAGES,
            ..EngineConfig::default()
        },
    );
    create_ladder(&engine, use_cms);
    engine
}

fn workload(data: &mut EbayData, scale: BenchScale) -> MixedWorkloadConfig {
    let reads: Vec<Query> = (0..scale.n(64, 8))
        .map(|s| Query::single(selective_cat_pred(data, 31 * s as u64 + 7)))
        .collect();
    MixedWorkloadConfig {
        table: "items".into(),
        reads,
        insert_rows: data.insert_batch(scale.n(20_000, 400), 99),
        read_fraction: 0.9,
        ops: scale.n(5_000, 300),
        threads: 4,
        commit_every: 32,
        seed: 0xE61E,
        advise_after: None,
    }
}

/// Simulated-throughput ratio CM/B+Tree for one read fraction, pushing a
/// row per configuration.
fn run_mix(
    report: &mut Report,
    data: &mut EbayData,
    scale: BenchScale,
    mix_label: &str,
    read_fraction: f64,
) -> (f64, WorkloadReport) {
    let mut wl = workload(data, scale);
    wl.read_fraction = read_fraction;

    let bt_engine = build_engine(data, false);
    let bt = run_mixed(&bt_engine, &wl).expect("workload runs");
    report.push(format!("5 B+Trees {mix_label}"), row_cells(&bt));

    let cm_engine = build_engine(data, true);
    let cm = run_mixed(&cm_engine, &wl).expect("workload runs");
    report.push(format!("5 CMs {mix_label}"), row_cells(&cm));

    (cm.ops_per_sim_sec / bt.ops_per_sim_sec.max(1e-9), cm)
}

fn row_cells(r: &WorkloadReport) -> Vec<String> {
    vec![
        r.ops.to_string(),
        format!("{}/{}", r.reads, r.writes),
        format!("{:.0}", r.ops_per_sec),
        format!("{:.1}", r.ops_per_sim_sec),
        ms(r.io.elapsed_ms),
        format!(
            "{:.1}/{:.1}/{:.1}",
            r.read_latency.p50_ms, r.read_latency.p95_ms, r.read_latency.p99_ms
        ),
        format!(
            "{:.3}/{:.3}/{:.3}",
            r.write_latency.p50_ms, r.write_latency.p95_ms, r.write_latency.p99_ms
        ),
        format!(
            "cm:{} sorted:{} pipe:{} scan:{}",
            r.routes.cm_scan,
            r.routes.secondary_sorted,
            r.routes.secondary_pipelined,
            r.routes.full_scan
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
        seed: 0xE61E,
    };

    let mut report = Report::new(
        "engine_mixed",
        "cm-engine throughput under concurrent mixed read/write workloads \
         (4 sessions, cost-routed reads; 5 B+Trees vs 5 CMs)",
        "the write share decides the winner: B+Trees' tighter point reads pay off \
         while reads dominate (90/10), but in a write-dominated mix (10/90, the\
         paper\'s Experiment 3 proportions) the B+Tree configuration floods the shared pool with dirty pages and the \
         memory-resident CMs pull ahead — the crossover behind Experiment 3's \
         mixed-workload gap (>4x in the paper's write-heavy mix)",
        vec![
            "configuration",
            "ops",
            "reads/writes",
            "ops/s (wall)",
            "ops/s (simulated)",
            "simulated I/O",
            "read p50/p95/p99 (ms)",
            "write p50/p95/p99 (ms)",
            "routing",
            "pool hit",
            "seeks/page",
        ],
    );

    // One shared dataset: every engine loads a clone of the same rows and
    // both mixes draw the same insert batch, so the four rows are directly
    // comparable (and the ~300k-row generation runs once, not six times).
    let mut data = ebay(cfg);
    let (ratio_read_heavy, cm_report) = run_mix(&mut report, &mut data, scale, "90/10", 0.9);
    let (ratio_write_heavy, _) = run_mix(&mut report, &mut data, scale, "10/90", 0.1);

    report.latency = Some(cm_report.read_latency);
    report.commentary = format!(
        "simulated-throughput ratio CM/B+Tree: {ratio_read_heavy:.1}x at 90/10, \
         {ratio_write_heavy:.1}x at 10/90 — heavier write traffic moves the advantage \
         to CMs; in the 90/10 run the CM engine cost-routed {} of {} reads through \
         CM-guided scans; workload seed {:#x} (re-run with it for a bit-identical \
         op sequence)",
        cm_report.routes.cm_scan, cm_report.reads, cm_report.seed
    );
    report
}
