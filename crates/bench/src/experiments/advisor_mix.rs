//! **Engine benchmark** — the workload-aware design advisor vs static
//! physical designs, across the write share.
//!
//! PR 1's `engine_mixed` measured the crossover the paper predicts:
//! B+Trees win the read-heavy 90/10 mix while memory-resident CMs win
//! the write-heavy 10/90 mix by a wide margin. This benchmark closes the
//! loop: a third engine starts with **no secondary structures at all**,
//! profiles its own traffic online, and re-plans its physical design
//! mid-run (`MixedWorkloadConfig::advise_after` →
//! `Engine::advise_design` + `Engine::apply_design`). If the advisor's
//! cost books are honest, the advised engine should land within a few
//! percent of whichever static design is best *for that mix* — B+Trees
//! at 90/10, CMs at 10/90 — without being told the mix.

use crate::datasets::{create_ladder, ebay_engine, selective_cat_pred, BenchScale};
use crate::report::{ms, Report};
use crate::workload::{run_mixed, MixedWorkloadConfig, WorkloadReport};
use cm_datagen::ebay::{ebay, EbayConfig, EbayData};
use cm_engine::{Engine, EngineConfig};
use cm_query::Query;

/// Shared pool size: small enough that the read working set and index
/// maintenance compete for frames at both scales.
fn pool_pages(scale: BenchScale) -> usize {
    scale.n(512, 24)
}

/// Build an engine over a clone of the shared dataset. `structures`:
/// `None` = bare (the advised engine's starting point), `Some(true)` =
/// `engine_mixed`'s 5 CMs, `Some(false)` = its 5 B+Trees.
fn build_engine(
    data: &EbayData,
    scale: BenchScale,
    structures: Option<bool>,
) -> std::sync::Arc<Engine> {
    let engine = ebay_engine(
        data,
        EngineConfig {
            pool_pages: pool_pages(scale),
            ..EngineConfig::default()
        },
    );
    if let Some(use_cms) = structures {
        create_ladder(&engine, use_cms);
    }
    engine
}

fn workload(data: &mut EbayData, scale: BenchScale, read_fraction: f64) -> MixedWorkloadConfig {
    let reads: Vec<Query> = (0..scale.n(64, 16))
        .map(|s| Query::single(selective_cat_pred(data, 31 * s as u64 + 7)))
        .collect();
    let ops = scale.n(5_000, 300);
    MixedWorkloadConfig {
        table: "items".into(),
        reads,
        insert_rows: data.insert_batch(scale.n(20_000, 400), 99),
        read_fraction,
        ops,
        threads: 4,
        commit_every: 32,
        seed: 0x00AD_115E,
        advise_after: None,
    }
}

fn row_cells(r: &WorkloadReport, design: String) -> Vec<String> {
    vec![
        r.ops.to_string(),
        format!("{}/{}", r.reads, r.writes),
        format!("{:.1}", r.ops_per_sim_sec),
        ms(r.io.elapsed_ms),
        format!(
            "{:.1}/{:.1}/{:.1}",
            r.read_latency.p50_ms, r.read_latency.p95_ms, r.read_latency.p99_ms
        ),
        format!(
            "cm:{} sorted:{} pipe:{} scan:{}",
            r.routes.cm_scan,
            r.routes.secondary_sorted,
            r.routes.secondary_pipelined,
            r.routes.full_scan
        ),
        format!("{:.0}%", r.pool.hit_rate() * 100.0),
        design,
    ]
}

/// Throughputs measured at one write share: (static B+Trees, static CMs,
/// advised steady state, the advised design label).
struct MixOutcome {
    btree: f64,
    cm: f64,
    advised: f64,
    label: String,
}

fn run_mix(
    report: &mut Report,
    data: &mut EbayData,
    scale: BenchScale,
    mix_label: &str,
    read_fraction: f64,
) -> MixOutcome {
    let wl = workload(data, scale, read_fraction);

    let bt_engine = build_engine(data, scale, Some(false));
    let bt = run_mixed(&bt_engine, &wl).expect("workload runs");
    report.push(
        format!("static 5 B+Trees {mix_label}"),
        row_cells(&bt, "5x btree".into()),
    );

    let cm_engine = build_engine(data, scale, Some(true));
    let cm = run_mixed(&cm_engine, &wl).expect("workload runs");
    report.push(
        format!("static 5 CMs {mix_label}"),
        row_cells(&cm, "5x cm".into()),
    );

    // The advised engine: bare start, online profile, mid-run re-plan at
    // 20% of the ops. Its row includes the expensive unindexed prefix —
    // the price of not knowing the workload up front.
    let adv_engine = build_engine(data, scale, None);
    let mut adv_wl = wl.clone();
    adv_wl.advise_after = Some(wl.ops / 5);
    let replanned = run_mixed(&adv_engine, &adv_wl).expect("workload runs");
    let advice = replanned.advice.clone().expect("re-plan fired");
    report.push(
        format!("advised (incl. re-plan) {mix_label}"),
        row_cells(&replanned, advice.label.clone()),
    );
    // Steady state: the advised design applied to a fresh engine over
    // the same data, so the comparison against the statics holds the
    // table constant and measures only the design choice.
    let steady_engine = build_engine(data, scale, None);
    steady_engine
        .apply_design("items", &advice.design)
        .expect("design applies");
    let steady = run_mixed(&steady_engine, &wl).expect("workload runs");
    report.push(
        format!("advised steady {mix_label}"),
        row_cells(&steady, advice.label.clone()),
    );

    MixOutcome {
        btree: bt.ops_per_sim_sec,
        cm: cm.ops_per_sim_sec,
        advised: steady.ops_per_sim_sec,
        label: advice.label,
    }
}

/// Run the benchmark.
pub fn run(scale: BenchScale) -> Report {
    let cfg = EbayConfig {
        categories: scale.n(2_000, 400),
        min_items: scale.n(100, 4),
        max_items: scale.n(200, 10),
        seed: 0xE61E,
    };

    let mut report = Report::new(
        "advisor_mix",
        "workload-aware design advisor vs static designs across the write share \
         (4 sessions; advised engine starts bare, profiles online, re-plans mid-run)",
        "the paper's advisor picks CM designs from query cost alone; the engine's \
         crossover (engine_mixed: B+Trees best at 90/10 reads, CMs ~8x at 10/90) \
         demands the structure *set* be chosen from the read/write mix — the \
         advised engine should match the best static design at each mix without \
         being told the mix, and beat the wrong-way static design",
        vec![
            "configuration",
            "ops",
            "reads/writes",
            "ops/s (simulated)",
            "simulated I/O",
            "read p50/p95/p99 (ms)",
            "routing",
            "pool hit",
            "design",
        ],
    );

    let mut data = ebay(cfg);
    let read_heavy = run_mix(&mut report, &mut data, scale, "90/10", 0.9);
    let write_heavy = run_mix(&mut report, &mut data, scale, "10/90", 0.1);

    let vs_best_rh = read_heavy.advised / read_heavy.btree.max(read_heavy.cm).max(1e-9);
    let vs_best_wh = write_heavy.advised / write_heavy.btree.max(write_heavy.cm).max(1e-9);
    let vs_worst_rh = read_heavy.advised / read_heavy.btree.min(read_heavy.cm).max(1e-9);
    let vs_worst_wh = write_heavy.advised / write_heavy.btree.min(write_heavy.cm).max(1e-9);
    report.commentary = format!(
        "advised/best-static throughput: {vs_best_rh:.2}x at 90/10 (chose {}), \
         {vs_best_wh:.2}x at 10/90 (chose {}); advised/wrong-way-static: \
         {vs_worst_rh:.1}x at 90/10, {vs_worst_wh:.1}x at 10/90 — the advisor \
         tracks the crossover from the profiled mix alone",
        read_heavy.label, write_heavy.label
    );
    report
}
