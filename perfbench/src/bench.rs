//! One benchmark run: set up five times, warm up, measure rounds until
//! the time is up, and turn what the rounds recorded into metrics.

use crate::data::{Churn, Expect, InsertRows, Items, Lineitem, Scale, EBAY_TPP, TPCH_TPP};
use crate::exec::{note_insert, scan_digest, Acc, Check, Exec, TraceCtx};
use crate::json::Json;
use crate::metrics::Workload;
use crate::ops::{self, ChurnSize, Class, Op, ITEMS, LINEITEM};
use crate::replay::WriteReplay;
use crate::report::{write_spans, Summarizer};
use crate::rng::{Fnv, Rng};
use crate::stats;
use crate::sut::{Counters, SetupTimes, Sut, SutConfig, SutResult, TableSpec, WorkDir};
use crate::trace::{Decomposed, Tracer};
use cm_core::{CmAttr, CmSpec};
use cm_datagen::{ebay, tpch};
use cm_storage::Row;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where file-backed engines keep their pages (inside the checkout).
    pub work_base: PathBuf,
    pub spans_out: Option<PathBuf>,
}

pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)`, in catalogue order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Everything else worth keeping: summaries with quartiles, digests,
    /// configuration, exact counts.
    pub detail: Json,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Measured rounds every run completes, however short `--seconds` is.
const MIN_ROUNDS: usize = 4;
/// The checkpoint (write workloads) comes after this measured round.
const CHECKPOINT_AFTER: usize = 2;
/// Peak RSS is read, and the crash state frozen, after this measured
/// round: a fixed amount of work, however many rounds the clock allows.
const FIXED_POINT: usize = 3;
/// Inserts per second the `mixed_2s` writer is driven at.
const WRITER_RATE: f64 = 2000.0;

fn sut_config(w: Workload, scale: Scale) -> SutConfig {
    match w {
        Workload::LookupCold => SutConfig {
            file_backend: true,
            shards: 1,
            workers: 1,
            mvcc: false,
            pool_pages: scale.n(256, 16),
        },
        Workload::ScanWarm => SutConfig {
            file_backend: false,
            shards: 4,
            // One worker: the four legs run in turn on the client's
            // thread. Fanned out on two threads the workload is hostage
            // to how the host schedules the second vCPU (whole runs 30–55 %
            // apart, against 10–17 % single-threaded).
            workers: 1,
            mvcc: true,
            pool_pages: 16_384,
        },
        Workload::WriteChurn => SutConfig {
            file_backend: true,
            shards: 1,
            workers: 1,
            mvcc: true,
            pool_pages: scale.n(512, 32),
        },
        Workload::Mixed2s => SutConfig {
            file_backend: false,
            shards: 1,
            workers: 1,
            mvcc: false,
            pool_pages: scale.n(512, 32),
        },
    }
}

/// Most measured rounds a run makes, whatever `--seconds` says. Every
/// `write_churn` round leaves the table larger (slots are never reused),
/// so each is heavier than the last; were their number left to the clock,
/// a faster engine would be measured on a bigger table.
fn max_rounds(w: Workload) -> usize {
    if w == Workload::WriteChurn {
        16
    } else {
        usize::MAX
    }
}

/// Operations per round (reads of the reader, for `mixed_2s`).
fn round_ops(w: Workload, scale: Scale) -> usize {
    match w {
        Workload::LookupCold => scale.n(12_000, 300),
        Workload::ScanWarm => scale.n(80, 20),
        Workload::WriteChurn => 0,
        Workload::Mixed2s => scale.n(12_000, 300),
    }
}

/// The generated inputs of one run.
struct World {
    items: Option<Items>,
    li: Option<Lineitem>,
    generate_s: f64,
}

impl World {
    /// The read-only data and model, and (items workloads) the source
    /// of rows to insert, which alone changes as the run goes on.
    fn generate(w: Workload, scale: Scale, seed: u64) -> (World, Option<InsertRows>) {
        let start = Instant::now();
        let (items, li, inserts) = match w {
            Workload::ScanWarm => (None, Some(Lineitem::generate(scale, seed)), None),
            _ => {
                let (items, inserts) = Items::generate(scale, seed);
                (Some(items), None, Some(inserts))
            }
        };
        let generate_s = start.elapsed().as_secs_f64();
        (
            World {
                items,
                li,
                generate_s,
            },
            inserts,
        )
    }

    fn input_digest(&self) -> u64 {
        self.items
            .as_ref()
            .map(Items::input_digest)
            .or(self.li.as_ref().map(Lineitem::input_digest))
            .expect("one dataset per workload")
    }

    /// The tables to create, rows cloned from the generated data.
    fn tables(&self, w: Workload) -> Vec<TableSpec> {
        if let Some(li) = &self.li {
            let mut specs = vec![TableSpec {
                name: LINEITEM,
                schema: li.schema.clone(),
                rows: li.rows.clone(),
                clustered_col: tpch::COL_RECEIPTDATE,
                tups_per_page: TPCH_TPP,
                bucket_target: (TPCH_TPP * 10) as u64,
                btrees: vec![],
                cms: vec![
                    ("ship_cm", CmSpec::single_raw(tpch::COL_SHIPDATE)),
                    ("part_cm", CmSpec::single_raw(tpch::COL_PARTKEY)),
                ],
            }];
            for dim in [&li.ship_dim, &li.part_dim] {
                specs.push(TableSpec {
                    name: dim.name,
                    schema: dim.schema.clone(),
                    rows: dim.rows.clone(),
                    clustered_col: 0,
                    tups_per_page: 20,
                    bucket_target: 40,
                    btrees: vec![],
                    cms: vec![],
                });
            }
            return specs;
        }
        let items = self.items.as_ref().expect("items workload");
        let (btrees, cms) = if w == Workload::WriteChurn {
            (
                vec![
                    ("itemid_ix", vec![ebay::COL_ITEMID]),
                    ("price_ix", vec![ebay::COL_PRICE]),
                ],
                vec![
                    ("cat5_cm", CmSpec::single_raw(ebay::COL_CAT5)),
                    (
                        "cat6_price_cm",
                        CmSpec::new(vec![
                            CmAttr::raw(ebay::COL_CAT5 + 1),
                            CmAttr::pow2(ebay::COL_PRICE, 12),
                        ]),
                    ),
                ],
            )
        } else {
            (
                vec![("itemid_ix", vec![ebay::COL_ITEMID])],
                vec![
                    ("price_cm", CmSpec::single_pow2(ebay::COL_PRICE, 12)),
                    ("cat5_cm", CmSpec::single_raw(ebay::COL_CAT5)),
                ],
            )
        };
        vec![TableSpec {
            name: ITEMS,
            schema: items.schema.clone(),
            rows: items.rows.clone(),
            clustered_col: ebay::COL_CATID,
            tups_per_page: EBAY_TPP,
            bucket_target: (EBAY_TPP * 2) as u64,
            btrees,
            cms,
        }]
    }
}

/// One measured (or warm-up) round.
pub struct Round {
    pub traced: bool,
    pub acc: Acc,
    pub wall_s: f64,
    pub counters: Counters,
    pub writer_lag_us: Vec<f64>,
    pub tracer: Option<Tracer>,
}

impl Round {
    /// Operations of the closed-loop client. The open-loop writer's count
    /// follows the clock, not the system, so it says nothing of speed.
    pub fn client_ops(&self, w: Workload) -> usize {
        if w == Workload::Mixed2s {
            Class::ALL
                .into_iter()
                .filter(|c| c.is_read())
                .map(|c| self.acc.of(c).len())
                .sum()
        } else {
            self.acc.ops()
        }
    }

    /// Seconds the system was busy: a lone client waits for every reply,
    /// so the sum of its latencies; beside a second thread, the clock.
    pub fn busy_s(&self, w: Workload) -> f64 {
        if w == Workload::Mixed2s {
            self.wall_s
        } else {
            self.acc.busy_us / 1e6
        }
    }
}

fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(ItemID, rid)` of the writer's live rows, oldest first, across rounds.
type WriterLive = std::collections::VecDeque<(i64, cm_storage::Rid)>;

/// What the open-loop writer of `mixed_2s` did in one round.
struct WriterOut {
    acc: Acc,
    lag_us: Vec<f64>,
}

/// Drive writes on a fixed schedule until `done`: per seventeen ticks,
/// eight inserts, each followed by the delete, by rid, of the oldest live
/// inserted row (once [`ops::WRITER_LIVE_ROWS`] are live), then a commit;
/// ticks spaced so inserts arrive at [`WRITER_RATE`]. Every write is
/// timed from the tick it was due at, so a stall is charged to all the
/// writes it delayed; how late each started is the lag.
fn write_loop(
    sut: &Sut,
    pool: &[Row],
    churn: &mut Churn,
    live: &mut WriterLive,
    start_line: &Barrier,
    done: &AtomicBool,
) -> WriterOut {
    let client = sut.client();
    let mut out = WriterOut {
        acc: Acc::new(),
        lag_us: Vec::new(),
    };
    let tick = Duration::from_secs_f64(8.0 / 17.0 / WRITER_RATE);
    start_line.wait();
    let start = Instant::now();
    let (mut ticks, mut next_row) = (0u32, 0usize);
    while !done.load(Ordering::SeqCst) && next_row < pool.len() {
        let op = match ticks % 17 {
            16 => Op::Commit,
            t if t % 2 == 0 => Op::Insert(next_row),
            _ if live.len() as i64 > ops::WRITER_LIVE_ROWS => Op::Delete(live[0].0),
            _ => {
                // Nothing old enough to delete yet: the tick stays empty.
                ticks += 1;
                continue;
            }
        };
        let due = start + tick * ticks;
        ticks += 1;
        // Sleep towards the tick and spin only the last stretch: a
        // writer that spins all the way takes a whole CPU from the
        // reader whenever the sandbox has only one to give (it often
        // does, for seconds at a time).
        while let Some(ahead) = due.checked_duration_since(Instant::now()) {
            if ahead > Duration::from_micros(100) {
                std::thread::sleep(ahead - Duration::from_micros(60));
            } else {
                std::hint::spin_loop();
            }
        }
        out.lag_us.push(due.elapsed().as_nanos() as f64 / 1e3);
        let verdict = match &op {
            Op::Insert(i) => {
                next_row += 1;
                client.insert(ITEMS, pool[*i].clone()).map(|rid| {
                    note_insert(&mut out.acc, Some(churn), pool, *i, rid);
                    live.push_back((churn.next_id() - 1, rid));
                })
            }
            Op::Commit => {
                client.commit();
                Ok(())
            }
            Op::Delete(id) => {
                churn.delete_range(*id, *id);
                let (_, rid) = live.pop_front().expect("a row old enough to delete");
                client.delete(ITEMS, rid)
            }
            other => unreachable!("the writer never issues {other:?}"),
        };
        if let Err(why) = &verdict {
            eprintln!("FAILED: writer {op:?}: {why}");
        }
        out.acc.record(
            op.class(),
            due.elapsed().as_nanos() as f64 / 1e3,
            verdict.is_ok(),
        );
    }
    client.commit();
    out
}

struct Bench<'a> {
    args: &'a RunArgs,
    world: World,
    config: SutConfig,
    work: WorkDir,
}

impl<'a> Bench<'a> {
    /// The script a round runs (read workloads), or the reads that
    /// exercise a fresh engine at the end of set-up (write workloads).
    fn read_script(&self) -> Vec<Op> {
        let (w, scale, seed) = (self.args.workload, self.args.scale, self.args.seed);
        match w {
            Workload::ScanWarm => ops::scan_script(
                self.world.li.as_ref().expect("lineitem"),
                round_ops(w, scale),
                seed,
            ),
            Workload::LookupCold | Workload::Mixed2s => ops::lookup_script(
                self.world.items.as_ref().expect("items"),
                round_ops(w, scale),
                seed,
            ),
            Workload::WriteChurn => {
                let n = self.world.items.as_ref().expect("items").base_len() as u64;
                let mut rng = Rng::derive(seed, 0xC4A5);
                (0..scale.n(256, 32))
                    .map(|_| Op::Point(rng.below(n) as i64))
                    .collect()
            }
        }
    }

    /// One set-up as `setup_s` counts it: create, load, build, then the
    /// first operations a fresh engine serves (so work deferred to first
    /// use shows here too).
    fn timed_setup(&self, tag: &str, first_ops: &[Op]) -> SutResult<(Sut, SetupTimes, f64, Acc)> {
        // Copying the generated rows is the benchmark's work, not set-up.
        let specs = self.world.tables(self.args.workload);
        let start = Instant::now();
        let sut = Sut::start(self.config, &self.work.sub(tag))?;
        let mut times = SetupTimes::default();
        for spec in specs {
            let t = sut.create(spec)?;
            times.load_s += t.load_s;
            times.build_btree_s += t.build_btree_s;
            times.build_cm_s += t.build_cm_s;
        }
        let mut acc = Acc::new();
        Exec::new(&sut, self.world.items.as_ref(), self.world.li.as_ref()).run_script(
            first_ops,
            &[],
            None,
            Check::All,
            None,
            &mut acc,
        );
        Ok((sut, times, start.elapsed().as_secs_f64(), acc))
    }
}

pub fn run(args: &RunArgs) -> SutResult<RunReport> {
    let w = args.workload;
    // Declared before the engines: locals drop in reverse, so every
    // engine is gone before its directory is removed.
    let (world, mut inserts) = World::generate(w, args.scale, args.seed);
    let bench = Bench {
        args,
        world,
        config: sut_config(w, args.scale),
        work: WorkDir::create(&args.work_base, w.name())?,
    };
    let read_script = bench.read_script();
    let first_ops = &read_script[..read_script.len().min(args.scale.n(256, 32))];

    // ---- set-up, five times; the last engine is the one measured -----
    let mut setup_s = Vec::new();
    let mut kept = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    // The traced run reports where set-up time goes, not how long it is.
    for i in 0..if args.trace { 1 } else { SETUPS } {
        drop(kept.take());
        let (sut, times, secs, acc) = bench.timed_setup(&format!("setup{i}"), first_ops)?;
        attempted += acc.attempted;
        failed += acc.failed;
        setup_s.push(secs);
        kept = Some((sut, times));
    }
    let (sut, setup_times) = kept.expect("at least one set-up");
    let footprint_loaded = sut.footprint(main_table(w))?;

    // Inserted rows continue the ItemID sequence.
    let first_id = inserts.as_ref().map_or(0, InsertRows::next_id);
    let churn_size = ChurnSize::of(args.scale);
    let writer_pool = args.scale.n(6144, 1024);

    let mut rounds: Vec<Round> = Vec::new();
    let mut script_hash = Fnv::default();
    script_hash.u64(ops::script_digest(&read_script));
    let mut exec = Exec::new(&sut, bench.world.items.as_ref(), bench.world.li.as_ref());
    exec.lenient = w == Workload::Mixed2s;
    let mut st = RunState {
        exec,
        churn: Churn::new(first_id),
        delete_from: first_id,
        writer_live: WriterLive::new(),
        replay: None,
    };
    if args.trace && matches!(w, Workload::WriteChurn | Workload::Mixed2s) {
        st.replay = Some(WriteReplay::build(&sut, &bench.work.sub("replay"))?);
    }
    let mut fixed = FixedPoint::default();
    let mut measured_s = 0.0;
    // Round 0 is the warm-up: untraced, every operation checked, unmeasured.
    for r in 0.. {
        let traced = args.trace && r % 2 == 1;
        let pool: Vec<Row> = match (w, &mut inserts) {
            (Workload::WriteChurn, Some(rows)) => rows.draw(churn_size.rows()),
            (Workload::Mixed2s, Some(rows)) => rows.draw(writer_pool),
            _ => Vec::new(),
        };
        let churn_ops;
        let script: &[Op] = if w == Workload::WriteChurn {
            churn_ops = ops::churn_script(churn_size, &mut st.delete_from);
            if r <= 1 {
                script_hash.u64(ops::script_digest(&churn_ops));
            }
            &churn_ops
        } else {
            &read_script
        };
        let check = if r == 0 {
            Check::All
        } else {
            Check::Sampled(args.seed ^ r as u64)
        };
        let round = run_round(args, script, &pool, &mut st, check, traced);
        if let (Some(replay), true) = (&mut st.replay, traced) {
            let rows: Vec<_> = round
                .acc
                .inserted
                .iter()
                .map(|(i, rid)| (pool[*i].clone(), *rid))
                .collect();
            replay.replay(&sut, &rows)?;
        }
        attempted += round.acc.attempted;
        failed += round.acc.failed;
        if let Some(rows) = &mut inserts {
            // Pool rows the writer never reached give their ids back.
            rows.rewind(st.churn.next_id());
        }
        if r > 0 {
            measured_s += round.wall_s;
            rounds.push(round);
        }
        if r == CHECKPOINT_AFTER && matches!(w, Workload::WriteChurn) {
            let start = Instant::now();
            sut.checkpoint();
            fixed.checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
        }
        if r == FIXED_POINT {
            fixed.peak_rss_mb = vm_hwm_mib();
            if w == Workload::WriteChurn {
                let items = bench.world.items.as_ref().expect("items");
                let live = st.churn.live();
                fixed.expect = Expect {
                    count: items.base_len() as u64 + live.count,
                    digest: items.base_digest.wrapping_add(live.digest),
                };
                fixed.crash = Some(sut.crash_state());
            }
        }
        if r >= MIN_ROUNDS && (measured_s >= args.seconds || r >= max_rounds(w)) {
            break;
        }
    }

    // ---- restart (write_churn): recover, first query, compare ---------
    let mut recovery = Recovery::default();
    if let Some(state) = fixed.crash.take() {
        let repeats = if args.trace { 3 } else { 1 };
        let mut secs = Vec::new();
        for i in 0..repeats {
            let dir = bench.work.sub(&format!("recover{i}"));
            let start = Instant::now();
            let (restarted, report) = Sut::recover(bench.config, &dir, &state)?;
            let first = restarted.client().read(ITEMS, &ops::point_query(0));
            secs.push(start.elapsed().as_secs_f64());
            attempted += 1;
            let verdict = first
                .map_err(|e| format!("first query: {e}"))
                .and_then(|o| {
                    if o.rows.len() != 1 {
                        return Err(format!("ItemID 0 returned {} rows", o.rows.len()));
                    }
                    let got = scan_digest(&restarted, ITEMS)?;
                    if got != fixed.expect {
                        return Err(format!(
                            "{} rows (digest {:016x}) after restart, the model has {} ({:016x})",
                            got.count, got.digest, fixed.expect.count, fixed.expect.digest
                        ));
                    }
                    Ok(())
                });
            if let Err(why) = verdict {
                eprintln!("FAILED: recovery {i}: {why}");
                failed += 1;
            }
            recovery.records = report.records;
            recovery.redone = report.redone;
            recovery.undone = report.undone;
            drop(restarted);
            let _ = std::fs::remove_dir_all(&dir);
        }
        recovery.seconds = stats::med(secs);
    }

    let footprint = sut.footprint(main_table(w))?;
    let live_rows = footprint_loaded.heap_slots + st.churn.live().count;
    let summary = Summarizer {
        w,
        args,
        rounds: &rounds,
        setup_s: &setup_s,
        setup_times,
        fixed: &fixed,
        recovery,
        footprint,
        live_rows,
        write_costs: st.replay.as_ref().map(WriteReplay::costs),
        generate_s: bench.world.generate_s,
        input_digest: {
            let mut digest = Fnv::default();
            digest.u64(bench.world.input_digest());
            digest.u64(script_hash.finish());
            digest.finish()
        },
        config: bench.config,
    };
    let (metrics, detail) = summary.metrics();
    if let (Some(path), true) = (&args.spans_out, args.trace) {
        write_spans(path, &rounds).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(RunReport {
        attempted,
        failed,
        metrics,
        detail,
    })
}

fn main_table(w: Workload) -> &'static str {
    if w == Workload::ScanWarm {
        LINEITEM
    } else {
        ITEMS
    }
}

/// What carries over from round to round.
struct RunState<'a> {
    exec: Exec<'a>,
    churn: Churn,
    delete_from: i64,
    writer_live: WriterLive,
    replay: Option<WriteReplay>,
}

#[derive(Default)]
pub struct FixedPoint {
    pub peak_rss_mb: f64,
    pub checkpoint_ms: f64,
    crash: Option<cm_engine::CrashState>,
    expect: Expect,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Recovery {
    pub seconds: f64,
    pub records: u64,
    pub redone: u64,
    pub undone: u64,
}

fn run_round(
    args: &RunArgs,
    script: &[Op],
    pool: &[Row],
    st: &mut RunState<'_>,
    check: Check,
    traced: bool,
) -> Round {
    let (w, exec) = (args.workload, &mut st.exec);
    let sut = exec.sut;
    let mut tc = traced.then(|| TraceCtx {
        tr: Tracer::new(),
        dec: Decomposed::new(sut),
    });
    let mut acc = Acc::new();
    let mut lag = Vec::new();
    let before = sut.counters();
    let start = Instant::now();
    if w == Workload::Mixed2s {
        let done = AtomicBool::new(false);
        let start_line = Barrier::new(2);
        let (churn, live) = (&mut st.churn, &mut st.writer_live);
        let written = std::thread::scope(|scope| {
            let writer = scope.spawn(|| write_loop(sut, pool, churn, live, &start_line, &done));
            start_line.wait();
            exec.run_script(script, &[], None, check, tc.as_mut(), &mut acc);
            done.store(true, Ordering::SeqCst);
            writer.join().expect("the writer thread does not panic")
        });
        acc.merge(written.acc);
        lag = written.lag_us;
    } else {
        let churn = (w == Workload::WriteChurn).then_some(&mut st.churn);
        exec.run_script(script, pool, churn, check, tc.as_mut(), &mut acc);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let counters = sut.counters().since(&before);
    if matches!(w, Workload::WriteChurn | Workload::Mixed2s) {
        let n = if matches!(check, Check::All) { 64 } else { 16 };
        exec.verify_inserted(&st.churn, n, args.seed ^ acc.ops() as u64, &mut acc);
    }
    Round {
        traced,
        acc,
        wall_s,
        counters,
        writer_lag_us: lag,
        tracer: tc.map(|t| t.tr),
    }
}
