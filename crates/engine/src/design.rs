//! Design changes: the one staged install step behind every change to
//! a table's access-structure set, and the workload advisor loop that
//! recommends a set.
//!
//! Five callers change a table's structures — [`Engine::apply_design`],
//! [`Engine::create_btree`], [`Engine::create_cm`], and recovery's image
//! restore and design-record redo — and every one goes through
//! [`Engine::install_structures`]: per shard, build the target
//! structures, catch up the rows appended since the build
//! ([`Table::catch_up_structures`]), install them, and analyze their
//! columns. The modes differ only in which lock the build holds, and
//! delete semantics decide it. Under MVCC a delete only end-stamps — the
//! row keeps its bytes, and its postings, until vacuum — so the build
//! runs under the shard *read* lock while readers and writers proceed.
//! Without MVCC a delete removes the row, so a build racing it would
//! keep postings to a vanished row, and the build runs under the shard
//! *write* lock.

use crate::catalog::LoadedTable;
use crate::engine::Engine;
use crate::error::check_cols;
use crate::Result;
use cm_advisor::{
    recommend_for_workload, DesignSet, Sample, Structure, WorkloadProfile, WorkloadRecommendation,
};
use cm_core::CmSpec;
use cm_query::Table;
use cm_storage::{LogPayload, AUTOCOMMIT_TXN};

/// Live rows [`Engine::advise_design`] samples to estimate each CM
/// candidate's bucketed `c_per_u`.
const ADVISOR_SAMPLE_ROWS: usize = 10_000;

/// A table's secondary access-structure set by definition — what every
/// shard carries, what a `DesignChange` record logs, and what a
/// checkpoint image restores.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StructureSet {
    /// Secondary B+Trees: `(name, key columns)`, in id order.
    pub btrees: Vec<(String, Vec<usize>)>,
    /// Correlation Maps: `(name, spec)`, in id order.
    pub cms: Vec<(String, CmSpec)>,
}

impl StructureSet {
    /// The set a partition carries now.
    pub(crate) fn of(t: &Table) -> Self {
        StructureSet {
            btrees: t
                .secondaries()
                .iter()
                .map(|s| (s.name().to_string(), s.cols().to_vec()))
                .collect(),
            cms: t.cms().iter().map(|c| (c.name().to_string(), c.spec().clone())).collect(),
        }
    }

    /// Every column a structure in the set keys on, ascending — the
    /// columns the planner needs fresh statistics for.
    pub(crate) fn key_cols(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.btrees.iter().flat_map(|(_, cols)| cols).copied().collect();
        cols.extend(self.cms.iter().flat_map(|(_, spec)| spec.cols()));
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Encode the set for a `DesignChange` record. Self-delimiting;
    /// decoded by [`StructureSet::decode`].
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let put_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u16).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        out.extend_from_slice(&(self.btrees.len() as u16).to_le_bytes());
        for (name, cols) in &self.btrees {
            put_str(&mut out, name);
            out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
            for &c in cols {
                out.extend_from_slice(&(c as u32).to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.cms.len() as u16).to_le_bytes());
        for (name, spec) in &self.cms {
            put_str(&mut out, name);
            out.extend_from_slice(&spec.encode());
        }
        out
    }

    /// Decode a [`StructureSet::encode`] payload. `None` on malformed
    /// bytes.
    pub(crate) fn decode(bytes: &[u8]) -> Option<Self> {
        let mut at = 0usize;
        let take_u16 = |at: &mut usize| -> Option<u16> {
            let v = u16::from_le_bytes(bytes.get(*at..*at + 2)?.try_into().ok()?);
            *at += 2;
            Some(v)
        };
        let take_str = |at: &mut usize| -> Option<String> {
            let len = take_u16(at)? as usize;
            let s = std::str::from_utf8(bytes.get(*at..*at + len)?).ok()?.to_string();
            *at += len;
            Some(s)
        };
        let mut set = StructureSet::default();
        for _ in 0..take_u16(&mut at)? {
            let name = take_str(&mut at)?;
            let ncols = take_u16(&mut at)? as usize;
            let mut cols = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let c = u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?);
                at += 4;
                cols.push(c as usize);
            }
            set.btrees.push((name, cols));
        }
        for _ in 0..take_u16(&mut at)? {
            let name = take_str(&mut at)?;
            let (spec, used) = CmSpec::decode(bytes.get(at..)?)?;
            at += used;
            set.cms.push((name, spec));
        }
        (at == bytes.len()).then_some(set)
    }
}

/// What [`Engine::apply_design`] changed (per shard; every shard gets
/// the same set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedDesign {
    /// Secondary B+Trees built.
    pub btrees: usize,
    /// Correlation Maps built.
    pub cms: usize,
    /// Pre-existing structures dropped.
    pub dropped: usize,
}

impl Engine {
    /// Create (and bulk-build) a secondary B+Tree on `cols` — one tree
    /// per shard, covering that shard's rows; returns its id (the same
    /// on every shard). Statistics for its columns are refreshed so the
    /// planner can cost the new index immediately.
    pub fn create_btree(
        &self,
        table: &str,
        index_name: impl Into<String>,
        cols: Vec<usize>,
    ) -> Result<usize> {
        let set = StructureSet { btrees: vec![(index_name.into(), cols)], cms: Vec::new() };
        self.create_structure(table, set, |t| t.secondaries().len())
    }

    /// Create (and build via the paper's Algorithm 1) a Correlation Map —
    /// one per shard, over that shard's bucket directory; returns its id
    /// (the same on every shard). Statistics for the CM's key columns
    /// are refreshed so the planner can compare the CM against index
    /// paths.
    pub fn create_cm(
        &self,
        table: &str,
        cm_name: impl Into<String>,
        spec: CmSpec,
    ) -> Result<usize> {
        let set = StructureSet { btrees: Vec::new(), cms: vec![(cm_name.into(), spec)] };
        self.create_structure(table, set, |t| t.cms().len())
    }

    /// Stage one new structure and append it on every shard — nothing
    /// existing is rebuilt — then log the table's new set. `count`
    /// reads the length of the list it joins; its id is that length
    /// minus one.
    fn create_structure(
        &self,
        table: &str,
        set: StructureSet,
        count: impl Fn(&Table) -> usize,
    ) -> Result<usize> {
        let entry = self.entry(table)?;
        check_cols(&entry.name, entry.schema.arity(), set.key_cols())?;
        let lt = entry.loaded()?;
        let _serialized = self.design_lock.lock();
        self.install_structures(lt, &set, false)?;
        self.log_design_change(&entry.name, lt);
        let id = count(&lt.parts[0].read()) - 1;
        Ok(id)
    }

    /// Snapshot the table's online workload profile (per-column read
    /// traffic + write count recorded since engine start or the last
    /// [`Engine::reset_workload_profile`]).
    pub fn workload_profile(&self, table: &str) -> Result<WorkloadProfile> {
        Ok(self.entry(table)?.profile.lock().clone())
    }

    /// Start a fresh profiling window for the table.
    pub fn reset_workload_profile(&self, table: &str) -> Result<()> {
        self.entry(table)?.profile.lock().reset();
        Ok(())
    }

    /// Recommend the per-column structure set for the table's profiled
    /// workload: harvest the table's [`WorkloadProfile`], refresh
    /// statistics for the profiled read columns, and run
    /// [`cm_advisor::recommend_for_workload`] over a 10 000-row sample
    /// of the largest partition (table-wide row count, engine-wide pool
    /// budget). Apply the result with [`Engine::apply_design`].
    pub fn advise_design(&self, table: &str) -> Result<WorkloadRecommendation> {
        let entry = self.entry(table)?;
        let profile = entry.profile.lock().clone();
        let arity = entry.schema.arity();
        let cand: Vec<usize> = profile
            .cols()
            .iter()
            .map(|c| c.col)
            .filter(|&c| c != entry.clustered_col && c < arity)
            .collect();
        if !cand.is_empty() {
            self.analyze(table, &cand)?;
        }
        let lt = entry.loaded()?;
        let total: u64 = lt.parts.iter().map(|p| p.read().heap().len()).sum();
        let largest = (0..lt.parts.len())
            .max_by_key(|&i| lt.parts[i].read().heap().len())
            .expect("loaded tables have at least one partition");
        let part = lt.parts[largest].read();
        Ok(recommend_for_workload(
            &Sample::live(&part, ADVISOR_SAMPLE_ROWS),
            &self.config.disk,
            total,
            self.config.pool_pages,
            &profile,
        ))
    }

    /// Replace the table's secondary access structures with a
    /// [`DesignSet`]: every existing secondary B+Tree and CM is dropped,
    /// each column choice gets its structure on every shard, and
    /// statistics are refreshed so the planner can route through the
    /// new set immediately. Shard by shard the new set is built, caught
    /// up, and swapped in (see the module docs for the lock the build
    /// holds); each query leg plans under its own shard hold, so a
    /// query that overlaps the change sees each shard's set whole.
    pub fn apply_design(&self, table: &str, design: &DesignSet) -> Result<AppliedDesign> {
        let entry = self.entry(table)?;
        let mut set = StructureSet::default();
        for cd in &design.columns {
            match &cd.structure {
                Structure::None => {}
                Structure::BTree => {
                    set.btrees.push((format!("adv_btree_{}", cd.col), vec![cd.col]))
                }
                Structure::Cm(spec) => set.cms.push((format!("adv_cm_{}", cd.col), spec.clone())),
            }
        }
        let mut cols: Vec<usize> = design.columns.iter().map(|c| c.col).collect();
        cols.extend(set.key_cols());
        check_cols(&entry.name, entry.schema.arity(), cols.iter().copied())?;
        let lt = entry.loaded()?;
        let _serialized = self.design_lock.lock();
        let dropped = {
            let t0 = lt.parts[0].read();
            t0.secondaries().len() + t0.cms().len()
        };
        self.install_structures(lt, &set, true)?;
        self.log_design_change(&entry.name, lt);
        Ok(AppliedDesign { btrees: set.btrees.len(), cms: set.cms.len(), dropped })
    }

    /// The staged install step, shard by shard: build `set`'s structures
    /// (under the read lock with MVCC, the write lock without — see the
    /// module docs), then under the write lock catch up the rows
    /// appended since the build, install the structures — as the whole
    /// set when `replace`, appended after the existing ones otherwise —
    /// and analyze the set's key columns. Each shard's pass holds
    /// `vacuum_lock`, so no version the build indexed is reclaimed
    /// before the install. Callers hold `design_lock` (or own the engine
    /// outright, as recovery does) and do their own logging.
    pub(crate) fn install_structures(
        &self,
        lt: &LoadedTable,
        set: &StructureSet,
        replace: bool,
    ) -> Result<()> {
        let cols = set.key_cols();
        for (i, part) in lt.parts.iter().enumerate() {
            let _no_vacuum = self.vacuum_lock.lock();
            let disk = self.backends[i].disk();
            let build = |t: &Table| {
                let secs: Vec<_> = set
                    .btrees
                    .iter()
                    .map(|(name, cols)| t.build_secondary(disk, name.clone(), cols.clone()))
                    .collect();
                let cms: Vec<_> = set
                    .cms
                    .iter()
                    .map(|(name, spec)| t.build_cm(name.clone(), spec.clone()))
                    .collect();
                (t.heap().len(), secs, cms)
            };
            let (mut t, (built_len, mut secs, mut cms)) = if self.mvcc.is_some() {
                let staged = build(&part.read());
                (part.write(), staged)
            } else {
                let t = part.write();
                let staged = build(&t);
                (t, staged)
            };
            t.catch_up_structures(self.backends[i].pool(), built_len, &mut secs, &mut cms)?;
            t.install_access_structures(secs, cms, replace);
            if !cols.is_empty() {
                t.analyze_cols(&cols);
            }
        }
        Ok(())
    }

    /// Append a [`LogPayload::DesignChange`] record carrying the table's
    /// complete structure set (every shard carries the same set), so a
    /// restart whose checkpoint image predates the change rebuilds the
    /// structures during redo. Design changes are auto-committed — like
    /// the DDL itself, they are never rolled back.
    fn log_design_change(&self, table: &str, lt: &LoadedTable) {
        let design = StructureSet::of(&lt.parts[0].read()).encode();
        self.wal.log(
            AUTOCOMMIT_TXN,
            &LogPayload::DesignChange { table: table.to_string(), design },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use cm_advisor::ColumnDesign;
    use cm_query::{Pred, Query};
    use cm_storage::{Column, DiskSim, Schema, Value, ValueType};
    use std::ops::Bound;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const ROWS: u64 = 2000;

    /// `items(catid, price)`: 40 categories, unique prices.
    fn engine_with(config: EngineConfig) -> Arc<Engine> {
        let engine = Engine::new(config);
        let schema = Arc::new(Schema::new(vec![
            Column::new("catid", ValueType::Int),
            Column::new("price", ValueType::Int),
        ]));
        engine.create_table("items", schema, 0, 20, 100).unwrap();
        let rows = (0..ROWS as i64).map(|i| vec![Value::Int(i % 40), Value::Int(i)]).collect();
        engine.load("items", rows).unwrap();
        engine
    }

    /// A B+Tree and a CM on price (cost fields zeroed).
    fn design_on_price() -> DesignSet {
        let column = |structure| ColumnDesign {
            col: 1,
            structure,
            cold_read_ms: 0.0,
            maintenance_ms: 0.0,
        };
        DesignSet {
            columns: vec![
                column(Structure::BTree),
                column(Structure::Cm(CmSpec::single_raw(1))),
            ],
            read_ms: 0.0,
            write_ms: 0.0,
            total_ms: 0.0,
            working_set_pages: 0.0,
            miss_rate: 0.0,
        }
    }

    /// B+Tree `sec`'s postings summed over every shard; asserts no CM
    /// carries a NULL key.
    fn postings(engine: &Engine, sec: usize) -> u64 {
        let mut entries = 0;
        engine
            .with_each_shard("items", |_, t| {
                entries += t.secondary(sec).entries();
                for cm in t.cms() {
                    let null_key = cm.lookup_values(&[Value::Null]);
                    assert!(null_key.is_empty(), "NULL key in {}", cm.name());
                }
            })
            .unwrap();
        entries
    }

    #[test]
    fn builds_skip_tombstones_in_both_modes_and_after_recovery() {
        for mvcc in [false, true] {
            let config = EngineConfig { mvcc, shards: 2, ..EngineConfig::default() };
            let engine = engine_with(config.clone());
            let cat7 = Query::single(Pred::eq(0, 7i64));
            let gone = engine.delete_where("items", &cat7).unwrap().len() as u64;
            // An MVCC delete only end-stamps; vacuum leaves the tombstones.
            engine.vacuum().unwrap();
            engine.create_btree("items", "price_ix", vec![1]).unwrap();
            engine.create_cm("items", "price_cm", CmSpec::single_raw(1)).unwrap();
            engine.commit();
            assert_eq!(postings(&engine, 0), ROWS - gone, "mvcc={mvcc}");
            let (recovered, _) = Engine::recover(config, &engine.crash_state(None)).unwrap();
            assert_eq!(postings(&recovered, 0), ROWS - gone, "mvcc={mvcc}, recovered");
            if mvcc {
                // Ended versions vacuum has not reached keep their bytes,
                // and older snapshots reach them through the structures.
                engine.delete_where("items", &Query::single(Pred::eq(0, 8i64))).unwrap();
                let again = engine.create_btree("items", "price_ix2", vec![1]).unwrap();
                assert_eq!(postings(&engine, again), ROWS - gone);
            }
        }
    }

    #[test]
    fn vacuum_racing_a_design_swap_leaves_no_dangling_postings() {
        let engine = engine_with(EngineConfig { mvcc: true, ..EngineConfig::default() });
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Keep end-stamped versions outstanding for vacuum to reclaim.
            scope.spawn(|| {
                for round in 0..400i64 {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    let cat = round % 40;
                    engine.delete_where("items", &Query::single(Pred::eq(0, cat))).unwrap();
                    let rows = (0..50).map(|i| vec![Value::Int(cat), Value::Int(i)]).collect();
                    engine.insert_many("items", rows).unwrap();
                }
            });
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    engine.vacuum().unwrap();
                    // Let a waiting install in; the mutex is not fair.
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            });
            let design = design_on_price();
            for _ in 0..30 {
                engine.apply_design("items", &design).unwrap();
            }
            done.store(true, Ordering::Relaxed);
        });
        let io = DiskSim::with_defaults();
        engine
            .with_each_shard("items", |_, t| {
                for rid in t.secondary(0).probe_range(&io, Bound::Unbounded, Bound::Unbounded) {
                    assert!(!t.is_tombstone(rid).unwrap(), "posting to reclaimed slot {rid:?}");
                }
            })
            .unwrap();
    }

    #[test]
    fn create_racing_a_design_swap_keeps_shards_uniform() {
        let engine = engine_with(EngineConfig { mvcc: true, shards: 4, ..EngineConfig::default() });
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Creates overlap every swap, the last one included, so a
            // create split across a swap would survive to the check.
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    engine.create_cm("items", "cm", CmSpec::single_raw(1)).unwrap();
                }
            });
            let design = design_on_price();
            for _ in 0..40 {
                engine.apply_design("items", &design).unwrap();
            }
            done.store(true, Ordering::Relaxed);
        });
        let mut sets: Vec<StructureSet> = Vec::new();
        engine.with_each_shard("items", |_, t| sets.push(StructureSet::of(t))).unwrap();
        assert!(sets.windows(2).all(|w| w[0] == w[1]), "shards diverged: {sets:?}");
    }
}
