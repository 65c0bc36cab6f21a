//! The DML prelude the engine oracles run before they query, so their
//! scans meet mixed pages — dead slots, ended versions, pending stamps,
//! an appended tail — and the sparse batches and slot-by-slot visibility
//! tests those pages take, not only the all-visible pages of a fresh
//! load. Included by the oracle test files as a module.

use cm_engine::{Engine, Session};
use cm_query::Query;
use cm_storage::{Rid, Row};
use std::sync::Arc;

/// What the prelude does to one table, in order.
#[derive(Debug, Clone)]
pub struct Script {
    /// Rows inserted one at a time, autocommit.
    pub inserts: Vec<Row>,
    /// Every `delete_every`-th of those rows is then deleted by RID,
    /// autocommit (0: none).
    pub delete_every: usize,
    /// Then every row matching this is deleted, autocommit.
    pub delete_where: Option<Query>,
    /// Whether a vacuum pass runs after the committed deletes.
    pub vacuum: bool,
    /// A row the open session inserts and does not commit.
    pub pending_insert: Option<Row>,
    /// Whether the open session also deletes, uncommitted, one inserted
    /// row that is still live.
    pub pending_delete: bool,
}

/// Run `script` on `table`, which was loaded with `loaded`, leaving the
/// pending writes open in `session`. Returns the rows a query now sees:
/// with MVCC, those a fresh snapshot sees (the session's writes are
/// invisible); without it, every row the table holds (the session's
/// writes are in place).
pub fn run(
    engine: &Arc<Engine>,
    session: &Session,
    table: &str,
    loaded: &[Row],
    script: &Script,
    mvcc: bool,
) -> Vec<Row> {
    let mut visible = loaded.to_vec();
    let drop_one = |visible: &mut Vec<Row>, row: &Row| {
        let at = visible
            .iter()
            .position(|r| r == row)
            .expect("the model holds the row");
        visible.swap_remove(at);
    };
    let mut inserted: Vec<(Rid, Row)> = Vec::new();
    for row in &script.inserts {
        let rid = engine.insert(table, row.clone()).unwrap();
        visible.push(row.clone());
        inserted.push((rid, row.clone()));
    }
    if script.delete_every > 0 {
        let mut kept = Vec::new();
        for (i, (rid, row)) in inserted.into_iter().enumerate() {
            if i % script.delete_every == 0 {
                assert_eq!(engine.delete(table, rid).unwrap(), row);
                drop_one(&mut visible, &row);
            } else {
                kept.push((rid, row));
            }
        }
        inserted = kept;
    }
    if let Some(q) = &script.delete_where {
        let victims = engine.delete_where(table, q).unwrap();
        let before = visible.len();
        visible.retain(|r| !q.matches(r));
        assert_eq!(
            victims.len(),
            before - visible.len(),
            "delete_where victims"
        );
        inserted.retain(|(_, r)| !q.matches(r));
    }
    if script.vacuum {
        engine.vacuum().unwrap();
    }
    if let Some(row) = &script.pending_insert {
        session.insert(table, row.clone()).unwrap();
        if !mvcc {
            visible.push(row.clone());
        }
    }
    if script.pending_delete {
        if let Some((rid, row)) = inserted.first() {
            assert_eq!(&session.delete(table, *rid).unwrap(), row);
            if !mvcc {
                drop_one(&mut visible, row);
            }
        }
    }
    visible
}
