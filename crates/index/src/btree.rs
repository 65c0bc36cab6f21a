//! A generic, arena-allocated B+Tree.
//!
//! Nodes live in an arena and are identified by a [`NodeId`] that doubles
//! as the node's *page number* on the simulated disk: a root-to-leaf probe
//! touches `height` pages, which is exactly the `btree_height` term of the
//! paper's cost model (§3.1). Leaves are doubly linked for range scans.
//!
//! Deletion is lazy in the PostgreSQL-nbtree style: keys are removed in
//! place and a page is reclaimed only once it is completely empty. No
//! sibling rebalancing is performed; the tree remains correct and the
//! experiments (which are insert- and lookup-heavy, like the paper's) are
//! unaffected by the slightly lower occupancy after heavy deletion.

use std::borrow::Borrow;
use std::ops::Bound;

/// Identifier of a node; also its page number for I/O charging.
pub type NodeId = u32;

#[derive(Debug, Clone)]
enum Node<K, V> {
    Internal {
        /// `keys[i]` is the smallest key reachable under `children[i + 1]`.
        keys: Vec<K>,
        children: Vec<NodeId>,
    },
    Leaf {
        keys: Vec<K>,
        values: Vec<V>,
        prev: Option<NodeId>,
        next: Option<NodeId>,
    },
}

/// What an insert into a node pushes up to its parent.
enum InsertUp<K> {
    /// No split; nothing to propagate.
    Done,
    /// The child split: push `sep` and the new right sibling up.
    Split { sep: K, right: NodeId },
}

/// A B+Tree with configurable fanout.
///
/// `order` is the maximum number of keys a node may hold; the default of
/// 64 gives trees of height 3–4 over the dataset sizes used in the
/// experiments, comparable to PostgreSQL's `btree_height` on the paper's
/// tables.
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    arena: Vec<Option<Node<K, V>>>,
    free: Vec<NodeId>,
    root: NodeId,
    height: usize,
    len: usize,
    order: usize,
}

/// Default maximum keys per node.
pub const DEFAULT_ORDER: usize = 64;

impl<K: Ord + Clone, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new(DEFAULT_ORDER)
    }
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// An empty tree with the given maximum keys per node (minimum 3).
    pub fn new(order: usize) -> Self {
        assert!(order >= 3, "order must be at least 3");
        let mut t = BPlusTree {
            arena: Vec::new(),
            free: Vec::new(),
            root: 0,
            height: 1,
            len: 0,
            order,
        };
        t.root = t.alloc(Node::Leaf {
            keys: Vec::new(),
            values: Vec::new(),
            prev: None,
            next: None,
        });
        t
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Levels from root to leaf inclusive — the `btree_height` of the cost
    /// model.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of live nodes (pages) in the tree.
    pub fn node_count(&self) -> usize {
        self.arena.len() - self.free.len()
    }

    /// The root's node id (root page).
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    fn alloc(&mut self, node: Node<K, V>) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.arena[id as usize] = Some(node);
            id
        } else {
            self.arena.push(Some(node));
            (self.arena.len() - 1) as NodeId
        }
    }

    fn dealloc(&mut self, id: NodeId) {
        self.arena[id as usize] = None;
        self.free.push(id);
    }

    fn node(&self, id: NodeId) -> &Node<K, V> {
        self.arena[id as usize].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node<K, V> {
        self.arena[id as usize].as_mut().expect("live node")
    }

    /// Child index to descend into for `key`.
    #[inline]
    fn child_slot<Q>(keys: &[K], key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        keys.partition_point(|k| k.borrow() <= key)
    }

    /// The node ids on the root-to-leaf path for `key`. The caller charges
    /// one page read per element to model an index probe.
    pub fn probe_path<Q>(&self, key: &Q) -> Vec<NodeId>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut path = Vec::with_capacity(self.height);
        self.descend(key, |id| path.push(id));
        path
    }

    /// The leaf `key` routes to, each node on the way handed to `visit`.
    #[inline]
    fn descend<Q>(&self, key: &Q, mut visit: impl FnMut(NodeId)) -> NodeId
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut id = self.root;
        loop {
            visit(id);
            match self.node(id) {
                Node::Internal { keys, children } => id = children[Self::child_slot(keys, key)],
                Node::Leaf { .. } => return id,
            }
        }
    }

    /// Look up a key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let leaf = self.descend(key, |_| {});
        match self.node(leaf) {
            Node::Leaf { keys, values, .. } => keys
                .binary_search_by(|k| k.borrow().cmp(key))
                .ok()
                .map(|i| &values[i]),
            Node::Internal { .. } => unreachable!("probe ends at a leaf"),
        }
    }

    /// Mutable lookup.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let leaf = self.descend(key, |_| {});
        match self.node_mut(leaf) {
            Node::Leaf { keys, values, .. } => keys
                .binary_search_by(|k| k.borrow().cmp(key))
                .ok()
                .map(|i| &mut values[i]),
            Node::Internal { .. } => unreachable!("probe ends at a leaf"),
        }
    }

    /// Insert a key/value pair; returns the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let mut value = Some(value);
        let (slot, new) = self.upsert(key, |_| {}, || value.take().expect("made once"));
        (!new).then(|| std::mem::replace(slot, value.take().expect("not made")))
    }

    /// Find `key`'s entry in **one** descent, inserting `make()` when the
    /// key is absent, and return the entry's value and whether it was
    /// new. `visit` sees the descent's nodes root first — the ids
    /// [`BPlusTree::probe_path`] returns just before the call, which is
    /// what an index insert charges. An insert that overflows its leaf
    /// walks the same path again to push the splits up; they happen in
    /// the order they always have, so node ids and height do not depend
    /// on which call grew the tree.
    pub fn upsert(
        &mut self,
        key: K,
        visit: impl FnMut(NodeId),
        make: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        let leaf = self.descend(&key, visit);
        let found = match self.node(leaf) {
            Node::Leaf { keys, .. } => keys.binary_search(&key),
            Node::Internal { .. } => unreachable!("a descent ends at a leaf"),
        };
        let (leaf, i) = match found {
            Ok(i) => return (self.value_mut(leaf, i), false),
            Err(i) => self.insert_at(leaf, i, key, make()),
        };
        self.len += 1;
        (self.value_mut(leaf, i), true)
    }

    /// Insert `key` and `value` at index `i` of `leaf`, the leaf and
    /// index the descent for `key` found, splitting up the tree as far as
    /// nodes overflow; returns where the entry ends up.
    fn insert_at(&mut self, leaf: NodeId, i: usize, key: K, value: V) -> (NodeId, usize) {
        let order = self.order;
        let Node::Leaf { keys, values, .. } = self.node_mut(leaf) else {
            unreachable!("entries live in leaves")
        };
        keys.insert(i, key);
        values.insert(i, value);
        if keys.len() <= order {
            return (leaf, i);
        }
        // `split_leaf` keeps the lower half, `mid` entries.
        let mid = keys.len() / 2;
        // The splits climb the descent's path, whose internal nodes still
        // route the key as they did.
        let key = keys[i].clone();
        let path = self.probe_path(&key);
        let mut up = self.split_leaf(leaf);
        let at = match &up {
            InsertUp::Split { right, .. } if i >= mid => (*right, i - mid),
            _ => (leaf, i),
        };
        for &id in path.iter().rev().skip(1) {
            let InsertUp::Split { sep, right } = up else { break };
            let Node::Internal { keys, children } = self.node_mut(id) else {
                unreachable!("a leaf's ancestors are internal")
            };
            let slot = Self::child_slot(keys, &key);
            keys.insert(slot, sep);
            children.insert(slot + 1, right);
            up = if keys.len() > order { self.split_internal(id) } else { InsertUp::Done };
        }
        if let InsertUp::Split { sep, right } = up {
            let new_root = self.alloc(Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            });
            self.root = new_root;
            self.height += 1;
        }
        at
    }

    fn value_mut(&mut self, leaf: NodeId, i: usize) -> &mut V {
        match self.node_mut(leaf) {
            Node::Leaf { values, .. } => &mut values[i],
            Node::Internal { .. } => unreachable!("entries live in leaves"),
        }
    }

    fn split_leaf(&mut self, id: NodeId) -> InsertUp<K> {
        // Move the upper half into a fresh right sibling.
        let (right_keys, right_values, old_next) = match self.node_mut(id) {
            Node::Leaf { keys, values, next, .. } => {
                let mid = keys.len() / 2;
                (keys.split_off(mid), values.split_off(mid), *next)
            }
            Node::Internal { .. } => unreachable!("split_leaf on internal"),
        };
        let sep = right_keys[0].clone();
        let right = self.alloc(Node::Leaf {
            keys: right_keys,
            values: right_values,
            prev: Some(id),
            next: old_next,
        });
        if let Some(nn) = old_next {
            if let Node::Leaf { prev, .. } = self.node_mut(nn) {
                *prev = Some(right);
            }
        }
        if let Node::Leaf { next, .. } = self.node_mut(id) {
            *next = Some(right);
        }
        InsertUp::Split { sep, right }
    }

    fn split_internal(&mut self, id: NodeId) -> InsertUp<K> {
        let (sep, right_keys, right_children) = match self.node_mut(id) {
            Node::Internal { keys, children } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid + 1);
                let sep = keys.pop().expect("mid key exists");
                let right_children = children.split_off(mid + 1);
                (sep, right_keys, right_children)
            }
            Node::Leaf { .. } => unreachable!("split_internal on leaf"),
        };
        let right = self.alloc(Node::Internal { keys: right_keys, children: right_children });
        InsertUp::Split { sep, right }
    }

    /// Remove a key; returns its value if present.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.modify(key, |_| {}, |_| true).flatten()
    }

    /// Find `key`'s entry in **one** descent, whose nodes `visit` sees
    /// root first (as in [`BPlusTree::upsert`]), let `edit` change its
    /// value, and remove the entry in the same descent when `edit`
    /// returns true. `None` when the key is absent, else the removed
    /// value, if any. A removal frees the nodes it empties and collapses
    /// a dwindled root.
    pub fn modify<Q>(
        &mut self,
        key: &Q,
        mut visit: impl FnMut(NodeId),
        edit: impl FnOnce(&mut V) -> bool,
    ) -> Option<Option<V>>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let root = self.root;
        let (out, _emptied) = self.modify_rec(root, key, &mut visit, edit);
        if !matches!(out, Some(Some(_))) {
            return out;
        }
        self.len -= 1;
        // Collapse a root that has dwindled to a single child.
        loop {
            let collapse = match self.node(self.root) {
                Node::Internal { children, .. } if children.len() == 1 => Some(children[0]),
                _ => None,
            };
            match collapse {
                Some(child) => {
                    self.dealloc(self.root);
                    self.root = child;
                    self.height -= 1;
                }
                None => break,
            }
        }
        out
    }

    /// [`BPlusTree::modify`] below `id`; also returns whether `id` is now
    /// empty and was freed.
    fn modify_rec<Q, F: FnMut(NodeId)>(
        &mut self,
        id: NodeId,
        key: &Q,
        visit: &mut F,
        edit: impl FnOnce(&mut V) -> bool,
    ) -> (Option<Option<V>>, bool)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        visit(id);
        let is_root = id == self.root;
        match self.node_mut(id) {
            Node::Leaf { keys, values, .. } => {
                let Ok(i) = keys.binary_search_by(|k| k.borrow().cmp(key)) else {
                    return (None, false);
                };
                if !edit(&mut values[i]) {
                    return (Some(None), false);
                }
                keys.remove(i);
                let old = values.remove(i);
                let emptied = keys.is_empty() && !is_root;
                if emptied {
                    self.unlink_leaf(id);
                    self.dealloc(id);
                }
                (Some(Some(old)), emptied)
            }
            Node::Internal { keys, children } => {
                let slot = Self::child_slot(keys, key);
                let child = children[slot];
                let (out, child_emptied) = self.modify_rec(child, key, visit, edit);
                if child_emptied {
                    match self.node_mut(id) {
                        Node::Internal { keys, children } => {
                            children.remove(slot);
                            if !keys.is_empty() {
                                keys.remove(slot.max(1) - 1);
                            }
                            let emptied = children.is_empty() && !is_root;
                            if emptied {
                                self.dealloc(id);
                            }
                            return (out, emptied);
                        }
                        Node::Leaf { .. } => unreachable!("id is internal"),
                    }
                }
                (out, false)
            }
        }
    }

    fn unlink_leaf(&mut self, id: NodeId) {
        let (prev, next) = match self.node(id) {
            Node::Leaf { prev, next, .. } => (*prev, *next),
            Node::Internal { .. } => unreachable!("unlink_leaf on internal"),
        };
        if let Some(p) = prev {
            if let Node::Leaf { next: pn, .. } = self.node_mut(p) {
                *pn = next;
            }
        }
        if let Some(n) = next {
            if let Node::Leaf { prev: np, .. } = self.node_mut(n) {
                *np = prev;
            }
        }
    }

    /// Iterate entries with keys in `(lo, hi)` in order. Each item carries
    /// the id of the leaf it came from so callers can charge one page read
    /// per distinct leaf.
    pub fn range<'a>(&'a self, lo: Bound<&K>, hi: Bound<&K>) -> RangeIter<'a, K, V> {
        // Find the first candidate leaf.
        let leaf = match &lo {
            Bound::Unbounded => self.leftmost_leaf(),
            Bound::Included(k) | Bound::Excluded(k) => {
                self.descend::<K>(k, |_| {})
            }
        };
        let mut it = RangeIter {
            tree: self,
            leaf: Some(leaf),
            idx: 0,
            hi: match hi {
                Bound::Unbounded => Bound::Unbounded,
                Bound::Included(k) => Bound::Included(k.clone()),
                Bound::Excluded(k) => Bound::Excluded(k.clone()),
            },
        };
        // Skip entries below the lower bound within the first leaf.
        if let Node::Leaf { keys, .. } = self.node(leaf) {
            it.idx = match &lo {
                Bound::Unbounded => 0,
                Bound::Included(k) => keys.partition_point(|x| x < k),
                Bound::Excluded(k) => keys.partition_point(|x| x <= k),
            };
        }
        it
    }

    /// Iterate every entry in key order.
    pub fn iter(&self) -> RangeIter<'_, K, V> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    fn leftmost_leaf(&self) -> NodeId {
        let mut id = self.root;
        loop {
            match self.node(id) {
                Node::Internal { children, .. } => id = children[0],
                Node::Leaf { .. } => return id,
            }
        }
    }

    /// Check structural invariants; used by tests and debug assertions.
    /// Returns the number of entries found.
    pub fn check_invariants(&self) -> usize {
        fn walk<K: Ord + Clone, V>(
            t: &BPlusTree<K, V>,
            id: NodeId,
            depth: usize,
            leaf_depth: &mut Option<usize>,
            lo: Option<&K>,
            hi: Option<&K>,
        ) -> usize {
            match t.node(id) {
                Node::Leaf { keys, values, .. } => {
                    assert_eq!(keys.len(), values.len(), "leaf arity");
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "leaf keys sorted");
                    if let Some(l) = lo {
                        assert!(keys.iter().all(|k| k >= l), "leaf keys >= subtree lo");
                    }
                    if let Some(h) = hi {
                        assert!(keys.iter().all(|k| k < h), "leaf keys < subtree hi");
                    }
                    match leaf_depth {
                        Some(d) => assert_eq!(*d, depth, "all leaves at same depth"),
                        None => *leaf_depth = Some(depth),
                    }
                    keys.len()
                }
                Node::Internal { keys, children } => {
                    assert_eq!(children.len(), keys.len() + 1, "internal arity");
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "internal keys sorted");
                    let mut n = 0;
                    for (i, &c) in children.iter().enumerate() {
                        let clo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                        let chi = if i == keys.len() { hi } else { Some(&keys[i]) };
                        n += walk(t, c, depth + 1, leaf_depth, clo, chi);
                    }
                    n
                }
            }
        }
        let mut leaf_depth = None;
        let n = walk(self, self.root, 1, &mut leaf_depth, None, None);
        assert_eq!(n, self.len, "len matches entry count");
        if let Some(d) = leaf_depth {
            assert_eq!(d, self.height, "height matches leaf depth");
        }
        n
    }
}

/// Ordered iterator over a key range; yields `(leaf_id, &key, &value)`.
pub struct RangeIter<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    leaf: Option<NodeId>,
    idx: usize,
    hi: Bound<K>,
}

impl<'a, K: Ord + Clone, V> Iterator for RangeIter<'a, K, V> {
    type Item = (NodeId, &'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = self.leaf?;
            match self.tree.node(leaf) {
                Node::Leaf { keys, values, next, .. } => {
                    if self.idx >= keys.len() {
                        self.leaf = *next;
                        self.idx = 0;
                        continue;
                    }
                    let k = &keys[self.idx];
                    let in_range = match &self.hi {
                        Bound::Unbounded => true,
                        Bound::Included(h) => k <= h,
                        Bound::Excluded(h) => k < h,
                    };
                    if !in_range {
                        self.leaf = None;
                        return None;
                    }
                    let v = &values[self.idx];
                    self.idx += 1;
                    return Some((leaf, k, v));
                }
                Node::Internal { .. } => unreachable!("iterator only visits leaves"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_small() {
        let mut t = BPlusTree::new(4);
        for i in [5i64, 1, 9, 3, 7] {
            assert_eq!(t.insert(i, i * 10), None);
        }
        assert_eq!(t.len(), 5);
        for i in [1i64, 3, 5, 7, 9] {
            assert_eq!(t.get(&i), Some(&(i * 10)));
        }
        assert_eq!(t.get(&2), None);
        t.check_invariants();
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut t: BPlusTree<i64, &str> = BPlusTree::new(4);
        assert_eq!(t.insert(1, "a"), None);
        assert_eq!(t.insert(1, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&1), Some(&"b"));
    }

    #[test]
    fn grows_in_height_and_splits() {
        let mut t = BPlusTree::new(4);
        for i in 0..1000i64 {
            t.insert(i, i);
        }
        assert_eq!(t.len(), 1000);
        assert!(t.height() >= 4, "height {}", t.height());
        t.check_invariants();
        // All present, in order.
        let collected: Vec<i64> = t.iter().map(|(_, k, _)| *k).collect();
        assert_eq!(collected, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn reverse_and_shuffled_inserts() {
        let mut t = BPlusTree::new(5);
        for i in (0..500i64).rev() {
            t.insert(i, ());
        }
        t.check_invariants();
        // Deterministic shuffle via multiplication by a unit mod 501.
        let mut t2 = BPlusTree::new(5);
        for i in 0..500i64 {
            t2.insert((i * 263) % 501, ());
        }
        t2.check_invariants();
    }

    #[test]
    fn probe_path_has_height_nodes() {
        let mut t = BPlusTree::new(4);
        for i in 0..500i64 {
            t.insert(i, i);
        }
        let path = t.probe_path(&250);
        assert_eq!(path.len(), t.height());
        assert_eq!(path[0], t.root_id());
    }

    #[test]
    fn range_scan_bounds() {
        let mut t = BPlusTree::new(4);
        for i in 0..100i64 {
            t.insert(i * 2, i); // even keys 0..198
        }
        let got: Vec<i64> = t
            .range(Bound::Included(&10), Bound::Excluded(&20))
            .map(|(_, k, _)| *k)
            .collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18]);
        let got: Vec<i64> = t
            .range(Bound::Excluded(&10), Bound::Included(&20))
            .map(|(_, k, _)| *k)
            .collect();
        assert_eq!(got, vec![12, 14, 16, 18, 20]);
        // Bounds between keys.
        let got: Vec<i64> = t
            .range(Bound::Included(&11), Bound::Included(&15))
            .map(|(_, k, _)| *k)
            .collect();
        assert_eq!(got, vec![12, 14]);
        // Empty range.
        assert_eq!(t.range(Bound::Included(&11), Bound::Excluded(&12)).count(), 0);
    }

    #[test]
    fn range_reports_leaf_transitions() {
        let mut t = BPlusTree::new(4);
        for i in 0..200i64 {
            t.insert(i, ());
        }
        let mut leaves: Vec<NodeId> = t.iter().map(|(l, _, _)| l).collect();
        leaves.dedup();
        // With order 4, 200 entries span many leaves.
        assert!(leaves.len() > 30, "distinct leaves: {}", leaves.len());
    }

    #[test]
    fn remove_simple_and_missing() {
        let mut t = BPlusTree::new(4);
        for i in 0..50i64 {
            t.insert(i, i);
        }
        assert_eq!(t.remove(&25), Some(25));
        assert_eq!(t.remove(&25), None);
        assert_eq!(t.len(), 49);
        assert_eq!(t.get(&25), None);
        t.check_invariants();
    }

    #[test]
    fn remove_everything_collapses_tree() {
        let mut t = BPlusTree::new(4);
        for i in 0..300i64 {
            t.insert(i, i);
        }
        for i in 0..300i64 {
            assert_eq!(t.remove(&i), Some(i), "remove {i}");
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 1, "root collapsed back to a leaf");
        assert_eq!(t.node_count(), 1);
        t.check_invariants();
        // Tree is reusable after total deletion.
        t.insert(7, 7);
        assert_eq!(t.get(&7), Some(&7));
    }

    #[test]
    fn remove_interleaved_with_inserts_matches_model() {
        let mut t = BPlusTree::new(4);
        let mut model = BTreeMap::new();
        // Deterministic pseudo-random ops.
        let mut x: u64 = 0x2545F4914F6CDD1D;
        for step in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 500) as i64;
            if step % 3 == 0 {
                assert_eq!(t.remove(&key), model.remove(&key), "step {step}");
            } else {
                assert_eq!(t.insert(key, step), model.insert(key, step), "step {step}");
            }
        }
        t.check_invariants();
        let tree_pairs: Vec<(i64, u64)> = t.iter().map(|(_, k, v)| (*k, *v)).collect();
        let model_pairs: Vec<(i64, u64)> = model.into_iter().collect();
        assert_eq!(tree_pairs, model_pairs);
    }

    #[test]
    fn leaf_chain_survives_deletions() {
        let mut t = BPlusTree::new(3);
        for i in 0..100i64 {
            t.insert(i, ());
        }
        // Delete a whole middle band, forcing leaf reclamation.
        for i in 20..80i64 {
            t.remove(&i);
        }
        let keys: Vec<i64> = t.iter().map(|(_, k, _)| *k).collect();
        let expected: Vec<i64> = (0..20).chain(80..100).collect();
        assert_eq!(keys, expected);
        t.check_invariants();
    }

    #[test]
    fn string_keys_work() {
        let mut t: BPlusTree<String, u32> = BPlusTree::new(4);
        for (i, city) in ["boston", "springfield", "manchester", "toledo", "jackson"]
            .iter()
            .enumerate()
        {
            t.insert(city.to_string(), i as u32);
        }
        assert_eq!(t.get("boston"), Some(&0));
        assert_eq!(t.get("nowhere"), None);
        let ordered: Vec<&String> = t.iter().map(|(_, k, _)| k).collect();
        assert_eq!(
            ordered,
            ["boston", "jackson", "manchester", "springfield", "toledo"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "order must be at least 3")]
    fn tiny_order_rejected() {
        let _: BPlusTree<i64, ()> = BPlusTree::new(2);
    }

    #[test]
    fn node_reuse_after_free() {
        let mut t = BPlusTree::new(3);
        for i in 0..200i64 {
            t.insert(i, ());
        }
        let peak = t.node_count();
        for i in 0..200i64 {
            t.remove(&i);
        }
        for i in 0..200i64 {
            t.insert(i, ());
        }
        assert!(
            t.node_count() <= peak + 1,
            "arena reuses freed nodes: {} vs peak {}",
            t.node_count(),
            peak
        );
    }
}
