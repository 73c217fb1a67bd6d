//! The nearest-replica directory.
//!
//! ICN-NR serves every request from the cheapest replica anywhere in the
//! network at zero lookup cost (§3); [`ReplicaDir`] is how the simulator
//! models that ideal. It records, per object, the cache-equipped routers
//! holding a copy and answers two queries from a requesting leaf: the
//! `(cost, NodeId)`-minimal replica ([`ReplicaDir::nearest`]) and the full
//! costed candidate set ([`ReplicaDir::candidates`]) for selections that
//! may probe past the minimum (capacity limits, faults).
//!
//! Two storage layouts sit behind the one type, and tree size alone picks
//! between them:
//!
//! * **Rank-ordered masks** (at most [`MAX_MASK_TREE`] nodes per PoP). A
//!   popular object ends up cached on thousands of routers, and a plain
//!   list makes every selection an O(replicas) scan. The masks store the
//!   same set as one `(pop, u128)` pair per PoP that holds the object,
//!   with presence bits indexed by the *climb rank* of the replica's tree
//!   index (see [`CostTable::rank_of`]). Within any foreign PoP candidate
//!   cost is `climb_root[t]` plus a PoP-wide constant, so ascending rank
//!   is exactly ascending `(cost, NodeId)` — the best replica a foreign
//!   PoP can offer is `mask.trailing_zeros()`, one instruction instead of
//!   a scan. Only the requester's own PoP still needs per-candidate cost
//!   lookups, because same-PoP costs go through the LCA and are not
//!   monotone in climb rank. Groups are kept sorted by PoP index and
//!   dropped when their mask empties, so the storage is canonical.
//! * **Lists** (larger trees): one `Vec<NodeId>` per object in arbitrary
//!   order. Removal is `swap_remove`, so the order carries history; every
//!   query breaks cost ties by `NodeId`, which makes the answer depend on
//!   the list only as a set.
//!
//! Both layouts answer every query bit-identically: each cost is the same
//! [`CostFrom`] expression, and the minimum is taken under the same total
//! `(cost, NodeId)` order.

use crate::costs::{CostFrom, CostTable};
use icn_topology::NodeId;

/// Largest tree (nodes per PoP) the mask layout can index; bigger trees
/// use the list layout.
pub const MAX_MASK_TREE: u32 = 128;

/// Per-object replica sets. See the module docs.
pub struct ReplicaDir {
    layout: Layout,
}

enum Layout {
    /// `groups[o]` = `(pop, mask)` pairs sorted by `pop`, empty masks
    /// removed. Bit `r` of a mask marks the replica whose tree index has
    /// climb rank `r`.
    Masks(Vec<Vec<(u32, u128)>>),
    /// `lists[o]` = routers holding `o`, in arbitrary order.
    Lists(Vec<Vec<NodeId>>),
}

impl ReplicaDir {
    /// An empty directory over `objects` object ids, laid out for the
    /// tree shape `costs` was built on.
    pub fn new(objects: usize, costs: &CostTable) -> Self {
        let layout = if costs.tree_nodes() <= MAX_MASK_TREE {
            Layout::Masks(vec![Vec::new(); objects])
        } else {
            Layout::Lists(vec![Vec::new(); objects])
        };
        Self { layout }
    }

    /// Records a replica of `object` at `node`. The caller inserts each
    /// `(object, node)` pair at most once while it is present.
    pub fn insert(&mut self, object: u32, node: NodeId, costs: &CostTable) {
        match &mut self.layout {
            Layout::Masks(groups) => {
                let (pop, bit) = mask_bit(node, costs);
                let groups = &mut groups[object as usize];
                match groups.binary_search_by_key(&pop, |&(p, _)| p) {
                    Ok(i) => groups[i].1 |= bit,
                    Err(i) => groups.insert(i, (pop, bit)),
                }
            }
            Layout::Lists(lists) => lists[object as usize].push(node),
        }
    }

    /// Forgets the replica of `object` at `node`; a no-op when absent.
    pub fn remove(&mut self, object: u32, node: NodeId, costs: &CostTable) {
        match &mut self.layout {
            Layout::Masks(groups) => {
                let (pop, bit) = mask_bit(node, costs);
                clear_bit(&mut groups[object as usize], pop, bit);
            }
            Layout::Lists(lists) => remove_from(&mut lists[object as usize], node),
        }
    }

    /// Forgets every replica at `node` (a crash flush).
    pub fn remove_node(&mut self, node: NodeId, costs: &CostTable) {
        match &mut self.layout {
            Layout::Masks(groups) => {
                let (pop, bit) = mask_bit(node, costs);
                for g in groups {
                    clear_bit(g, pop, bit);
                }
            }
            Layout::Lists(lists) => {
                for list in lists {
                    remove_from(list, node);
                }
            }
        }
    }

    /// The `(cost, NodeId)`-minimal replica of `object` seen from the
    /// source pinned in `from`, excluding the source itself; `None` when
    /// no other router holds it.
    pub fn nearest(&self, object: u32, from: &CostFrom) -> Option<(f64, NodeId)> {
        let mut best = None;
        match &self.layout {
            Layout::Masks(groups) => {
                // One candidate per foreign PoP (its first set bit is that
                // PoP's minimal replica); the source's own PoP walks its
                // mask with an early exit, see `min_in_own_mask`.
                let t = from.table();
                for &(p, mask) in &groups[object as usize] {
                    if p == from.pop() {
                        min_in_own_mask(from, mask, &mut best);
                    } else {
                        let r = mask.trailing_zeros();
                        let n = p * t.tree_nodes() + t.t_of_rank(r);
                        fold_min(&mut best, from.to_pop_rank(p, r), n);
                    }
                }
            }
            Layout::Lists(lists) => {
                let source = from.node();
                for &n in &lists[object as usize] {
                    if n != source {
                        fold_min(&mut best, from.to(n), n);
                    }
                }
            }
        }
        best
    }

    /// Appends every replica of `object` other than the source pinned in
    /// `from` whose cost is below `max_cost` to the parallel
    /// `costs_out`/`nodes_out` arrays, in unspecified order. The
    /// capacity-limited and faulted selections probe these in
    /// `(cost, NodeId)` order.
    pub fn candidates(
        &self,
        object: u32,
        from: &CostFrom,
        max_cost: f64,
        costs_out: &mut Vec<f64>,
        nodes_out: &mut Vec<NodeId>,
    ) {
        match &self.layout {
            Layout::Masks(groups) => {
                let t = from.table();
                let tn = t.tree_nodes();
                for &(p, mask) in &groups[object as usize] {
                    let mut bits = mask;
                    while bits != 0 {
                        let r = bits.trailing_zeros();
                        bits &= bits - 1;
                        let tb = t.t_of_rank(r);
                        let c = if p == from.pop() {
                            if tb == from.tree() {
                                continue; // the source itself
                            }
                            from.to_tree(tb)
                        } else {
                            from.to_pop_rank(p, r)
                        };
                        if c < max_cost {
                            costs_out.push(c);
                            nodes_out.push(p * tn + tb);
                        }
                    }
                }
            }
            Layout::Lists(lists) => {
                let source = from.node();
                for &n in &lists[object as usize] {
                    if n == source {
                        continue;
                    }
                    let c = from.to(n);
                    if c < max_cost {
                        costs_out.push(c);
                        nodes_out.push(n);
                    }
                }
            }
        }
    }

    /// The routers holding `object`, ascending.
    pub fn replicas(&self, object: u32, costs: &CostTable) -> Vec<NodeId> {
        let mut nodes = match &self.layout {
            Layout::Masks(groups) => {
                let mut out = Vec::new();
                for &(p, mask) in &groups[object as usize] {
                    let mut bits = mask;
                    while bits != 0 {
                        let r = bits.trailing_zeros();
                        bits &= bits - 1;
                        out.push(p * costs.tree_nodes() + costs.t_of_rank(r));
                    }
                }
                out
            }
            Layout::Lists(lists) => lists[object as usize].clone(),
        };
        nodes.sort_unstable();
        nodes
    }

    /// The list layout's per-object storage, for tests that permute it;
    /// `None` under the mask layout.
    #[cfg(test)]
    pub(crate) fn lists_mut(&mut self) -> Option<&mut [Vec<NodeId>]> {
        match &mut self.layout {
            Layout::Masks(_) => None,
            Layout::Lists(lists) => Some(lists),
        }
    }
}

/// PoP index and presence bit of `node` in the mask layout.
#[inline]
fn mask_bit(node: NodeId, costs: &CostTable) -> (u32, u128) {
    let at = costs.from(node);
    let rank = costs.rank_of(at.tree());
    debug_assert!(rank < MAX_MASK_TREE);
    (at.pop(), 1u128 << rank)
}

/// Clears `bit` in the group of `pop`, dropping the group once empty.
#[inline]
fn clear_bit(groups: &mut Vec<(u32, u128)>, pop: u32, bit: u128) {
    if let Ok(i) = groups.binary_search_by_key(&pop, |&(p, _)| p) {
        groups[i].1 &= !bit;
        if groups[i].1 == 0 {
            groups.remove(i);
        }
    }
}

#[inline]
fn remove_from(list: &mut Vec<NodeId>, node: NodeId) {
    if let Some(pos) = list.iter().position(|&n| n == node) {
        list.swap_remove(pos);
    }
}

/// Folds candidate `(c, n)` into the running `(cost, NodeId)` minimum.
#[inline]
fn fold_min(best: &mut Option<(f64, NodeId)>, c: f64, n: NodeId) {
    if best.is_none_or(|(bc, bn)| c < bc || (c == bc && n < bn)) {
        *best = Some((c, n));
    }
}

/// Folds the same-PoP candidates of `mask` — presence bits indexed by
/// climb rank, for the *source's own* PoP — into `best` under the
/// `(cost, NodeId)` order, skipping the source itself.
///
/// Own-PoP costs go through the LCA and are not monotone in rank, so
/// this walk cannot take one `trailing_zeros` representative the way
/// foreign PoPs do — but it can stop early. For any same-PoP target
/// `t` with LCA `L`:
///
/// ```text
/// cost(a, t) = (climb(a) − climb(L)) + (climb(t) − climb(L))
///            ≥  climb(a) − climb(t)        (L is an ancestor of t)
/// ```
///
/// Walking ranks *descending* (deepest replica first) makes that
/// lower bound non-decreasing, so once it strictly exceeds the
/// running best cost no remaining candidate can win — not even on
/// the `NodeId` tie-break — and the scan stops. Climb values are
/// integer-valued `f64`s, so the bound arithmetic is exact. The fold
/// is a pure minimum under a total order; the result is bit-identical
/// to the exhaustive walk it replaces.
#[inline]
fn min_in_own_mask(from: &CostFrom, mask: u128, best: &mut Option<(f64, NodeId)>) {
    let t = from.table();
    let climb_a = t.climb_of_rank(t.rank_of(from.tree()));
    let base = from.pop() * t.tree_nodes();
    let mut bits = mask;
    while bits != 0 {
        let r = 127 - bits.leading_zeros();
        bits &= !(1u128 << r);
        if let Some((bc, _)) = *best {
            if climb_a - t.climb_of_rank(r) > bc {
                break;
            }
        }
        let tb = t.t_of_rank(r);
        if tb != from.tree() {
            fold_min(best, from.to_tree(tb), base + tb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use icn_topology::{pop, AccessTree, Network};

    fn masks(d: &ReplicaDir, object: u32) -> &[(u32, u128)] {
        match &d.layout {
            Layout::Masks(groups) => &groups[object as usize],
            Layout::Lists(_) => panic!("expected the mask layout"),
        }
    }

    /// Abilene with a binary tree of depth 3: 15 nodes per PoP, so the
    /// mask layout; `node(p, t)` picks tree index `t` of PoP `p`.
    fn small() -> (Network, CostTable) {
        let net = Network::new(pop::abilene(), AccessTree::new(2, 3));
        let costs = CostTable::new(&net, LatencyModel::Unit);
        (net, costs)
    }

    #[test]
    fn tree_size_alone_picks_the_layout() {
        let (_, costs) = small();
        assert!(ReplicaDir::new(1, &costs).lists_mut().is_none());
        let big = Network::new(pop::abilene(), AccessTree::new(2, 7));
        let costs = CostTable::new(&big, LatencyModel::Unit);
        assert!(ReplicaDir::new(1, &costs).lists_mut().is_some());
    }

    #[test]
    fn insert_keeps_groups_sorted_by_pop() {
        let (net, costs) = small();
        let mut d = ReplicaDir::new(2, &costs);
        let (a, b, c) = (net.node(5, 3), net.node(1, 7), net.node(5, 0));
        for n in [a, b, c] {
            d.insert(0, n, &costs);
        }
        let pops: Vec<u32> = masks(&d, 0).iter().map(|&(p, _)| p).collect();
        assert_eq!(pops, vec![1, 5]);
        assert_eq!(masks(&d, 0)[1].1.count_ones(), 2);
        let mut want = vec![a, b, c];
        want.sort_unstable();
        assert_eq!(d.replicas(0, &costs), want);
        assert!(d.replicas(1, &costs).is_empty());
        // Another interleaving of the same set produces identical storage.
        let mut e = ReplicaDir::new(2, &costs);
        for n in [c, a, b] {
            e.insert(0, n, &costs);
        }
        assert_eq!(masks(&d, 0), masks(&e, 0));
    }

    #[test]
    fn remove_clears_bits_and_drops_empty_groups() {
        let (net, costs) = small();
        let mut d = ReplicaDir::new(1, &costs);
        let (a, b, c) = (net.node(2, 1), net.node(2, 4), net.node(9, 14));
        for n in [a, b, c] {
            d.insert(0, n, &costs);
        }
        d.remove(0, a, &costs);
        assert_eq!(masks(&d, 0).len(), 2);
        d.remove(0, b, &costs);
        assert_eq!(masks(&d, 0).len(), 1);
        // Absent removals are no-ops.
        d.remove(0, b, &costs);
        d.remove(0, net.node(3, 0), &costs);
        assert_eq!(d.replicas(0, &costs), vec![c]);
        d.remove(0, c, &costs);
        assert!(masks(&d, 0).is_empty());
    }

    #[test]
    fn both_layouts_agree_on_every_query() {
        // The same edit script on a mask directory and on a list
        // directory (forced over the same tree) must answer `nearest`,
        // `candidates` and `replicas` identically from every source.
        let (net, costs) = small();
        let mut m = ReplicaDir::new(3, &costs);
        let mut l = ReplicaDir {
            layout: Layout::Lists(vec![Vec::new(); 3]),
        };
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..600u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let object = (state >> 40) as u32 % 3;
            let node = (state >> 8) as u32 % net.node_count();
            let holds = m.replicas(object, &costs).contains(&node);
            match (step % 97 == 0, holds) {
                (true, _) => {
                    m.remove_node(node, &costs);
                    l.remove_node(node, &costs);
                }
                (false, false) => {
                    m.insert(object, node, &costs);
                    l.insert(object, node, &costs);
                }
                (false, true) => {
                    m.remove(object, node, &costs);
                    l.remove(object, node, &costs);
                }
            }
            let src = (state >> 20) as u32 % net.node_count();
            let from = costs.from(src);
            for o in 0..3 {
                assert_eq!(m.replicas(o, &costs), l.replicas(o, &costs));
                let key = |b: Option<(f64, NodeId)>| b.map(|(c, n)| (c.to_bits(), n));
                assert_eq!(key(m.nearest(o, &from)), key(l.nearest(o, &from)));
                let (mut mc, mut mn, mut lc, mut ln) = (vec![], vec![], vec![], vec![]);
                m.candidates(o, &from, 5.0, &mut mc, &mut mn);
                l.candidates(o, &from, 5.0, &mut lc, &mut ln);
                let sorted = |c: Vec<f64>, n: Vec<NodeId>| {
                    let mut v: Vec<(u64, NodeId)> = c.iter().map(|c| c.to_bits()).zip(n).collect();
                    v.sort_unstable();
                    v
                };
                assert_eq!(sorted(mc, mn), sorted(lc, ln));
            }
        }
    }

    #[test]
    fn min_in_own_mask_matches_exhaustive_scan() {
        let net = Network::new(pop::abilene(), AccessTree::new(2, 3));
        let tn = net.tree.nodes();
        for model in [
            LatencyModel::Unit,
            LatencyModel::Progression,
            LatencyModel::CoreMultiplier { d: 1 },
            LatencyModel::CoreMultiplier { d: 7 },
        ] {
            let table = CostTable::new(&net, model);
            // Deterministic LCG over dense, sparse, and single-bit masks.
            let mut state = 0x2545_f491_4f6c_dd1du64;
            let mut masks: Vec<u128> = vec![0, 1, (1u128 << tn) - 1];
            for _ in 0..200 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lo = state as u128;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let hi = (state as u128) << 64;
                masks.push((hi | lo) & ((1u128 << tn) - 1));
                masks.push(1u128 << (state % tn as u64));
            }
            for src_t in 0..tn {
                let src = net.node(2, src_t);
                let from = table.from(src);
                for &mask in &masks {
                    let mut got: Option<(f64, NodeId)> = None;
                    min_in_own_mask(&from, mask, &mut got);
                    // Reference: ascending full walk, same tie-break.
                    let mut want: Option<(f64, NodeId)> = None;
                    let mut bits = mask;
                    while bits != 0 {
                        let r = bits.trailing_zeros();
                        bits &= bits - 1;
                        let t = table.t_of_rank(r);
                        if t == src_t {
                            continue;
                        }
                        let c = from.to_tree(t);
                        let n = 2 * tn + t;
                        if want.is_none_or(|(bc, bn)| c < bc || (c == bc && n < bn)) {
                            want = Some((c, n));
                        }
                    }
                    let key = |o: Option<(f64, NodeId)>| o.map(|(c, n)| (c.to_bits(), n));
                    assert_eq!(key(got), key(want), "{model:?}: mask {mask:#x}");
                    // Folding into a pre-seeded best must behave like a
                    // running minimum, too.
                    let seed = Some((1.0, 0));
                    let mut got2 = seed;
                    min_in_own_mask(&from, mask, &mut got2);
                    let want2 = match (seed, want) {
                        (Some((sc, sn)), Some((wc, wn))) if wc < sc || (wc == sc && wn < sn) => {
                            want
                        }
                        _ => seed,
                    };
                    assert_eq!(key(got2), key(want2), "{model:?}: seeded mask {mask:#x}");
                }
            }
        }
    }
}
