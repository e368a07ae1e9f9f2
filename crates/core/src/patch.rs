//! Provenance-annotated fragment trees and in-place result patching —
//! the third maintenance fate between "retain" and "recompute".
//!
//! A materialized view result is a function of the base document: every
//! result subtree was produced by `topDown`'s recursion over exactly one
//! base subtree, carrying a selecting-NFA state set into it. A
//! [`FragmentTree`] records that provenance — which base node (`src`)
//! produced which result nodes (`dst`), and the automaton states that
//! were live *before* consuming the base node's label — for a spine of
//! large subtrees, leaving small subtrees as opaque leaves.
//!
//! Every base subtree larger than `leaf_limit` is split into one child
//! fragment per base child, whether the automaton is still live there
//! or `topDown` pruned it (Fig. 3, lines 2–3): a pruned fragment keeps
//! an empty state set, and re-evaluating it is a verbatim copy. The
//! only other bound is a per-tree fragment budget (`frag_budget`),
//! so a wide node splits whenever the whole map stays small next to
//! the result tree it describes.
//!
//! When a later update touches the base document, the write path can
//! **localize** the update's target set against the provenance map
//! ([`FragmentTree::localize`]): walk each target's ancestor-or-self
//! chain to the deepest recorded fragment, re-run the view *only under
//! those base subtrees* with the stored state sets
//! ([`FragmentTree::patch`]), and splice the freshly produced result
//! nodes over the stale ones. Everything outside the chosen fragments is
//! untouched — including its memoized serialization bytes, so a patched
//! result re-serializes only the changed fragments
//! ([`FragmentTree::assemble`]).
//!
//! Soundness of splicing only under the chosen fragments rests on two
//! observations, both enforced by the caller (`xust-serve`):
//!
//! * the automaton state reached at a node depends only on the labels
//!   and qualifier verdicts along its root path. An update changes
//!   labels only inside the chosen fragments, so stored state sets at
//!   surviving fragments remain valid;
//! * qualifier *truth* can flip only at ancestors-or-self of the
//!   update's targets (string values propagate upward). Every such
//!   ancestor's label is in the update's guard set, so the caller
//!   requires `guard ∩ view qualifier-anchor alphabet = ∅` (see
//!   [`crate::delta::qualifier_anchor_alphabet_into`]) before patching.
//!
//! Construction is conservative: any shape the alignment model does not
//! cover exactly (selected root, ε path, consumption mismatch) gets an
//! [opaque](FragmentTree::opaque) tree, whose entry is retained or
//! recomputed, never patched. Differential fuzzers in
//! `tests/update_maintenance.rs` hold patched entries byte-identical to
//! full recompute.

use std::collections::{HashMap, HashSet};

use xust_automata::{SelectingNfa, StateSet};
use xust_tree::{Document, NodeId, NodeKind};
use xust_xpath::eval_qualifier;

use crate::query::{TransformQuery, UpdateOp};
use crate::topdown::rec_into_tree;

/// The most fragments one tree may hold over a base document of
/// `live_nodes` nodes: one per 8 nodes, so the map (fragments plus
/// their index entries) stays smaller than the result tree's 32-byte
/// node records, but never fewer than 1024, so small documents keep
/// full leaf-level granularity. A subtree whose children would push
/// the tree past its budget stays an opaque leaf.
fn frag_budget(live_nodes: usize) -> usize {
    (live_nodes / 8).max(1024)
}

/// One provenance fragment: the base subtree at `src` produced the
/// result nodes `dst` (0, 1, or 2 of them — a deleted subtree produces
/// none, a selected sibling-insert produces two).
#[derive(Debug, Clone)]
struct Fragment {
    /// Base-document node whose recursion produced this fragment
    /// (`None` only for the root over an empty base).
    src: Option<NodeId>,
    /// Result-document nodes it produced, in sibling order.
    dst: Vec<NodeId>,
    /// Selecting-NFA states live *before* consuming `src`'s label — the
    /// set `topDown` passed into `rec(src, s)`. Re-evaluation resumes
    /// from exactly here (the root is never re-evaluated).
    states: StateSet,
    /// Child fragments (interior fragments only), in base child order.
    children: Vec<usize>,
    /// Parent fragment (`None` for the root fragment).
    parent: Option<usize>,
    /// Memoized serialization of `dst` (leaves only; invalidated by
    /// patches and collapses touching this fragment).
    bytes: Option<String>,
    /// Base-subtree node count at recording time (patch-vs-recompute
    /// threshold input).
    size: u32,
    /// True when `children` exhaustively tile `dst[0]`'s children.
    interior: bool,
}

/// Outcome of localizing update-site chains against the provenance map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Localized {
    /// The disjoint set of deepest covering fragments (indices).
    Fragments(Vec<usize>),
    /// A chain resolved to the root fragment: the affected span is the
    /// whole result — fall back to recompute.
    Root,
}

/// What [`FragmentTree::patch`] did.
#[derive(Debug, Clone, Default)]
pub struct PatchOutcome {
    /// Base nodes the view's update selected inside the re-evaluated
    /// regions (post-apply ids) — for folding into the entry's
    /// touched-label footprint.
    pub targets: Vec<NodeId>,
    /// Number of fragments spliced.
    pub fragments: usize,
}

struct Misaligned;

/// See the module docs.
pub struct FragmentTree {
    /// Slot map of fragments; slot 0 is always the root fragment.
    frags: Vec<Option<Fragment>>,
    free: Vec<usize>,
    /// `base node → fragment` for every fragment root (unique per live
    /// fragment). Localization and base-side collapse repair walk this.
    src_index: HashMap<NodeId, usize>,
    /// `result node → fragment` for every produced dst root. Result-side
    /// collapse repair (retained delta replays mutate the cached result
    /// tree) walks this.
    dst_index: HashMap<NodeId, usize>,
    /// Base subtrees of at most this many nodes stay opaque leaves.
    leaf_limit: usize,
    /// Ceiling on live fragments (`frag_budget` of the base document at
    /// build time).
    budget: usize,
    /// Byte length of the last [`FragmentTree::assemble`] output: the
    /// next one reserves that much, plus an eighth for writes that grow
    /// the result, so a multi-megabyte body is never regrown by
    /// doubling.
    assembled_len: usize,
}

impl FragmentTree {
    /// Records the provenance of `result = q(base)` as a fragment tree,
    /// descending only into base subtrees larger than `leaf_limit`
    /// while the tree stays within its fragment budget.
    /// `nfa` must be the selecting NFA compiled from `q.path`. Shapes
    /// the alignment model does not cover (ε path, selected root under
    /// a non-rename op, unmatched or empty results, alignment mismatch)
    /// get an [opaque](FragmentTree::opaque) tree.
    pub fn build(
        base: &Document,
        result: &Document,
        q: &TransformQuery,
        nfa: &SelectingNfa,
        leaf_limit: usize,
    ) -> FragmentTree {
        let mut t = FragmentTree::opaque(base, result);
        t.leaf_limit = leaf_limit.max(1);
        t.budget = frag_budget(base.arena_len() - base.free_slots());
        let (Some(broot), Some(_)) = (base.root(), result.root()) else {
            return t;
        };
        let Some(root_label) = base.name_sym(broot) else {
            return t;
        };
        let s_after = nfa.next_states(&nfa.initial(), root_label, |_, qual| {
            eval_qualifier(base, broot, qual)
        });
        // An ε path's root op is special-cased upstream. An automaton
        // dead at the root copies the document wholesale: one giant leaf
        // is all there is. A selected root shifts child alignment (or
        // empties the document) unless it is only renamed.
        let selected = s_after.contains(nfa.final_state);
        if q.path.is_empty()
            || s_after.is_empty()
            || (selected && !matches!(q.op, UpdateOp::Rename { .. }))
            || base.children(broot).count() >= t.budget
        {
            return t;
        }
        let sizes = subtree_sizes(base);
        t.split(base, result, q, nfa, &|n| sizes[n.index()], 0, &s_after);
        t
    }

    /// A tree with no provenance below its root: one root leaf that
    /// serializes the whole of `result = q(base)`. Every site localizes
    /// to the root, so an entry holding it is retained or recomputed,
    /// never patched.
    pub fn opaque(base: &Document, result: &Document) -> FragmentTree {
        let mut t = FragmentTree {
            frags: Vec::new(),
            free: Vec::new(),
            src_index: HashMap::new(),
            dst_index: HashMap::new(),
            leaf_limit: 1,
            budget: 1,
            assembled_len: 0,
        };
        t.alloc(Fragment {
            src: base.root(),
            dst: result.root().into_iter().collect(),
            states: StateSet::new(0),
            children: Vec::new(),
            parent: None,
            bytes: None,
            size: 0,
            interior: false,
        });
        t
    }

    fn frag(&self, i: usize) -> &Fragment {
        self.frags[i].as_ref().expect("live fragment")
    }

    fn frag_mut(&mut self, i: usize) -> &mut Fragment {
        self.frags[i].as_mut().expect("live fragment")
    }

    /// Live fragments right now (root included).
    pub fn fragment_count(&self) -> usize {
        self.frags.len() - self.free.len()
    }

    /// Whether the base element `c`, which produced `produced` result
    /// nodes, gets child fragments: it must map to exactly one result
    /// node whose children mirror its own (not selected, or selected
    /// only to be renamed), be larger than a leaf, and fit its children
    /// in the budget. A pruned subtree (empty state set) qualifies like
    /// any other — its fragments just copy through on re-evaluation.
    fn descend(
        &self,
        base: &Document,
        c: NodeId,
        produced: usize,
        selected: bool,
        op: &UpdateOp,
        size: u32,
    ) -> bool {
        produced == 1
            && (!selected || matches!(op, UpdateOp::Rename { .. }))
            && size as usize > self.leaf_limit
            && self.fragment_count() + base.children(c).count() <= self.budget
    }

    fn alloc(&mut self, f: Fragment) -> usize {
        let i = match self.free.pop() {
            Some(i) => {
                self.frags[i] = Some(f);
                i
            }
            None => {
                self.frags.push(Some(f));
                self.frags.len() - 1
            }
        };
        let (src, dsts) = {
            let f = self.frag(i);
            (f.src, f.dst.clone())
        };
        if let Some(src) = src {
            self.src_index.insert(src, i);
        }
        for d in dsts {
            self.dst_index.insert(d, i);
        }
        i
    }

    /// Frees one fragment slot, dropping its index entries. The caller
    /// owns the parent's `children` bookkeeping.
    fn release(&mut self, i: usize) {
        let Some(f) = self.frags[i].take() else {
            return;
        };
        if let Some(src) = f.src {
            self.src_index.remove(&src);
        }
        for d in &f.dst {
            self.dst_index.remove(d);
        }
        self.free.push(i);
    }

    /// Frees the whole fragment subtree under `i` (including `i`).
    fn release_subtree(&mut self, i: usize) {
        let children = match &self.frags[i] {
            Some(f) => f.children.clone(),
            None => return,
        };
        for c in children {
            self.release_subtree(c);
        }
        self.release(i);
    }

    /// Frees every descendant fragment of `i`, leaving `i` itself as an
    /// opaque leaf.
    fn free_children(&mut self, i: usize) {
        let children = std::mem::take(&mut self.frag_mut(i).children);
        for c in children {
            self.release_subtree(c);
        }
        let f = self.frag_mut(i);
        f.interior = false;
        f.bytes = None;
    }

    /// Gives fragment `fi` one child fragment per base child (see
    /// `align_children`), or leaves it an opaque leaf when the fragment
    /// model does not reproduce the result's shape below it.
    #[allow(clippy::too_many_arguments)]
    fn split(
        &mut self,
        base: &Document,
        result: &Document,
        q: &TransformQuery,
        nfa: &SelectingNfa,
        sizes: &dyn Fn(NodeId) -> u32,
        fi: usize,
        s_after: &StateSet,
    ) {
        let mut created = Vec::new();
        if self
            .align_children(base, result, q, nfa, sizes, fi, s_after, &mut created)
            .is_err()
        {
            for &ci in created.iter().rev() {
                self.release(ci);
            }
        }
    }

    /// Lockstep alignment of the base children of fragment `fi`'s `src`
    /// with the result children of its single `dst`, creating one child
    /// fragment per base child and recursing into eligible subtrees.
    /// `s_after` is the state set *after* consuming `src`'s label (what
    /// `topDown` passed to every child). On `Err` [`FragmentTree::split`]
    /// rolls back via `created`.
    #[allow(clippy::too_many_arguments)]
    fn align_children(
        &mut self,
        base: &Document,
        result: &Document,
        q: &TransformQuery,
        nfa: &SelectingNfa,
        sizes: &dyn Fn(NodeId) -> u32,
        fi: usize,
        s_after: &StateSet,
        created: &mut Vec<usize>,
    ) -> Result<(), Misaligned> {
        let src = self.frag(fi).src.expect("aligned fragments have a source");
        let m = self.frag(fi).dst[0];
        let mut rchild = result.first_child(m);
        let bchildren: Vec<NodeId> = base.children(src).collect();
        let mut kids: Vec<usize> = Vec::with_capacity(bchildren.len());
        for c in bchildren {
            match base.kind(c) {
                NodeKind::Text(_) => {
                    // Text copies through: consumes exactly one result
                    // child, which must itself be text.
                    let rc = rchild.ok_or(Misaligned)?;
                    if !result.is_text(rc) {
                        return Err(Misaligned);
                    }
                    rchild = result.next_sibling(rc);
                    let ci = self.alloc(Fragment {
                        src: Some(c),
                        dst: vec![rc],
                        states: s_after.clone(),
                        children: Vec::new(),
                        parent: Some(fi),
                        bytes: None,
                        size: 1,
                        interior: false,
                    });
                    created.push(ci);
                    kids.push(ci);
                }
                NodeKind::Element { name: label, .. } => {
                    let s_c =
                        nfa.next_states(s_after, label, |_, qual| eval_qualifier(base, c, qual));
                    let (count, selected) = produced_count(&s_c, nfa, &q.op);
                    let mut dsts = Vec::with_capacity(count);
                    for _ in 0..count {
                        let rc = rchild.ok_or(Misaligned)?;
                        dsts.push(rc);
                        rchild = result.next_sibling(rc);
                    }
                    let ci = self.alloc(Fragment {
                        src: Some(c),
                        dst: dsts,
                        states: s_after.clone(),
                        children: Vec::new(),
                        parent: Some(fi),
                        bytes: None,
                        size: sizes(c),
                        interior: false,
                    });
                    created.push(ci);
                    kids.push(ci);
                    if self.descend(base, c, count, selected, &q.op, sizes(c)) {
                        self.align_children(base, result, q, nfa, sizes, ci, &s_c, created)?;
                    }
                }
            }
        }
        if rchild.is_some() {
            return Err(Misaligned); // result has children the model did not predict
        }
        let f = self.frag_mut(fi);
        f.children = kids;
        f.interior = true;
        Ok(())
    }

    /// Resolves each update-site chain (deepest-first ancestor-or-self
    /// base node ids) to its deepest covering fragment, deduplicated and
    /// reduced to a disjoint set (a fragment covered by another chosen
    /// fragment is dropped).
    pub fn localize(&self, chains: &[Vec<NodeId>]) -> Localized {
        let mut chosen: Vec<usize> = Vec::new();
        for chain in chains {
            let Some(f) = chain.iter().find_map(|n| self.src_index.get(n).copied()) else {
                return Localized::Root; // unmapped chain: treat as whole-tree
            };
            if f == 0 {
                return Localized::Root;
            }
            if !chosen.contains(&f) {
                chosen.push(f);
            }
        }
        let set: HashSet<usize> = chosen.iter().copied().collect();
        chosen.retain(|&f| {
            let mut p = self.frag(f).parent;
            while let Some(pp) = p {
                if set.contains(&pp) {
                    return false;
                }
                p = self.frag(pp).parent;
            }
            true
        });
        Localized::Fragments(chosen)
    }

    /// Total recorded base-subtree size of the chosen fragments — the
    /// affected-span estimate the patch-vs-recompute threshold compares
    /// against the document size.
    pub fn cost(&self, chosen: &[usize]) -> u64 {
        chosen.iter().map(|&f| self.frag(f).size as u64).sum()
    }

    /// Re-evaluates the view under each chosen fragment against the
    /// post-update `base` and splices the produced result nodes into
    /// `out` (the cached result document) over the stale ones. `chosen`
    /// must come from [`FragmentTree::localize`] on this tree. `q`/`nfa`
    /// are the view's transform and its selecting NFA.
    pub fn patch(
        &mut self,
        base: &Document,
        out: &mut Document,
        q: &TransformQuery,
        nfa: &SelectingNfa,
        chosen: &[usize],
    ) -> PatchOutcome {
        let mut outcome = PatchOutcome {
            targets: Vec::new(),
            fragments: chosen.len(),
        };
        for &fi in chosen {
            self.patch_one(base, out, q, nfa, fi, &mut outcome.targets);
        }
        outcome
    }

    fn patch_one(
        &mut self,
        base: &Document,
        out: &mut Document,
        q: &TransformQuery,
        nfa: &SelectingNfa,
        fi: usize,
        targets: &mut Vec<NodeId>,
    ) {
        self.free_children(fi);
        let (src, states, parent, old_dsts) = {
            let f = self.frag(fi);
            (
                f.src.expect("patched fragments have a source"),
                f.states.clone(),
                f.parent.expect("root is never patched"),
                f.dst.clone(),
            )
        };
        for d in &old_dsts {
            self.dst_index.remove(d);
        }
        // Splice anchor, resolved before the result tree changes: in
        // front of the stale nodes when there are any, else in front of
        // the next sibling fragment that still has live output, else at
        // the end of the parent's element.
        enum Anchor {
            Before(NodeId),
            Append(NodeId),
        }
        let anchor = match old_dsts.first() {
            Some(&d0) => Anchor::Before(d0),
            None => {
                let p = self.frag(parent);
                let pos = p
                    .children
                    .iter()
                    .position(|&c| c == fi)
                    .expect("fragment is its parent's child");
                let next_live = p.children[pos + 1..]
                    .iter()
                    .find_map(|&g| self.frag(g).dst.first().copied());
                match next_live {
                    Some(d) => Anchor::Before(d),
                    None => Anchor::Append(p.dst[0]),
                }
            }
        };
        let produced = rec_into_tree(base, out, nfa, &q.op, src, &states, targets);
        for &pnode in &produced {
            match anchor {
                Anchor::Before(a) => out.insert_before(a, pnode),
                Anchor::Append(pd) => out.append_child(pd, pnode),
            }
        }
        for &d in &old_dsts {
            out.delete(d);
        }
        let rsizes = region_sizes(base, src);
        {
            let f = self.frag_mut(fi);
            f.dst = produced.clone();
            f.bytes = None;
            f.size = rsizes.get(&src).copied().unwrap_or(1);
        }
        for &d in &produced {
            self.dst_index.insert(d, fi);
        }
        // Rebuild provenance below the fresh region where worthwhile, so
        // repeated writes into the same area stay localized.
        let label = base.name_sym(src).expect("fragment srcs are elements");
        let s_after = nfa.next_states(&states, label, |_, qual| eval_qualifier(base, src, qual));
        let selected = s_after.contains(nfa.final_state);
        let size = self.frag(fi).size;
        if self.descend(base, src, produced.len(), selected, &q.op, size) {
            let sz = |n: NodeId| rsizes.get(&n).copied().unwrap_or(1);
            self.split(base, out, q, nfa, &sz, fi, &s_after);
        }
    }

    /// Collapse repair after a *retained* write replayed its delta: every
    /// fragment whose recorded base subtree covers an update site has
    /// stale provenance below it, and the replay edited the cached
    /// result under its own target chains. Collapses the deepest
    /// covering fragment of each `sites` chain (deepest-first pre-apply
    /// base ids) and each `replayed` chain (pre-replay result ids) to an
    /// opaque leaf — the root when no fragment covers the chain.
    pub fn collapse(&mut self, sites: &[Vec<NodeId>], replayed: &[Vec<NodeId>]) {
        for chain in sites {
            let fi = chain.iter().find_map(|n| self.src_index.get(n).copied());
            self.free_children(fi.unwrap_or(0));
        }
        for chain in replayed {
            let fi = chain.iter().find_map(|n| self.dst_index.get(n).copied());
            self.free_children(fi.unwrap_or(0));
        }
    }

    /// Collapses the whole tree to one root leaf, for an edit of the
    /// result whose sites are unknown. The next
    /// [`FragmentTree::assemble`] re-serializes the whole result.
    pub fn collapse_root(&mut self) {
        self.free_children(0);
    }

    /// Bytes memoized in leaf fragments: what the tree holds of the
    /// serialized result.
    pub fn leaf_bytes(&self) -> usize {
        let leaves = self.frags.iter().flatten();
        leaves
            .filter_map(|f| f.bytes.as_ref())
            .map(String::len)
            .sum()
    }

    /// Serializes the whole result by walking the fragment tree:
    /// interior fragments emit live start/end tags, leaves emit their
    /// memoized bytes (serialized from `doc` on first use). Unchanged
    /// fragments are never re-serialized across patches.
    pub fn assemble(&mut self, doc: &Document) -> String {
        let mut out = String::with_capacity(self.assembled_len + self.assembled_len / 8);
        self.write_frag(0, doc, &mut out);
        self.assembled_len = out.len();
        out
    }

    fn write_frag(&mut self, i: usize, doc: &Document, out: &mut String) {
        if self.frag(i).interior {
            let d = self.frag(i).dst[0];
            doc.write_start_tag_into(d, out);
            if doc.first_child(d).is_none() {
                out.push_str("/>");
                return;
            }
            out.push('>');
            for k in 0..self.frag(i).children.len() {
                let c = self.frag(i).children[k];
                self.write_frag(c, doc, out);
            }
            doc.write_end_tag_into(d, out);
        } else {
            match &self.frag(i).bytes {
                Some(b) => out.push_str(b),
                None => {
                    // Serialize straight onto `out`, then memoize that
                    // span: one exact-size copy, no per-node temporaries.
                    // The root leaf reads the current root, which a
                    // replayed write may have replaced.
                    let dsts = match i {
                        0 => doc.root().into_iter().collect(),
                        _ => self.frag(i).dst.clone(),
                    };
                    let start = out.len();
                    for d in dsts {
                        doc.serialize_into(d, out);
                    }
                    self.frag_mut(i).bytes = Some(out[start..].to_owned());
                }
            }
        }
    }
}

/// The deepest-first ancestor-or-self chain of `n` — the shape
/// [`FragmentTree::localize`] and [`FragmentTree::collapse`] consume.
pub fn site_chain(doc: &Document, n: NodeId) -> Vec<NodeId> {
    let mut chain = vec![n];
    chain.extend(doc.ancestors(n));
    chain
}

/// How many result nodes `topDown` produces for a base child reached
/// with states `s_c` (post-consumption), and whether it is selected.
fn produced_count(s_c: &StateSet, nfa: &SelectingNfa, op: &UpdateOp) -> (usize, bool) {
    if s_c.is_empty() {
        return (1, false); // pruned wholesale copy
    }
    if !s_c.contains(nfa.final_state) {
        return (1, false);
    }
    let count = match op {
        UpdateOp::Delete => 0,
        UpdateOp::Replace { elem } => usize::from(elem.root().is_some()),
        UpdateOp::Insert { elem, pos } if pos.is_sibling() => {
            1 + usize::from(elem.root().is_some())
        }
        _ => 1, // rename / into-inserts keep one node
    };
    (count, true)
}

/// Subtree node counts for every live node, indexed by arena slot.
fn subtree_sizes(doc: &Document) -> Vec<u32> {
    let mut sizes = vec![0u32; doc.arena_len()];
    if let Some(root) = doc.root() {
        let order: Vec<NodeId> = doc.descendants_or_self(root).collect();
        for &n in order.iter().rev() {
            let mut s = 1u32;
            for c in doc.children(n) {
                s = s.saturating_add(sizes[c.index()]);
            }
            sizes[n.index()] = s;
        }
    }
    sizes
}

/// Subtree node counts within the region rooted at `src` only.
fn region_sizes(base: &Document, src: NodeId) -> HashMap<NodeId, u32> {
    let order: Vec<NodeId> = base.descendants_or_self(src).collect();
    let mut m: HashMap<NodeId, u32> = HashMap::with_capacity(order.len());
    for &n in order.iter().rev() {
        let mut s = 1u32;
        for c in base.children(n) {
            s = s.saturating_add(m.get(&c).copied().unwrap_or(1));
        }
        m.insert(n, s);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copy_update::apply_update;
    use crate::query::{parse_transform, InsertPos};
    use crate::topdown::top_down;
    use xust_xpath::eval_path_root;

    fn view(q: &str) -> (TransformQuery, SelectingNfa) {
        let q = parse_transform(q).unwrap();
        let nfa = SelectingNfa::new(&q.path);
        (q, nfa)
    }

    const DOC: &str = "<db><zone><part><pname>kb</pname><price>9</price></part>\
         <part><pname>mouse</pname><price>20</price></part></zone>\
         <other><note>x</note><part><pname>pad</pname></part></other></db>";

    const DELETE_PRICE: &str =
        r#"transform copy $a := doc("db") modify do delete $a//price return $a"#;

    /// End-to-end: build provenance, apply a write to the base, localize
    /// the site, patch, and compare against full recompute — for every
    /// update-op shape.
    #[test]
    fn patched_result_matches_full_recompute() {
        let ops: &[(&str, &str)] = &[
            (DELETE_PRICE, "insert"),
            (DELETE_PRICE, "delete"),
            (
                r#"transform copy $a := doc("db") modify do rename $a//pname as nm return $a"#,
                "insert",
            ),
            (
                r#"transform copy $a := doc("db") modify do insert <tag/> after $a//pname return $a"#,
                "rename",
            ),
            (
                r#"transform copy $a := doc("db") modify do replace $a//price with <gone/> return $a"#,
                "replace",
            ),
            (
                r#"transform copy $a := doc("db") modify do insert <tag/> into $a//part return $a"#,
                "insert",
            ),
        ];
        for (vq, write_kind) in ops {
            let (q, nfa) = view(vq);
            let mut base = Document::parse(DOC).unwrap();
            let result = top_down(&base, &q);
            let mut tree = FragmentTree::build(&base, &result, &q, &nfa, 1);
            let mut out = Document::new();
            let r = out.deep_copy_from(&result, result.root().unwrap());
            out.set_root(r);
            // One small write into the first <part> subtree.
            let targets = eval_path_root(
                &base,
                &xust_xpath::parse_path("//part[pname = 'kb']").unwrap(),
            );
            assert_eq!(targets.len(), 1);
            let t = targets[0];
            let (write_op, site) = match *write_kind {
                "insert" => (
                    UpdateOp::Insert {
                        elem: Document::parse("<w>1</w>").unwrap(),
                        pos: InsertPos::LastInto,
                    },
                    t,
                ),
                "delete" => (UpdateOp::Delete, base.parent(t).unwrap()),
                "rename" => (
                    UpdateOp::Rename {
                        name: xust_intern::intern("piece"),
                    },
                    t,
                ),
                "replace" => (
                    UpdateOp::Replace {
                        elem: Document::parse("<swap><pname>kb</pname></swap>").unwrap(),
                    },
                    base.parent(t).unwrap(),
                ),
                _ => unreachable!(),
            };
            let chain = site_chain(&base, site);
            apply_update(&mut base, &targets, &write_op);
            match tree.localize(&[chain]) {
                Localized::Fragments(chosen) => {
                    assert!(!chosen.is_empty(), "{vq}: localization found fragments");
                    tree.patch(&base, &mut out, &q, &nfa, &chosen);
                    let expect = top_down(&base, &q).serialize();
                    assert_eq!(tree.assemble(&out), expect, "{vq} + {write_kind}");
                    assert_eq!(out.serialize(), expect, "spliced doc agrees too");
                }
                Localized::Root => panic!("{vq}: unexpectedly localized to root"),
            }
        }
    }

    /// Repeated patches into the same region stay correct (provenance is
    /// rebuilt below the patched fragment).
    #[test]
    fn repeated_patches_stay_aligned() {
        let (q, nfa) = view(DELETE_PRICE);
        let mut base = Document::parse(DOC).unwrap();
        let result = top_down(&base, &q);
        let mut tree = FragmentTree::build(&base, &result, &q, &nfa, 1);
        let mut out = Document::new();
        let r = out.deep_copy_from(&result, result.root().unwrap());
        out.set_root(r);
        for i in 0..4 {
            let targets = eval_path_root(
                &base,
                &xust_xpath::parse_path("//part[pname = 'kb']").unwrap(),
            );
            let t = targets[0];
            let op = UpdateOp::Insert {
                elem: Document::parse(&format!("<w>{i}</w>")).unwrap(),
                pos: InsertPos::FirstInto,
            };
            let chain = site_chain(&base, t);
            apply_update(&mut base, &targets, &op);
            let Localized::Fragments(chosen) = tree.localize(&[chain]) else {
                panic!("localized to root");
            };
            tree.patch(&base, &mut out, &q, &nfa, &chosen);
            assert_eq!(
                tree.assemble(&out),
                top_down(&base, &q).serialize(),
                "write {i}"
            );
        }
    }

    /// A deleted-to-empty fragment splices back in correctly when later
    /// content reappears next to it (anchor resolution with empty dst).
    #[test]
    fn empty_dst_fragment_reanchors() {
        let (q, nfa) =
            view(r#"transform copy $a := doc("db") modify do delete $a/db/zone/part return $a"#);
        let mut base =
            Document::parse("<db><zone><part>1</part><tail>t</tail></zone></db>").unwrap();
        let result = top_down(&base, &q);
        assert_eq!(result.serialize(), "<db><zone><tail>t</tail></zone></db>");
        let mut tree = FragmentTree::build(&base, &result, &q, &nfa, 1);
        let mut out = Document::new();
        let r = out.deep_copy_from(&result, result.root().unwrap());
        out.set_root(r);
        // Rename the deleted part's source so the view stops deleting it:
        // the fragment with an empty dst must re-anchor before <tail>.
        let targets = eval_path_root(&base, &xust_xpath::parse_path("//part").unwrap());
        let op = UpdateOp::Rename {
            name: xust_intern::intern("kept"),
        };
        let chain = site_chain(&base, targets[0]);
        apply_update(&mut base, &targets, &op);
        let Localized::Fragments(chosen) = tree.localize(&[chain]) else {
            panic!("localized to root");
        };
        tree.patch(&base, &mut out, &q, &nfa, &chosen);
        assert_eq!(
            tree.assemble(&out),
            "<db><zone><kept>1</kept><tail>t</tail></zone></db>"
        );
    }

    #[test]
    fn collapse_repairs_keep_assembly_live() {
        let (q, nfa) = view(DELETE_PRICE);
        let base = Document::parse(DOC).unwrap();
        let result = top_down(&base, &q);
        let mut tree = FragmentTree::build(&base, &result, &q, &nfa, 1);
        let mut out = Document::new();
        let r = out.deep_copy_from(&result, result.root().unwrap());
        out.set_root(r);
        // Memoize everything, then edit the result doc directly (as a
        // retained replay would) and collapse along the edited chain.
        let before = tree.assemble(&out);
        assert_eq!(before, result.serialize());
        let pnames = eval_path_root(&out, &xust_xpath::parse_path("//pname").unwrap());
        let t = pnames[0];
        let chain = site_chain(&out, t);
        out.rename(t, "renamed");
        let count = tree.fragment_count();
        tree.collapse(&[], &[chain]);
        assert!(tree.fragment_count() < count && tree.fragment_count() > 1);
        assert_eq!(tree.assemble(&out), out.serialize());
        // A root chain collapses the whole tree to its root leaf.
        tree.collapse(&[], &[vec![out.root().unwrap()]]);
        assert_eq!(tree.fragment_count(), 1);
        assert_eq!(tree.assemble(&out), out.serialize());
    }

    /// Shapes the alignment model does not cover build an opaque tree:
    /// it serializes the whole result, keeps serving it after a
    /// replayed write replaces the result's root, and localizes every
    /// site to the root.
    #[test]
    fn conservative_shapes_build_opaque_trees() {
        let base = Document::parse("<db><a/></db>").unwrap();
        let shapes = [
            // ε path: the result is empty.
            r#"transform copy $a := doc("db") modify do delete $a return $a"#,
            // Selected root under a non-rename op shifts alignment.
            r#"transform copy $a := doc("db") modify do insert <x/> into $a//db return $a"#,
            // Unmatched path: the automaton dies at the root label.
            r#"transform copy $a := doc("db") modify do delete $a/zzz/yyy return $a"#,
        ];
        for vq in shapes {
            let (q, nfa) = view(vq);
            let mut result = top_down(&base, &q);
            let mut tree = FragmentTree::build(&base, &result, &q, &nfa, 1);
            assert_eq!(tree.fragment_count(), 1, "{vq}");
            assert_eq!(tree.assemble(&result), result.serialize(), "{vq}");
            assert!(tree.leaf_bytes() <= result.serialize().len(), "{vq}");
            let chain = site_chain(&base, base.root().unwrap());
            assert_eq!(tree.localize(&[chain]), Localized::Root, "{vq}");
            let Some(root) = result.root() else {
                continue; // nothing to replace
            };
            // A retained replay that replaces the root; its chain maps
            // to no fragment, so the repair collapses the root.
            let swap = UpdateOp::Replace {
                elem: Document::parse("<swap><b/></swap>").unwrap(),
            };
            let chain = site_chain(&result, root);
            apply_update(&mut result, &[root], &swap);
            tree.collapse(&[], &[chain]);
            assert_eq!(tree.assemble(&result), "<swap><b/></swap>", "{vq}");
        }
    }

    /// Builds `q`'s fragment tree over `base` (leaf limit `leaf`), applies
    /// `op` at the nodes `write` selects, patches the localized
    /// fragments and checks the spliced result against a fresh
    /// `top_down`. Returns the tree and the patched span.
    fn patch_roundtrip(
        vq: &str,
        base: &mut Document,
        leaf: usize,
        write: &str,
        op: UpdateOp,
    ) -> (FragmentTree, u64) {
        let (q, nfa) = view(vq);
        let result = top_down(base, &q);
        let mut tree = FragmentTree::build(base, &result, &q, &nfa, leaf);
        assert!(tree.fragment_count() <= tree.budget);
        let mut out = Document::new();
        let r = out.deep_copy_from(&result, result.root().unwrap());
        out.set_root(r);
        let targets = eval_path_root(base, &xust_xpath::parse_path(write).unwrap());
        assert_eq!(targets.len(), 1, "{write}");
        let chain = site_chain(base, targets[0]);
        apply_update(base, &targets, &op);
        let Localized::Fragments(chosen) = tree.localize(&[chain]) else {
            panic!("{write}: localized to root");
        };
        let span = tree.cost(&chosen);
        tree.patch(base, &mut out, &q, &nfa, &chosen);
        assert_eq!(
            tree.assemble(&out),
            top_down(base, &q).serialize(),
            "{write}"
        );
        assert!(tree.fragment_count() <= tree.budget);
        (tree, span)
    }

    fn mark() -> UpdateOp {
        UpdateOp::Insert {
            elem: Document::parse("<w>1</w>").unwrap(),
            pos: InsertPos::LastInto,
        }
    }

    /// A subtree the automaton prunes is split like a live one: a write
    /// deep inside `<other>` — where `/db/zone/part/price` can never
    /// match — localizes to the one small fragment around it, and
    /// patching that fragment (a verbatim copy) keeps the result exact.
    #[test]
    fn pruned_subtrees_split_into_leaf_sized_fragments() {
        let mut xml = String::from("<db><zone><part><price>1</price></part></zone><other>");
        for i in 0..40 {
            xml.push_str(&format!("<box><lid>{i}</lid><item>{i}</item></box>"));
        }
        xml.push_str("</other></db>");
        let mut base = Document::parse(&xml).unwrap();
        let (tree, span) = patch_roundtrip(
            r#"transform copy $a := doc("db") modify do delete $a/db/zone/part/price return $a"#,
            &mut base,
            4,
            "/db/other/box[lid = '17']",
            mark(),
        );
        // <other> alone is 201 nodes; the write touched one 5-node box.
        assert_eq!(span, 5);
        assert!(tree.fragment_count() > 40, "every box is its own fragment");
    }

    /// A node wider than the old fixed per-node cap of 1024 children
    /// splits when its children fit the per-tree budget, and stays an
    /// opaque leaf when they do not.
    #[test]
    fn wide_nodes_split_within_the_fragment_budget() {
        const VQ: &str =
            r#"transform copy $a := doc("db") modify do delete $a/db/wide/p/d return $a"#;
        // 1,500 nine-node children: the budget (nodes / 8) admits them.
        let mut xml = String::from("<db><wide>");
        for i in 0..1500 {
            xml.push_str(&format!("<p><a>{i}</a><b>b</b><c>c</c><d>d</d></p>"));
        }
        xml.push_str("</wide></db>");
        let mut base = Document::parse(&xml).unwrap();
        let (tree, span) = patch_roundtrip(VQ, &mut base, 512, "/db/wide/p[a = '700']", mark());
        assert_eq!(span, 9, "the write's span is one child, not the wide node");
        assert!(tree.fragment_count() > 1500);
        assert!(tree.fragment_count() <= tree.budget);
        // 2,000 one-node children: splitting would outgrow the budget,
        // so the wide node stays one leaf.
        let mut xml = String::from("<db><wide>");
        xml.push_str(&"<p/>".repeat(2000));
        xml.push_str("</wide><tail/></db>");
        let base = Document::parse(&xml).unwrap();
        let (q, nfa) = view(VQ);
        let result = top_down(&base, &q);
        let tree = FragmentTree::build(&base, &result, &q, &nfa, 512);
        assert_eq!(
            tree.fragment_count(),
            3,
            "root, the unsplit wide node, tail"
        );
        assert!(tree.fragment_count() <= tree.budget);
    }

    #[test]
    fn localize_picks_deepest_and_dedups() {
        let (q, nfa) = view(DELETE_PRICE);
        let base = Document::parse(DOC).unwrap();
        let result = top_down(&base, &q);
        let tree = FragmentTree::build(&base, &result, &q, &nfa, 1);
        let parts = eval_path_root(&base, &xust_xpath::parse_path("//part").unwrap());
        let zone = eval_path_root(&base, &xust_xpath::parse_path("/db/zone").unwrap())[0];
        // Two sites under the same zone plus the zone itself: the zone
        // fragment covers its parts.
        let chains: Vec<Vec<NodeId>> = vec![
            site_chain(&base, parts[0]),
            site_chain(&base, parts[1]),
            site_chain(&base, zone),
        ];
        let Localized::Fragments(chosen) = tree.localize(&chains) else {
            panic!("root");
        };
        assert_eq!(chosen.len(), 1, "zone fragment absorbs its parts");
        assert!(tree.cost(&chosen) >= 1);
        // A root site falls back.
        assert_eq!(
            tree.localize(&[site_chain(&base, base.root().unwrap())]),
            Localized::Root
        );
    }
}
