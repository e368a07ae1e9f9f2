//! Multi-update transform queries:
//!
//! ```text
//! transform copy $a := doc("T") modify do (u1, u2, …) return $a
//! ```
//!
//! The paper's conclusion defers "transform queries defined with more
//! involved updates [6, 14]" to future work; the XQuery Update Facility
//! draft it cites gives them **snapshot semantics**: every embedded
//! update's path is evaluated against the *original* copy (a pending
//! update list), and all effects are applied together. This module
//! implements that semantics two ways:
//!
//! * [`multi_snapshot`] — the reference plan: evaluate every `r[[pᵢ]]`
//!   with the direct XPath evaluator, merge the per-node effects, and
//!   rebuild the output in one walk. Always Ω(|T|).
//! * [`multi_top_down`] — the automaton plan: one traversal drives all k
//!   selecting NFAs side by side and applies the merged effects on the
//!   fly; a subtree is copied wholesale as soon as *every* automaton is
//!   dead (the Fig. 3 pruning, generalized to a product of automata).
//!
//! Snapshot semantics is *not* sequential application: `u2`'s path never
//! sees `u1`'s effects. Sequential chaining is available separately as
//! [`apply_chain`]; `examples/multi_update.rs` and the unit tests show a
//! query where the two disagree.
//!
//! ## Conflict rules (merged effects at one node)
//!
//! Following the spirit of the W3C draft's `upd:applyUpdates`:
//!
//! 1. **delete dominates**: a deleted node's own replace/rename/child
//!    inserts are void; its subtree vanishes.
//! 2. **replace beats rename and child inserts**: the node (label and
//!    children) is gone; the first replace in update order wins.
//! 3. **first rename wins** among renames.
//! 4. **child inserts accumulate** in update order (`as first` elements
//!    in order before the original children; `into` elements in order
//!    after them).
//! 5. **sibling inserts survive** delete/replace of their anchor (the
//!    position is still well-defined), in update order; they are void
//!    only when an *ancestor* is deleted or replaced, and at the root.

use std::collections::{HashMap, HashSet};

use xust_automata::{SelectingNfa, StateSet};
use xust_intern::Sym;
use xust_tree::{Document, NodeId, NodeKind};
use xust_xpath::{eval_path_root, eval_qualifier, Path};

use crate::query::{InsertPos, TransformQuery, UpdateOp};

/// A transform query with several embedded updates, applied with
/// snapshot semantics.
#[derive(Debug, Clone)]
pub struct MultiTransformQuery {
    /// Variable bound by `copy`.
    pub var: String,
    /// Document name inside `doc("…")`.
    pub doc_name: String,
    /// The embedded updates, in syntactic order.
    pub updates: Vec<(Path, UpdateOp)>,
}

impl MultiTransformQuery {
    /// Builds a multi-update transform from parts.
    pub fn new(doc_name: impl Into<String>, updates: Vec<(Path, UpdateOp)>) -> Self {
        MultiTransformQuery {
            var: "a".into(),
            doc_name: doc_name.into(),
            updates,
        }
    }
}

/// The merged effects planned for one node (conflict rules applied).
#[derive(Default)]
struct NodeActions<'a> {
    deleted: bool,
    /// Winning replacement element, if any.
    replace: Option<&'a Document>,
    /// Winning new label, if any.
    rename: Option<Sym>,
    ins_first: Vec<&'a Document>,
    ins_last: Vec<&'a Document>,
    ins_before: Vec<&'a Document>,
    ins_after: Vec<&'a Document>,
}

impl<'a> NodeActions<'a> {
    fn absorb(&mut self, op: &'a UpdateOp) {
        match op {
            UpdateOp::Delete => self.deleted = true,
            UpdateOp::Replace { elem } => {
                if self.replace.is_none() {
                    self.replace = Some(elem);
                }
            }
            UpdateOp::Rename { name } => {
                if self.rename.is_none() {
                    self.rename = Some(*name);
                }
            }
            UpdateOp::Insert { elem, pos } => match pos {
                InsertPos::FirstInto => self.ins_first.push(elem),
                InsertPos::LastInto => self.ins_last.push(elem),
                InsertPos::Before => self.ins_before.push(elem),
                InsertPos::After => self.ins_after.push(elem),
            },
        }
    }
}

/// Reference implementation: evaluate every path on the original tree,
/// merge effects per node, rebuild.
pub fn multi_snapshot(doc: &Document, q: &MultiTransformQuery) -> Document {
    let mut plan: HashMap<NodeId, NodeActions<'_>> = HashMap::new();
    for (path, op) in &q.updates {
        for target in eval_path_root(doc, path) {
            plan.entry(target).or_default().absorb(op);
        }
    }
    rebuild(doc, &mut |n| std::mem::take(plan.entry(n).or_default()))
}

/// Rebuilds `doc` applying the per-node actions returned by `actions`.
fn rebuild<'a>(doc: &Document, actions: &mut dyn FnMut(NodeId) -> NodeActions<'a>) -> Document {
    let mut out = Document::with_capacity_of(doc);
    let Some(root) = doc.root() else {
        return out;
    };
    let produced = rebuild_rec(doc, &mut out, root, actions, true);
    if let Some(&r) = produced.first() {
        out.set_root(r);
    }
    out
}

fn rebuild_rec<'a>(
    src: &Document,
    out: &mut Document,
    n: NodeId,
    actions: &mut dyn FnMut(NodeId) -> NodeActions<'a>,
    is_root: bool,
) -> Vec<NodeId> {
    let name = match src.kind(n) {
        NodeKind::Text(t) => return vec![out.create_text(t)],
        NodeKind::Element { name, .. } => name,
    };
    let acts = actions(n);
    let mut produced: Vec<NodeId> = Vec::new();
    // Rule 5: sibling inserts are independent of the node's own fate.
    if !is_root {
        for e in &acts.ins_before {
            if let Some(r) = e.root() {
                produced.push(out.deep_copy_from(e, r));
            }
        }
    }
    if acts.deleted {
        // Rule 1.
    } else if let Some(e) = acts.replace {
        // Rule 2.
        if let Some(r) = e.root() {
            produced.push(out.deep_copy_from(e, r));
        }
    } else {
        let out_name = acts.rename.unwrap_or(name);
        let node = out.copy_element_from(out_name, src, n);
        for e in &acts.ins_first {
            if let Some(r) = e.root() {
                let c = out.deep_copy_from(e, r);
                out.append_child(node, c);
            }
        }
        let children: Vec<NodeId> = src.children(n).collect();
        for c in children {
            for p in rebuild_rec(src, out, c, actions, false) {
                out.append_child(node, p);
            }
        }
        for e in &acts.ins_last {
            if let Some(r) = e.root() {
                let c = out.deep_copy_from(e, r);
                out.append_child(node, c);
            }
        }
        produced.push(node);
    }
    if !is_root {
        for e in &acts.ins_after {
            if let Some(r) = e.root() {
                produced.push(out.deep_copy_from(e, r));
            }
        }
    }
    produced
}

/// The automaton plan: drives the k selecting NFAs through one traversal
/// with product pruning, merging effects on the fly.
pub fn multi_top_down(doc: &Document, q: &MultiTransformQuery) -> Document {
    // ε paths (`$a` alone) select the root; handled via the generic plan
    // for uniformity (they defeat pruning anyway).
    let eps_ops: Vec<&UpdateOp> = q
        .updates
        .iter()
        .filter(|(p, _)| p.is_empty())
        .map(|(_, op)| op)
        .collect();
    let nfas: Vec<(SelectingNfa, &UpdateOp)> = q
        .updates
        .iter()
        .filter(|(p, _)| !p.is_empty())
        .map(|(p, op)| (SelectingNfa::new(p), op))
        .collect();
    let mut out = Document::with_capacity_of(doc);
    let Some(root) = doc.root() else {
        return out;
    };
    let states: Vec<StateSet> = nfas.iter().map(|(nfa, _)| nfa.initial()).collect();
    let produced = multi_rec(doc, &mut out, root, &nfas, &eps_ops, &states, true);
    if let Some(&r) = produced.first() {
        out.set_root(r);
    }
    out
}

fn multi_rec<'a>(
    src: &Document,
    out: &mut Document,
    n: NodeId,
    nfas: &[(SelectingNfa, &'a UpdateOp)],
    eps_ops: &[&'a UpdateOp],
    states: &[StateSet],
    is_root: bool,
) -> Vec<NodeId> {
    let label = match src.kind(n) {
        NodeKind::Text(t) => return vec![out.create_text(t)],
        NodeKind::Element { name, .. } => name,
    };
    let mut next: Vec<StateSet> = Vec::with_capacity(nfas.len());
    let mut acts = NodeActions::default();
    if is_root {
        for op in eps_ops {
            acts.absorb(op);
        }
    }
    let mut any_alive = false;
    for ((nfa, op), s) in nfas.iter().zip(states) {
        let s_next = nfa.next_states(s, label, |_, qual| eval_qualifier(src, n, qual));
        if s_next.contains(nfa.final_state) {
            acts.absorb(op);
        }
        any_alive |= !s_next.is_empty();
        next.push(s_next);
    }
    // Product pruning: all automata dead and nothing planned here ⇒ the
    // subtree cannot be affected.
    if !any_alive
        && !acts.deleted
        && acts.replace.is_none()
        && acts.rename.is_none()
        && acts.ins_first.is_empty()
        && acts.ins_last.is_empty()
        && acts.ins_before.is_empty()
        && acts.ins_after.is_empty()
    {
        let copy = out.deep_copy_from(src, n);
        return vec![copy];
    }

    let mut produced: Vec<NodeId> = Vec::new();
    if !is_root {
        for e in &acts.ins_before {
            if let Some(r) = e.root() {
                produced.push(out.deep_copy_from(e, r));
            }
        }
    }
    if acts.deleted {
        // subtree vanishes
    } else if let Some(e) = acts.replace {
        if let Some(r) = e.root() {
            produced.push(out.deep_copy_from(e, r));
        }
    } else {
        let out_name = acts.rename.unwrap_or(label);
        let node = out.copy_element_from(out_name, src, n);
        for e in &acts.ins_first {
            if let Some(r) = e.root() {
                let c = out.deep_copy_from(e, r);
                out.append_child(node, c);
            }
        }
        let children: Vec<NodeId> = src.children(n).collect();
        for c in children {
            for p in multi_rec(src, out, c, nfas, eps_ops, &next, false) {
                out.append_child(node, p);
            }
        }
        for e in &acts.ins_last {
            if let Some(r) = e.root() {
                let c = out.deep_copy_from(e, r);
                out.append_child(node, c);
            }
        }
        produced.push(node);
    }
    if !is_root {
        for e in &acts.ins_after {
            if let Some(r) = e.root() {
                produced.push(out.deep_copy_from(e, r));
            }
        }
    }
    produced
}

/// Sequential chaining: applies each single-update transform to the
/// *result* of the previous one (`uᵢ₊₁` sees `uᵢ`'s effects) — the other
/// reasonable reading of a compound modify clause, provided for contrast
/// and for building pipelines of transforms.
pub fn apply_chain(doc: &Document, chain: &[TransformQuery]) -> Document {
    let mut cur = doc.clone();
    for q in chain {
        cur = crate::topdown::top_down(&cur, q);
    }
    cur
}

/// Parses the multi-update transform syntax. A single un-parenthesized
/// update is accepted too, so this is a strict superset of
/// [`crate::parse_transform`].
pub fn parse_multi_transform(
    input: &str,
) -> Result<MultiTransformQuery, crate::query::TransformParseError> {
    crate::query::parse_multi(input)
}

/// Node-set overlap report: which nodes are targeted by more than one of
/// the embedded updates (useful to audit conflict-rule reliance).
pub fn conflicting_targets(doc: &Document, q: &MultiTransformQuery) -> Vec<NodeId> {
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut dup: HashSet<NodeId> = HashSet::new();
    for (path, _) in &q.updates {
        // Within one update, targets are already a set.
        for t in eval_path_root(doc, path) {
            if !seen.insert(t) {
                dup.insert(t);
            }
        }
    }
    let mut v: Vec<NodeId> = dup.into_iter().collect();
    v.sort_by(|&a, &b| doc.doc_order_cmp(a, b));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_transform;
    use xust_tree::docs_eq;
    use xust_xpath::parse_path;

    fn elem(s: &str) -> Document {
        Document::parse(s).unwrap()
    }

    fn q(updates: Vec<(&str, UpdateOp)>) -> MultiTransformQuery {
        MultiTransformQuery::new(
            "d",
            updates
                .into_iter()
                .map(|(p, op)| (parse_path(p).unwrap(), op))
                .collect(),
        )
    }

    fn agree(doc: &str, mq: &MultiTransformQuery) -> String {
        let d = Document::parse(doc).unwrap();
        let a = multi_snapshot(&d, mq);
        let b = multi_top_down(&d, mq);
        assert!(
            docs_eq(&a, &b),
            "plans disagree on {doc}:\nsnapshot: {}\nautomata: {}",
            a.serialize(),
            b.serialize()
        );
        a.serialize()
    }

    #[test]
    fn independent_updates() {
        let mq = q(vec![
            ("//price", UpdateOp::Delete),
            (
                "//part",
                UpdateOp::Insert {
                    elem: elem("<ok/>"),
                    pos: InsertPos::LastInto,
                },
            ),
        ]);
        let out = agree("<db><part><price>1</price></part><part/></db>", &mq);
        assert_eq!(out, "<db><part><ok/></part><part><ok/></part></db>");
    }

    #[test]
    fn delete_dominates_other_ops_on_same_node() {
        let mq = q(vec![
            ("//x", UpdateOp::Rename { name: "y".into() }),
            ("//x", UpdateOp::Delete),
            (
                "//x",
                UpdateOp::Insert {
                    elem: elem("<c/>"),
                    pos: InsertPos::FirstInto,
                },
            ),
        ]);
        let out = agree("<db><x>t</x><z/></db>", &mq);
        assert_eq!(out, "<db><z/></db>");
    }

    #[test]
    fn first_replace_wins_and_beats_rename() {
        let mq = q(vec![
            ("//x", UpdateOp::Rename { name: "y".into() }),
            (
                "//x",
                UpdateOp::Replace {
                    elem: elem("<one/>"),
                },
            ),
            (
                "//x",
                UpdateOp::Replace {
                    elem: elem("<two/>"),
                },
            ),
        ]);
        let out = agree("<db><x/></db>", &mq);
        assert_eq!(out, "<db><one/></db>");
    }

    #[test]
    fn first_rename_wins() {
        let mq = q(vec![
            ("//x", UpdateOp::Rename { name: "a".into() }),
            ("//x", UpdateOp::Rename { name: "b".into() }),
        ]);
        assert_eq!(agree("<db><x/></db>", &mq), "<db><a/></db>");
    }

    #[test]
    fn child_inserts_accumulate_in_update_order() {
        let mq = q(vec![
            (
                "//x",
                UpdateOp::Insert {
                    elem: elem("<l1/>"),
                    pos: InsertPos::LastInto,
                },
            ),
            (
                "//x",
                UpdateOp::Insert {
                    elem: elem("<f1/>"),
                    pos: InsertPos::FirstInto,
                },
            ),
            (
                "//x",
                UpdateOp::Insert {
                    elem: elem("<l2/>"),
                    pos: InsertPos::LastInto,
                },
            ),
            (
                "//x",
                UpdateOp::Insert {
                    elem: elem("<f2/>"),
                    pos: InsertPos::FirstInto,
                },
            ),
        ]);
        let out = agree("<db><x><mid/></x></db>", &mq);
        assert_eq!(out, "<db><x><f1/><f2/><mid/><l1/><l2/></x></db>");
    }

    #[test]
    fn sibling_inserts_survive_delete_and_replace() {
        let mq = q(vec![
            (
                "//x",
                UpdateOp::Insert {
                    elem: elem("<b/>"),
                    pos: InsertPos::Before,
                },
            ),
            ("//x", UpdateOp::Delete),
            (
                "//x",
                UpdateOp::Insert {
                    elem: elem("<a/>"),
                    pos: InsertPos::After,
                },
            ),
        ]);
        assert_eq!(agree("<db><x/><z/></db>", &mq), "<db><b/><a/><z/></db>");

        let mq = q(vec![
            (
                "//x",
                UpdateOp::Insert {
                    elem: elem("<b/>"),
                    pos: InsertPos::Before,
                },
            ),
            ("//x", UpdateOp::Replace { elem: elem("<r/>") }),
        ]);
        assert_eq!(agree("<db><x/></db>", &mq), "<db><b/><r/></db>");
    }

    #[test]
    fn updates_under_deleted_ancestor_are_void() {
        let mq = q(vec![
            ("//sub", UpdateOp::Rename { name: "n".into() }),
            ("//top", UpdateOp::Delete),
        ]);
        assert_eq!(
            agree("<db><top><sub/></top><keep/></db>", &mq),
            "<db><keep/></db>"
        );
    }

    #[test]
    fn snapshot_differs_from_chaining() {
        // u1 renames x→y; u2 deletes y. Snapshot: u2's path sees no y in
        // the *original*, so the renamed node survives as y. Chained: u2
        // sees u1's result and deletes it.
        let d = Document::parse("<db><x/></db>").unwrap();
        let mq = q(vec![
            ("//x", UpdateOp::Rename { name: "y".into() }),
            ("//y", UpdateOp::Delete),
        ]);
        assert_eq!(agree("<db><x/></db>", &mq), "<db><y/></db>");
        let chain = [
            TransformQuery::rename("d", parse_path("//x").unwrap(), "y"),
            TransformQuery::delete("d", parse_path("//y").unwrap()),
        ];
        assert_eq!(apply_chain(&d, &chain).serialize(), "<db/>");
    }

    #[test]
    fn root_sibling_inserts_skipped() {
        let mq = q(vec![(
            "//db",
            UpdateOp::Insert {
                elem: elem("<s/>"),
                pos: InsertPos::After,
            },
        )]);
        assert_eq!(agree("<db><x/></db>", &mq), "<db><x/></db>");
    }

    #[test]
    fn epsilon_path_targets_root() {
        let mq = MultiTransformQuery::new(
            "d",
            vec![
                (Path::empty(), UpdateOp::Rename { name: "r2".into() }),
                (parse_path("//x").unwrap(), UpdateOp::Delete),
            ],
        );
        assert_eq!(agree("<db><x/><y/></db>", &mq), "<r2><y/></r2>");
    }

    #[test]
    fn singleton_multi_matches_top_down() {
        let single =
            parse_transform(r#"transform copy $a := doc("d") modify do delete $a//x return $a"#)
                .unwrap();
        let d = Document::parse("<db><x/><y><x/></y></db>").unwrap();
        let expect = crate::topdown::top_down(&d, &single);
        let got = multi_top_down(
            &d,
            &MultiTransformQuery::new("d", vec![(single.path, single.op)]),
        );
        assert!(docs_eq(&expect, &got));
    }

    #[test]
    fn conflicting_targets_report() {
        let d = Document::parse("<db><x/><y/></db>").unwrap();
        let mq = q(vec![
            ("//x", UpdateOp::Delete),
            ("db/*", UpdateOp::Rename { name: "n".into() }),
        ]);
        let dups = conflicting_targets(&d, &mq);
        assert_eq!(dups.len(), 1);
        assert_eq!(d.name(dups[0]), Some("x"));
    }

    #[test]
    fn empty_update_list_is_identity() {
        let d = Document::parse("<db><x/></db>").unwrap();
        let mq = MultiTransformQuery::new("d", vec![]);
        assert!(docs_eq(&multi_snapshot(&d, &mq), &d));
        assert!(docs_eq(&multi_top_down(&d, &mq), &d));
    }
}
