//! Direct (DOM-walking) evaluation of X paths and qualifiers.
//!
//! This is the "native qualifier evaluation facility" of the paper: the
//! `topDown`/GENTOP method calls [`eval_qualifier`] as its `checkp()`
//! oracle, and the copy-and-update baseline uses [`eval_path`] to compute
//! `r[[p]]` before applying the update.

use std::collections::HashSet;

use xust_intern::Interner;
use xust_tree::{Document, NodeId};

use crate::ast::{Path, QPath, Qualifier, Step, StepKind};

/// Evaluation context: either a concrete node or the virtual *document
/// node* above the root element. Embedded update paths (`$a/p` with
/// `$a := doc("T")`) are rooted at the document node, so that `/site/…`
/// matches the root element's own label — exactly how the selecting NFA
/// consumes the root's label as its first input letter.
type Ctx = Option<NodeId>;

/// Evaluates `path` at context node `ctx` (child-axis semantics relative
/// to `ctx`, used for qualifier paths), returning `ctx[[p]]` — the set of
/// element nodes reachable via the path, deduplicated, in document order
/// (the order XQuery path expressions must deliver).
pub fn eval_path(doc: &Document, ctx: NodeId, path: &Path) -> Vec<NodeId> {
    eval_from(doc, Some(ctx), path)
}

/// Evaluates `path` from the virtual document node: `r[[p]]` of the
/// paper, where the first step can select the root element itself.
pub fn eval_path_root(doc: &Document, path: &Path) -> Vec<NodeId> {
    eval_from(doc, None, path)
}

fn eval_from(doc: &Document, ctx: Ctx, path: &Path) -> Vec<NodeId> {
    if path.is_empty() {
        return match ctx {
            Some(n) => vec![n],
            None => doc.root().into_iter().collect(),
        };
    }
    let mut current: Vec<Ctx> = vec![ctx];
    for step in &path.steps {
        current = eval_step(doc, &current, step);
        if current.is_empty() {
            break;
        }
    }
    let mut out: Vec<NodeId> = current.into_iter().flatten().collect();
    // A step applied to *nested* contexts — any step after the first
    // `//` — emits anchor-major order; XQuery requires document order.
    // Each step keeps disjoint contexts in document order, so one result,
    // or a path with no step after its first `//`, is already sorted.
    let nested = path
        .steps
        .iter()
        .position(|s| matches!(s.kind, StepKind::Descendant))
        .is_some_and(|i| i + 1 < path.steps.len());
    if nested && out.len() > 1 {
        sort_doc_order(doc, ctx, &mut out);
    }
    out
}

/// Sorts `nodes` — all inside the subtree at `ctx` — into document
/// order by their preorder rank from one walk of that subtree: linear,
/// where comparing root-to-node chains per pair
/// ([`Document::doc_order_cmp`]) costs two chains per comparison.
fn sort_doc_order(doc: &Document, ctx: Ctx, nodes: &mut [NodeId]) {
    let Some(start) = ctx.or_else(|| doc.root()) else {
        return;
    };
    let mut rank = vec![0u32; doc.arena_len()];
    for (i, n) in doc.descendants_or_self(start).enumerate() {
        rank[n.index()] = i as u32;
    }
    nodes.sort_unstable_by_key(|n| rank[n.index()]);
}

fn children_of(doc: &Document, ctx: Ctx) -> Vec<NodeId> {
    match ctx {
        Some(n) => doc.children(n).collect(),
        None => doc.root().into_iter().collect(),
    }
}

fn eval_step(doc: &Document, contexts: &[Ctx], step: &Step) -> Vec<Ctx> {
    let mut out: Vec<Ctx> = Vec::new();
    // Resolve a label step once per step application — outside the
    // context loop. A label the interner has never seen matches no node
    // in the process, so the whole step yields nothing.
    let want = match &step.kind {
        StepKind::Label(l) => match Interner::global().lookup(l) {
            Some(want) => Some(want),
            None => return out,
        },
        _ => None,
    };
    let mut seen: HashSet<Ctx> = HashSet::new();
    let mut push = |n: Ctx, out: &mut Vec<Ctx>| {
        if seen.insert(n) {
            out.push(n);
        }
    };
    for &ctx in contexts {
        match &step.kind {
            StepKind::Label(_) => {
                let want = want.expect("resolved above");
                for c in children_of(doc, ctx) {
                    if doc.name_sym(c) == Some(want) && qualifier_holds(doc, c, step) {
                        push(Some(c), &mut out);
                    }
                }
            }
            StepKind::Wildcard => {
                for c in children_of(doc, ctx) {
                    if doc.is_element(c) && qualifier_holds(doc, c, step) {
                        push(Some(c), &mut out);
                    }
                }
            }
            StepKind::Descendant => {
                // descendant-or-self::node() restricted to elements: text
                // nodes can never be selected by a subsequent β in X.
                if step.qualifier.is_none() {
                    push(ctx, &mut out);
                }
                let start = match ctx {
                    Some(n) => Some(n),
                    None => doc.root(),
                };
                if let Some(start) = start {
                    for d in doc.descendants_or_self(start) {
                        if doc.is_element(d) && qualifier_holds(doc, d, step) {
                            push(Some(d), &mut out);
                        }
                    }
                }
            }
        }
    }
    out
}

fn qualifier_holds(doc: &Document, node: NodeId, step: &Step) -> bool {
    match &step.qualifier {
        None => true,
        Some(q) => eval_qualifier(doc, node, q),
    }
}

/// Evaluates a qualifier at `node` — the semantics of `checkp(q, n)`:
/// true iff `n[[q]]` is non-empty (with comparisons existential over the
/// qualifier path's result).
pub fn eval_qualifier(doc: &Document, node: NodeId, q: &Qualifier) -> bool {
    match q {
        Qualifier::Exists(qp) => qpath_exists(doc, node, qp),
        Qualifier::Cmp(qp, op, lit) => {
            qpath_values(doc, node, qp, &mut |text| lit.compare(text, *op))
        }
        Qualifier::LabelIs(l) => match Interner::global().lookup(l) {
            Some(want) => doc.name_sym(node) == Some(want),
            None => false,
        },
        Qualifier::And(a, b) => eval_qualifier(doc, node, a) && eval_qualifier(doc, node, b),
        Qualifier::Or(a, b) => eval_qualifier(doc, node, a) || eval_qualifier(doc, node, b),
        Qualifier::Not(a) => !eval_qualifier(doc, node, a),
    }
}

fn qpath_exists(doc: &Document, node: NodeId, qp: &QPath) -> bool {
    let targets = eval_path(doc, node, &qp.path);
    match &qp.attr {
        None => !targets.is_empty(),
        Some(a) => targets.iter().any(|&t| doc.attr(t, a).is_some()),
    }
}

/// Feeds the comparable string value of each node selected by the
/// qualifier path to `pred`; returns true as soon as one satisfies it.
fn qpath_values(
    doc: &Document,
    node: NodeId,
    qp: &QPath,
    pred: &mut dyn FnMut(&str) -> bool,
) -> bool {
    let targets = eval_path(doc, node, &qp.path);
    for t in targets {
        match &qp.attr {
            Some(a) => {
                if let Some(v) = doc.attr(t, a) {
                    if pred(v) {
                        return true;
                    }
                }
            }
            None => {
                // The comparable value of an element is its immediate
                // text — QualDP case (5): `text() = s`.
                if pred(&doc.immediate_text(t)) {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_path, parse_qualifier};

    fn doc() -> Document {
        Document::parse(
            r#"<db><part><pname>keyboard</pname><supplier><sname>HP</sname><price>12</price><country>A</country></supplier><part><pname>key</pname></part></part><part><pname>mouse</pname><supplier><sname>IBM</sname><price>20</price><country>B</country></supplier></part></db>"#,
        )
        .unwrap()
    }

    fn names(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&n| doc.name(n).unwrap().to_string())
            .collect()
    }

    fn select(d: &Document, p: &str) -> Vec<NodeId> {
        eval_path(d, d.root().unwrap(), &parse_path(p).unwrap())
    }

    #[test]
    fn child_steps() {
        let d = doc();
        let r = select(&d, "part/pname");
        assert_eq!(names(&d, &r), ["pname", "pname"]);
    }

    #[test]
    fn descendant_step() {
        let d = doc();
        let r = select(&d, "//pname");
        assert_eq!(r.len(), 3);
        let r = select(&d, "//price");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn wildcard_step() {
        let d = doc();
        let r = select(&d, "part/*");
        // children of both top-level parts: pname, supplier, part, pname, supplier
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn descendant_includes_self() {
        let d = doc();
        // `.//part` from root: both top parts + nested part.
        let r = select(&d, "//part");
        assert_eq!(r.len(), 3);
        // From the document node, `//db` matches the root element itself.
        let r = eval_path_root(&d, &parse_path("//db").unwrap());
        assert_eq!(r.len(), 1);
        // `/db/part` from the document node selects the two top parts.
        let r = eval_path_root(&d, &parse_path("/db/part").unwrap());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn qualifier_string_eq() {
        let d = doc();
        let r = select(&d, "part[pname = 'keyboard']");
        assert_eq!(r.len(), 1);
        let r = select(&d, "part[pname = 'nosuch']");
        assert!(r.is_empty());
    }

    #[test]
    fn qualifier_numeric() {
        let d = doc();
        let r = select(&d, "part/supplier[price < 15]");
        assert_eq!(r.len(), 1);
        let r = select(&d, "part/supplier[price >= 12]");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn qualifier_exists() {
        let d = doc();
        let r = select(&d, "part[supplier]");
        assert_eq!(r.len(), 2);
        let r = select(&d, "part[widget]");
        assert!(r.is_empty());
    }

    #[test]
    fn qualifier_not_and_or() {
        let d = doc();
        let r = select(&d, "part[not(pname = 'keyboard')]");
        assert_eq!(r.len(), 1);
        let r = select(&d, "part[pname = 'keyboard' or pname = 'mouse']");
        assert_eq!(r.len(), 2);
        let r = select(&d, "part[supplier/sname = 'HP' and supplier/country = 'A']");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn paper_example_p1() {
        // Example 3.1: //part[pname='keyboard']//part[¬supplier/sname='HP'
        // ∧ ¬supplier/price<15] — nested part under keyboard has no
        // supplier at all, so both negations hold.
        let d = doc();
        let r = select(
            &d,
            "//part[pname = 'keyboard']//part[not(supplier/sname = 'HP') and not(supplier/price < 15)]",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(d.immediate_text(d.first_child(r[0]).unwrap()), "key");
    }

    #[test]
    fn dedup_overlapping_descendants() {
        let d = Document::parse("<a><b><b><c/></b></b></a>").unwrap();
        // //b//c: both b's reach the same c; result must be one node.
        let r = select(&d, "//b//c");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn attribute_qualifier() {
        let d = Document::parse(r#"<db><p id="p1"/><p id="p2"/><p/></db>"#).unwrap();
        let r = select(&d, "p[@id = 'p2']");
        assert_eq!(r.len(), 1);
        let r = select(&d, "p[@id]");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn label_qualifier() {
        let d = doc();
        let r = select(&d, "*[label() = part]");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn self_comparison() {
        let d = Document::parse("<db><x>v</x><x>w</x></db>").unwrap();
        let r = select(&d, "x[. = 'v']");
        assert_eq!(r.len(), 1);
        let r = select(&d, "x[text() = 'w']");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn empty_path_selects_context() {
        let d = doc();
        let root = d.root().unwrap();
        let r = eval_path(&d, root, &Path::empty());
        assert_eq!(r, vec![root]);
    }

    #[test]
    fn qualifier_attr_on_path() {
        let d = Document::parse(r#"<db><s id="3"><v/></s><s id="4"/></db>"#).unwrap();
        let q = parse_qualifier("s/@id = '3'").unwrap();
        assert!(eval_qualifier(&d, d.root().unwrap(), &q));
        let q = parse_qualifier("s/@id = '9'").unwrap();
        assert!(!eval_qualifier(&d, d.root().unwrap(), &q));
    }

    #[test]
    fn numeric_on_non_numeric_text_false() {
        let d = Document::parse("<db><x>abc</x></db>").unwrap();
        let r = select(&d, "x[. < 5]");
        assert!(r.is_empty());
        let r = select(&d, "x[. >= 5]");
        assert!(r.is_empty());
    }
}
