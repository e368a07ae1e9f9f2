//! The Naive Method (Section 3.1): rewrite the transform query into
//! standard XQuery.
//!
//! Two faithful realizations are provided:
//!
//! * [`rewrite_to_xquery`] emits the Fig.-2-style query text — a
//!   recursive copy function plus the membership test
//!   `some $x in $xp satisfies ($n is $x)` — which [`naive_xquery`] then
//!   runs on the `xust-xquery` engine. This is the paper's actual
//!   artifact: transform queries become executable on any XQuery 1.0
//!   engine with no update support.
//! * [`naive_direct`] implements the same plan natively (compute
//!   `$xp := doc(T)/p`, then a full recursive copy with a linear-scan
//!   membership test per node). It isolates the method's O(|T|·|$xp|)
//!   data complexity from interpreter overhead, which is what the
//!   Fig. 12/13 benchmarks need.
//!
//! Both share the defining performance trait the experiments show: cost
//! grows with |$xp| (U1: every person) and the *entire* tree is copied —
//! no pruning.

use xust_tree::{Document, NodeId, NodeKind};
use xust_xpath::eval_path_root;

use crate::query::{InsertPos, TransformQuery, UpdateOp};

/// Evaluates `Qt(T)` with the Naive plan, natively.
pub fn naive_direct(doc: &Document, q: &TransformQuery) -> Document {
    let mut out = Document::with_capacity_of(doc);
    let Some(root) = doc.root() else {
        return out;
    };
    // Step 1: $xp := doc(T)/p — the full selected node set.
    let xp = eval_path_root(doc, &q.path);
    // Step 2: recursive copy with membership test. The linear scan *is*
    // the point: the paper's rewritten query performs `$n ∈ $xp` per
    // node, and "unless the XQuery engine optimizes the test n ∈ $xp,
    // the rewritten queries are inefficient when the scope of the update
    // is broad".
    let produced = copy_rec(doc, &mut out, root, &xp, &q.op, true);
    if let Some(&r) = produced.first() {
        out.set_root(r);
    }
    out
}

fn copy_rec(
    src: &Document,
    out: &mut Document,
    n: NodeId,
    xp: &[NodeId],
    op: &UpdateOp,
    is_root: bool,
) -> Vec<NodeId> {
    match src.kind(n) {
        NodeKind::Text(t) => vec![out.create_text(t)],
        NodeKind::Element { name, .. } => {
            // The quadratic membership test (deliberately a linear scan).
            let selected = xp.contains(&n);
            if selected {
                match op {
                    UpdateOp::Delete => return Vec::new(),
                    UpdateOp::Replace { elem } => {
                        return match elem.root() {
                            Some(e_root) => vec![out.deep_copy_from(elem, e_root)],
                            None => Vec::new(),
                        }
                    }
                    _ => {}
                }
            }
            let out_name = match (selected, op) {
                (true, UpdateOp::Rename { name: new }) => *new,
                _ => name,
            };
            let node = out.copy_element_from(out_name, src, n);
            if selected {
                if let UpdateOp::Insert {
                    elem,
                    pos: InsertPos::FirstInto,
                } = op
                {
                    if let Some(e_root) = elem.root() {
                        let copy = out.deep_copy_from(elem, e_root);
                        out.append_child(node, copy);
                    }
                }
            }
            let children: Vec<NodeId> = src.children(n).collect();
            for c in children {
                for p in copy_rec(src, out, c, xp, op, false) {
                    out.append_child(node, p);
                }
            }
            if selected {
                match op {
                    UpdateOp::Insert {
                        elem,
                        pos: InsertPos::LastInto,
                    } => {
                        if let Some(e_root) = elem.root() {
                            let copy = out.deep_copy_from(elem, e_root);
                            out.append_child(node, copy);
                        }
                    }
                    UpdateOp::Insert { elem, pos } if pos.is_sibling() && !is_root => {
                        if let Some(e_root) = elem.root() {
                            let copy = out.deep_copy_from(elem, e_root);
                            return match pos {
                                InsertPos::Before => vec![copy, node],
                                InsertPos::After => vec![node, copy],
                                _ => unreachable!(),
                            };
                        }
                    }
                    _ => {}
                }
            }
            vec![node]
        }
    }
}

/// Emits the Fig.-2-style standard-XQuery rewriting of `q`.
///
/// The generated query uses only constructs any XQuery 1.0 engine
/// provides (modulo the two convenience builtins `is-element`/`children`
/// standing in for `self::element()` and `(*|@*|text())` axis steps).
pub fn rewrite_to_xquery(q: &TransformQuery) -> String {
    let doc_name = &q.doc_name;
    let path = q.path.to_string();
    let path_expr = if q.path.is_empty() {
        format!("doc(\"{doc_name}\")")
    } else if path.starts_with("//") {
        format!("doc(\"{doc_name}\"){path}")
    } else {
        format!("doc(\"{doc_name}\")/{path}")
    };
    let rebuild =
        "element {fn:local-name($n)} { for $c in children($n) return local:walk($c, $xp) }";
    let action = match &q.op {
        UpdateOp::Insert { elem, pos } => match pos {
            InsertPos::LastInto => format!(
                "element {{fn:local-name($n)}} {{ (for $c in children($n) return local:walk($c, $xp)), {} }}",
                elem.serialize()
            ),
            InsertPos::FirstInto => format!(
                "element {{fn:local-name($n)}} {{ {}, (for $c in children($n) return local:walk($c, $xp)) }}",
                elem.serialize()
            ),
            InsertPos::Before => format!("({}, {rebuild})", elem.serialize()),
            InsertPos::After => format!("({rebuild}, {})", elem.serialize()),
        },
        UpdateOp::Delete => "()".to_string(),
        UpdateOp::Replace { elem } => elem.serialize(),
        UpdateOp::Rename { name } => format!(
            "element {{\"{name}\"}} {{ for $c in children($n) return local:walk($c, $xp) }}"
        ),
    };
    // Sibling inserts are undefined at the root: the top-level call
    // rebuilds a selected root *without* emitting the sibling.
    let top = if matches!(&q.op, UpdateOp::Insert { pos, .. } if pos.is_sibling()) {
        format!("if (some $x in $xp satisfies ($n is $x)) then {rebuild} else local:walk($n, $xp)")
    } else {
        "local:walk($n, $xp)".to_string()
    };
    format!(
        r#"declare function local:walk($n, $xp) {{
  if (is-element($n))
  then if (some $x in $xp satisfies ($n is $x))
       then {action}
       else element {{fn:local-name($n)}} {{ for $c in children($n) return local:walk($c, $xp) }}
  else $n
}};
let $xp := {path_expr}
return document {{ for $n in doc("{doc_name}")/* return {top} }}"#
    )
}

/// Runs the rewritten query on the `xust-xquery` engine.
///
/// `doc` is loaded under the query's document name; the result is
/// materialized into a fresh [`Document`] (empty when the update deleted
/// the root).
pub fn naive_xquery(doc: &Document, q: &TransformQuery) -> Result<Document, String> {
    let query = rewrite_to_xquery(q);
    let mut engine = xust_xquery::Engine::new();
    engine.load_doc(q.doc_name.clone(), doc.clone());
    let v = engine.eval_str(&query).map_err(|e| e.to_string())?;
    if v.is_empty() {
        return Ok(Document::new());
    }
    engine.value_to_document(&v).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copy_update::copy_update;
    use xust_tree::docs_eq;
    use xust_xpath::parse_path;

    fn doc() -> Document {
        Document::parse(
            "<db><part><pname>keyboard</pname><supplier><sname>HP</sname><price>12</price></supplier></part><part><pname>mouse</pname><supplier><sname>IBM</sname><price>20</price></supplier></part></db>",
        )
        .unwrap()
    }

    fn agree_direct(q: &TransformQuery) {
        let d = doc();
        let expected = copy_update(&d, q);
        let got = naive_direct(&d, q);
        assert!(
            docs_eq(&expected, &got),
            "naive_direct disagrees for {} {}\nexpected: {}\ngot:      {}",
            q.op.kind(),
            q.path,
            expected.serialize(),
            got.serialize()
        );
    }

    fn agree_xquery(q: &TransformQuery) {
        let d = doc();
        let expected = copy_update(&d, q);
        let got = naive_xquery(&d, q).unwrap();
        assert!(
            docs_eq(&expected, &got),
            "naive_xquery disagrees for {} {}\nexpected: {}\ngot:      {}\nquery:\n{}",
            q.op.kind(),
            q.path,
            expected.serialize(),
            got.serialize(),
            rewrite_to_xquery(q)
        );
    }

    #[test]
    fn direct_matches_baseline_all_ops() {
        let e = Document::parse("<mark x=\"1\"/>").unwrap();
        for p in [
            "//price",
            "db/part[pname = 'mouse']",
            "//supplier[price < 15]",
            "zzz",
        ] {
            let path = parse_path(p).unwrap();
            agree_direct(&TransformQuery::delete("d", path.clone()));
            agree_direct(&TransformQuery::insert("d", path.clone(), e.clone()));
            agree_direct(&TransformQuery::replace("d", path.clone(), e.clone()));
            agree_direct(&TransformQuery::rename("d", path, "rn"));
        }
    }

    #[test]
    fn xquery_rewriting_matches_baseline_all_ops() {
        let e = Document::parse("<mark><inner>t</inner></mark>").unwrap();
        for p in [
            "//price",
            "db/part[pname = 'mouse']",
            "//supplier[price < 15]",
        ] {
            let path = parse_path(p).unwrap();
            agree_xquery(&TransformQuery::delete("d", path.clone()));
            agree_xquery(&TransformQuery::insert("d", path.clone(), e.clone()));
            agree_xquery(&TransformQuery::replace("d", path.clone(), e.clone()));
            agree_xquery(&TransformQuery::rename("d", path, "rn"));
        }
    }

    #[test]
    fn generated_query_shape() {
        let q = TransformQuery::insert(
            "foo",
            parse_path("//part").unwrap(),
            Document::parse("<e/>").unwrap(),
        );
        let text = rewrite_to_xquery(&q);
        assert!(text.contains("declare function local:walk"));
        assert!(text.contains("some $x in $xp satisfies ($n is $x)"));
        assert!(text.contains("let $xp := doc(\"foo\")//part"));
        // It parses as a valid module of our engine.
        xust_xquery::parse_module(&text).unwrap();
    }

    #[test]
    fn example_11_delete_price_via_xquery() {
        // The motivating query: all information except price.
        let q = TransformQuery::delete("d", parse_path("//price").unwrap());
        let out = naive_xquery(&doc(), &q).unwrap();
        assert!(!out.serialize().contains("price"));
        assert!(out.serialize().contains("keyboard"));
    }

    #[test]
    fn delete_root_via_both() {
        let q = TransformQuery::delete("d", parse_path("//db").unwrap());
        assert_eq!(naive_direct(&doc(), &q).root(), None);
        assert_eq!(naive_xquery(&doc(), &q).unwrap().root(), None);
    }

    #[test]
    fn attributes_preserved_through_xquery_roundtrip() {
        let d = Document::parse(r#"<db><p id="p1" k="v"><c/></p></db>"#).unwrap();
        let q = TransformQuery::insert(
            "d",
            parse_path("db/p").unwrap(),
            Document::parse("<n/>").unwrap(),
        );
        let expected = copy_update(&d, &q);
        let mut engine = xust_xquery::Engine::new();
        engine.load_doc("d", d);
        let v = engine.eval_str(&rewrite_to_xquery(&q)).unwrap();
        let got = engine.value_to_document(&v).unwrap();
        assert!(docs_eq(&expected, &got), "got {}", got.serialize());
    }
}
