//! Multi-update transforms (snapshot semantics): the fused k-automaton
//! plan must agree with the reference snapshot plan on random documents
//! and random update lists, and degenerate lists must agree with the
//! single-update methods.

use proptest::prelude::*;

use xust::core::{
    evaluate, multi_snapshot, multi_top_down, parse_multi_transform, InsertPos, Method,
    MultiTransformQuery, TransformQuery, UpdateOp,
};
use xust::tree::{docs_eq, Document, ElementBuilder};
use xust::xpath::parse_path;

const LABELS: [&str; 4] = ["a", "b", "c", "d"];
const TEXTS: [&str; 3] = ["x", "10", "A"];

fn arb_tree(depth: u32) -> impl Strategy<Value = ElementBuilder> {
    let leaf = (0..LABELS.len(), proptest::option::of(0..TEXTS.len())).prop_map(|(l, t)| {
        let mut b = ElementBuilder::new(LABELS[l]);
        if let Some(t) = t {
            b = b.text(TEXTS[t]);
        }
        b
    });
    leaf.prop_recursive(depth, 24, 4, |inner| {
        (0..LABELS.len(), prop::collection::vec(inner, 0..4)).prop_map(|(l, children)| {
            let mut b = ElementBuilder::new(LABELS[l]);
            for c in children {
                b = b.child(c);
            }
            b
        })
    })
}

fn arb_doc() -> impl Strategy<Value = Document> {
    arb_tree(3).prop_map(|b| ElementBuilder::new("r").child(b).build_document())
}

fn arb_path() -> impl Strategy<Value = String> {
    let step = prop_oneof![
        (0..LABELS.len()).prop_map(|l| LABELS[l].to_string()),
        Just("*".to_string()),
    ];
    let qual = prop_oneof![
        (0..LABELS.len()).prop_map(|l| format!("[{}]", LABELS[l])),
        (0..LABELS.len(), 0..TEXTS.len())
            .prop_map(|(l, t)| format!("[{} = '{}']", LABELS[l], TEXTS[t])),
    ];
    (
        prop::collection::vec((step, proptest::option::of(qual), prop::bool::ANY), 1..3),
        prop::bool::ANY,
    )
        .prop_map(|(steps, lead_desc)| {
            let mut out = String::from(if lead_desc { "//" } else { "r/" });
            for (i, (s, q, desc)) in steps.iter().enumerate() {
                if i > 0 {
                    out.push_str(if *desc { "//" } else { "/" });
                }
                out.push_str(s);
                if let Some(q) = q {
                    out.push_str(q);
                }
            }
            out
        })
}

fn op_of(tag: u8) -> UpdateOp {
    let e = Document::parse("<ins><v>1</v></ins>").unwrap();
    match tag {
        0 => UpdateOp::Delete,
        1 => UpdateOp::Insert {
            elem: e,
            pos: InsertPos::LastInto,
        },
        2 => UpdateOp::Insert {
            elem: e,
            pos: InsertPos::FirstInto,
        },
        3 => UpdateOp::Insert {
            elem: e,
            pos: InsertPos::Before,
        },
        4 => UpdateOp::Insert {
            elem: e,
            pos: InsertPos::After,
        },
        5 => UpdateOp::Replace { elem: e },
        _ => UpdateOp::Rename { name: "rn".into() },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    #[test]
    fn fused_plan_matches_snapshot_plan(
        doc in arb_doc(),
        updates in prop::collection::vec((arb_path(), 0u8..7), 1..4),
    ) {
        let mq = MultiTransformQuery::new(
            "d",
            updates
                .iter()
                .map(|(p, t)| (parse_path(p).unwrap(), op_of(*t)))
                .collect(),
        );
        let reference = multi_snapshot(&doc, &mq);
        let fused = multi_top_down(&doc, &mq);
        prop_assert!(
            docs_eq(&reference, &fused),
            "plans disagree for {:?} over {}:\nsnapshot {}\nfused    {}",
            updates,
            doc.serialize(),
            reference.serialize(),
            fused.serialize()
        );
    }

    #[test]
    fn streaming_multi_matches_snapshot_plan(
        doc in arb_doc(),
        updates in prop::collection::vec((arb_path(), 0u8..7), 1..4),
    ) {
        let mq = MultiTransformQuery::new(
            "d",
            updates
                .iter()
                .map(|(p, t)| (parse_path(p).unwrap(), op_of(*t)))
                .collect(),
        );
        let reference = multi_snapshot(&doc, &mq).serialize();
        let streamed =
            xust::core::multi_two_pass_sax_str(&doc.serialize(), &mq).unwrap();
        prop_assert_eq!(
            streamed,
            reference,
            "streaming multi deviates for {:?} over {}",
            updates,
            doc.serialize()
        );
    }

    #[test]
    fn singleton_list_matches_single_update_methods(
        doc in arb_doc(),
        path in arb_path(),
        tag in 0u8..7,
    ) {
        let p = parse_path(&path).unwrap();
        let single = TransformQuery {
            var: "a".into(),
            doc_name: "d".into(),
            path: p.clone(),
            op: op_of(tag),
        };
        let expect = evaluate(&doc, &single, Method::CopyUpdate).unwrap();
        let got = multi_top_down(&doc, &MultiTransformQuery::new("d", vec![(p, single.op)]));
        prop_assert!(
            docs_eq(&expect, &got),
            "singleton multi deviates on {tag} {path} over {}",
            doc.serialize()
        );
    }
}

#[test]
fn parse_multi_list_roundtrip() {
    let q = parse_multi_transform(
        r#"transform copy $a := doc("T") modify do (
            delete $a//price,
            insert <flag/> as first into $a//part[pname = 'kb'],
            rename $a/db as catalog,
            replace $a//secret with <hidden/>
        ) return $a"#,
    )
    .unwrap();
    assert_eq!(q.doc_name, "T");
    assert_eq!(q.updates.len(), 4);
    assert!(matches!(q.updates[0].1, UpdateOp::Delete));
    assert!(matches!(
        q.updates[1].1,
        UpdateOp::Insert {
            pos: InsertPos::FirstInto,
            ..
        }
    ));
    assert!(matches!(q.updates[2].1, UpdateOp::Rename { .. }));
    assert!(matches!(q.updates[3].1, UpdateOp::Replace { .. }));
    assert_eq!(q.updates[0].0.to_string(), "//price");
    assert_eq!(q.updates[2].0.to_string(), "db");
}

#[test]
fn parse_multi_accepts_single_update() {
    let q =
        parse_multi_transform(r#"transform copy $a := doc("T") modify do delete $a//x return $a"#)
            .unwrap();
    assert_eq!(q.updates.len(), 1);
}

#[test]
fn parse_multi_rejects_malformed_lists() {
    for bad in [
        // empty list
        r#"transform copy $a := doc("T") modify do () return $a"#,
        // trailing comma
        r#"transform copy $a := doc("T") modify do (delete $a/x,) return $a"#,
        // missing close paren
        r#"transform copy $a := doc("T") modify do (delete $a/x return $a"#,
        // stray comma without parens
        r#"transform copy $a := doc("T") modify do delete $a/x, delete $a/y return $a"#,
    ] {
        assert!(parse_multi_transform(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn qualifier_with_parens_inside_list() {
    let q = parse_multi_transform(
        r#"transform copy $a := doc("T") modify do (
            delete $a//part[not(supplier) and pname = 'a,b'],
            delete $a//other
        ) return $a"#,
    )
    .unwrap();
    assert_eq!(q.updates.len(), 2);
    assert!(q.updates[0].0.to_string().contains("not"));
}

#[test]
fn multi_on_xmark_sample() {
    // A realistic compound: strip all prices, tag every item, rename the
    // people section — one pass, snapshot semantics.
    let xml = xust::xmark::generate_string(xust::xmark::XmarkConfig::new(0.002).with_seed(42));
    let doc = Document::parse(&xml).unwrap();
    let mq = parse_multi_transform(
        r#"transform copy $a := doc("x") modify do (
            delete $a//price,
            insert <audited/> as first into $a/site/regions//item,
            rename $a/site/people as persons
        ) return $a"#,
    )
    .unwrap();
    let out = multi_top_down(&doc, &mq);
    let ser = out.serialize();
    assert!(!ser.contains("<price>"));
    assert!(ser.contains("<audited/>"));
    assert!(ser.contains("<persons>"));
    assert!(docs_eq(&out, &multi_snapshot(&doc, &mq)));
}
