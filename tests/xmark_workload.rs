//! End-to-end runs of the paper's experimental workload (Fig. 11) on
//! generated XMark data: every method agrees on every Uᵢ, and the
//! composition pairs of Section 7.2 agree with sequential evaluation.

use xust::compose::{compose, naive_composition_to_string, UserQuery};
use xust::core::{evaluate, two_pass_sax_str, LdStorage, Method, TransformQuery};
use xust::tree::{docs_eq, Document};
use xust::xmark::{generate, XmarkConfig};
use xust::xpath::parse_path;

/// The embedded XPath expressions U1–U10 of Fig. 11, verbatim.
pub const WORKLOAD: [&str; 10] = [
    "/site/people/person",
    "/site/people/person[@id = \"person10\"]",
    "/site/people/person[profile/age > 20]",
    "/site/regions//item",
    "/site//description",
    "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword",
    "/site/open_auctions/open_auction[bidder/increase>5]/annotation[happiness < 20]/description//text",
    "/site/open_auctions/open_auction[initial > 10 and reserve >50]/bidder",
    "/site/regions//item[location =\"United States\"]",
    "/site//open_auctions/open_auction[not(@id =\"open_auction2\")]/bidder[increase > 10]",
];

fn small_doc() -> Document {
    generate(XmarkConfig::new(0.004))
}

fn insert_query(path: &str) -> TransformQuery {
    TransformQuery::insert(
        "xmark",
        parse_path(path).unwrap(),
        Document::parse("<annotation-mark><by>xust</by></annotation-mark>").unwrap(),
    )
}

#[test]
fn all_methods_agree_on_all_workload_queries() {
    let doc = small_doc();
    for (i, path) in WORKLOAD.iter().enumerate() {
        let q = insert_query(path);
        let reference = evaluate(&doc, &q, Method::CopyUpdate).unwrap();
        // NaiveXQuery is exercised separately (it is slow at this size).
        for m in [
            Method::Naive,
            Method::TopDown,
            Method::TwoPass,
            Method::TwoPassSax,
        ] {
            let got = evaluate(&doc, &q, m).unwrap();
            assert!(
                docs_eq(&reference, &got),
                "U{} ({path}): {m} disagrees with baseline",
                i + 1
            );
        }
    }
}

#[test]
fn delete_variants_agree_too() {
    let doc = small_doc();
    for path in [WORKLOAD[1], WORKLOAD[6], WORKLOAD[8]] {
        let q = TransformQuery::delete("xmark", parse_path(path).unwrap());
        let reference = evaluate(&doc, &q, Method::CopyUpdate).unwrap();
        for m in [
            Method::Naive,
            Method::TopDown,
            Method::TwoPass,
            Method::TwoPassSax,
        ] {
            let got = evaluate(&doc, &q, m).unwrap();
            assert!(docs_eq(&reference, &got), "{path}: {m} disagrees");
        }
    }
}

#[test]
fn naive_xquery_agrees_on_selective_queries() {
    let doc = generate(XmarkConfig::new(0.001));
    for path in [WORKLOAD[1], WORKLOAD[5]] {
        let q = insert_query(path);
        let reference = evaluate(&doc, &q, Method::CopyUpdate).unwrap();
        let got = evaluate(&doc, &q, Method::NaiveXQuery).unwrap();
        assert!(docs_eq(&reference, &got), "{path}: NaiveXQuery disagrees");
    }
}

#[test]
fn streaming_equals_dom_on_xmark() {
    let doc = small_doc();
    let xml = doc.serialize();
    for path in [WORKLOAD[3], WORKLOAD[7]] {
        let q = insert_query(path);
        let dom = evaluate(&doc, &q, Method::TwoPass).unwrap().serialize();
        let streamed = two_pass_sax_str(&xml, &q).unwrap();
        assert_eq!(dom, streamed, "{path}: twoPassSAX differs from TD-BU");
    }
    // File-backed Ld produces byte-identical output.
    let q = insert_query(WORKLOAD[6]);
    let mut a = Vec::new();
    let mut b = Vec::new();
    xust::core::two_pass_sax(
        xust::sax::SaxParser::from_str(&xml),
        xust::sax::SaxParser::from_str(&xml),
        &q,
        &mut a,
        LdStorage::Memory,
    )
    .unwrap();
    xust::core::two_pass_sax(
        xust::sax::SaxParser::from_str(&xml),
        xust::sax::SaxParser::from_str(&xml),
        &q,
        &mut b,
        LdStorage::TempFile,
    )
    .unwrap();
    assert_eq!(a, b);
}

/// The four transform/user pairs of Section 7.2.
fn composition_pairs() -> Vec<(TransformQuery, UserQuery)> {
    let user = |path: &str| {
        UserQuery::parse(&format!(
            "<result>{{ for $x in doc(\"xmark\"){path} return $x }}</result>"
        ))
        .unwrap()
    };
    vec![
        // (U1 insert, U2 user)
        (insert_query(WORKLOAD[0]), user(WORKLOAD[1])),
        // (U9 insert, U1 user)
        (insert_query(WORKLOAD[8]), user(WORKLOAD[0])),
        // (U9 delete, U4 user)
        (
            TransformQuery::delete("xmark", parse_path(WORKLOAD[8]).unwrap()),
            user(WORKLOAD[3]),
        ),
        // (U8 delete, U10 user)
        (
            TransformQuery::delete("xmark", parse_path(WORKLOAD[7]).unwrap()),
            user(WORKLOAD[9]),
        ),
    ]
}

#[test]
fn fig15_pairs_composed_equals_sequential() {
    let doc = small_doc();
    for (i, (qt, uq)) in composition_pairs().into_iter().enumerate() {
        let qc = compose(&qt, &uq).unwrap_or_else(|e| panic!("pair {i}: {e}"));
        let composed = qc.execute_to_string(&doc).unwrap();
        let sequential = naive_composition_to_string(&doc, &qt, &uq).unwrap();
        assert_eq!(
            composed, sequential,
            "pair {i}: Qc(T) != Q(Qt(T)) (fallbacks: {})",
            qc.fallback_sites
        );
    }
}

#[test]
fn u9_u1_pair_is_fully_static() {
    // The paper's standout case: user query disjoint from the transform.
    let (qt, uq) = composition_pairs().swap_remove(1);
    let qc = compose(&qt, &uq).unwrap();
    assert_eq!(
        qc.transform_sites(),
        0,
        "U9⊥U1 should compose away the transform entirely"
    );
}

#[test]
fn insert_positions_agree_on_workload_sample() {
    use xust::core::InsertPos;
    let doc = small_doc();
    let e = Document::parse("<mark/>").unwrap();
    // U2 (point), U4 (descendant), U9 (descendant + qualifier).
    for path in [WORKLOAD[1], WORKLOAD[3], WORKLOAD[8]] {
        for pos in [InsertPos::FirstInto, InsertPos::Before, InsertPos::After] {
            let q = TransformQuery::insert_at("xmark", parse_path(path).unwrap(), e.clone(), pos);
            let reference = evaluate(&doc, &q, Method::CopyUpdate).unwrap();
            for m in [
                Method::Naive,
                Method::TopDown,
                Method::TwoPass,
                Method::TwoPassSax,
            ] {
                let got = evaluate(&doc, &q, m).unwrap();
                assert!(
                    docs_eq(&reference, &got),
                    "{path} {pos}: {m} disagrees with baseline"
                );
            }
        }
    }
}

#[test]
fn multi_update_workload_dom_and_stream_agree() {
    use xust::core::{
        multi_snapshot, multi_top_down, multi_two_pass_sax_str, MultiTransformQuery, UpdateOp,
    };
    let doc = small_doc();
    let mq = MultiTransformQuery::new(
        "xmark",
        vec![
            (
                parse_path("/site/people/person/creditcard").unwrap(),
                UpdateOp::Delete,
            ),
            (
                parse_path(WORKLOAD[8]).unwrap(),
                UpdateOp::Insert {
                    elem: Document::parse("<flag/>").unwrap(),
                    pos: xust::core::InsertPos::FirstInto,
                },
            ),
            (
                parse_path("/site/closed_auctions").unwrap(),
                UpdateOp::Rename {
                    name: "archive".into(),
                },
            ),
        ],
    );
    let reference = multi_snapshot(&doc, &mq);
    let fused = multi_top_down(&doc, &mq);
    assert!(docs_eq(&reference, &fused), "fused multi deviates on XMark");
    let streamed = multi_two_pass_sax_str(&doc.serialize(), &mq).unwrap();
    assert_eq!(
        streamed,
        reference.serialize(),
        "streamed multi deviates on XMark"
    );
    assert!(!streamed.contains("creditcard"));
    assert!(streamed.contains("<archive>"));
}

/// Selections come back in document order: on an XMark document, each
/// path's `r[[p]]` equals the preorder walk filtered to the nodes it
/// selects — including `//` paths whose later steps see nested contexts
/// (anchor-major before sorting, with the same node reached from
/// several anchors).
#[test]
fn descendant_selections_come_back_in_document_order() {
    use xust::xpath::eval_path_root;
    let doc = small_doc();
    let root = doc.root().unwrap();
    let named = |n, label: &str| doc.name(n) == Some(label);
    let under = |n, label: &str| doc.ancestors(n).any(|a| named(a, label));
    let cases: [(&str, &dyn Fn(_) -> bool); 3] = [
        ("//keyword", &|n| named(n, "keyword")),
        ("//listitem//keyword", &|n| {
            named(n, "keyword") && under(n, "listitem")
        }),
        ("/site//description", &|n| named(n, "description")),
    ];
    for (path, selects) in cases {
        let expected: Vec<_> = doc
            .descendants_or_self(root)
            .filter(|&n| selects(n))
            .collect();
        assert!(
            expected.len() > 1,
            "{path}: the document must exercise the sort"
        );
        assert_eq!(
            eval_path_root(&doc, &parse_path(path).unwrap()),
            expected,
            "{path}"
        );
    }
}
