//! Cross-method equivalence: on random documents and random X updates,
//! all evaluation methods must agree with the copy-and-update baseline
//! (the literal semantics of Section 2). This is the central correctness
//! property of the reproduction. The generators live in
//! `tests/common/mod.rs`, shared with `tests/parallel_equivalence.rs`.

mod common;

use common::{arb_doc, arb_op, arb_path, build_query, build_query_text};
use proptest::prelude::*;

use xust::core::{evaluate, parse_transform, CompiledTransform, Method};
use xust::tree::{docs_eq, Document, Serialized};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn all_methods_agree_with_baseline(doc in arb_doc(), path in arb_path(), op in arb_op()) {
        let q = build_query(&path, op);
        let reference = evaluate(&doc, &q, Method::CopyUpdate).unwrap();
        for m in [
            Method::Naive,
            Method::NaiveXQuery,
            Method::TopDown,
            Method::TwoPass,
            Method::TwoPassSax,
        ] {
            let got = evaluate(&doc, &q, m).unwrap();
            prop_assert!(
                docs_eq(&reference, &got),
                "{m} disagrees on {} {} over {}:\nexpected {}\ngot      {}",
                q.op.kind(),
                q.path,
                doc.serialize(),
                reference.serialize(),
                got.serialize()
            );
        }
        // The streamed reply path writes the same bytes, with no result
        // tree in between, whether it walks unaffected subtrees or
        // copies them out of the document's serialized index.
        let expected = reference.serialize();
        let ct = CompiledTransform::compile(q.clone());
        let index = Serialized::build(&doc).unwrap();
        for (m, index) in [Method::TopDown, Method::TwoPass]
            .into_iter()
            .flat_map(|m| [(m, None), (m, Some(&index))])
        {
            let mut got = String::new();
            ct.evaluate_into(&doc, index, m, &mut got).unwrap();
            prop_assert_eq!(
                &got,
                &expected,
                "streamed {} disagrees on {} {} over {}",
                m,
                q.op.kind(),
                q.path,
                doc.serialize()
            );
        }
    }

    #[test]
    fn transform_is_non_destructive(doc in arb_doc(), path in arb_path(), op in arb_op()) {
        let q = build_query(&path, op);
        let before = doc.serialize();
        let _ = evaluate(&doc, &q, Method::TwoPass).unwrap();
        let _ = evaluate(&doc, &q, Method::TopDown).unwrap();
        prop_assert_eq!(doc.serialize(), before);
    }

    #[test]
    fn serialization_roundtrip(doc in arb_doc()) {
        let text = doc.serialize();
        let reparsed = Document::parse(&text).unwrap();
        prop_assert!(docs_eq(&doc, &reparsed));
        prop_assert_eq!(reparsed.serialize(), text);
    }

    /// The textual rendering used by the service-level differential
    /// tests parses back to the programmatic query.
    #[test]
    fn textual_queries_roundtrip(path in arb_path(), op in arb_op()) {
        let text = build_query_text("d", &path, op);
        let parsed = parse_transform(&text)
            .unwrap_or_else(|e| panic!("generated syntax rejected: {text}: {e}"));
        let built = build_query(&path, op);
        prop_assert_eq!(parsed.path.to_string(), built.path.to_string());
        prop_assert_eq!(parsed.op.kind(), built.op.kind());
    }
}
