//! Differential update-fuzz harness for the live write path.
//!
//! The server's `UPDATE` verb applies deltas destructively and keeps
//! provably-unaffected cached view results alive by *maintaining* them
//! (applying the same delta to the cached materialization) instead of
//! recomputing. That retention decision is the thing that can be subtly
//! wrong, so this suite is differential: a reference document is
//! maintained outside the server by applying the identical updates with
//! the core primitives, and after **every** write, **every** registered
//! view served by the server — whether it came from a maintained cache
//! entry, a fresh materialization, or a recompute after invalidation —
//! must be byte-identical to a full `two_pass` recompute over the
//! reference, across shard layouts {1, 8} — and, for the multi-document
//! interleaved fuzzer, {1, 2, 8}.
//!
//! Deterministic companions pin down the cache-retention contract
//! itself: retention must actually fire on disjoint-label workloads
//! (`delta_retained > 0`, served-from-cache hits), an intersecting delta
//! must never be retained, a write to one document must never drop
//! entries for any other document — same store shard or not (the result
//! cache is keyed by per-document versions and sharded per document, so
//! the old shard-epoch `stale` path is structurally gone) — and a
//! removed document's retired versions can never resurrect old entries.

mod common;

use proptest::prelude::*;

use common::{arb_op, build_query_text_renaming};
use xust::core::{apply_update, evaluate, parse_multi_transform, parse_transform, Method};
use xust::serve::{Request, Server};
use xust::tree::Document;
use xust::xmark::{generate_string, XmarkConfig};
use xust::xpath::eval_path_root;

/// A spike region with a vocabulary fully disjoint from both the XMark
/// labels and every registered view's alphabet, grafted into the
/// generated document right inside `<site>`.
const SPIKE: &str = concat!(
    "<spike-zone><sa><sc>10</sc></sa>",
    "<sb><sc>20</sc><zap>x</zap></sb><sa/></spike-zone>"
);

fn spiked_xmark(seed: u64) -> Document {
    let base = generate_string(XmarkConfig::new(0.0005).with_seed(seed));
    let open_end = base.find('>').expect("xmark has a root tag") + 1;
    let spiked = format!("{}{}{}", &base[..open_end], SPIKE, &base[open_end..]);
    Document::parse(&spiked).expect("spiked xmark parses")
}

/// The registered views: name → chain of transform links. A mix of
/// single transforms, a qualifier, and a two-link chain, all over XMark
/// vocabulary (never the spike vocabulary — that is what makes spike
/// writes provably irrelevant to them).
const VIEWS: [(&str, &[&str]); 4] = [
    (
        "noperson",
        &[r#"transform copy $a := doc("xmark") modify do delete $a//person return $a"#],
    ),
    (
        "kwren",
        &[r#"transform copy $a := doc("xmark") modify do rename $a//keyword as kw return $a"#],
    ),
    (
        "cheapbids",
        &[
            r#"transform copy $a := doc("xmark") modify do delete $a//bidder[increase > 5] return $a"#,
        ],
    ),
    (
        "chain2",
        &[
            r#"transform copy $a := doc("xmark") modify do delete $a//emph return $a"#,
            r#"transform copy $a := doc("xmark") modify do rename $a//bold as b return $a"#,
        ],
    ),
];

fn register_views(server: &Server) {
    for (name, links) in VIEWS {
        server.register_view_chain(name, links).unwrap();
    }
}

/// Full recompute of a view chain over `base` via `two_pass` — the
/// differential oracle the served bytes must match.
fn recompute_view(base: &Document, links: &[&str]) -> String {
    let mut current = base.clone();
    for link in links {
        let q = parse_transform(link).unwrap();
        current = evaluate(&current, &q, Method::TwoPass).unwrap();
    }
    current.serialize()
}

/// Applies one update text to the reference document exactly the way
/// the server's write path does: each embedded update in order, targets
/// evaluated against the current tree.
fn apply_to_reference(reference: &mut Document, update: &str) {
    let mq = parse_multi_transform(update).unwrap();
    for (path, op) in &mq.updates {
        let targets = eval_path_root(reference, path);
        apply_update(reference, &targets, op);
    }
}

/// Update target paths: spike-region paths (disjoint from every view)
/// and XMark paths (which collide with view alphabets and force
/// recomputation). Paths are relative — `build_query_text` grafts them
/// onto `$a`. The qualifier-bearing entries read labels that renames
/// can *mint* (`sa`, `sc` are rename targets below), so a sequence can
/// rename a node and then qualify on its new name — the shape that
/// catches stale touched-label footprints in retained entries.
const UPDATE_PATHS: [&str; 12] = [
    "//spike-zone//sa",
    "//spike-zone/sb[sc]",
    "//sc[. = '10']",
    "//zap",
    "//sb",
    "//spike-zone/sb[sa > 15]",
    "//sa[sc]",
    "site/people/person",
    "//bidder",
    "//keyword",
    "//item[location = 'United States']",
    "//emph",
];

/// New names the fuzzer's renames use. Unlike the fixed `rn` of
/// `build_query_text`, most of these are labels other pool paths *read*
/// (in qualifiers or as steps), so rename→qualify sequences exercise
/// the footprint-remapping path of retention.
const RENAME_NAMES: [&str; 4] = ["rn", "sa", "sc", "zap"];

fn check_all_views_of(
    server: &Server,
    doc: &str,
    reference: &Document,
    context: &str,
) -> Result<(), TestCaseError> {
    check_views_of(server, &VIEWS, doc, reference, context)
}

/// Every view of `views`, served for `doc`, equals a full recompute
/// over `reference`.
fn check_views_of(
    server: &Server,
    views: &[(&str, &[&str])],
    doc: &str,
    reference: &Document,
    context: &str,
) -> Result<(), TestCaseError> {
    for &(name, links) in views {
        let served = server
            .handle(&Request::View {
                view: name.into(),
                doc: doc.into(),
            })
            .unwrap()
            .body;
        let expected = recompute_view(reference, links);
        prop_assert_eq!(
            &served,
            &expected,
            "view '{}' of doc '{}' diverged from full two_pass recompute ({})",
            name,
            doc,
            context
        );
    }
    Ok(())
}

fn check_all_views(
    server: &Server,
    reference: &Document,
    context: &str,
) -> Result<(), TestCaseError> {
    check_all_views_of(server, "xmark", reference, context)
}

proptest! {
    // 256 random update sequences — the acceptance bar for the
    // differential harness. `PROPTEST_CASES` may cap this for quick CI
    // smoke runs; the dedicated CI job runs the full count.
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The core differential property: incremental maintenance output is
    /// byte-identical to full recompute for every registered view after
    /// every write, for shard layouts {1, 8}.
    #[test]
    fn maintained_views_equal_full_recompute(
        seed in 0u64..64,
        updates in prop::collection::vec(
            (0..UPDATE_PATHS.len(), arb_op(), 0..RENAME_NAMES.len()),
            1..4,
        ),
    ) {
        let base = spiked_xmark(seed);
        for shards in [1usize, 8] {
            let server = Server::builder().threads(2).shards(shards).build();
            server.load_doc("xmark", base.clone());
            register_views(&server);
            let mut reference = base.clone();
            // Warm the result cache so writes have entries to maintain.
            check_all_views(&server, &reference, "before any write")?;
            for (round, &(path_idx, op, name_idx)) in updates.iter().enumerate() {
                let text = build_query_text_renaming(
                    "xmark",
                    UPDATE_PATHS[path_idx],
                    op,
                    RENAME_NAMES[name_idx],
                );
                let resp = server.update_doc("xmark", &text).unwrap();
                prop_assert!(resp.body.starts_with("updated xmark epoch="));
                apply_to_reference(&mut reference, &text);
                let ctx = format!(
                    "shards={} round={} update={}",
                    shards, round, text
                );
                check_all_views(&server, &reference, &ctx)?;
            }
            prop_assert_eq!(server.store().active_snapshots(), 0);
        }
    }
}

/// Names chosen so FNV-1a spreads them over >1 shard at 2 and 8 shards
/// (asserted inside the test): interleaved writes land on same-shard
/// *and* cross-shard neighbours in every layout.
const MULTI_DOCS: [&str; 3] = ["alpha", "beta", "gamma"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The multi-document differential property: interleaved writes to
    /// several documents — hammering one doc, alternating, whatever the
    /// fuzzer picks — keep **every** view of **every** document
    /// byte-identical to full recompute after **every** write, across
    /// shard layouts {1, 2, 8}. Same-shard neighbours are the
    /// interesting case (their entries used to be collateral damage of
    /// the shard epoch); cross-shard ones keep the old guarantee.
    #[test]
    fn multi_doc_interleaved_writes_stay_differential(
        seed in 0u64..32,
        writes in prop::collection::vec(
            (
                0..MULTI_DOCS.len(),
                0..UPDATE_PATHS.len(),
                arb_op(),
                0..RENAME_NAMES.len(),
            ),
            1..5,
        ),
    ) {
        let bases: Vec<Document> = (0..MULTI_DOCS.len() as u64)
            .map(|i| spiked_xmark(seed * 3 + i))
            .collect();
        for shards in [1usize, 2, 8] {
            let server = Server::builder().threads(2).shards(shards).build();
            for (name, base) in MULTI_DOCS.iter().zip(&bases) {
                server.load_doc(*name, base.clone());
            }
            if shards > 1 {
                let store = server.store();
                let spread: std::collections::HashSet<usize> =
                    MULTI_DOCS.iter().map(|n| store.shard_of(n)).collect();
                prop_assert!(spread.len() > 1, "docs must span shards at {shards}");
            }
            register_views(&server);
            let mut references = bases.clone();
            // Warm every (view, doc) entry so writes have neighbours'
            // entries to (not) disturb.
            for (doc, reference) in MULTI_DOCS.iter().zip(&references) {
                check_all_views_of(&server, doc, reference, "warm-up")?;
            }
            for (round, &(doc_idx, path_idx, op, name_idx)) in writes.iter().enumerate() {
                let doc = MULTI_DOCS[doc_idx];
                let text = build_query_text_renaming(
                    doc,
                    UPDATE_PATHS[path_idx],
                    op,
                    RENAME_NAMES[name_idx],
                );
                server.update_doc(doc, &text).unwrap();
                apply_to_reference(&mut references[doc_idx], &text);
                for (other, reference) in MULTI_DOCS.iter().zip(&references) {
                    let ctx = format!(
                        "shards={shards} round={round} wrote={doc} checking={other} update={text}"
                    );
                    check_all_views_of(&server, other, reference, &ctx)?;
                }
            }
            // Writes examined only the documents they targeted.
            let written: std::collections::HashSet<&str> = writes
                .iter()
                .map(|&(i, _, _, _)| MULTI_DOCS[i])
                .collect();
            for (doc, _, _, _, _) in &server.stats().doc_delta {
                prop_assert!(
                    written.contains(doc.as_str()),
                    "unwritten doc '{}' has a delta row",
                    doc
                );
            }
            prop_assert_eq!(server.store().active_snapshots(), 0);
        }
    }
}

#[test]
fn retention_fires_on_disjoint_label_workloads() {
    let base = spiked_xmark(7);
    let server = Server::builder().threads(2).shards(1).build();
    server.load_doc("xmark", base.clone());
    register_views(&server);
    let mut reference = base.clone();
    // Warm every view's result entry.
    for (name, _) in VIEWS {
        server
            .handle(&Request::View {
                view: name.into(),
                doc: "xmark".into(),
            })
            .unwrap();
    }
    assert_eq!(server.view_results().len(), VIEWS.len());

    // Spike-only writes: every view's alphabet is disjoint from the
    // delta, so every entry must be retained and maintained in place.
    let spike_updates = [
        r#"transform copy $a := doc("xmark") modify do insert <ins k="1"><t>v</t></ins> into $a//spike-zone/sb return $a"#,
        r#"transform copy $a := doc("xmark") modify do rename $a//zap as rn return $a"#,
        r#"transform copy $a := doc("xmark") modify do delete $a//sc[. = '10'] return $a"#,
    ];
    for update in spike_updates {
        let resp = server.update_doc("xmark", update).unwrap();
        assert!(
            resp.body
                .contains(&format!("retained={} recomputed=0", VIEWS.len())),
            "expected full retention, got: {}",
            resp.body
        );
        apply_to_reference(&mut reference, update);
    }
    let stats = server.stats();
    assert_eq!(stats.update_requests, spike_updates.len() as u64);
    assert_eq!(
        stats.delta_retained,
        (spike_updates.len() * VIEWS.len()) as u64,
        "retention must actually fire, not fall back to recompute"
    );
    assert_eq!(stats.delta_recomputed, 0);
    // STATS (the protocol answer) reports the retention.
    let rendered = stats.to_string();
    assert!(rendered.contains(&format!("delta_retained={}", stats.delta_retained)));
    assert!(rendered.contains("view noperson: delta_retained=3 delta_patched=0 delta_recomputed=0"));

    // The maintained entries are *served*: reads after the writes are
    // result-cache hits and still byte-identical to full recompute.
    let hits_before = server.stats().result_hits;
    for (name, links) in VIEWS {
        let served = server
            .handle(&Request::View {
                view: name.into(),
                doc: "xmark".into(),
            })
            .unwrap();
        assert!(served.cache_hit);
        assert_eq!(
            served.body,
            recompute_view(&reference, links),
            "maintained entry for '{name}' diverged"
        );
    }
    assert_eq!(
        server.stats().result_hits,
        hits_before + VIEWS.len() as u64,
        "post-write reads must come from the maintained entries"
    );
}

#[test]
fn intersecting_deltas_are_never_retained() {
    let base = spiked_xmark(11);
    let server = Server::builder().threads(2).shards(1).build();
    server.load_doc("xmark", base.clone());
    register_views(&server);
    let mut reference = base.clone();
    for (name, _) in VIEWS {
        server
            .handle(&Request::View {
                view: name.into(),
                doc: "xmark".into(),
            })
            .unwrap();
    }
    // Inserting a fresh <keyword> intersects kwren's alphabet (and, via
    // ancestors, whatever region it lands in) — kwren must NOT keep its
    // entry, even though the insert happens in the spike zone.
    let update = r#"transform copy $a := doc("xmark") modify do insert <keyword>new</keyword> into $a//spike-zone/sb return $a"#;
    server.update_doc("xmark", update).unwrap();
    apply_to_reference(&mut reference, update);
    let (_, retained, patched, recomputed) = server
        .stats()
        .view_delta
        .iter()
        .find(|(v, _, _, _)| v == "kwren")
        .cloned()
        .unwrap();
    assert_eq!(
        retained, 0,
        "a view whose alphabet intersects the delta must never be retained as-is"
    );
    assert_eq!(
        patched + recomputed,
        1,
        "the entry must take exactly one of the non-retain fates"
    );
    // …and the recomputed answer is correct (a false retention would
    // have served the stale body instead).
    let served = server
        .handle(&Request::View {
            view: "kwren".into(),
            doc: "xmark".into(),
        })
        .unwrap();
    let expected = recompute_view(
        &reference,
        VIEWS.iter().find(|(n, _)| *n == "kwren").unwrap().1,
    );
    assert_eq!(served.body, expected);
    assert!(
        served.body.contains("<kw>new</kw>"),
        "the inserted keyword must be renamed by the recomputed view"
    );
}

/// The REVIEW scenario: stored touched-label footprints must follow
/// retained renames. The view deletes `<s>`, so its entry's footprint
/// says the `r/z/a/w` ancestor chain is value-perturbed. A rename write
/// (`a`→`b`, `w`→`u`) is rightly retained — it commutes with the view —
/// but it renames that very chain in base and cached result alike. A
/// follow-up update whose qualifier reads the chain under its NEW
/// names must still be caught by the valued direction of the relevance
/// test and recomputed; with a stale (pre-rename) footprint it would
/// pass all three disjointness directions and be wrongly retained,
/// breaking the invariant retention soundness is argued from.
#[test]
fn retained_renames_do_not_cause_false_retention() {
    const XML: &str = "<r><z><a><w><t>1</t><s>5</s></w></a></z></r>";
    const VIEW: &str = r#"transform copy $a := doc("db") modify do delete $a//s return $a"#;
    let server = Server::builder().threads(1).shards(1).build();
    server.load_doc_str("db", XML).unwrap();
    server.register_view("nos", VIEW).unwrap();
    let mut reference = Document::parse(XML).unwrap();
    // Warm the entry so the writes have something to maintain.
    server
        .handle(&Request::View {
            view: "nos".into(),
            doc: "db".into(),
        })
        .unwrap();
    let rename = r#"transform copy $a := doc("db") modify do (rename $a//a as b, rename $a//w as u) return $a"#;
    let resp = server.update_doc("db", rename).unwrap();
    assert!(
        resp.body.contains("retained=1 recomputed=0"),
        "the rename is label-disjoint from the view and must be retained: {}",
        resp.body
    );
    apply_to_reference(&mut reference, rename);
    // The qualifier compares `t`'s value under the renamed `u` anchor:
    // its value alphabet {u, t} is disjoint from the footprint's
    // *pre-rename* names ({s, w, a, z, r}) but intersects the renamed
    // ones — only a remapped footprint recomputes here.
    let insert =
        r#"transform copy $a := doc("db") modify do insert <m/> into $a//u[t = '1'] return $a"#;
    let resp = server.update_doc("db", insert).unwrap();
    assert!(
        resp.body.contains("targets=1 retained=0 recomputed=1"),
        "the qualifier reads the renamed ancestor chain under its NEW names — \
         the entry must be recomputed, not maintained: {}",
        resp.body
    );
    apply_to_reference(&mut reference, insert);
    let served = server
        .handle(&Request::View {
            view: "nos".into(),
            doc: "db".into(),
        })
        .unwrap()
        .body;
    assert_eq!(served, recompute_view(&reference, &[VIEW]));
    assert!(
        served.contains("<m/>"),
        "the insert fires inside the renamed chain and must show in the view: {served}"
    );
}

/// Update pool for the targeted rename fuzzer: renames whose new names
/// later entries *read* — as qualifier values, qualifier paths, and
/// plain steps — including chained renames (`a`→`b`→`c`), over a
/// document where the view's divergence sits right on the renamed
/// ancestor chain. The broad XMark fuzzer above cannot express this
/// shape (its renames always mint `rn`, which nothing reads); every
/// sequence here is checked differentially after every write.
const RENAME_POOL: [&str; 10] = [
    "rename $a//a as b",
    "rename $a//w as u",
    "rename $a//b as c",
    "rename $a//z as q",
    "insert <m/> into $a//b[u > 5]",
    "insert <m/> into $a//a[w > 5]",
    "insert <k/> into $a//c[u]",
    "insert <m2/> into $a//q[. = '15']",
    "delete $a//u[. = '1']",
    "delete $a//b",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Differential fuzz over rename→qualify sequences: served views
    /// must match full recompute after every write, whatever mix of
    /// retention and recomputation the relevance test picks.
    #[test]
    fn rename_then_qualify_sequences_never_diverge(
        picks in prop::collection::vec(0..RENAME_POOL.len(), 1..6),
    ) {
        const XML: &str = concat!(
            "<r><z><a><w><t>1</t><s>5</s></w></a></z>",
            "<z><a><w><t>9</t></w></a></z><y><s>3</s><v>7</v></y></r>"
        );
        const VIEW: &str =
            r#"transform copy $a := doc("db") modify do delete $a//s return $a"#;
        let server = Server::builder().threads(1).shards(1).build();
        server.load_doc_str("db", XML).unwrap();
        server.register_view("nos", VIEW).unwrap();
        let mut reference = Document::parse(XML).unwrap();
        for (round, &i) in picks.iter().enumerate() {
            // (Re-)warm the entry so every write maintains a fresh one.
            let served = server
                .handle(&Request::View { view: "nos".into(), doc: "db".into() })
                .unwrap()
                .body;
            prop_assert_eq!(&served, &recompute_view(&reference, &[VIEW]));
            let text = format!(
                r#"transform copy $a := doc("db") modify do {} return $a"#,
                RENAME_POOL[i]
            );
            server.update_doc("db", &text).unwrap();
            apply_to_reference(&mut reference, &text);
            let served = server
                .handle(&Request::View { view: "nos".into(), doc: "db".into() })
                .unwrap()
                .body;
            prop_assert_eq!(
                &served,
                &recompute_view(&reference, &[VIEW]),
                "diverged at round {} after {}",
                round,
                RENAME_POOL[i]
            );
        }
    }
}

/// The exact ROADMAP collapse scenario, now fixed: under shard-epoch
/// keying, every write to hot doc A bumped the shard epoch and silently
/// un-keyed same-shard neighbour B's cached views (dropped as `stale`
/// on A's next sweep) — under a steady writer, B's hit rate collapsed
/// to zero. With entries keyed by per-document versions, B's version
/// never moves when A is written, so every post-warm read of B must be
/// a result-cache hit, write after write after write.
#[test]
fn steady_writes_to_a_hot_doc_leave_neighbour_hits_intact() {
    const WRITES: usize = 12;
    let server = Server::builder().threads(2).shards(1).build(); // one shard: A and B are neighbours
    server.load_doc("hot", spiked_xmark(5));
    server.load_doc("calm", spiked_xmark(6));
    register_views(&server);
    // Warm every view of both documents.
    for doc in ["hot", "calm"] {
        for (name, _) in VIEWS {
            server
                .handle(&Request::View {
                    view: name.into(),
                    doc: doc.into(),
                })
                .unwrap();
        }
    }
    let calm_reference = spiked_xmark(6);
    let hits_before = server.stats().result_hits;
    let misses_before = server.stats().result_misses;
    // Steady spike-disjoint writes to the hot document only.
    let writes = [
        r#"transform copy $a := doc("hot") modify do insert <ins k="1"><t>v</t></ins> into $a//spike-zone/sb return $a"#,
        r#"transform copy $a := doc("hot") modify do rename $a//zap as rn return $a"#,
        r#"transform copy $a := doc("hot") modify do delete $a//spike-zone/sa[sc] return $a"#,
    ];
    for i in 0..WRITES {
        server.update_doc("hot", writes[i % writes.len()]).unwrap();
        // Every view of the neighbour still serves from cache, and the
        // body is still exactly the full recompute.
        for (name, links) in VIEWS {
            let served = server
                .handle(&Request::View {
                    view: name.into(),
                    doc: "calm".into(),
                })
                .unwrap();
            assert_eq!(
                served.body,
                recompute_view(&calm_reference, links),
                "neighbour view '{name}' diverged after write {i}"
            );
        }
    }
    let stats = server.stats();
    assert_eq!(
        stats.result_hits,
        hits_before + (WRITES * VIEWS.len()) as u64,
        "every neighbour read after every hot write must be a cache hit"
    );
    assert_eq!(
        stats.result_misses, misses_before,
        "the hot writer must cause zero neighbour misses"
    );
    // The per-doc counters prove the sweeps only ever examined the
    // written document: the neighbour has no row at all.
    assert!(
        stats.doc_delta.iter().all(|(d, _, _, _, _)| d != "calm"),
        "a never-written document must have no delta row: {:?}",
        stats.doc_delta
    );
    let (_, retained, _, _, _) = stats
        .doc_delta
        .iter()
        .find(|(d, _, _, _, _)| d == "hot")
        .cloned()
        .unwrap();
    assert!(retained > 0, "the hot doc's own entries are retained");
}

/// Re-keying safety: a removed document's versions are retired, never
/// reused. Without that, remove + re-load under the same name could
/// restart version numbering and make a cached entry of the *dead*
/// lineage key-match the new document — a false hit serving deleted
/// content. (Reload-purges are belt; retired versions are suspenders —
/// this pins the suspenders.)
#[test]
fn removed_docs_never_resurrect_cached_entries() {
    let server = Server::builder().threads(1).shards(1).build();
    let del_zzz = r#"transform copy $a := doc("db") modify do delete $a//zzz return $a"#;
    server.register_view("v", del_zzz).unwrap();
    server.load_doc_str("db", "<db><old/></db>").unwrap();
    server
        .handle(&Request::View {
            view: "v".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(server.view_results().len(), 1);
    let dead_version = server.store().version_of("db").unwrap();
    assert!(server.remove_doc("db"));
    assert_eq!(server.view_results().len(), 0, "removal drops the shard");
    // Re-create the name with different content.
    server.load_doc_str("db", "<db><new/></db>").unwrap();
    assert!(
        server.store().version_of("db").unwrap() > dead_version,
        "a re-created document must draw a strictly larger version"
    );
    let misses_before = server.stats().result_misses;
    let served = server
        .handle(&Request::View {
            view: "v".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(
        served.body, "<db><new/></db>",
        "the dead lineage's cached body must never serve"
    );
    assert_eq!(server.stats().result_misses, misses_before + 1);
    // And the recomputed entry is hit-able at the new version.
    let hits_before = server.stats().result_hits;
    server
        .handle(&Request::View {
            view: "v".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(server.stats().result_hits, hits_before + 1);
}

#[test]
fn writes_never_touch_entries_of_other_shards() {
    let server = Server::builder().threads(2).shards(8).build();
    // Find two document names owned by different shards.
    let store = server.store();
    let a = "alpha";
    let b = ["beta", "gamma", "delta", "omega", "kappa"]
        .into_iter()
        .find(|n| store.shard_of(n) != store.shard_of(a))
        .expect("some candidate lands in another shard");
    let xml = "<db><part><price>9</price></part><aux><k/></aux></db>";
    server.load_doc_str(a, xml).unwrap();
    server.load_doc_str(b, xml).unwrap();
    server
        .register_view(
            "noprice",
            r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
        )
        .unwrap();
    // Warm one entry per document.
    for doc in [a, b] {
        server
            .handle(&Request::View {
                view: "noprice".into(),
                doc: doc.into(),
            })
            .unwrap();
    }
    assert_eq!(server.view_results().len(), 2);
    // A write to A that invalidates A's entry (price is in the view's
    // alphabet) must leave B's entry alone.
    let update = format!(
        r#"transform copy $a := doc("{a}") modify do insert <price>1</price> into $a//aux return $a"#
    );
    server.update_doc(a, &update).unwrap();
    let hits_before = server.stats().result_hits;
    let misses_before = server.stats().result_misses;
    let served_b = server
        .handle(&Request::View {
            view: "noprice".into(),
            doc: b.into(),
        })
        .unwrap();
    assert_eq!(served_b.body, "<db><part/><aux><k/></aux></db>");
    assert_eq!(
        server.stats().result_hits,
        hits_before + 1,
        "doc B's entry (another shard) must survive the write to doc A"
    );
    // A's entry failed the relevance test and was patched in place —
    // the view reads `doc("db")` while the document is stored as A, and
    // the patch fate covers it all the same — so the next read hits at
    // the new version with no miss and no recompute sweep.
    let served_a = server
        .handle(&Request::View {
            view: "noprice".into(),
            doc: a.into(),
        })
        .unwrap();
    assert_eq!(served_a.body, "<db><part/><aux><k/></aux></db>");
    assert_eq!(server.stats().result_misses, misses_before);
    assert_eq!(server.stats().result_hits, hits_before + 2);
    let snap = server.stats();
    assert_eq!(snap.delta_patched, 1, "A's entry takes the patch fate");
    assert_eq!(snap.delta_recomputed, 0);
    assert_eq!(
        snap.shared_passes, 0,
        "a patched write runs no shared sweep"
    );
}

#[test]
fn parenthesized_single_update_lists_work() {
    // `modify do (u1)` is valid multi syntax with one element; the
    // write path must compile it from the multi parse instead of
    // re-parsing it as (invalid) single syntax.
    let server = Server::builder().threads(1).shards(1).build();
    server.load_doc_str("db", "<db><x/><y/></db>").unwrap();
    let resp = server
        .update_doc(
            "db",
            r#"transform copy $a := doc("db") modify do (delete $a//x) return $a"#,
        )
        .unwrap();
    assert!(resp.body.contains("targets=1"), "{}", resp.body);
    let stored = server
        .handle(&Request::Transform {
            doc: "db".into(),
            query: r#"transform copy $a := doc("db") modify do delete $a//nothing return $a"#
                .into(),
        })
        .unwrap()
        .body;
    assert_eq!(stored, "<db><y/></db>");
}

#[test]
fn multi_update_sequences_apply_in_order() {
    let base = spiked_xmark(3);
    let server = Server::builder().threads(1).shards(1).build();
    server.load_doc("xmark", base.clone());
    register_views(&server);
    let mut reference = base.clone();
    // One UPDATE carrying three updates: applied in order, each seeing
    // the previous one's effect (the insert's <t> is renamed by the
    // second update; the third deletes the spike <sb> wholesale).
    let update = concat!(
        r#"transform copy $a := doc("xmark") modify do ("#,
        r#"insert <ins><t>v</t></ins> into $a//spike-zone/sa, "#,
        r#"rename $a//spike-zone//t as tt, "#,
        r#"delete $a//spike-zone/sb) return $a"#
    );
    let resp = server.update_doc("xmark", update).unwrap();
    apply_to_reference(&mut reference, update);
    assert!(
        resp.body.contains("targets=5"),
        "2 sa inserts + 2 renamed t + 1 sb delete: {}",
        resp.body
    );
    // Sequential semantics: the inserted <t> elements got renamed.
    let stored = server
        .handle(&Request::Transform {
            doc: "xmark".into(),
            query: r#"transform copy $a := doc("xmark") modify do delete $a//person return $a"#
                .into(),
        })
        .unwrap()
        .body;
    assert!(stored.contains("<ins><tt>v</tt></ins>"));
    assert!(!stored.contains("<sb>"));
    for (name, links) in VIEWS {
        let served = server
            .handle(&Request::View {
                view: name.into(),
                doc: "xmark".into(),
            })
            .unwrap()
            .body;
        assert_eq!(served, recompute_view(&reference, links), "view '{name}'");
    }
}

#[test]
fn repeated_updates_recycle_arena_slots() {
    use xust::serve::DocSource;
    // The write path applies deletes in place on the cloned epoch, so
    // the arena free-list (PR 3) must absorb insert→delete churn: the
    // stored document's arena cannot grow write over write.
    let server = Server::builder().threads(1).shards(1).build();
    server
        .load_doc_str("db", "<db><part><k/></part></db>")
        .unwrap();
    let insert = r#"transform copy $a := doc("db") modify do insert <tmp><t>x</t></tmp> into $a//k return $a"#;
    let delete = r#"transform copy $a := doc("db") modify do delete $a//tmp return $a"#;
    let arena_of = || match server.store().get("db").unwrap() {
        DocSource::Memory(d) => d.arena_len(),
        other => panic!("unexpected {other:?}"),
    };
    let mut high_water = 0;
    for cycle in 0..20 {
        server.update_doc("db", insert).unwrap();
        if cycle == 0 {
            high_water = arena_of();
        } else {
            assert_eq!(
                arena_of(),
                high_water,
                "arena leaked through the write path on cycle {cycle}"
            );
        }
        server.update_doc("db", delete).unwrap();
    }
    match server.store().get("db").unwrap() {
        DocSource::Memory(d) => assert_eq!(d.serialize(), "<db><part><k/></part></db>"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(server.stats().update_requests, 40);
}

#[test]
fn reregistration_invalidates_cached_results() {
    // Re-registering a view under the same name must make its cached
    // result unservable even though the document (and its epoch) did
    // not change — entries are stamped with the definition generation.
    let server = Server::builder().threads(1).shards(1).build();
    server.load_doc_str("db", "<db><a/><b/></db>").unwrap();
    let del_a = r#"transform copy $a := doc("db") modify do delete $a//a return $a"#;
    let del_b = r#"transform copy $a := doc("db") modify do delete $a//b return $a"#;
    server.register_view("v", del_a).unwrap();
    let first = server
        .handle(&Request::View {
            view: "v".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(first.body, "<db><b/></db>");
    server.register_view("v", del_b).unwrap();
    let second = server
        .handle(&Request::View {
            view: "v".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(
        second.body, "<db><a/></db>",
        "the old definition's cached result must not survive re-registration"
    );
}

#[test]
fn reload_drops_entries_instead_of_maintaining_them() {
    let server = Server::builder().threads(1).shards(1).build();
    server.load_doc_str("db", "<db><a/></db>").unwrap();
    server
        .register_view(
            "v",
            r#"transform copy $a := doc("db") modify do delete $a//zzz return $a"#,
        )
        .unwrap();
    server
        .handle(&Request::View {
            view: "v".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(server.view_results().len(), 1);
    // A whole-document reload is an unbounded delta: no retention.
    server.load_doc_str("db", "<db><b/></db>").unwrap();
    assert_eq!(server.view_results().len(), 0);
    let served = server
        .handle(&Request::View {
            view: "v".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(served.body, "<db><b/></db>");
}

/// Paths whose writes intersect the registered views' alphabets —
/// exactly the writes that fail retention and become patch candidates.
/// The last three write beside the child-axis [`PATCH_VIEWS`] paths, into
/// subtrees those views' automata prune.
const PATCH_PATHS: [&str; 8] = [
    "//keyword",
    "//bidder",
    "//emph",
    "site/people/person",
    "//item[location = 'United States']",
    "site/people/person/name",
    "site/open_auctions/open_auction/seller",
    "site/closed_auctions/closed_auction",
];

/// The views the patch tests register beside [`VIEWS`]. Two child-axis
/// views whose selecting automata die outside one XMark region: a write
/// anywhere else lands in a pruned subtree, so their entries patch (and
/// re-split) pruned fragments. And an ε-path insert no fragment tree
/// can align: its entry holds an opaque tree, so a write that misses
/// `keyword` is retained and replayed on it, and one that hits
/// `keyword` localizes to its root and recomputes.
const PATCH_VIEWS: [(&str, &[&str]); 3] = [
    (
        "nocc",
        &[
            r#"transform copy $a := doc("xmark") modify do delete $a/site/people/person/creditcard return $a"#,
        ],
    ),
    (
        "nobidder",
        &[
            r#"transform copy $a := doc("xmark") modify do delete $a/site/open_auctions/open_auction/bidder return $a"#,
        ],
    ),
    (
        "kwroot",
        &[
            r#"transform copy $a := doc("xmark") modify do insert <keyword>root</keyword> into $a return $a"#,
        ],
    ),
];

/// [`VIEWS`] plus [`PATCH_VIEWS`], registered on `server`.
fn register_patch_views(server: &Server) {
    register_views(server);
    for (name, links) in PATCH_VIEWS {
        server.register_view_chain(name, links).unwrap();
    }
}

/// Every view of [`register_patch_views`] equals a full recompute.
fn check_patch_views(
    server: &Server,
    reference: &Document,
    context: &str,
) -> Result<(), TestCaseError> {
    check_all_views(server, reference, context)?;
    check_views_of(server, &PATCH_VIEWS, "xmark", reference, context)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The patch-fate differential property: single-rule writes that
    /// collide with view alphabets (so their entries fail retention and
    /// either patch in place or recompute) keep **every** served view
    /// byte-identical to full recompute after **every** write —
    /// whichever fate each entry took — and the patched bookkeeping
    /// stays coherent (fragments only ever spliced by patching writes).
    #[test]
    fn patched_entries_equal_full_recompute(
        seed in 0u64..32,
        writes in prop::collection::vec(
            (0..PATCH_PATHS.len(), arb_op(), 0..RENAME_NAMES.len()),
            1..5,
        ),
    ) {
        let base = spiked_xmark(seed);
        let server = Server::builder().threads(2).shards(1).build();
        server.load_doc("xmark", base.clone());
        register_patch_views(&server);
        let mut reference = base.clone();
        check_patch_views(&server, &reference, "before any write")?;
        for (round, &(path_idx, op, name_idx)) in writes.iter().enumerate() {
            let patched_before = server.stats().delta_patched;
            let fragments_before = server.stats().patched_fragments;
            let text = build_query_text_renaming(
                "xmark",
                PATCH_PATHS[path_idx],
                op,
                RENAME_NAMES[name_idx],
            );
            server.update_doc("xmark", &text).unwrap();
            apply_to_reference(&mut reference, &text);
            let stats = server.stats();
            if stats.patched_fragments > fragments_before {
                prop_assert!(
                    stats.delta_patched > patched_before,
                    "fragments spliced without a patched entry (round {})",
                    round
                );
            }
            let ctx = format!("round={round} update={text}");
            check_patch_views(&server, &reference, &ctx)?;
        }
    }
}

/// Writes into subtrees a view's automaton prunes patch instead of
/// recomputing. The six narrow views of the `hot_write_views`
/// benchmark see person, item and open-auction insert/delete pairs on
/// a small XMark document: every entry that fails the relevance test
/// must take the patch fate (no recompute reason ever fires), and every
/// served view must equal a full `two_pass` recompute after every
/// write.
#[test]
fn pruned_fragments_patch_every_write_kind() {
    const BODIES: [(&str, &str); 6] = [
        ("nocc", "delete $a/site/people/person/creditcard"),
        ("noprofile", "delete $a/site/people/person/profile"),
        ("nodesc", "delete $a/site/regions//item/description"),
        ("nomail", "delete $a/site/regions//item/mailbox"),
        (
            "nobidder",
            "delete $a/site/open_auctions/open_auction/bidder",
        ),
        ("nopeople", "delete $a/site/people"),
    ];
    let views: Vec<(&str, String)> = BODIES
        .iter()
        .map(|&(name, body)| {
            (
                name,
                format!(r#"transform copy $a := doc("xmark") modify do {body} return $a"#),
            )
        })
        .collect();
    let base = Document::parse(&generate_string(XmarkConfig::new(0.005).with_seed(7))).unwrap();
    let server = Server::builder().threads(1).shards(1).build();
    server.load_doc("xmark", base.clone());
    for (name, text) in &views {
        server.register_view(name, text).unwrap();
    }
    let check = |reference: &Document, context: &str| {
        for (name, text) in &views {
            let served = server
                .handle(&Request::View {
                    view: name.to_string(),
                    doc: "xmark".into(),
                })
                .unwrap();
            assert_eq!(
                served.body,
                recompute_view(reference, &[text.as_str()]),
                "view '{name}' diverged ({context})"
            );
        }
    };
    let mut reference = base;
    check(&reference, "before any write");
    let targets = [
        r#"/site/people/person[@id = "person3"]"#,
        r#"/site/regions//item[@id = "item5"]"#,
        r#"/site/open_auctions/open_auction[@id = "open_auction2"]"#,
        r#"/site/people/person[@id = "person11"]"#,
        r#"/site/regions//item[@id = "item17"]"#,
        r#"/site/open_auctions/open_auction[@id = "open_auction9"]"#,
    ];
    for target in targets {
        for update in [
            format!(
                r#"transform copy $a := doc("xmark") modify do insert <xust-mark><t>w</t></xust-mark> into $a{target} return $a"#
            ),
            format!(
                r#"transform copy $a := doc("xmark") modify do delete $a{target}/xust-mark return $a"#
            ),
        ] {
            let resp = server.update_doc("xmark", &update).unwrap();
            assert!(resp.body.contains("targets=1"), "{}", resp.body);
            apply_to_reference(&mut reference, &update);
            check(&reference, &update);
        }
    }
    let stats = server.stats();
    assert!(
        stats
            .to_string()
            .contains("recompute: threshold=0 root=0 guard=0 generation=0 stale=0 no_ctx=0"),
        "{stats}"
    );
    // Each write's delta reaches `site`, which every view reads, so no
    // entry is retained: all of them patch, on every write.
    assert_eq!(stats.delta_recomputed, 0);
    assert_eq!(
        stats.delta_patched,
        (views.len() * 2 * targets.len()) as u64,
        "{stats}"
    );
}

/// The patch fate actually fires — deterministically. An insert of a
/// fresh `<keyword>` into the spike zone collides with `kwren`'s
/// alphabet (so its entry cannot be retained) but its site chain is
/// disjoint from every qualifier anchor, and the affected span is one
/// small fragment: the entry must be spliced in place, reported in the
/// reply, STATS, and METRICS, and serve bytes identical to recompute.
/// A `patching(false)` server takes the recompute fate on the same
/// write — the control proving the counters measure the patch path.
#[test]
fn patching_fires_on_localized_intersecting_writes() {
    let base = spiked_xmark(3);
    let update = r#"transform copy $a := doc("xmark") modify do insert <keyword>new</keyword> into $a//spike-zone/sb return $a"#;
    let mut reference = base.clone();
    apply_to_reference(&mut reference, update);

    let server = Server::builder().threads(1).shards(1).build();
    server.load_doc("xmark", base.clone());
    register_views(&server);
    for (name, _) in VIEWS {
        server
            .handle(&Request::View {
                view: name.into(),
                doc: "xmark".into(),
            })
            .unwrap();
    }
    let resp = server.update_doc("xmark", update).unwrap();
    let stats = server.stats();
    assert!(
        stats.delta_patched >= 1,
        "the localized intersecting write must take the patch fate: {}",
        resp.body
    );
    assert!(stats.patched_fragments >= 1);
    assert!(
        resp.body.contains("patched=1"),
        "the reply reports the patch: {}",
        resp.body
    );
    assert!(stats.to_string().contains("delta_patched=1"));
    let metrics = server.metrics();
    assert!(metrics.contains("xust_patched_total 1"), "{metrics}");
    assert!(
        metrics.contains("xust_patched_fragments_total"),
        "{metrics}"
    );
    // The spliced entry *serves*, from cache, byte-identical bytes.
    // (chain2 — multi-link, never patch-eligible — fell to the lazy
    // recompute fate, so exactly one of the four reads is a miss.)
    let hits_before = server.stats().result_hits;
    for (name, links) in VIEWS {
        let served = server
            .handle(&Request::View {
                view: name.into(),
                doc: "xmark".into(),
            })
            .unwrap();
        assert_eq!(
            served.body,
            recompute_view(&reference, links),
            "view '{name}' diverged after the patch"
        );
    }
    assert_eq!(
        server.stats().result_hits,
        hits_before + VIEWS.len() as u64 - 1
    );

    // Control: with patching disabled the same write recomputes.
    let control = Server::builder()
        .threads(1)
        .shards(1)
        .patching(false)
        .build();
    control.load_doc("xmark", base);
    register_views(&control);
    for (name, _) in VIEWS {
        control
            .handle(&Request::View {
                view: name.into(),
                doc: "xmark".into(),
            })
            .unwrap();
    }
    let resp = control.update_doc("xmark", update).unwrap();
    let control_stats = control.stats();
    assert_eq!(control_stats.delta_patched, 0);
    assert!(
        resp.body.contains("patched=0"),
        "no patch without provenance: {}",
        resp.body
    );
    assert!(
        control_stats.delta_recomputed >= 1,
        "the entry falls back to the recompute fate"
    );
}

/// Provenance survives retained writes: a spike-only rename is retained
/// (the delta is disjoint from every view), which *repairs* the stored
/// fragment trees instead of dropping them — collapsing the covering
/// fragments on both the base and result sides, or an opaque tree's
/// root — and remaps their touched-label footprints into the new
/// vocabulary. A later localized intersecting write must still take the
/// patch fate through the repaired map (the opaque entry recomputes),
/// and every view must serve bytes identical to recompute.
#[test]
fn patching_survives_retained_renames() {
    let base = spiked_xmark(5);
    let server = Server::builder().threads(1).shards(1).build();
    server.load_doc("xmark", base.clone());
    register_patch_views(&server);
    let views: Vec<_> = VIEWS.iter().chain(&PATCH_VIEWS).collect();
    let check = |reference: &Document, context: &str| {
        for &&(name, links) in &views {
            let served = server
                .handle(&Request::View {
                    view: name.into(),
                    doc: "xmark".into(),
                })
                .unwrap();
            assert_eq!(
                served.body,
                recompute_view(reference, links),
                "view '{name}' diverged {context}"
            );
        }
    };
    let mut reference = base.clone();
    check(&reference, "at the fill");
    // Round 1: retained rename (spike vocabulary only). Every entry
    // survives, with its provenance repaired and its footprint remapped.
    let rename = r#"transform copy $a := doc("xmark") modify do rename $a//zap as rn return $a"#;
    let resp = server.update_doc("xmark", rename).unwrap();
    assert!(
        resp.body
            .contains(&format!("retained={} recomputed=0", views.len())),
        "the spike rename must be retained: {}",
        resp.body
    );
    apply_to_reference(&mut reference, rename);
    check(&reference, "after the retained rename");
    // Round 2: localized intersecting write — the patch must fire on
    // the repaired provenance (a dropped map would recompute instead).
    let insert = r#"transform copy $a := doc("xmark") modify do insert <keyword>new</keyword> into $a//spike-zone/sb return $a"#;
    let resp = server.update_doc("xmark", insert).unwrap();
    apply_to_reference(&mut reference, insert);
    assert!(
        server.stats().delta_patched >= 1,
        "repaired provenance must still enable the patch fate: {}",
        resp.body
    );
    let stats = server.stats().to_string();
    assert!(
        stats.contains("view kwroot: delta_retained=1 delta_patched=0 delta_recomputed=1"),
        "the opaque entry is retained, then recomputed: {stats}"
    );
    check(&reference, "after rename-then-patch");
}

/// One cache fill serves every route: a GENTOP view's entry filled by a
/// private `VIEW` miss, by a batched `VIEW` group, or by the write
/// path's eager refill (forced with a write whose site is the root,
/// `recompute: root`) is the same entry — the next localized write
/// patches it, and it serves `two_pass` bytes. Every route counts each
/// view it evaluates once under `methods`.
#[test]
fn every_fill_route_yields_an_entry_that_patches() {
    const VIEWS: [(&str, &str); 2] = [
        ("nocc", "delete $a/site/people/person/creditcard"),
        ("nomail", "delete $a/site/regions//item/mailbox"),
    ];
    let text =
        |body: &str| format!(r#"transform copy $a := doc("xmark") modify do {body} return $a"#);
    let top_down = |server: &Server| {
        let snap = server.stats();
        snap.per_method
            .iter()
            .find(|&&(m, _)| m == Method::TopDown)
            .map_or(0, |&(_, n)| n)
    };
    let base = Document::parse(&generate_string(XmarkConfig::new(0.005).with_seed(3))).unwrap();
    let root_write = text("insert <xust-root/> into $a/site");
    let local_write = text(
        r#"insert <xust-mark><t>w</t></xust-mark> into $a/site/people/person[@id = "person3"]"#,
    );
    let view = |name: &str| Request::View {
        view: name.into(),
        doc: "xmark".into(),
    };
    for route in ["private", "batch", "write"] {
        let server = Server::builder().threads(2).shards(1).build();
        server.load_doc("xmark", base.clone());
        for (name, body) in VIEWS {
            server.register_view(name, &text(body)).unwrap();
        }
        let mut reference = base.clone();
        let filled = match route {
            "private" => {
                let before = top_down(&server);
                server.handle(&view("nocc")).unwrap();
                assert_eq!(top_down(&server), before + 1, "{route}");
                1
            }
            "batch" => {
                let before = top_down(&server);
                for r in server.execute_batch(vec![view("nocc"), view("nomail")]) {
                    assert_eq!(r.unwrap().method, Some(Method::TopDown), "{route}");
                }
                assert_eq!(top_down(&server), before + 2, "{route}");
                assert_eq!(server.stats().shared_passes, 1, "{route}");
                2
            }
            _ => {
                server.handle(&view("nocc")).unwrap();
                let before = (top_down(&server), server.stats());
                server.update_doc("xmark", &root_write).unwrap();
                apply_to_reference(&mut reference, &root_write);
                let after = server.stats();
                assert!(
                    after.to_string().contains("recompute: threshold=0 root=1"),
                    "{after}"
                );
                assert_eq!(
                    top_down(&server),
                    before.0 + 1,
                    "{route}: the refill counts"
                );
                assert_eq!(
                    after.shared_passes, 0,
                    "{route}: a one-view sweep shares nothing"
                );
                assert_eq!(
                    server.view_results().len(),
                    1,
                    "{route}: the refill cached it"
                );
                1
            }
        };
        let before = server.stats();
        server.update_doc("xmark", &local_write).unwrap();
        apply_to_reference(&mut reference, &local_write);
        let after = server.stats();
        assert_eq!(
            after.delta_patched,
            before.delta_patched + filled,
            "{route}: {after}"
        );
        assert_eq!(after.delta_recomputed, before.delta_recomputed, "{route}");
        for (name, body) in &VIEWS[..filled as usize] {
            let served = server.handle(&view(name)).unwrap();
            assert_eq!(
                served.method, None,
                "{route}: {name} is served from the cache"
            );
            assert_eq!(
                served.body,
                recompute_view(&reference, &[text(body).as_str()]),
                "{route}: {name}"
            );
        }
    }
}
