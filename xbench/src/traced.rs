//! The traced run: the workload's seeded stream replayed in process
//! through `Server::handle`, with spans around every call into a
//! crate's public functions, plus the per-layer figures derived from
//! them.
//!
//! Every request is a `serve.handle` span; the phases the server times
//! itself (its per-request trace) become its children, laid end to end
//! from the request's start. The layer probes then call each crate
//! directly on the workload's own documents, queries and writes.

use std::collections::HashMap;
use std::path::Path;

use xust_bench::{insert_query, run_method};
use xust_compose::{compose, UserQuery};
use xust_core::{
    apply_update, multi_view, parse_multi_transform, parse_transform, touched_labels_into,
    CompiledTransform, LabelSet, Method, TransformQuery,
};
use xust_sax::SaxParser;
use xust_serve::{Phase, Request, Server, Verb as ServeVerb, Wal, WalRecord};
use xust_tree::Document;
use xust_xpath::eval_path_root;

use crate::report::{median, Metric};
use crate::spans::Spans;
use crate::workload::{user_query, Kind, Req, Stream, Targets, Workload};

/// The methods of the §7 table, by metric name.
pub const METHODS: [(Method, &str); 5] = [
    (Method::TopDown, "top_down"),
    (Method::TwoPass, "two_pass"),
    (Method::Naive, "naive"),
    (Method::CopyUpdate, "copy_update"),
    (Method::TwoPassSax, "two_pass_sax"),
];

/// Requests per connection the traced replay sends.
fn replay_len(w: &Workload) -> usize {
    match w.kind {
        Kind::AdhocTransform => 10,
        Kind::HotWriteViews => 40,
        Kind::ManySmallDocs => 200,
    }
}

/// Repetitions of each layer probe (the median is reported).
fn reps(w: &Workload) -> usize {
    if w.factor >= 0.05 {
        3
    } else {
        7
    }
}

pub fn to_request(w: &Workload, req: &Req) -> Request {
    let doc = w.docs[req.doc()].name.clone();
    match req {
        Req::View { view, .. } => Request::View {
            view: w.views[*view].0.clone(),
            doc,
        },
        Req::Query { view, uq, .. } => Request::Query {
            view: w.views[*view].0.clone(),
            doc,
            query: user_query(*uq),
        },
        Req::Transform { u, .. } => Request::Transform {
            doc,
            query: crate::workload::u_transform(*u),
        },
        Req::Update { text, .. } => Request::Update {
            doc,
            update: text.clone(),
        },
    }
}

/// The span name of a server phase, by the layer that does the work.
fn phase_span(verb: ServeVerb, phase: Phase) -> &'static str {
    match (phase, verb) {
        (Phase::Parse, _) => "xpath.parse",
        (Phase::Plan, _) => "serve.planner",
        (Phase::Cache, _) => "serve.cache",
        (Phase::Snapshot, _) => "serve.store",
        (Phase::Eval, ServeVerb::Query) => "xquery.eval",
        (Phase::Eval, ServeVerb::Update) => "core.apply",
        (Phase::Eval, _) => "core.eval",
        (Phase::Maintain, _) => "serve.viewcache.maintain",
        (Phase::Patch, _) => "serve.viewcache.patch",
        (Phase::Serialize, _) => "tree.serialize",
    }
}

/// What the traced run found.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// `(layer, self ms)`, for the report.
    pub ledger: Vec<(String, f64)>,
}

/// A server configured like `xust serve --threads 2`, with the
/// workload's documents and views (when `views`), warmed.
fn build_server(
    w: &Workload,
    docs: &[Document],
    views: bool,
    wal: Option<&Path>,
) -> Result<Server, String> {
    let server = Server::builder().threads(2).shards(8).build();
    if let Some(path) = wal {
        server.attach_wal(path).map_err(|e| e.to_string())?;
    }
    for (spec, doc) in w.docs.iter().zip(docs) {
        server
            .try_load_doc(spec.name.as_str(), doc.clone())
            .map_err(|e| e.to_string())?;
    }
    if views {
        for (name, text) in &w.views {
            server
                .register_view(name, text)
                .map_err(|e| e.to_string())?;
        }
        for req in crate::warmup(w) {
            server
                .handle(&to_request(w, &req))
                .map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    Ok(server)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn med(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    median(&xs).unwrap_or(0.0)
}

/// Runs the traced replay and the layer probes, with scratch files in
/// `dir`, and writes the spans to `spans_out`. `wire` holds the
/// counter-derived layer metrics of the wire run (hit rates, shares).
pub fn run(
    w: &Workload,
    seed: u64,
    xmls: &[String],
    targets: &[Targets],
    dir: &Path,
    spans_out: &Path,
    wire: Vec<Metric>,
) -> Result<Traced, String> {
    let mut spans = Spans::new();
    let docs: Vec<Document> = xmls
        .iter()
        .map(|x| Document::parse(x).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    // The replay: connections' streams interleaved round-robin, one
    // request at a time.
    let server = build_server(
        w,
        &docs,
        true,
        w.wal.then(|| dir.join("trace-wal.log")).as_deref(),
    )?;
    let mut streams: Vec<Stream> = (0..w.conns)
        .map(|c| Stream::new(w, c, seed, targets))
        .collect();
    // The replayed writes, `(doc, transform text)`, in order.
    let mut updates: Vec<(usize, String)> = Vec::new();
    let mut update_ms_with_views = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for i in 0..replay_len(w) * w.conns {
        let req = streams[i % w.conns].next_req();
        let id = attempted + 1;
        let request = to_request(w, &req);
        let handle = spans.enter("serve.handle", id);
        let result = server.handle(&request);
        let ns = spans.exit(handle);
        attempted += 1;
        if result.is_err() {
            failed += 1;
            continue;
        }
        if let Some(t) = server.obs().recent_traces(1).first() {
            let mut at = spans.get(handle).start_ns;
            for &(phase, us) in t.phases() {
                let end = at + us * 1000;
                spans.push(phase_span(t.verb, phase), Some(handle), id, at, end);
                at = end;
            }
        }
        if let Req::Update { doc, text } = req {
            update_ms_with_views.push(ns as f64 / 1e6);
            updates.push((doc, text));
        }
    }
    let unattributed = spans.uncovered_share("serve.handle");
    drop(server);

    let mut m: Vec<Metric> = Vec::new();
    let doc0 = &docs[0];
    let xml0 = &xmls[0];
    let r = reps(w);

    // sax + tree.
    let mut sax = Vec::new();
    for _ in 0..r {
        let (events, ns) = spans.time("sax.parse", 0, || {
            let mut p = SaxParser::from_str(xml0);
            let mut n = 0u64;
            while let Ok(Some(_)) = p.next_event() {
                n += 1;
            }
            n
        });
        if events == 0 {
            return Err("sax probe produced no events".into());
        }
        sax.push(ns as f64);
    }
    let mb0 = xml0.len() as f64 / 1e6;
    m.push(Metric::new(
        "sax.events_mb_s",
        mb0 / (med(sax) / 1e9),
        "MB/s",
    ));
    let parse: Vec<f64> = (0..r)
        .map(|_| spans.time("tree.parse", 0, || Document::parse(xml0)).1 as f64 / 1e6)
        .collect();
    m.push(Metric::new("tree.parse_ms", med(parse), "ms"));
    let (mut clone, mut dropt) = (Vec::new(), Vec::new());
    for _ in 0..r {
        let (copy, ns) = spans.time("tree.clone", 0, || doc0.clone());
        clone.push(ns as f64 / 1e6);
        dropt.push(spans.time("tree.drop", 0, move || drop(copy)).1 as f64 / 1e6);
    }
    m.push(Metric::new("tree.clone_ms", med(clone), "ms"));
    m.push(Metric::new("tree.drop_ms", med(dropt), "ms"));
    let ser: Vec<f64> = (0..r)
        .map(|_| spans.time("tree.serialize", 0, || doc0.serialize()).1 as f64)
        .collect();
    m.push(Metric::new(
        "tree.serialize_mb_s",
        doc0.serialize().len() as f64 / 1e6 / (med(ser) / 1e9),
        "MB/s",
    ));

    // xpath/automata: compiling every transform the workload sends.
    let mut texts: Vec<String> = w.views.iter().map(|(_, t)| t.clone()).collect();
    if w.kind == Kind::AdhocTransform {
        texts.extend((0..10).map(crate::workload::u_transform));
    }
    texts.extend(updates.iter().map(|(_, text)| text.clone()));
    let mut compile = Vec::new();
    for text in &texts {
        let (q, _) = spans.time("xpath.parse", 0, || parse_transform(text));
        let q = q.map_err(|e| e.to_string())?;
        compile.push(
            spans
                .time("automata.compile", 0, || CompiledTransform::compile(q))
                .1 as f64
                / 1e3,
        );
    }
    m.push(Metric::new("automata.compile_us", mean(&compile), "us"));

    // core: the §7 table on this workload's first document.
    let nodes = doc0.node_count() as f64;
    let table_reps = if w.factor >= 0.05 { 1 } else { 3 };
    for (method, mname) in METHODS {
        for u in 0..10 {
            let q = insert_query(u);
            let times: Vec<f64> = (0..table_reps)
                .map(|_| {
                    spans
                        .time(format!("core.eval.{mname}"), 0, || {
                            run_method(doc0, xml0, &q, method)
                        })
                        .1 as f64
                })
                .collect();
            m.push(Metric::new(
                format!("core.eval_ns_per_node.{mname}.U{}", u + 1),
                med(times) / nodes,
                "ns/node",
            ));
        }
    }

    // core: applying the replayed writes (selection + apply), and the
    // delta each presents to the view cache.
    let mut work: HashMap<usize, Document> = HashMap::new();
    let (mut apply, mut delta) = (Vec::new(), Vec::new());
    for (doc, text) in &updates {
        let doc_state = work.entry(*doc).or_insert_with(|| docs[*doc].clone());
        let mq = parse_multi_transform(text).map_err(|e| e.to_string())?;
        let a = spans.enter("core.apply", 0);
        let mut d_ns = 0;
        for (path, op) in &mq.updates {
            let (matched, _) = spans.time("xpath.eval", 0, || eval_path_root(doc_state, path));
            let mut labels = LabelSet::new();
            d_ns += spans
                .time("core.delta", 0, || {
                    touched_labels_into(doc_state, &matched, op, &mut labels)
                })
                .1;
            apply_update(doc_state, &matched, op);
        }
        apply.push(spans.exit(a) as f64 / 1e6);
        delta.push(d_ns as f64 / 1e3);
    }
    m.push(Metric::new("core.apply_ms", mean(&apply), "ms"));
    m.push(Metric::new("core.delta_us", mean(&delta), "us"));

    // core: one shared pass over all of the workload's views.
    let view_qs: Vec<TransformQuery> = w
        .views
        .iter()
        .map(|(_, t)| parse_transform(t).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let multi = if view_qs.is_empty() {
        0.0
    } else {
        let refs: Vec<&TransformQuery> = view_qs.iter().collect();
        med((0..r)
            .map(|_| {
                spans
                    .time("core.multi_view", 0, || multi_view(doc0, &refs))
                    .1 as f64
                    / 1e6
            })
            .collect())
    };
    m.push(Metric::new("core.multi_view_ms", multi, "ms"));

    // compose + xquery: every (view, user query) pair QUERY asks.
    let (mut comp, mut xq) = (Vec::new(), Vec::new());
    for vq in &view_qs {
        for &u in &w.user_queries {
            let uq = UserQuery::parse(&user_query(u)).map_err(|e| e.to_string())?;
            let (qc, ns) = spans.time("compose.compose", 0, || compose(vq, &uq));
            comp.push(ns as f64 / 1e3);
            let qc = qc.map_err(|e| e.to_string())?;
            let (out, ns) = spans.time("xquery.eval", 0, || qc.execute_to_string(doc0));
            out.map_err(|e| e.to_string())?;
            xq.push(ns as f64 / 1e6);
        }
    }
    m.push(Metric::new("compose.compose_us", mean(&comp), "us"));
    m.push(Metric::new("xquery.eval_ms", mean(&xq), "ms"));

    // serve: the wire run's counters.
    m.extend(wire);

    // serve maintenance: the replayed writes with the views cached,
    // against the same writes on a twin server holding no views.
    let maintain = if updates.is_empty() || w.views.is_empty() {
        0.0
    } else {
        let twin_wal = w.wal.then(|| dir.join("twin-wal.log"));
        let twin = build_server(w, &docs, false, twin_wal.as_deref())?;
        let mut bare = Vec::new();
        for (doc, text) in &updates {
            let (res, ns) = spans.time("serve.twin_update", 0, || {
                twin.update_doc(&w.docs[*doc].name, text)
            });
            res.map_err(|e| format!("twin update: {e}"))?;
            bare.push(ns as f64 / 1e6);
        }
        mean(&update_ms_with_views) - mean(&bare)
    };
    m.push(Metric::new("serve.maintain_ms", maintain, "ms"));

    // serve::wal: appending the replayed writes to a fresh log.
    let (mut append, mut bytes) = (Vec::new(), 0.0);
    if w.wal && !updates.is_empty() {
        let path = dir.join("trace-append.log");
        let wal = Wal::open(&path).map_err(|e| e.to_string())?;
        for (doc, text) in &updates {
            let rec = WalRecord::Update {
                doc: w.docs[*doc].name.clone(),
                text: text.clone(),
            };
            let (res, ns) = spans.time("serve.wal.append", 0, || wal.append(&rec));
            res.map_err(|e| e.to_string())?;
            append.push(ns as f64 / 1e3);
        }
        let len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        bytes = len as f64 / updates.len() as f64;
    }
    m.push(Metric::new("serve.wal.append_us", mean(&append), "us"));
    m.push(Metric::new("serve.wal.bytes_per_update", bytes, "B"));
    m.push(Metric::new("unattributed_share", unattributed, "ratio"));

    spans.write_tsv(spans_out).map_err(|e| e.to_string())?;
    let ledger = spans
        .layer_self_ns()
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / 1e6))
        .collect();
    Ok(Traced {
        metrics: m,
        attempted,
        failed,
        ledger,
    })
}
