//! The output oracle: every reply of a run, checked against a
//! from-scratch reference.
//!
//! Each document gets a mirror that replays the acknowledged `UPDATE`
//! stream in order, each step a `two_pass` evaluation of the update's
//! transform. A `VIEW` or `TRANSFORM` reply must equal `two_pass` of its
//! query over the mirror, and a `QUERY` reply must equal the user query
//! run on the XQuery engine over the materialized view, at one of the
//! document states the reply may reflect (`lo..=hi`, see
//! [`Sample`]). Replies and references are compared by
//! [`fingerprint`].

use std::collections::{BTreeMap, HashMap};

use xust_compose::UserQuery;
use xust_core::{evaluate, parse_transform, Method, TransformQuery};
use xust_tree::Document;
use xust_xquery::Engine;

use crate::wire::{fingerprint, Outcome, Sample};
use crate::workload::{u_transform, user_query, Req, Workload};

/// What a reply is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Key {
    View(usize),
    Transform(usize),
    Query(usize, usize),
}

/// The oracle's verdict over one run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Replies compared against a reference.
    pub checked: usize,
    /// Reference bodies computed.
    pub references: usize,
    /// One line per reply that matched no admissible reference, or per
    /// broken update sequence.
    pub mismatches: Vec<String>,
}

/// Parsed queries, shared by every reference computation.
struct Queries {
    views: Vec<TransformQuery>,
    transforms: Vec<TransformQuery>,
    user: Vec<UserQuery>,
}

impl Queries {
    fn new(w: &Workload) -> Queries {
        let parse = |t: &str| parse_transform(t).expect("benchmark transforms parse");
        Queries {
            views: w.views.iter().map(|(_, t)| parse(t)).collect(),
            transforms: (0..xust_bench::WORKLOAD.len())
                .map(|u| parse(&u_transform(u)))
                .collect(),
            user: (0..xust_bench::WORKLOAD.len())
                .map(|u| UserQuery::parse(&user_query(u)).expect("user queries parse"))
                .collect(),
        }
    }

    fn reference(&self, doc: &Document, key: Key) -> Result<(usize, u64), String> {
        let eval =
            |q: &TransformQuery| evaluate(doc, q, Method::TwoPass).map_err(|e| e.to_string());
        let body = match key {
            Key::View(v) => eval(&self.views[v])?.serialize(),
            Key::Transform(u) => eval(&self.transforms[u])?.serialize(),
            Key::Query(v, uq) => {
                let view = eval(&self.views[v])?;
                let q = &self.user[uq];
                let mut engine = Engine::new();
                engine.load_doc(q.doc_name.clone(), view);
                let value = engine
                    .eval_expr(&q.to_expr(), &[])
                    .map_err(|e| e.to_string())?;
                engine.serialize_value(&value)
            }
        };
        Ok(fingerprint(body.as_bytes()))
    }
}

fn key_of(req: &Req) -> Option<Key> {
    match *req {
        Req::View { view, .. } => Some(Key::View(view)),
        Req::Transform { u, .. } => Some(Key::Transform(u)),
        Req::Query { view, uq, .. } => Some(Key::Query(view, uq)),
        Req::Update { .. } => None,
    }
}

/// Checks every sample of a run. `xmls` are the generated documents
/// the server loaded, in workload order. Uses up to `threads` threads.
pub fn verify(w: &Workload, xmls: &[String], samples: &[Sample], threads: usize) -> Verdict {
    let queries = Queries::new(w);
    let mut verdict = Verdict::default();
    for (doc, xml) in xmls.iter().enumerate() {
        verify_doc(w, &queries, doc, xml, samples, threads, &mut verdict);
    }
    verdict
}

fn verify_doc(
    w: &Workload,
    queries: &Queries,
    doc: usize,
    xml: &str,
    samples: &[Sample],
    threads: usize,
    verdict: &mut Verdict,
) {
    let name = &w.docs[doc].name;
    // The acknowledged update stream: index → (text, replied version).
    let mut updates: BTreeMap<u64, (&str, Option<u64>)> = BTreeMap::new();
    // Reads still looking for their reference: (sample, key).
    let mut reads: Vec<(usize, Key)> = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        if s.req.doc() != doc {
            continue;
        }
        let Outcome::Ok { .. } = s.outcome else {
            continue; // errors and transport failures are counted elsewhere
        };
        match (&s.req, key_of(&s.req)) {
            (Req::Update { text, .. }, _) => {
                updates.insert(s.lo, (text.as_str(), s.version));
            }
            (_, Some(key)) => reads.push((i, key)),
            _ => unreachable!("every read verb has a key"),
        }
    }
    let last = updates.keys().next_back().copied().unwrap_or(0);
    if let Some(missing) = (1..=last).find(|k| !updates.contains_key(k)) {
        verdict.mismatches.push(format!(
            "{name}: update #{missing} of {last} was never acknowledged"
        ));
        return;
    }
    // Versions come from the document's store shard: they need not be
    // consecutive, but must increase in the order the updates were sent.
    let mut prev = 0;
    for (&k, &(_, v)) in &updates {
        match v {
            Some(v) if v > prev => prev = v,
            _ => verdict.mismatches.push(format!(
                "{name}: update #{k} replied version={v:?} after version {prev}"
            )),
        }
    }
    // Reads by the first state they may reflect.
    reads.sort_by_key(|&(i, _)| samples[i].lo);
    let mut open: Vec<(usize, Key)> = Vec::new();
    let mut next_read = 0;
    let mut mirror = match Document::parse(xml) {
        Ok(d) => d,
        Err(e) => {
            verdict
                .mismatches
                .push(format!("{name}: reference parse: {e}"));
            return;
        }
    };
    for k in 0..=last {
        if k > 0 {
            let (text, _) = updates[&k];
            match parse_transform(text)
                .map_err(|e| e.to_string())
                .and_then(|q| evaluate(&mirror, &q, Method::TwoPass).map_err(|e| e.to_string()))
            {
                Ok(next) => mirror = next,
                Err(e) => {
                    verdict
                        .mismatches
                        .push(format!("{name}: reference update #{k}: {e}"));
                    return;
                }
            }
        }
        while next_read < reads.len() && samples[reads[next_read].0].lo <= k {
            open.push(reads[next_read]);
            next_read += 1;
        }
        if open.is_empty() {
            continue;
        }
        let mut keys: Vec<Key> = open.iter().map(|&(_, key)| key).collect();
        keys.sort_unstable();
        keys.dedup();
        let refs = compute_refs(queries, &mirror, &keys, threads);
        verdict.references += keys.len();
        open.retain(|&(i, key)| {
            let s = &samples[i];
            let matched = match (&s.outcome, refs.get(&key)) {
                (Outcome::Ok { len, hash }, Some(Ok(r))) => *r == (*len, *hash),
                _ => false,
            };
            if matched {
                verdict.checked += 1;
                return false;
            }
            if s.hi <= k {
                let why = match refs.get(&key) {
                    Some(Err(e)) => format!(" (reference failed: {e})"),
                    _ => String::new(),
                };
                verdict.checked += 1;
                verdict.mismatches.push(format!(
                    "{name}: conn {} {:?} matched no state in {}..={}{why}",
                    s.conn, s.req, s.lo, s.hi
                ));
                return false;
            }
            true
        });
    }
    for (i, _) in open.into_iter().chain(reads[next_read..].iter().copied()) {
        let s = &samples[i];
        verdict.checked += 1;
        verdict.mismatches.push(format!(
            "{name}: conn {} {:?} claims states {}..={} beyond the {last} acknowledged updates",
            s.conn, s.req, s.lo, s.hi
        ));
    }
}

fn compute_refs(
    queries: &Queries,
    doc: &Document,
    keys: &[Key],
    threads: usize,
) -> HashMap<Key, Result<(usize, u64), String>> {
    let threads = threads.clamp(1, keys.len());
    let chunk = keys.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&k| (k, queries.reference(doc, k)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}
