//! The three workloads: their documents, views, and the seeded request
//! stream each connection sends. The wire run and the traced run draw
//! from the same [`Stream`]s, so both see the same requests.

use crate::rng::{Rng, Zipf};
use xust_bench::WORKLOAD as U_PATHS;

/// Request verbs the benchmark issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verb {
    View,
    Query,
    Transform,
    Update,
}

impl Verb {
    pub const ALL: [Verb; 4] = [Verb::View, Verb::Query, Verb::Transform, Verb::Update];

    pub fn name(self) -> &'static str {
        match self {
            Verb::View => "view",
            Verb::Query => "query",
            Verb::Transform => "transform",
            Verb::Update => "update",
        }
    }
}

/// One request, by index into its workload's documents, views and
/// query texts; [`Req::line`] renders the wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    View { view: usize, doc: usize },
    Query { view: usize, doc: usize, uq: usize },
    Transform { doc: usize, u: usize },
    Update { doc: usize, text: String },
}

impl Req {
    pub fn verb(&self) -> Verb {
        match self {
            Req::View { .. } => Verb::View,
            Req::Query { .. } => Verb::Query,
            Req::Transform { .. } => Verb::Transform,
            Req::Update { .. } => Verb::Update,
        }
    }

    pub fn doc(&self) -> usize {
        match self {
            Req::View { doc, .. }
            | Req::Query { doc, .. }
            | Req::Transform { doc, .. }
            | Req::Update { doc, .. } => *doc,
        }
    }

    /// The request line, without its trailing newline.
    pub fn line(&self, w: &Workload) -> String {
        match self {
            Req::View { view, doc } => format!("VIEW {} {}", w.views[*view].0, w.docs[*doc].name),
            Req::Query { view, doc, uq } => format!(
                "QUERY {} {} {}",
                w.views[*view].0,
                w.docs[*doc].name,
                user_query(*uq)
            ),
            Req::Transform { doc, u } => {
                format!("TRANSFORM {} {}", w.docs[*doc].name, u_transform(*u))
            }
            Req::Update { doc, text } => format!("UPDATE {} {text}", w.docs[*doc].name),
        }
    }
}

/// The Fig. 11 insert transform Uᵢ (0-based) over `doc("xmark")`.
pub fn u_transform(i: usize) -> String {
    format!(
        "transform copy $a := doc(\"xmark\") modify do insert \
         <xust-mark><origin>bench</origin></xust-mark> into $a{} return $a",
        U_PATHS[i]
    )
}

/// The Fig. 11 user query over path Uᵢ (0-based), asked of a view.
pub fn user_query(i: usize) -> String {
    format!(
        "<result>{{ for $x in doc(\"xmark\"){} return $x }}</result>",
        U_PATHS[i]
    )
}

fn view_transform(body: &str) -> String {
    format!("transform copy $a := doc(\"xmark\") modify do {body} return $a")
}

/// One generated XMark document the server loads.
#[derive(Debug, Clone)]
pub struct DocSpec {
    pub name: String,
    pub seed: u64,
}

/// How many of each write target a document has (ids run `0..n`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Targets {
    pub persons: usize,
    pub items: usize,
    pub open_auctions: usize,
}

impl Targets {
    pub fn of(xml: &str) -> Targets {
        Targets {
            persons: xml.matches("<person id=\"").count(),
            items: xml.matches("<item id=\"").count(),
            open_auctions: xml.matches("<open_auction id=\"").count(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    AdhocTransform,
    HotWriteViews,
    ManySmallDocs,
}

/// A workload: what the server holds and how clients drive it.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub factor: f64,
    pub docs: Vec<DocSpec>,
    /// `(name, transform text)` of every registered view.
    pub views: Vec<(String, String)>,
    /// Indices into Fig. 11 of the user queries `QUERY` asks.
    pub user_queries: Vec<usize>,
    /// Client connections (each one thread, one closed loop).
    pub conns: usize,
    /// Requests each connection keeps in flight.
    pub window: usize,
    /// Whether the server runs with a write-ahead log.
    pub wal: bool,
}

/// Share of `many_small_docs` requests that are `UPDATE`s.
const MANY_UPDATE_SHARE: f64 = 0.05;
/// Zipf exponent of document popularity in `many_small_docs`.
const MANY_ZIPF_S: f64 = 1.0;

impl Workload {
    pub const NAMES: [&'static str; 3] = ["adhoc_transform", "hot_write_views", "many_small_docs"];

    pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
        let single = || {
            vec![DocSpec {
                name: "xmark".into(),
                seed,
            }]
        };
        let w = match name {
            "adhoc_transform" => Workload {
                kind: Kind::AdhocTransform,
                name: "adhoc_transform",
                factor: 0.05,
                docs: single(),
                views: Vec::new(),
                user_queries: Vec::new(),
                conns: 2,
                window: 1,
                wal: false,
            },
            "hot_write_views" => Workload {
                kind: Kind::HotWriteViews,
                name: "hot_write_views",
                factor: 0.05,
                docs: single(),
                // Two descendant renames the writes never touch (retain,
                // statically for inserts), two views over the people
                // subtree and two over items (patched when the write
                // lands in their subtree, else recomputed or retained),
                // one over bidders and one dropping all people.
                views: [
                    ("kw", "rename $a//keyword as kw2"),
                    ("em", "rename $a//emph as em2"),
                    ("nocc", "delete $a/site/people/person/creditcard"),
                    ("noprofile", "delete $a/site/people/person/profile"),
                    ("nodesc", "delete $a/site/regions//item/description"),
                    ("nomail", "delete $a/site/regions//item/mailbox"),
                    (
                        "nobidder",
                        "delete $a/site/open_auctions/open_auction/bidder",
                    ),
                    ("nopeople", "delete $a/site/people"),
                ]
                .iter()
                .map(|(n, b)| (n.to_string(), view_transform(b)))
                .collect(),
                user_queries: Vec::new(),
                conns: 2,
                window: 1,
                wal: true,
            },
            "many_small_docs" => Workload {
                kind: Kind::ManySmallDocs,
                name: "many_small_docs",
                factor: 0.005,
                docs: (0..32)
                    .map(|i| DocSpec {
                        name: format!("d{i}"),
                        seed: seed.wrapping_add(i),
                    })
                    .collect(),
                views: [
                    ("nocc", "delete $a/site/people/person/creditcard"),
                    ("kw", "rename $a//keyword as kw2"),
                    ("nomail", "delete $a/site/regions//item/mailbox"),
                    (
                        "nobidder",
                        "delete $a/site/open_auctions/open_auction/bidder",
                    ),
                ]
                .iter()
                .map(|(n, b)| (n.to_string(), view_transform(b)))
                .collect(),
                user_queries: (0..U_PATHS.len()).collect(),
                conns: 2,
                window: 16,
                wal: false,
            },
            _ => return None,
        };
        Some(w)
    }

    /// Whether connection `conn` is the only writer of document `doc`.
    /// Each document has at most one writing connection, so its
    /// versions advance in that connection's send order.
    pub fn writer_of(&self, doc: usize) -> Option<usize> {
        match self.kind {
            Kind::AdhocTransform => None,
            Kind::HotWriteViews => Some(0),
            Kind::ManySmallDocs => Some(doc % self.conns),
        }
    }
}

/// The infinite, seeded request stream of one connection.
pub struct Stream {
    kind: Kind,
    conn: usize,
    rng: Rng,
    step: usize,
    /// The rest of the current round (see [`Stream::next_in_round`]):
    /// of U1–U10 in `adhoc_transform`, of the three write-target kinds
    /// in `hot_write_views`.
    block: Vec<usize>,
    /// Per document: the delete that undoes its outstanding insert.
    undo: Vec<Option<String>>,
    doc_names: Vec<String>,
    targets: Vec<Targets>,
    n_views: usize,
    user_queries: Vec<usize>,
    /// `many_small_docs`: popularity rank → document, and the documents
    /// this connection writes.
    by_rank: Vec<usize>,
    own: Vec<usize>,
    zipf_all: Zipf,
    zipf_own: Zipf,
}

impl Stream {
    pub fn new(w: &Workload, conn: usize, seed: u64, targets: &[Targets]) -> Stream {
        // Popularity ranks depend on the seed only, so both connections
        // agree on which documents are hot.
        let by_rank = Rng::new(seed ^ 0xD0C5).permutation(w.docs.len());
        let own: Vec<usize> = (0..w.docs.len())
            .filter(|&d| w.writer_of(d) == Some(conn))
            .collect();
        Stream {
            kind: w.kind,
            conn,
            rng: Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(conn as u64)),
            step: 0,
            block: Vec::new(),
            undo: vec![None; w.docs.len()],
            doc_names: w.docs.iter().map(|d| d.name.clone()).collect(),
            targets: targets.to_vec(),
            n_views: w.views.len(),
            user_queries: w.user_queries.clone(),
            by_rank,
            zipf_all: Zipf::new(w.docs.len(), MANY_ZIPF_S),
            zipf_own: Zipf::new(own.len().max(1), MANY_ZIPF_S),
            own,
        }
    }

    pub fn next_req(&mut self) -> Req {
        self.step += 1;
        match self.kind {
            Kind::AdhocTransform => Req::Transform {
                doc: 0,
                u: self.next_in_round(U_PATHS.len()),
            },
            Kind::HotWriteViews if self.conn == 0 => self.write(0, true),
            Kind::HotWriteViews => Req::View {
                view: (self.step - 1) % self.n_views,
                doc: 0,
            },
            Kind::ManySmallDocs => {
                if !self.own.is_empty() && self.rng.unit() < MANY_UPDATE_SHARE {
                    let doc = self.own[self.zipf_own.sample(&mut self.rng)];
                    return self.write(doc, false);
                }
                let doc = self.by_rank[self.zipf_all.sample(&mut self.rng)];
                let view = self.rng.below(self.n_views);
                if self.rng.unit() < 0.5 {
                    Req::View { view, doc }
                } else {
                    let uq = self.user_queries[self.rng.below(self.user_queries.len())];
                    Req::Query { view, doc, uq }
                }
            }
        }
    }

    /// The next value of a seeded round over `0..n`: each round is a
    /// permutation, so every value comes up once per `n` draws and a
    /// run's mix does not drift with the seed.
    fn next_in_round(&mut self, n: usize) -> usize {
        if self.block.is_empty() {
            self.block = self.rng.permutation(n);
        }
        self.block.pop().expect("refilled above")
    }

    /// The next write to `doc`: the delete undoing its outstanding
    /// insert, or a fresh insert at a seeded target (persons only, or
    /// persons, items and open auctions in rounds when `varied`), so
    /// the document's size stays within one mark of the original.
    fn write(&mut self, doc: usize, varied: bool) -> Req {
        if let Some(text) = self.undo[doc].take() {
            return Req::Update { doc, text };
        }
        let t = self.targets[doc];
        let kind = if varied { self.next_in_round(3) } else { 0 };
        let target = match kind {
            0 => format!(
                "/site/people/person[@id = \"person{}\"]",
                self.rng.below(t.persons)
            ),
            1 => format!(
                "/site/regions//item[@id = \"item{}\"]",
                self.rng.below(t.items)
            ),
            _ => format!(
                "/site/open_auctions/open_auction[@id = \"open_auction{}\"]",
                self.rng.below(t.open_auctions)
            ),
        };
        let name = &self.doc_names[doc];
        self.undo[doc] = Some(format!(
            "transform copy $a := doc(\"{name}\") modify do delete $a{target}/xust-mark return $a"
        ));
        Req::Update {
            doc,
            text: format!(
                "transform copy $a := doc(\"{name}\") modify do insert \
                 <xust-mark><t>w</t></xust-mark> into $a{target} return $a"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(w: &Workload) -> Vec<Targets> {
        vec![
            Targets {
                persons: 10,
                items: 10,
                open_auctions: 10
            };
            w.docs.len()
        ]
    }

    #[test]
    fn streams_are_seeded() {
        for name in Workload::NAMES {
            let w = Workload::by_name(name, 5).unwrap();
            let t = targets(&w);
            for conn in 0..w.conns {
                let a: Vec<Req> = (0..50)
                    .scan(Stream::new(&w, conn, 5, &t), |s, _| Some(s.next_req()))
                    .collect();
                let b: Vec<Req> = (0..50)
                    .scan(Stream::new(&w, conn, 5, &t), |s, _| Some(s.next_req()))
                    .collect();
                assert_eq!(a, b, "{name} conn {conn}");
            }
        }
    }

    #[test]
    fn adhoc_blocks_cover_every_query() {
        let w = Workload::by_name("adhoc_transform", 1).unwrap();
        let mut s = Stream::new(&w, 0, 1, &targets(&w));
        let mut us: Vec<usize> = (0..10)
            .map(|_| match s.next_req() {
                Req::Transform { u, .. } => u,
                other => panic!("{other:?}"),
            })
            .collect();
        us.sort_unstable();
        assert_eq!(us, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn hot_writes_cover_each_target_kind_once_per_round() {
        let w = Workload::by_name("hot_write_views", 4).unwrap();
        let mut s = Stream::new(&w, 0, 4, &targets(&w));
        for _ in 0..4 {
            let mut kinds: Vec<&str> = (0..6)
                .filter_map(|_| match s.next_req() {
                    Req::Update { text, .. } if text.contains("modify do insert") => {
                        ["person[", "item[", "open_auction["]
                            .into_iter()
                            .find(|k| text.contains(k))
                    }
                    _ => None,
                })
                .collect();
            kinds.sort_unstable();
            assert_eq!(kinds, ["item[", "open_auction[", "person["]);
        }
    }

    #[test]
    fn writes_come_in_insert_delete_pairs_on_owned_docs() {
        let w = Workload::by_name("many_small_docs", 2).unwrap();
        let mut s = Stream::new(&w, 1, 2, &targets(&w));
        let mut open = vec![false; w.docs.len()];
        for _ in 0..2000 {
            if let Req::Update { doc, text } = s.next_req() {
                assert_eq!(w.writer_of(doc), Some(1));
                assert_eq!(text.contains("modify do insert"), !open[doc]);
                open[doc] = !open[doc];
            }
        }
    }
}
