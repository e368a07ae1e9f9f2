//! In-memory spans for the traced run: `(name, start, end, parent,
//! request id)`, with self-time accounting per layer.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The layer a span belongs to: its name's first dot-separated
/// component, or the first two for `serve.*` (the server's modules).
pub fn layer_of(name: &str) -> &str {
    let mut cut = name.match_indices('.').map(|(i, _)| i);
    let first = cut.next();
    let end = if name.starts_with("serve.") {
        cut.next()
    } else {
        first
    };
    &name[..end.unwrap_or(name.len())]
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>, req: u64) -> usize {
        let start = self.now_ns();
        let id = self.push(name, self.open.last().copied(), req, start, start);
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one); returns its length.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.retain(|&o| o != id);
        self.spans[id].end_ns = end;
        self.spans[id].dur_ns()
    }

    /// Runs `f` inside a leaf span; returns its result and length (ns).
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.enter(name, req);
        let out = f();
        (out, self.exit(id))
    }

    /// Records a finished span, e.g. a phase the server timed itself.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Each span's length minus its children's (never below zero).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time summed per layer ([`layer_of`]).
    pub fn layer_self_ns(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(layer_of(&s.name).to_string()).or_insert(0) += ns;
        }
        out
    }

    /// Self time of every span named `name`, over their total length:
    /// the share of those spans no child covers.
    pub fn uncovered_share(&self, name: &str) -> f64 {
        let (mut own, mut total) = (0u64, 0u64);
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            if s.name == name {
                own += ns;
                total += s.dur_ns();
            }
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// Writes every span as a tab-separated row.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_split_serve_modules() {
        assert_eq!(layer_of("core.eval.top_down"), "core");
        assert_eq!(layer_of("tree"), "tree");
        assert_eq!(layer_of("serve.cache"), "serve.cache");
        assert_eq!(layer_of("serve.viewcache.patch"), "serve.viewcache");
        assert_eq!(layer_of("serve.handle"), "serve.handle");
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::new();
        let root = s.push("serve.handle", None, 1, 0, 100);
        let eval = s.push("core.eval", Some(root), 1, 10, 50);
        s.push("tree.serialize", Some(root), 1, 50, 80);
        // A grandchild is charged to its parent, not to the root.
        s.push("xpath.eval", Some(eval), 1, 10, 30);
        assert_eq!(s.self_ns(), vec![30, 20, 30, 20]);
        let layers = s.layer_self_ns();
        assert_eq!(layers["serve.handle"], 30);
        assert_eq!(layers["core"], 20);
        assert_eq!(layers["xpath"], 20);
        assert_eq!(layers["tree"], 30);
        assert_eq!(s.uncovered_share("serve.handle"), 0.3);
    }

    #[test]
    fn overlapping_children_never_go_negative() {
        let mut s = Spans::new();
        let root = s.push("serve.handle", None, 1, 0, 10);
        s.push("core.eval", Some(root), 1, 0, 8);
        s.push("tree.serialize", Some(root), 1, 2, 9);
        assert_eq!(s.self_ns()[root], 0);
    }

    #[test]
    fn entered_spans_nest_under_the_open_one() {
        let mut s = Spans::new();
        let a = s.enter("core.apply", 3);
        let ((), _) = s.time("xpath.eval", 3, || ());
        s.exit(a);
        assert_eq!(s.get(1).parent, Some(a));
        assert_eq!(s.get(1).req, 3);
        assert!(s.get(a).end_ns >= s.get(1).end_ns);
        assert_eq!(s.uncovered_share("nothing"), 0.0);
    }
}
