//! `EXPLAIN` and `ANALYZE`: reports about a view that execute nothing.
//!
//! [`Server::explain`] says which plan a `VIEW view doc` request would
//! run (the method per link, the document shape, result-cache
//! residency); [`Server::analyze`] renders the registration-time static
//! analysis stored on the [`ViewDef`](crate::ViewDef). Both read the
//! registry, the store and the result cache without perturbing them.

use xust_core::{LabelSet, Method};

use crate::error::ServeError;
use crate::registry::ViewBody;
use crate::server::{DocSource, DocView, Server};
use crate::stats::Verb;

impl Server {
    /// Reports — **without executing anything** — the plan a `VIEW
    /// view doc` request would run: the method per link with the rule
    /// behind it, the document shape, and whether the view-result cache
    /// holds this (view, doc) at the current document version.
    pub fn explain(&self, view: &str, doc: &str) -> Result<Explanation, ServeError> {
        let result = self.explain_inner(view, doc);
        self.inner.stats.record_verb(Verb::Explain, result.is_ok());
        result
    }

    /// Reports — **without executing anything** — the registration-time
    /// static analysis of a view: satisfiability (dead views select
    /// nothing, ever), per-automaton dead-state counts, folded
    /// qualifier terms, the static alphabet, and the containment
    /// (cache-family) class the definition landed in.
    pub fn analyze(&self, view: &str) -> Result<Analysis, ServeError> {
        let result = self.analyze_inner(view);
        self.inner.stats.record_verb(Verb::Analyze, result.is_ok());
        result
    }

    fn analyze_inner(&self, view: &str) -> Result<Analysis, ServeError> {
        let def = self
            .inner
            .registry
            .get(view)
            .ok_or_else(|| ServeError::UnknownView(view.to_string()))?;
        let labels = |set: &LabelSet| -> Vec<String> {
            let mut v: Vec<String> = set.iter().map(|s| s.as_str().to_string()).collect();
            v.sort();
            if set.has_wildcard() {
                v.push("*".to_string());
            }
            v
        };
        let a = &def.analysis;
        let family_members = self
            .inner
            .registry
            .defs()
            .iter()
            .filter(|d| d.cache_key == def.cache_key)
            .count();
        Ok(Analysis {
            view: def.name.clone(),
            doc: def.doc_name.clone(),
            dead: a.dead,
            rules: def.rules().len(),
            sel_states: a.sel_states,
            sel_dead: a.sel_dead,
            filt_states: a.filt_states,
            filt_dead: a.filt_dead,
            folded_qualifiers: a.folded_qualifiers,
            alphabet: labels(&def.alphabet),
            cache_key: def.cache_key.to_string(),
            cache_generation: def.cache_generation,
            family_members,
            micros: a.micros,
        })
    }

    fn explain_inner(&self, view: &str, doc: &str) -> Result<Explanation, ServeError> {
        let def = self
            .inner
            .registry
            .get(view)
            .ok_or_else(|| ServeError::UnknownView(view.to_string()))?;
        let (source, version) = DocView::Live(&self.inner.docs).get_versioned(doc)?;
        let shape = match &source {
            DocSource::Memory(d) => format!("memory nodes={}", d.arena_len()),
            DocSource::File(path) => {
                let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                format!("file bytes={bytes}")
            }
        };
        let mut explanation = Explanation {
            view: view.to_string(),
            doc: doc.to_string(),
            version,
            generation: def.generation,
            shape,
            dead: false,
            result_cached: None,
            links: Vec::new(),
        };
        // Mirrors `handle_view`'s routing: a dead view of an in-memory
        // document serves the base document and evaluates nothing.
        if def.analysis.dead && matches!(&source, DocSource::Memory(_)) {
            explanation.dead = true;
            return Ok(explanation);
        }
        explanation.links = match (&source, &def.body) {
            (DocSource::File(_), ViewBody::Chain(chain)) if chain.len() == 1 => vec![LinkPlan {
                index: 0,
                method: Method::TwoPassSax,
                reason: "file-backed",
            }],
            (_, ViewBody::Chain(chain)) => {
                // `peek` is the non-perturbing probe: no hit/miss
                // counted, no LRU bump — EXPLAIN must not change what it
                // reports on.
                if matches!(&source, DocSource::Memory(_)) {
                    explanation.result_cached = Some(self.inner.results.peek(
                        &def.cache_key,
                        doc,
                        version,
                        def.cache_generation,
                    ));
                }
                chain
                    .iter()
                    .enumerate()
                    .map(|(index, link)| LinkPlan {
                        index,
                        method: link.method(),
                        reason: match link.method() {
                            Method::TwoPass => "qualifier with //",
                            _ => "default",
                        },
                    })
                    .collect()
            }
            (_, ViewBody::Multi(_)) => vec![LinkPlan {
                index: 0,
                method: Method::TopDown,
                reason: "fused multi-update",
            }],
        };
        Ok(explanation)
    }
}

/// What [`Server::explain`] reports: the plan a `VIEW view doc`
/// request would run.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The view being explained.
    pub view: String,
    /// The target document.
    pub doc: String,
    /// The document's current version (what cache residency is keyed
    /// on).
    pub version: u64,
    /// The view definition's generation.
    pub generation: u64,
    /// Human-readable document shape (`memory nodes=…` / `file
    /// bytes=…`).
    pub shape: String,
    /// True when the view is statically dead: `VIEW` serves the base
    /// document without evaluating anything, so there are no links.
    pub dead: bool,
    /// View-result-cache residency at (version, generation): `None`
    /// when the (source, body) combination is not cacheable at all.
    pub result_cached: Option<bool>,
    /// Per-link plans, in evaluation order.
    pub links: Vec<LinkPlan>,
}

/// One link's plan inside an [`Explanation`].
#[derive(Debug, Clone)]
pub struct LinkPlan {
    /// Position in the view's chain.
    pub index: usize,
    /// The method the link evaluates with.
    pub method: Method,
    /// Why: `default` (GENTOP), `qualifier with //` (TD-BU),
    /// `file-backed` (twoPassSAX) or `fused multi-update`.
    pub reason: &'static str,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "explain view={} doc={} version={} generation={} shape[{}] result_cache={}",
            self.view,
            self.doc,
            self.version,
            self.generation,
            self.shape,
            match self.result_cached {
                Some(true) => "hit",
                Some(false) => "miss",
                None => "n/a",
            }
        )?;
        if self.dead {
            write!(f, "\ndead (serves the base document)")?;
        }
        for link in &self.links {
            write!(
                f,
                "\nlink {}: method={} ({})",
                link.index, link.method, link.reason
            )?;
        }
        Ok(())
    }
}

/// What [`Server::analyze`] reports: the registration-time static
/// analysis of one view, exactly as the hot paths consume it. Nothing
/// here is recomputed — the report *is* the stored
/// [`xust_analyze::ViewAnalysis`] plus the containment-class
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The view analyzed.
    pub view: String,
    /// The document the view reads.
    pub doc: String,
    /// True when no rule can ever select a node (the view is the
    /// identity transform; it is excluded from caching and grouping).
    pub dead: bool,
    /// Transform rules in the definition (chain links or fused rules).
    pub rules: usize,
    /// Selecting-NFA states, summed over rules.
    pub sel_states: usize,
    /// Dead selecting-NFA states (unreachable or non-co-reachable).
    pub sel_dead: usize,
    /// Filtering-NFA states, summed over rules.
    pub filt_states: usize,
    /// Dead filtering-NFA states.
    pub filt_dead: usize,
    /// Qualifier (sub-)terms eliminated by constant folding.
    pub folded_qualifiers: usize,
    /// The view's static alphabet, sorted (`*` marks a wildcard).
    pub alphabet: Vec<String>,
    /// The cache family (containment class) the definition landed in.
    pub cache_key: String,
    /// The family's cache generation.
    pub cache_generation: u64,
    /// Live views sharing this cache family (including this one).
    pub family_members: usize,
    /// Wall-clock cost of the registration-time analysis.
    pub micros: u64,
}

impl std::fmt::Display for Analysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "analyze view={} doc={} dead={} rules={} analysis_micros={}",
            self.view, self.doc, self.dead, self.rules, self.micros
        )?;
        write!(
            f,
            "\nnfa: selecting states={} dead={} filtering states={} dead={} folded_qualifiers={}",
            self.sel_states,
            self.sel_dead,
            self.filt_states,
            self.filt_dead,
            self.folded_qualifiers
        )?;
        write!(f, "\nalphabet: {{{}}}", self.alphabet.join(","))?;
        write!(
            f,
            "\nfamily: key={} generation={} members={}",
            self.cache_key, self.cache_generation, self.family_members
        )
    }
}
