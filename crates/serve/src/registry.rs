//! The view registry: named, pre-compiled transform views.
//!
//! A *view* is what the paper calls a transformed document `Qt(T)` that
//! is never materialized at rest: a security view (Example 1.1), a
//! policy view over a user group, or a what-if scenario ("the database
//! as it would look after these updates"). Registering a view parses
//! and NFA-compiles its transforms exactly once; every subsequent
//! request — from any thread — reuses the compiled artifacts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering}; // lint: atomic-ok (registration counters)
use std::sync::{Arc, RwLock};
use std::time::Instant;

use xust_analyze::{analyze_path, analyze_view, views_equivalent, ViewAnalysis};
use xust_core::{
    qualifier_anchor_alphabet_into, CompiledTransform, LabelSet, MultiTransformQuery, UpdateOp,
};
use xust_secview::Policy;
use xust_xpath::Path;

use crate::error::ServeError;

/// How a view transforms its base document.
pub enum ViewBody {
    /// A chain `Qtₖ(…Qt₁(T)…)` applied left to right — each link reads
    /// the previous link's output (what-if scenario stacking).
    Chain(Vec<Arc<CompiledTransform>>),
    /// A multi-update with snapshot semantics — every rule's path reads
    /// the *original* document (access-control policies).
    Multi(Box<MultiTransformQuery>),
}

/// A registered view.
pub struct ViewDef {
    /// Registry name (unique).
    pub name: String,
    /// The `doc("…")` name the view's transforms read.
    pub doc_name: String,
    /// The transformation body.
    pub body: ViewBody,
    /// Concrete syntax the view was registered from (for introspection).
    pub sources: Vec<String>,
    /// Static label alphabet of the whole body (union over links/rules)
    /// — the view side of the write-path relevance test.
    pub alphabet: LabelSet,
    /// Registration generation (strictly increasing across the
    /// registry). Cached results are stamped with it so a result
    /// materialized under an old definition can never be served after a
    /// re-registration, even if it lands in the cache after the purge.
    pub generation: u64,
    /// The registration-time static analysis report: dead-view verdict,
    /// NFA liveness, and qualifier folds.
    pub analysis: ViewAnalysis,
    /// Result-cache family key. Normally the view's own name; when
    /// registration proves this view equivalent to an already-registered
    /// one (same document, same rules up to path equivalence), the
    /// representative's key is adopted so both serve one cached body.
    pub cache_key: Arc<str>,
    /// The generation cached results are stamped with — the
    /// representative's when `cache_key` is adopted, else this view's
    /// own [`ViewDef::generation`].
    pub cache_generation: u64,
    /// The qualifier anchor alphabet of a single-link view's path
    /// ([`xust_core::qualifier_anchor_alphabet_into`]) — what the patch
    /// fate's guard test reads on every write. Empty for every other
    /// body, which never patches.
    pub anchor_alphabet: LabelSet,
}

impl std::fmt::Debug for ViewDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewDef")
            .field("name", &self.name)
            .field("doc_name", &self.doc_name)
            .field(
                "links",
                &match &self.body {
                    ViewBody::Chain(c) => c.len(),
                    ViewBody::Multi(m) => m.updates.len(),
                },
            )
            .field("sources", &self.sources)
            .finish()
    }
}

impl ViewDef {
    /// The body as a flat `(path, op)` rule list — the form every
    /// static analysis consumes.
    pub fn rules(&self) -> Vec<(&Path, &UpdateOp)> {
        match &self.body {
            ViewBody::Chain(links) => links
                .iter()
                .map(|l| (&l.query().path, &l.query().op))
                .collect(),
            ViewBody::Multi(mq) => mq.updates.iter().map(|(p, o)| (p, o)).collect(),
        }
    }

    /// The single compiled transform of a one-link chain, if this view
    /// is one — the form the Compose Method accepts.
    pub fn single(&self) -> Option<&Arc<CompiledTransform>> {
        match &self.body {
            ViewBody::Chain(links) if links.len() == 1 => links.first(),
            _ => None,
        }
    }
}

/// The qualifier anchor alphabet of a one-link chain (see
/// [`ViewDef::anchor_alphabet`]).
fn anchor_alphabet(body: &ViewBody) -> LabelSet {
    let mut anchor = LabelSet::new();
    if let ViewBody::Chain(links) = body {
        if let [link] = links.as_slice() {
            qualifier_anchor_alphabet_into(&link.query().path, &mut anchor);
        }
    }
    anchor
}

/// Thread-safe name → [`ViewDef`] map.
#[derive(Default)]
pub struct ViewRegistry {
    views: RwLock<HashMap<String, Arc<ViewDef>>>,
    /// Transform compilations performed at registration time.
    compiles: AtomicU64,
    /// Registration events so far (source of [`ViewDef::generation`]).
    generations: AtomicU64,
}

impl ViewRegistry {
    /// An empty registry.
    pub fn new() -> ViewRegistry {
        ViewRegistry::default()
    }

    /// Registers (or replaces) a chain view from concrete transform
    /// syntax, one query per element. All links must read the same
    /// document name, which becomes the view's `doc_name`.
    pub fn register_chain(
        &self,
        name: impl Into<String>,
        queries: &[&str],
    ) -> Result<Arc<ViewDef>, ServeError> {
        let name = name.into();
        if queries.is_empty() {
            return Err(ServeError::InvalidView(format!(
                "view '{name}': a chain needs at least one transform"
            )));
        }
        let t0 = Instant::now();
        let mut links = Vec::with_capacity(queries.len());
        let mut doc_name: Option<String> = None;
        let mut folded = 0usize;
        for q in queries {
            let ct = CompiledTransform::parse(q)
                .map_err(|e| ServeError::Parse(format!("view '{name}': {e}")))?;
            self.compiles.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter, read only by STATS
            match &doc_name {
                None => doc_name = Some(ct.query().doc_name.clone()),
                Some(d) if *d != ct.query().doc_name => {
                    return Err(ServeError::InvalidView(format!(
                        "view '{name}': chain links read doc(\"{d}\") and doc(\"{}\")",
                        ct.query().doc_name
                    )));
                }
                Some(_) => {}
            }
            // Constant-fold qualifiers before the automata are built:
            // a simplified path selects the same nodes with smaller
            // NFAs and a tighter alphabet.
            let pa = analyze_path(&ct.query().path);
            let ct = if pa.folded > 0 && pa.satisfiable {
                folded += pa.folded;
                let mut query = ct.query().clone();
                query.path = pa.simplified;
                CompiledTransform::compile(query)
            } else {
                ct
            };
            links.push(Arc::new(ct));
        }
        let mut alphabet = LabelSet::new();
        for link in &links {
            alphabet.union_with(link.alphabet());
        }
        let mut analysis = analyze_view(links.iter().map(|l| (&l.query().path, &l.query().op)));
        analysis.folded_qualifiers += folded;
        analysis.micros = t0.elapsed().as_micros() as u64;
        // Generation is allocated and the definition installed under
        // one write-lock hold: drawn outside it, two racing
        // registrations of the same name could install the lower
        // generation last, breaking the strictly-increasing invariant
        // the result cache's generation guard depends on.
        let mut views = self.views.write().expect("registry lock poisoned");
        let generation = self.generations.fetch_add(1, Ordering::Relaxed) + 1; // relaxed: uniqueness comes from fetch_add; ordering from the write lock
        let doc_name = doc_name.expect("at least one link");
        let rules: Vec<(&Path, &UpdateOp)> = links
            .iter()
            .map(|l| (&l.query().path, &l.query().op))
            .collect();
        let (cache_key, cache_generation) =
            cache_family(&views, &name, &doc_name, &rules, generation);
        let body = ViewBody::Chain(links);
        let def = Arc::new(ViewDef {
            name: name.clone(),
            doc_name,
            anchor_alphabet: anchor_alphabet(&body),
            body,
            sources: queries.iter().map(|s| s.to_string()).collect(),
            alphabet,
            generation,
            analysis,
            cache_key,
            cache_generation,
        });
        views.insert(name, Arc::clone(&def));
        Ok(def)
    }

    /// Registers a single-transform view.
    pub fn register(
        &self,
        name: impl Into<String>,
        query: &str,
    ) -> Result<Arc<ViewDef>, ServeError> {
        self.register_chain(name, &[query])
    }

    /// Registers a [`Policy`] as a served view named after its user
    /// group. Single-rule policies become composable chain views;
    /// multi-rule policies keep their snapshot semantics.
    pub fn register_policy(&self, policy: &Policy) -> Result<Arc<ViewDef>, ServeError> {
        let t0 = Instant::now();
        let name = policy.group.clone();
        let sources: Vec<String> = policy
            .rules()
            .iter()
            .map(|r| format!("{}: {}", r.name, r.path))
            .collect();
        let mut alphabet = LabelSet::new();
        let mut folded = 0usize;
        let body = match policy.compile_single() {
            Some(q) => {
                self.compiles.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter, read only by STATS
                let pa = analyze_path(&q.path);
                let q = if pa.folded > 0 && pa.satisfiable {
                    folded += pa.folded;
                    let mut q = q;
                    q.path = pa.simplified;
                    q
                } else {
                    q
                };
                let ct = CompiledTransform::compile(q);
                alphabet.union_with(ct.alphabet());
                ViewBody::Chain(vec![Arc::new(ct)])
            }
            None => {
                let mut mq = policy.compile();
                if mq.updates.is_empty() {
                    return Err(ServeError::InvalidView(format!(
                        "policy '{name}' has no rules"
                    )));
                }
                for (path, _) in &mut mq.updates {
                    let pa = analyze_path(path);
                    if pa.folded > 0 && pa.satisfiable {
                        folded += pa.folded;
                        *path = pa.simplified;
                    }
                }
                for (path, op) in &mq.updates {
                    alphabet.union_with(&xust_core::update_alphabet(path, op));
                }
                ViewBody::Multi(Box::new(mq))
            }
        };
        let rules: Vec<(&Path, &UpdateOp)> = match &body {
            ViewBody::Chain(links) => links
                .iter()
                .map(|l| (&l.query().path, &l.query().op))
                .collect(),
            ViewBody::Multi(mq) => mq.updates.iter().map(|(p, o)| (p, o)).collect(),
        };
        let mut analysis = analyze_view(rules.iter().copied());
        analysis.folded_qualifiers += folded;
        analysis.micros = t0.elapsed().as_micros() as u64;
        // Same lock discipline as `register_chain`: generation and
        // install are atomic together.
        let mut views = self.views.write().expect("registry lock poisoned");
        let generation = self.generations.fetch_add(1, Ordering::Relaxed) + 1; // relaxed: uniqueness comes from fetch_add; ordering from the write lock
        let (cache_key, cache_generation) =
            cache_family(&views, &name, &policy.doc_name, &rules, generation);
        drop(rules);
        let def = Arc::new(ViewDef {
            name: name.clone(),
            doc_name: policy.doc_name.clone(),
            anchor_alphabet: anchor_alphabet(&body),
            body,
            sources,
            alphabet,
            generation,
            analysis,
            cache_key,
            cache_generation,
        });
        views.insert(name, Arc::clone(&def));
        Ok(def)
    }

    /// Looks a view up.
    pub fn get(&self, name: &str) -> Option<Arc<ViewDef>> {
        self.views
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// Registered view names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .views
            .read()
            .expect("registry lock poisoned")
            .keys()
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// Removes a view, returning its definition if it existed.
    pub fn remove(&self, name: &str) -> Option<Arc<ViewDef>> {
        self.views
            .write()
            .expect("registry lock poisoned")
            .remove(name)
    }

    /// Every registered definition (unordered).
    pub fn defs(&self) -> Vec<Arc<ViewDef>> {
        self.views
            .read()
            .expect("registry lock poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// True when some registered view stores its cached results under
    /// `key` — the guard a removal consults before purging a result
    /// family another definition may still serve from.
    pub fn family_in_use(&self, key: &str) -> bool {
        self.views
            .read()
            .expect("registry lock poisoned")
            .values()
            .any(|v| &*v.cache_key == key)
    }

    /// Registration-time compilations performed so far.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed) // relaxed: monotone counter, read only by STATS
    }
}

/// Picks the result-cache family for a view being registered: if some
/// already-registered view over the same document is statically
/// equivalent (rule-by-rule identical update effects over provably
/// equal selections), adopt its `(cache_key, cache_generation)` so both
/// definitions serve the same cached bodies. Re-registering a name with
/// an equivalent body adopts its own previous family, keeping warm
/// results valid across the re-registration. Otherwise the view starts
/// its own family keyed by its name and fresh generation.
fn cache_family(
    views: &HashMap<String, Arc<ViewDef>>,
    name: &str,
    doc_name: &str,
    rules: &[(&Path, &UpdateOp)],
    generation: u64,
) -> (Arc<str>, u64) {
    // Deterministic scan order so racing registrations of equivalent
    // views converge on one representative.
    let mut names: Vec<&String> = views.keys().collect();
    names.sort();
    for n in names {
        let v = &views[n];
        if v.doc_name == doc_name && views_equivalent(rules, &v.rules()) {
            return (Arc::clone(&v.cache_key), v.cache_generation);
        }
    }
    (Arc::from(name), generation)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEL: &str = r#"transform copy $a := doc("db") modify do delete $a//price return $a"#;
    const REN: &str =
        r#"transform copy $a := doc("db") modify do rename $a//part as component return $a"#;

    #[test]
    fn chain_registration_compiles_once_per_link() {
        let r = ViewRegistry::new();
        let def = r.register_chain("scenario", &[DEL, REN]).unwrap();
        assert_eq!(r.compiles(), 2);
        assert_eq!(def.doc_name, "db");
        assert!(def.single().is_none());
        assert!(matches!(&def.body, ViewBody::Chain(c) if c.len() == 2));
        assert_eq!(r.names(), vec!["scenario".to_string()]);
        // Re-lookup shares the same Arc (no recompilation path at all).
        let again = r.get("scenario").unwrap();
        assert!(Arc::ptr_eq(&def, &again));
    }

    #[test]
    fn single_view_is_composable() {
        let r = ViewRegistry::new();
        let def = r.register("sec", DEL).unwrap();
        assert!(def.single().is_some());
    }

    #[test]
    fn mixed_doc_names_rejected() {
        let r = ViewRegistry::new();
        let other = r#"transform copy $a := doc("other") modify do delete $a//x return $a"#;
        let err = r.register_chain("bad", &[DEL, other]).unwrap_err();
        assert!(err.to_string().contains("doc"));
        assert!(r.get("bad").is_none());
    }

    #[test]
    fn parse_errors_name_the_view() {
        let r = ViewRegistry::new();
        let err = r.register("broken", "garbage").unwrap_err();
        assert!(err.to_string().contains("broken"));
    }

    #[test]
    fn policies_register_under_their_group() {
        let single = Policy::new("analysts", "db")
            .hide("prices", "//price")
            .unwrap();
        let multi = Policy::new("interns", "db")
            .hide("prices", "//price")
            .unwrap()
            .relabel("parts", "//part", "item")
            .unwrap();
        let r = ViewRegistry::new();
        let s = r.register_policy(&single).unwrap();
        let m = r.register_policy(&multi).unwrap();
        assert!(s.single().is_some());
        assert!(matches!(&m.body, ViewBody::Multi(_)));
        assert_eq!(
            r.names(),
            vec!["analysts".to_string(), "interns".to_string()]
        );
    }

    #[test]
    fn equivalent_views_share_a_cache_family() {
        let r = ViewRegistry::new();
        let a = r.register("a", DEL).unwrap();
        let b = r.register("b", DEL).unwrap();
        assert_eq!(&*b.cache_key, "a");
        assert_eq!(b.cache_generation, a.cache_generation);
        assert_ne!(b.generation, a.generation);
        // A different body starts its own family.
        let c = r.register("c", REN).unwrap();
        assert_eq!(&*c.cache_key, "c");
        assert_eq!(c.cache_generation, c.generation);
        // Re-registering an equivalent body keeps the family warm.
        let a2 = r.register("a", DEL).unwrap();
        assert_eq!(&*a2.cache_key, "a");
        assert_eq!(a2.cache_generation, a.cache_generation);
        assert!(a2.generation > a.generation);
    }

    #[test]
    fn dead_views_are_flagged_and_folding_shrinks_paths() {
        let r = ViewRegistry::new();
        let dead = r
            .register(
                "dead",
                r#"transform copy $a := doc("db") modify do delete $a/part[label() = price] return $a"#,
            )
            .unwrap();
        assert!(dead.analysis.dead);
        assert!(dead.analysis.sel_dead > 0);

        let folded = r
            .register(
                "folded",
                r#"transform copy $a := doc("db") modify do delete $a/part[label() = part] return $a"#,
            )
            .unwrap();
        assert!(!folded.analysis.dead);
        assert!(folded.analysis.folded_qualifiers > 0);
        // The tautology was dropped before compilation: the compiled
        // path carries no qualifier at all.
        let link = folded.single().unwrap();
        assert!(link
            .query()
            .path
            .steps
            .iter()
            .all(|s| s.qualifier.is_none()));

        let live = r.register("live", DEL).unwrap();
        assert!(!live.analysis.dead);
    }

    #[test]
    fn remove_works() {
        let r = ViewRegistry::new();
        r.register("v", DEL).unwrap();
        assert!(r.remove("v").is_some());
        assert!(r.remove("v").is_none());
        assert!(r.get("v").is_none());
    }
}
