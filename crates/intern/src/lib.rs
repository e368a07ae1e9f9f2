#![warn(missing_docs)]
//! `xust-intern` — symbol interning for XML labels.
//!
//! Every evaluation method in the workspace — `topDown`'s selecting NFA,
//! the two-pass filtering NFA, and the fused `twoPassSAX` — spends its
//! inner loop comparing element labels against transition labels. With
//! `String` names that is a byte-compare per node/event; with interned
//! [`Sym`] handles it is a single `u32` compare.
//!
//! The design rules are:
//!
//! * **One global interner.** All production code interns through
//!   [`Interner::global`] (or the [`intern`] shorthand), so a `Sym`
//!   means the same label everywhere in the process: in a parsed
//!   document, in a compiled automaton, across every `DocStore` shard
//!   and snapshot. Two `Sym`s are equal iff their labels are equal.
//! * **Interned strings live forever.** Labels are drawn from schemas,
//!   not data values, so the set is small and bounded; leaking the
//!   backing storage buys lock-free `Sym → &'static str` resolution
//!   with no reference counting on any hot path.
//! * **Interning is concurrent.** [`Interner`] takes a read lock on the
//!   fast path (label already known) and a write lock only for the
//!   first occurrence of a label, so parallel parsers and batch
//!   executors can share it without serializing.
//!
//! Fresh [`Interner`] instances exist for tests of the interner itself;
//! `Sym`s from different interners must never be mixed.

use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroU32;
use std::sync::{OnceLock, RwLock};

/// An interned label: a dense `u32` handle that compares, hashes, and
/// copies in O(1). Equality of `Sym`s obtained from the same interner is
/// equivalent to equality of the underlying strings. The `Ord` instance
/// follows allocation order (first-interned sorts first), *not*
/// lexicographic order.
///
/// The handle is stored one above its table index, so `Option<Sym>` is
/// as small as `Sym`: `xust-tree`'s node records keep "element name, or
/// none for a text node" in four bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(NonZeroU32);

impl Sym {
    /// The raw handle (an index into the owning interner's table).
    pub fn raw(self) -> u32 {
        self.0.get() - 1
    }

    /// Resolves this symbol against the global interner.
    ///
    /// All `Sym`s embedded in documents, events, and automata come from
    /// [`Interner::global`], so this is the right resolution everywhere
    /// outside interner-specific tests (which use [`Interner::resolve`]).
    pub fn as_str(self) -> &'static str {
        Interner::global().resolve(self)
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({} {:?})", self.raw(), self.as_str())
    }
}

/// Conversion into a [`Sym`] via the global interner — lets APIs accept
/// `&str`, `String`, or an already-interned `Sym` interchangeably, so a
/// hot caller holding a `Sym` never re-interns while test code keeps
/// passing literals.
pub trait IntoSym {
    /// Produces the interned symbol.
    fn into_sym(self) -> Sym;
}

impl IntoSym for Sym {
    fn into_sym(self) -> Sym {
        self
    }
}

impl IntoSym for &str {
    fn into_sym(self) -> Sym {
        intern(self)
    }
}

impl IntoSym for String {
    fn into_sym(self) -> Sym {
        intern(&self)
    }
}

impl IntoSym for &String {
    fn into_sym(self) -> Sym {
        intern(self)
    }
}

// String comparisons resolve the symbol (cold paths and assertions; the
// hot paths compare `Sym == Sym`, which is the derived `u32` compare).
impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Sym {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        intern(&s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        intern(s)
    }
}

/// Interns `label` in the global interner.
pub fn intern(label: &str) -> Sym {
    Interner::global().intern(label)
}

struct Inner {
    map: HashMap<&'static str, Sym>,
    len: usize,
}

/// Number of doubling chunks in the resolution table: chunk `k` holds
/// `2^k` entries, covering handles `[2^k - 1, 2^(k+1) - 1)` — 32 chunks
/// cover ids `0..u32::MAX`, matching the capacity guard in `intern`
/// (id `u32::MAX` is never issued).
const CHUNK_COUNT: usize = 32;

/// A concurrent string interner. See the module docs for the sharing
/// rules; almost all code wants [`Interner::global`], not a fresh one.
///
/// Writes (first occurrence of a label) go through the `RwLock`;
/// resolution is **lock-free**: symbols index a chunked table of
/// `OnceLock` slots (chunk `k` spans handles `[2^k - 1, 2^(k+1) - 1)`),
/// so `Sym → &'static str` costs two acquire loads and no lock — the
/// price serialization pays per element stays contention-free however
/// many serve workers resolve concurrently.
pub struct Interner {
    inner: RwLock<Inner>,
    /// The resolution table. A slot is initialized (under the write
    /// lock) before its `Sym` is ever handed out, so any thread that
    /// legitimately holds a `Sym` finds its slot set.
    chunks: [OnceLock<Box<[OnceLock<&'static str>]>>; CHUNK_COUNT],
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

/// Splits a symbol handle into (chunk, offset) in the doubling layout.
#[inline]
fn chunk_of(index: usize) -> (usize, usize) {
    let k = usize::BITS as usize - 1 - (index + 1).leading_zeros() as usize;
    (k, index + 1 - (1 << k))
}

impl Interner {
    /// Creates an empty interner (for interner-local tests; production
    /// code shares [`Interner::global`]).
    pub fn new() -> Interner {
        Interner {
            inner: RwLock::new(Inner {
                map: HashMap::new(),
                len: 0,
            }),
            chunks: [const { OnceLock::new() }; CHUNK_COUNT],
        }
    }

    /// The process-global interner every layer of the stack shares: the
    /// SAX parser resolves names through it at scan time, automata
    /// compile their transition labels through it, and `xust-serve`
    /// hands it out for every shard and snapshot.
    pub fn global() -> &'static Interner {
        static GLOBAL: OnceLock<Interner> = OnceLock::new();
        GLOBAL.get_or_init(Interner::new)
    }

    /// Interns `label`, returning its symbol. O(1) amortized; takes a
    /// read lock when the label is already known.
    pub fn intern(&self, label: &str) -> Sym {
        if let Some(&sym) = self
            .inner
            .read()
            .expect("interner lock poisoned")
            .map
            .get(label)
        {
            return sym;
        }
        let mut inner = self.inner.write().expect("interner lock poisoned");
        // Double-check: another thread may have interned it between the
        // read unlock and the write lock.
        if let Some(&sym) = inner.map.get(label) {
            return sym;
        }
        // Reject at u32::MAX - 1: the chunked table covers 0..u32::MAX,
        // and try_from alone would admit the one id past its last chunk.
        assert!(inner.len < u32::MAX as usize, "interner table full");
        let id = inner.len as u32;
        // Leak the backing storage: the label vocabulary is bounded (see
        // module docs), and a 'static str makes resolution allocation-
        // and lock-free.
        let leaked: &'static str = Box::leak(label.to_owned().into_boxed_str());
        let sym = Sym(NonZeroU32::new(id + 1).expect("id < u32::MAX"));
        // Publish the resolution slot BEFORE the map entry: once a Sym
        // can be observed anywhere, its slot is set.
        let (k, off) = chunk_of(inner.len);
        let chunk = self.chunks[k].get_or_init(|| vec![OnceLock::new(); 1 << k].into_boxed_slice());
        chunk[off].set(leaked).expect("slot written once");
        inner.len += 1;
        inner.map.insert(leaked, sym);
        sym
    }

    /// Looks up `label` without interning it. `None` means no document,
    /// query, or event in the process has ever used this label — so
    /// nothing can match it.
    pub fn lookup(&self, label: &str) -> Option<Sym> {
        self.inner
            .read()
            .expect("interner lock poisoned")
            .map
            .get(label)
            .copied()
    }

    /// Resolves a symbol to its label — lock-free (two acquire loads
    /// into the chunked table, no `RwLock`).
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Sym) -> &'static str {
        let (k, off) = chunk_of(sym.raw() as usize);
        self.chunks[k]
            .get()
            .and_then(|chunk| chunk[off].get())
            .copied()
            .expect("Sym resolved against an interner that did not issue it")
    }

    /// Number of distinct labels interned so far — exposed so a serving
    /// deployment can watch vocabulary growth (see the trust note in
    /// DESIGN.md: untrusted inputs minting unbounded fresh labels grow
    /// this table, and the table never shrinks).
    pub fn len(&self) -> usize {
        self.inner.read().expect("interner lock poisoned").len
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("part");
        let b = i.intern("part");
        let c = i.intern("supplier");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.resolve(a), "part");
        assert_eq!(i.resolve(c), "supplier");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn lookup_does_not_insert() {
        let i = Interner::new();
        assert_eq!(i.lookup("ghost"), None);
        assert!(i.is_empty());
        let s = i.intern("ghost");
        assert_eq!(i.lookup("ghost"), Some(s));
    }

    #[test]
    fn global_round_trips_via_as_str() {
        let s = intern("xust-intern-test-label");
        assert_eq!(s.as_str(), "xust-intern-test-label");
        assert_eq!("xust-intern-test-label".into_sym(), s);
        assert_eq!(String::from("xust-intern-test-label").into_sym(), s);
        assert_eq!(s.into_sym(), s);
        assert_eq!(format!("{s}"), "xust-intern-test-label");
        assert!(format!("{s:?}").contains("xust-intern-test-label"));
    }

    #[test]
    fn resolution_crosses_chunk_boundaries() {
        // The chunked table doubles at handles 1, 3, 7, 15, …; intern
        // enough labels to span several chunks and resolve every one.
        let i = Interner::new();
        let syms: Vec<Sym> = (0..1000).map(|n| i.intern(&format!("label-{n}"))).collect();
        assert_eq!(i.len(), 1000);
        for (n, s) in syms.iter().enumerate() {
            assert_eq!(i.resolve(*s), format!("label-{n}"));
            assert_eq!(i.lookup(&format!("label-{n}")), Some(*s));
        }
    }

    #[test]
    fn concurrent_interning_resolves_identically() {
        // N threads race to intern the same label set in different
        // orders; every thread must observe the same label → Sym map.
        use std::sync::Arc;
        let interner = Arc::new(Interner::new());
        let labels: Vec<String> = (0..64).map(|i| format!("label{i}")).collect();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let interner = Arc::clone(&interner);
                let labels = labels.clone();
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..labels.len() {
                        // Different threads walk the labels in different
                        // orders so first-intern races actually happen.
                        let ix = (i * 7 + t * 13) % labels.len();
                        out.push((ix, interner.intern(&labels[ix])));
                    }
                    out
                })
            })
            .collect();
        let mut reference: HashMap<usize, Sym> = HashMap::new();
        for h in handles {
            for (ix, sym) in h.join().unwrap() {
                match reference.get(&ix) {
                    Some(&prev) => assert_eq!(prev, sym, "thread disagreed on label{ix}"),
                    None => {
                        reference.insert(ix, sym);
                    }
                }
            }
        }
        assert_eq!(interner.len(), labels.len());
        for (ix, sym) in reference {
            assert_eq!(interner.resolve(sym), labels[ix]);
        }
    }
}
