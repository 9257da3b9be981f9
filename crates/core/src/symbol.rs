//! Field names as symbols: one shared copy per name.
//!
//! Every stored [`Object`](crate::Object) names its fields, and the
//! documents of one collection repeat the same few names record after
//! record. An object therefore stores a name as a [`Symbol`]: a pointer
//! to the one process-wide copy of it, leaked once from a capped
//! interner, or — for a name longer than `MAX_LEN` (64) bytes, and for
//! every new name once the interner holds `CAP` (16 384) of them — the
//! object's own `String`. The interner never forgets a
//! name and its cap never shrinks, so a name is interned **always or
//! never**: two names are equal exactly when they are the same pointer
//! or two equal inline strings, and a pointer compare decides a member
//! read by a [`Symbol`] resolved once per query.
//!
//! The interner's lock is a leaf, held for one map lookup. Each thread
//! keeps the names it has resolved — the last one per hash slot, and all
//! of them in a map — so the common case (a name the thread has seen)
//! takes no lock.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Names longer than this many bytes are stored inline, never interned:
/// a long name is more likely data than schema.
const MAX_LEN: usize = 64;

/// The interner holds at most this many names (a few MB, leaked); every
/// new name past it is stored inline.
const CAP: usize = 1 << 14;

/// Interned names by their text. The default hasher: names arrive from
/// outside the program (documents, logs, query texts).
type Names = HashMap<&'static str, &'static String>;

/// Interned names, each leaked once and never freed.
struct Interner {
    names: Names,
    cap: usize,
}

impl Interner {
    fn new(cap: usize) -> Interner {
        Interner {
            names: Names::default(),
            cap,
        }
    }

    /// The interned copy of `name`, if there is one.
    fn get(&self, name: &str) -> Option<&'static String> {
        self.names.get(name).copied()
    }

    /// The interned copy of `name`, interning it if it is short enough
    /// and there is room; `None` means it is stored inline, now and for
    /// good.
    fn intern(&mut self, name: &str) -> Option<&'static String> {
        if name.len() > MAX_LEN {
            return None;
        }
        if let Some(s) = self.get(name) {
            return Some(s);
        }
        if self.names.len() >= self.cap {
            return None;
        }
        let s: &'static String = Box::leak(Box::new(name.to_owned()));
        self.names.insert(s, s);
        Some(s)
    }
}

/// The process-wide interner. Each update is one map insert, which a
/// panic cannot leave half done, so a poisoned lock is used as it is.
fn global() -> &'static Mutex<Interner> {
    static GLOBAL: OnceLock<Mutex<Interner>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Interner::new(CAP)))
}

thread_local! {
    /// Every interned name this thread has resolved: a subset of the
    /// global interner's, so bounded by the same cap.
    static SEEN: RefCell<Names> = RefCell::default();
    /// The name this thread resolved last in each of 1 024 slots (see
    /// [`slot`]): a hit is one compare.
    static RECENT: [Cell<Option<&'static String>>; 1024] =
        const { [const { Cell::new(None) }; 1024] };
}

/// `name`'s slot in a thread's [`RECENT`] names: the top ten bits of a
/// multiply-rotate hash over its 8-byte words. Two names that collide
/// here only cost a map lookup.
fn slot(name: &[u8]) -> usize {
    let words = (name.chunks(8)).map(|w| w.iter().fold(0, |h, &b| h << 8 | u64::from(b)));
    let hash = words.fold(0u64, |h, w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    });
    (hash >> 54) as usize
}

/// The interned name this thread resolved last in `name`'s slot, if it is
/// `name`: bytes equal to an interned name's are that name, UTF-8 and all.
fn recent(name: &[u8]) -> Option<&'static String> {
    if name.len() > MAX_LEN {
        return None;
    }
    let recent = RECENT.try_with(|r| r[slot(name)].get()).ok().flatten();
    recent.filter(|s| s.as_bytes() == name)
}

/// The interned copy of `name`: from this thread's caches, else from the
/// global interner — which adds the name when `intern` is set and it may.
fn resolve(name: &str, intern: bool) -> Option<&'static String> {
    if name.len() > MAX_LEN {
        return None;
    }
    if let Some(s) = recent(name.as_bytes()) {
        return Some(s);
    }
    let slot = slot(name.as_bytes());
    let seen = SEEN.try_with(|seen| seen.borrow().get(name).copied());
    let s = match seen.ok().flatten() {
        Some(s) => s,
        None => {
            let mut interner = global().lock().unwrap_or_else(PoisonError::into_inner);
            let s = if intern {
                interner.intern(name)
            } else {
                interner.get(name)
            }?;
            drop(interner);
            // a thread being torn down just skips its caches
            let _ = SEEN.try_with(|seen| seen.borrow_mut().insert(s, s));
            s
        }
    };
    let _ = RECENT.try_with(|r| r[slot].set(Some(s)));
    Some(s)
}

/// Number of names interned so far, process-wide. It stops growing at a
/// fixed cap, whatever names arrive.
pub fn interned_names() -> usize {
    global()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .names
        .len()
}

/// How a [`Symbol`] holds its name: `Sym` if and only if the name is
/// interned (see the module docs).
#[derive(Clone)]
enum Name {
    Sym(&'static String),
    Own(String),
}

/// A field name as an [`Object`](crate::Object) stores it: the interned
/// copy, or the object's own string when the name may not be interned.
/// Equality is therefore a pointer compare between two interned names,
/// `false` between an interned and an inline one, and a string compare
/// between two inline ones — exact, because a name is interned always or
/// never. Resolve a name once and read many objects by it with
/// [`Object::get_symbol`](crate::Object::get_symbol).
///
/// ```
/// use udbms_core::{obj, Symbol};
///
/// let row = obj! {"customer" => 7, "total" => 9.5};
/// let total = Symbol::lookup("total").unwrap();
/// assert_eq!(row.get_symbol(&total), row.get_field("total"));
/// // a lookup never interns: no object has this name
/// assert!(Symbol::lookup("no object has this field").is_none());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Symbol(Name);

impl Symbol {
    /// `name`, interned if it may be; copied only when it may not.
    pub fn new(name: &str) -> Symbol {
        Symbol(match resolve(name, true) {
            Some(s) => Name::Sym(s),
            None => Name::Own(name.to_owned()),
        })
    }

    /// The interned `name`, if it is interned; never interns it, so a name
    /// no object carries takes no room in the interner. A name that is
    /// not interned is read by string compare.
    pub fn lookup(name: &str) -> Option<Symbol> {
        resolve(name, false).map(|s| Symbol(Name::Sym(s)))
    }

    /// [`Symbol::new`] over bytes that must be UTF-8, as a decoder reads
    /// them: a name this thread resolved last in its cache slot is found
    /// by one byte compare, and only other bytes are validated.
    pub fn from_utf8(name: &[u8]) -> Result<Symbol, std::str::Utf8Error> {
        match recent(name) {
            Some(s) => Ok(Symbol(Name::Sym(s))),
            None => std::str::from_utf8(name).map(Symbol::new),
        }
    }

    /// The shared copy of an interned name.
    pub(crate) fn interned_from(name: &'static String) -> Symbol {
        Symbol(Name::Sym(name))
    }

    /// The shared copy of the name, if it is interned.
    pub(crate) fn interned(&self) -> Option<&'static String> {
        match self.0 {
            Name::Sym(s) => Some(s),
            Name::Own(_) => None,
        }
    }

    /// The name.
    pub fn as_str(&self) -> &str {
        self.as_string()
    }

    pub(crate) fn as_string(&self) -> &String {
        match &self.0 {
            Name::Sym(s) => s,
            Name::Own(s) => s,
        }
    }

    pub(crate) fn into_string(self) -> String {
        match self.0 {
            Name::Sym(s) => s.clone(),
            Name::Own(s) => s,
        }
    }

    /// Heap bytes this name costs the object that stores it: none when
    /// it is shared.
    pub(crate) fn inline_bytes(&self) -> usize {
        match &self.0 {
            Name::Sym(_) => 0,
            Name::Own(s) => s.capacity(),
        }
    }
}

impl From<String> for Symbol {
    /// [`Symbol::new`], keeping `name`'s allocation when it is stored
    /// inline.
    fn from(name: String) -> Symbol {
        Symbol(match resolve(&name, true) {
            Some(s) => Name::Sym(s),
            None => Name::Own(name),
        })
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        match (self, other) {
            (Name::Sym(a), Name::Sym(b)) => std::ptr::eq(*a, *b),
            (Name::Own(a), Name::Own(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Name {}

impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_str().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_length_limit_and_the_cap_hold_on_a_local_interner() {
        let mut interner = Interner::new(3);
        let a = interner.intern("a").unwrap();
        assert!(std::ptr::eq(interner.intern("a").unwrap(), a), "one copy");
        assert!(interner.get("b").is_none(), "get never interns");
        // the longest name that is interned, and one byte more
        let longest = "x".repeat(MAX_LEN);
        assert!(interner.intern(&longest).is_some());
        assert!(interner.intern(&format!("{longest}x")).is_none());
        assert!(interner.intern("b").is_some());
        assert_eq!(interner.names.len(), 3);
        // full: a new name is refused, now and afterwards, while every
        // interned one still resolves to its copy
        assert!(interner.intern("c").is_none());
        assert!(interner.intern("c").is_none());
        assert!(interner.get("c").is_none());
        assert!(std::ptr::eq(interner.intern("a").unwrap(), a));
        assert_eq!(interner.names.len(), 3);
    }

    #[test]
    fn names_are_interned_always_or_never() {
        let a = Symbol::new("customer");
        let b = Symbol::from("customer".to_string());
        assert!(matches!((&a.0, &b.0), (Name::Sym(x), Name::Sym(y)) if std::ptr::eq(*x, *y)));
        assert_eq!(a, b);
        assert_eq!(a.inline_bytes(), 0);
        let long = "n".repeat(MAX_LEN + 1);
        let (c, d) = (Symbol::new(&long), Symbol::from(long.clone()));
        assert!(matches!(c.0, Name::Own(_)));
        assert_eq!(c, d);
        assert_ne!(a, c);
        assert_eq!(c.inline_bytes(), long.len());
        assert!(Symbol::lookup(&long).is_none());
        // a lookup never interns
        let fresh = "looked up before it is stored";
        assert!(Symbol::lookup(fresh).is_none());
        assert!(Symbol::lookup(fresh).is_none());
        let stored = Symbol::new(fresh);
        assert_eq!(Symbol::lookup(fresh), Some(stored));
    }

    #[test]
    fn threads_share_one_copy() {
        let here = Symbol::new("shared_by_threads");
        let there = std::thread::spawn(|| Symbol::new("shared_by_threads"))
            .join()
            .unwrap();
        assert_eq!(here, there);
        assert!(matches!(there.0, Name::Sym(_)));
    }
}
