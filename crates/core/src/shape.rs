//! Key lists as shapes: one shared copy per distinct field set.
//!
//! The documents of one collection mostly share a key set, record after
//! record. An [`Object`](crate::Object) whose names are all interned
//! (see [`crate::symbol`]) therefore stores its sorted key list as a
//! `Shape`: a pointer to the one process-wide copy of that list, leaked
//! once from a capped interner, beside a dense slice of its values. A list
//! of more than `MAX_FIELDS` (32) names, and every new list once the
//! interner holds `CAP` (16 384), is refused, and its objects keep their
//! own names (the loose form). The interner never forgets a list and its
//! cap never shrinks, so a key list is shaped **always or never**: two
//! objects with the same names hold the same shape pointer, or both are
//! loose.
//!
//! Names are interned always or never too, so a key list is identified by
//! its name pointers: it is hashed and compared by address, never by
//! bytes. The interner's lock is a leaf, held for one map lookup. Each
//! thread keeps the shapes it has resolved — the last one per hash slot,
//! and all of them in a map — so the common case takes no lock.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Lists of more than this many names are never shaped: they bound both
/// what one refused-or-not decision leaks and the key buffer builders
/// keep on the stack.
pub(crate) const MAX_FIELDS: usize = 32;

/// The interner holds at most this many key lists (at most a few MB,
/// leaked); every new list past it is refused.
const CAP: usize = 1 << 14;

/// A sorted, duplicate-free list of interned names, shared by every
/// object with exactly these fields.
pub(crate) struct Shape {
    keys: &'static [&'static String],
}

impl Shape {
    /// The names, in order.
    pub(crate) fn keys(&self) -> &'static [&'static String] {
        self.keys
    }
}

/// The shape of the empty key list, which is never interned.
pub(crate) static EMPTY: Shape = Shape { keys: &[] };

/// A placeholder for the unused slots of a key buffer.
pub(crate) static UNNAMED: String = String::new();

/// Key lists by the hash of their name pointers; a bucket holds the rare
/// lists that share one. The hash is over leaked addresses, which input
/// does not choose, and the map's own hasher is the default.
type Table = HashMap<u64, Vec<&'static Shape>>;

/// Whether `a` and `b` are the same names: pointer compares, exact
/// because a name is interned always or never.
fn same(a: &[&'static String], b: &[&'static String]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| std::ptr::eq(*x, *y))
}

/// A multiply-rotate hash over the names' addresses.
fn hash(keys: &[&'static String]) -> u64 {
    keys.iter().fold(keys.len() as u64, |h, &k| {
        let address = k as *const String as usize as u64;
        (h.rotate_left(5) ^ address).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

fn find(table: &Table, hash: u64, keys: &[&'static String]) -> Option<&'static Shape> {
    let bucket = table.get(&hash)?;
    bucket.iter().copied().find(|s| same(s.keys, keys))
}

/// Interned key lists, each leaked once and never freed.
struct Interner {
    table: Table,
    len: usize,
    cap: usize,
}

impl Interner {
    fn new(cap: usize) -> Interner {
        Interner {
            table: Table::default(),
            len: 0,
            cap,
        }
    }

    /// The shape of `keys`, interning it if it is short enough and there
    /// is room; `None` means its objects are loose, now and for good.
    fn intern(&mut self, hash: u64, keys: &[&'static String]) -> Option<&'static Shape> {
        if keys.len() > MAX_FIELDS {
            return None;
        }
        if let Some(s) = find(&self.table, hash, keys) {
            return Some(s);
        }
        if self.len >= self.cap {
            return None;
        }
        let keys = Box::leak(keys.into());
        let s: &'static Shape = Box::leak(Box::new(Shape { keys }));
        self.table.entry(hash).or_default().push(s);
        self.len += 1;
        Some(s)
    }
}

/// The process-wide interner. Each update is one map insert and one
/// count, which a panic cannot leave half done, so a poisoned lock is
/// used as it is.
fn global() -> &'static Mutex<Interner> {
    static GLOBAL: OnceLock<Mutex<Interner>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Interner::new(CAP)))
}

thread_local! {
    /// Every shape this thread has resolved: a subset of the global
    /// interner's, so bounded by the same cap.
    static SEEN: RefCell<Table> = RefCell::default();
    /// The shape this thread resolved last in each of 256 slots (the top
    /// eight bits of [`hash`]): a hit is one pointer compare per name.
    static RECENT: [Cell<Option<&'static Shape>>; 256] =
        const { [const { Cell::new(None) }; 256] };
}

/// The shape of `keys` — sorted, distinct, interned names — interning it
/// when it may; `None` means an object with these names is loose.
pub(crate) fn intern(keys: &[&'static String]) -> Option<&'static Shape> {
    if keys.is_empty() {
        return Some(&EMPTY);
    }
    if keys.len() > MAX_FIELDS {
        return None;
    }
    let hash = hash(keys);
    let slot = (hash >> 56) as usize;
    let recent = RECENT.try_with(|r| r[slot].get()).ok().flatten();
    if let Some(s) = recent.filter(|s| same(s.keys, keys)) {
        return Some(s);
    }
    let seen = SEEN.try_with(|seen| find(&seen.borrow(), hash, keys));
    let s = match seen.ok().flatten() {
        Some(s) => s,
        None => {
            let mut interner = global().lock().unwrap_or_else(PoisonError::into_inner);
            let s = interner.intern(hash, keys)?;
            drop(interner);
            // a thread being torn down just skips its caches
            let _ = SEEN.try_with(|seen| seen.borrow_mut().entry(hash).or_default().push(s));
            s
        }
    };
    let _ = RECENT.try_with(|r| r[slot].set(Some(s)));
    Some(s)
}

/// [`intern`] over names as they come, any of them `None` when it is not
/// interned — which makes the list loose, as a list too long does.
pub(crate) fn intern_names(
    names: impl IntoIterator<Item = Option<&'static String>>,
) -> Option<&'static Shape> {
    let mut keys = [&UNNAMED; MAX_FIELDS];
    let mut n = 0;
    for name in names {
        *keys.get_mut(n)? = name?;
        n += 1;
    }
    intern(&keys[..n])
}

/// Number of key lists interned so far, process-wide. It stops growing at
/// a fixed cap, whatever objects arrive.
pub fn interned_shapes() -> usize {
    global().lock().unwrap_or_else(PoisonError::into_inner).len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Symbol;

    /// Interned names, in the order given.
    fn names(names: &[&str]) -> Vec<&'static String> {
        (names.iter())
            .map(|n| Symbol::new(n).interned().unwrap())
            .collect()
    }

    #[test]
    fn the_field_limit_and_the_cap_hold_on_a_local_interner() {
        let mut interner = Interner::new(3);
        let mut shape = |keys: &[&'static String]| interner.intern(hash(keys), keys);
        let ab = names(&["shape_a", "shape_b"]);
        let first = shape(&ab).unwrap();
        assert!(std::ptr::eq(shape(&ab).unwrap(), first), "one copy");
        assert!(same(first.keys(), &ab));
        // the longest list that is shaped, and one name more
        let widest: Vec<_> = (0..MAX_FIELDS).map(|i| format!("shape_{i:02}")).collect();
        let mut widest = names(&widest.iter().map(String::as_str).collect::<Vec<_>>());
        assert!(shape(&widest).is_some());
        widest.push(Symbol::new("shape_zz").interned().unwrap());
        assert!(shape(&widest).is_none());
        let c = names(&["shape_c"]);
        assert!(shape(&c).is_some());
        // full: a new list is refused, now and afterwards, while every
        // shaped one still resolves to its copy
        let d = names(&["shape_d"]);
        assert!(shape(&d).is_none());
        assert!(shape(&d).is_none());
        assert!(std::ptr::eq(shape(&ab).unwrap(), first));
        assert_eq!(interner.len, 3);
    }

    #[test]
    fn lists_are_shaped_by_their_name_pointers() {
        let ab = names(&["list_a", "list_b"]);
        let s = intern(&ab).unwrap();
        // another thread resolves the same copy
        let there = std::thread::spawn(|| {
            intern(&names(&["list_a", "list_b"])).map(|s| s as *const Shape as usize)
        })
        .join()
        .unwrap();
        assert_eq!(there, Some(s as *const Shape as usize));
        assert!(std::ptr::eq(intern(&[]).unwrap(), &EMPTY));
        // a name that is not interned makes the list loose
        let long = Symbol::new(&"l".repeat(80));
        assert!(intern_names([ab[0], ab[1]].map(Some)).is_some());
        assert!(intern_names([Some(ab[0]), long.interned()]).is_none());
    }
}
