//! Offline shim for the `bytes` crate.
//!
//! The workspace vendors the handful of `Bytes` behaviours it actually uses
//! (cheap clones of an immutable byte buffer) because the build environment
//! has no network access to crates.io. The shim keeps the real crate's
//! semantics for that subset: `Bytes` is an immutable buffer, either a
//! static slice or reference-counted storage its clones share.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply cloneable byte buffer.
///
/// Equality, ordering and hashing are by content, whichever way the bytes
/// are held.
#[derive(Clone)]
pub struct Bytes {
    data: Repr,
}

#[derive(Clone)]
enum Repr {
    /// Borrowed for the program's life: no storage of its own.
    Static(&'static [u8]),
    /// Reference-counted storage shared by every clone.
    Shared(Arc<[u8]>),
}

impl Bytes {
    /// An empty buffer. Allocates nothing.
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Wrap a static byte slice. Allocates nothing and copies nothing.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            data: Repr::Static(bytes),
        }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.as_ref().len()
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.as_ref().is_empty()
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// Return a sub-buffer over the given range (copies the range).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        Bytes::from(&self[range])
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        match &self.data {
            Repr::Static(bytes) => bytes,
            Repr::Shared(bytes) => bytes,
        }
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_ref()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl From<Vec<u8>> for Bytes {
    /// One allocation: the shared buffer the bytes are copied into.
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            data: Repr::Shared(Arc::from(v)),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes {
            data: Repr::Shared(Arc::from(v)),
        }
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Bytes::from(v.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(&a[..], &b[..]);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn from_str_round_trip() {
        let b = Bytes::from("hello");
        assert_eq!(&b[..], b"hello");
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
    }

    fn hash_of(b: &Bytes) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    /// `new` and `from_static` are `const fn`: they cannot allocate.
    const EMPTY: Bytes = Bytes::new();
    const GREETING: Bytes = Bytes::from_static(b"hello");

    #[test]
    fn equality_order_and_hash_are_by_content_not_by_representation() {
        let empties = [
            EMPTY,
            Bytes::default(),
            Bytes::from(Vec::new()),
            Bytes::from_static(b""),
        ];
        let hellos = [
            GREETING,
            Bytes::from("hello"),
            Bytes::from(b"hello".to_vec()),
        ];
        for same in [&empties[..], &hellos[..]] {
            for (a, b) in same.iter().zip(same.iter().cycle().skip(1)) {
                assert!(a == b && a.cmp(b) == Ordering::Equal);
                assert_eq!(hash_of(a), hash_of(b));
            }
        }
        // What the derive on `Arc<[u8]>` gave: the slice's own order and hash.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        b"hello"[..].hash(&mut h);
        assert_eq!(hash_of(&GREETING), h.finish());
        for (e, hello) in empties.iter().zip(&hellos) {
            assert!(e < hello && e != hello);
            assert!(hello < &Bytes::from("help") && &Bytes::from_static(b"hell") < hello);
        }
        let mut by_body = std::collections::HashMap::new();
        by_body.insert(GREETING, 1);
        assert_eq!(by_body.get(&Bytes::from("hello")), Some(&1));
        assert_eq!(by_body.get(&b"hello"[..]), Some(&1));
        assert_eq!(by_body.insert(Bytes::from(b"hello".to_vec()), 2), Some(1));
    }

    #[test]
    fn slice_copies_range() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4]);
        assert_eq!(&b.slice(1..3)[..], &[1, 2]);
    }
}
