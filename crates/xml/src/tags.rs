//! Tag interning: the "symbol table to replace tagnames by integers"
//! from §6 of the paper.
//!
//! Every distinct element name is mapped to a dense [`TagId`] so that the
//! buffer, the projection matcher and the evaluator compare `u32`s instead
//! of strings on the hot path.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast multiply-xor hasher (FxHash-style) for the interner's raw-bytes
/// lookup. Tag names are short, trusted identifiers, so a DoS-resistant
/// hash (SipHash, the `HashMap` default) wastes most of its cycles here —
/// this hasher is the difference between "one hash per opening tag" being
/// free and being visible in profiles.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let word = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = (tail << 8) | u64::from(b);
        }
        // Fold the length in so "ab" and "ab\0" cannot collide trivially.
        tail = (tail << 8) | bytes.len() as u64;
        self.hash = (self.hash.rotate_left(5) ^ tail).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Interned tag name. Dense, starts at 0, stable for the life of the
/// [`TagInterner`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId(pub u32);

impl TagId {
    /// The dense index of this tag.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Bidirectional map between tag names and [`TagId`]s.
///
/// Interners are cheap to create; a single interner must be shared between
/// the query compiler and the stream lexer of one evaluation run so that
/// tag comparisons are meaningful.
///
/// ## One interner per query
///
/// A serving runtime keeps one interner per cached query: the tags that
/// query names, nothing else. Each session evaluating it starts from a
/// clone — small, because a query names a handful of tags — and interns
/// its document's other tags into that clone only.
#[derive(Debug, Default, Clone)]
pub struct TagInterner {
    /// UTF-8 bytes of every interned name, concatenated — one growing
    /// arena instead of one heap `Box<str>` per name (interning a
    /// document's vocabulary used to dominate the engine's residual
    /// per-run allocation count).
    names_data: String,
    /// `(offset, len)` of each name in `names_data`, by id.
    names: Vec<(u32, u32)>,
    /// Raw-bytes lookup: [`FxHasher`] of the name's UTF-8 → id, verified
    /// by content on every hit (no owned key). The rare true 64-bit
    /// collision falls back to [`Self::collisions`].
    ids: HashMap<u64, TagId, FxBuildHasher>,
    /// Ids whose hash slot was taken by a different name; scanned
    /// linearly (in practice empty).
    collisions: Vec<TagId>,
}

impl TagInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing id when already present.
    pub fn intern(&mut self, name: &str) -> TagId {
        if let Some(id) = self.lookup(name.as_bytes()) {
            return id;
        }
        self.insert_new(name)
    }

    /// Interns a name given as raw UTF-8 bytes. The hot-path entry point
    /// of the streaming lexer: a known name costs one hash lookup and
    /// zero allocations; only a genuinely new name is copied and
    /// validated.
    ///
    /// # Errors
    /// Returns `None` when `bytes` is not valid UTF-8 (never the case for
    /// the lexer, whose name characters are an ASCII subset).
    pub fn intern_bytes(&mut self, bytes: &[u8]) -> Option<TagId> {
        if let Some(id) = self.lookup(bytes) {
            return Some(id);
        }
        let name = std::str::from_utf8(bytes).ok()?;
        Some(self.insert_new(name))
    }

    #[inline]
    fn hash_bytes(bytes: &[u8]) -> u64 {
        use std::hash::Hasher as _;
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[inline]
    fn name_bytes(&self, id: TagId) -> &[u8] {
        let (off, len) = self.names[id.index()];
        &self.names_data.as_bytes()[off as usize..(off + len) as usize]
    }

    #[inline]
    fn lookup(&self, bytes: &[u8]) -> Option<TagId> {
        if let Some(&id) = self.ids.get(&Self::hash_bytes(bytes)) {
            if self.name_bytes(id) == bytes {
                return Some(id);
            }
            // Hash hit, content mismatch: a true collision — the other
            // name (if interned) lives in the fallback list.
            if let Some(&id) = self
                .collisions
                .iter()
                .find(|&&c| self.name_bytes(c) == bytes)
            {
                return Some(id);
            }
        }
        None
    }

    fn insert_new(&mut self, name: &str) -> TagId {
        let id = TagId(self.names.len() as u32);
        let offset = u32::try_from(self.names_data.len()).expect("name arena within u32 range");
        self.names_data.push_str(name);
        self.names
            .push((offset, u32::try_from(name.len()).expect("name within u32")));
        match self.ids.entry(Self::hash_bytes(name.as_bytes())) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(id);
            }
            // The slot belongs to a different name (the caller already
            // established `name` is absent): remember this id in the
            // linear-scan fallback.
            std::collections::hash_map::Entry::Occupied(_) => self.collisions.push(id),
        }
        id
    }

    /// Looks up a tag without interning it.
    pub fn get(&self, name: &str) -> Option<TagId> {
        self.lookup(name.as_bytes())
    }

    /// Resolves an id back to the tag name.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn name(&self, id: TagId) -> &str {
        let (off, len) = self.names[id.index()];
        &self.names_data[off as usize..(off + len) as usize]
    }

    /// Number of distinct interned tags.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no tag has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, &str)> {
        (0..self.len() as u32).map(move |i| (TagId(i), self.name(TagId(i))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = TagInterner::new();
        let a = t.intern("bib");
        let b = t.intern("book");
        let a2 = t.intern("bib");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_resolvable() {
        let mut t = TagInterner::new();
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            let id = t.intern(name);
            assert_eq!(id.index(), i);
            assert_eq!(t.name(id), *name);
        }
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = TagInterner::new();
        assert!(t.get("x").is_none());
        t.intern("x");
        assert!(t.get("x").is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iter_in_id_order() {
        let mut t = TagInterner::new();
        t.intern("one");
        t.intern("two");
        let collected: Vec<_> = t.iter().map(|(_, n)| n.to_string()).collect();
        assert_eq!(collected, vec!["one", "two"]);
    }

    #[test]
    fn empty_interner() {
        let t = TagInterner::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn intern_bytes_matches_intern() {
        let mut t = TagInterner::new();
        let a = t.intern("item");
        assert_eq!(t.intern_bytes(b"item"), Some(a));
        let b = t.intern_bytes(b"listitem").unwrap();
        assert_eq!(t.intern("listitem"), b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(b), "listitem");
    }

    #[test]
    fn intern_bytes_rejects_invalid_utf8() {
        let mut t = TagInterner::new();
        assert_eq!(t.intern_bytes(&[0xFF, 0xFE]), None);
        assert!(t.is_empty());
    }

    #[test]
    fn clone_is_independent() {
        let mut query = TagInterner::new();
        let a = query.intern("a");
        let mut s1 = query.clone();
        let mut s2 = query.clone();
        let x1 = s1.intern("x");
        let y2 = s2.intern("y");
        assert_eq!(s1.get("a"), Some(a), "the query's ids carry over");
        assert_eq!(x1, y2, "clones allocate the same next id independently");
        assert_eq!(s1.name(x1), "x");
        assert_eq!(s2.name(y2), "y");
        assert_eq!(query.len(), 1, "the original is untouched");
    }

    #[test]
    fn fx_hash_distinguishes_lengths_and_content() {
        use std::hash::Hasher as _;
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(h(b"ab"), h(b"ab\0"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefgi"));
        assert_ne!(h(b""), h(b"\0"));
        assert_eq!(h(b"person"), h(b"person"));
    }
}
