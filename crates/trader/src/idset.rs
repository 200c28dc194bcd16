//! Compressed sets of offer ids: the trader's posting lists.
//!
//! An [`IdSet`] uses the layout of Roaring bitmaps (Chambi et al.,
//! *Better bitmap performance with Roaring bitmaps*, 2016), with full
//! `u64` ids. The id space is cut into chunks of 2¹⁶ consecutive ids,
//! keyed by the id's high 48 bits. Each non-empty chunk keeps the low 16
//! bits of its members in one of two containers:
//!
//! - a **sorted array** of `u16`s while the chunk holds at most
//!   [`ARRAY_MAX`] ids (sparse chunks: two bytes per id);
//! - a **bitmap** of 2¹⁶ bits (8 KiB) once it holds more (dense chunks:
//!   under two bytes per id, and set operations become word-wise).
//!
//! The container kind is a function of the chunk's size alone, so two
//! equal sets have identical representations. Insert and remove touch
//! one chunk and are O(1) in the set's size. Unions (range and in-set
//! index paths, subtype buckets) OR bitmaps or merge short arrays;
//! intersections AND bitmap words. Iteration yields ascending ids: the
//! order the reference scan visits offers in.

use std::fmt;

use rmodp_core::id::OfferId;

/// Bits of an id addressed inside one chunk.
const LOW_BITS: u32 = 16;
/// `u64` words in a bitmap container.
const WORDS: usize = (1 << LOW_BITS) / 64;
/// The most ids a chunk keeps as a sorted array; one more makes it a
/// bitmap. At this size both containers take 8 KiB.
pub const ARRAY_MAX: usize = 4096;

/// The members of one chunk, as low 16 bits.
#[derive(Clone, PartialEq, Eq)]
enum Container {
    /// Ascending, at most [`ARRAY_MAX`] long.
    Array(Vec<u16>),
    /// More than [`ARRAY_MAX`] bits set; `len` counts them.
    Bitmap {
        words: Box<[u64; WORDS]>,
        len: usize,
    },
}

impl Container {
    fn len(&self) -> usize {
        match self {
            Container::Array(lows) => lows.len(),
            Container::Bitmap { len, .. } => *len,
        }
    }

    fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(lows) => lows.binary_search(&low).is_ok(),
            Container::Bitmap { words, .. } => words[usize::from(low) / 64] >> (low % 64) & 1 == 1,
        }
    }

    /// Normalises a bitmap: a chunk of at most [`ARRAY_MAX`] ids is
    /// kept as an array.
    fn from_words(words: Box<[u64; WORDS]>) -> Container {
        let len = words.iter().map(|w| w.count_ones() as usize).sum();
        if len > ARRAY_MAX {
            return Container::Bitmap { words, len };
        }
        let mut lows = Vec::with_capacity(len);
        lows.extend(Lows::bitmap(&words));
        Container::Array(lows)
    }

    fn insert(&mut self, low: u16) -> bool {
        match self {
            Container::Array(lows) => {
                let Err(at) = lows.binary_search(&low) else {
                    return false;
                };
                if lows.len() < ARRAY_MAX {
                    lows.insert(at, low);
                    return true;
                }
                let mut words = Box::new([0u64; WORDS]);
                set_bits(&mut words, lows);
                set_bits(&mut words, &[low]);
                *self = Container::Bitmap {
                    words,
                    len: ARRAY_MAX + 1,
                };
                true
            }
            Container::Bitmap { words, len } => {
                let (word, bit) = (&mut words[usize::from(low) / 64], 1u64 << (low % 64));
                if *word & bit != 0 {
                    return false;
                }
                *word |= bit;
                *len += 1;
                true
            }
        }
    }

    fn remove(&mut self, low: u16) -> bool {
        match self {
            Container::Array(lows) => match lows.binary_search(&low) {
                Ok(at) => {
                    lows.remove(at);
                    true
                }
                Err(_) => false,
            },
            Container::Bitmap { words, len } => {
                let (word, bit) = (&mut words[usize::from(low) / 64], 1u64 << (low % 64));
                if *word & bit == 0 {
                    return false;
                }
                *word &= !bit;
                *len -= 1;
                if *len == ARRAY_MAX {
                    let lows = Lows::bitmap(words).collect();
                    *self = Container::Array(lows);
                }
                true
            }
        }
    }

    fn lows(&self) -> Lows<'_> {
        match self {
            Container::Array(lows) => Lows::Array(lows.iter()),
            Container::Bitmap { words, .. } => Lows::bitmap(words),
        }
    }

    fn intersection(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Bitmap { words: a, .. }, Container::Bitmap { words: b, .. }) => {
                let mut words = Box::new([0u64; WORDS]);
                for ((w, a), b) in words.iter_mut().zip(a.iter()).zip(b.iter()) {
                    *w = a & b;
                }
                Container::from_words(words)
            }
            (Container::Array(lows), bitmap @ Container::Bitmap { .. })
            | (bitmap @ Container::Bitmap { .. }, Container::Array(lows)) => Container::Array(
                lows.iter()
                    .copied()
                    .filter(|&l| bitmap.contains(l))
                    .collect(),
            ),
            (Container::Array(a), Container::Array(b)) => {
                let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                Container::Array(
                    short
                        .iter()
                        .copied()
                        .filter(|l| long.binary_search(l).is_ok())
                        .collect(),
                )
            }
        }
    }

    /// ORs the container's members into a bitmap.
    fn or_into(&self, words: &mut [u64; WORDS]) {
        match self {
            Container::Array(lows) => set_bits(words, lows),
            Container::Bitmap { words: other, .. } => {
                for (w, o) in words.iter_mut().zip(other.iter()) {
                    *w |= o;
                }
            }
        }
    }
}

fn set_bits(words: &mut [u64; WORDS], lows: &[u16]) {
    for &low in lows {
        words[usize::from(low) / 64] |= 1 << (low % 64);
    }
}

/// One chunk: the ids whose high 48 bits are `high`.
#[derive(Clone, PartialEq, Eq)]
struct Chunk {
    high: u64,
    container: Container,
}

/// A set of offer ids in Roaring layout (see the [module docs](self)).
///
/// Equal sets compare equal and have the same representation.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct IdSet {
    /// Non-empty chunks, ascending by `high`.
    chunks: Vec<Chunk>,
}

fn split(id: OfferId) -> (u64, u16) {
    let raw = id.raw();
    (raw >> LOW_BITS, raw as u16)
}

impl IdSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids in the set (a sum over its chunks: ids in one
    /// 2¹⁶ range share a chunk, so this is usually a single read).
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.container.len()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    fn chunk(&self, high: u64) -> Result<usize, usize> {
        self.chunks.binary_search_by_key(&high, |c| c.high)
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: OfferId) -> bool {
        let (high, low) = split(id);
        self.chunk(high)
            .is_ok_and(|at| self.chunks[at].container.contains(low))
    }

    /// Adds `id`; returns whether it was absent.
    pub fn insert(&mut self, id: OfferId) -> bool {
        let (high, low) = split(id);
        match self.chunk(high) {
            Ok(at) => self.chunks[at].container.insert(low),
            Err(at) => {
                // Most posting lists never leave their first chunk:
                // size it exactly rather than to the default growth.
                if self.chunks.is_empty() {
                    self.chunks.reserve_exact(1);
                }
                let container = Container::Array(vec![low]);
                self.chunks.insert(at, Chunk { high, container });
                true
            }
        }
    }

    /// Removes `id`; returns whether it was present.
    pub fn remove(&mut self, id: OfferId) -> bool {
        let (high, low) = split(id);
        let Ok(at) = self.chunk(high) else {
            return false;
        };
        let removed = self.chunks[at].container.remove(low);
        if self.chunks[at].container.len() == 0 {
            self.chunks.remove(at);
        }
        removed
    }

    /// The ids, ascending.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            chunks: self.chunks.iter(),
            base: 0,
            lows: Lows::Array([].iter()),
        }
    }

    /// The union of `sets`. Per chunk, short arrays are merged; once the
    /// inputs hold more than [`ARRAY_MAX`] ids, they are ORed into a
    /// bitmap.
    pub fn union_all(sets: &[&IdSet]) -> IdSet {
        let mut parts: Vec<&Chunk> = sets.iter().flat_map(|s| &s.chunks).collect();
        parts.sort_by_key(|c| c.high);
        let mut out = IdSet::new();
        for group in parts.chunk_by(|a, b| a.high == b.high) {
            let total: usize = group.iter().map(|c| c.container.len()).sum();
            let container = match group {
                [one] => one.container.clone(),
                // At most ARRAY_MAX ids in all, so every input is an array.
                _ if total <= ARRAY_MAX => {
                    let mut lows: Vec<u16> =
                        group.iter().flat_map(|c| c.container.lows()).collect();
                    lows.sort_unstable();
                    lows.dedup();
                    Container::Array(lows)
                }
                _ => {
                    let mut words = Box::new([0u64; WORDS]);
                    for c in group {
                        c.container.or_into(&mut words);
                    }
                    Container::from_words(words)
                }
            };
            out.chunks.push(Chunk {
                high: group[0].high,
                container,
            });
        }
        out
    }

    /// The ids in both `self` and `other`: chunk by chunk, bitmaps are
    /// ANDed word by word and arrays are probed.
    pub fn intersection(&self, other: &IdSet) -> IdSet {
        let mut out = IdSet::new();
        let (mut a, mut b) = (
            self.chunks.iter().peekable(),
            other.chunks.iter().peekable(),
        );
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            match x.high.cmp(&y.high) {
                std::cmp::Ordering::Less => {
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    let container = x.container.intersection(&y.container);
                    if container.len() > 0 {
                        out.chunks.push(Chunk {
                            high: x.high,
                            container,
                        });
                    }
                    a.next();
                    b.next();
                }
            }
        }
        out
    }
}

impl fmt::Debug for IdSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<OfferId> for IdSet {
    fn from_iter<I: IntoIterator<Item = OfferId>>(iter: I) -> Self {
        let mut set = IdSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

/// The low 16 bits of one container's members, ascending.
enum Lows<'a> {
    Array(std::slice::Iter<'a, u16>),
    Bitmap {
        words: &'a [u64; WORDS],
        /// Index of `word` in `words`.
        at: usize,
        /// The bits of `words[at]` not yet yielded.
        word: u64,
    },
}

impl<'a> Lows<'a> {
    fn bitmap(words: &'a [u64; WORDS]) -> Self {
        Lows::Bitmap {
            words,
            at: 0,
            word: words[0],
        }
    }
}

impl Iterator for Lows<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match self {
            Lows::Array(it) => it.next().copied(),
            Lows::Bitmap { words, at, word } => {
                while *word == 0 {
                    *at += 1;
                    *word = *words.get(*at)?;
                }
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                Some((*at * 64 + bit) as u16)
            }
        }
    }
}

/// Ascending iterator over an [`IdSet`].
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, Chunk>,
    /// The current chunk's first id.
    base: u64,
    lows: Lows<'a>,
}

impl Iterator for Iter<'_> {
    type Item = OfferId;

    fn next(&mut self) -> Option<OfferId> {
        loop {
            if let Some(low) = self.lows.next() {
                return Some(OfferId::new(self.base | u64::from(low)));
            }
            let chunk = self.chunks.next()?;
            self.base = chunk.high << LOW_BITS;
            self.lows = chunk.container.lows();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: impl IntoIterator<Item = u64>) -> IdSet {
        raw.into_iter().map(OfferId::new).collect()
    }

    fn raws(set: &IdSet) -> Vec<u64> {
        set.iter().map(OfferId::raw).collect()
    }

    fn is_bitmap(set: &IdSet, chunk: usize) -> bool {
        matches!(set.chunks[chunk].container, Container::Bitmap { .. })
    }

    #[test]
    fn iteration_is_ascending_across_chunks() {
        let set = ids([u64::MAX, 70_000, 3, 1 << 40, 65_535, 65_536]);
        assert_eq!(raws(&set), [3, 65_535, 65_536, 70_000, 1 << 40, u64::MAX]);
        assert_eq!(set.len(), 6);
        assert!(set.contains(OfferId::new(u64::MAX)));
        assert!(!set.contains(OfferId::new(4)));
    }

    #[test]
    fn chunks_flip_between_array_and_bitmap_at_the_threshold() {
        let mut set = ids(0..ARRAY_MAX as u64);
        assert!(!is_bitmap(&set, 0));
        assert!(set.insert(OfferId::new(ARRAY_MAX as u64 * 2)));
        assert!(is_bitmap(&set, 0));
        assert!(!set.insert(OfferId::new(7)), "already present");
        assert!(set.remove(OfferId::new(7)));
        assert!(!is_bitmap(&set, 0));
        assert_eq!(set.len(), ARRAY_MAX);
        assert!(!set.contains(OfferId::new(7)));
        // The representation is canonical: the same members, built
        // another way, compare equal.
        let again = ids((0..ARRAY_MAX as u64)
            .filter(|&i| i != 7)
            .chain([ARRAY_MAX as u64 * 2]));
        assert_eq!(set, again);
    }

    #[test]
    fn removing_the_last_id_drops_the_chunk() {
        let mut set = ids([5, 1 << 20]);
        assert!(set.remove(OfferId::new(1 << 20)));
        assert!(!set.remove(OfferId::new(1 << 20)));
        assert_eq!(set.chunks.len(), 1);
        assert!(set.remove(OfferId::new(5)));
        assert!(set.is_empty());
        assert_eq!(set, IdSet::new());
    }

    #[test]
    fn union_and_intersection() {
        let evens = ids((0..20_000).step_by(2));
        let threes = ids((0..20_000).step_by(3));
        let sparse = ids([4, 6, 9, 1 << 33]);
        let both = evens.intersection(&threes);
        assert_eq!(raws(&both), (0..20_000).step_by(6).collect::<Vec<_>>());
        assert_eq!(raws(&sparse.intersection(&evens)), [4, 6]);
        assert_eq!(raws(&evens.intersection(&sparse)), [4, 6]);
        let union = IdSet::union_all(&[&evens, &threes, &sparse]);
        let expect: Vec<u64> = (0..20_000)
            .filter(|i| i % 2 == 0 || i % 3 == 0)
            .chain([1 << 33])
            .collect();
        assert_eq!(raws(&union), expect);
        assert_eq!(union.len(), expect.len());
        assert_eq!(IdSet::union_all(&[]), IdSet::new());
        assert_eq!(
            raws(&IdSet::union_all(&[&ids([3, 1]), &ids([2])])),
            [1, 2, 3]
        );
    }
}
