//! Copy-on-write chunk tables: the storage behind every array a
//! [`crate::Machine`] forks — flash, SRAM and TCM pages, and the
//! predecode and block-cache slots.
//!
//! A table is a run of slots cut into fixed chunks of `C`. Its contents
//! are two layers:
//!
//! * a **frozen** layer — one `Arc`-shared, never-mutated list of
//!   chunks, common to every copy descended from the same freeze; an
//!   absent chunk reads as `T::default()` and costs no memory, so a new
//!   table allocates nothing;
//! * the chunks this copy **owns** — the ones it wrote since its frozen
//!   layer was made. A read takes the owned chunk when there is one,
//!   else the frozen one; the first write to a chunk copies it into the
//!   owned set.
//!
//! Cloning is O(1) in the table size:
//!
//! * a table that owns nothing hands the clone its frozen layer — one
//!   refcount for the whole table, never one per chunk, so forks run on
//!   different threads do not contend on per-chunk counters;
//! * otherwise the first clone *freezes*: it builds a new frozen layer
//!   from the owned chunks over the old layer, keeps it, and every
//!   later clone of the unchanged table takes that one. The next write
//!   to the original adopts the kept layer as its own frozen layer and
//!   drops its owned chunks, so parent and clone are symmetric: either
//!   may keep running, and each copies a chunk on its own first write.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// A frozen layer: chunk `c` is `layer[c]`; `None` and indices past the
/// end read as default.
type Layer<T, const C: usize> = Arc<[Option<Arc<[T; C]>>]>;

/// A copy-on-write table of `C`-slot chunks (see the module docs).
pub(crate) struct CowTable<T, const C: usize> {
    frozen: Option<Layer<T, C>>,
    /// Chunks written since `frozen` was made, by chunk index. Empty
    /// exactly when the copy owns nothing.
    own: Vec<Option<Box<[T; C]>>>,
    /// The frozen form of the current contents, made by the first clone
    /// after a write and shared by every later clone until the next
    /// write adopts it.
    freeze: OnceLock<Layer<T, C>>,
    /// Set once `freeze` is: the write path reads it through `&mut`,
    /// as a plain load, where `OnceLock::get` would be an acquire.
    frozen_since_write: AtomicBool,
}

impl<T: Clone + Default, const C: usize> CowTable<T, C> {
    /// An empty table: every slot reads as default, nothing allocated.
    pub(crate) const fn new() -> Self {
        CowTable {
            frozen: None,
            own: Vec::new(),
            freeze: OnceLock::new(),
            frozen_since_write: AtomicBool::new(false),
        }
    }

    /// Chunk `c`, or `None` when it reads as all-default.
    #[inline]
    pub(crate) fn chunk(&self, c: usize) -> Option<&[T; C]> {
        if let Some(Some(owned)) = self.own.get(c) {
            return Some(owned);
        }
        self.frozen_chunk(c).map(|shared| &**shared)
    }

    /// Slot `i`, or `None` when it reads as default.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.chunk(i / C).map(|chunk| &chunk[i % C])
    }

    /// Chunk `c` for writing, copied into the owned set on the first
    /// write since the last freeze.
    #[inline]
    pub(crate) fn chunk_mut(&mut self, c: usize) -> &mut [T; C] {
        if *self.frozen_since_write.get_mut() || !matches!(self.own.get(c), Some(Some(_))) {
            self.unshare(c);
        }
        self.own[c].as_deref_mut().expect("chunk owned above")
    }

    /// Slot `i` for writing (see [`CowTable::chunk_mut`]).
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunk_mut(i / C)[i % C]
    }

    /// Resets every slot to default for this copy alone: the frozen
    /// layer is let go (other copies keep it), owned chunks are reset in
    /// place so refilling them allocates nothing.
    pub(crate) fn clear(&mut self) {
        self.frozen = None;
        self.freeze = OnceLock::new();
        *self.frozen_since_write.get_mut() = false;
        for chunk in self.own.iter_mut().flatten() {
            chunk.fill(T::default());
        }
    }

    /// Every slot of every chunk present in this copy (owned or frozen),
    /// as `(slot index, value)`.
    pub(crate) fn slots(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        (0..self.chunk_count())
            .filter_map(|c| self.chunk(c).map(|chunk| (c, chunk)))
            .flat_map(|(c, chunk)| chunk.iter().enumerate().map(move |(i, v)| (c * C + i, v)))
    }

    /// Makes chunk `c` owned: after a freeze, first adopts the kept
    /// layer (it holds exactly the current contents) as this copy's
    /// frozen layer and drops the owned chunks, now duplicates; then
    /// copies chunk `c` (or a default chunk) in, unless still owned.
    #[cold]
    fn unshare(&mut self, c: usize) {
        if std::mem::take(self.frozen_since_write.get_mut()) {
            self.frozen = self.freeze.take();
            self.own.clear();
        }
        if matches!(self.own.get(c), Some(Some(_))) {
            return;
        }
        // Built on the heap directly: a chunk can be a whole page, and an
        // array temporary would cost a second copy.
        let slots: Box<[T]> = match self.frozen_chunk(c) {
            Some(shared) => Box::from(&shared[..]),
            None => vec![T::default(); C].into_boxed_slice(),
        };
        let chunk = slots.try_into().ok().expect("a chunk has C slots");
        if self.own.len() <= c {
            self.own.resize_with(c + 1, || None);
        }
        self.own[c] = Some(chunk);
    }

    /// A frozen layer holding the current contents: the owned chunks
    /// copied out, every other chunk shared with the old layer.
    fn build_layer(&self) -> Layer<T, C> {
        (0..self.chunk_count())
            .map(|c| match self.own.get(c) {
                Some(Some(owned)) => {
                    let slots: Arc<[T]> = Arc::from(&owned[..]);
                    Some(slots.try_into().ok().expect("a chunk has C slots"))
                }
                _ => self.frozen_chunk(c).cloned(),
            })
            .collect()
    }

    fn frozen_chunk(&self, c: usize) -> Option<&Arc<[T; C]>> {
        self.frozen.as_ref()?.get(c)?.as_ref()
    }

    /// One past the highest chunk index present in either layer.
    fn chunk_count(&self) -> usize {
        let frozen = self.frozen.as_ref().map_or(0, |l| l.len());
        self.own.len().max(frozen)
    }
}

impl<T: Clone + Default, const C: usize> Clone for CowTable<T, C> {
    /// O(1): shares the frozen layer, freezing first when this copy owns
    /// chunks (once per write burst — see the module docs).
    fn clone(&self) -> Self {
        let frozen = if self.own.is_empty() {
            self.frozen.clone()
        } else {
            let layer = Arc::clone(self.freeze.get_or_init(|| self.build_layer()));
            // Relaxed: the flag publishes nothing (`freeze` synchronizes
            // itself), and the write path reads it only through `&mut`,
            // whose exclusivity orders it after every clone. Only the
            // first clone stores, so forks on other threads do not
            // bounce the original's cache line.
            if !self.frozen_since_write.load(Ordering::Relaxed) {
                self.frozen_since_write.store(true, Ordering::Relaxed);
            }
            Some(layer)
        };
        CowTable {
            frozen,
            own: Vec::new(),
            freeze: OnceLock::new(),
            frozen_since_write: AtomicBool::new(false),
        }
    }
}

impl<T, const C: usize> fmt::Debug for CowTable<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let frozen = self
            .frozen
            .as_ref()
            .map_or(0, |l| l.iter().flatten().count());
        f.debug_struct("CowTable")
            .field("chunk_slots", &C)
            .field("frozen_chunks", &frozen)
            .field("owned_chunks", &self.own.iter().flatten().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Table = CowTable<u32, 4>;

    fn read(t: &Table, i: usize) -> u32 {
        t.get(i).copied().unwrap_or_default()
    }

    #[test]
    fn new_table_reads_default_and_owns_nothing() {
        let t = Table::new();
        assert_eq!(read(&t, 0), 0);
        assert_eq!(read(&t, 1000), 0);
        assert!(t.chunk(3).is_none());
        assert_eq!(t.slots().count(), 0);
    }

    #[test]
    fn writes_land_in_owned_chunks() {
        let mut t = Table::new();
        *t.get_mut(5) = 7;
        assert_eq!(read(&t, 5), 7);
        assert_eq!(read(&t, 4), 0, "rest of the chunk is default");
        assert!(t.chunk(0).is_none(), "untouched chunks stay absent");
    }

    #[test]
    fn clone_and_original_diverge_on_their_own_writes() {
        let mut a = Table::new();
        *a.get_mut(1) = 10;
        let mut b = a.clone();
        *a.get_mut(1) = 11;
        *b.get_mut(1) = 12;
        *b.get_mut(9) = 13;
        assert_eq!((read(&a, 1), read(&b, 1)), (11, 12));
        assert_eq!((read(&a, 9), read(&b, 9)), (0, 13));
    }

    #[test]
    fn repeated_clones_share_one_freeze() {
        let mut a = Table::new();
        *a.get_mut(2) = 3;
        let b = a.clone();
        let c = a.clone();
        let (fb, fc) = (b.frozen.as_ref().unwrap(), c.frozen.as_ref().unwrap());
        assert!(
            Arc::ptr_eq(fb, fc),
            "the second clone reuses the first freeze"
        );
        assert_eq!(read(&c, 2), 3);
    }

    #[test]
    fn a_write_after_a_freeze_adopts_it() {
        let mut a = Table::new();
        *a.get_mut(2) = 3;
        let b = a.clone();
        *a.get_mut(6) = 4;
        assert!(Arc::ptr_eq(
            a.frozen.as_ref().unwrap(),
            b.frozen.as_ref().unwrap()
        ));
        assert_eq!((read(&a, 2), read(&a, 6)), (3, 4));
        assert_eq!(read(&b, 6), 0, "the clone never sees the later write");
        let c = a.clone();
        assert_eq!(
            (read(&c, 2), read(&c, 6)),
            (3, 4),
            "a fresh freeze after the write"
        );
    }

    #[test]
    fn clear_resets_this_copy_only() {
        let mut a = Table::new();
        *a.get_mut(0) = 1;
        let mut b = a.clone();
        *b.get_mut(5) = 2;
        b.clear();
        assert_eq!((read(&b, 0), read(&b, 5)), (0, 0));
        assert_eq!(read(&a, 0), 1, "the shared layer is untouched");
        assert_eq!(b.slots().filter(|&(_, v)| *v != 0).count(), 0);
    }

    #[test]
    fn slots_walk_owned_over_frozen() {
        let mut a = Table::new();
        *a.get_mut(1) = 1;
        *a.get_mut(9) = 9;
        let mut b = a.clone();
        *b.get_mut(2) = 2;
        let live: Vec<(usize, u32)> = b
            .slots()
            .filter(|&(_, v)| *v != 0)
            .map(|(i, v)| (i, *v))
            .collect();
        assert_eq!(live, vec![(1, 1), (2, 2), (9, 9)]);
    }
}
