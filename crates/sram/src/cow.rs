//! Copy-on-write array storage for zero-copy snapshot restore.
//!
//! A [`CowVec`] wraps its element vector in an [`Arc`], so cloning — which
//! is exactly what checkpointing ([`crate::Snapshot`]) and rewinding with
//! `clone_from` do — is O(1) and shares the underlying allocation. The
//! first mutation after a clone ([`CowVec::make_mut`]) unshares the
//! whole array via [`Arc::make_mut`]; an array a run never
//! writes is never copied. This extends the page-granular copy-on-write
//! scheme of the DRAM model to the dense SRAM arrays (cache data / tag /
//! LRU, the physical register file), where whole-array granularity is the
//! right trade: the arrays are small (hundreds of bytes to a few KB), so
//! one copy on first touch beats per-line bookkeeping on every access.
//!
//! Sharing is observable ([`CowVec::is_shared_with`]), which buys two more
//! wins: equality and convergence checks compare shared arrays by pointer
//! without touching their bytes, and snapshot-store memory accounting
//! ([`CowVec::retained_bytes`]) charges an array shared with the previous
//! checkpoint zero bytes.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::Snapshot;

/// A clone-sharing, copy-on-first-write array.
///
/// # Example
///
/// ```
/// use mbu_sram::CowVec;
///
/// let mut a = CowVec::new(vec![0u8; 64]);
/// let snap = a.clone(); // O(1): shares the allocation
/// assert!(a.is_shared_with(&snap));
/// a.make_mut()[3] = 7; // first write copies the array once
/// assert!(!a.is_shared_with(&snap));
/// assert_eq!(snap[3], 0, "the snapshot is unaffected");
/// assert_eq!(a[3], 7);
/// ```
#[derive(Clone)]
pub struct CowVec<T> {
    inner: Arc<Vec<T>>,
}

impl<T> CowVec<T> {
    /// Wraps a vector.
    pub fn new(values: Vec<T>) -> Self {
        Self {
            inner: Arc::new(values),
        }
    }

    /// The elements as a read-only slice (also available through `Deref`).
    pub fn as_slice(&self) -> &[T] {
        &self.inner
    }

    /// Whether this array and `other` share the same allocation — true
    /// right after a clone, false once either side has been written.
    pub fn is_shared_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Heap bytes of the element storage.
    pub fn heap_bytes(&self) -> usize {
        self.inner.len() * std::mem::size_of::<T>()
    }

    /// Retained heap bytes of this array when `prev` is an already-retained
    /// checkpoint: an allocation shared with `prev` is charged zero.
    pub fn retained_bytes(&self, prev: Option<&Self>) -> usize {
        if prev.is_some_and(|p| self.is_shared_with(p)) {
            0
        } else {
            self.heap_bytes()
        }
    }
}

impl<T: Clone> CowVec<T> {
    /// Mutable access to the elements, unsharing (copying the whole array)
    /// first if the allocation is shared with a snapshot.
    pub fn make_mut(&mut self) -> &mut [T] {
        Arc::make_mut(&mut self.inner).as_mut_slice()
    }
}

impl<T> Deref for CowVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for CowVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Semantic equality over the elements, with a pointer-equality fast path
/// for arrays still sharing one allocation.
impl<T: PartialEq> PartialEq for CowVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.is_shared_with(other) || *self.inner == *other.inner
    }
}

impl<T: Eq> Eq for CowVec<T> {}

impl<T: Clone> Snapshot for CowVec<T> {
    type State = CowVec<T>;

    fn snapshot(&self) -> CowVec<T> {
        // O(1): shares the allocation until the next write.
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_until_first_write() {
        let mut a = CowVec::new(vec![1u32, 2, 3]);
        let snap = a.snapshot();
        assert!(a.is_shared_with(&snap));
        assert_eq!(snap.retained_bytes(Some(&a)), 0);
        a.make_mut()[1] = 9;
        assert!(!a.is_shared_with(&snap));
        assert_eq!(a.as_slice(), &[1, 9, 3]);
        assert_eq!(snap.as_slice(), &[1, 2, 3]);
        assert_eq!(snap.retained_bytes(Some(&a)), 12);
        assert_eq!(snap.retained_bytes(None), 12);
    }

    #[test]
    fn restore_reshares_the_snapshot_allocation() {
        let mut a = CowVec::new(vec![0u8; 8]);
        let snap = a.snapshot();
        a.make_mut()[0] = 0xFF;
        assert_ne!(a, snap);
        a.clone_from(&snap);
        assert!(a.is_shared_with(&snap), "rewinding must re-share, not copy");
        assert_eq!(a, snap);
    }

    #[test]
    fn equality_is_semantic_not_pointer() {
        let a = CowVec::new(vec![5u8; 4]);
        let b = CowVec::new(vec![5u8; 4]);
        assert!(!a.is_shared_with(&b));
        assert_eq!(a, b, "distinct allocations with equal bytes are equal");
        let c = CowVec::new(vec![6u8; 4]);
        assert_ne!(a, c);
    }

    #[test]
    fn make_mut_without_sharing_does_not_copy() {
        let mut a = CowVec::new(vec![1u8, 2]);
        let p = a.as_slice().as_ptr();
        a.make_mut()[0] = 3;
        assert_eq!(a.as_slice().as_ptr(), p, "unshared write must be in place");
    }
}
