//! An RCU-protected singly-linked list, after the kernel's `list_rcu`
//! pattern: readers traverse lock-free inside a read-side critical
//! section; writers serialize among themselves with a mutex, publish
//! with atomic pointer stores, and reclaim removed nodes only after a
//! grace period.
//!
//! This is the data-structure shape boot-time kernel code protects with
//! the `synchronize_rcu` calls the RCU Booster accelerates: frequently
//! read registries (drivers, notifier chains, module lists) with rare
//! writes.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

use crate::domain::{RcuDomain, ReadGuard};
use crate::lock;

struct Node<T> {
    value: T,
    next: AtomicPtr<Node<T>>,
}

/// An RCU-protected singly-linked list.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use bb_rcu::{RcuDomain, RcuList, WaitStrategy};
///
/// let domain = Arc::new(RcuDomain::new(WaitStrategy::Boosted));
/// let list = RcuList::new(Arc::clone(&domain));
/// list.push_front(2);
/// list.push_front(1);
/// let handle = domain.register_reader();
/// let guard = handle.read_lock();
/// let items: Vec<i32> = list.iter(&guard).copied().collect();
/// assert_eq!(items, vec![1, 2]);
/// ```
pub struct RcuList<T: Send + Sync> {
    head: AtomicPtr<Node<T>>,
    domain: Arc<RcuDomain>,
    /// Serializes writers (the kernel's external update-side lock).
    writer: Mutex<()>,
}

impl<T: Send + Sync> std::fmt::Debug for RcuList<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcuList").finish_non_exhaustive()
    }
}

impl<T: Send + Sync> RcuList<T> {
    /// Creates an empty list protected by `domain`.
    pub fn new(domain: Arc<RcuDomain>) -> Self {
        RcuList {
            head: AtomicPtr::new(std::ptr::null_mut()),
            domain,
            writer: Mutex::new(()),
        }
    }

    /// Inserts at the front (publish with a single pointer store).
    pub fn push_front(&self, value: T) {
        let _w = lock(&self.writer);
        let old_head = self.head.load(Ordering::SeqCst);
        let node = Box::into_raw(Box::new(Node {
            value,
            next: AtomicPtr::new(old_head),
        }));
        self.head.store(node, Ordering::SeqCst);
    }

    /// Removes the first element matching `pred`, returning whether one
    /// was removed. Blocks for a grace period before freeing the node.
    pub fn remove_first(&self, mut pred: impl FnMut(&T) -> bool) -> bool {
        let _w = lock(&self.writer);
        // Unlink under the writer lock, searching via raw pointers.
        let mut link: &AtomicPtr<Node<T>> = &self.head;
        loop {
            let cur = link.load(Ordering::SeqCst);
            if cur.is_null() {
                return false;
            }
            // SAFETY: `cur` is non-null and owned by the list; only this
            // writer (we hold the lock) can unlink or free nodes, so it
            // is valid for the duration of this critical section.
            let node = unsafe { &*cur };
            if pred(&node.value) {
                let next = node.next.load(Ordering::SeqCst);
                // Publish the unlink; readers that already loaded `cur`
                // may still be traversing it.
                link.store(next, Ordering::SeqCst);
                // Wait for those readers, then reclaim.
                self.domain.synchronize();
                // SAFETY: `cur` was created by `Box::into_raw`, has been
                // unlinked (no new readers can reach it), and the grace
                // period guarantees pre-existing readers are done.
                drop(unsafe { Box::from_raw(cur) });
                return true;
            }
            link = &node.next;
        }
    }

    /// Iterates inside a read-side critical section.
    ///
    /// The guard must come from a reader registered with this list's
    /// domain; the items borrow from the guard's lifetime.
    pub fn iter<'g>(&'g self, _guard: &'g ReadGuard<'_>) -> Iter<'g, T> {
        Iter {
            cur: self.head.load(Ordering::SeqCst),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements (snapshot taken inside a temporary read lock).
    pub fn len(&self) -> usize {
        let handle = self.domain.register_reader();
        let guard = handle.read_lock();
        self.iter(&guard).count()
    }

    /// True if the list currently has no elements.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::SeqCst).is_null()
    }

    /// The protecting domain.
    pub fn domain(&self) -> &Arc<RcuDomain> {
        &self.domain
    }
}

impl<T: Send + Sync> Drop for RcuList<T> {
    fn drop(&mut self) {
        // Exclusive access: free the remaining chain directly.
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive (`&mut self`) access; every node came
            // from `Box::into_raw` and is freed exactly once here.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next.load(Ordering::Relaxed);
        }
    }
}

// SAFETY: All shared mutation is via atomics under the writer mutex;
// readers only obtain `&T`. Same reasoning as `RcuCell`.
unsafe impl<T: Send + Sync> Send for RcuList<T> {}
// SAFETY: As above.
unsafe impl<T: Send + Sync> Sync for RcuList<T> {}

/// Lock-free iterator over a read-side snapshot of the list.
pub struct Iter<'g, T> {
    cur: *mut Node<T>,
    _marker: std::marker::PhantomData<&'g T>,
}

impl<'g, T> Iterator for Iter<'g, T> {
    type Item = &'g T;

    fn next(&mut self) -> Option<&'g T> {
        if self.cur.is_null() {
            return None;
        }
        // SAFETY: nodes reachable inside a read-side critical section
        // are kept alive until a grace period after their unlink; the
        // guard bound to `'g` keeps our section open.
        let node = unsafe { &*self.cur };
        self.cur = node.next.load(Ordering::SeqCst);
        Some(&node.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::WaitStrategy;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::thread;

    fn list() -> (Arc<RcuDomain>, RcuList<u64>) {
        let domain = Arc::new(RcuDomain::new(WaitStrategy::Boosted));
        let list = RcuList::new(Arc::clone(&domain));
        (domain, list)
    }

    #[test]
    fn push_iter_remove() {
        let (domain, list) = list();
        assert!(list.is_empty());
        for v in [3u64, 2, 1] {
            list.push_front(v);
        }
        assert_eq!(list.len(), 3);
        {
            let h = domain.register_reader();
            let g = h.read_lock();
            let items: Vec<u64> = list.iter(&g).copied().collect();
            assert_eq!(items, vec![1, 2, 3]);
        }
        assert!(list.remove_first(|&v| v == 2));
        assert!(!list.remove_first(|&v| v == 99));
        assert_eq!(list.len(), 2);
        let h = domain.register_reader();
        let g = h.read_lock();
        let items: Vec<u64> = list.iter(&g).copied().collect();
        assert_eq!(items, vec![1, 3]);
    }

    #[test]
    fn removal_waits_for_readers() {
        struct DropFlag(Arc<AtomicUsize>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let domain = Arc::new(RcuDomain::new(WaitStrategy::Boosted));
        let list = Arc::new(RcuList::new(Arc::clone(&domain)));
        let drops = Arc::new(AtomicUsize::new(0));
        list.push_front(DropFlag(Arc::clone(&drops)));

        let entered = Arc::new(AtomicBool::new(false));
        let reader = {
            let domain = Arc::clone(&domain);
            let list = Arc::clone(&list);
            let entered = Arc::clone(&entered);
            let drops = Arc::clone(&drops);
            thread::spawn(move || {
                let h = domain.register_reader();
                let g = h.read_lock();
                let count = list.iter(&g).count();
                assert_eq!(count, 1);
                entered.store(true, Ordering::SeqCst);
                thread::sleep(std::time::Duration::from_millis(80));
                // Still inside the section: the node must be alive.
                assert_eq!(drops.load(Ordering::SeqCst), 0);
            })
        };
        while !entered.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        assert!(list.remove_first(|_| true));
        // remove_first returned → grace period passed → node freed, and
        // the reader must have exited first.
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        reader.join().unwrap();
    }

    #[test]
    fn concurrent_stress_readers_never_see_torn_state() {
        for strategy in [WaitStrategy::ClassicSpin, WaitStrategy::Boosted] {
            let domain = Arc::new(RcuDomain::new(strategy));
            let list = Arc::new(RcuList::new(Arc::clone(&domain)));
            let stop = Arc::new(AtomicBool::new(false));
            // Seed with even numbers; writers add/remove odd numbers, so
            // readers must always see all evens present.
            for v in [0u64, 2, 4, 6] {
                list.push_front(v);
            }
            let mut readers = Vec::new();
            for _ in 0..3 {
                let domain = Arc::clone(&domain);
                let list = Arc::clone(&list);
                let stop = Arc::clone(&stop);
                readers.push(thread::spawn(move || {
                    let h = domain.register_reader();
                    while !stop.load(Ordering::SeqCst) {
                        let g = h.read_lock();
                        let evens = list.iter(&g).filter(|&&v| v % 2 == 0).count();
                        assert_eq!(evens, 4, "lost an even element");
                    }
                }));
            }
            for i in 0..50u64 {
                let odd = i * 2 + 1;
                list.push_front(odd);
                assert!(list.remove_first(|&v| v == odd));
            }
            stop.store(true, Ordering::SeqCst);
            for r in readers {
                r.join().unwrap();
            }
            assert_eq!(list.len(), 4);
        }
    }

    #[test]
    fn drop_frees_everything() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let domain = Arc::new(RcuDomain::new(WaitStrategy::ClassicSpin));
            let list = RcuList::new(domain);
            for _ in 0..5 {
                list.push_front(Counted(Arc::clone(&drops)));
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }
}
