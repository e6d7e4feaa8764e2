//! A ticket spinlock, as used by the kernel since Linux 2.6.25.
//!
//! The paper's Algorithm 1 serializes `synchronize_rcu` callers on a
//! ticket spinlock: each caller takes a ticket and spins until the lock's
//! "now serving" counter reaches it. Spinning occupies the CPU for the
//! whole wait — exactly the boot-time pathology the RCU Booster removes.
//!
//! FIFO fairness (tickets are granted in order) is preserved, matching
//! the kernel implementation.

use core::sync::atomic::{AtomicU64, Ordering};

/// A FIFO spinlock: waiters take numbered tickets and busy-wait.
#[derive(Debug, Default)]
pub struct TicketLock {
    next_ticket: AtomicU64,
    now_serving: AtomicU64,
}

/// RAII guard releasing the [`TicketLock`] on drop.
#[derive(Debug)]
pub struct TicketGuard<'a> {
    lock: &'a TicketLock,
}

impl TicketLock {
    /// Creates an unlocked lock.
    pub const fn new() -> Self {
        TicketLock {
            next_ticket: AtomicU64::new(0),
            now_serving: AtomicU64::new(0),
        }
    }

    /// Acquires the lock, spinning until granted.
    ///
    /// The returned guard releases the lock when dropped. The spin loop
    /// uses [`core::hint::spin_loop`] but never yields to the scheduler —
    /// this is the deliberate "waste CPU cycles" behaviour of
    /// Algorithm 1.
    pub fn lock(&self) -> TicketGuard<'_> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        while self.now_serving.load(Ordering::Acquire) != ticket {
            core::hint::spin_loop();
        }
        TicketGuard { lock: self }
    }

    /// Attempts to acquire the lock without waiting.
    pub fn try_lock(&self) -> Option<TicketGuard<'_>> {
        let serving = self.now_serving.load(Ordering::Acquire);
        if self
            .next_ticket
            .compare_exchange(serving, serving + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(TicketGuard { lock: self })
        } else {
            None
        }
    }

    /// Number of waiters currently queued (including the holder).
    pub fn queue_depth(&self) -> u64 {
        self.next_ticket
            .load(Ordering::Relaxed)
            .saturating_sub(self.now_serving.load(Ordering::Relaxed))
    }
}

impl Drop for TicketGuard<'_> {
    fn drop(&mut self) {
        self.lock.now_serving.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_unlock_cycle() {
        let lock = TicketLock::new();
        {
            let _g = lock.lock();
            assert_eq!(lock.queue_depth(), 1);
        }
        assert_eq!(lock.queue_depth(), 0);
        let _g2 = lock.lock();
    }

    #[test]
    fn try_lock_fails_when_held() {
        let lock = TicketLock::new();
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let lock = Arc::new(TicketLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    let _g = lock.lock();
                    // Non-atomic increment protected by the lock.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8000);
    }

    #[test]
    fn fifo_ordering() {
        // A held lock plus two queued waiters: the first queued waiter
        // must acquire before the second. We verify tickets are granted
        // in order by recording acquisition order.
        let lock = Arc::new(TicketLock::new());
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let g = lock.lock();
        let mut handles = Vec::new();
        for i in 0..2 {
            let lock = Arc::clone(&lock);
            let order = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                // Stagger ticket acquisition deterministically.
                thread::sleep(std::time::Duration::from_millis(20 * (i as u64 + 1)));
                let _g = lock.lock();
                crate::lock(&order).push(i);
            }));
        }
        thread::sleep(std::time::Duration::from_millis(100));
        drop(g);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*crate::lock(&order), vec![0, 1]);
    }
}
