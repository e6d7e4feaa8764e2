//! RCU domain: reader registration, grace-period detection, and the two
//! writer wait strategies.
//!
//! A [`RcuDomain`] tracks read-side critical sections with per-reader
//! epoch slots. `synchronize()` publishes a new global epoch and waits
//! until every reader that entered under an older epoch has exited —
//! i.e. one grace period.
//!
//! The *wait strategy* is selectable at run time, mirroring the paper's
//! RCU Booster Control sysfs knob:
//!
//! * [`WaitStrategy::ClassicSpin`] — Algorithm 1. Writers serialize on a
//!   [ticket spinlock](crate::ticket::TicketLock) and busy-wait for
//!   reader quiescence. The waiting CPU is unavailable to other threads.
//! * [`WaitStrategy::Boosted`] — Algorithm 2. Writers serialize on a
//!   blocking mutex; while waiting for readers they yield to the
//!   scheduler ("force all RCU readers onto task lists; do synchronized
//!   scheduling"), with SMP memory barriers and a reader-state snapshot
//!   comparison around the wait.

use core::sync::atomic::{fence, AtomicU64, AtomicU8, Ordering};

use std::sync::Mutex;

use crate::lock;
use crate::ticket::TicketLock;

/// Maximum number of concurrently registered reader threads per domain.
pub const MAX_READERS: usize = 128;

/// Slot state meaning "no read-side critical section active".
const IDLE: u64 = 0;

/// How `synchronize()` waits for a grace period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitStrategy {
    /// Algorithm 1: ticket spinlock + busy-wait (CPU burning).
    ClassicSpin,
    /// Algorithm 2: blocking mutex + scheduler yields (CPU releasing).
    Boosted,
}

impl WaitStrategy {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => WaitStrategy::ClassicSpin,
            _ => WaitStrategy::Boosted,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            WaitStrategy::ClassicSpin => 0,
            WaitStrategy::Boosted => 1,
        }
    }
}

#[derive(Debug, Default)]
#[repr(align(64))] // One cache line per slot to avoid false sharing.
struct ReaderSlot {
    /// `IDLE`, or the global epoch value observed at read-lock entry
    /// (always >= 1 because the global epoch starts at 1).
    state: AtomicU64,
    /// 1 if a `ReaderHandle` owns this slot.
    claimed: AtomicU64,
}

/// Grace-period statistics, for benchmarks and reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct DomainStats {
    /// Completed `synchronize()` calls.
    pub grace_periods: u64,
    /// Calls that used the classic spinning path.
    pub classic_waits: u64,
    /// Calls that used the boosted blocking path.
    pub boosted_waits: u64,
}

/// An RCU domain: a set of readers and a grace-period machine.
#[derive(Debug)]
pub struct RcuDomain {
    /// Monotone epoch; starts at 1 so `IDLE` (0) is never a valid epoch.
    global_epoch: AtomicU64,
    slots: Box<[ReaderSlot]>,
    strategy: AtomicU8,
    writer_ticket: TicketLock,
    writer_mutex: Mutex<()>,
    grace_periods: AtomicU64,
    classic_waits: AtomicU64,
    boosted_waits: AtomicU64,
}

impl Default for RcuDomain {
    fn default() -> Self {
        Self::new(WaitStrategy::ClassicSpin)
    }
}

impl RcuDomain {
    /// Creates a domain with the given initial wait strategy.
    pub fn new(strategy: WaitStrategy) -> Self {
        let slots = (0..MAX_READERS).map(|_| ReaderSlot::default()).collect();
        RcuDomain {
            global_epoch: AtomicU64::new(1),
            slots,
            strategy: AtomicU8::new(strategy.as_u8()),
            writer_ticket: TicketLock::new(),
            writer_mutex: Mutex::new(()),
            grace_periods: AtomicU64::new(0),
            classic_waits: AtomicU64::new(0),
            boosted_waits: AtomicU64::new(0),
        }
    }

    /// The active wait strategy for new `synchronize()` calls.
    pub fn strategy(&self) -> WaitStrategy {
        WaitStrategy::from_u8(self.strategy.load(Ordering::Acquire))
    }

    /// Switches the wait strategy (the RCU Booster Control knob).
    pub fn set_strategy(&self, strategy: WaitStrategy) {
        self.strategy.store(strategy.as_u8(), Ordering::Release);
    }

    /// Statistics so far.
    pub fn stats(&self) -> DomainStats {
        DomainStats {
            grace_periods: self.grace_periods.load(Ordering::Relaxed),
            classic_waits: self.classic_waits.load(Ordering::Relaxed),
            boosted_waits: self.boosted_waits.load(Ordering::Relaxed),
        }
    }

    /// Registers the calling thread as a reader.
    ///
    /// # Panics
    ///
    /// Panics if all [`MAX_READERS`] slots are taken.
    pub fn register_reader(&self) -> ReaderHandle<'_> {
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .claimed
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return ReaderHandle {
                    domain: self,
                    slot: i,
                };
            }
        }
        panic!("rcu domain reader slots exhausted ({MAX_READERS})");
    }

    /// Number of readers currently inside read-side critical sections.
    pub fn active_readers(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.state.load(Ordering::Relaxed) != IDLE)
            .count()
    }

    /// Waits for one grace period: every read-side critical section that
    /// was active when this call began has ended when it returns.
    pub fn synchronize(&self) {
        match self.strategy() {
            WaitStrategy::ClassicSpin => self.synchronize_classic(),
            WaitStrategy::Boosted => self.synchronize_boosted(),
        }
        self.grace_periods.fetch_add(1, Ordering::Relaxed);
    }

    /// Algorithm 1: serialize on the ticket spinlock, then busy-wait for
    /// pre-existing readers. The processor is "busy doing nothing until
    /// lock is granted, wasting CPU cycles".
    fn synchronize_classic(&self) {
        self.classic_waits.fetch_add(1, Ordering::Relaxed);
        let _writer = self.writer_ticket.lock();
        let target = self.global_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        // Busy-wait: spin until every active reader entered at or after
        // `target` (i.e. after our epoch bump) or has exited.
        while !self.readers_quiesced(target) {
            core::hint::spin_loop();
        }
    }

    /// Algorithm 2: SMP barriers, snapshot, blocking mutex acquisition,
    /// scheduler-yield waits, snapshot comparison, unlock.
    fn synchronize_boosted(&self) {
        self.boosted_waits.fetch_add(1, Ordering::Relaxed);
        // SMP memory barrier; snapshot accessed by other CPUs.
        fence(Ordering::SeqCst);
        let snapshot = self.reader_snapshot();
        // SMP memory barrier.
        fence(Ordering::SeqCst);
        // "While mutex lock not locked: try mutex lock" — a blocking
        // acquisition; contended waiters sleep instead of spinning.
        let guard = lock(&self.writer_mutex);
        let target = self.global_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        // Force all RCU readers onto task lists; do synchronized
        // scheduling: yield the CPU while pre-existing readers drain.
        while !self.readers_quiesced(target) {
            std::thread::yield_now();
        }
        // SMP memory barrier; compare snapshot (debug validation that no
        // reader from the snapshot is still in its original section).
        fence(Ordering::SeqCst);
        debug_assert!(self.snapshot_drained(&snapshot, target));
        drop(guard);
        fence(Ordering::SeqCst);
    }

    /// True when no reader slot holds an epoch older than `target`.
    fn readers_quiesced(&self, target: u64) -> bool {
        self.slots.iter().all(|s| {
            let st = s.state.load(Ordering::SeqCst);
            st == IDLE || st >= target
        })
    }

    fn reader_snapshot(&self) -> Vec<u64> {
        self.slots
            .iter()
            .map(|s| s.state.load(Ordering::SeqCst))
            .collect()
    }

    fn snapshot_drained(&self, snapshot: &[u64], target: u64) -> bool {
        self.slots.iter().zip(snapshot).all(|(s, &old)| {
            let now = s.state.load(Ordering::SeqCst);
            // A reader observed active before our epoch bump must have
            // exited or re-entered at a newer epoch.
            old == IDLE || old >= target || now == IDLE || now > old
        })
    }
}

/// A registered reader thread's handle; entry point for read locks.
#[derive(Debug)]
pub struct ReaderHandle<'d> {
    domain: &'d RcuDomain,
    slot: usize,
}

impl<'d> ReaderHandle<'d> {
    /// Enters a read-side critical section.
    ///
    /// Read-side entry is wait-free: a couple of atomic stores. The
    /// returned guard marks quiescence on drop.
    ///
    /// # Panics
    ///
    /// Panics on nested read locks from the same handle (the slot
    /// protocol is non-reentrant; take one guard at a time).
    pub fn read_lock(&self) -> ReadGuard<'_> {
        let slot = &self.domain.slots[self.slot];
        assert_eq!(
            slot.state.load(Ordering::Relaxed),
            IDLE,
            "nested rcu read lock on one handle"
        );
        let epoch = self.domain.global_epoch.load(Ordering::SeqCst);
        slot.state.store(epoch, Ordering::SeqCst);
        ReadGuard { slot }
    }

    /// The domain this handle reads under.
    pub fn domain(&self) -> &'d RcuDomain {
        self.domain
    }
}

impl Drop for ReaderHandle<'_> {
    fn drop(&mut self) {
        let slot = &self.domain.slots[self.slot];
        debug_assert_eq!(slot.state.load(Ordering::Relaxed), IDLE);
        slot.claimed.store(0, Ordering::Release);
    }
}

/// An active read-side critical section.
#[derive(Debug)]
pub struct ReadGuard<'h> {
    slot: &'h ReaderSlot,
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        self.slot.state.store(IDLE, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn synchronize_with_no_readers_returns() {
        for strat in [WaitStrategy::ClassicSpin, WaitStrategy::Boosted] {
            let d = RcuDomain::new(strat);
            d.synchronize();
            d.synchronize();
            assert_eq!(d.stats().grace_periods, 2);
        }
    }

    #[test]
    fn reader_registration_and_activity() {
        let d = RcuDomain::new(WaitStrategy::Boosted);
        let h = d.register_reader();
        assert_eq!(d.active_readers(), 0);
        {
            let _g = h.read_lock();
            assert_eq!(d.active_readers(), 1);
        }
        assert_eq!(d.active_readers(), 0);
    }

    #[test]
    #[should_panic(expected = "nested rcu read lock")]
    fn nested_read_lock_panics() {
        let d = RcuDomain::default();
        let h = d.register_reader();
        let _g1 = h.read_lock();
        let _g2 = h.read_lock();
    }

    #[test]
    fn slot_reuse_after_handle_drop() {
        let d = RcuDomain::default();
        for _ in 0..(MAX_READERS * 2) {
            let h = d.register_reader();
            let _g = h.read_lock();
        }
    }

    #[test]
    fn strategy_switch_is_visible() {
        let d = RcuDomain::new(WaitStrategy::ClassicSpin);
        assert_eq!(d.strategy(), WaitStrategy::ClassicSpin);
        d.set_strategy(WaitStrategy::Boosted);
        assert_eq!(d.strategy(), WaitStrategy::Boosted);
        d.synchronize();
        assert_eq!(d.stats().boosted_waits, 1);
        assert_eq!(d.stats().classic_waits, 0);
    }

    fn grace_period_waits_for_reader(strategy: WaitStrategy) {
        let d = Arc::new(RcuDomain::new(strategy));
        let entered = Arc::new(AtomicBool::new(false));
        let exited = Arc::new(AtomicBool::new(false));
        let gp_done = Arc::new(AtomicBool::new(false));

        let reader = {
            let d = Arc::clone(&d);
            let entered = Arc::clone(&entered);
            let exited = Arc::clone(&exited);
            thread::spawn(move || {
                let h = d.register_reader();
                let g = h.read_lock();
                entered.store(true, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(100));
                exited.store(true, Ordering::SeqCst);
                drop(g);
            })
        };
        while !entered.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        let writer = {
            let d = Arc::clone(&d);
            let gp_done = Arc::clone(&gp_done);
            thread::spawn(move || {
                d.synchronize();
                gp_done.store(true, Ordering::SeqCst);
            })
        };
        writer.join().unwrap();
        // The grace period must not have completed before the reader
        // exited its critical section.
        assert!(exited.load(Ordering::SeqCst));
        reader.join().unwrap();
    }

    #[test]
    fn classic_grace_period_waits_for_preexisting_reader() {
        grace_period_waits_for_reader(WaitStrategy::ClassicSpin);
    }

    #[test]
    fn boosted_grace_period_waits_for_preexisting_reader() {
        grace_period_waits_for_reader(WaitStrategy::Boosted);
    }

    #[test]
    fn new_readers_do_not_block_grace_period() {
        // A reader that enters *after* synchronize() begins must not be
        // waited for. We check this by having a long-lived late reader
        // while synchronize() completes promptly.
        let d = Arc::new(RcuDomain::new(WaitStrategy::Boosted));
        let d2 = Arc::clone(&d);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let late = thread::spawn(move || {
            let h = d2.register_reader();
            // Repeatedly hold short read sections until told to stop.
            while !stop2.load(Ordering::SeqCst) {
                let _g = h.read_lock();
                std::hint::black_box(());
            }
        });
        for _ in 0..50 {
            d.synchronize();
        }
        stop.store(true, Ordering::SeqCst);
        late.join().unwrap();
        assert_eq!(d.stats().grace_periods, 50);
    }

    #[test]
    fn concurrent_writers_all_complete() {
        for strategy in [WaitStrategy::ClassicSpin, WaitStrategy::Boosted] {
            let d = Arc::new(RcuDomain::new(strategy));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let d = Arc::clone(&d);
                handles.push(thread::spawn(move || {
                    for _ in 0..20 {
                        d.synchronize();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(d.stats().grace_periods, 80);
        }
    }
}
