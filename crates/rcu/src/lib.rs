//! # bb-rcu — a real user-space RCU with the paper's two waiter modes
//!
//! The BB paper's *RCU Booster* (Core Engine, §3.1) replaces the ticket
//! spinlock serializing `synchronize_rcu()` callers with a blocking mutex
//! so boot-time waiters sleep instead of burning CPU (Algorithms 1 & 2).
//! The trade-off (§4.3): with 0–1 contending writers the classic spin is
//! cheaper; with many, the boosted path wins by releasing cores.
//!
//! This crate reproduces both algorithms *for real* — actual threads,
//! actual atomics — so the crossover can be measured on the host rather
//! than merely simulated:
//!
//! * [`TicketLock`] — the kernel's FIFO ticket spinlock (Linux ≥ 2.6.25).
//! * [`RcuDomain`] — epoch-based grace-period detection with a runtime
//!   switch between [`WaitStrategy::ClassicSpin`] and
//!   [`WaitStrategy::Boosted`] (the RCU Booster Control knob).
//! * [`RcuCell`] — an RCU-protected value: lock-free readers, writers
//!   that reclaim old versions after a grace period.
//! * [`DeferQueue`] — `call_rcu`-style batched deferred reclamation:
//!   many callbacks amortized behind one grace period.
//! * [`RcuList`] — a kernel-style `list_rcu`: lock-free read-side
//!   traversal, mutex-serialized writers, grace-period reclamation.
//!
//! The whole-boot effect of the waiter choice is modelled in `bb-sim`'s
//! RCU engine; the Criterion bench `rcu_contention` in `bb-bench` drives
//! this crate to reproduce the §4.3 contention crossover.

pub mod callback;
pub mod cell;
pub mod domain;
pub mod list;
pub mod ticket;

pub use callback::DeferQueue;
pub use cell::RcuCell;
pub use domain::{DomainStats, RcuDomain, ReadGuard, ReaderHandle, WaitStrategy, MAX_READERS};
pub use list::RcuList;
pub use ticket::{TicketGuard, TicketLock};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, ignoring poisoning: every mutex in this crate guards
/// either nothing (a writer-serialization token) or a `Vec` that is
/// only ever pushed to or swapped out whole, so a panicking holder
/// cannot leave it half-updated.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
