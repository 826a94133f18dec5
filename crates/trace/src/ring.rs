//! The per-thread event ring: a bounded lock-free queue with a
//! **drop-oldest** overflow policy.
//!
//! Each instrumented thread owns one `Ring` as its producer; the
//! collector thread is the consumer. The implementation is the classic
//! Vyukov bounded queue — per-slot sequence numbers arbitrate access, so
//! a push never blocks and never tears a record. On overflow the
//! *producer* dequeues (and discards) the oldest record itself, bumps
//! the [`dropped`](Ring::dropped) counter, and retries: tracing loses
//! the oldest data under pressure, never stalls a worker, and never
//! loses data silently.
//!
//! Slots store the five encoded words of an [`crate::Event`] in plain
//! `AtomicU64`s. Between winning a slot's sequence CAS and publishing
//! the new sequence, exactly one thread touches the words, so relaxed
//! word accesses are single-owner; the sequence number's Acquire/Release
//! pair carries the payload across threads. No `unsafe` anywhere.

use crossbeam_utils::CachePadded;
use rubic_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

struct Slot {
    seq: AtomicUsize,
    words: [AtomicU64; 5],
}

/// A bounded lock-free event ring (drop-oldest on overflow).
pub(crate) struct Ring {
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
    dropped: CachePadded<AtomicU64>,
    slots: Box<[Slot]>,
}

impl Ring {
    /// Creates a ring holding `capacity` events, rounded up to a power
    /// of two (minimum 8).
    pub(crate) fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        Ring {
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            dropped: CachePadded::new(AtomicU64::new(0)),
            slots: (0..cap)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    words: Default::default(),
                })
                .collect(),
        }
    }

    /// Events discarded by the drop-oldest overflow policy so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) // ordering: monitoring read of a counter
    }

    /// Enqueues `words`, discarding the oldest buffered event first if
    /// the ring is full. Never blocks.
    // The Vyukov sequence comparison relies on wrapping signed
    // differences between free-running counters.
    #[allow(clippy::cast_possible_wrap)]
    pub(crate) fn push(&self, words: [u64; 5]) {
        let cap = self.slots.len();
        // ordering: Vyukov protocol — head/tail are mere position hints;
        // the per-slot `seq` Acquire/Release pair is the only edge that
        // carries payload words across threads. A stale position costs a
        // CAS retry, never a torn or lost record.
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & (cap - 1)];
            let seq = slot.seq.load(Ordering::Acquire);
            match (seq as isize).wrapping_sub(pos as isize).cmp(&0) {
                std::cmp::Ordering::Equal => {
                    // ordering: the CAS only claims a position; the slot
                    // payload is published by the `seq` Release below,
                    // so neither CAS arm needs to order anything.
                    match self.tail.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // ordering: between the CAS win and the seq
                            // Release this thread owns the slot's words
                            // exclusively; the Release fence publishes
                            // them to the consumer's Acquire.
                            for (w, &v) in slot.words.iter().zip(&words) {
                                w.store(v, Ordering::Relaxed);
                            }
                            slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                            return;
                        }
                        Err(now) => pos = now,
                    }
                }
                std::cmp::Ordering::Less => {
                    // Full: evict the oldest (drop-oldest policy), retry.
                    // ordering: stat counter + position-hint reload.
                    if self.pop().is_some() {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    pos = self.tail.load(Ordering::Relaxed);
                }
                std::cmp::Ordering::Greater => {
                    // ordering: position hint reload, re-validated by the
                    // slot's Acquire `seq` load on the next iteration.
                    pos = self.tail.load(Ordering::Relaxed);
                }
            }
        }
    }

    /// Dequeues the oldest buffered event, or `None` when empty.
    // Same wrapping signed-difference idiom as `push`.
    #[allow(clippy::cast_possible_wrap)]
    pub(crate) fn pop(&self) -> Option<[u64; 5]> {
        let cap = self.slots.len();
        // ordering: position hint only, same discipline as `push` — the
        // slot's `seq` Acquire load decides whether the record is ready.
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & (cap - 1)];
            let seq = slot.seq.load(Ordering::Acquire);
            match (seq as isize)
                .wrapping_sub(pos.wrapping_add(1) as isize)
                .cmp(&0)
            {
                std::cmp::Ordering::Equal => {
                    // ordering: claims the position only; the payload was
                    // already acquired via the `seq` load above.
                    match self.head.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // ordering: the `seq` Acquire above
                            // synchronised with the producer's Release,
                            // so the word loads see the full record; the
                            // Release store below hands the slot back to
                            // a future producer.
                            let mut words = [0u64; 5];
                            for (v, w) in words.iter_mut().zip(&slot.words) {
                                *v = w.load(Ordering::Relaxed);
                            }
                            slot.seq.store(pos.wrapping_add(cap), Ordering::Release);
                            return Some(words);
                        }
                        Err(now) => pos = now,
                    }
                }
                std::cmp::Ordering::Less => return None,
                std::cmp::Ordering::Greater => {
                    // ordering: position hint reload, re-validated by the
                    // next iteration's Acquire `seq` load.
                    pos = self.head.load(Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> [u64; 5] {
        [n, n + 1, n + 2, n + 3, n + 4]
    }

    #[test]
    fn fifo_order() {
        let r = Ring::new(8);
        for i in 0..5 {
            r.push(ev(i));
        }
        for i in 0..5 {
            assert_eq!(r.pop(), Some(ev(i)));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(Ring::new(0).slots.len(), 8);
        assert_eq!(Ring::new(9).slots.len(), 16);
        assert_eq!(Ring::new(64).slots.len(), 64);
    }

    #[test]
    fn wrap_around_many_laps() {
        let r = Ring::new(8);
        // Push/pop far more than the capacity so head/tail lap the ring
        // repeatedly; FIFO order and contents must survive every lap.
        for i in 0..1000u64 {
            r.push(ev(i));
            assert_eq!(r.pop(), Some(ev(i)), "lap {}", i / 8);
        }
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let r = Ring::new(8);
        for i in 0..20u64 {
            r.push(ev(i));
        }
        assert_eq!(r.dropped(), 12, "20 pushed into 8 slots");
        // The survivors are the *newest* 8, still in order.
        for i in 12..20u64 {
            assert_eq!(r.pop(), Some(ev(i)));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn concurrent_producer_consumer_loses_nothing_without_overflow() {
        use std::sync::Arc;
        let r = Arc::new(Ring::new(1 << 12));
        let n = 2000u64;
        let producer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 0..n {
                    r.push(ev(i));
                }
            })
        };
        let mut seen = Vec::new();
        while seen.len() < n as usize {
            if let Some(w) = r.pop() {
                seen.push(w[0]);
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(r.dropped(), 0);
        // SPSC with no overflow: exact sequence preserved.
        assert!(seen.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn concurrent_with_overflow_keeps_suffix_ordered() {
        use std::sync::Arc;
        // A tiny ring under a fast producer: drops are expected; the
        // consumer must still observe a strictly increasing subsequence
        // and accounting must add up (popped + dropped + left = pushed).
        let r = Arc::new(Ring::new(8));
        let n = 5000u64;
        let producer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 0..n {
                    r.push(ev(i));
                }
            })
        };
        let mut popped = Vec::new();
        while !producer.is_finished() {
            match r.pop() {
                Some(w) => popped.push(w[0]),
                None => std::hint::spin_loop(),
            }
        }
        producer.join().unwrap();
        while let Some(w) = r.pop() {
            popped.push(w[0]);
        }
        assert!(
            popped.windows(2).all(|w| w[0] < w[1]),
            "drop-oldest must preserve order of survivors"
        );
        assert_eq!(popped.len() as u64 + r.dropped(), n);
    }
}
