//! A bounded multi-producer multi-consumer ring buffer.
//!
//! The trace collector sits inside the scheduler's hot event loop, so
//! recording must not block or allocate per event. This is the classic
//! Dmitry Vyukov bounded MPMC queue built on `std` atomics only: each
//! slot carries a sequence number that producers and consumers use to
//! claim it without locks. When the ring is full the event is
//! **dropped** (and counted) rather than stalling the simulation —
//! tracing must observe, not perturb.
//!
//! Construction is O(1) whatever the allocator does: slots live in fixed
//! segments allocated, zeroed, by the first push into each one (a
//! producer racing it waits for that allocation), and a segment never
//! allocated reads as all-virgin — a sequence value of `0` encodes
//! "virgin slot", so no slot is written eagerly either. Zeroed pages
//! alone were not enough: glibc serves a freed 8 MiB ring back out of
//! the heap and `memset`s it.
//!
//! This is the only module in the workspace allowed to use `unsafe`
//! (every other crate forbids it via `[workspace.lints]`); each block
//! below documents the invariant that makes it sound.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::Layout;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Slots per segment, the allocation unit (a power of two).
const SEGMENT_SLOTS: usize = 512;

struct Slot<T> {
    /// Encoded sequence number: `0` means the slot is *virgin* (never
    /// pushed to), whose logical sequence is the slot's own index;
    /// anything else stores `logical + 1`. The encoding lets a segment
    /// come from zeroed memory without walking its slots.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Decodes a raw `seq` cell into the slot's logical sequence number.
#[inline]
fn decode_seq(raw: usize, slot_index: usize) -> usize {
    if raw == 0 {
        slot_index
    } else {
        raw.wrapping_sub(1)
    }
}

/// Allocates `cap` slots on zeroed pages without touching them.
fn alloc_zeroed_slots<T>(cap: usize) -> Box<[Slot<T>]> {
    let layout = Layout::array::<Slot<T>>(cap).expect("ring slot layout");
    // Safety: `AtomicUsize` is valid when zeroed (atomic 0) and
    // `UnsafeCell<MaybeUninit<T>>` is valid for any bit pattern, so a
    // zeroed `Slot<T>` is fully initialised — with `seq == 0`, the
    // virgin encoding above. The allocation uses exactly the layout a
    // `Box<[Slot<T>]>` frees with, and `cap >= 2` keeps it non-empty.
    unsafe {
        let ptr = std::alloc::alloc_zeroed(layout).cast::<Slot<T>>();
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, cap))
    }
}

/// A run of slots, allocated by the first push into it.
type Segment<T> = OnceLock<Box<[Slot<T>]>>;

/// Bounded lock-free ring buffer with drop-on-full semantics.
pub struct RingBuffer<T> {
    /// Segment `i` holds slots `i * segment_len ..`.
    segments: Box<[Segment<T>]>,
    segment_len: usize,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
    dropped: AtomicU64,
}

// Safety: the `UnsafeCell`s make `RingBuffer` non-auto-`Send`/`Sync`,
// but a slot's cell is only ever touched by the one thread that won the
// CAS on `enqueue_pos`/`dequeue_pos` for it, and the Acquire load /
// Release store pair on `slot.seq` orders that access across threads
// (writes happen-before the reader's `assume_init_read`). Values cross
// threads only whole and by move, so `T: Send` is the sole requirement;
// `T: Sync` is not needed because no `&T` is ever shared.
unsafe impl<T: Send> Send for RingBuffer<T> {}
// Safety: see the `Send` impl above — all shared-state mutation goes
// through atomics, and the sequence protocol gives each slot a single
// owner at a time, so `&RingBuffer<T>` is safe to share across threads.
unsafe impl<T: Send> Sync for RingBuffer<T> {}

impl<T> RingBuffer<T> {
    /// Creates a ring with at least `capacity` slots (rounded up to a
    /// power of two, minimum 2).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> RingBuffer<T> {
        let cap = capacity.max(2).next_power_of_two();
        let segment_len = cap.min(SEGMENT_SLOTS);
        RingBuffer {
            segments: (0..cap / segment_len).map(|_| OnceLock::new()).collect(),
            segment_len,
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// The slot at `index`; `None` (virgin) while its segment is unallocated.
    fn slot(&self, index: usize) -> Option<&Slot<T>> {
        let segment = self.segments[index / self.segment_len].get()?;
        Some(&segment[index % self.segment_len])
    }

    /// Events discarded because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Attempts to enqueue `value`. Returns `false` (and counts a drop)
    /// when the ring is full. Never blocks.
    pub fn push(&self, value: T) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let index = pos & self.mask;
            let segment = &self.segments[index / self.segment_len];
            let slot = &segment.get_or_init(|| alloc_zeroed_slots(self.segment_len))
                [index % self.segment_len];
            let seq = decode_seq(slot.seq.load(Ordering::Acquire), index);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Safety: winning the CAS on `enqueue_pos` makes
                        // this thread the slot's unique owner until the
                        // Release store below publishes `seq = pos + 1`:
                        // other producers see `seq == pos` only for the
                        // ticket `pos`, which the CAS just consumed, and
                        // consumers wait for `seq == pos + 1`. Writing
                        // into the `MaybeUninit` needs no drop of the
                        // previous content — the sequence protocol
                        // guarantees the slot is vacant (its last value,
                        // if any, was moved out by `pop`).
                        unsafe { (*slot.value.get()).write(value) };
                        // Encoded store: logical `pos + 1`, biased by 1.
                        slot.seq.store(pos.wrapping_add(2), Ordering::Release);
                        return true;
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // Slot still holds an unconsumed value: ring is full.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues the oldest value, if any. Never blocks.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            // An unallocated segment was never pushed into: empty.
            let slot = self.slot(pos & self.mask)?;
            let seq = decode_seq(slot.seq.load(Ordering::Acquire), pos & self.mask);
            let diff = seq as isize - (pos.wrapping_add(1)) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Safety: `seq == pos + 1` (checked above via the
                        // Acquire load, which synchronises with the
                        // producer's Release store) proves a producer
                        // fully initialised this slot for ticket `pos`,
                        // and winning the CAS on `dequeue_pos` makes this
                        // thread the unique reader of that ticket — so the
                        // value is initialised, read exactly once, and
                        // moved out before the Release store below marks
                        // the slot vacant for the next lap.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        // Encoded store: logical `pos + mask + 1`, biased
                        // by 1.
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 2), Ordering::Release);
                        return Some(value);
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Drains everything currently in the ring.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(v) = self.pop() {
            out.push(v);
        }
        out
    }
}

impl<T> Drop for RingBuffer<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allocated_segments<T>(ring: &RingBuffer<T>) -> usize {
        ring.segments.iter().filter(|s| s.get().is_some()).count()
    }

    #[test]
    fn fifo_order() {
        let ring = RingBuffer::with_capacity(8);
        for i in 0..5 {
            assert!(ring.push(i));
        }
        assert_eq!(ring.drain(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let ring = RingBuffer::<u32>::with_capacity(5);
        assert_eq!(ring.capacity(), 8);
        let ring = RingBuffer::<u32>::with_capacity(0);
        assert_eq!(ring.capacity(), 2);
    }

    #[test]
    fn wraparound_reuses_slots_many_times() {
        let ring = RingBuffer::with_capacity(4);
        // Fill and drain far past the capacity so every slot's sequence
        // number wraps repeatedly.
        let mut expected = 0u64;
        for round in 0..100u64 {
            for i in 0..4 {
                assert!(ring.push(round * 4 + i), "push in round {round}");
            }
            for _ in 0..4 {
                assert_eq!(ring.pop(), Some(expected));
                expected += 1;
            }
        }
        assert_eq!(ring.pop(), None);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_instead_of_blocking() {
        let ring = RingBuffer::with_capacity(4);
        for i in 0..4 {
            assert!(ring.push(i));
        }
        assert!(!ring.push(99));
        assert!(!ring.push(100));
        assert_eq!(ring.dropped(), 2);
        // The stored prefix is intact.
        assert_eq!(ring.drain(), vec![0, 1, 2, 3]);
        // After draining, pushes succeed again.
        assert!(ring.push(7));
        assert_eq!(ring.pop(), Some(7));
    }

    #[test]
    fn interleaved_push_pop_around_the_seam() {
        let ring = RingBuffer::with_capacity(2);
        for i in 0..1000u32 {
            assert!(ring.push(i));
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn large_ring_works_without_eager_initialisation() {
        // 2^20 slots: with eager slot init this takes tens of
        // milliseconds; with lazy segments it is effectively free, and
        // the virgin-slot encoding must still give correct FIFO
        // behaviour for the few slots actually touched.
        let ring = RingBuffer::with_capacity(1 << 20);
        assert_eq!(ring.capacity(), 1 << 20);
        assert_eq!(ring.pop(), None);
        for i in 0..100u64 {
            assert!(ring.push(i));
        }
        assert_eq!(ring.drain(), (0..100).collect::<Vec<_>>());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn segments_are_allocated_by_the_first_push_into_them() {
        let ring = RingBuffer::with_capacity(4 * SEGMENT_SLOTS);
        assert_eq!(
            allocated_segments(&ring),
            0,
            "construction allocates no slots"
        );
        assert_eq!(ring.pop(), None, "popping an unallocated segment");
        assert_eq!(allocated_segments(&ring), 0);
        assert!(ring.push(0u64));
        assert_eq!(allocated_segments(&ring), 1);
        for i in 1..SEGMENT_SLOTS as u64 {
            assert!(ring.push(i));
        }
        assert_eq!(allocated_segments(&ring), 1, "one segment holds its slots");
        assert!(ring.push(SEGMENT_SLOTS as u64));
        assert_eq!(allocated_segments(&ring), 2);
        let expected: Vec<u64> = (0..=SEGMENT_SLOTS as u64).collect();
        assert_eq!(ring.drain(), expected);
    }

    #[test]
    fn dropping_a_partly_filled_ring_drops_every_value() {
        use std::sync::Arc;
        let value = Arc::new(());
        let ring = RingBuffer::with_capacity(4 * SEGMENT_SLOTS);
        for _ in 0..SEGMENT_SLOTS + 3 {
            assert!(ring.push(Arc::clone(&value)));
        }
        drop(ring);
        assert_eq!(Arc::strong_count(&value), 1);
    }

    #[test]
    fn concurrent_producers_lose_nothing_until_full() {
        use std::sync::Arc;
        let ring = Arc::new(RingBuffer::with_capacity(1024));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        assert!(ring.push(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut got = ring.drain();
        got.sort_unstable();
        let mut expected: Vec<u64> = (0..4)
            .flat_map(|t| (0..200).map(move |i| t * 1000 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }
}
