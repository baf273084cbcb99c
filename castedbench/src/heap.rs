//! Counting global allocator: the benchmark's memory metric.
//!
//! Resident memory under glibc depends on allocator history (arena
//! assignment, the dynamic mmap threshold): on a 2-vCPU x86-64 host,
//! identical serve runs ended their timed phase anywhere between 130
//! and 235 MiB resident. The
//! bytes the program holds live do not, so `peak_heap_mb` counts those.
//! Every allocation still goes to the system allocator. Each thread
//! batches its count in thread-local storage and adds it to the shared
//! total every 4 KiB, so most calls touch no shared cache line. The
//! cost follows the allocation rate (see `castedbench/README.md`): the
//! timed phases allocate at most ~10^6 times a second and pay well
//! under 1%.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// [`System`] plus a count of live bytes and their peak.
pub struct Counting;

/// Live bytes added to the shared count; signed because one thread's
/// frees can be added before another thread's allocations.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread adds its pending bytes to [`LIVE`] once they reach this
/// size either way; each thread's share is off by less than this.
const BATCH: isize = 4096;

thread_local! {
    /// Bytes this thread allocated (+) or freed (−) not yet in [`LIVE`].
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

// Relaxed throughout: the counters are statistics and publish no data.
fn account(delta: isize) {
    let flush = PENDING
        .try_with(|p| {
            let v = p.get() + delta;
            if v.abs() < BATCH {
                p.set(v);
                0
            } else {
                p.set(0);
                v
            }
        })
        // Thread-local storage is gone while the thread exits.
        .unwrap_or(delta);
    if flush != 0 {
        let now = LIVE.fetch_add(flush, Ordering::Relaxed) + flush;
        if now > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
    }
}

fn grew(by: usize) {
    account(by as isize);
}

fn shrank(by: usize) {
    account(-(by as isize));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// a const-initialized thread-local cell and two atomics, and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (and so
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` returned for
        // `layout` and a valid `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Highest live heap since the last call, in MiB; the next window
/// starts at the current level.
fn take_peak_mb() -> f64 {
    let peak = PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    peak.max(0) as f64 / (1u64 << 20) as f64
}

/// Run `f` and return its result with the peak live heap of each
/// second it ran (the last second may be partial). Their median is a
/// peak that one brief overlap of two large jobs does not set.
pub fn sample_peaks<T>(f: impl FnOnce() -> T) -> (T, Vec<f64>) {
    take_peak_mb();
    let (stop, stopped) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let mut peaks = Vec::new();
            loop {
                let wait = stopped.recv_timeout(Duration::from_secs(1));
                peaks.push(take_peak_mb());
                if !matches!(wait, Err(RecvTimeoutError::Timeout)) {
                    break peaks;
                }
            }
        });
        let out = f();
        drop(stop);
        (out, sampler.join().expect("heap sampler thread panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_held_allocation_shows_in_its_second() {
        let (len, peaks) = sample_peaks(|| {
            let block = vec![1u8; 64 << 20];
            std::thread::sleep(Duration::from_millis(1200));
            block.len()
        });
        assert_eq!(len, 64 << 20);
        assert_eq!(peaks.len(), 2);
        assert!(peaks[0] >= 64.0, "first second peaked at {} MiB", peaks[0]);
    }
}
