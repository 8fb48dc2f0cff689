//! The span recorder: a bounded lock-free ring of per-stage spans plus
//! the thread-local task scope that gives hooks deep in the executors a
//! job/chunk identity without any API plumbing.
//!
//! # Ring design
//!
//! Every slot is five `AtomicU64`s guarded by a per-slot sequence number
//! (a seqlock): a writer takes a global ticket with one `fetch_add`,
//! marks its slot odd, stores the fields, and marks it even again.
//! Readers copy the fields and keep the copy only when the sequence was
//! the expected even value before *and* after — a torn read (writer
//! wrapped the ring mid-copy) is simply skipped. Writers never wait,
//! never allocate, and never lock; when the ring wraps, the oldest spans
//! are overwritten and counted as dropped.

use crate::{Stage, NO_JOB};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One recorded stage interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Pipeline stage this interval belongs to.
    pub stage: Stage,
    /// Job id ([`NO_JOB`] when the hook fired outside any job context).
    pub job: u64,
    /// Chunk index within the job, when the stage ran inside a chunk.
    pub chunk: Option<u32>,
    /// Small per-thread ordinal (not an OS thread id) — the trace lane.
    pub tid: u32,
    /// Start, in microseconds since the telemetry epoch.
    pub start_micros: u64,
    /// Duration in nanoseconds.
    pub dur_nanos: u64,
}

struct Slot {
    seq: AtomicU64,
    job: AtomicU64,
    start_micros: AtomicU64,
    dur_nanos: AtomicU64,
    /// Packed `stage | chunk << 8 | tid << 40 | has_chunk << 56`.
    meta: AtomicU64,
}

fn pack_meta(stage: Stage, chunk: Option<u32>, tid: u32) -> u64 {
    stage as u64
        | (u64::from(chunk.unwrap_or(0)) << 8)
        | (u64::from(tid & 0xFFFF) << 40)
        | (u64::from(chunk.is_some()) << 56)
}

fn unpack_meta(meta: u64) -> (Option<Stage>, Option<u32>, u32) {
    let chunk = ((meta >> 56) & 1 == 1).then_some((meta >> 8) as u32);
    (
        Stage::from_index((meta & 0xFF) as u8),
        chunk,
        ((meta >> 40) & 0xFFFF) as u32,
    )
}

pub(crate) struct SpanRing {
    slots: Box<[Slot]>,
    /// Next write ticket (monotonic; slot = ticket mod capacity).
    head: AtomicU64,
    /// Tickets below this are invisible to readers (moved up by reset).
    floor: AtomicU64,
}

impl SpanRing {
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    job: AtomicU64::new(0),
                    start_micros: AtomicU64::new(0),
                    dur_nanos: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            floor: AtomicU64::new(0),
        }
    }

    pub(crate) fn push(
        &self,
        stage: Stage,
        job: u64,
        chunk: Option<u32>,
        start_micros: u64,
        dur_nanos: u64,
    ) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Odd = write in progress: readers that observe it skip the slot.
        slot.seq.store(2 * ticket + 1, Ordering::Release);
        slot.job.store(job, Ordering::Relaxed);
        slot.start_micros.store(start_micros, Ordering::Relaxed);
        slot.dur_nanos.store(dur_nanos, Ordering::Relaxed);
        slot.meta
            .store(pack_meta(stage, chunk, thread_ordinal()), Ordering::Relaxed);
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Copy out every readable span (ticket order, then sorted by start)
    /// plus the count overwritten since the last reset.
    pub(crate) fn collect(&self) -> (Vec<Span>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let floor = self.floor.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let lo = floor.max(head.saturating_sub(cap));
        let dropped = lo - floor;
        let mut out = Vec::with_capacity((head - lo) as usize);
        for ticket in lo..head {
            let slot = &self.slots[(ticket % cap) as usize];
            let want = 2 * ticket + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue; // mid-write, or already overwritten by a wrap
            }
            let job = slot.job.load(Ordering::Relaxed);
            let start_micros = slot.start_micros.load(Ordering::Relaxed);
            let dur_nanos = slot.dur_nanos.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != want {
                continue; // torn by a concurrent wrap: discard the copy
            }
            let (stage, chunk, tid) = unpack_meta(meta);
            let Some(stage) = stage else { continue };
            out.push(Span {
                stage,
                job,
                chunk,
                tid,
                start_micros,
                dur_nanos,
            });
        }
        out.sort_by_key(|s| (s.start_micros, s.tid));
        (out, dropped)
    }

    /// Hide everything recorded so far (bench/test isolation). O(1):
    /// just moves the visibility floor; slots are reused in place.
    pub(crate) fn reset(&self) {
        self.floor
            .store(self.head.load(Ordering::Acquire), Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Thread-local task scope.

/// Sentinel chunk value meaning "no chunk" inside the packed scope.
const NO_CHUNK: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct ScopeData {
    job: u64,
    chunk: u32,
    start: Instant,
    /// Per-stage accumulated nanoseconds for aggregated stages.
    acc: [u64; Stage::COUNT],
}

thread_local! {
    static SCOPE: Cell<Option<ScopeData>> = const { Cell::new(None) };
    static THREAD_ORDINAL: Cell<u32> = const { Cell::new(0) };
}

static NEXT_ORDINAL: AtomicU32 = AtomicU32::new(1);

/// Small dense per-thread ordinal (first use assigns the next integer) —
/// stable trace lanes without leaking OS thread ids.
pub(crate) fn thread_ordinal() -> u32 {
    THREAD_ORDINAL.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// The (job, chunk) identity of the innermost active [`TaskScope`] on
/// this thread ([`NO_JOB`] outside any scope).
pub(crate) fn current_ids() -> (u64, Option<u32>) {
    SCOPE.with(|s| {
        s.get().map_or((NO_JOB, None), |d| {
            (d.job, (d.chunk != NO_CHUNK).then_some(d.chunk))
        })
    })
}

/// Fold `nanos` into the active scope's accumulator for `stage`.
/// Returns false when no scope is active on this thread (the caller
/// then falls back to histogram-only recording).
pub(crate) fn scope_accumulate(stage: Stage, nanos: u64) -> bool {
    SCOPE.with(|s| match s.get() {
        Some(mut d) => {
            d.acc[stage.index()] += nanos;
            s.set(Some(d));
            true
        }
        None => false,
    })
}

/// RAII guard binding a (job, chunk) identity to the current thread:
/// hooks in the executors and backends record against it without any
/// parameter plumbing. While the scope is live, aggregated stages
/// ([`Stage::is_aggregated`]) accumulate; on drop they are emitted as
/// one span per stage (laid out back-to-back from the scope's start so
/// a trace viewer shows the chunk's decomposition), plus a
/// [`Stage::Chunk`] envelope span when the scope names a chunk.
///
/// Scopes nest (the previous scope is restored on drop). Created inert
/// when telemetry is off — construction is then two thread-local reads.
pub struct TaskScope {
    /// `None` = inert guard (telemetry was off at construction).
    prev: Option<Option<ScopeData>>,
}

pub(crate) fn enter(job: u64, chunk: Option<u32>) -> TaskScope {
    if !crate::enabled() {
        return TaskScope { prev: None };
    }
    let data = ScopeData {
        job,
        chunk: chunk.unwrap_or(NO_CHUNK),
        start: Instant::now(),
        acc: [0; Stage::COUNT],
    };
    TaskScope {
        prev: Some(SCOPE.with(|s| s.replace(Some(data)))),
    }
}

impl Drop for TaskScope {
    fn drop(&mut self) {
        let Some(prev) = self.prev.take() else { return };
        let data = SCOPE.with(|s| s.replace(prev));
        let Some(d) = data else { return };
        // The mode may have flipped mid-scope; emit with whatever is on
        // now (worst case a partial chunk's spans are skipped).
        if !crate::enabled() {
            return;
        }
        let g = crate::global();
        let chunk = (d.chunk != NO_CHUNK).then_some(d.chunk);
        // Aggregated stages laid out sequentially from the scope start:
        // the offsets are synthetic (individual calls interleave in
        // reality) but the widths are exact, which is what makes the
        // chunk envelope decompose visually.
        let mut cursor = d.start;
        for stage in Stage::ALL {
            if !stage.is_aggregated() {
                continue;
            }
            let nanos = d.acc[stage.index()];
            if nanos == 0 {
                continue;
            }
            g.push_span(stage, d.job, chunk, cursor, nanos);
            cursor += Duration::from_nanos(nanos);
        }
        if chunk.is_some() {
            let total = duration_nanos(d.start.elapsed());
            g.hist(Stage::Chunk).record(total);
            g.push_span(Stage::Chunk, d.job, chunk, d.start, total);
        }
    }
}

/// Saturating `Duration` → whole nanoseconds.
pub(crate) fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_pack_roundtrip() {
        for (stage, chunk, tid) in [
            (Stage::Prep, Some(0u32), 1u32),
            (Stage::Sample, Some(123_456), 7),
            (Stage::QueueWait, None, 65_535),
            (Stage::Chunk, Some(0xFFFF_FFFE), 3),
        ] {
            let (s, c, t) = unpack_meta(pack_meta(stage, chunk, tid));
            assert_eq!(s, Some(stage));
            assert_eq!(c, chunk);
            assert_eq!(t, tid & 0xFFFF);
        }
    }

    #[test]
    fn ring_records_and_wraps() {
        let ring = SpanRing::new(4);
        for i in 0..3u64 {
            ring.push(Stage::Sample, i, None, i * 10, 5);
        }
        let (spans, dropped) = ring.collect();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].job, 0);
        assert_eq!(spans[2].start_micros, 20);
        // Overflow the ring: the oldest spans are dropped, newest kept.
        for i in 3..10u64 {
            ring.push(Stage::Sample, i, Some(2), i * 10, 5);
        }
        let (spans, dropped) = ring.collect();
        assert_eq!(dropped, 6);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].job, 6);
        assert_eq!(spans[3].job, 9);
        assert_eq!(spans[3].chunk, Some(2));
        // Reset hides everything but keeps recording.
        ring.reset();
        let (spans, dropped) = ring.collect();
        assert!(spans.is_empty());
        assert_eq!(dropped, 0);
        ring.push(Stage::Prep, 42, None, 1, 1);
        let (spans, _) = ring.collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].job, 42);
    }

    #[test]
    fn ring_is_safe_under_concurrent_writers() {
        let ring = std::sync::Arc::new(SpanRing::new(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let ring = std::sync::Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    ring.push(Stage::Sample, t, Some(i as u32), i, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (spans, dropped) = ring.collect();
        // At most the ring capacity remains visible (a slot whose final
        // write raced a wrap may be skipped as torn — consistency over
        // completeness), and every readable slot holds a fully-written
        // record.
        assert_eq!(dropped, 4000 - 64);
        assert!(spans.len() <= 64);
        for s in &spans {
            assert!(s.job < 4);
            assert_eq!(s.dur_nanos, 1);
        }
    }
}
