//! The ingest sample ring: a bounded, *lossy* buffer between the sample
//! producer (an ADC front end, or the testbed feeder) and the framer stage.
//!
//! Real sample sources cannot wait, so [`SampleRing::push`] never blocks:
//! when the decode side falls behind and the ring wraps, the oldest unread
//! samples are overwritten. Lost samples are not silently dropped from the
//! stream — the reader receives them as zeroed placeholders flagged
//! `unreliable`, so downstream stages keep exact sample alignment and the receiver's quarter-slot rule turns short outages into
//! symbol erasures (the PR 3 errors-and-erasures path) instead of
//! misaligning whole frames. Only when loss swamps a frame does the framer
//! drop it.

use retroturbo_dsp::C64;
use std::ops::Range;
use std::sync::{Condvar, Mutex};

/// Aggregate ring accounting, returned by [`SampleRing::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Samples accepted from the producer.
    pub pushed: u64,
    /// Samples overwritten before the reader consumed them.
    pub lost: u64,
}

#[derive(Debug)]
struct State {
    /// Sample storage, indexed by absolute position modulo capacity.
    buf: Vec<C64>,
    /// Producer-supplied per-sample unreliability, same indexing.
    unreliable: Vec<bool>,
    /// Absolute position of the next write.
    write: u64,
    /// Absolute position of the next *surviving* unread sample.
    read: u64,
    /// Overwritten-before-read samples awaiting delivery as placeholders.
    /// Loss always eats the oldest unread positions, so the pending span
    /// sits contiguously at the front of the unread region.
    pending_lost: u64,
    /// Total samples ever overwritten before being read.
    lost: u64,
    closed: bool,
}

/// A bounded single-reader sample ring with overwrite-oldest semantics.
#[derive(Debug)]
pub struct SampleRing {
    state: Mutex<State>,
    data_ready: Condvar,
    cap: usize,
}

impl SampleRing {
    /// A ring holding `cap` samples (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "SampleRing: capacity must be at least 1");
        Self {
            state: Mutex::new(State {
                buf: vec![C64::new(0.0, 0.0); cap],
                unreliable: vec![false; cap],
                write: 0,
                read: 0,
                pending_lost: 0,
                lost: 0,
                closed: false,
            }),
            data_ready: Condvar::new(),
            cap,
        }
    }

    /// The configured capacity in samples.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Append samples; never blocks. `unreliable` (same length when given)
    /// carries front-end confidence flags alongside the samples. If the
    /// reader is more than a full ring behind, the overrun samples become
    /// pending loss placeholders. Returns how many samples this push
    /// overwrote.
    pub fn push(&self, samples: &[C64], unreliable: Option<&[bool]>) -> u64 {
        if let Some(m) = unreliable {
            assert_eq!(m.len(), samples.len(), "push: mask length mismatch");
        }
        let mut g = self.state.lock().unwrap();
        assert!(!g.closed, "push after close");
        // Only the last `cap` samples can survive this push; the earlier
        // ones would be overwritten within it, so they are never written.
        let skip = samples.len().saturating_sub(self.cap);
        let at = ((g.write + skip as u64) % self.cap as u64) as usize;
        let st = &mut *g;
        for (slots, src) in segments(self.cap, at, samples.len() - skip) {
            let src = skip + src.start..skip + src.end;
            st.buf[slots.clone()].copy_from_slice(&samples[src.clone()]);
            match unreliable {
                Some(m) => st.unreliable[slots].copy_from_slice(&m[src]),
                None => st.unreliable[slots].fill(false),
            }
        }
        g.write += samples.len() as u64;
        let floor = g.write.saturating_sub(self.cap as u64);
        let newly_lost = floor.saturating_sub(g.read);
        if newly_lost > 0 {
            g.read = floor;
            g.pending_lost += newly_lost;
            g.lost += newly_lost;
        }
        drop(g);
        self.data_ready.notify_one();
        newly_lost
    }

    /// Block until samples are available (or the ring is closed), then
    /// drain everything unread. Consumed samples are appended to `out` /
    /// `unreliable`; positions the producer overwrote before this pull are
    /// appended first as zeros flagged `unreliable`, so the reader's
    /// absolute sample indexing never skews. Returns the number of samples
    /// appended — 0 only when closed and fully drained.
    pub fn pull(&self, out: &mut Vec<C64>, unreliable: &mut Vec<bool>) -> usize {
        let mut g = self.state.lock().unwrap();
        loop {
            let lost = g.pending_lost as usize;
            let live = (g.write - g.read) as usize;
            if lost + live > 0 {
                out.resize(out.len() + lost, C64::new(0.0, 0.0));
                unreliable.resize(unreliable.len() + lost, true);
                g.pending_lost = 0;
                let at = (g.read % self.cap as u64) as usize;
                for (slots, _) in segments(self.cap, at, live) {
                    out.extend_from_slice(&g.buf[slots.clone()]);
                    unreliable.extend_from_slice(&g.unreliable[slots]);
                }
                g.read = g.write;
                return lost + live;
            }
            if g.closed {
                return 0;
            }
            g = self.data_ready.wait(g).unwrap();
        }
    }

    /// Signal end of input: a draining reader sees remaining samples, then
    /// exhaustion.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.data_ready.notify_all();
    }

    /// Aggregate push/loss counters.
    pub fn stats(&self) -> RingStats {
        let g = self.state.lock().unwrap();
        RingStats {
            pushed: g.write,
            lost: g.lost,
        }
    }
}

/// The at most two contiguous pieces of an `n`-slot run (`n ≤ cap`)
/// starting at slot `at` of a `cap`-slot ring, each as `(ring slots,
/// offsets within the run)`: up to the end of the ring, then from slot 0.
fn segments(cap: usize, at: usize, n: usize) -> [(Range<usize>, Range<usize>); 2] {
    let first = n.min(cap - at);
    [(at..at + first, 0..first), (0..n - first, first..n)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z(re: f64) -> C64 {
        C64::new(re, 0.0)
    }

    #[test]
    fn lossless_round_trip_below_capacity() {
        let ring = SampleRing::new(8);
        let samples: Vec<C64> = (0..6).map(|i| z(i as f64)).collect();
        let mask = vec![false, true, false, false, true, false];
        assert_eq!(ring.push(&samples, Some(&mask)), 0);
        let (mut out, mut unrel) = (Vec::new(), Vec::new());
        assert_eq!(ring.pull(&mut out, &mut unrel), 6);
        assert_eq!(out, samples);
        assert_eq!(unrel, mask);
        assert_eq!(ring.stats(), RingStats { pushed: 6, lost: 0 });
    }

    #[test]
    fn overrun_delivers_placeholders_then_survivors() {
        let ring = SampleRing::new(4);
        let samples: Vec<C64> = (0..10).map(|i| z(i as f64)).collect();
        // 10 samples through a 4-deep ring with no reader: the oldest 6
        // die, but the reader still sees a 10-sample stream — 6 zeroed
        // placeholders, then the 4 survivors — so alignment never skews.
        assert_eq!(ring.push(&samples, None), 6);
        let (mut out, mut unrel) = (Vec::new(), Vec::new());
        assert_eq!(ring.pull(&mut out, &mut unrel), 10);
        assert!(out[..6].iter().all(|&s| s == z(0.0)));
        assert_eq!(&out[6..], &samples[6..]);
        assert!(unrel[..6].iter().all(|&b| b));
        assert!(!unrel[6..].iter().any(|&b| b));
        assert_eq!(
            ring.stats(),
            RingStats {
                pushed: 10,
                lost: 6
            }
        );
    }

    #[test]
    fn repeated_overruns_accumulate_contiguous_placeholders() {
        let ring = SampleRing::new(2);
        ring.push(&[z(0.0), z(1.0), z(2.0)], None); // loses sample 0
        ring.push(&[z(3.0)], None); // loses sample 1
        let (mut out, mut unrel) = (Vec::new(), Vec::new());
        assert_eq!(ring.pull(&mut out, &mut unrel), 4);
        assert_eq!(unrel, vec![true, true, false, false]);
        assert_eq!(out, vec![z(0.0), z(0.0), z(2.0), z(3.0)]);
        assert_eq!(ring.stats().lost, 2);
    }

    #[test]
    fn interleaved_pulls_keep_every_sample() {
        let ring = SampleRing::new(4);
        let (mut got, mut unrel) = (Vec::new(), Vec::new());
        for chunk in 0..5 {
            let samples: Vec<C64> = (0..3).map(|i| z((chunk * 3 + i) as f64)).collect();
            ring.push(&samples, None);
            ring.pull(&mut got, &mut unrel);
        }
        let want: Vec<C64> = (0..15).map(|i| z(i as f64)).collect();
        assert_eq!(got, want);
        assert_eq!(ring.stats().lost, 0);
    }

    #[test]
    fn close_then_pull_reports_exhaustion() {
        let ring = SampleRing::new(4);
        ring.push(&[z(1.0)], None);
        ring.close();
        let (mut out, mut unrel) = (Vec::new(), Vec::new());
        assert_eq!(ring.pull(&mut out, &mut unrel), 1);
        assert_eq!(ring.pull(&mut out, &mut unrel), 0);
    }

    /// The per-sample ring the segment copies replaced: every slot written
    /// and read one at a time through `% cap`.
    struct ModelRing {
        buf: Vec<C64>,
        unreliable: Vec<bool>,
        write: u64,
        read: u64,
        pending_lost: u64,
        lost: u64,
    }

    impl ModelRing {
        fn new(cap: usize) -> Self {
            Self {
                buf: vec![z(0.0); cap],
                unreliable: vec![false; cap],
                write: 0,
                read: 0,
                pending_lost: 0,
                lost: 0,
            }
        }

        fn push(&mut self, samples: &[C64], unreliable: Option<&[bool]>) -> u64 {
            let cap = self.buf.len() as u64;
            for (i, &s) in samples.iter().enumerate() {
                let at = (self.write % cap) as usize;
                self.buf[at] = s;
                self.unreliable[at] = unreliable.map(|m| m[i]).unwrap_or(false);
                self.write += 1;
            }
            let floor = self.write.saturating_sub(cap);
            let newly_lost = floor.saturating_sub(self.read);
            if newly_lost > 0 {
                self.read = floor;
                self.pending_lost += newly_lost;
                self.lost += newly_lost;
            }
            newly_lost
        }

        fn pull(&mut self, out: &mut Vec<C64>, unreliable: &mut Vec<bool>) -> usize {
            let cap = self.buf.len() as u64;
            let n = self.pending_lost as usize + (self.write - self.read) as usize;
            for _ in 0..self.pending_lost {
                out.push(z(0.0));
                unreliable.push(true);
            }
            self.pending_lost = 0;
            for pos in self.read..self.write {
                let at = (pos % cap) as usize;
                out.push(self.buf[at]);
                unreliable.push(self.unreliable[at]);
            }
            self.read = self.write;
            n
        }

        fn stats(&self) -> RingStats {
            RingStats {
                pushed: self.write,
                lost: self.lost,
            }
        }
    }

    /// SplitMix64: a fixed seed gives the same operation sequence on
    /// every run.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = *state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Random push/pull sequences through the segment-copy ring and the
    /// per-sample model give identical samples, flags, counts and stats.
    /// Push lengths cover 0, 1, below, at and above capacity, and runs
    /// that cross the wrap point; pushes come with and without a mask, and
    /// pulls interleave at random.
    #[test]
    fn segment_copies_match_per_sample_model() {
        let mut rng = 0x5EED_0A11_u64;
        let mut sample = 0.0;
        for &cap in &[1usize, 2, 7, 16, 61] {
            let ring = SampleRing::new(cap);
            let mut model = ModelRing::new(cap);
            for step in 0..400 {
                let len = match next(&mut rng) % 6 {
                    0 => 0,
                    1 => 1,
                    2 => (next(&mut rng) as usize % cap).max(1),
                    3 => cap,
                    4 => cap + 1 + next(&mut rng) as usize % (2 * cap),
                    // Exactly to, or just past, the wrap point.
                    _ => cap - (model.write % cap as u64) as usize + (step % 2),
                };
                let samples: Vec<C64> = (0..len)
                    .map(|_| {
                        sample += 1.0;
                        C64::new(sample, -sample)
                    })
                    .collect();
                let mask: Option<Vec<bool>> = next(&mut rng)
                    .is_multiple_of(2)
                    .then(|| (0..len).map(|_| next(&mut rng).is_multiple_of(3)).collect());
                let ctx = format!("cap {cap} step {step} len {len}");
                assert_eq!(
                    ring.push(&samples, mask.as_deref()),
                    model.push(&samples, mask.as_deref()),
                    "{ctx}: push return"
                );
                if next(&mut rng).is_multiple_of(3) {
                    let (mut got, mut got_u) = (vec![z(-1.0)], vec![true]);
                    let (mut want, mut want_u) = (vec![z(-1.0)], vec![true]);
                    let n = model.pull(&mut want, &mut want_u);
                    // The real ring blocks on an empty pull; the model
                    // returns 0 there, so only non-empty pulls compare.
                    if n > 0 {
                        assert_eq!(ring.pull(&mut got, &mut got_u), n, "{ctx}: pull count");
                    }
                    assert_eq!(got, want, "{ctx}: samples");
                    assert_eq!(got_u, want_u, "{ctx}: flags");
                }
                assert_eq!(ring.stats(), model.stats(), "{ctx}: stats");
            }
            ring.close();
            let (mut got, mut got_u) = (Vec::new(), Vec::new());
            let (mut want, mut want_u) = (Vec::new(), Vec::new());
            assert_eq!(
                ring.pull(&mut got, &mut got_u),
                model.pull(&mut want, &mut want_u),
                "cap {cap}: final pull count"
            );
            assert_eq!((got, got_u), (want, want_u), "cap {cap}: final pull");
        }
    }
}
