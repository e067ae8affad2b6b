//! Shared-photodiode superposition and capture-effect decoding.
//!
//! N tags in one reader FoV all modulate the same optical carrier, so the
//! photodiode sees the complex sum of their reflected waveforms, each
//! through its own polarisation/gain channel. Outside its frame a tag still
//! reflects at its rest state (−1 − j), exactly as the two-tag SIC
//! experiment models it — dropping the rest contribution would inject an
//! unphysical DC step into every other tag's packet.
//!
//! When two frames overlap in time, the reader applies the **capture
//! rule**: if the strongest tag out-powers the runner-up by at least the
//! capture margin, its frame is decoded normally (the weaker signal acts as
//! structured interference the DFE tolerates) and every other overlapped
//! frame is decoded through the PR 3 errors-and-erasures path with the
//! winner's span flagged unreliable. Below the margin the slot is a
//! collision: every participant degrades through erasures.
//!
//! Differential tests in `crates/sim/tests/fleet.rs` pin the superposition
//! and the capture decision bit-for-bit to literal serial references that
//! live beside them in that test.

use retroturbo_core::{Receiver, RxError, RxResult};
use retroturbo_dsp::{Signal, C64};

/// The rest-state reflection a tag contributes outside its frame.
fn rest() -> C64 {
    C64::new(-1.0, -1.0)
}

/// One tag's contribution to the shared photodiode: a clean rendered
/// waveform, the complex channel gain it arrives through (polarisation
/// rotation × magnitude), and its frame start in the composite stream.
#[derive(Debug, Clone)]
pub struct TagWave {
    /// Clean rendered frame waveform (tag-side, pre-channel).
    pub wave: Vec<C64>,
    /// Complex channel gain: `C64::from_polar(magnitude, 2·rot)`.
    pub gain: C64,
    /// Frame start, samples from the start of the composite stream.
    pub offset: usize,
}

impl TagWave {
    /// The half-open sample span `[offset, offset + len)` this tag's frame
    /// occupies in the composite stream.
    pub fn span(&self) -> (usize, usize) {
        (self.offset, self.offset + self.wave.len())
    }
}

/// Superimpose every tag's channel-scaled waveform onto one photodiode
/// stream of `total_len` samples. Tags contribute `gain · wave` inside
/// their frame span and `gain · rest` outside it, accumulated in tag order.
///
/// Bit-identity contract: each element sees the same floating-point
/// addition sequence (zero, then each tag's term in index order) as a
/// literal samples-outer, tags-inner scan, so the two are bit-identical
/// despite the different loop nesting.
pub fn superpose(tags: &[TagWave], total_len: usize) -> Vec<C64> {
    let mut out = vec![C64::new(0.0, 0.0); total_len];
    for t in tags {
        let (lo, hi) = t.span();
        let hi = hi.min(total_len);
        let rest_term = t.gain * rest();
        for (i, o) in out.iter_mut().enumerate() {
            if i >= lo && i < hi {
                *o += t.gain * t.wave[i - lo];
            } else {
                *o += rest_term;
            }
        }
    }
    out
}

/// Outcome of the capture decision over one set of colliding tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureDecision {
    /// The tag at this index out-powers every other participant by at least
    /// the capture margin; decode it normally, erase the rest.
    Winner(usize),
    /// No tag dominates: every participant degrades through erasures.
    Collision,
}

/// The reader's capture rule: the strongest tag wins a collided slot iff it
/// out-powers the runner-up by at least `margin_db`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureRule {
    /// Minimum power advantage (dB) for capture.
    pub margin_db: f64,
}

impl CaptureRule {
    /// The default rule: 6 dB, the classic capture threshold for
    /// interference-limited receivers.
    pub fn default_margin() -> Self {
        Self { margin_db: 6.0 }
    }

    /// Decide capture over per-tag received powers (dB). Single pass:
    /// tracks the strongest (ties → lower index) and the runner-up, then
    /// compares their gap against the margin. An empty slice is a
    /// (degenerate) collision; a single tag always captures.
    pub fn decide(&self, powers_db: &[f64]) -> CaptureDecision {
        let mut best: Option<usize> = None;
        let mut second = f64::NEG_INFINITY;
        for (i, &p) in powers_db.iter().enumerate() {
            match best {
                None => best = Some(i),
                Some(b) => {
                    if p > powers_db[b] {
                        second = powers_db[b];
                        best = Some(i);
                    } else if p > second {
                        second = p;
                    }
                }
            }
        }
        match best {
            None => CaptureDecision::Collision,
            Some(b) if powers_db[b] - second >= self.margin_db => CaptureDecision::Winner(b),
            Some(_) => CaptureDecision::Collision,
        }
    }
}

/// A per-sample unreliability mask of `total_len` samples with the given
/// half-open `[start, end)` spans flagged `true` — the interference mask a
/// loser's quality decode consumes.
pub fn interference_mask(total_len: usize, spans: &[(usize, usize)]) -> Vec<bool> {
    let mut mask = vec![false; total_len];
    for &(lo, hi) in spans {
        for m in mask.iter_mut().take(hi.min(total_len)).skip(lo) {
            *m = true;
        }
    }
    mask
}

/// One tag's decode outcome from a collided stream.
#[derive(Debug, Clone)]
pub struct TagDecode {
    /// The demodulated frame, or the PHY error that killed it.
    pub result: Result<RxResult, RxError>,
    /// Per-bit unreliability mask aligned with `result`'s bits (erasure
    /// symbols expanded to bit granularity), ready for
    /// `recover_with_quality`. Empty when the decode failed.
    pub bit_mask: Vec<bool>,
}

/// Capture-effect decoding of a collided photodiode stream: every tag is
/// decoded at its known offset through `receive_at`. The winner (if any) is
/// decoded plainly; every other tag has all *other* tags' frame spans
/// flagged unreliable, so overlapped symbols surface as erasures for the
/// errors-and-erasures MAC recovery. Returns the capture decision and one
/// [`TagDecode`] per tag, in tag order.
pub fn capture_decode(
    rx: &Receiver,
    sig: &Signal,
    tags: &[TagWave],
    n_bits: &[usize],
    powers_db: &[f64],
    rule: CaptureRule,
) -> (CaptureDecision, Vec<TagDecode>) {
    assert_eq!(tags.len(), n_bits.len(), "capture_decode: n_bits length");
    assert_eq!(tags.len(), powers_db.len(), "capture_decode: powers length");
    let decision = rule.decide(powers_db);
    let bps = rx.config().bits_per_symbol();
    let decodes = tags
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mask = if decision == CaptureDecision::Winner(i) {
                Vec::new()
            } else {
                let spans: Vec<(usize, usize)> = tags
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, o)| o.span())
                    .collect();
                interference_mask(sig.len(), &spans)
            };
            let result = rx.receive_at(sig, t.offset, n_bits[i], &mask);
            let bit_mask = match &result {
                Ok(r) => r.bit_erasures(bps),
                Err(_) => Vec::new(),
            };
            TagDecode { result, bit_mask }
        })
        .collect();
    (decision, decodes)
}
