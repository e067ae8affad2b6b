//! Link instrumentation with a compile-out guarantee.
//!
//! The RetroTurbo pipeline computes rich internal state — preamble
//! correlation margin, DFE residuals, Reed–Solomon correction counts,
//! per-stage latencies — and normally throws it away. This crate lets every
//! layer publish that state into one process-wide registry **without paying
//! for it when observability is off**:
//!
//! * With the `telemetry` cargo feature **off** (the default), every API
//!   call here is an empty `#[inline]` function, [`Span`] is a zero-sized
//!   type with no `Drop` logic, and [`snapshot`] always returns an empty
//!   [`Snapshot`]. No mutex, no map, no clock reads — callers can
//!   instrument hot paths unconditionally.
//! * With the feature **on**, calls record into a global registry of
//!   monotonic counters, fixed-bucket log₂ histograms, scoped span timers,
//!   and gauges, exportable as JSON or TSV.
//!
//! # Determinism rules
//!
//! Instrumented code runs inside `par_map_seeded` worker threads, so the
//! registry only keeps aggregates that are *commutative and associative
//! over the multiset of recorded values*: counter sums, value counts,
//! min/max, and per-bucket counts are identical for any thread interleaving.
//! Two aggregates are excluded from that guarantee and from
//! [`Snapshot::deterministic_fingerprint`]:
//!
//! * floating-point `sum` fields (f64 addition order can flip last-ulp bits),
//! * timer values (wall clock). Timer *counts* remain deterministic.
//!
//! Telemetry is observational: nothing in this crate feeds back into the
//! signal path, so scientific outputs are byte-identical with the feature
//! on or off (enforced by `crates/sim/tests/telemetry_inert.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// ---------------------------------------------------------------------------
// Snapshot model + exporters: compiled in both configurations so downstream
// code (bench bins, tests) can handle snapshots without cfg gates.
// ---------------------------------------------------------------------------

/// What a metric measures; fixed at the name's first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic event count ([`counter_add`]).
    Counter,
    /// Distribution of observed values ([`observe`]).
    Histogram,
    /// Distribution of set values ([`gauge_set`]). A gauge deliberately
    /// reports min/max/count rather than "last value": last-writer order is
    /// thread-schedule dependent, the extrema are not.
    Gauge,
    /// Distribution of span durations in nanoseconds ([`Span`],
    /// [`record_duration_ns`]).
    Timer,
}

impl Kind {
    /// Short lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Histogram => "histogram",
            Kind::Gauge => "gauge",
            Kind::Timer => "timer",
        }
    }
}

/// Aggregated distribution of one histogram/gauge/timer.
#[derive(Debug, Clone, PartialEq)]
pub struct StatSnap {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (order-sensitive in the last ulp; excluded
    /// from the deterministic fingerprint).
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// Sparse `(bucket index, count)` pairs over the fixed log₂ grid; see
    /// [`bucket_of`]. Only non-empty buckets appear, in index order.
    pub buckets: Vec<(u8, u64)>,
}

impl StatSnap {
    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A metric's aggregated value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Counter total.
    Counter(u64),
    /// Histogram/gauge/timer distribution.
    Stat(StatSnap),
}

/// One named metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnap {
    /// Dotted metric name, e.g. `rx.equalize` or `rs.symbols_corrected`.
    pub name: String,
    /// Metric kind (fixed at first use of the name).
    pub kind: Kind,
    /// Aggregated value.
    pub value: Value,
}

/// Point-in-time copy of the registry, sorted by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All metrics, in ascending name order (BTreeMap iteration order).
    pub metrics: Vec<MetricSnap>,
}

/// Fixed log₂ bucket index for a value: bucket 0 holds non-positive (and
/// NaN) values; bucket `i` in `1..=63` holds `[2^(i-32), 2^(i-31))`,
/// clamped at both ends. The grid is static so bucket counts merge
/// commutatively across threads and across runs.
pub fn bucket_of(v: f64) -> u8 {
    if v <= 0.0 || v.is_nan() {
        return 0;
    }
    let e = v.log2().floor() as i64;
    (e + 32).clamp(1, 63) as u8
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl Snapshot {
    /// Look up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricSnap> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Counter total for `name`, or 0 when absent / not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name).map(|m| &m.value) {
            Some(Value::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Stat snapshot for `name`, when present and not a counter.
    pub fn stat(&self, name: &str) -> Option<&StatSnap> {
        match self.get(name).map(|m| &m.value) {
            Some(Value::Stat(s)) => Some(s),
            _ => None,
        }
    }

    /// Serialize as a self-describing JSON document. Hand-rolled (the
    /// workspace is dependency-free); numeric f64 fields use Rust's
    /// shortest-roundtrip formatting, non-finite values become `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"enabled\": {},\n", enabled()));
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"kind\": \"{}\", ",
                json_escape(&m.name),
                m.kind.label()
            ));
            match &m.value {
                Value::Counter(v) => out.push_str(&format!("\"value\": {v}}}")),
                Value::Stat(s) => {
                    let buckets: Vec<String> = s
                        .buckets
                        .iter()
                        .map(|(b, c)| format!("[{b},{c}]"))
                        .collect();
                    out.push_str(&format!(
                        "\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"buckets\": [{}]}}",
                        s.count,
                        json_f64(s.sum),
                        json_f64(s.min),
                        json_f64(s.max),
                        json_f64(s.mean()),
                        buckets.join(",")
                    ));
                }
            }
            out.push_str(if i + 1 < self.metrics.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Serialize as a TSV table (`name kind count sum min max mean`), one
    /// metric per row; counters fill `count` with the total and leave the
    /// distribution columns blank.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("name\tkind\tcount\tsum\tmin\tmax\tmean\n");
        for m in &self.metrics {
            match &m.value {
                Value::Counter(v) => {
                    out.push_str(&format!("{}\t{}\t{v}\t\t\t\t\n", m.name, m.kind.label()));
                }
                Value::Stat(s) => {
                    out.push_str(&format!(
                        "{}\t{}\t{}\t{:.6e}\t{:.6e}\t{:.6e}\t{:.6e}\n",
                        m.name,
                        m.kind.label(),
                        s.count,
                        s.sum,
                        s.min,
                        s.max,
                        s.mean()
                    ));
                }
            }
        }
        out
    }

    /// Canonical string over the *thread-schedule-invariant* aggregates:
    /// counter totals; histogram/gauge counts, min/max bit patterns, and
    /// bucket counts; timer counts only (durations are wall clock). Two
    /// runs of the same deterministic workload must produce identical
    /// fingerprints at any thread count.
    pub fn deterministic_fingerprint(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            match &m.value {
                Value::Counter(v) => out.push_str(&format!("{} C {v}\n", m.name)),
                Value::Stat(s) if m.kind == Kind::Timer => {
                    out.push_str(&format!("{} T n={}\n", m.name, s.count));
                }
                Value::Stat(s) => {
                    let buckets: Vec<String> =
                        s.buckets.iter().map(|(b, c)| format!("{b}:{c}")).collect();
                    out.push_str(&format!(
                        "{} {} n={} min={:016x} max={:016x} [{}]\n",
                        m.name,
                        if m.kind == Kind::Gauge { "G" } else { "H" },
                        s.count,
                        s.min.to_bits(),
                        s.max.to_bits(),
                        buckets.join(",")
                    ));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Real implementation (feature "telemetry").
// ---------------------------------------------------------------------------

#[cfg(feature = "telemetry")]
mod imp {
    use super::{bucket_of, Kind, MetricSnap, Snapshot, StatSnap, Value};
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    use std::time::Instant;

    enum Slot {
        Counter(u64),
        Stat {
            kind: Kind,
            count: u64,
            sum: f64,
            min: f64,
            max: f64,
            buckets: Box<[u64; 64]>,
        },
    }

    static REGISTRY: Mutex<BTreeMap<String, Slot>> = Mutex::new(BTreeMap::new());

    fn with_registry<R>(f: impl FnOnce(&mut BTreeMap<String, Slot>) -> R) -> R {
        // Recover from poisoning: a panicking worker must not cascade into
        // unrelated tests that share the process-wide registry.
        let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut guard)
    }

    pub fn counter_add(name: &str, delta: u64) {
        with_registry(|map| {
            match map.entry(name.to_owned()).or_insert(Slot::Counter(0)) {
                Slot::Counter(v) => *v = v.wrapping_add(delta),
                // Name reused with a different kind: drop the sample rather
                // than corrupt the distribution (caught in debug builds).
                Slot::Stat { .. } => debug_assert!(false, "{name}: counter vs stat kind clash"),
            }
        });
    }

    fn stat_record(name: &str, kind: Kind, v: f64) {
        with_registry(|map| {
            match map.entry(name.to_owned()).or_insert_with(|| Slot::Stat {
                kind,
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                buckets: Box::new([0u64; 64]),
            }) {
                Slot::Stat {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                    ..
                } => {
                    *count += 1;
                    *sum += v;
                    if v < *min {
                        *min = v;
                    }
                    if v > *max {
                        *max = v;
                    }
                    buckets[bucket_of(v) as usize] += 1;
                }
                Slot::Counter(_) => debug_assert!(false, "{name}: stat vs counter kind clash"),
            }
        });
    }

    pub fn observe(name: &str, v: f64) {
        stat_record(name, Kind::Histogram, v);
    }

    pub fn gauge_set(name: &str, v: f64) {
        stat_record(name, Kind::Gauge, v);
    }

    pub fn record_duration_ns(name: &str, nanos: u64) {
        stat_record(name, Kind::Timer, nanos as f64);
    }

    /// RAII span timer: records elapsed nanoseconds on drop.
    #[must_use = "a span records when dropped; binding to _ drops immediately"]
    pub struct Span {
        name: &'static str,
        start: Instant,
    }

    pub fn span(name: &'static str) -> Span {
        Span {
            name,
            start: Instant::now(),
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            record_duration_ns(self.name, ns);
        }
    }

    pub fn reset() {
        with_registry(|map| map.clear());
    }

    pub fn snapshot() -> Snapshot {
        with_registry(|map| Snapshot {
            metrics: map
                .iter()
                .map(|(name, slot)| match slot {
                    Slot::Counter(v) => MetricSnap {
                        name: name.clone(),
                        kind: Kind::Counter,
                        value: Value::Counter(*v),
                    },
                    Slot::Stat {
                        kind,
                        count,
                        sum,
                        min,
                        max,
                        buckets,
                    } => MetricSnap {
                        name: name.clone(),
                        kind: *kind,
                        value: Value::Stat(StatSnap {
                            count: *count,
                            sum: *sum,
                            min: *min,
                            max: *max,
                            buckets: buckets
                                .iter()
                                .enumerate()
                                .filter(|(_, c)| **c > 0)
                                .map(|(b, c)| (b as u8, *c))
                                .collect(),
                        }),
                    },
                })
                .collect(),
        })
    }
}

// ---------------------------------------------------------------------------
// No-op implementation (default). Same surface, empty bodies, zero cost.
// ---------------------------------------------------------------------------

#[cfg(not(feature = "telemetry"))]
mod imp {
    use super::Snapshot;

    #[inline(always)]
    pub fn counter_add(_name: &str, _delta: u64) {}

    #[inline(always)]
    pub fn observe(_name: &str, _v: f64) {}

    #[inline(always)]
    pub fn gauge_set(_name: &str, _v: f64) {}

    #[inline(always)]
    pub fn record_duration_ns(_name: &str, _nanos: u64) {}

    /// Zero-sized stand-in for the RAII span timer: no clock read, no
    /// `Drop` impl, optimizes to nothing.
    #[must_use = "a span records when dropped; binding to _ drops immediately"]
    pub struct Span;

    #[inline(always)]
    pub fn span(_name: &'static str) -> Span {
        Span
    }

    #[inline(always)]
    pub fn reset() {}

    #[inline(always)]
    pub fn snapshot() -> Snapshot {
        Snapshot::default()
    }
}

pub use imp::Span;

/// True when the crate was built with the `telemetry` feature, i.e. the
/// registry is live. `const`-foldable, so `if telemetry::enabled() { ... }`
/// guards are eliminated entirely in the default build.
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "telemetry")
}

/// Add `delta` to the monotonic counter `name` (creating it at 0).
#[inline(always)]
pub fn counter_add(name: &str, delta: u64) {
    imp::counter_add(name, delta);
}

/// Increment the monotonic counter `name` by one.
#[inline(always)]
pub fn counter_inc(name: &str) {
    imp::counter_add(name, 1);
}

/// Record `v` into the histogram `name` (count/sum/min/max + log₂ bucket).
#[inline(always)]
pub fn observe(name: &str, v: f64) {
    imp::observe(name, v);
}

/// Record a gauge sample: like [`observe`] but labeled as a level, not an
/// event distribution. Min/max/count are tracked instead of "last value"
/// (last-writer order is thread-schedule dependent; the extrema are not).
#[inline(always)]
pub fn gauge_set(name: &str, v: f64) {
    imp::gauge_set(name, v);
}

/// Record an externally measured duration (in nanoseconds) into the timer
/// `name`, as if a [`Span`] had covered it.
#[inline(always)]
pub fn record_duration_ns(name: &str, nanos: u64) {
    imp::record_duration_ns(name, nanos);
}

/// Start a scoped span timer; elapsed wall time is recorded into the timer
/// `name` when the returned [`Span`] drops. Zero-sized and clock-free when
/// the feature is off.
#[inline(always)]
pub fn span(name: &'static str) -> Span {
    imp::span(name)
}

/// Clear every metric. Benchmarks and tests call this to isolate runs; the
/// library never resets on its own.
#[inline(always)]
pub fn reset() {
    imp::reset();
}

/// Copy the registry into an owned, name-sorted [`Snapshot`]. Always empty
/// when the feature is off.
pub fn snapshot() -> Snapshot {
    imp::snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_grid_is_fixed_and_monotone() {
        assert_eq!(bucket_of(f64::NAN), 0);
        assert_eq!(bucket_of(-1.0), 0);
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(1.0), 32);
        assert_eq!(bucket_of(1.5), 32);
        assert_eq!(bucket_of(2.0), 33);
        assert_eq!(bucket_of(0.5), 31);
        assert_eq!(bucket_of(1e-300), 1);
        assert_eq!(bucket_of(1e300), 63);
        let mut prev = 0u8;
        for e in -40..40 {
            let b = bucket_of((e as f64).exp2());
            assert!(b >= prev, "bucket grid not monotone at 2^{e}");
            prev = b;
        }
    }

    #[cfg(not(feature = "telemetry"))]
    mod disabled {
        use super::super::*;

        #[test]
        fn api_is_inert_and_span_is_zero_sized() {
            assert!(!enabled());
            counter_add("x.count", 3);
            observe("x.obs", 1.25);
            gauge_set("x.gauge", 7.0);
            record_duration_ns("x.timer", 1000);
            {
                let _s = span("x.span");
            }
            let snap = snapshot();
            assert!(snap.metrics.is_empty(), "no-op build recorded metrics");
            assert_eq!(std::mem::size_of::<Span>(), 0, "Span must be a ZST");
            assert!(!std::mem::needs_drop::<Span>(), "Span must have no Drop");
            assert_eq!(snap.counter("x.count"), 0);
            assert!(snap.stat("x.obs").is_none());
        }

        #[test]
        fn exporters_work_on_empty_snapshot() {
            let snap = snapshot();
            let json = snap.to_json();
            assert!(json.contains("\"enabled\": false"), "{json}");
            assert!(snap.to_tsv().starts_with("name\tkind"));
            assert!(snap.deterministic_fingerprint().is_empty());
        }
    }

    #[cfg(feature = "telemetry")]
    mod enabled_tests {
        use super::super::*;

        /// The registry is process-global, so each test uses its own name
        /// prefix instead of `reset()` (tests run concurrently).
        #[test]
        fn counters_accumulate() {
            counter_add("t1.a", 2);
            counter_inc("t1.a");
            counter_add("t1.b", 40);
            let snap = snapshot();
            assert_eq!(snap.counter("t1.a"), 3);
            assert_eq!(snap.counter("t1.b"), 40);
            assert_eq!(snap.get("t1.a").unwrap().kind, Kind::Counter);
        }

        #[test]
        fn histogram_tracks_distribution() {
            for v in [0.5, 1.5, 1.5, 4.0] {
                observe("t2.h", v);
            }
            let snap = snapshot();
            let s = snap.stat("t2.h").unwrap();
            assert_eq!(s.count, 4);
            assert_eq!(s.min, 0.5);
            assert_eq!(s.max, 4.0);
            assert!((s.sum - 7.5).abs() < 1e-12);
            // 0.5 -> 31, 1.5 x2 -> 32, 4.0 -> 34.
            assert_eq!(s.buckets, vec![(31, 1), (32, 2), (34, 1)]);
            assert_eq!(snap.get("t2.h").unwrap().kind, Kind::Histogram);
        }

        #[test]
        fn span_records_a_timer() {
            {
                let _s = span("t3.span");
            }
            let snap = snapshot();
            let m = snap.get("t3.span").unwrap();
            assert_eq!(m.kind, Kind::Timer);
            match &m.value {
                Value::Stat(s) => assert!(s.count >= 1),
                _ => panic!("timer exported as counter"),
            }
        }

        #[test]
        fn aggregation_is_order_invariant() {
            // Record the same multiset from many threads; the fingerprint
            // must match a sequential recording of the same values.
            let vals: Vec<f64> = (1..=64).map(|i| i as f64 * 0.37).collect();
            std::thread::scope(|s| {
                for chunk in vals.chunks(8) {
                    s.spawn(move || {
                        for &v in chunk {
                            observe("t4.par", v);
                            counter_inc("t4.count");
                        }
                    });
                }
            });
            for &v in &vals {
                observe("t4.seq", v);
            }
            let snap = snapshot();
            let p = snap.stat("t4.par").unwrap();
            let q = snap.stat("t4.seq").unwrap();
            assert_eq!(snap.counter("t4.count"), 64);
            assert_eq!(p.count, q.count);
            assert_eq!(p.min.to_bits(), q.min.to_bits());
            assert_eq!(p.max.to_bits(), q.max.to_bits());
            assert_eq!(p.buckets, q.buckets);
        }

        #[test]
        fn exporters_roundtrip_names_and_kinds() {
            counter_add("t5.c", 7);
            observe("t5.h", 2.0);
            gauge_set("t5.g", -3.0);
            let snap = snapshot();
            let json = snap.to_json();
            assert!(json.contains("\"enabled\": true"));
            assert!(json.contains("\"name\": \"t5.c\", \"kind\": \"counter\", \"value\": 7"));
            assert!(json.contains("\"kind\": \"gauge\""));
            let tsv = snap.to_tsv();
            assert!(tsv.lines().any(|l| l.starts_with("t5.c\tcounter\t7")));
            let fp = snap.deterministic_fingerprint();
            assert!(fp.contains("t5.c C 7"));
            assert!(fp.contains("t5.g G n=1"));
        }
    }
}
