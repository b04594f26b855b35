//! The end-to-end benchmark of miniGiraffe-rs as a library: the workloads
//! and their seeded generator ([`workload`]), the timed batch passes and
//! the traced per-layer replay ([`batch`]), and the serve load generator
//! ([`serve`]). The crate root holds the arithmetic they share, kept
//! apart so it can be unit-tested: order statistics and the percentile
//! rule, the seeded open-loop arrival schedule, the layer ledger, the
//! counting allocator, and the digest used for GAF and provenance
//! fingerprints.

pub mod batch;
pub mod serve;
pub mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bumped whenever the generator's output for a given seed changes (spec,
/// indel injection, FASTQ layout, job slicing), so a redefinition of the
/// inputs shows up as a fingerprint change rather than as a speed change.
pub const GENERATOR_VERSION: u32 = 1;

/// Reads per serve job (and per in-process batch job).
pub const JOB_READS: usize = 256;

/// Set-ups per run (bundle opens, or server starts); `setup_s` is their
/// median.
pub const SETUPS: usize = 5;

/// Samples a percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// SplitMix64: a tiny, stable, seedable generator. The benchmark owns its
/// randomness so a dependency upgrade cannot silently redefine inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// FNV-1a, 64-bit: the digest of GAF text and of provenance strings.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Median of `values` (mean of the middle two for an even count); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `values`, together with
/// how many samples lie strictly beyond it. Failed operations enter as
/// `f64::INFINITY`, so they count as missing any latency limit.
pub fn percentile_with_tail(values: &[f64], p: f64) -> Option<(f64, usize)> {
    if values.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    Some((v[rank - 1], n - rank))
}

/// The highest whole percentile that leaves at least [`TAIL_SAMPLES`]
/// samples beyond it among `n`, or `None` when `n` is too small for any.
pub fn supported_percentile(n: usize) -> Option<u32> {
    (1..=99u32).rev().find(|&p| {
        let rank = (p as usize * n).div_ceil(100);
        rank >= 1 && n - rank >= TAIL_SAMPLES
    })
}

/// Percentile `p` of `values` if the sample supports it under the
/// [`TAIL_SAMPLES`] rule, else `None`.
pub fn tail_percentile(values: &[f64], p: u32) -> Option<f64> {
    let supported = supported_percentile(values.len())?;
    if p > supported {
        return None;
    }
    percentile_with_tail(values, p as f64).map(|(v, _)| v)
}

/// One scheduled job of the open-loop load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the job is due to be sent, from the start of the load.
    pub due: Duration,
    /// Which read slice the job carries.
    pub slice: usize,
}

/// The seeded open-loop schedule: `jobs` Poisson arrivals over `window`,
/// each carrying a uniformly chosen slice of `slices`.
///
/// Conditioned on its count, a Poisson process's arrival times are sorted
/// independent uniforms over the window, so fixing the count keeps the
/// offered load exact (`jobs / window`) while the gaps stay exponential.
pub fn open_loop_schedule(seed: u64, jobs: usize, window: Duration, slices: usize) -> Vec<Arrival> {
    assert!(slices > 0, "a schedule needs at least one slice");
    let mut rng = SplitMix64::new(seed, 0x5e4e);
    let mut times: Vec<f64> = (0..jobs).map(|_| rng.next_f64()).collect();
    times.sort_by(f64::total_cmp);
    times
        .into_iter()
        .map(|t| Arrival {
            due: window.mul_f64(t),
            slice: rng.below(slices as u64) as usize,
        })
        .collect()
}

/// How late a job was sent: the time from its due instant to its send,
/// zero when it went out early.
pub fn lateness(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

/// Open-loop latency of a job: from its due instant — not its actual send
/// — to its completion, so a stalled generator or server charges the wait
/// it imposes on later jobs.
pub fn open_loop_latency(due: Duration, done: Duration) -> Duration {
    done.saturating_sub(due)
}

/// The per-layer ledger of one pass: traced self-times per layer plus an
/// explicit unattributed residual, summing exactly to the pass thread-time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    /// `(layer, self-time in ns)` in pipeline order.
    pub rows: Vec<(&'static str, u64)>,
    /// Thread-time of the untraced pass (wall × threads), in ns.
    pub thread_ns: u64,
}

impl Ledger {
    /// Sum of the attributed layer rows.
    pub fn attributed_ns(&self) -> u64 {
        self.rows.iter().map(|&(_, ns)| ns).sum()
    }

    /// The residual: thread-time no traced layer covers (dispatch, idle,
    /// merge). Negative when tracing inflated the layers past the pass.
    pub fn unattributed_ns(&self) -> i64 {
        self.thread_ns as i64 - self.attributed_ns() as i64
    }

    /// The residual as a share of the pass thread-time.
    pub fn unattributed_frac(&self) -> f64 {
        if self.thread_ns == 0 {
            return 0.0;
        }
        self.unattributed_ns() as f64 / self.thread_ns as f64
    }
}

/// Counts heap allocations (allocs + reallocs) for `alloc.allocs_per_read`.
/// Install it with `#[global_allocator]` in the binary that measures.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data, so
// `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations counted so far by [`CountingAlloc`].
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A metric as the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(1000), Some(99));
        assert_eq!(supported_percentile(999), Some(98));
        assert_eq!(supported_percentile(200), Some(95));
        assert_eq!(supported_percentile(20), Some(50));
        assert_eq!(supported_percentile(10), None);
        for n in [11, 57, 200, 999, 1000, 1280, 5000] {
            let p = supported_percentile(n).unwrap();
            let values: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let (_, beyond) = percentile_with_tail(&values, p as f64).unwrap();
            assert!(beyond >= TAIL_SAMPLES, "n={n} p={p} beyond={beyond}");
            if p < 99 {
                let (_, beyond_next) = percentile_with_tail(&values, (p + 1) as f64).unwrap();
                assert!(
                    beyond_next < TAIL_SAMPLES,
                    "n={n}: p{} is also supported",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn p99_of_a_thousand_is_the_990th_value() {
        let values: Vec<f64> = (1..=1000).rev().map(|x| x as f64).collect();
        assert_eq!(tail_percentile(&values, 99), Some(990.0));
        assert_eq!(tail_percentile(&values[..999], 99), None);
        assert_eq!(tail_percentile(&values, 50), Some(500.0));
    }

    #[test]
    fn failed_jobs_miss_every_limit() {
        let mut values: Vec<f64> = (0..990).map(|_| 1.0).collect();
        values.extend((0..10).map(|_| f64::INFINITY));
        assert_eq!(tail_percentile(&values, 99), Some(1.0));
        values.push(f64::INFINITY);
        values.remove(0);
        assert_eq!(tail_percentile(&values, 99), Some(f64::INFINITY));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn open_loop_schedule_repeats_for_the_same_seed() {
        let window = Duration::from_secs(16);
        let a = open_loop_schedule(7, 1024, window, 23);
        let b = open_loop_schedule(7, 1024, window, 23);
        assert_eq!(a, b);
        assert_ne!(a, open_loop_schedule(8, 1024, window, 23));
        assert_eq!(a.len(), 1024);
        assert!(
            a.windows(2).all(|w| w[0].due <= w[1].due),
            "arrivals out of order"
        );
        assert!(a.iter().all(|x| x.due < window && x.slice < 23));
        // Poisson gaps: mean ≈ window / jobs, coefficient of variation ≈ 1.
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| (w[1].due - w[0].due).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(
            (mean - 16.0 / 1024.0).abs() < 0.1 * 16.0 / 1024.0,
            "mean gap {mean}"
        );
        assert!((0.85..1.15).contains(&cv), "gap CV {cv}");
    }

    #[test]
    fn lateness_and_latency_count_from_the_due_time() {
        let ms = Duration::from_millis;
        assert_eq!(lateness(ms(100), ms(103)), ms(3));
        assert_eq!(lateness(ms(100), ms(99)), ms(0));
        // A job due at 100 ms, held back by a stall until 130 ms and done
        // at 135 ms, took 35 ms, not the 5 ms since it was sent.
        assert_eq!(open_loop_latency(ms(100), ms(135)), ms(35));
    }

    #[test]
    fn ledger_sums_to_the_pass_thread_time() {
        let ledger = Ledger {
            rows: vec![
                ("parse", 120),
                ("seed", 1_500),
                ("extend", 7_000),
                ("gaf", 380),
            ],
            thread_ns: 10_000,
        };
        assert_eq!(ledger.attributed_ns(), 9_000);
        assert_eq!(ledger.unattributed_ns(), 1_000);
        assert_eq!(
            ledger.attributed_ns() as i64 + ledger.unattributed_ns(),
            ledger.thread_ns as i64
        );
        assert!((ledger.unattributed_frac() - 0.1).abs() < 1e-12);
        let over = Ledger {
            rows: vec![("extend", 11_000)],
            thread_ns: 10_000,
        };
        assert_eq!(over.unattributed_ns(), -1_000);
        assert_eq!(over.attributed_ns() as i64 + over.unattributed_ns(), 10_000);
    }

    #[test]
    fn splitmix_and_fnv_are_stable() {
        let mut r = SplitMix64::new(0, 0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut r = SplitMix64::new(3, 1);
        assert!((0..1000).all(|_| r.below(5) < 5));
    }

    #[test]
    fn json_helpers_escape_and_reject_non_finite() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(1.5), "1.5");
    }
}
