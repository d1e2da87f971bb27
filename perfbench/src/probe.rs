//! Measurement probes: a counting BTB wrapper and host resource usage.

use std::time::{Duration, Instant};

use confluence_btb::{BtbDesign, BtbOutcome, ResolvedBranch};
use confluence_types::{BlockAddr, PredecodedBranch, StorageProfile, VAddr};

/// One in `SAMPLE_EVERY` BTB calls is timed; the sampled time is scaled
/// back up. Timing every call would cost more than the calls themselves.
pub const SAMPLE_EVERY: u64 = 32;

/// Exact operation counts and sampled busy time of one BTB.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BtbCounts {
    /// `lookup` calls.
    pub lookups: u64,
    /// `update` calls.
    pub updates: u64,
    /// `on_l1i_fill` calls.
    pub fills: u64,
    /// `on_l1i_evict` calls.
    pub evicts: u64,
    /// Estimated time inside the design, in seconds (sampled).
    pub self_s: f64,
}

/// A forwarding [`BtbDesign`] that counts every call into the wrapped
/// design and times a fixed sample of them. Results are unchanged: every
/// call is passed through as is.
pub struct CountingBtb {
    inner: Box<dyn BtbDesign>,
    counts: BtbCounts,
    calls: u64,
    sampled: Duration,
    /// Cost of one `Instant::now()` pair, taken off each sample.
    timer_cost: Duration,
}

impl CountingBtb {
    /// Wraps `inner`; `timer_cost` is [`timer_cost`]'s estimate.
    pub fn new(inner: Box<dyn BtbDesign>, timer_cost: Duration) -> CountingBtb {
        CountingBtb {
            inner,
            counts: BtbCounts::default(),
            calls: 0,
            sampled: Duration::ZERO,
            timer_cost,
        }
    }

    /// The counts so far, with the sampled time scaled to all calls.
    pub fn counts(&self) -> BtbCounts {
        BtbCounts {
            self_s: self.sampled.as_secs_f64() * SAMPLE_EVERY as f64,
            ..self.counts
        }
    }

    #[inline]
    fn call<T>(&mut self, f: impl FnOnce(&mut dyn BtbDesign) -> T) -> T {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return f(&mut *self.inner);
        }
        let start = Instant::now();
        let out = f(&mut *self.inner);
        self.sampled += start.elapsed().saturating_sub(self.timer_cost);
        out
    }
}

impl BtbDesign for CountingBtb {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn lookup(&mut self, bb_start: VAddr, branch_pc: VAddr) -> BtbOutcome {
        self.counts.lookups += 1;
        self.call(|b| b.lookup(bb_start, branch_pc))
    }

    fn update(&mut self, resolved: &ResolvedBranch) {
        self.counts.updates += 1;
        self.call(|b| b.update(resolved))
    }

    fn on_l1i_fill(&mut self, block: BlockAddr, branches: &[PredecodedBranch]) {
        self.counts.fills += 1;
        self.call(|b| b.on_l1i_fill(block, branches))
    }

    fn on_l1i_evict(&mut self, block: BlockAddr) {
        self.counts.evicts += 1;
        self.call(|b| b.on_l1i_evict(block))
    }

    fn storage(&self) -> StorageProfile {
        self.inner.storage()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }
}

/// Median cost of an empty `Instant::now()` … `elapsed()` pair.
pub fn timer_cost() -> Duration {
    let mut v: Vec<Duration> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed()
        })
        .collect();
    v.sort();
    v[v.len() / 2]
}

/// Process-wide CPU time (user + system, all threads) and peak resident
/// set size.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User plus system CPU seconds since process start.
    pub cpu_s: f64,
    /// Peak resident set size in MiB since process start.
    pub peak_rss_mb: f64,
}

#[cfg(target_os = "linux")]
mod sys {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// Current [`Usage`] of this process.
#[cfg(target_os = "linux")]
pub fn usage() -> Usage {
    const _: () = assert!(std::mem::size_of::<sys::Rusage>() == 144);
    let mut ru = sys::Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the exact size
    // and layout the 64-bit Linux ABI defines (checked above), and
    // RUSAGE_SELF is a valid `who`; getrusage writes only into it.
    let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid args");
    let secs = |t: &sys::Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        // ru_maxrss is in KiB on Linux.
        peak_rss_mb: ru.maxrss as f64 / 1024.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_btb::ConventionalBtb;
    use confluence_types::BranchKind;

    #[test]
    fn counting_wrapper_forwards_and_counts_exactly() {
        let make = || Box::new(ConventionalBtb::baseline_1k().unwrap()) as Box<dyn BtbDesign>;
        let mut plain = make();
        let mut counted = CountingBtb::new(make(), timer_cost());
        for i in 0..200u64 {
            let bb = VAddr::new(0x1000 + i * 64);
            let pc = VAddr::new(0x1000 + i * 64 + 12);
            assert_eq!(plain.lookup(bb, pc), counted.lookup(bb, pc));
            let r = ResolvedBranch {
                bb_start: bb,
                pc,
                kind: BranchKind::Conditional,
                taken: i % 3 == 0,
                target: VAddr::new(0x9000),
            };
            plain.update(&r);
            counted.update(&r);
            counted.on_l1i_fill(bb.block(), &[]);
            counted.on_l1i_evict(bb.block());
        }
        let c = counted.counts();
        assert_eq!(
            (c.lookups, c.updates, c.fills, c.evicts),
            (200, 200, 200, 200)
        );
        assert!(c.self_s >= 0.0);
        assert_eq!(counted.name(), plain.name());
    }

    #[test]
    fn usage_reports_positive_rss() {
        let u = usage();
        assert!(u.peak_rss_mb > 0.0 && u.cpu_s >= 0.0);
    }
}
