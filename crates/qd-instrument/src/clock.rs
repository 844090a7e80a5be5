//! Dwell-time accounting.
//!
//! On charge-sensor devices every voltage point costs a dwell of tens of
//! milliseconds (50 ms in the paper's evaluation, citing Zajac's thesis)
//! while the heavily filtered bias lines settle. Sleeping for real would
//! make the benchmark suite take the same hours the hardware does, so the
//! clock is *virtual*: it adds up what the wall-clock time *would have
//! been*. Real pacing is a source's job: [`crate::ThrottledSource`]
//! (`throttled:<dwell>`) sleeps its dwell on every probe.

use std::time::Duration;

/// A per-probe dwell clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DwellClock {
    dwell: Duration,
    ticks: u64,
}

impl DwellClock {
    /// The paper's dwell time: 50 ms per probed point.
    pub const PAPER_DWELL: Duration = Duration::from_millis(50);

    /// Creates a virtual clock with the given per-probe dwell.
    pub fn new(dwell: Duration) -> Self {
        Self { dwell, ticks: 0 }
    }

    /// Creates a clock with the paper's 50 ms dwell.
    pub fn paper() -> Self {
        Self::new(Self::PAPER_DWELL)
    }

    /// Accounts one probe.
    pub fn tick(&mut self) {
        self.ticks += 1;
    }

    /// Number of probes accounted so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The configured per-probe dwell.
    pub fn dwell(&self) -> Duration {
        self.dwell
    }

    /// Total simulated dwell time accrued (`ticks × dwell`).
    pub fn elapsed(&self) -> Duration {
        self.dwell.saturating_mul(self.ticks as u32)
    }
}

impl Default for DwellClock {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clock_uses_50ms() {
        let c = DwellClock::paper();
        assert_eq!(c.dwell(), Duration::from_millis(50));
        assert_eq!(c.ticks(), 0);
        assert_eq!(c.elapsed(), Duration::ZERO);
    }

    #[test]
    fn ticks_accumulate_virtual_time() {
        let mut c = DwellClock::new(Duration::from_millis(10));
        for _ in 0..7 {
            c.tick();
        }
        assert_eq!(c.ticks(), 7);
        assert_eq!(c.elapsed(), Duration::from_millis(70));
    }

    #[test]
    fn virtual_mode_does_not_sleep() {
        let mut c = DwellClock::new(Duration::from_secs(60));
        let start = std::time::Instant::now();
        for _ in 0..100 {
            c.tick();
        }
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(c.elapsed(), Duration::from_secs(6000));
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(DwellClock::default(), DwellClock::paper());
    }
}
