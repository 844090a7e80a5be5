//! Instrument-latency emulation: probes that cost *real* wall-clock time.
//!
//! [`crate::MeasurementSession`] accounts dwell virtually (a counter, not
//! a sleep), which is right for scoring Table 1 but hides the property
//! that makes batch-level parallelism pay off on real hardware: while one
//! instrument dwells, the host CPU is idle and can drive other devices.
//! [`ThrottledSource`] makes that latency physical by sleeping a
//! configurable dwell before each underlying probe, so throughput
//! harnesses (the `batch_throughput` bench) measure genuine overlap
//! rather than simulated numbers.

use crate::{CurrentSource, VoltageWindow};
use std::time::Duration;

/// Wraps a [`CurrentSource`], sleeping `dwell` before every probe that
/// reaches the underlying source.
///
/// Combined with a caching [`crate::MeasurementSession`], only *new*
/// pixels pay the sleep — exactly the probes that would cost dwell on the
/// real instrument. The readings themselves are untouched, so extraction
/// results stay bit-identical to an unthrottled run.
#[derive(Debug)]
pub struct ThrottledSource<S> {
    inner: S,
    dwell: Duration,
}

impl<S: CurrentSource> ThrottledSource<S> {
    /// Throttles `inner` to one probe per `dwell` of wall-clock time.
    ///
    /// The paper's instrument dwells 50 ms per pixel; benches typically
    /// scale that down (e.g. 50 µs = 1/1000×) to keep suite runs short
    /// while preserving the latency-bound character of the workload.
    pub fn new(inner: S, dwell: Duration) -> Self {
        Self { inner, dwell }
    }
}

impl<S: CurrentSource> CurrentSource for ThrottledSource<S> {
    fn current(&mut self, v1: f64, v2: f64) -> f64 {
        if !self.dwell.is_zero() {
            std::thread::sleep(self.dwell);
        }
        self.inner.current(v1, v2)
    }

    fn window(&self) -> VoltageWindow {
        self.inner.window()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnSource, MeasurementSession};
    use std::time::Instant;

    fn window() -> VoltageWindow {
        VoltageWindow {
            x_min: 0.0,
            y_min: 0.0,
            x_max: 9.0,
            y_max: 9.0,
            delta: 1.0,
        }
    }

    #[test]
    fn readings_pass_through_unchanged() {
        let mut s =
            ThrottledSource::new(FnSource::new(|a, b| 10.0 * a + b, window()), Duration::ZERO);
        assert_eq!(s.current(1.0, 2.0), 12.0);
        assert_eq!(s.window(), window());
    }

    #[test]
    fn probes_cost_real_time() {
        let dwell = Duration::from_millis(2);
        let mut s = ThrottledSource::new(FnSource::new(|_, _| 0.0, window()), dwell);
        let t = Instant::now();
        for i in 0..5 {
            let _ = s.current(i as f64, 0.0);
        }
        assert!(
            t.elapsed() >= dwell * 5,
            "5 probes must dwell at least {:?}, took {:?}",
            dwell * 5,
            t.elapsed()
        );
    }

    #[test]
    fn cached_reprobes_skip_the_dwell() {
        let dwell = Duration::from_millis(5);
        let src = ThrottledSource::new(FnSource::new(|a, b| a + b, window()), dwell);
        let mut session = MeasurementSession::new(src);
        let _ = session.get_current(1.0, 1.0);
        let t = Instant::now();
        for _ in 0..20 {
            let _ = session.get_current(1.0, 1.0);
        }
        assert!(
            t.elapsed() < dwell,
            "cached re-probes must not sleep, took {:?}",
            t.elapsed()
        );
        assert_eq!(session.probe_count(), 1);
    }
}
