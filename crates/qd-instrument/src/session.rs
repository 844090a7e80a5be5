//! The measurement session: a source plus its one pixel table.

use crate::ledger::ProbeLedger;
use crate::{CurrentSource, VoltageWindow};
use std::time::Duration;

/// The paper's dwell per probed point: 50 ms (citing Zajac's thesis)
/// while the filtered bias lines settle. Every session's dwell is the
/// virtual `probes × PAPER_DWELL`.
pub const PAPER_DWELL: Duration = Duration::from_millis(50);

/// Object-safe view of a measurement session: probing plus the
/// accounting every extraction method reports on.
///
/// [`MeasurementSession`] implements this for every [`CurrentSource`],
/// so generic pipeline code written against `P: ProbeSession + ?Sized`
/// accepts both a concrete session and `&mut dyn ProbeSession`. The
/// trait is what makes method-agnostic driver code possible — an
/// object-safe extractor cannot name the source type parameter, so it
/// probes through this interface instead.
pub trait ProbeSession {
    /// The paper's `getCurrent(v1, v2)`: one dwell-costing probe (or a
    /// free cache hit), recorded in the ledger.
    fn get_current(&mut self, v1: f64, v2: f64) -> f64;

    /// The voltage window being probed.
    fn window(&self) -> VoltageWindow;

    /// Dwell-costing probes so far (Table 1's "points probed").
    fn probe_count(&self) -> usize;

    /// Distinct pixels probed.
    fn unique_pixels(&self) -> usize;

    /// Fraction of the window probed.
    fn coverage(&self) -> f64;

    /// Simulated dwell time accrued (`probes × dwell`).
    fn simulated_dwell(&self) -> Duration;

    /// Distinct probed pixels in first-probe order (Figure 7 scatters).
    fn scatter(&self) -> Vec<(i64, i64)>;

    /// Probes left before a configured budget trips, or `None` if
    /// uncapped.
    fn remaining_budget(&self) -> Option<usize>;
}

impl<S: CurrentSource> ProbeSession for MeasurementSession<S> {
    fn get_current(&mut self, v1: f64, v2: f64) -> f64 {
        MeasurementSession::get_current(self, v1, v2)
    }

    fn window(&self) -> VoltageWindow {
        MeasurementSession::window(self)
    }

    fn probe_count(&self) -> usize {
        MeasurementSession::probe_count(self)
    }

    fn unique_pixels(&self) -> usize {
        MeasurementSession::unique_pixels(self)
    }

    fn coverage(&self) -> f64 {
        MeasurementSession::coverage(self)
    }

    fn simulated_dwell(&self) -> Duration {
        MeasurementSession::simulated_dwell(self)
    }

    fn scatter(&self) -> Vec<(i64, i64)> {
        self.ledger.scatter()
    }

    fn remaining_budget(&self) -> Option<usize> {
        MeasurementSession::remaining_budget(self)
    }
}

/// A stateful measurement session wrapping a [`CurrentSource`].
///
/// Every *new* pixel probed costs one dwell and one ledger entry;
/// re-probing a pixel returns its first reading for free, as in the
/// paper's simulated evaluation. One window-sized pixel table answers the
/// cache lookup, the probe counts, coverage and the Figure 7 scatter. The
/// session's dwell is virtual; [`crate::ThrottledSource`] is the source
/// that paces probes in real time.
#[derive(Debug)]
pub struct MeasurementSession<S> {
    source: S,
    window: VoltageWindow,
    ledger: ProbeLedger,
    budget: Option<usize>,
}

impl<S: CurrentSource> MeasurementSession<S> {
    /// Creates a session with the paper's 50 ms dwell.
    pub fn new(source: S) -> Self {
        let window = source.window();
        Self {
            ledger: ProbeLedger::new(&window),
            source,
            window,
            budget: None,
        }
    }

    /// Caps the number of dwell-costing probes (builder style). Once the
    /// budget is exhausted, [`MeasurementSession::get_current`] panics —
    /// a runaway-algorithm tripwire for unattended tuning loops, set well
    /// above any expected consumption. Use
    /// [`MeasurementSession::remaining_budget`] to steer before that.
    #[must_use]
    pub fn with_probe_budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Probes left before the budget trips, or `None` if uncapped.
    pub fn remaining_budget(&self) -> Option<usize> {
        self.budget.map(|b| b.saturating_sub(self.probe_count()))
    }

    /// The paper's `getCurrent(v1, v2)`: quantizes to the source's pixel
    /// grid and returns the pixel's reading — from the table when it was
    /// probed before, otherwise from the source at one dwell's cost.
    ///
    /// # Panics
    ///
    /// Panics if a probe budget was set with
    /// [`MeasurementSession::with_probe_budget`] and is exhausted.
    pub fn get_current(&mut self, v1: f64, v2: f64) -> f64 {
        let pixel = self.window.quantize(v1, v2);
        if let Some(value) = self.ledger.reading(pixel) {
            return value;
        }
        if let Some(budget) = self.budget {
            assert!(
                self.probe_count() < budget,
                "probe budget of {budget} exhausted"
            );
        }
        let value = self.source.current(v1, v2);
        self.ledger.record(pixel, value);
        value
    }

    /// The voltage window being probed.
    pub fn window(&self) -> VoltageWindow {
        self.window
    }

    /// Dwell-costing probes so far (Table 1's "points probed"): one per
    /// distinct pixel.
    pub fn probe_count(&self) -> usize {
        self.ledger.len()
    }

    /// Distinct pixels probed.
    pub fn unique_pixels(&self) -> usize {
        self.ledger.len()
    }

    /// Fraction of the window probed.
    pub fn coverage(&self) -> f64 {
        self.ledger.coverage()
    }

    /// Simulated dwell time accrued (`probes ×` [`PAPER_DWELL`]).
    pub fn simulated_dwell(&self) -> Duration {
        PAPER_DWELL.saturating_mul(self.probe_count() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnSource;

    fn window() -> VoltageWindow {
        VoltageWindow {
            x_min: 0.0,
            y_min: 0.0,
            x_max: 9.0,
            y_max: 9.0,
            delta: 1.0,
        }
    }

    fn session() -> MeasurementSession<FnSource<impl FnMut(f64, f64) -> f64>> {
        MeasurementSession::new(FnSource::new(|a, b| 10.0 * a + b, window()))
    }

    #[test]
    fn probes_cost_dwell_and_are_recorded() {
        let mut s = session();
        assert_eq!(s.get_current(1.0, 2.0), 12.0);
        assert_eq!(s.probe_count(), 1);
        assert_eq!(s.simulated_dwell(), Duration::from_millis(50));
    }

    #[test]
    fn cached_reprobe_is_free() {
        let mut s = session();
        assert_eq!(s.get_current(1.0, 2.0), 12.0);
        assert_eq!(s.get_current(1.0, 2.0), 12.0);
        assert_eq!(s.probe_count(), 1);
        assert_eq!(s.simulated_dwell(), Duration::from_millis(50));
    }

    #[test]
    fn quantization_dedups_nearby_voltages() {
        let mut s = session();
        let _ = s.get_current(1.0, 2.0);
        let _ = s.get_current(1.2, 2.3); // same pixel after rounding
        assert_eq!(s.probe_count(), 1);
        assert_eq!(s.unique_pixels(), 1);
    }

    #[test]
    fn coverage_over_window() {
        let mut s = session();
        for x in 0..10 {
            let _ = s.get_current(x as f64, 0.0);
        }
        assert!((s.coverage() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn budget_trips_after_cap() {
        let mut s = session().with_probe_budget(3);
        assert_eq!(s.remaining_budget(), Some(3));
        let _ = s.get_current(0.0, 0.0);
        let _ = s.get_current(1.0, 0.0);
        // Cached re-probe does not consume budget.
        let _ = s.get_current(0.0, 0.0);
        assert_eq!(s.remaining_budget(), Some(1));
        let _ = s.get_current(2.0, 0.0);
        assert_eq!(s.remaining_budget(), Some(0));
        let trip = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.get_current(3.0, 0.0);
        }));
        assert!(trip.is_err(), "budget must trip");
    }

    #[test]
    fn uncapped_session_has_no_budget() {
        let s = session();
        assert_eq!(s.remaining_budget(), None);
    }

    #[test]
    fn sessions_over_send_sources_are_send() {
        // The batch layer moves whole sessions into worker threads; this
        // pins the Send guarantee at compile time for every shipped source.
        fn assert_send<T: Send>() {}
        assert_send::<crate::CsdSource>();
        assert_send::<crate::PhysicsSource>();
        assert_send::<MeasurementSession<crate::CsdSource>>();
        assert_send::<MeasurementSession<crate::PhysicsSource>>();
        assert_send::<MeasurementSession<crate::ThrottledSource<crate::CsdSource>>>();
    }

    #[test]
    fn probe_session_is_object_safe() {
        let mut s = session();
        let dyn_s: &mut dyn ProbeSession = &mut s;
        let _ = dyn_s.get_current(1.0, 2.0);
        assert_eq!(dyn_s.probe_count(), 1);
        assert_eq!(dyn_s.scatter(), vec![(1, 2)]);
        assert_eq!(dyn_s.window().delta, 1.0);
        assert!(dyn_s.remaining_budget().is_none());
    }
}
