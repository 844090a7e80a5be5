//! Probe bookkeeping: the session's one pixel table.
//!
//! Table 1's "number/percentage of points probed", Figure 7's probed-
//! point scatter and the measurement cache all come straight out of this
//! ledger: a window-sized index over the probed pixels and their first
//! readings.

use crate::VoltageWindow;

/// Every probed pixel of one window with its first reading, in
/// first-probe order, behind a dense row-major index.
#[derive(Debug)]
pub(crate) struct ProbeLedger {
    /// One entry per window pixel: 0 when unprobed, otherwise 1 + the
    /// pixel's position in `probed`.
    index: Vec<u32>,
    width: usize,
    probed: Vec<((i64, i64), f64)>,
}

impl ProbeLedger {
    /// An empty ledger over every pixel of `window` (4 bytes a pixel).
    pub(crate) fn new(window: &VoltageWindow) -> Self {
        Self {
            index: vec![0; window.len()],
            width: window.width_px(),
            probed: Vec::new(),
        }
    }

    /// Row-major slot of an in-window pixel, as
    /// [`VoltageWindow::quantize`] returns it.
    fn slot(&self, (x, y): (i64, i64)) -> usize {
        y as usize * self.width + x as usize
    }

    /// The first reading of `pixel`, or `None` if it was never probed.
    pub(crate) fn reading(&self, pixel: (i64, i64)) -> Option<f64> {
        match self.index[self.slot(pixel)] {
            0 => None,
            n => Some(self.probed[n as usize - 1].1),
        }
    }

    /// Records the first reading of a pixel not probed before.
    pub(crate) fn record(&mut self, pixel: (i64, i64), reading: f64) {
        let slot = self.slot(pixel);
        debug_assert_eq!(self.index[slot], 0, "pixel {pixel:?} recorded twice");
        self.probed.push((pixel, reading));
        self.index[slot] = self.probed.len() as u32;
    }

    /// Distinct pixels probed.
    pub(crate) fn len(&self) -> usize {
        self.probed.len()
    }

    /// Distinct probed pixels as `(x, y)` pairs, in first-probe order —
    /// exactly the Figure 7 scatter data.
    pub(crate) fn scatter(&self) -> Vec<(i64, i64)> {
        self.probed.iter().map(|&(pixel, _)| pixel).collect()
    }

    /// Fraction of the window probed (the "percentage of points probed"
    /// column of Table 1). Returns 0 for an empty window.
    pub(crate) fn coverage(&self) -> f64 {
        if self.index.is_empty() {
            return 0.0;
        }
        self.probed.len() as f64 / self.index.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> ProbeLedger {
        ProbeLedger::new(&VoltageWindow {
            x_min: 0.0,
            y_min: 0.0,
            x_max: 9.0,
            y_max: 4.0,
            delta: 1.0,
        })
    }

    #[test]
    fn table_holds_first_readings_up_to_every_edge() {
        let mut l = ledger();
        let corners = [(0, 0), (9, 0), (0, 4), (9, 4)];
        for (i, &pixel) in corners.iter().enumerate() {
            assert_eq!(l.reading(pixel), None);
            l.record(pixel, i as f64);
        }
        for (i, &pixel) in corners.iter().enumerate() {
            assert_eq!(l.reading(pixel), Some(i as f64));
        }
        assert_eq!((l.reading((1, 0)), l.reading((0, 1))), (None, None));
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn scatter_preserves_first_probe_order() {
        let mut l = ledger();
        l.record((5, 3), 5.0);
        l.record((1, 1), 1.0);
        l.record((2, 2), 2.0);
        assert_eq!(l.scatter(), vec![(5, 3), (1, 1), (2, 2)]);
    }

    #[test]
    fn coverage_fraction() {
        let mut l = ledger();
        assert_eq!(l.coverage(), 0.0);
        for x in 0..5 {
            l.record((x, 0), x as f64);
        }
        assert!((l.coverage() - 0.10).abs() < 1e-12);
    }
}
