//! The per-pixel read seam: a [`PixelField`] is a current map over a
//! [`VoltageGrid`] that answers one pixel at a time.
//!
//! A realized [`Csd`] is one; a field that evaluates its device model
//! only for the pixels actually read is another. Probe sources read
//! through this seam, so a sparse extraction never pays for the pixels
//! it does not probe.

use crate::{Csd, VoltageGrid};
use std::sync::Arc;

/// Sensor current per pixel over a voltage grid.
pub trait PixelField: Send + Sync {
    /// The voltage grid the field is defined on.
    fn grid(&self) -> &VoltageGrid;

    /// Current at pixel `(x, y)` (row 0 = bottom). The same pixel always
    /// reads the same value.
    ///
    /// # Panics
    ///
    /// Implementations panic if the pixel lies outside [`PixelField::grid`].
    fn at(&self, x: usize, y: usize) -> f64;
}

impl PixelField for Csd {
    fn grid(&self) -> &VoltageGrid {
        Csd::grid(self)
    }

    fn at(&self, x: usize, y: usize) -> f64 {
        Csd::at(self, x, y)
    }
}

impl<F: PixelField + ?Sized> PixelField for Box<F> {
    fn grid(&self) -> &VoltageGrid {
        (**self).grid()
    }

    fn at(&self, x: usize, y: usize) -> f64 {
        (**self).at(x, y)
    }
}

impl<F: PixelField + ?Sized> PixelField for Arc<F> {
    fn grid(&self) -> &VoltageGrid {
        (**self).grid()
    }

    fn at(&self, x: usize, y: usize) -> f64 {
        (**self).at(x, y)
    }
}

impl std::fmt::Debug for dyn PixelField {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("dyn PixelField")
            .field("grid", self.grid())
            .finish()
    }
}
