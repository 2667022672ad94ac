//! The one wall-clock reference point instrumented sim code may hold.

use std::time::Instant;

/// A bare wall-clock reference point, for instrumented code that must not
/// touch `std::time` directly.
///
/// The simulation crates are held to a no-wall-clock policy (`omnc-lint`'s
/// `wall-clock` rule): clocks only enter through this telemetry crate, so a
/// decoder or scheduler can profile itself with a `Span` while its own
/// source stays free of `Instant::now()`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    started: Instant,
}

impl Span {
    /// Captures the current instant.
    #[must_use]
    pub fn begin() -> Self {
        Span {
            started: Instant::now(),
        }
    }

    /// Microseconds elapsed since [`Span::begin`].
    #[must_use]
    pub fn elapsed_us(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e6
    }
}
