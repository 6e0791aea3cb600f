//! Window geometry: window size, slide, and sub-window length.

use ow_common::error::OwError;
use ow_common::time::Duration;

/// Validated window geometry.
///
/// Invariants (checked at construction): the sub-window length divides
/// both the window size and the slide; slide ≤ window. These are the
/// conditions under which sub-windows can be merged into every window
/// position (§3.1, G1/G2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    window: Duration,
    slide: Duration,
    subwindow: Duration,
}

impl WindowConfig {
    /// Create a validated configuration.
    pub fn new(window: Duration, slide: Duration, subwindow: Duration) -> Result<Self, OwError> {
        if subwindow.as_nanos() == 0 {
            return Err(OwError::Config("sub-window length must be positive".into()));
        }
        if window.as_nanos() % subwindow.as_nanos() != 0 {
            return Err(OwError::Config(format!(
                "window {window} is not a multiple of sub-window {subwindow}"
            )));
        }
        if slide.as_nanos() == 0 || slide.as_nanos() % subwindow.as_nanos() != 0 {
            return Err(OwError::Config(format!(
                "slide {slide} is not a positive multiple of sub-window {subwindow}"
            )));
        }
        if slide > window {
            return Err(OwError::Config(format!(
                "slide {slide} exceeds window {window}"
            )));
        }
        Ok(WindowConfig {
            window,
            slide,
            subwindow,
        })
    }

    /// The paper's evaluation setting: 500 ms windows, 100 ms slide,
    /// 100 ms sub-windows (five sub-windows per window).
    pub fn paper_default() -> WindowConfig {
        WindowConfig::new(
            Duration::from_millis(500),
            Duration::from_millis(100),
            Duration::from_millis(100),
        )
        .expect("static geometry is valid")
    }

    /// Window size.
    pub(crate) fn window(&self) -> Duration {
        self.window
    }

    /// Sub-windows per window.
    pub fn subwindows_per_window(&self) -> usize {
        self.window.div_duration(self.subwindow) as usize
    }

    /// Sub-windows per slide step.
    pub fn subwindows_per_slide(&self) -> usize {
        self.slide.div_duration(self.subwindow) as usize
    }

    /// The global sub-window index a timestamp falls into.
    pub(crate) fn subwindow_of(&self, ts: ow_common::time::Instant) -> u32 {
        (ts.as_nanos() / self.subwindow.as_nanos()) as u32
    }

    /// Number of complete sub-windows in a trace of `duration`.
    pub(crate) fn subwindows_in(&self, duration: Duration) -> usize {
        (duration.as_nanos() / self.subwindow.as_nanos()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::time::Instant;

    #[test]
    fn paper_default_geometry() {
        let c = WindowConfig::paper_default();
        assert_eq!(c.subwindows_per_window(), 5);
        assert_eq!(c.subwindows_per_slide(), 1);
    }

    #[test]
    fn invalid_geometries_rejected() {
        let ms = Duration::from_millis;
        assert!(WindowConfig::new(ms(500), ms(100), ms(0)).is_err());
        assert!(WindowConfig::new(ms(500), ms(100), ms(130)).is_err());
        assert!(WindowConfig::new(ms(500), ms(150), ms(100)).is_err());
        assert!(WindowConfig::new(ms(500), ms(600), ms(100)).is_err());
        assert!(WindowConfig::new(ms(500), ms(500), ms(100)).is_ok());
    }

    #[test]
    fn subwindow_assignment() {
        let c = WindowConfig::paper_default();
        assert_eq!(c.subwindow_of(Instant::from_millis(0)), 0);
        assert_eq!(c.subwindow_of(Instant::from_millis(99)), 0);
        assert_eq!(c.subwindow_of(Instant::from_millis(100)), 1);
        assert_eq!(c.subwindow_of(Instant::from_millis(550)), 5);
    }

    #[test]
    fn window_counts() {
        let c = WindowConfig::paper_default();
        let dur = Duration::from_millis(2_000);
        assert_eq!(c.subwindows_in(dur), 20);
    }
}
