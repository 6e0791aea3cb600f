//! Virtual time for the discrete-event data plane.
//!
//! All data-plane experiments run on a deterministic virtual clock counted
//! in nanoseconds from the start of the trace. Using a newtype (instead of
//! `std::time`) keeps the simulator fully deterministic and lets tests pin
//! exact boundary conditions (a packet *exactly* on a sub-window boundary).

use serde::Serialize;

/// A point in virtual time, in nanoseconds since trace start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Instant(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Duration(pub u64);

impl Instant {
    /// The origin of virtual time (trace start).
    pub const ZERO: Instant = Instant(0);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Instant(ns)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Instant(us * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Instant(ms * 1_000_000)
    }

    /// Nanoseconds since trace start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is
    /// actually later (clock-offset experiments produce such inversions).
    pub const fn saturating_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This span expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiply the span by an integer factor, saturating on overflow.
    pub const fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }

    /// Integer division of spans (how many `other` fit in `self`).
    pub const fn div_duration(self, other: Duration) -> u64 {
        self.0 / other.0
    }
}

impl core::ops::Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        Instant(self.0.saturating_sub(rhs.0))
    }
}

impl core::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl core::ops::Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl core::ops::Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl core::fmt::Display for Instant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e6)
    }
}

impl core::fmt::Display for Duration {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic_roundtrip() {
        let t = Instant::from_millis(500);
        let d = Duration::from_millis(100);
        assert_eq!((t + d).as_nanos(), 600_000_000);
        assert_eq!((t - d).as_nanos(), 400_000_000);
        assert_eq!((t + d).saturating_since(t), d);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = Instant::from_millis(1);
        let late = Instant::from_millis(2);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
        assert_eq!(late.saturating_since(early), Duration::from_millis(1));
    }

    #[test]
    fn duration_division_counts_subwindows() {
        let window = Duration::from_millis(500);
        let sub = Duration::from_millis(100);
        assert_eq!(window.div_duration(sub), 5);
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(Duration::from_nanos(12).to_string(), "12ns");
        assert_eq!(Duration::from_micros(12).to_string(), "12.000us");
        assert_eq!(Duration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Duration::from_millis(2_000).to_string(), "2.000s");
    }
}
