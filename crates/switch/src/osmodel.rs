//! The conventional switch-OS collection path (the baseline OmniWindow
//! bypasses).
//!
//! Prior telemetry systems perform C&R through the switch OS: the
//! control CPU issues register reads/writes over PCIe with RPC framing,
//! one batch at a time, with no concurrency across register arrays
//! (constraint C1). This module models that path so experiments can
//! compare it against the recirculation-based design: reads return the
//! true state (no error) but take seconds; worse, traffic measured while
//! the read runs is attributed inconsistently — the TW1 accuracy hazard.

use ow_common::time::Duration;

use crate::latency;

/// Fixed per-RPC overhead (connection + framing), charged per array.
pub const RPC_OVERHEAD: Duration = Duration::from_micros(500);

/// Time to read `arrays` register arrays of `entries` entries each.
pub fn read_time(arrays: usize, entries: usize) -> Duration {
    latency::os_read(arrays, entries) + RPC_OVERHEAD.saturating_mul(arrays as u64)
}

/// Time to reset the same registers (sequential across arrays).
pub fn reset_time(arrays: usize, entries: usize) -> Duration {
    latency::os_reset(arrays, entries) + RPC_OVERHEAD.saturating_mul(arrays as u64)
}

/// Full C&R time (read then reset; the OS cannot overlap them on one
/// register).
pub fn cr_time(arrays: usize, entries: usize) -> Duration {
    read_time(arrays, entries) + reset_time(arrays, entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_time_linear_in_arrays() {
        let one = read_time(1, 65_536);
        let four = read_time(4, 65_536);
        let ratio = four.as_nanos() as f64 / one.as_nanos() as f64;
        assert!((3.9..4.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn os_cr_is_orders_of_magnitude_slower_than_subwindow() {
        let t = cr_time(4, 65_536);
        // Far beyond a 100 ms sub-window — the motivation for fast C&R.
        assert!(t > Duration::from_millis(1_000), "{t}");
    }
}
