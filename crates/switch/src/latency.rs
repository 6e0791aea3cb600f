//! The calibrated latency model for collect-and-reset paths.
//!
//! The wall-clock behaviour of the Tofino ASIC, its PCIe slow path, DPDK
//! injection, and RDMA verbs cannot be measured without the hardware, so
//! this model charges each C&R step a per-item cost. The constants are
//! calibrated against the absolute numbers the paper reports (Exp#6,
//! Exp#8) — the *model structure* (what scales with the number of keys,
//! recirculated packets, and registers) is what the experiments exercise:
//!
//! * switch-OS reads are ~4 orders of magnitude slower per entry than a
//!   recirculation pass (2.4 s–10.3 s vs. a few ms for 64 K entries),
//! * enumeration time divides by the number of recirculating packets,
//! * controller injection dominates the control-plane collection path,
//! * RDMA halves-to-quarters the per-AFR receive cost and removes the
//!   controller CPU from the path.

use ow_common::time::Duration;

/// Switch-OS PCIe/RPC read per register entry (Exp#6 "OS": 2.4 s for
/// one 128 KB Count-Min array of 32 K four-byte cells → ≈ 74 µs per
/// cell, dominated by per-cell RPC framing).
pub const OS_READ_PER_ENTRY: Duration = Duration::from_nanos(74_000);
/// Switch-OS reset per register entry; the OS cannot reset registers
/// concurrently, so total reset time is linear in the register count
/// (Exp#8).
pub const OS_RESET_PER_ENTRY: Duration = Duration::from_nanos(2_000);
/// One recirculation pass through the pipeline (one entry advanced
/// per in-flight packet per pass).
pub const RECIRC_PASS: Duration = Duration::from_nanos(250);
/// Controller → switch flowkey injection over DPDK, per key (the
/// dominant CPC cost).
pub const DPDK_INJECT_PER_KEY: Duration = Duration::from_nanos(190);
/// Extra per-key cost of looking up the key-value-table address
/// before injection (the CPC* overhead that makes CPC* *slower* than
/// CPC).
pub const ADDR_LOOKUP_PER_KEY: Duration = Duration::from_nanos(110);
/// Controller receive+parse cost per AFR over DPDK.
pub const DPDK_RX_PER_AFR: Duration = Duration::from_nanos(60);
/// RNIC write cost per AFR under the RDMA optimisation (no controller
/// CPU involvement).
pub const RDMA_WRITE_PER_AFR: Duration = Duration::from_nanos(15);
/// Fixed cost of the trigger-packet round trip that starts collection
/// (clone to controller, wait, send back — Figure 3).
pub const TRIGGER_RTT: Duration = Duration::from_micros(100);

/// Time for the switch OS to read `arrays` register arrays of
/// `entries` entries each (sequential, no concurrency — C1).
pub fn os_read(arrays: usize, entries: usize) -> Duration {
    OS_READ_PER_ENTRY.saturating_mul((arrays * entries) as u64)
}

/// Time for the switch OS to reset `arrays` arrays of `entries`
/// entries (sequential across arrays).
pub fn os_reset(arrays: usize, entries: usize) -> Duration {
    OS_RESET_PER_ENTRY.saturating_mul((arrays * entries) as u64)
}

/// Time to enumerate `items` data-plane slots with `packets`
/// simultaneously recirculating packets. One pipeline pass advances
/// every in-flight packet by one slot, and — key property of the §4.3
/// design — a single pass touches the same index of *all* register
/// arrays, so the count of arrays does not appear.
pub fn recirc_enumeration(items: usize, packets: usize) -> Duration {
    let passes = items.div_ceil(packets.max(1));
    RECIRC_PASS.saturating_mul(passes as u64)
}

/// Controller-side time to inject `keys` flowkeys (CPC / hybrid OW
/// paths); `with_addr_lookup` adds the key-value-table lookup of the
/// RDMA variant.
pub fn inject(keys: usize, with_addr_lookup: bool) -> Duration {
    let per = if with_addr_lookup {
        DPDK_INJECT_PER_KEY + ADDR_LOOKUP_PER_KEY
    } else {
        DPDK_INJECT_PER_KEY
    };
    per.saturating_mul(keys as u64)
}

/// RDMA-batched flowkey injection (OW*): the controller writes key
/// batches into the switch's injection ring as one-sided RDMA writes,
/// amortising the per-packet DPDK cost. Calibrated to the paper's
/// OW* = 1.8 ms with 32 K injected keys.
pub fn rdma_inject(keys: usize) -> Duration {
    Duration::from_nanos(40).saturating_mul(keys as u64)
}

/// Controller-side time to receive `afrs` AFR reports.
pub fn receive(afrs: usize, rdma: bool) -> Duration {
    if rdma {
        RDMA_WRITE_PER_AFR.saturating_mul(afrs as u64)
    } else {
        DPDK_RX_PER_AFR.saturating_mul(afrs as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_read_matches_paper_order() {
        // One 128 KB array (32 K cells): ≈ 2.4 s (paper Exp#6 lower bound).
        let t = os_read(1, 32_768);
        assert!((2.0..3.0).contains(&(t.as_nanos() as f64 / 1e9)), "{t}");
        // Four arrays: ≈ 9.7 s (paper upper bound 10.3 s).
        let t4 = os_read(4, 32_768);
        assert!((8.0..11.0).contains(&(t4.as_nanos() as f64 / 1e9)), "{t4}");
    }

    #[test]
    fn recirc_divides_by_packets() {
        let t3 = recirc_enumeration(65_536, 3);
        let t16 = recirc_enumeration(65_536, 16);
        // 64K entries, 3 packets: ≈ 5.5 ms (paper DPC).
        assert!((4.0..7.0).contains(&(t3.as_millis_f64())), "{t3}");
        // 16 packets: ≈ 1 ms (paper DPC* 1.3 ms).
        assert!((0.8..1.5).contains(&(t16.as_millis_f64())), "{t16}");
    }

    #[test]
    fn injection_dominates_cpc() {
        // 64K keys: ≈ 12 ms (paper CPC).
        let t = inject(65_536, false);
        assert!((10.0..15.0).contains(&t.as_millis_f64()), "{t}");
        // Address lookup makes CPC* slower than CPC (paper: 19 ms).
        let t_star = inject(65_536, true);
        assert!(t_star > t);
        assert!((17.0..22.0).contains(&t_star.as_millis_f64()), "{t_star}");
    }

    #[test]
    fn rdma_receive_is_cheaper() {
        assert!(receive(10_000, true) < receive(10_000, false));
    }

    #[test]
    fn os_reset_linear_in_registers() {
        let one = os_reset(1, 65_536);
        let four = os_reset(4, 65_536);
        assert_eq!(four.as_nanos(), one.as_nanos() * 4);
    }

    #[test]
    fn zero_packets_does_not_divide_by_zero() {
        let t = recirc_enumeration(100, 0);
        assert_eq!(t, RECIRC_PASS.saturating_mul(100));
    }
}
