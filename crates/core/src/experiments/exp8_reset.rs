//! Exp#8 (Figure 13): time of in-switch reset.
//!
//! Four registers of 64 K two-byte entries. The switch-OS baseline
//! resets registers sequentially (time linear in register count);
//! OmniWindow's clear packets reset one index of *every* register per
//! pipeline pass, so its time is flat in the register count and divides
//! by the number of simultaneously recirculating clear packets
//! (OW-4 / OW-8 / OW-16).

use serde::Serialize;

use ow_switch::{latency, osmodel};

/// One (method, register-count) cell of the figure.
#[derive(Debug, Clone, Serialize)]
pub struct ResetTime {
    /// Method label (OS, OW-4, OW-8, OW-16).
    pub method: String,
    /// Number of register arrays reset.
    pub registers: usize,
    /// Modelled reset time in milliseconds.
    pub millis: f64,
}

/// The whole experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Exp8Result {
    /// All cells.
    pub times: Vec<ResetTime>,
    /// Entries per register (paper: 64 K two-byte entries = 128 KB).
    pub entries: usize,
}

/// Run Exp#8 with `entries` entries per register (paper: 65 536).
pub fn run(entries: usize) -> Exp8Result {
    let mut times = Vec::new();
    for registers in 1..=4usize {
        times.push(ResetTime {
            method: "OS".into(),
            registers,
            millis: osmodel::reset_time(registers, entries).as_millis_f64(),
        });
        for packets in [4usize, 8, 16] {
            times.push(ResetTime {
                method: format!("OW-{packets}"),
                registers,
                // One pass clears the same index of all registers: the
                // register count does not appear.
                millis: latency::recirc_enumeration(entries, packets).as_millis_f64(),
            });
        }
    }
    Exp8Result { times, entries }
}

impl Exp8Result {
    /// The time for a (method, registers) cell in ms.
    pub fn millis(&self, method: &str, registers: usize) -> Option<f64> {
        self.times
            .iter()
            .find(|t| t.method == method && t.registers == registers)
            .map(|t| t.millis)
    }
}
