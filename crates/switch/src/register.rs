//! Register arrays with the Stateful-ALU access discipline.
//!
//! RMT constraint **C4**: each packet pass may access *one* location of
//! each on-chip register array, through that array's SALU. The types
//! here enforce the discipline — a second access to the same array in
//! one pass is a hard error — so higher layers cannot accidentally
//! assume capabilities the hardware lacks (this is exactly why sliding
//! windows cannot be built by re-reading state, and why clear packets
//! reset one index per pass).
//!
//! ## Pass discipline
//!
//! A pass is *explicitly scoped*: [`RegisterArray::begin_pass`] opens
//! it, [`RegisterArray::end_pass`] closes it, and [`RegisterArray::access`]
//! outside an open pass is an error (a packet cannot touch a SALU without
//! transiting the pipeline). A `begin_pass` while the previous pass is
//! still open is tolerated — hardware recycles the SALU on the next
//! packet regardless — but is counted in [`RegisterArray::leaked_passes`]
//! so harnesses (and the `ow-verify` soundness property) can assert that
//! every handler path closes its passes. The PR-1 retransmit / ack /
//! os-read paths run on the switch CPU and must *not* open passes at
//! all; they read state through [`RegisterArray::snapshot`], which is
//! deliberately outside the pass discipline.

use ow_common::error::OwError;

/// A stateful operation a SALU can apply to one cell in one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaluOp {
    /// Read the cell.
    Read,
    /// `cell = cell saturating+ v`, returns the new value.
    AddSat(u32),
    /// `cell = max(cell, v)`, returns the new value.
    Max(u32),
    /// `cell = v`, returns the old value.
    Write(u32),
}

/// A register array guarded by one SALU.
#[derive(Debug, Clone)]
pub struct RegisterArray {
    name: String,
    cells: Vec<u32>,
    /// Whether a packet pass is currently open.
    pass_open: bool,
    /// Whether this array was already accessed in the current pass.
    accessed_this_pass: bool,
    /// Total SALU operations (for accounting/tests).
    accesses: u64,
    /// Passes begun while the previous pass was never ended.
    leaked_passes: u64,
}

impl RegisterArray {
    /// Allocate an array of `cells` 32-bit cells.
    ///
    /// # Panics
    /// Panics if `cells == 0`.
    pub fn new(name: impl Into<String>, cells: usize) -> RegisterArray {
        assert!(cells > 0, "register array needs at least one cell");
        RegisterArray {
            name: name.into(),
            cells: vec![0; cells],
            pass_open: false,
            accessed_this_pass: false,
            accesses: 0,
            leaked_passes: 0,
        }
    }

    /// Start a new packet pass: the SALU becomes available again.
    ///
    /// Beginning a pass while the previous one was never ended is
    /// tolerated (the hardware recycles the SALU on the next packet) but
    /// counted in [`leaked_passes`](Self::leaked_passes) — a leak means
    /// some handler path skipped [`end_pass`](Self::end_pass).
    pub fn begin_pass(&mut self) {
        if self.pass_open {
            self.leaked_passes += 1;
        }
        self.pass_open = true;
        self.accessed_this_pass = false;
    }

    /// Close the current packet pass. Idempotent: closing an already
    /// closed pass is a no-op (the packet left the pipeline).
    pub fn end_pass(&mut self) {
        self.pass_open = false;
        self.accessed_this_pass = false;
    }

    /// Passes begun while the previous pass was never ended. A non-zero
    /// value means a handler path leaked a pass; the `ow-verify`
    /// soundness property asserts this stays zero for verified programs.
    pub fn leaked_passes(&self) -> u64 {
        self.leaked_passes
    }

    /// Perform one SALU operation. Fails if no pass is open, if the
    /// array was already accessed this pass (C4), or if the index is out
    /// of range.
    pub fn access(&mut self, index: usize, op: SaluOp) -> Result<u32, OwError> {
        if !self.pass_open {
            return Err(OwError::Protocol(format!(
                "register '{}' accessed outside a pass (begin_pass was never called)",
                self.name
            )));
        }
        if self.accessed_this_pass {
            return Err(OwError::ResourceExhausted(format!(
                "register '{}' already accessed this pass (C4: one SALU access per array per packet)",
                self.name
            )));
        }
        let (n, name) = (self.cells.len(), self.name.as_str());
        let cell = self.cells.get_mut(index).ok_or_else(|| {
            OwError::Config(format!(
                "index {index} out of range for register '{name}' ({n} cells)"
            ))
        })?;
        self.accessed_this_pass = true;
        self.accesses += 1;
        Ok(match op {
            SaluOp::Read => *cell,
            SaluOp::AddSat(v) => {
                *cell = cell.saturating_add(v);
                *cell
            }
            SaluOp::Max(v) => {
                *cell = (*cell).max(v);
                *cell
            }
            SaluOp::Write(v) => {
                let old = *cell;
                *cell = v;
                old
            }
        })
    }

    /// Control-plane snapshot (the slow OS path may read freely — it is
    /// not a packet pass and does not touch the SALU discipline).
    pub fn snapshot(&self) -> &[u32] {
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salu_allows_one_access_per_pass() {
        let mut r = RegisterArray::new("counters", 16);
        r.begin_pass();
        assert_eq!(r.access(3, SaluOp::AddSat(5)).unwrap(), 5);
        // Second access in the same pass violates C4.
        let err = r.access(4, SaluOp::Read).unwrap_err();
        assert!(err.to_string().contains("C4"));
        // Next pass is fine.
        r.begin_pass();
        assert_eq!(r.access(3, SaluOp::Read).unwrap(), 5);
    }

    #[test]
    fn salu_ops_semantics() {
        let mut r = RegisterArray::new("x", 4);
        r.begin_pass();
        assert_eq!(r.access(0, SaluOp::AddSat(u32::MAX)).unwrap(), u32::MAX);
        r.begin_pass();
        assert_eq!(r.access(0, SaluOp::AddSat(1)).unwrap(), u32::MAX); // saturates
        r.begin_pass();
        assert_eq!(r.access(1, SaluOp::Max(7)).unwrap(), 7);
        r.begin_pass();
        assert_eq!(r.access(1, SaluOp::Max(3)).unwrap(), 7);
        r.begin_pass();
        assert_eq!(r.access(1, SaluOp::Write(0)).unwrap(), 7); // returns old
    }

    #[test]
    fn out_of_range_is_config_error() {
        let mut r = RegisterArray::new("x", 4);
        r.begin_pass();
        assert!(r.access(4, SaluOp::Read).is_err());
    }

    #[test]
    fn access_outside_pass_is_protocol_error() {
        // The audit finding: before PR 2, an access with no begin_pass
        // silently succeeded once (the initial state looked like an open
        // pass). Now it is a hard protocol error on every path.
        let mut r = RegisterArray::new("x", 4);
        let err = r.access(0, SaluOp::Read).unwrap_err();
        assert!(err.to_string().contains("outside a pass"), "{err}");
        // After an ended pass, access is again an error.
        r.begin_pass();
        r.access(0, SaluOp::AddSat(1)).unwrap();
        r.end_pass();
        assert!(r.access(0, SaluOp::Read).is_err());
    }

    #[test]
    fn leaked_passes_are_counted() {
        let mut r = RegisterArray::new("x", 4);
        r.begin_pass();
        r.access(0, SaluOp::AddSat(1)).unwrap();
        // Pass never ended: the next begin counts a leak but still works.
        r.begin_pass();
        assert_eq!(r.leaked_passes(), 1);
        assert_eq!(r.access(0, SaluOp::Read).unwrap(), 1);
        r.end_pass();
        // Disciplined begin/end pairs add no leaks; end is idempotent.
        r.end_pass();
        r.begin_pass();
        r.end_pass();
        assert_eq!(r.leaked_passes(), 1);
    }

    #[test]
    fn snapshot_is_outside_the_pass_discipline() {
        // The os-read / retransmit / ack paths read via snapshot() on
        // the switch CPU; they must work with no pass open and must not
        // consume the SALU.
        let mut r = RegisterArray::new("x", 4);
        r.begin_pass();
        r.access(2, SaluOp::Write(9)).unwrap();
        r.end_pass();
        assert_eq!(r.snapshot()[2], 9);
        assert_eq!(r.accesses, 1, "snapshot is not a SALU access");
        assert_eq!(r.leaked_passes(), 0);
    }
}
