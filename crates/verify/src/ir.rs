//! The declarative pipeline IR.
//!
//! A [`PipelineProgram`] is the static description of everything an
//! OmniWindow deployment asks of the RMT pipeline, at the granularity
//! the §2 constraints are stated at:
//!
//! * **register arrays** ([`RegisterDecl`]) — flattened §6 layouts:
//!   `regions × region_cells` 32-bit cells behind one SALU;
//! * **features** ([`Feature`]) — ordered match-action steps with
//!   their per-stage SRAM/SALU/VLIW/gateway appetite, the type
//!   `ow_switch::placement` packs onto physical stages;
//! * **paths** ([`PathDecl`]) — one entry per packet class
//!   ([`PacketClass`]): the register accesses a single pipeline pass of
//!   that class performs, plus a static bound on how often the packet
//!   recirculates.
//!
//! The IR is deliberately *declarative*: it contains no code, only the
//! facts the verifier needs to prove C4 (one SALU access per array per
//! pass), placement feasibility, budget fit, address-bounds safety, and
//! recirculation termination — ahead of constructing any runtime state.

use ow_switch::placement::{omniwindow_features, Feature, StageLimits, Step};
use ow_switch::resources::ResourceConfig;
use serde::Serialize;

/// A flattened register array (§6): `regions` regions of `region_cells`
/// 32-bit cells concatenated behind a single SALU.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RegisterDecl {
    /// Unique array name (diagnostics reference it).
    pub name: String,
    /// Memory regions sharing the array (2 for the two-region layout).
    pub regions: usize,
    /// Cells per region.
    pub region_cells: usize,
}

impl RegisterDecl {
    /// Declare an array of `regions × region_cells` cells.
    pub fn new(name: impl Into<String>, regions: usize, region_cells: usize) -> RegisterDecl {
        RegisterDecl {
            name: name.into(),
            regions,
            region_cells,
        }
    }

    /// Total physical cells across all regions.
    pub(crate) fn cells(&self) -> usize {
        self.regions.saturating_mul(self.region_cells)
    }
}

/// The packet classes whose pipeline paths the verifier proves safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PacketClass {
    /// Ordinary measured traffic (stamp/adopt + application update).
    Normal,
    /// §4.3 clear packets sweeping one register index per pass.
    Clear,
    /// Algorithm 2 collection packets recirculating through `fk_buffer`.
    Recirculated,
    /// §8 retransmission / acknowledgement handling. Runs on the switch
    /// CPU against the parked AFR batches; a compliant program performs
    /// **no** SALU access on this path.
    Retransmit,
    /// §8 OS-path escalation: the slow switch-OS readback. Reads state
    /// via control-plane snapshots, outside the SALU pass discipline.
    OsRead,
}

impl PacketClass {
    /// Stable lowercase label used in diagnostics and JSON reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            PacketClass::Normal => "normal",
            PacketClass::Clear => "clear",
            PacketClass::Recirculated => "recirculated",
            PacketClass::Retransmit => "retransmit",
            PacketClass::OsRead => "os-read",
        }
    }

    /// Whether packets of this class re-enter the pipeline after a pass,
    /// requiring a static termination bound.
    pub(crate) fn recirculates(&self) -> bool {
        matches!(self, PacketClass::Clear | PacketClass::Recirculated)
    }

    /// Whether this class runs on the switch CPU (control plane) rather
    /// than transiting the match-action pipeline. CPU classes must not
    /// declare SALU accesses.
    pub(crate) fn is_control_plane(&self) -> bool {
        matches!(self, PacketClass::Retransmit | PacketClass::OsRead)
    }
}

/// What the SALU does at the accessed cell (the operand is not
/// modelled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AccessKind {
    /// Read the cell.
    Read,
    /// Saturating add.
    AddSat,
    /// Running maximum.
    Max,
    /// Overwrite, returning the old value.
    Write,
}

/// One register-array access a path performs in a single pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AccessDecl {
    /// Name of the accessed [`RegisterDecl`].
    pub register: String,
    /// Operation kind.
    pub kind: AccessKind,
    /// Static upper bound on the *within-region* index this path can
    /// compute (e.g. `hash % cells` has bound `cells - 1`). The verifier
    /// proves `max_index < region_cells`.
    pub max_index: usize,
}

impl AccessDecl {
    /// Declare an access with a static index bound.
    pub fn new(register: impl Into<String>, kind: AccessKind, max_index: usize) -> AccessDecl {
        AccessDecl {
            register: register.into(),
            kind,
            max_index,
        }
    }
}

/// The register accesses of one pipeline pass of one packet class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PathDecl {
    /// Human-readable path name for diagnostics.
    pub name: String,
    /// The packet class this path handles.
    pub class: PacketClass,
    /// Register accesses performed in a single pass of this path.
    pub accesses: Vec<AccessDecl>,
    /// Static bound on recirculations of one packet of this class
    /// (`None` = unknown / unbounded). Required (`Some`, finite) for
    /// classes where `PacketClass::recirculates` holds; a clear-packet
    /// sweep, for instance, is bounded by the region's cell count.
    pub max_recirculations: Option<u64>,
}

impl PathDecl {
    /// Declare a non-recirculating path.
    pub fn new(name: impl Into<String>, class: PacketClass, accesses: Vec<AccessDecl>) -> PathDecl {
        PathDecl {
            name: name.into(),
            class,
            accesses,
            max_recirculations: None,
        }
    }

    /// Attach a static recirculation bound.
    pub fn with_recirc_bound(mut self, bound: u64) -> PathDecl {
        self.max_recirculations = Some(bound);
        self
    }
}

/// The full static description of one pipeline deployment.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineProgram {
    /// Program name (appears in reports).
    pub name: String,
    /// Per-stage budgets of the target pipeline.
    pub limits: StageLimits,
    /// Declared register arrays.
    pub registers: Vec<RegisterDecl>,
    /// Features to place onto stages.
    pub features: Vec<Feature>,
    /// Per-class pipeline paths.
    pub paths: Vec<PathDecl>,
}

impl PipelineProgram {
    /// Start an empty program against `limits`.
    pub fn new(name: impl Into<String>, limits: StageLimits) -> PipelineProgram {
        PipelineProgram {
            name: name.into(),
            limits,
            registers: Vec::new(),
            features: Vec::new(),
            paths: Vec::new(),
        }
    }

    /// Add a register array declaration.
    pub fn register(mut self, reg: RegisterDecl) -> Self {
        self.registers.push(reg);
        self
    }

    /// Add a feature.
    pub fn feature(mut self, feature: Feature) -> Self {
        self.features.push(feature);
        self
    }

    /// Add a path.
    pub fn path(mut self, path: PathDecl) -> Self {
        self.paths.push(path);
        self
    }

    /// Look up a register declaration by name.
    pub(crate) fn find_register(&self, name: &str) -> Option<&RegisterDecl> {
        self.registers.iter().find(|r| r.name == name)
    }
}

/// The paper's Table-2 OmniWindow program for a [`ResourceConfig`]:
/// the Exp#5 feature steps ([`omniwindow_features`]) plus the register
/// arrays and per-class paths the window state machine implies.
/// `app_states` is the per-region cell count of the wrapped telemetry
/// application's state arrays (sizes the clear-packet sweep bound).
pub fn omniwindow_program(cfg: &ResourceConfig, app_states: usize) -> PipelineProgram {
    let app_states = app_states.max(1);
    let bloom_cells = (cfg.bloom_kb as usize * 1024 * 8 / 32)
        .div_ceil(cfg.bloom_hashes.max(1) as usize)
        .max(1);
    let fk_cells = (cfg.fk_capacity as usize).max(1);

    let mut program = PipelineProgram::new(
        format!(
            "omniwindow/table2(bloom={}KB,h={},fk={},rdma={})",
            cfg.bloom_kb, cfg.bloom_hashes, cfg.fk_capacity, cfg.rdma_enabled
        ),
        StageLimits::default(),
    )
    // The signal engine's last-boundary state: one cell, one region.
    .register(RegisterDecl::new("signal_state", 1, 1))
    // The wrapped application's window state: the §6 two-region layout.
    .register(RegisterDecl::new("win_state", 2, app_states))
    // fk_buffer: the per-region flowkey append array (Algorithm 1).
    .register(RegisterDecl::new("fk_buffer", 2, fk_cells))
    // Clear-packet progress counter for the in-switch reset.
    .register(RegisterDecl::new("reset_counter", 1, 1));
    // One Bloom filter array per hash (each behind its own SALU).
    for h in 0..cfg.bloom_hashes {
        program = program.register(RegisterDecl::new(format!("bloom_{h}"), 2, bloom_cells));
    }
    if cfg.rdma_enabled {
        program = program
            .register(RegisterDecl::new("psn_counter", 1, 1))
            .register(RegisterDecl::new("icrc_state", 1, 1));
    }
    program.features.extend(omniwindow_features(cfg));
    // Table 2 measures the framework's own overhead; the wrapped
    // application's state update is a pipeline feature too (its SALU
    // must be provisioned or win_state has nothing to serve it).
    program = program.feature(Feature::new(
        "Application state",
        vec![Step {
            sram_kb: ((2 * app_states * 4).div_ceil(1024)) as u32,
            salus: 1,
            vliw: 2,
            gateways: 1,
        }],
    ));

    // Normal measured traffic: signal check, Bloom check-and-insert on
    // every hash, fk_buffer append, application state update.
    let mut normal = vec![
        AccessDecl::new("signal_state", AccessKind::Max, 0),
        AccessDecl::new("win_state", AccessKind::AddSat, app_states - 1),
        AccessDecl::new("fk_buffer", AccessKind::Write, fk_cells - 1),
    ];
    for h in 0..cfg.bloom_hashes {
        normal.push(AccessDecl::new(
            format!("bloom_{h}"),
            AccessKind::Max,
            bloom_cells - 1,
        ));
    }
    program = program.path(PathDecl::new("normal", PacketClass::Normal, normal));

    // Collection packets (Algorithm 2): read the enumerated flowkey,
    // query the application state, bump the RDMA counters when deployed;
    // recirculate once per buffered key.
    let mut collect = vec![
        AccessDecl::new("fk_buffer", AccessKind::Read, fk_cells - 1),
        AccessDecl::new("win_state", AccessKind::Read, app_states - 1),
    ];
    if cfg.rdma_enabled {
        collect.push(AccessDecl::new("psn_counter", AccessKind::AddSat, 0));
        collect.push(AccessDecl::new("icrc_state", AccessKind::Write, 0));
    }
    program = program.path(
        PathDecl::new("collect", PacketClass::Recirculated, collect)
            .with_recirc_bound(fk_cells as u64),
    );

    // Clear packets (§4.3): bump the reset counter, zero one index of
    // the application state; the sweep is bounded by the region size.
    program = program.path(
        PathDecl::new(
            "clear",
            PacketClass::Clear,
            vec![
                AccessDecl::new("reset_counter", AccessKind::AddSat, 0),
                AccessDecl::new("win_state", AccessKind::Write, app_states - 1),
            ],
        )
        .with_recirc_bound(app_states as u64),
    );

    // §8 control-plane paths: retransmit/ack serve parked batches from
    // switch-CPU DRAM, os-read uses snapshots — no SALU access on either.
    program = program
        .path(PathDecl::new("retransmit", PacketClass::Retransmit, vec![]))
        .path(PathDecl::new("os-read", PacketClass::OsRead, vec![]));
    program
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omniwindow_program_declares_all_classes() {
        let p = omniwindow_program(&ResourceConfig::default(), 32 * 1024);
        let classes: Vec<PacketClass> = p.paths.iter().map(|p| p.class).collect();
        for c in [
            PacketClass::Normal,
            PacketClass::Clear,
            PacketClass::Recirculated,
            PacketClass::Retransmit,
            PacketClass::OsRead,
        ] {
            assert!(classes.contains(&c), "missing class {c:?}");
        }
    }

    #[test]
    fn rdma_toggle_changes_registers_and_features() {
        let on = omniwindow_program(&ResourceConfig::default(), 1024);
        let off = omniwindow_program(
            &ResourceConfig {
                rdma_enabled: false,
                ..ResourceConfig::default()
            },
            1024,
        );
        assert!(on.find_register("psn_counter").is_some());
        assert!(off.find_register("psn_counter").is_none());
        assert!(off.features.iter().all(|f| f.name != "RDMA opt."));
    }

    #[test]
    fn register_cells_multiply_regions() {
        let r = RegisterDecl::new("x", 2, 1024);
        assert_eq!(r.cells(), 2048);
    }
}
