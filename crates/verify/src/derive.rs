//! Deriving a [`PipelineProgram`] from a concrete runtime
//! configuration, and [`verified_switch`] — the front door the rest of
//! the workspace uses to build a [`Switch`].
//!
//! `program_for_switch` reads the facts a [`SwitchConfig`] and its
//! application's [`SketchMeta`] already state — Bloom filter geometry,
//! `fk_buffer` capacity, application array count and width — and writes
//! them down as the IR the verifier can reason about. Nothing is
//! invented: every register array, step, and index bound is computed
//! from the same numbers the runtime uses, so a verdict about the
//! program is a verdict about the deployment.

use ow_common::error::OwError;
use ow_sketch::SketchMeta;
use ow_switch::app::DataPlaneApp;
use ow_switch::flowkey::FlowkeyTracker;
use ow_switch::placement::{framework_features, Feature, StageLimits, Step};
use ow_switch::switch::{Switch, SwitchConfig};

use crate::diag::{Diagnostic, ErrorCode, VerifyReport};
use crate::ir::{AccessDecl, AccessKind, PacketClass, PathDecl, PipelineProgram, RegisterDecl};
use crate::verify::verify;

/// Derive the static pipeline program that a [`SwitchConfig`] wrapped
/// around an application with `meta` / `app_states` actually deploys.
pub(crate) fn program_for_switch(
    cfg: &SwitchConfig,
    meta: &SketchMeta,
    app_states: usize,
) -> PipelineProgram {
    let app_states = app_states.max(1);
    let fk_cells = cfg.fk_capacity.max(1);

    // Read the Bloom geometry off the exact tracker the switch builds.
    let tracker = FlowkeyTracker::new(cfg.fk_capacity, cfg.expected_flows, cfg.seed);
    let bloom = tracker.bloom_meta();
    let hashes = bloom.hash_units.max(1);
    // On hardware a k-hash Bloom filter is k register arrays (one SALU
    // each); split the simulator's single bit array accordingly.
    let bloom_cells = (bloom.memory_bytes * 8 / 32).div_ceil(hashes).max(1);
    // Both regions' tracking state lives on-chip simultaneously.
    let fk_sram = ((2 * tracker.memory_bytes()).div_ceil(1024)) as u32;
    let app_sram_per_array = ((2 * app_states * 4)
        .div_ceil(1024)
        .div_ceil(meta.register_arrays.max(1))) as u32;

    let mut program = PipelineProgram::new(
        format!(
            "switch({},fk={},flows={})",
            meta.name, cfg.fk_capacity, cfg.expected_flows
        ),
        StageLimits::default(),
    )
    .register(RegisterDecl::new("signal_state", 1, 1))
    .register(RegisterDecl::new("fk_buffer", 2, fk_cells))
    .register(RegisterDecl::new("reset_counter", 1, 1));
    for h in 0..hashes {
        program = program.register(RegisterDecl::new(format!("bloom_{h}"), 2, bloom_cells));
    }
    for a in 0..meta.register_arrays.max(1) {
        program = program.register(RegisterDecl::new(format!("app_arr{a}"), 2, app_states));
    }

    // Features, in the Table-2 shapes: signal + consistency first, then
    // flowkey tracking, the application's own update steps, AFR
    // generation, and the in-switch reset chain.
    let [signal, consistency, flowkey_tracking, afr_generation, in_switch_reset] =
        framework_features(fk_sram, hashes as u32);
    let app = Feature::new(
        meta.name,
        (0..meta.register_arrays.max(1))
            .map(|_| Step {
                sram_kb: app_sram_per_array,
                salus: 1,
                vliw: 2,
                gateways: 1,
            })
            .collect(),
    );
    program.features.extend([
        signal,
        consistency,
        flowkey_tracking,
        app,
        afr_generation,
        in_switch_reset,
    ]);

    // Normal measured traffic: signal check, Bloom dedup on every hash,
    // fk_buffer append, one update per application array.
    let mut normal = vec![
        AccessDecl::new("signal_state", AccessKind::Max, 0),
        AccessDecl::new("fk_buffer", AccessKind::Write, fk_cells - 1),
    ];
    for h in 0..hashes {
        normal.push(AccessDecl::new(
            format!("bloom_{h}"),
            AccessKind::Max,
            bloom_cells - 1,
        ));
    }
    for a in 0..meta.register_arrays.max(1) {
        normal.push(AccessDecl::new(
            format!("app_arr{a}"),
            AccessKind::AddSat,
            app_states - 1,
        ));
    }
    program = program.path(PathDecl::new("normal", PacketClass::Normal, normal));

    // Collection packets: enumerate fk_buffer, query the first app array
    // (the AFR statistic); one recirculation per buffered key.
    program = program.path(
        PathDecl::new(
            "collect",
            PacketClass::Recirculated,
            vec![
                AccessDecl::new("fk_buffer", AccessKind::Read, fk_cells - 1),
                AccessDecl::new("app_arr0", AccessKind::Read, app_states - 1),
            ],
        )
        .with_recirc_bound(fk_cells as u64),
    );

    // Clear packets: bump the progress counter, zero one index of each
    // application array; bounded by the region size.
    let mut clear = vec![AccessDecl::new("reset_counter", AccessKind::AddSat, 0)];
    for a in 0..meta.register_arrays.max(1) {
        clear.push(AccessDecl::new(
            format!("app_arr{a}"),
            AccessKind::Write,
            app_states - 1,
        ));
    }
    program = program.path(
        PathDecl::new("clear", PacketClass::Clear, clear).with_recirc_bound(app_states as u64),
    );

    // §8 control-plane paths: snapshot reads only, no SALU access.
    program
        .path(PathDecl::new("retransmit", PacketClass::Retransmit, vec![]))
        .path(PathDecl::new("os-read", PacketClass::OsRead, vec![]))
}

/// Statically verify the pipeline a `(cfg, app)` pair deploys, then
/// build the switch. This is the supported construction path: examples,
/// tests, the benchmark harness, and the network simulator all come
/// through here, so no unverified pipeline ever runs.
pub fn verified_switch<A: DataPlaneApp>(
    cfg: SwitchConfig,
    region_a: A,
    region_b: A,
) -> Result<Switch<A>, Box<VerifyReport>> {
    let program = program_for_switch(&cfg, &region_a.meta(), region_a.states_per_array());
    let witness = verify(&program)?;
    witness
        .build_switch(cfg, region_a, region_b)
        .map_err(|e| Box::new(mismatch_report(witness.program().name.clone(), e)))
}

/// Wrap a witness/configuration mismatch as a one-diagnostic report so
/// callers handle a single error type.
fn mismatch_report(program: String, err: OwError) -> VerifyReport {
    VerifyReport {
        program,
        ok: false,
        stages_used: 0,
        placement_method: String::new(),
        density: None,
        totals: Default::default(),
        diagnostics: vec![Diagnostic::error(
            ErrorCode::ConfigMismatch,
            "build_switch".to_string(),
            err.to_string(),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::flowkey::KeyKind;
    use ow_sketch::CountMin;
    use ow_switch::app::FrequencyApp;

    fn quick_cfg() -> SwitchConfig {
        SwitchConfig {
            fk_capacity: 1024,
            expected_flows: 4096,
            ..SwitchConfig::default()
        }
    }

    fn app(seed: u64) -> FrequencyApp<CountMin> {
        FrequencyApp::new(CountMin::new(2, 4096, seed), KeyKind::SrcIp, false)
    }

    #[test]
    fn derived_program_verifies_and_builds() {
        let cfg = quick_cfg();
        let sw = verified_switch(cfg, app(1), app(1)).expect("verifies");
        // The pipeline actually works.
        drop(sw);
    }

    #[test]
    fn derived_program_matches_runtime_geometry() {
        let cfg = quick_cfg();
        let a = app(1);
        let p = program_for_switch(&cfg, &a.meta(), a.states_per_array());
        let fk = p.find_register("fk_buffer").unwrap();
        assert_eq!(fk.region_cells, 1024);
        assert_eq!(fk.regions, 2);
        let arr = p.find_register("app_arr0").unwrap();
        assert_eq!(arr.region_cells, a.states_per_array());
        // One bloom array per hash the real filter performs.
        let bloom = FlowkeyTracker::new(cfg.fk_capacity, cfg.expected_flows, cfg.seed).bloom_meta();
        for h in 0..bloom.hash_units {
            assert!(p.find_register(&format!("bloom_{h}")).is_some());
        }
    }
}
