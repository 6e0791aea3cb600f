//! Pipeline stage placement — deriving Table 2's stage packing.
//!
//! An RMT program is a sequence of match-action *steps*; the compiler
//! assigns steps to physical stages respecting (a) dependency order —
//! a step can share a stage with steps of other features but must come
//! at or after its own feature's previous step — and (b) per-stage
//! resource limits (SRAM, SALUs, VLIW slots, gateways). This module
//! implements that placement two ways, so the "Total stages" row of
//! the resource report is *computed* from the feature steps rather
//! than asserted:
//!
//! * [`place`] — the original greedy first-fit packer. Fast, but a
//!   fixed feature order with no backtracking: it can fragment scarce
//!   resources (SALUs especially) and reject programs that fit.
//! * [`place_optimal`] — dependency-aware branch-and-bound over stage
//!   assignments. It branches longest-remaining-chain first (then by
//!   the step's SALU and SRAM appetite), seeds the search with the
//!   greedy solution as the incumbent so it is **never worse than
//!   greedy**, and stops after a fixed number of expanded nodes
//!   (`MAX_SEARCH_NODES`) — a count, not wall-clock, so every result is
//!   deterministic. On failure it returns a structured
//!   [`PlacementError`] naming the feature, step, and binding
//!   [`ResourceClass`], and whether infeasibility was *proven*
//!   (exhaustive search / lower bound) or the node limit ran out.
//!
//! A successful [`Placement`] can report its [`PackingDensity`] — the
//! per-stage utilisation permille of each resource class across the
//! stages actually used — which is the admission-control currency of
//! the multi-tenant control plane: denser packing is more tenants.
//!
//! Tofino-like per-stage limits (per the public RMT literature the paper
//! cites): 12 stages; tens of KB–MB SRAM per stage; fewer than 8 SALUs
//! per stage; bounded VLIW actions and gateways.

use serde::Serialize;

use ow_common::error::OwError;

use crate::resources::ResourceConfig;

/// One match-action step of a feature (occupies part of one stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Step {
    /// SRAM the step's tables/registers need in this stage (KB).
    pub sram_kb: u32,
    /// SALUs the step uses in this stage.
    pub salus: u32,
    /// VLIW action slots.
    pub vliw: u32,
    /// Gateways (predication units).
    pub gateways: u32,
}

/// Per-stage capacity of the modelled pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StageLimits {
    /// Physical stages in the pipeline.
    pub stages: u32,
    /// SRAM per stage (KB).
    pub sram_kb: u32,
    /// SALUs per stage (the paper: "less than eight").
    pub salus: u32,
    /// VLIW slots per stage.
    pub vliw: u32,
    /// Gateways per stage.
    pub gateways: u32,
}

impl Default for StageLimits {
    fn default() -> Self {
        StageLimits {
            stages: 12,
            sram_kb: 1_280,
            salus: 4,
            vliw: 8,
            gateways: 8,
        }
    }
}

/// A named feature: an ordered list of steps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Feature {
    /// Feature name.
    pub name: String,
    /// Its steps, in dependency order.
    pub steps: Vec<Step>,
}

impl Feature {
    /// Build a feature from a name and its steps in dependency order.
    pub fn new(name: impl Into<String>, steps: Vec<Step>) -> Feature {
        Feature {
            name: name.into(),
            steps,
        }
    }
}

/// The result of placing features onto the pipeline.
#[derive(Debug, Clone, Serialize)]
pub struct Placement {
    /// For each feature, the stage index of each of its steps.
    pub assignments: Vec<(String, Vec<u32>)>,
    /// Number of stages actually used.
    pub stages_used: u32,
    /// Residual capacity per used stage.
    pub residual: Vec<StageLimits>,
    /// How the placement was produced: `"greedy"` (first-fit),
    /// `"greedy-incumbent"` (search kept the greedy solution), or
    /// `"branch-and-bound"` (search improved on greedy or placed a
    /// program greedy rejected).
    pub method: &'static str,
    /// Search nodes expanded producing this placement (0 for greedy).
    pub nodes_explored: u64,
    /// Whether the search ran to completion within its budget, proving
    /// `stages_used` minimal for the dependency model. `false` for bare
    /// greedy and for budget-exhausted searches.
    pub optimal: bool,
}

impl Placement {
    /// Packing density of this placement against `limits`: utilisation
    /// permille of every resource class across the stages actually
    /// used. An empty placement reports zero density.
    pub fn density(&self, limits: StageLimits) -> PackingDensity {
        let used_stages = self.stages_used as u64;
        let spent = |get: fn(&StageLimits) -> u32| -> u64 {
            self.residual
                .iter()
                .map(|r| (get(&limits) - get(r)) as u64)
                .sum()
        };
        let permille = |spent: u64, cap: u32| -> u32 {
            (spent * 1000)
                .checked_div(used_stages * cap as u64)
                .unwrap_or(0) as u32
        };
        PackingDensity {
            stages_used: self.stages_used,
            stages_limit: limits.stages,
            sram_permille: permille(spent(|l| l.sram_kb), limits.sram_kb),
            salu_permille: permille(spent(|l| l.salus), limits.salus),
            vliw_permille: permille(spent(|l| l.vliw), limits.vliw),
            gateway_permille: permille(spent(|l| l.gateways), limits.gateways),
        }
    }
}

/// Per-stage utilisation of a [`Placement`], in permille of each
/// resource class's capacity across the stages actually used. This is
/// the packing-density metric `ow-lint` emits into the verify table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PackingDensity {
    /// Stages the placement occupies.
    pub stages_used: u32,
    /// Physical stages available.
    pub stages_limit: u32,
    /// SRAM utilisation across used stages (permille).
    pub sram_permille: u32,
    /// SALU utilisation across used stages (permille).
    pub salu_permille: u32,
    /// VLIW-slot utilisation across used stages (permille).
    pub vliw_permille: u32,
    /// Gateway utilisation across used stages (permille).
    pub gateway_permille: u32,
}

/// Greedy first-fit placement with dependency order.
///
/// Every feature's step `i+1` is placed at a stage ≥ the stage of step
/// `i` + 1 (stateful dependencies serialise within a feature), while
/// different features pack into the same stages when capacity allows —
/// which is exactly why Table 2's total (8 stages) is below the sum of
/// the per-feature stage counts (16).
pub fn place(features: &[Feature], limits: StageLimits) -> Result<Placement, OwError> {
    let n = limits.stages as usize;
    let mut free: Vec<StageLimits> = vec![limits; n];
    let mut assignments = Vec::with_capacity(features.len());
    let mut stages_used = 0u32;

    for feature in features {
        let mut stage_of_steps = Vec::with_capacity(feature.steps.len());
        let mut next_stage = 0usize;
        for (i, step) in feature.steps.iter().enumerate() {
            let placed = free
                .iter()
                .enumerate()
                .skip(next_stage)
                .find(|(_, f)| {
                    f.sram_kb >= step.sram_kb
                        && f.salus >= step.salus
                        && f.vliw >= step.vliw
                        && f.gateways >= step.gateways
                })
                .map(|(s, _)| s);
            let s = placed.ok_or_else(|| {
                OwError::ResourceExhausted(format!(
                    "feature '{}' step {} does not fit in {} stages",
                    feature.name, i, n
                ))
            })?;
            let f = &mut free[s];
            f.sram_kb -= step.sram_kb;
            f.salus -= step.salus;
            f.vliw -= step.vliw;
            f.gateways -= step.gateways;
            stage_of_steps.push(s as u32);
            stages_used = stages_used.max(s as u32 + 1);
            next_stage = s + 1; // dependency: next step strictly later
        }
        assignments.push((feature.name.clone(), stage_of_steps));
    }

    Ok(Placement {
        assignments,
        stages_used,
        residual: free.into_iter().take(stages_used as usize).collect(),
        method: "greedy",
        nodes_explored: 0,
        optimal: false,
    })
}

/// The resource class that binds a placement decision. `Stages` covers
/// dependency-chain exhaustion (no stage late enough exists at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ResourceClass {
    /// Physical stage count / dependency depth.
    Stages,
    /// Per-stage SRAM (KB).
    Sram,
    /// Per-stage SALUs.
    Salu,
    /// Per-stage VLIW action slots.
    Vliw,
    /// Per-stage gateways.
    Gateway,
}

impl ResourceClass {
    /// Stable lowercase name used in diagnostics.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            ResourceClass::Stages => "stages",
            ResourceClass::Sram => "sram",
            ResourceClass::Salu => "salu",
            ResourceClass::Vliw => "vliw",
            ResourceClass::Gateway => "gateway",
        }
    }
}

impl core::fmt::Display for ResourceClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Nodes [`place_optimal`] may expand before it keeps the best
/// incumbent found. Counting nodes (not wall-clock) keeps the output
/// byte-identical across machines and runs. Large enough to prove
/// optimality for every `ow-verify` catalog program, small enough that
/// `ow-lint` over the whole catalog stays well under a second.
const MAX_SEARCH_NODES: u64 = 200_000;

/// Why [`place_optimal`] could not place a program.
#[derive(Debug, Clone)]
pub struct PlacementError {
    /// Feature whose step hit the dead end deepest into the search.
    pub feature: String,
    /// Step index within that feature.
    pub step: usize,
    /// The resource class that blocked the most candidate stages for
    /// that step.
    pub resource: ResourceClass,
    /// `true` when infeasibility is proven (a lower bound exceeds the
    /// stage count, or the search exhausted the whole tree within
    /// `MAX_SEARCH_NODES`); `false` when the node limit ran out first.
    pub proven: bool,
    /// Human-readable proof / progress detail.
    pub detail: String,
}

impl core::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "feature '{}' step {} cannot be placed ({} exhausted; {}): {}",
            self.feature,
            self.step,
            self.resource,
            if self.proven {
                "infeasibility proven"
            } else {
                "search budget exhausted"
            },
            self.detail
        )
    }
}

impl From<PlacementError> for OwError {
    fn from(e: PlacementError) -> OwError {
        OwError::ResourceExhausted(e.to_string())
    }
}

/// One flattened step with its search metadata.
struct FlatStep {
    feature: usize,
    pos: usize,
    step: Step,
    /// Steps after this one in its feature's chain.
    chain_rem: u32,
}

fn fits(free: &StageLimits, s: &Step) -> bool {
    free.sram_kb >= s.sram_kb
        && free.salus >= s.salus
        && free.vliw >= s.vliw
        && free.gateways >= s.gateways
}

fn consume(free: &mut StageLimits, s: &Step) {
    free.sram_kb -= s.sram_kb;
    free.salus -= s.salus;
    free.vliw -= s.vliw;
    free.gateways -= s.gateways;
}

fn release(free: &mut StageLimits, s: &Step) {
    free.sram_kb += s.sram_kb;
    free.salus += s.salus;
    free.vliw += s.vliw;
    free.gateways += s.gateways;
}

/// Mutable state of one branch-and-bound run.
struct Search<'a> {
    flat: &'a [FlatStep],
    order: &'a [usize],
    n_stages: usize,
    free: Vec<StageLimits>,
    stage_of: Vec<u32>,
    /// Best complete assignment found so far (stage per global step).
    best: Option<Vec<u32>>,
    /// Stage count of the incumbent (greedy or best-found); solutions
    /// must beat it strictly.
    best_cost: u32,
    nodes: u64,
    max_nodes: u64,
    exhausted: bool,
    /// Deepest dead end seen: (depth, global step id, binding class).
    deepest_fail: Option<(usize, usize, ResourceClass)>,
}

impl Search<'_> {
    /// DFS over stage choices for `order[i..]`. `cur_used` is the
    /// stage count implied by the steps assigned so far.
    fn dfs(&mut self, i: usize, cur_used: u32) {
        if self.exhausted {
            return;
        }
        if i == self.order.len() {
            // Pruning guarantees cur_used < best_cost here.
            self.best = Some(self.stage_of.clone());
            self.best_cost = cur_used;
            return;
        }
        let sid = self.order[i];
        let st = &self.flat[sid];
        let earliest = if st.pos == 0 {
            0
        } else {
            self.stage_of[sid - 1] as usize + 1
        };
        let mut any = false;
        // Track, per resource class, how many candidate stages it
        // blocked — the dead-end diagnostic names the dominant one.
        let mut blocked = [0u32; 4]; // sram, salu, vliw, gateway
        for s in earliest..self.n_stages {
            // Cost bound: placing at stage s forces this feature's
            // remaining chain to end at stage ≥ s + chain_rem, so the
            // final count is ≥ max(cur_used, s + chain_rem + 1). The
            // bound grows with s — once it reaches the incumbent, no
            // later stage can improve either.
            let projected = cur_used.max(s as u32 + st.chain_rem + 1);
            if projected >= self.best_cost {
                break;
            }
            if !fits(&self.free[s], &st.step) {
                let f = &self.free[s];
                if f.sram_kb < st.step.sram_kb {
                    blocked[0] += 1;
                } else if f.salus < st.step.salus {
                    blocked[1] += 1;
                } else if f.vliw < st.step.vliw {
                    blocked[2] += 1;
                } else {
                    blocked[3] += 1;
                }
                continue;
            }
            any = true;
            self.nodes += 1;
            if self.nodes > self.max_nodes {
                self.exhausted = true;
                return;
            }
            consume(&mut self.free[s], &st.step);
            self.stage_of[sid] = s as u32;
            self.dfs(i + 1, cur_used.max(s as u32 + 1));
            self.stage_of[sid] = u32::MAX;
            release(&mut self.free[s], &st.step);
            if self.exhausted {
                return;
            }
        }
        if !any {
            let class = if blocked.iter().all(|&b| b == 0) {
                // No candidate stage existed at all: the dependency
                // chain (or the incumbent bound) left no room.
                ResourceClass::Stages
            } else {
                let idx = blocked
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &b)| (b, usize::MAX - i))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                [
                    ResourceClass::Sram,
                    ResourceClass::Salu,
                    ResourceClass::Vliw,
                    ResourceClass::Gateway,
                ][idx]
            };
            match self.deepest_fail {
                Some((d, _, _)) if d >= i => {}
                _ => self.deepest_fail = Some((i, sid, class)),
            }
        }
    }
}

/// Dependency-aware branch-and-bound stage placement.
///
/// Searches stage assignments for every step of `features`, honouring
/// intra-feature precedence and per-stage capacity, and minimising the
/// number of stages used. The greedy [`place`] solution (when one
/// exists) seeds the incumbent, so the result **never uses more stages
/// than greedy**; when greedy fails, the search still explores the
/// full assignment space and admits any program that fits — strictly
/// more permissive than first-fit. The search expands at most
/// `MAX_SEARCH_NODES` nodes, which makes it — and therefore every
/// diagnostic and density figure derived from it — deterministic.
pub fn place_optimal(
    features: &[Feature],
    limits: StageLimits,
) -> Result<Placement, PlacementError> {
    branch_and_bound(features, limits, MAX_SEARCH_NODES)
}

/// [`place_optimal`] with an explicit node limit.
fn branch_and_bound(
    features: &[Feature],
    limits: StageLimits,
    max_nodes: u64,
) -> Result<Placement, PlacementError> {
    let n_stages = limits.stages as usize;
    let total_steps: usize = features.iter().map(|f| f.steps.len()).sum();
    if total_steps == 0 {
        return Ok(Placement {
            assignments: features.iter().map(|f| (f.name.clone(), vec![])).collect(),
            stages_used: 0,
            residual: vec![],
            method: "branch-and-bound",
            nodes_explored: 0,
            optimal: true,
        });
    }

    // --- Fast infeasibility proofs (lower bounds) ------------------
    for f in features {
        if f.steps.len() > n_stages {
            return Err(PlacementError {
                feature: f.name.clone(),
                step: n_stages.min(f.steps.len().saturating_sub(1)),
                resource: ResourceClass::Stages,
                proven: true,
                detail: format!(
                    "a {}-step dependency chain cannot serialise through {} stages",
                    f.steps.len(),
                    n_stages
                ),
            });
        }
        for (si, s) in f.steps.iter().enumerate() {
            let class = if s.sram_kb > limits.sram_kb {
                Some(ResourceClass::Sram)
            } else if s.salus > limits.salus {
                Some(ResourceClass::Salu)
            } else if s.vliw > limits.vliw {
                Some(ResourceClass::Vliw)
            } else if s.gateways > limits.gateways {
                Some(ResourceClass::Gateway)
            } else {
                None
            };
            if let Some(resource) = class {
                return Err(PlacementError {
                    feature: f.name.clone(),
                    step: si,
                    resource,
                    proven: true,
                    detail: format!("the step alone exceeds a whole stage's {resource} budget"),
                });
            }
        }
    }
    let totals = features.iter().flat_map(|f| f.steps.iter()).fold(
        (0u64, 0u64, 0u64, 0u64),
        |(a, b, c, d), s| {
            (
                a + s.sram_kb as u64,
                b + s.salus as u64,
                c + s.vliw as u64,
                d + s.gateways as u64,
            )
        },
    );
    for (total, cap, resource) in [
        (totals.0, limits.sram_kb, ResourceClass::Sram),
        (totals.1, limits.salus, ResourceClass::Salu),
        (totals.2, limits.vliw, ResourceClass::Vliw),
        (totals.3, limits.gateways, ResourceClass::Gateway),
    ] {
        let need = if cap == 0 {
            if total > 0 {
                u64::MAX
            } else {
                0
            }
        } else {
            total.div_ceil(cap as u64)
        };
        if need > n_stages as u64 {
            return Err(PlacementError {
                feature: features[0].name.clone(),
                step: 0,
                resource,
                proven: true,
                detail: format!(
                    "whole-program demand needs ≥ {need} stages of {resource} but the \
                     pipeline has {n_stages}"
                ),
            });
        }
    }

    // --- Flatten + branching order ---------------------------------
    let mut flat: Vec<FlatStep> = Vec::with_capacity(total_steps);
    for (fi, f) in features.iter().enumerate() {
        for (si, s) in f.steps.iter().enumerate() {
            flat.push(FlatStep {
                feature: fi,
                pos: si,
                step: *s,
                chain_rem: (f.steps.len() - 1 - si) as u32,
            });
        }
    }
    // Longest-chain-first (critical path), then resource weight. Within
    // a feature `chain_rem` strictly decreases with position, so every
    // step sorts after its predecessor and the order is automatically
    // precedence-compatible.
    let mut order: Vec<usize> = (0..total_steps).collect();
    order.sort_by_key(|&i| {
        let st = &flat[i];
        (
            core::cmp::Reverse(st.chain_rem),
            core::cmp::Reverse(st.step.salus),
            core::cmp::Reverse(st.step.sram_kb),
            st.feature,
            st.pos,
        )
    });

    // --- Incumbent -------------------------------------------------
    let greedy = place(features, limits).ok();
    let best_cost = greedy
        .as_ref()
        .map(|g| g.stages_used)
        .unwrap_or(limits.stages + 1);

    let mut search = Search {
        flat: &flat,
        order: &order,
        n_stages,
        free: vec![limits; n_stages],
        stage_of: vec![u32::MAX; total_steps],
        best: None,
        best_cost,
        nodes: 0,
        max_nodes,
        exhausted: false,
        deepest_fail: None,
    };
    search.dfs(0, 0);

    let nodes = search.nodes;
    let complete = !search.exhausted;
    if let Some(stage_of) = search.best {
        return Ok(build_placement(
            features,
            limits,
            &stage_of,
            "branch-and-bound",
            nodes,
            complete,
        ));
    }
    if let Some(mut g) = greedy {
        // Search found nothing better (or ran out of budget): the
        // greedy incumbent stands, now annotated with what the search
        // proved about it.
        g.method = "greedy-incumbent";
        g.nodes_explored = nodes;
        g.optimal = complete;
        return Ok(g);
    }
    let (_, sid, resource) = search
        .deepest_fail
        .unwrap_or((0, order[0], ResourceClass::Stages));
    let st = &flat[sid];
    Err(PlacementError {
        feature: features[st.feature].name.clone(),
        step: st.pos,
        resource,
        proven: complete,
        detail: format!(
            "explored {nodes} nodes over {total_steps} steps × {n_stages} stages \
             without a feasible assignment"
        ),
    })
}

/// Assemble a [`Placement`] from a complete per-step stage assignment.
fn build_placement(
    features: &[Feature],
    limits: StageLimits,
    stage_of: &[u32],
    method: &'static str,
    nodes_explored: u64,
    optimal: bool,
) -> Placement {
    let mut free = vec![limits; limits.stages as usize];
    let mut assignments = Vec::with_capacity(features.len());
    let mut stages_used = 0u32;
    let mut gid = 0usize;
    for f in features {
        let mut stages = Vec::with_capacity(f.steps.len());
        for s in &f.steps {
            let stage = stage_of[gid];
            consume(&mut free[stage as usize], s);
            stages_used = stages_used.max(stage + 1);
            stages.push(stage);
            gid += 1;
        }
        assignments.push((f.name.clone(), stages));
    }
    Placement {
        assignments,
        stages_used,
        residual: free.into_iter().take(stages_used as usize).collect(),
        method,
        nodes_explored,
        optimal,
    }
}

/// The five Table-2 rows every OmniWindow pipeline carries whatever
/// application it wraps, in the order `[Signal, Consistency model,
/// Flowkey tracking, AFR generation, In-switch reset]` — the one
/// definition of their steps. [`omniwindow_features`] builds the Exp#5
/// program from them and `ow-verify` builds the program a concrete
/// switch deploys; each inserts its own rows between them.
///
/// Flowkey tracking is one step per Bloom hash (each reads/writes one
/// register array) plus the `fk_buffer` append step, which carries the
/// rest of `fk_sram_kb`.
pub fn framework_features(fk_sram_kb: u32, bloom_hashes: u32) -> [Feature; 5] {
    let per_hash_kb = fk_sram_kb / (bloom_hashes + 1);
    let mut fk_steps: Vec<Step> = (0..bloom_hashes)
        .map(|_| Step {
            sram_kb: per_hash_kb,
            salus: 1,
            vliw: 2,
            gateways: 2,
        })
        .collect();
    fk_steps.push(Step {
        sram_kb: fk_sram_kb - per_hash_kb * bloom_hashes,
        salus: 1,
        vliw: 1,
        gateways: 1,
    });
    [
        Feature::new(
            "Signal",
            vec![Step {
                sram_kb: 32,
                salus: 1,
                vliw: 3,
                gateways: 2,
            }],
        ),
        Feature::new(
            "Consistency model",
            vec![Step {
                sram_kb: 0,
                salus: 0,
                vliw: 2,
                gateways: 1,
            }],
        ),
        Feature::new("Flowkey tracking", fk_steps),
        Feature::new(
            "AFR generation",
            vec![Step {
                sram_kb: 0,
                salus: 0,
                vliw: 4,
                gateways: 3,
            }],
        ),
        Feature::new(
            "In-switch reset",
            vec![
                Step {
                    sram_kb: 32,
                    salus: 1,
                    vliw: 2,
                    gateways: 2,
                }, // reset_counter
                Step {
                    sram_kb: 0,
                    salus: 0,
                    vliw: 2,
                    gateways: 2,
                }, // index rewrite
                Step {
                    sram_kb: 0,
                    salus: 0,
                    vliw: 1,
                    gateways: 1,
                }, // drop/recirc select
            ],
        ),
    ]
}

/// The OmniWindow feature steps of the Exp#5 build (Q1 configuration),
/// broken into the per-stage steps the P4 program serialises — the one
/// definition of Table 2: the resource report's rows are the sums of
/// these steps and the verifier's program is built from them.
///
/// Sizes that depend on the configuration (Bloom filter, `fk_buffer`,
/// the RDMA address MAT) are computed here; fixed control logic
/// (comparisons, header rewrites) is charged with constants taken from
/// the paper's measured P4 build. "RDMA opt." is omitted when disabled.
pub fn omniwindow_features(cfg: &ResourceConfig) -> Vec<Feature> {
    let fk_sram_kb = cfg.bloom_kb + (cfg.fk_capacity * 13).div_ceil(1024) + 8;
    let [signal, consistency, flowkey_tracking, afr_generation, in_switch_reset] =
        framework_features(fk_sram_kb, cfg.bloom_hashes);
    let address_location = Feature::new(
        "Address location",
        vec![Step {
            sram_kb: 16,
            salus: 0,
            vliw: 2,
            gateways: 0,
        }],
    );
    let mut features = vec![
        signal,
        consistency,
        address_location,
        flowkey_tracking,
        afr_generation,
    ];
    if cfg.rdma_enabled {
        features.push(Feature::new(
            "RDMA opt.",
            vec![
                Step {
                    sram_kb: (cfg.rdma_hot_keys * 29).div_ceil(1024),
                    salus: 0,
                    vliw: 4,
                    gateways: 3,
                }, // address MAT
                Step {
                    sram_kb: 0,
                    salus: 1,
                    vliw: 4,
                    gateways: 3,
                }, // PSN counter
                Step {
                    sram_kb: 0,
                    salus: 1,
                    vliw: 4,
                    gateways: 3,
                }, // ICRC state
                Step {
                    sram_kb: 0,
                    salus: 0,
                    vliw: 4,
                    gateways: 2,
                }, // header build
                Step {
                    sram_kb: 0,
                    salus: 0,
                    vliw: 4,
                    gateways: 2,
                }, // header build
            ],
        ));
    }
    features.push(in_switch_reset);
    features
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp5_build_packs_into_at_most_eight_stages() {
        // The Exp#5 configuration (624 KB flowkey SRAM, 3 Bloom hashes,
        // 928 KB address MAT) packs into at most 8 of the 12 stages —
        // the paper's measured total — because features share stages.
        // The greedy packer is a *lower bound* on the measured build
        // (which also shares the pipeline with Q1 + switch.p4 and their
        // cross-table dependencies), so it may do slightly better.
        let features = omniwindow_features(&ResourceConfig::default());
        let placement = place(&features, StageLimits::default()).expect("fits");
        assert!(
            (6..=8).contains(&placement.stages_used),
            "stages {} — {:?}",
            placement.stages_used,
            placement.assignments
        );
        // Per-feature stage counts sum to 16 — sharing saves half.
        let step_stages: usize = features.iter().map(|f| f.steps.len()).sum();
        assert_eq!(step_stages, 16);
        assert!(placement.stages_used as usize <= step_stages / 2);
    }

    #[test]
    fn dependencies_are_serialised() {
        let features = omniwindow_features(&ResourceConfig::default());
        let placement = place(&features, StageLimits::default()).unwrap();
        for (name, stages) in &placement.assignments {
            for w in stages.windows(2) {
                assert!(w[1] > w[0], "{name}: steps out of order: {stages:?}");
            }
        }
    }

    #[test]
    fn capacity_is_respected() {
        let features = omniwindow_features(&ResourceConfig::default());
        let limits = StageLimits::default();
        let placement = place(&features, limits).unwrap();
        for (s, residual) in placement.residual.iter().enumerate() {
            assert!(residual.salus <= limits.salus, "stage {s}");
            assert!(residual.sram_kb <= limits.sram_kb, "stage {s}");
        }
        // SALUs used overall = 8 (the Table 2 total).
        let used_salus: u32 = placement
            .residual
            .iter()
            .map(|r| limits.salus - r.salus)
            .sum();
        assert_eq!(used_salus, 8);
    }

    #[test]
    fn oversized_feature_is_rejected() {
        let features = vec![Feature {
            name: "huge".into(),
            steps: vec![
                Step {
                    sram_kb: 10_000, // exceeds any stage
                    salus: 1,
                    vliw: 1,
                    gateways: 1,
                };
                1
            ],
        }];
        assert!(place(&features, StageLimits::default()).is_err());
    }

    #[test]
    fn too_many_dependent_steps_rejected() {
        // 13 dependent steps cannot serialise through 12 stages.
        let features = vec![Feature {
            name: "deep".into(),
            steps: vec![
                Step {
                    sram_kb: 1,
                    salus: 0,
                    vliw: 1,
                    gateways: 0,
                };
                13
            ],
        }];
        assert!(place(&features, StageLimits::default()).is_err());
    }

    /// The regression shape of the optimizer: greedy burns the only
    /// SALU of stage 0 on the short feature and then cannot finish the
    /// chained feature; branch-and-bound reorders and fits.
    fn greedy_hostile_features() -> Vec<Feature> {
        vec![
            Feature::new(
                "short",
                vec![Step {
                    sram_kb: 8,
                    salus: 1,
                    vliw: 1,
                    gateways: 1,
                }],
            ),
            Feature::new(
                "chained",
                vec![
                    Step {
                        sram_kb: 8,
                        salus: 1,
                        vliw: 1,
                        gateways: 1,
                    },
                    Step {
                        sram_kb: 8,
                        salus: 1,
                        vliw: 1,
                        gateways: 1,
                    },
                    Step {
                        sram_kb: 0,
                        salus: 0,
                        vliw: 2,
                        gateways: 1,
                    },
                ],
            ),
        ]
    }

    fn tight_limits() -> StageLimits {
        StageLimits {
            stages: 3,
            sram_kb: 128,
            salus: 1,
            vliw: 4,
            gateways: 4,
        }
    }

    #[test]
    fn search_places_programs_greedy_rejects() {
        let features = greedy_hostile_features();
        let limits = tight_limits();
        assert!(place(&features, limits).is_err(), "greedy must reject");
        let p = place_optimal(&features, limits).expect("branch-and-bound fits");
        assert_eq!(p.stages_used, 3);
        assert_eq!(p.method, "branch-and-bound");
        assert!(p.optimal, "the search space is tiny; must be proven");
        // Soundness: chains strictly increase, capacity respected.
        for (name, stages) in &p.assignments {
            for w in stages.windows(2) {
                assert!(w[1] > w[0], "{name}: {stages:?}");
            }
        }
        for r in &p.residual {
            assert!(r.salus <= limits.salus && r.vliw <= limits.vliw);
        }
    }

    #[test]
    fn search_never_uses_more_stages_than_greedy() {
        let features = omniwindow_features(&ResourceConfig::default());
        let greedy = place(&features, StageLimits::default()).unwrap();
        let opt = place_optimal(&features, StageLimits::default()).unwrap();
        assert!(opt.stages_used <= greedy.stages_used);
    }

    #[test]
    fn search_is_deterministic() {
        let features = omniwindow_features(&ResourceConfig::default());
        let a = place_optimal(&features, StageLimits::default()).unwrap();
        let b = place_optimal(&features, StageLimits::default()).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn exhausted_budget_keeps_the_greedy_incumbent() {
        let features = omniwindow_features(&ResourceConfig::default());
        let greedy = place(&features, StageLimits::default()).unwrap();
        let p = branch_and_bound(&features, StageLimits::default(), 1)
            .expect("incumbent survives budget exhaustion");
        assert_eq!(p.stages_used, greedy.stages_used);
        assert!(!p.optimal, "one node proves nothing");
    }

    #[test]
    fn infeasibility_proof_names_feature_step_and_resource() {
        // Totals fit (2 SALUs ≤ 2 stages × 1, 4 VLIW ≤ 2 × 2) and every
        // step fits a bare stage, but the combination cannot pack: the
        // chained feature occupies both stages and leaves no SALU+VLIW
        // pair for the rider.
        let limits = StageLimits {
            stages: 2,
            sram_kb: 64,
            salus: 1,
            vliw: 2,
            gateways: 4,
        };
        let features = vec![
            Feature::new(
                "deep",
                vec![
                    Step {
                        sram_kb: 0,
                        salus: 1,
                        vliw: 1,
                        gateways: 1,
                    },
                    Step {
                        sram_kb: 0,
                        salus: 0,
                        vliw: 2,
                        gateways: 1,
                    },
                ],
            ),
            Feature::new(
                "rider",
                vec![Step {
                    sram_kb: 0,
                    salus: 1,
                    vliw: 1,
                    gateways: 1,
                }],
            ),
        ];
        let err = place_optimal(&features, limits).unwrap_err();
        assert!(err.proven, "the tree is tiny; must be exhausted");
        assert!(err.feature == "deep" || err.feature == "rider", "{err}");
        assert!(
            matches!(err.resource, ResourceClass::Salu | ResourceClass::Vliw),
            "{err}"
        );
        let rendered = err.to_string();
        assert!(rendered.contains("infeasibility proven"), "{rendered}");
    }

    #[test]
    fn lower_bound_proof_names_the_scarce_resource() {
        // 13 single-SALU steps across features of length 1 cannot fit
        // 12 stages × 1 SALU: the totals bound proves it without search.
        let features: Vec<Feature> = (0..13)
            .map(|i| {
                Feature::new(
                    format!("f{i}"),
                    vec![Step {
                        sram_kb: 0,
                        salus: 1,
                        vliw: 1,
                        gateways: 0,
                    }],
                )
            })
            .collect();
        let limits = StageLimits {
            salus: 1,
            ..StageLimits::default()
        };
        let err = place_optimal(&features, limits).unwrap_err();
        assert_eq!(err.resource, ResourceClass::Salu);
        assert!(err.proven);
        assert!(err.detail.contains("13 stages"), "{}", err.detail);
    }

    #[test]
    fn density_reports_permille_utilisation() {
        let features = greedy_hostile_features();
        let limits = tight_limits();
        let p = place_optimal(&features, limits).unwrap();
        let d = p.density(limits);
        assert_eq!(d.stages_used, 3);
        assert_eq!(d.stages_limit, 3);
        // 3 SALUs over 3 stages of 1 → fully saturated.
        assert_eq!(d.salu_permille, 1000);
        // 5 VLIW slots over 3 stages of 4 → ⌊5000/12⌋ = 416 permille.
        assert_eq!(d.vliw_permille, 416);
        assert!(d.sram_permille <= 1000 && d.gateway_permille <= 1000);
    }

    #[test]
    fn empty_feature_set_places_trivially() {
        let p = place_optimal(&[], StageLimits::default()).unwrap();
        assert_eq!(p.stages_used, 0);
        assert!(p.optimal);
        assert_eq!(p.density(StageLimits::default()).salu_permille, 0);
    }

    #[test]
    fn tighter_salu_budget_spreads_stages() {
        // With only 2 SALUs per stage the same program needs more stages.
        let features = omniwindow_features(&ResourceConfig::default());
        let tight = StageLimits {
            salus: 1,
            ..StageLimits::default()
        };
        let loose = place(&features, StageLimits::default()).unwrap();
        let spread = place(&features, tight).unwrap();
        assert!(spread.stages_used > loose.stages_used);
    }
}
