//! From-scratch sketch library for OmniWindow-RS.
//!
//! Implements every streaming summary the paper's evaluation uses
//! (§9, Exp#2/Exp#9/Exp#10), all behind small typed APIs plus a common
//! [`SketchMeta`] resource descriptor used by the switch resource
//! accountant:
//!
//! | Module | Structure | Paper role |
//! |---|---|---|
//! | [`cm`] | Count-Min Sketch (Cormode & Muthukrishnan) | per-flow size (Q10), Exp#6 |
//! | [`sumax`] | SuMax Sketch (LightGuardian) | per-flow size (Q10) |
//! | [`mv`] | MV-Sketch (Tang et al.) | heavy hitters (Q9), Exp#10 |
//! | [`hashpipe`] | HashPipe (Sivaraman et al.) | heavy hitters (Q9) |
//! | [`spread`] | SpreadSketch (Tang et al.) | super-spreaders (Q8) |
//! | [`vbf`] | Vector Bloom Filter (Liu et al.) | super-spreaders (Q8) |
//! | [`lc`] | Linear Counting (Whang et al.) | flow cardinality (Q11) |
//! | [`hll`] | HyperLogLog (Heule et al. practice variant) | flow cardinality (Q11) |
//! | [`bloom`] | Bloom filter | flowkey tracking (Algorithm 1) |
//! | [`elastic`] | Elastic Sketch (Yang et al.) | heavy-key telemetry (§4.2 integration) |
//! | [`flowradar`] | FlowRadar (Li et al.) | the §8 state-migration path (no data-plane query) |
//! | [`iblt`] | Invertible Bloom Lookup Table over 128-bit ids | LossRadar packet digests (Exp#9) |
//!
//! Every structure is deterministic given a hash seed, supports `reset()`
//! (the operation OmniWindow's clear packets perform region-by-region),
//! and reports its register-array footprint via [`SketchMeta`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bloom;
pub mod cm;
pub mod elastic;
pub mod flowradar;
pub mod hashpipe;
pub mod hll;
pub mod iblt;
pub mod lc;
pub mod mv;
pub mod spread;
pub mod sumax;
pub mod traits;
pub mod vbf;

pub use bloom::BloomFilter;
pub use cm::CountMin;
pub use elastic::ElasticSketch;
pub use flowradar::{FlowRadar, FlowRadarDecode};
pub use hashpipe::HashPipe;
pub use hll::HyperLogLog;
pub use iblt::Iblt;
pub use lc::LinearCounting;
pub use mv::MvSketch;
pub use spread::SpreadSketch;
pub use sumax::SuMax;
pub use traits::{FrequencySketch, InvertibleSketch, SketchMeta, SpreadEstimator};
pub use vbf::VectorBloomFilter;

/// Constraint C4 (§2) checked on a sketch's real state: applies `update`
/// to a clone of `sketch` and compares the two states, each viewed by
/// `arrays` as the register arrays `meta` declares. There must be
/// `register_arrays` arrays of `cells_per_array` cells each, and the
/// update may change at most one cell of any array.
#[cfg(test)]
pub(crate) fn check_c4<S: Clone, T: PartialEq>(
    sketch: &S,
    meta: SketchMeta,
    arrays: impl Fn(&S) -> Vec<Vec<T>>,
    update: impl FnOnce(&mut S),
) -> Result<(), String> {
    let mut after = sketch.clone();
    update(&mut after);
    let (before, after) = (arrays(sketch), arrays(&after));
    if before.len() != meta.register_arrays {
        return Err(format!(
            "{} declares {} arrays but holds {}",
            meta.name,
            meta.register_arrays,
            before.len()
        ));
    }
    for (a, (old, new)) in before.iter().zip(&after).enumerate() {
        if old.len() != meta.cells_per_array {
            return Err(format!(
                "{} declares {} cells per array but array {a} holds {}",
                meta.name,
                meta.cells_per_array,
                old.len()
            ));
        }
        let changed = old.iter().zip(new).filter(|(x, y)| x != y).count();
        if changed > 1 {
            return Err(format!(
                "{}: one update changed {changed} cells of array {a}",
                meta.name
            ));
        }
    }
    Ok(())
}
