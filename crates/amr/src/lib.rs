//! # amr — block-structured adaptive mesh refinement
//!
//! The Flash-X/PARAMESH substitute for the RAPTOR reproduction: a 2-D
//! quadtree of fixed-size blocks with guard cells, Löhner-estimator-driven
//! adaptation with 2:1 balance, multi-resolution guard fills, thread-
//! parallel leaf sweeps, and an `sfocu`-style comparison utility.
//!
//! The paper's AMR-coupled experiments rely on exactly three properties,
//! all reproduced here:
//!
//! 1. blocks at a given level have identical physical size, halving each
//!    level down (paper §4.1);
//! 2. the refinement criterion reads solution values, so truncation noise
//!    perturbs the block structure (the Fig. 7 op-count irregularities and
//!    the Sod small-mantissa anomaly);
//! 3. solvers sweep leaf blocks independently with filled guard cells,
//!    which is where RAPTOR scopes truncation per block/level.

#![warn(missing_docs)]

pub mod adapt;
pub mod compare;
pub mod guard;
pub mod mesh;
pub mod par;
pub mod pool;

pub use adapt::{adapt, adapt_with, block_error, init_with_refinement, AdaptResult, AdaptSpec, Decision};
pub use compare::{bitwise_diff, norms, sample_point, sample_uniform, sfocu, Norms};
pub use guard::{fill_guards, BcKind, BcSpec};
pub use mesh::{minmod, Block, BlockIdx, BlockPos, Mesh, MeshParams};
pub use par::{par_leaves, seq_leaves, LeafGeom};
pub use pool::run_inline;
