//! # hydro — compressible Euler solver on block-structured AMR
//!
//! The Flash-X compressible-hydrodynamics substitute for the RAPTOR
//! reproduction, covering the paper's **Sedov** and **Sod** workloads
//! (§4.2, §6.1, Fig. 7) and the modular Spark-style organization used for
//! mem-mode debugging (§6.3, Table 2): reconstruction, Riemann solver, and
//! update stages live in separately-scoped RAPTOR regions
//! (`Hydro/recon`, `Hydro/riemann`, `Hydro/update`, `Hydro/eos`).
//!
//! Every kernel is generic over [`raptor_core::Real`]: instantiate with
//! `f64` for the reference run and [`raptor_core::Tracked`] for the
//! instrumented run. The straight-line ones (state conversions, fluxes,
//! the Riemann solvers' branch bodies) need only [`raptor_core::Arith`],
//! so the instrumented sweep also runs them on whole columns
//! ([`raptor_core::batch::Col`]).

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod problems;
pub mod recon;
pub mod riemann;
pub mod state;
pub mod sweep;

pub use problems::{initial_condition, setup, setup_with_roots, Problem, Simulation};
pub use recon::{plm_interface, weno5, weno5_interface, ReconKind};
pub use riemann::{
    hll_flux, hllc_flux, riemann_flux, riemann_flux_batch, RiemannKind, RiemannScratch,
};
pub use state::{
    cons_to_prim, physical_flux, prim_to_cons, Cols, Cons, Eos, EosView, Floors, GammaLaw, Prim,
    DENS, ENER, MOMX, MOMY, NVAR,
};
pub use sweep::{compute_dt, step, sweep_axis, HydroParams, Layout};
