//! # eos — table-based stellar EOS, Newton inversion, and nuclear burning
//!
//! The substrate for the paper's **Cellular** detonation workload (§4.2):
//! a Helmholtz-style tabulated equation of state whose every query runs a
//! Newton–Raphson temperature inversion on the interpolant, plus a stiff
//! single-species carbon-burning network. Hypothesis 2 — "the EOS is
//! table-based and therefore the most likely candidate for reducing
//! precision" — is falsified here the same way as in the paper: the
//! inversion stops converging below ~40 mantissa bits, and loosening the
//! tolerance does not rescue it (§6.1).

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod burn;
pub mod cellular;
pub mod newton;
pub mod table;

pub use burn::{burn_cell, rate, BurnCfg, BurnResult};
pub use cellular::{setup_cellular, Cellular, CellularInit, TableHelmholtz, XCARBON};
pub use newton::{invert_temperature, NewtonCfg, NewtonResult};
pub use table::{model_eint, model_pres, EosTable, TableCols, TableView};
