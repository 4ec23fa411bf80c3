//! The three repo-specific rules. Each module exposes
//! `check(&Workspace) -> Vec<Finding>`.

pub mod batch_pair;
pub mod tracked;
pub mod unsafe_audit;
