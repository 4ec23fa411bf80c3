//! The two repo-specific rules. Each module exposes
//! `check(&Workspace) -> Vec<Finding>`.

pub mod tracked;
pub mod unsafe_audit;
