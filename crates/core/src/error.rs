//! Error type for the zMesh core.

use std::fmt;

/// Errors from the zMesh core layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ZmeshError {
    /// Field/tree mismatch at compression time.
    Mismatch(&'static str),
}

impl fmt::Display for ZmeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZmeshError::Mismatch(what) => write!(f, "input mismatch: {what}"),
        }
    }
}

impl std::error::Error for ZmeshError {}
