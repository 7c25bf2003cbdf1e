//! Typed CLI errors with distinct process exit codes.
//!
//! Scripts driving `zmesh` can branch on the exit status instead of
//! scraping stderr:
//!
//! | code | meaning                                              |
//! |------|------------------------------------------------------|
//! | 0    | success                                              |
//! | 2    | usage error (bad flags, unknown name/field)          |
//! | 3    | I/O error (missing file, unwritable output, ENOSPC)  |
//! | 4    | corrupt, truncated or unknown store / dataset        |
//! | 5    | verification failed (data exceeded error bound)      |
//! | 6    | damage found, but all of it is parity-recoverable    |
//! | 7    | torn store (interrupted write, no commit record)     |
//!
//! Code 6 lets a monitoring loop distinguish "run `zmesh repair` now" from
//! "restore from backup" (code 4) without parsing the scrub report. Code 7
//! separates "the writer never finished" (rerun it, or
//! `zmesh repair --from-raw`) from bit rot in a completed store (code 4).

use std::fmt;
use zmesh_amr::AmrError;
use zmesh_store::StoreError;

/// Everything a subcommand can fail with, bucketed by exit code.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// Bad invocation: unknown subcommand/flag/preset/field, malformed
    /// values, conflicting options. Exit code 2.
    Usage(String),
    /// The filesystem said no. Exit code 3.
    Io(String),
    /// The input bytes are not a valid artifact: bad magic, truncation,
    /// CRC mismatch, malformed metadata. Exit code 4.
    Corrupt(String),
    /// `zmesh verify` found values outside the bound. Exit code 5.
    Verify(String),
    /// `zmesh scrub` found damage, but every damaged chunk can be rebuilt
    /// from parity — `zmesh repair` will restore the store bit-exactly.
    /// Exit code 6.
    Recoverable(String),
    /// The store is an incomplete write: its v4 commit record is missing
    /// or invalid, so the file was torn mid-write rather than corrupted
    /// after the fact. Exit code 7.
    Torn(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Corrupt(_) => 4,
            CliError::Verify(_) => 5,
            CliError::Recoverable(_) => 6,
            CliError::Torn(_) => 7,
        }
    }

    /// Wraps a `std::io::Error` with the path it concerned.
    pub fn io(path: &str, e: std::io::Error) -> Self {
        CliError::Io(format!("{path}: {e}"))
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io(msg) => write!(f, "{msg}"),
            CliError::Corrupt(msg) => write!(f, "{msg}"),
            CliError::Verify(msg) => write!(f, "{msg}"),
            CliError::Recoverable(msg) => write!(f, "{msg}"),
            CliError::Torn(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<AmrError> for CliError {
    fn from(e: AmrError) -> Self {
        match e {
            AmrError::Io(msg) => CliError::Io(msg),
            other => CliError::Corrupt(other.to_string()),
        }
    }
}

impl From<StoreError> for CliError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::UnknownField(_) | StoreError::BadQuery(_) => CliError::Usage(e.to_string()),
            StoreError::InvalidOptions(_) => CliError::Usage(e.to_string()),
            StoreError::Torn => CliError::Torn(e.to_string()),
            // ENOSPC is an I/O failure the operator fixes by freeing
            // space and rerunning; the abort is clean (no tmp file, old
            // destination intact), so it shares exit 3 with the rest of
            // the filesystem failures rather than claiming a corruption
            // code.
            StoreError::Io(_) | StoreError::NoSpace(_) => CliError::Io(e.to_string()),
            StoreError::Amr(inner) => inner.into(),
            other => CliError::Corrupt(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let all = [
            CliError::Usage(String::new()),
            CliError::Io(String::new()),
            CliError::Corrupt(String::new()),
            CliError::Verify(String::new()),
            CliError::Recoverable(String::new()),
            CliError::Torn(String::new()),
        ];
        let mut codes: Vec<u8> = all.iter().map(|e| e.exit_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
        assert!(codes.iter().all(|&c| c != 0));
    }

    #[test]
    fn store_errors_bucket_sensibly() {
        assert_eq!(CliError::from(StoreError::BadMagic).exit_code(), 4);
        assert_eq!(CliError::from(StoreError::Torn).exit_code(), 7);
        assert_eq!(
            CliError::from(StoreError::InvalidOptions("bad geometry")).exit_code(),
            2
        );
        assert_eq!(
            CliError::from(StoreError::Io("disk gone".into())).exit_code(),
            3
        );
        assert_eq!(
            CliError::from(StoreError::NoSpace("disk full".into())).exit_code(),
            3
        );
        assert_eq!(
            CliError::from(StoreError::UnknownField("x".into())).exit_code(),
            2
        );
        assert_eq!(
            CliError::from(StoreError::Amr(AmrError::Io("gone".into()))).exit_code(),
            3
        );
    }
}
