//! Where store bytes go: the [`ByteSink`] abstraction behind the store
//! write path — the write-side mirror of [`crate::ByteSource`].
//!
//! `ByteSink` abstracts the byte destination so the writer can stream
//! chunks as they compress instead of assembling the whole container
//! first — a dataset larger than RAM still packs, and fault tooling can
//! wrap the destination:
//!
//! - [`VecSink`] — the in-memory path ([`crate::StoreWriter::write`],
//!   repair, salvage);
//! - [`FileSink`] — the crash-consistent file path: writes go to
//!   `<path>.tmp` via positioned `pwrite`s (append-at-offset, so a
//!   retried write is idempotent), and [`ByteSink::commit`] performs the
//!   `fsync(file)` → `rename` → `fsync(parent dir)` publish. Until commit
//!   returns, the destination is untouched; if the sink is dropped
//!   without committing (error, panic), the temp file is removed.
//!
//! Every error is typed: `ENOSPC` surfaces as [`StoreError::NoSpace`],
//! plausibly-transient failures (`EINTR`, `EAGAIN`, `EIO`, timeouts) as
//! [`StoreError::IoTransient`] — which the streaming writer retries under
//! its [`crate::RetryPolicy`] — and everything else as
//! [`StoreError::Io`].

use crate::format::StoreError;
use crate::source::io_error_is_transient;
use std::path::{Path, PathBuf};

/// An append-only destination for store bytes.
///
/// `write_all` either appends the whole buffer or fails without logically
/// advancing — implementations write at an internally tracked offset
/// (`pwrite`-style), so the same `write_all` can be retried after a
/// transient failure without duplicating bytes.
pub trait ByteSink {
    /// Appends `buf` at the current position, counting the traffic. On
    /// error the logical position is unchanged and the call may be
    /// retried.
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StoreError>;

    /// Flushes any userspace buffering (a no-op for unbuffered sinks).
    fn flush(&mut self) -> Result<(), StoreError>;

    /// Forces written bytes to stable storage (`fsync`; a no-op for
    /// in-memory sinks).
    fn sync(&mut self) -> Result<(), StoreError>;

    /// Finalizes the sink after the last byte: for [`FileSink`] this is
    /// the atomic tmp → destination publish; in-memory sinks no-op. A
    /// sink must not be written after a successful commit.
    fn commit(&mut self) -> Result<(), StoreError>;

    /// Bytes successfully appended so far (the current logical position).
    fn bytes_written(&self) -> u64;

    /// Successful write calls issued so far — how well the writer is
    /// batching its appends.
    fn write_calls(&self) -> u64;
}

/// `ENOSPC` — out of space is its own typed failure, not generic I/O.
const ENOSPC: i32 = 28;

/// Classifies an `io::Error` from a write: `ENOSPC` ⇒
/// [`StoreError::NoSpace`], the transient family ⇒
/// [`StoreError::IoTransient`], anything else ⇒ [`StoreError::Io`].
pub(crate) fn classify_write_error(e: &std::io::Error, what: &dyn std::fmt::Display) -> StoreError {
    if e.raw_os_error() == Some(ENOSPC) {
        StoreError::NoSpace(format!("{what}: {e}"))
    } else if io_error_is_transient(e) {
        StoreError::IoTransient(format!("{what}: {e}"))
    } else {
        StoreError::Io(format!("{what}: {e}"))
    }
}

/// The in-memory sink: collects appended bytes in a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct VecSink {
    bytes: Vec<u8>,
    write_calls: u64,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the sink, returning the collected bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

impl ByteSink for VecSink {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StoreError> {
        self.bytes.extend_from_slice(buf);
        self.write_calls += 1;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn commit(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn bytes_written(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn write_calls(&self) -> u64 {
        self.write_calls
    }
}

/// `<path>.tmp` — appended, not an extension swap, so `store.zst` and
/// `store` cannot collide with a sibling's temp file.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

#[cfg(unix)]
pub(crate) fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

#[cfg(not(unix))]
pub(crate) fn sync_parent_dir(_path: &Path) -> std::io::Result<()> {
    // Directory handles are not fsync-able portably; the rename is still
    // atomic on the filesystems we target.
    Ok(())
}

/// The crash-consistent file sink: bytes stream into `<path>.tmp` and
/// [`ByteSink::commit`] publishes them atomically over the destination
/// (`fsync` file → `rename` → `fsync` parent directory).
///
/// The sink is a scope guard: dropped uncommitted — error return, `?`
/// propagation, panic unwind — it removes its temp file, so no abort path
/// can leave a stray `.tmp` behind, and the pre-existing destination is
/// never touched before a fully synced rename. A crash (power loss,
/// SIGKILL) does leave the temp file, exactly like a real interrupted
/// write; the destination still holds the old bytes, and the next
/// successful pack truncates and replaces the leftover.
///
/// Writes are positioned (`pwrite` at an internally tracked offset), so a
/// failed `write_all` can be retried idempotently — the offset only
/// advances on success.
#[cfg(unix)]
pub struct FileSink {
    file: std::fs::File,
    tmp: PathBuf,
    dest: PathBuf,
    pos: u64,
    write_calls: u64,
    committed: bool,
    preserve_tmp: bool,
}

#[cfg(unix)]
impl FileSink {
    /// Opens a sink that will atomically replace `dest` on commit. The
    /// temp file (`<dest>.tmp`) is created (truncated if a stale one
    /// exists) immediately.
    pub fn create(dest: &Path) -> Result<Self, StoreError> {
        let tmp = tmp_path(dest);
        let file =
            std::fs::File::create(&tmp).map_err(|e| classify_write_error(&e, &tmp.display()))?;
        Ok(Self {
            file,
            tmp,
            dest: dest.to_path_buf(),
            pos: 0,
            write_calls: 0,
            committed: false,
            preserve_tmp: false,
        })
    }

    /// The destination this sink will publish to.
    pub fn dest(&self) -> &Path {
        &self.dest
    }

    /// The temp file bytes are streaming into.
    pub fn tmp(&self) -> &Path {
        &self.tmp
    }

    /// Whether [`ByteSink::commit`] has succeeded.
    pub fn is_committed(&self) -> bool {
        self.committed
    }

    /// Leaves the temp file on disk when the sink is dropped uncommitted.
    ///
    /// This exists for crash-simulation harnesses: a process killed
    /// mid-write never runs its cleanup, so a test that models a crash
    /// must suppress the scope guard to reproduce the on-disk state a
    /// real kill leaves behind.
    pub fn preserve_tmp_on_drop(&mut self) {
        self.preserve_tmp = true;
    }
}

#[cfg(unix)]
impl ByteSink for FileSink {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StoreError> {
        use std::os::unix::fs::FileExt;
        debug_assert!(!self.committed, "write after commit");
        self.file
            .write_all_at(buf, self.pos)
            .map_err(|e| classify_write_error(&e, &self.tmp.display()))?;
        self.pos += buf.len() as u64;
        self.write_calls += 1;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        // Positioned writes are unbuffered in userspace.
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.file
            .sync_all()
            .map_err(|e| classify_write_error(&e, &self.tmp.display()))
    }

    fn commit(&mut self) -> Result<(), StoreError> {
        self.sync()?;
        std::fs::rename(&self.tmp, &self.dest)
            .map_err(|e| classify_write_error(&e, &self.dest.display()))?;
        // The rename consumed the temp file: from here the destination is
        // the published store and Drop must not unlink anything.
        self.committed = true;
        sync_parent_dir(&self.dest).map_err(|e| classify_write_error(&e, &self.dest.display()))
    }

    fn bytes_written(&self) -> u64 {
        self.pos
    }

    fn write_calls(&self) -> u64 {
        self.write_calls
    }
}

#[cfg(unix)]
impl Drop for FileSink {
    fn drop(&mut self) {
        if !self.committed && !self.preserve_tmp {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Atomically replaces `path` with `bytes` through a [`FileSink`]: write
/// `<path>.tmp`, fsync the file, rename over the target, then fsync the
/// parent directory so the rename itself is durable. A crash at any point
/// leaves either the old file or the new one; every *error* return leaves
/// the old file and no temp file. Errors are typed:
/// [`StoreError::NoSpace`] for `ENOSPC`, [`StoreError::IoTransient`] for
/// the retryable family, [`StoreError::Io`] otherwise.
#[cfg(unix)]
pub fn persist_store(bytes: &[u8], path: &Path) -> Result<(), StoreError> {
    let mut sink = FileSink::create(path)?;
    sink.write_all(bytes)?;
    sink.commit()
}

/// Portable fallback: identical protocol via whole-buffer `std` I/O.
#[cfg(not(unix))]
pub fn persist_store(bytes: &[u8], path: &Path) -> Result<(), StoreError> {
    use std::io::Write;
    let tmp = tmp_path(path);
    let result = (|| {
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    })();
    result.map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        classify_write_error(&e, &path.display())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_collects_appends_and_counts() {
        let mut sink = VecSink::new();
        sink.write_all(b"hello ").unwrap();
        sink.write_all(b"world").unwrap();
        sink.flush().unwrap();
        sink.sync().unwrap();
        sink.commit().unwrap();
        assert_eq!(sink.bytes(), b"hello world");
        assert_eq!(sink.bytes_written(), 11);
        assert_eq!(sink.write_calls(), 2);
        assert_eq!(sink.into_bytes(), b"hello world");
    }

    #[test]
    fn write_errors_classify_by_kind() {
        use std::io::{Error, ErrorKind};
        let ctx = &"f";
        assert!(matches!(
            classify_write_error(&Error::from_raw_os_error(ENOSPC), ctx),
            StoreError::NoSpace(_)
        ));
        assert!(matches!(
            classify_write_error(&Error::from_raw_os_error(5), ctx),
            StoreError::IoTransient(_)
        ));
        assert!(matches!(
            classify_write_error(&Error::from(ErrorKind::Interrupted), ctx),
            StoreError::IoTransient(_)
        ));
        assert!(matches!(
            classify_write_error(&Error::from(ErrorKind::PermissionDenied), ctx),
            StoreError::Io(_)
        ));
    }

    #[cfg(unix)]
    #[test]
    fn file_sink_publishes_atomically_and_cleans_up_on_drop() {
        let dir = std::env::temp_dir().join(format!("zmesh-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("out.zms");
        std::fs::write(&dest, b"old contents").unwrap();

        // Uncommitted drop: destination untouched, tmp removed.
        {
            let mut sink = FileSink::create(&dest).unwrap();
            sink.write_all(b"partial").unwrap();
            assert_eq!(sink.bytes_written(), 7);
            assert!(sink.tmp().exists());
        }
        assert_eq!(std::fs::read(&dest).unwrap(), b"old contents");
        assert!(!tmp_path(&dest).exists(), "abort must remove the tmp file");

        // Committed: destination replaced, tmp gone.
        let mut sink = FileSink::create(&dest).unwrap();
        sink.write_all(b"new ").unwrap();
        sink.write_all(b"contents").unwrap();
        sink.commit().unwrap();
        assert!(sink.is_committed());
        drop(sink);
        assert_eq!(std::fs::read(&dest).unwrap(), b"new contents");
        assert!(!tmp_path(&dest).exists());

        // preserve_tmp_on_drop models a crash: tmp survives, dest intact.
        let mut sink = FileSink::create(&dest).unwrap();
        sink.write_all(b"torn").unwrap();
        sink.preserve_tmp_on_drop();
        drop(sink);
        assert_eq!(std::fs::read(tmp_path(&dest)).unwrap(), b"torn");
        assert_eq!(std::fs::read(&dest).unwrap(), b"new contents");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn file_sink_retried_write_is_idempotent() {
        let dir = std::env::temp_dir().join(format!("zmesh-sink-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("out.zms");
        let mut sink = FileSink::create(&dest).unwrap();
        sink.write_all(b"abc").unwrap();
        // A retry of the *same* logical append (as the writer's retry loop
        // issues after a transient failure) lands at the same offset.
        let pos_before = sink.bytes_written();
        sink.write_all(b"def").unwrap();
        assert_eq!(pos_before + 3, sink.bytes_written());
        sink.commit().unwrap();
        drop(sink);
        assert_eq!(std::fs::read(&dest).unwrap(), b"abcdef");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn persist_store_is_typed_and_clean_on_error() {
        let dir = std::env::temp_dir().join(format!("zmesh-persist-typed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ok = dir.join("ok.bin");
        persist_store(b"payload", &ok).unwrap();
        assert_eq!(std::fs::read(&ok).unwrap(), b"payload");

        // Renaming over an existing *directory* fails: the abort must
        // remove the temp file and leave the destination untouched.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(blocked.join("keep")).unwrap();
        let err = persist_store(b"payload", &blocked).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        assert!(!tmp_path(&blocked).exists(), "failed persist left a tmp");
        assert!(blocked.join("keep").is_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
