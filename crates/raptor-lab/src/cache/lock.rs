//! Per-shard advisory file locks.
//!
//! Every access to a shard file — replaying it, appending rows, or
//! replacing it during compaction — happens under an OS advisory lock
//! ([`std::fs::File::lock`], i.e. `flock` on Unix) on a dedicated
//! `shardK.lock` sibling. The lock file is separate from the data file
//! on purpose: compaction replaces the data file by rename, and a lock
//! held on the *old* inode would not exclude a writer that opened the
//! *new* one. The lock sibling is never renamed, so its inode is the
//! stable rendezvous point for every process touching the shard.
//!
//! Because the lock is advisory and owned by the kernel, a writer killed
//! mid-append releases it automatically — no stale-lock breaking, no pid
//! liveness probing. (What a killed writer *can* leave behind is a torn
//! last line in the data file; the replay layer absorbs that — see the
//! [`super::shard`] docs.)
//!
//! **Lock order:** at most one shard lock is held at a time, enforced by
//! `&mut ShardLocks`. Each cache owns one [`ShardLocks`] token, and
//! [`ShardLocks::lock`] borrows it mutably for as long as the returned
//! [`ShardLock`] guard lives. Shard I/O is reachable only through a held
//! guard, so taking a second lock — or calling any `&mut self` cache
//! method that takes one — while a guard is alive is a borrow error
//! (E0499), not a deadlock. One lock at a time means no lock-order
//! cycles and therefore no deadlocks, no matter how many processes share
//! the cache directory. Because [`ShardLock`] implements `Drop`, a guard
//! keeps its borrow until it is dropped, not just until its last use:
//!
//! ```compile_fail,E0499
//! use raptor_lab::cache::ShardLocks;
//! let mut locks = ShardLocks::default();
//! let dir = std::path::Path::new("cache/hydro__sod");
//! let a = locks.lock(dir, 0)?;
//! let b = locks.lock(dir, 1)?;
//! # Ok::<(), String>(())
//! ```
//!
//! The same code compiles once the first guard is dropped:
//!
//! ```no_run
//! use raptor_lab::cache::ShardLocks;
//! let mut locks = ShardLocks::default();
//! let dir = std::path::Path::new("cache/hydro__sod");
//! let a = locks.lock(dir, 0)?;
//! drop(a);
//! let b = locks.lock(dir, 1)?;
//! # Ok::<(), String>(())
//! ```

use std::fs::OpenOptions;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// The right to hold one shard lock. One token per cache; a held
/// [`ShardLock`] borrows it mutably, so the borrow checker admits at
/// most one live guard per token.
#[derive(Debug, Default)]
pub struct ShardLocks(());

impl ShardLocks {
    /// Block until shard `shard` of the existing scenario directory `dir`
    /// is exclusively held. Creates the lock file if missing (its
    /// *contents* are irrelevant — only the kernel lock on it matters).
    pub fn lock(&mut self, dir: &Path, shard: usize) -> Result<ShardLock<'_>, String> {
        let lock_path = dir.join(format!("shard{shard}.lock"));
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&lock_path)
            .map_err(|e| format!("open lock {}: {e}", lock_path.display()))?;
        file.lock().map_err(|e| format!("lock {}: {e}", lock_path.display()))?;
        Ok(ShardLock { file, dir: dir.to_path_buf(), shard, _token: PhantomData })
    }
}

/// A held advisory lock on one shard, and the only way to read or write
/// that shard's data file. Released on drop (and by the OS if the process
/// dies first).
pub struct ShardLock<'t> {
    file: std::fs::File,
    pub(super) dir: PathBuf,
    pub(super) shard: usize,
    _token: PhantomData<&'t mut ShardLocks>,
}

impl Drop for ShardLock<'_> {
    fn drop(&mut self) {
        // Best-effort: closing the file releases the lock anyway.
        let _ = self.file.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn lock_excludes_concurrent_holders() {
        let dir = std::env::temp_dir()
            .join(format!("raptor-lock-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A counter only ever incremented under the lock: if exclusion
        // failed, two threads could observe the same pre-value and the
        // final count would fall short.
        static IN_CRIT: AtomicUsize = AtomicUsize::new(0);
        let total = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let dir = &dir;
                    s.spawn(move || {
                        // One token per thread, as with one cache per
                        // writer: the tokens are independent, the flock
                        // on the shared lock file is what excludes.
                        let mut locks = ShardLocks::default();
                        let mut done = 0;
                        for _ in 0..25 {
                            let _g = locks.lock(dir, 0).unwrap();
                            let now = IN_CRIT.fetch_add(1, Ordering::SeqCst) + 1;
                            assert_eq!(now, 1, "two holders inside the critical section");
                            std::thread::yield_now();
                            IN_CRIT.fetch_sub(1, Ordering::SeqCst);
                            done += 1;
                        }
                        done
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<usize>()
        });
        assert_eq!(total, 100);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
