//! Deterministic filesystem fault injection ("FaultyFs") for torture
//! testing the daemon tier.
//!
//! The durable-write paths guarded by this crate (journal appends,
//! checkpoint saves, postmortem bundles) take a [`WritePermit`] from
//! their filesystem's [`FaultState`] before touching the disk. When no
//! plan is installed that is a single relaxed atomic load — the
//! production fast path. A torture harness installs an [`FsFaultPlan`]
//! scoped to a directory prefix, and writes under that prefix then
//! consume the plan's fault budget in a fixed, deterministic order:
//!
//! 1. **ENOSPC** — the write fails up front with a "no space left on
//!    device" error; nothing reaches the file, and no file is created.
//!    Callers classify this by the error text and can park new work
//!    until space returns.
//! 2. **Short writes** — only the first half of the payload reaches the
//!    file before the write fails, simulating a power-loss truncation
//!    point: [`WritePermit::write`] makes the torn prefix durable,
//!    exactly what a crash mid-`write(2)` leaves behind, so replay-side
//!    truncation detection gets exercised.
//! 3. **Fsync failures** — the data may be in the page cache but the
//!    durability barrier fails; acknowledgement must not be sent.
//!
//! Fault state is **per [`crate::vfs::Vfs`] instance**: every backend
//! owns a [`FaultState`], so a plan installed on one handle never
//! reaches another, and harnesses that need faults build their own
//! handle instead of sharing a process-wide slot. Each state also keeps
//! monotone tallies of the faults it injected ([`FaultState::counters`])
//! so the observability plane can prove every injected fault was
//! accounted for; a daemon's store handle lives as long as the daemon,
//! so the tallies it scrapes never go backwards.

use crate::vfs::VfsFile;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A counted budget of filesystem faults to inject, consumed in the
/// fixed order ENOSPC → short writes → fsync failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsFaultPlan {
    /// Writes that fail up front with "no space left on device".
    pub enospc: u32,
    /// Writes that persist only a prefix (power-loss truncation).
    pub short_writes: u32,
    /// Durability barriers (fsync) that fail after the data is written.
    pub fsync_failures: u32,
}

impl FsFaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.enospc == 0 && self.short_writes == 0 && self.fsync_failures == 0
    }
}

/// Tallies of the faults one [`FaultState`] injected since it was
/// created (monotone, never reset — suitable for Prometheus counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsFaultCounters {
    /// ENOSPC errors injected.
    pub enospc: u64,
    /// Short (torn) writes injected.
    pub short_writes: u64,
    /// Fsync failures injected.
    pub fsync_failures: u64,
}

impl FsFaultCounters {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.enospc + self.short_writes + self.fsync_failures
    }
}

/// The plan's verdict on one logical durable write, taken before the
/// target file is opened (so an injected ENOSPC never creates a file)
/// and spent by performing the write.
#[derive(Debug)]
#[must_use = "a permit decides how the write lands; perform it"]
pub struct WritePermit {
    torn: bool,
}

impl WritePermit {
    /// Writes `bytes` to `file` whole — or, under an injected short
    /// write, only the first half, made durable as a power loss would
    /// leave it, then fails with a `WriteZero` "short write" error.
    pub fn write(self, file: &mut dyn VfsFile, bytes: &[u8]) -> io::Result<()> {
        if !self.torn {
            return file.write_all(bytes);
        }
        file.write_all(&bytes[..bytes.len() / 2])?;
        file.flush()?;
        let _ = file.sync();
        Err(short_write_error())
    }

    /// For writes no prefix of which is usable (a journal header, a
    /// reopen, a writability probe): an injected short write fails
    /// outright, before anything is opened or written.
    pub fn intact(self) -> io::Result<()> {
        if self.torn {
            return Err(short_write_error());
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Scope {
    prefix: PathBuf,
    remaining: FsFaultPlan,
}

/// Per-filesystem-instance fault-injection state: at most one installed
/// [`FsFaultPlan`] scoped to a directory prefix, plus the tallies of
/// what it injected.
///
/// With no plan installed, [`FaultState::write_permit`] and
/// [`FaultState::sync_fault`] are a single relaxed atomic load — safe on
/// the production hot path.
#[derive(Debug, Default)]
pub struct FaultState {
    active: AtomicBool,
    scope: Mutex<Option<Scope>>,
    injected_enospc: AtomicU64,
    injected_short: AtomicU64,
    injected_fsync: AtomicU64,
}

impl FaultState {
    /// A fresh state with no plan installed and zero tallies.
    pub fn new() -> FaultState {
        FaultState::default()
    }

    /// Installs `plan` for every durable write whose target path starts
    /// with `prefix`, replacing any previously installed plan.
    pub fn install(&self, prefix: &Path, plan: FsFaultPlan) {
        let mut state = self.scope.lock().unwrap();
        *state = Some(Scope {
            prefix: prefix.to_path_buf(),
            remaining: plan,
        });
        self.active.store(!plan.is_empty(), Ordering::Release);
    }

    /// Removes the installed plan (idempotent). The tallies are kept.
    pub fn uninstall(&self) {
        let mut state = self.scope.lock().unwrap();
        *state = None;
        self.active.store(false, Ordering::Release);
    }

    /// The fault budget still unconsumed, if a plan is installed.
    pub fn remaining(&self) -> Option<FsFaultPlan> {
        self.scope.lock().unwrap().as_ref().map(|s| s.remaining)
    }

    /// The faults this state has injected so far.
    pub fn counters(&self) -> FsFaultCounters {
        FsFaultCounters {
            enospc: self.injected_enospc.load(Ordering::Relaxed),
            short_writes: self.injected_short.load(Ordering::Relaxed),
            fsync_failures: self.injected_fsync.load(Ordering::Relaxed),
        }
    }

    /// Consults the plan before one logical durable write to `path`,
    /// consuming at most one unit of write budget.
    ///
    /// Returns `Err` for an injected ENOSPC (nothing must be opened or
    /// written); otherwise a [`WritePermit`] that performs the write,
    /// torn if the plan scheduled a short write.
    pub fn write_permit(&self, path: &Path) -> io::Result<WritePermit> {
        let intact = WritePermit { torn: false };
        if !self.active.load(Ordering::Acquire) {
            return Ok(intact);
        }
        let mut state = self.scope.lock().unwrap();
        let Some(scope) = state.as_mut() else {
            return Ok(intact);
        };
        if !path.starts_with(&scope.prefix) {
            return Ok(intact);
        }
        if scope.remaining.enospc > 0 {
            scope.remaining.enospc -= 1;
            self.injected_enospc.fetch_add(1, Ordering::Relaxed);
            return Err(enospc_error());
        }
        if scope.remaining.short_writes > 0 {
            scope.remaining.short_writes -= 1;
            self.injected_short.fetch_add(1, Ordering::Relaxed);
            return Ok(WritePermit { torn: true });
        }
        Ok(intact)
    }

    /// Consults the plan before an fsync of `path`; `Err` means the
    /// barrier failed and the caller must not acknowledge durability.
    pub fn sync_fault(&self, path: &Path) -> io::Result<()> {
        if !self.active.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut state = self.scope.lock().unwrap();
        let Some(scope) = state.as_mut() else {
            return Ok(());
        };
        if !path.starts_with(&scope.prefix) {
            return Ok(());
        }
        if scope.remaining.fsync_failures > 0 {
            scope.remaining.fsync_failures -= 1;
            self.injected_fsync.fetch_add(1, Ordering::Relaxed);
            return Err(fsync_error());
        }
        Ok(())
    }
}

/// The error an injected ENOSPC surfaces as. The text deliberately
/// matches the kernel's, so classification by message ("no space left")
/// treats injected and real exhaustion identically.
pub fn enospc_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::StorageFull,
        "injected fault: no space left on device",
    )
}

/// The error a short (torn) write surfaces as after its durable prefix.
fn short_write_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::WriteZero,
        "injected fault: short write (power-loss truncation)",
    )
}

/// The error an injected fsync failure surfaces as.
pub fn fsync_error() -> io::Error {
    io::Error::other("injected fault: fsync failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{OpenMode, SimFs, Vfs};

    /// Writes `bytes` to a fresh SimFs file through `state`'s permit and
    /// returns the outcome plus what landed.
    fn permitted_write(state: &FaultState, path: &Path, bytes: &[u8]) -> (io::Result<()>, Vec<u8>) {
        let sim = SimFs::new();
        let result = state.write_permit(path).and_then(|permit| {
            let mut file = sim.open_write(path, OpenMode::Truncate)?;
            permit.write(&mut *file, bytes)
        });
        (result, sim.read(path).unwrap_or_default())
    }

    #[test]
    fn inactive_hooks_are_transparent() {
        let state = FaultState::new();
        let p = Path::new("/tmp/anywhere");
        let (result, landed) = permitted_write(&state, p, b"0123456789");
        assert!(result.is_ok());
        assert_eq!(landed, b"0123456789");
        assert!(state.sync_fault(p).is_ok());
        assert_eq!(state.counters(), FsFaultCounters::default());
    }

    #[test]
    fn budget_is_consumed_in_order_and_counted() {
        let state = FaultState::new();
        let scope = Path::new("/tmp/vs-fsfault-scope");
        state.install(
            scope,
            FsFaultPlan {
                enospc: 1,
                short_writes: 1,
                fsync_failures: 1,
            },
        );
        let target = scope.join("store/x.journal");
        // ENOSPC first: nothing is opened, nothing lands…
        let (result, landed) = permitted_write(&state, &target, b"0123456789");
        assert!(result.unwrap_err().to_string().contains("no space left"));
        assert!(landed.is_empty());
        // …then the short write lands half the payload…
        let (result, landed) = permitted_write(&state, &target, b"0123456789");
        let err = result.unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert!(err.to_string().contains("short write"));
        assert_eq!(landed, b"01234");
        // …then the budget is dry.
        let (result, landed) = permitted_write(&state, &target, b"0123456789");
        assert!(result.is_ok());
        assert_eq!(landed, b"0123456789");
        // Fsync budget is independent of the write budget.
        assert!(state.sync_fault(&target).is_err());
        assert!(state.sync_fault(&target).is_ok());
        assert_eq!(
            state.counters(),
            FsFaultCounters {
                enospc: 1,
                short_writes: 1,
                fsync_failures: 1,
            }
        );
        assert_eq!(state.remaining(), Some(FsFaultPlan::default()));
        // Uninstalling drops the plan but never the tallies.
        state.uninstall();
        assert_eq!(state.remaining(), None);
        assert_eq!(state.counters().total(), 3);
    }

    #[test]
    fn intact_refuses_a_torn_write_outright() {
        let state = FaultState::new();
        let scope = Path::new("/tmp/vs-fsfault-intact");
        state.install(
            scope,
            FsFaultPlan {
                short_writes: 1,
                ..Default::default()
            },
        );
        let err = state.write_permit(&scope.join("h")).unwrap().intact();
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::WriteZero);
        assert!(state
            .write_permit(&scope.join("h"))
            .unwrap()
            .intact()
            .is_ok());
    }

    #[test]
    fn paths_outside_the_scope_are_untouched() {
        let state = FaultState::new();
        state.install(
            Path::new("/tmp/vs-fsfault-only-here"),
            FsFaultPlan {
                enospc: 1,
                ..Default::default()
            },
        );
        let outside = Path::new("/tmp/elsewhere/file");
        assert!(permitted_write(&state, outside, b"data").0.is_ok());
        assert!(state.sync_fault(outside).is_ok());
        // The budget was not consumed by the out-of-scope write.
        assert_eq!(
            state.remaining().unwrap(),
            FsFaultPlan {
                enospc: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn instances_are_independent() {
        let a = FaultState::new();
        let b = FaultState::new();
        let scope = Path::new("/tmp/vs-fsfault-indep");
        a.install(
            scope,
            FsFaultPlan {
                enospc: 1,
                ..Default::default()
            },
        );
        let target = scope.join("f");
        assert!(b.write_permit(&target).is_ok(), "b has no plan");
        assert!(a.write_permit(&target).is_err(), "a consumed its own");
        assert_eq!(b.remaining(), None);
        assert_eq!(a.counters().enospc, 1);
        assert_eq!(b.counters(), FsFaultCounters::default());
    }
}
