//! Deterministic storage fault injection for the WAL.
//!
//! A [`FaultPlan`] is a seeded table of per-site fault rules checked at
//! every phase-tagged I/O site in the WAL's append / flush / sync /
//! checkpoint-rewrite paths (see [`SITES`]). A plan with no armed rules
//! costs one relaxed atomic load per site — cheap enough to leave
//! compiled into the production path, which is the point: the code the
//! torture suite exercises is byte-for-byte the code production runs.
//!
//! Supported faults, per site:
//!
//! * **one-shot failure** — the next hit fails with an I/O error, later
//!   hits proceed (a transient device error);
//! * **sticky failure** — every hit fails (a dead device; this is what
//!   models a failed fsync, which must *never* be retried — the kernel
//!   may have dropped the dirty pages on the first failure);
//! * **ENOSPC** — every hit fails with `ENOSPC`, the signal the engine
//!   maps to read-only degraded mode;
//! * **short write** — the next hit persists only a prefix of the
//!   payload, then fails (a torn write);
//! * **crash point** — the next hit snapshots the log file(s) to a
//!   side-by-side *crash image* (the state a real crash would leave on
//!   disk) and then fails sticky, simulating the process dying at
//!   exactly that instruction. Recovery tests open the image.
//! * **probabilistic failure** — each hit fails with probability `p`,
//!   drawn from the plan's seeded SplitMix64 stream, for E12's fault
//!   bursts. Deterministic given the seed and the hit order.
//!
//! The plan is all atomics (no lock): arming happens from a test or
//! harness thread while the engine runs, and every check executes under
//! the WAL file mutex anyway, so per-site races reduce to "the new rule
//! applies one hit sooner or later" — which determinism-sensitive tests
//! avoid by arming between phases.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

use udbms_core::{Error, Result};

/// Every phase-tagged fault site, in pipeline order. The torture suite
/// iterates this list; [`FaultPlan::hits`] proves each site is actually
/// reached.
pub const SITES: &[&str] = &[
    // append path
    "append.write",
    // flush / fsync path
    "flush",
    "sync",
    // checkpoint rewrite, phase by phase
    "rewrite.prepare.create",
    "rewrite.prepare.write",
    "rewrite.prepare.sync",
    "rewrite.finish.write",
    "rewrite.finish.sync",
    "rewrite.rename",
    "rewrite.dirsync",
    "rewrite.reopen",
];

/// ENOSPC's errno on every unix the workspace targets.
const ENOSPC: i32 = 28;

/// What a fault site should do with the current operation.
#[derive(Debug)]
pub enum Action {
    /// No fault armed: perform the real I/O.
    Proceed,
    /// Persist only the first `keep` bytes of the payload, then fail.
    Short(usize),
    /// Snapshot the log file(s) to the crash image, then fail.
    Crash,
    /// Fail with this error without touching the file.
    Fail(Error),
}

// rule modes, stored in each site's `mode` atomic
const OFF: u32 = 0;
const FAIL_ONCE: u32 = 1;
const FAIL_STICKY: u32 = 2;
const ENOSPC_STICKY: u32 = 3;
const SHORT_ONCE: u32 = 4;
const CRASH_ONCE: u32 = 5;
const PROB: u32 = 6;

/// One site's armed rule: a mode plus a mode-specific auxiliary value
/// (short-write keep bytes, failure probability in ppm).
#[derive(Debug, Default)]
struct Site {
    // distinctive names: these are the advisory-flag atomics registered
    // in the lint's RELAXED_OK table (every check runs under the WAL
    // file mutex, which provides the real ordering)
    fault_mode: AtomicU32,
    fault_aux: AtomicU32,
    hits: AtomicU64,
}

/// A seeded, shareable fault-injection plan. `FaultPlan::none()` (the
/// default every WAL opens with) never fires; arming methods may be
/// called at any time from any thread.
#[derive(Debug)]
pub struct FaultPlan {
    sites: Vec<Site>,
    /// SplitMix64 state for the probabilistic mode, advanced lock-free.
    fault_rng: AtomicU64,
    /// Where a crash point copies the log file; set once.
    image: OnceLock<PathBuf>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan with no faults armed (and seed 0 should any be armed
    /// later).
    pub fn none() -> FaultPlan {
        FaultPlan::seeded(0)
    }

    /// A plan whose probabilistic draws come from `seed`. Equal seeds
    /// and equal hit orders draw identical fault schedules.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            sites: SITES.iter().map(|_| Site::default()).collect(),
            fault_rng: AtomicU64::new(seed),
            image: OnceLock::new(),
        }
    }

    fn site(&self, name: &str) -> &Site {
        #[expect(
            clippy::panic,
            reason = "arming an unknown site is a test-author bug, not a runtime state"
        )]
        let idx = SITES
            .iter()
            .position(|s| *s == name)
            .unwrap_or_else(|| panic!("unknown fault site `{name}` (see fault::SITES)"));
        &self.sites[idx]
    }

    /// Arm a one-shot I/O failure at `site`.
    pub fn fail_once(&self, site: &str) {
        self.site(site)
            .fault_mode
            .store(FAIL_ONCE, Ordering::Relaxed);
    }

    /// Arm a sticky I/O failure at `site` (every hit fails — the shape
    /// of a dead device or the fsyncgate never-retry rule).
    pub fn fail_sticky(&self, site: &str) {
        self.site(site)
            .fault_mode
            .store(FAIL_STICKY, Ordering::Relaxed);
    }

    /// Arm sticky `ENOSPC` at `site` (the engine degrades to read-only).
    pub fn enospc(&self, site: &str) {
        self.site(site)
            .fault_mode
            .store(ENOSPC_STICKY, Ordering::Relaxed);
    }

    /// Arm a one-shot short write at `site`: only the first `keep`
    /// bytes of the payload reach the file, then the write fails.
    pub fn short_write(&self, site: &str, keep: usize) {
        let s = self.site(site);
        s.fault_aux
            .store(keep.min(u32::MAX as usize) as u32, Ordering::Relaxed);
        s.fault_mode.store(SHORT_ONCE, Ordering::Relaxed);
    }

    /// Arm a crash point at `site`: the next hit copies the WAL file
    /// (and any sibling `*.tmp` rewrite file) to `image` — the on-disk
    /// state a real crash at that instruction would leave — then fails
    /// sticky. Recovery tests open the image as if it were the log of a
    /// crashed process.
    pub fn crash_at(&self, site: &str, image: impl Into<PathBuf>) {
        let _ = self.image.set(image.into());
        self.site(site)
            .fault_mode
            .store(CRASH_ONCE, Ordering::Relaxed);
    }

    /// Arm probabilistic failure at `site`: each hit fails with
    /// probability `p` (clamped to `[0, 1]`), drawn from the plan's
    /// seeded stream.
    pub fn fail_with_probability(&self, site: &str, p: f64) {
        let s = self.site(site);
        let ppm = (p.clamp(0.0, 1.0) * 1_000_000.0) as u32;
        s.fault_aux.store(ppm, Ordering::Relaxed);
        s.fault_mode.store(PROB, Ordering::Relaxed);
    }

    /// Disarm every rule (hit counts are kept). An engine already
    /// poisoned stays poisoned — clearing the plan only stops *new*
    /// faults from firing.
    pub fn clear(&self) {
        for s in &self.sites {
            s.fault_mode.store(OFF, Ordering::Relaxed);
        }
    }

    /// How many times `site` was reached (armed or not).
    pub fn hits(&self, site: &str) -> u64 {
        self.site(site).hits.load(Ordering::Relaxed)
    }

    /// The crash-image path, once a crash point has been armed.
    pub fn image(&self) -> Option<&Path> {
        self.image.get().map(PathBuf::as_path)
    }

    /// Advance the seeded stream one step (SplitMix64 output function
    /// over a lock-free counter state).
    fn draw(&self) -> u64 {
        let state = self
            .fault_rng
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn io_fail(site: &str) -> Error {
        Error::Io(std::io::Error::other(format!("injected fault at `{site}`")))
    }

    fn io_enospc(_site: &str) -> Error {
        // from_raw_os_error keeps the errno, which is what the engine's
        // ENOSPC classifier reads ("No space left on device"); wrapping
        // it in a custom error would blank raw_os_error(), so the site
        // name is deliberately not attached here.
        Error::Io(std::io::Error::from_raw_os_error(ENOSPC))
    }

    /// Evaluate `site` for a write carrying `payload_len` bytes.
    /// Returns what the caller must do; one-shot rules disarm as they
    /// fire.
    pub fn on_write(&self, name: &str, payload_len: usize) -> Action {
        let s = self.site(name);
        s.hits.fetch_add(1, Ordering::Relaxed);
        match s.fault_mode.load(Ordering::Relaxed) {
            OFF => Action::Proceed,
            FAIL_ONCE => {
                s.fault_mode.store(OFF, Ordering::Relaxed);
                Action::Fail(Self::io_fail(name))
            }
            FAIL_STICKY => Action::Fail(Self::io_fail(name)),
            ENOSPC_STICKY => Action::Fail(Self::io_enospc(name)),
            SHORT_ONCE => {
                s.fault_mode.store(OFF, Ordering::Relaxed);
                let keep = (s.fault_aux.load(Ordering::Relaxed) as usize).min(payload_len);
                Action::Short(keep)
            }
            CRASH_ONCE => {
                // the crash fires once; afterwards the "process" is
                // gone, so every later hit fails sticky
                s.fault_mode.store(FAIL_STICKY, Ordering::Relaxed);
                Action::Crash
            }
            PROB => {
                let p = u64::from(s.fault_aux.load(Ordering::Relaxed));
                if self.draw() % 1_000_000 < p {
                    Action::Fail(Self::io_fail(name))
                } else {
                    Action::Proceed
                }
            }
            _ => Action::Proceed,
        }
    }

    /// Evaluate `site` for a non-write operation (flush, sync, rename,
    /// …). Short-write rules degrade to plain failures here.
    pub fn on_op(&self, name: &str) -> Action {
        match self.on_write(name, 0) {
            Action::Short(_) => Action::Fail(Self::io_fail(name)),
            other => other,
        }
    }
}

/// Copy the current on-disk state of `wal_path` (and a sibling rewrite
/// temp file, if one exists) to the plan's crash image. Called by the
/// WAL when a crash point fires; public for tests that stage their own
/// crash shapes.
pub fn snapshot_crash_image(plan: &FaultPlan, wal_path: &Path) -> Result<()> {
    let Some(image) = plan.image() else {
        return Err(Error::Invalid(
            "crash point fired but no crash image path was armed".into(),
        ));
    };
    std::fs::copy(wal_path, image)?;
    let tmp = wal_path.with_extension("tmp");
    let image_tmp = image.with_extension("tmp");
    if tmp.exists() {
        std::fs::copy(&tmp, &image_tmp)?;
    } else {
        // stale image-tmp from an earlier case must not leak into this one
        let _ = std::fs::remove_file(&image_tmp);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plan_always_proceeds() {
        let plan = FaultPlan::none();
        for site in SITES {
            assert!(matches!(plan.on_write(site, 64), Action::Proceed));
            assert!(matches!(plan.on_op(site), Action::Proceed));
        }
        assert_eq!(plan.hits("append.write"), 2);
    }

    #[test]
    fn one_shot_fires_exactly_once() {
        let plan = FaultPlan::none();
        plan.fail_once("sync");
        assert!(matches!(plan.on_op("sync"), Action::Fail(_)));
        assert!(matches!(plan.on_op("sync"), Action::Proceed));
    }

    #[test]
    fn sticky_fires_forever() {
        let plan = FaultPlan::none();
        plan.fail_sticky("sync");
        for _ in 0..5 {
            assert!(matches!(plan.on_op("sync"), Action::Fail(_)));
        }
        plan.clear();
        assert!(matches!(plan.on_op("sync"), Action::Proceed));
    }

    #[test]
    fn enospc_carries_the_errno() {
        let plan = FaultPlan::none();
        plan.enospc("append.write");
        match plan.on_write("append.write", 10) {
            Action::Fail(Error::Io(e)) => assert_eq!(e.raw_os_error(), Some(ENOSPC)),
            other => panic!("expected ENOSPC failure, got {other:?}"),
        }
    }

    #[test]
    fn short_write_clamps_to_payload_and_disarms() {
        let plan = FaultPlan::none();
        plan.short_write("append.write", 1000);
        assert!(matches!(
            plan.on_write("append.write", 10),
            Action::Short(10)
        ));
        assert!(matches!(plan.on_write("append.write", 10), Action::Proceed));
        plan.short_write("append.write", 3);
        assert!(matches!(
            plan.on_write("append.write", 10),
            Action::Short(3)
        ));
    }

    #[test]
    fn crash_point_fires_once_then_fails_sticky() {
        let plan = FaultPlan::none();
        plan.crash_at("rewrite.rename", "/tmp/never-written.img");
        assert!(matches!(plan.on_op("rewrite.rename"), Action::Crash));
        assert!(matches!(plan.on_op("rewrite.rename"), Action::Fail(_)));
        assert_eq!(plan.image().unwrap(), Path::new("/tmp/never-written.img"));
    }

    #[test]
    fn probabilistic_draws_are_seed_deterministic() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        a.fail_with_probability("flush", 0.5);
        b.fail_with_probability("flush", 0.5);
        let draws_a: Vec<bool> = (0..64)
            .map(|_| matches!(a.on_op("flush"), Action::Fail(_)))
            .collect();
        let draws_b: Vec<bool> = (0..64)
            .map(|_| matches!(b.on_op("flush"), Action::Fail(_)))
            .collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|f| *f) && draws_a.iter().any(|f| !*f));
    }

    #[test]
    fn every_listed_site_is_armable() {
        let plan = FaultPlan::none();
        for site in SITES {
            plan.fail_once(site);
            assert!(matches!(plan.on_op(site), Action::Fail(_)), "{site}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown fault site")]
    fn unknown_site_panics_loudly() {
        FaultPlan::none().fail_once("no.such.site");
    }
}
