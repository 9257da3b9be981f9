//! The one conflict-retry loop: [`RetryPolicy`]. [`crate::Engine::run`]
//! is its begin/body/commit instance; drivers and experiments that need
//! the retry *count* call [`RetryPolicy::run`] themselves.

use std::time::Duration;

use udbms_core::{Result, SplitMix64};

/// Bounded exponential backoff with jitter for retryable errors
/// ([`udbms_core::Error::is_retryable`] — optimistic transaction
/// conflicts). Non-retryable errors (including `Unavailable` from a
/// poisoned or read-only WAL) are returned immediately: retrying a
/// failed fsync or a full disk can only lie about durability.
///
/// Each attempt k sleeps `min(base << k, cap)` scaled by a random
/// factor in [0.5, 1.0) (decorrelated-ish jitter), so colliding
/// clients spread out instead of re-colliding in lockstep. The policy
/// is deterministic for a given seed, matching the harness's
/// reproducibility rules.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum number of *retries* after the first attempt. 0 disables
    /// retrying entirely (the first error is returned).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::with_retries(8)
    }
}

impl RetryPolicy {
    /// A policy that never retries — every error propagates on the
    /// first attempt.
    pub const fn none() -> RetryPolicy {
        RetryPolicy::with_retries(0)
    }

    /// A default-shaped policy with an explicit retry budget.
    pub const fn with_retries(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base: Duration::from_micros(50),
            cap: Duration::from_millis(5),
        }
    }

    /// The jittered backoff before retry number `attempt` (0-based).
    /// Exposed for tests; `run` is the normal entry point.
    pub fn backoff(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        let capped = exp.min(self.cap);
        // scale by [0.5, 1.0): never a zero sleep, never above the cap
        capped.mul_f64(0.5 + rng.f64() / 2.0)
    }

    /// Run `op` until it succeeds, fails with a non-retryable error, or
    /// the retry budget is exhausted. Returns the operation's result
    /// plus the number of retries consumed, so callers can report
    /// retries separately from aborts. `seed` is asked for the jitter
    /// seed on the first retry only: an `op` that succeeds first time
    /// pays for nothing but its own call.
    pub fn run<T>(
        &self,
        seed: impl Fn() -> u64,
        mut op: impl FnMut() -> Result<T>,
    ) -> (Result<T>, u32) {
        let mut rng: Option<SplitMix64> = None;
        let mut retries = 0;
        loop {
            match op() {
                Ok(v) => return (Ok(v), retries),
                Err(e) if e.is_retryable() && retries < self.max_retries => {
                    let rng = rng.get_or_insert_with(|| SplitMix64::new(seed()));
                    std::thread::sleep(self.backoff(retries, rng));
                    retries += 1;
                }
                Err(e) => return (Err(e), retries),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::Error;

    #[test]
    fn retry_policy_retries_conflicts_until_success() {
        let policy = RetryPolicy::default();
        let attempts = std::cell::Cell::new(0u32);
        let (r, retries) = policy.run(
            || 7,
            || {
                attempts.set(attempts.get() + 1);
                if attempts.get() < 4 {
                    Err(Error::TxnConflict("ww".into()))
                } else {
                    Ok(42)
                }
            },
        );
        assert_eq!(r.unwrap(), 42);
        assert_eq!(retries, 3);
        assert_eq!(attempts.get(), 4);
    }

    #[test]
    fn retry_policy_gives_up_after_the_budget() {
        let policy = RetryPolicy::with_retries(3);
        let attempts = std::cell::Cell::new(0u32);
        let (r, retries) = policy.run::<()>(
            || 7,
            || {
                attempts.set(attempts.get() + 1);
                Err(Error::TxnConflict("ww".into()))
            },
        );
        assert!(matches!(r, Err(Error::TxnConflict(_))));
        assert_eq!(retries, 3);
        assert_eq!(attempts.get(), 4, "budget of 3 retries = 4 attempts");
    }

    #[test]
    fn retry_policy_never_retries_unavailable() {
        // fsyncgate: a poisoned WAL must fail fast, not be hammered
        let policy = RetryPolicy::default();
        let attempts = std::cell::Cell::new(0u32);
        let (r, retries) = policy.run::<()>(
            || 7,
            || {
                attempts.set(attempts.get() + 1);
                Err(Error::Unavailable("wal poisoned".into()))
            },
        );
        assert!(matches!(r, Err(Error::Unavailable(_))));
        assert_eq!(retries, 0);
        assert_eq!(attempts.get(), 1);
    }

    #[test]
    fn retry_policy_none_propagates_first_conflict() {
        let (r, retries) =
            RetryPolicy::none().run::<()>(|| 7, || Err(Error::TxnConflict("ww".into())));
        assert!(r.is_err());
        assert_eq!(retries, 0);
    }

    #[test]
    fn the_jitter_seed_is_asked_for_on_the_first_retry_only() {
        let asked = std::cell::Cell::new(0u32);
        let seed = || {
            asked.set(asked.get() + 1);
            7
        };
        let (r, retries) = RetryPolicy::default().run(seed, || Ok(1));
        assert_eq!((r.unwrap(), retries, asked.get()), (1, 0, 0));
        let (r, retries) =
            RetryPolicy::with_retries(3).run::<()>(seed, || Err(Error::TxnConflict("ww".into())));
        assert!(r.is_err());
        assert_eq!((retries, asked.get()), (3, 1), "three retries, one seed");
    }

    #[test]
    fn backoff_grows_then_caps_with_jitter_in_bounds() {
        let policy = RetryPolicy::default();
        let mut rng = SplitMix64::new(42);
        let mut prev_hi = Duration::ZERO;
        for attempt in 0..12 {
            let d = policy.backoff(attempt, &mut rng);
            let nominal = policy
                .base
                .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
                .min(policy.cap);
            assert!(d >= nominal.mul_f64(0.5), "attempt {attempt}: {d:?}");
            assert!(d <= nominal, "attempt {attempt}: {d:?} > {nominal:?}");
            assert!(d <= policy.cap);
            prev_hi = prev_hi.max(d);
        }
        // the schedule actually reached the cap region
        assert!(prev_hi > policy.cap.mul_f64(0.4));
    }
}
