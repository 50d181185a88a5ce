//! Per-job retry policy shared by the trainers' attempt loop and the
//! discrete-event simulator.
//!
//! The attempt loop (`a4nn_core`'s `train_resilient_direct`) bounds a
//! model's attempts by `max_attempts` and retries inline. The DES charges
//! each failed attempt to its GPU and requeues the job onto the FIFO
//! ready queue after the exponential backoff, in simulated time.

use serde::{Deserialize, Serialize};

/// How many times a job may run and how long to wait between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum attempts per job, including the first (`1` = no retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied per additional failed attempt.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    /// Three attempts with a 10 ms base backoff doubling per failure —
    /// small enough that retries are invisible on the happy path, large
    /// enough that the backoff ordering is observable in tests.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_s: 0.01,
            backoff_factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `retries` retries (so `retries + 1` attempts).
    pub fn with_retries(retries: u32) -> Self {
        RetryPolicy {
            max_attempts: retries.saturating_add(1).max(1),
            ..RetryPolicy::default()
        }
    }

    /// Backoff in seconds before attempt `attempt + 1`, given that
    /// attempt `attempt` (1-based) just failed.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        self.backoff_base_s * self.backoff_factor.powi(attempt.saturating_sub(1) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            max_attempts: 4,
            backoff_base_s: 1.0,
            backoff_factor: 2.0,
        };
        assert_eq!(p.backoff_s(1), 1.0);
        assert_eq!(p.backoff_s(2), 2.0);
        assert_eq!(p.backoff_s(3), 4.0);
    }

    #[test]
    fn with_retries_counts_the_first_attempt() {
        assert_eq!(RetryPolicy::with_retries(0).max_attempts, 1);
        assert_eq!(RetryPolicy::with_retries(2).max_attempts, 3);
    }
}
