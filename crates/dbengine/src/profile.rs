//! Engine profiles: how different DBMSs force their log.
//!
//! The paper evaluates RapiLog under multiple engines. For the logging
//! study, engines differ in (a) the commit-forcing policy and (b) per-
//! operation CPU cost. A profile bundles both; the storage engine
//! underneath is shared, so recovery correctness is tested once and the
//! cross-engine comparison isolates the forcing behaviour — which is the
//! variable the paper studies.

use rapilog_simcore::SimDuration;

use crate::wal::CommitPolicy;

/// A named engine personality.
#[derive(Debug, Clone)]
pub struct EngineProfile {
    /// Profile name (appears in figures).
    pub name: String,
    /// Log forcing policy.
    pub commit_policy: CommitPolicy,
    /// CPU time to read one row.
    pub cpu_read: SimDuration,
    /// CPU time to write one row (includes logging CPU).
    pub cpu_write: SimDuration,
    /// CPU time of commit bookkeeping (excluding the log force).
    pub cpu_commit: SimDuration,
    /// CPU time to begin a transaction.
    pub cpu_begin: SimDuration,
}

impl EngineProfile {
    /// PostgreSQL-like: no artificial delay; batching emerges naturally
    /// when commits queue behind an in-flight flush (`commit_delay = 0`).
    pub fn pg_like() -> EngineProfile {
        EngineProfile {
            name: "pg-like".to_string(),
            commit_policy: CommitPolicy::default(),
            cpu_read: SimDuration::from_micros(9),
            cpu_write: SimDuration::from_micros(14),
            cpu_commit: SimDuration::from_micros(25),
            cpu_begin: SimDuration::from_micros(6),
        }
    }

    /// PostgreSQL-like with an explicit `commit_delay` (Table 3 sweeps
    /// this knob to study the group-commit interaction).
    pub fn pg_like_with_delay(delay: SimDuration) -> EngineProfile {
        let mut p = Self::pg_like();
        p.name = format!("pg-like-delay-{}us", delay.as_micros());
        p.commit_policy.group_delay = delay;
        p
    }

    /// InnoDB-like: flush-at-commit with a short accumulation window
    /// (binlog-group-commit style), slightly cheaper row operations.
    pub fn innodb_like() -> EngineProfile {
        EngineProfile {
            name: "innodb-like".to_string(),
            commit_policy: CommitPolicy {
                group_delay: SimDuration::from_micros(50),
                wait_for_durable: true,
            },
            cpu_read: SimDuration::from_micros(7),
            cpu_write: SimDuration::from_micros(12),
            cpu_commit: SimDuration::from_micros(30),
            cpu_begin: SimDuration::from_micros(5),
        }
    }

    /// Derby-like embedded engine: straightforward synchronous commit,
    /// higher CPU cost per operation.
    pub fn simple_sync() -> EngineProfile {
        EngineProfile {
            name: "simple-sync".to_string(),
            commit_policy: CommitPolicy::default(),
            cpu_read: SimDuration::from_micros(15),
            cpu_write: SimDuration::from_micros(22),
            cpu_commit: SimDuration::from_micros(40),
            cpu_begin: SimDuration::from_micros(8),
        }
    }

    /// `synchronous_commit = off`: acknowledges before durability.
    /// **Unsafe** — exists so the durability audit can demonstrate the
    /// loss window that RapiLog closes without giving up the speed.
    pub fn async_unsafe() -> EngineProfile {
        EngineProfile {
            name: "async-unsafe".to_string(),
            commit_policy: CommitPolicy {
                wait_for_durable: false,
                ..CommitPolicy::default()
            },
            ..Self::pg_like()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_expected_policies() {
        assert!(EngineProfile::pg_like().commit_policy.wait_for_durable);
        assert!(EngineProfile::pg_like().commit_policy.group_delay.is_zero());
        assert!(!EngineProfile::async_unsafe().commit_policy.wait_for_durable);
        assert_eq!(
            EngineProfile::innodb_like().commit_policy.group_delay,
            SimDuration::from_micros(50)
        );
        let d = EngineProfile::pg_like_with_delay(SimDuration::from_micros(200));
        assert_eq!(d.commit_policy.group_delay, SimDuration::from_micros(200));
        assert!(d.name.contains("200us"));
    }
}
