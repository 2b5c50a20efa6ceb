//! Out-of-space recovery for PBSM — the *degradation* half of the fault
//! story (the *retry* half for transient faults lives in the buffer pool,
//! `pbsm_storage::fault::RetryPolicy`; between them, all recovery policy
//! sits in exactly two declared places, one per fault class).
//!
//! ENOSPC is not retryable: re-running the same plan re-fills the same
//! pages. Instead the PBSM driver degrades and re-runs the filter step —
//! the failed attempt's temp files are destroyed (every partition, sort
//! run, and candidate file cleans up on its error path), work memory is
//! halved, and the partition floor is doubled, so the retry spills smaller
//! files in more pieces. Attempts are bounded; when they run out, the last
//! `DiskFull` error surfaces unchanged as a clean typed error.
//!
//! Crash recovery's side lives here too: the plan fingerprint a resumed
//! join must match ([`join_fingerprint`]) and the checkpoint context a
//! journaled attempt carries through the pipeline ([`Ckpt`]).

use crate::keyptr::OID_PAIR_SIZE;
use pbsm_storage::journal::{JoinResume, JournalRecord, PairCkpt, RunCkpt};
use pbsm_storage::record::RecordFile;
use pbsm_storage::{Db, StorageResult};
use std::collections::BTreeMap;

/// Bounds the ENOSPC degradation loop in [`crate::pbsm::pbsm_join`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Total attempts, including the first. `1` disables degradation:
    /// the first `DiskFull` aborts the join.
    pub max_attempts: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        // First run plus two degraded re-runs at 1/2 and 1/4 work memory.
        RecoveryPolicy { max_attempts: 3 }
    }
}

impl RecoveryPolicy {
    /// No degradation: surface the first `DiskFull` immediately.
    pub fn disabled() -> Self {
        RecoveryPolicy { max_attempts: 1 }
    }
}

/// Work memory never degrades below this; partition files below it spend
/// more pages on headers than records.
pub const MIN_WORK_MEM: usize = 64 * 1024;

/// One degradation step: halve the work memory (with a floor) so Equation
/// 1 yields more, smaller partitions on the re-run.
pub fn degraded_work_mem(work_mem: usize) -> usize {
    (work_mem / 2).max(MIN_WORK_MEM)
}

/// Fingerprint of a journaled PBSM plan: FNV-1a over everything that
/// shapes the partition layout and candidate byte stream. A resumed
/// incarnation trusts crash checkpoints only when its own fingerprint
/// matches the one recorded at `JoinBegin` — any drift (different inputs,
/// predicate, degraded work memory, partition count) silently invalidates
/// them, and the join simply restarts from scratch.
#[allow(clippy::too_many_arguments)]
pub fn join_fingerprint(
    left: &str,
    right: &str,
    left_cardinality: u64,
    right_cardinality: u64,
    predicate: pbsm_geom::predicates::SpatialPredicate,
    partitions: usize,
    work_mem: usize,
    num_tiles: usize,
) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Field separator so ("ab","c") and ("a","bc") differ.
        h = (h ^ 0xFF).wrapping_mul(0x0000_0100_0000_01B3);
    };
    eat(left.as_bytes());
    eat(right.as_bytes());
    eat(&left_cardinality.to_le_bytes());
    eat(&right_cardinality.to_le_bytes());
    eat(format!("{predicate:?}").as_bytes());
    eat(&(partitions as u64).to_le_bytes());
    eat(&(work_mem as u64).to_le_bytes());
    eat(&(num_tiles as u64).to_le_bytes());
    h
}

/// Crash-checkpoint context of one journaled PBSM attempt: the id its
/// journal records carry, plus the accepted checkpoints it still owns.
///
/// A stage that takes over a checkpoint removes it from here — the merge
/// each pair it reuses, the refinement sort all runs — and releases it on
/// its own error path. So after a failed attempt, what is left is exactly
/// what [`Ckpt::destroy`] must release.
#[derive(Debug, Default)]
pub struct Ckpt {
    /// Join id of the attempt's `JoinBegin` (equal to its fingerprint).
    pub(crate) join_id: u64,
    /// Accepted partition-pair checkpoints, by pair index.
    pub(crate) pairs: BTreeMap<u32, PairCkpt>,
    /// Accepted refinement sort-run checkpoints, in run-index order.
    pub(crate) runs: Vec<RunCkpt>,
}

impl Ckpt {
    /// A context for the attempt `join_id`, owning the checkpoints of
    /// `resume` (already validated against that attempt's plan).
    pub fn new(join_id: u64, resume: Option<&JoinResume>) -> Self {
        let mut ckpt = Ckpt {
            join_id,
            ..Ckpt::default()
        };
        if let Some(r) = resume {
            ckpt.pairs = r.pairs.iter().map(|pc| (pc.index, *pc)).collect();
            ckpt.runs = r.runs.clone();
        }
        ckpt
    }

    /// Opens the attempt in the journal: `JoinBegin`, then every accepted
    /// checkpoint re-journaled under it *before* any expensive work, so a
    /// second crash mid-partitioning still finds them.
    pub(crate) fn begin(&mut self, db: &Db, partitions: usize) -> StorageResult<()> {
        let pool = db.pool();
        pool.journal_append(JournalRecord::JoinBegin {
            join_id: self.join_id,
            fingerprint: self.join_id,
            partitions: partitions as u32,
        })?;
        for pc in self.pairs.values() {
            pool.journal_append(JournalRecord::PairDone {
                join_id: self.join_id,
                pair_index: pc.index,
                file: pc.file,
                count: pc.count,
            })?;
        }
        // Run checkpoints are sound only when *every* pair was
        // checkpointed: the refinement input is the concatenation of all
        // pair files in index order, so one re-swept pair would shift the
        // byte stream under the resumed runs' skip offsets.
        if self.pairs.len() == partitions {
            for rc in &self.runs {
                pool.journal_append(JournalRecord::RunDone {
                    join_id: self.join_id,
                    run_index: rc.index,
                    file: rc.file,
                    count: rc.count,
                })?;
            }
        } else {
            for rc in self.runs.drain(..) {
                RecordFile::open(rc.file, OID_PAIR_SIZE, rc.count).destroy(pool);
            }
        }
        Ok(())
    }

    /// Destroys every checkpoint file still owned here. Each destroy
    /// journals a `TempDropped`, so the journal itself records the
    /// invalidation; under a crashed disk the drops no-op, which keeps the
    /// checkpoints alive for the next recovery.
    pub fn destroy(self, db: &Db) {
        for pc in self.pairs.into_values() {
            RecordFile::open(pc.file, OID_PAIR_SIZE, pc.count).destroy(db.pool());
        }
        for rc in self.runs {
            RecordFile::open(rc.file, OID_PAIR_SIZE, rc.count).destroy(db.pool());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_halves_with_floor() {
        assert_eq!(degraded_work_mem(16 * 1024 * 1024), 8 * 1024 * 1024);
        assert_eq!(degraded_work_mem(100 * 1024), MIN_WORK_MEM);
        assert_eq!(degraded_work_mem(0), MIN_WORK_MEM);
    }

    #[test]
    fn policy_defaults() {
        assert_eq!(RecoveryPolicy::default().max_attempts, 3);
        assert_eq!(RecoveryPolicy::disabled().max_attempts, 1);
    }

    #[test]
    fn fingerprint_separates_plan_shapes() {
        use pbsm_geom::predicates::SpatialPredicate::*;
        let base = join_fingerprint("road", "hydro", 700, 500, Intersects, 4, 1 << 20, 1024);
        assert_eq!(
            base,
            join_fingerprint("road", "hydro", 700, 500, Intersects, 4, 1 << 20, 1024)
        );
        for other in [
            join_fingerprint("roadh", "ydro", 700, 500, Intersects, 4, 1 << 20, 1024),
            join_fingerprint("road", "hydro", 701, 500, Intersects, 4, 1 << 20, 1024),
            join_fingerprint("road", "hydro", 700, 500, Contains, 4, 1 << 20, 1024),
            join_fingerprint("road", "hydro", 700, 500, Intersects, 8, 1 << 20, 1024),
            join_fingerprint("road", "hydro", 700, 500, Intersects, 4, 1 << 19, 1024),
            join_fingerprint("road", "hydro", 700, 500, Intersects, 4, 1 << 20, 256),
        ] {
            assert_ne!(base, other);
        }
    }
}
