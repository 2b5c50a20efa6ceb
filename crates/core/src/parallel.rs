//! Parallel partition merging (§5) — implemented extension.
//!
//! The paper's future work: "Since, PBSM, just like hash based relational
//! joins, uses partitioning to break large inputs into smaller parts, we
//! expect that the PBSM algorithm will parallelize efficiently."
//!
//! Partition pairs are independent, so their plane-sweep merges — the
//! CPU-heavy part of the filter step — run on worker threads here. I/O
//! stays on the calling thread (the storage manager is single-threaded,
//! like SHORE's per-client view): partition files are read sequentially
//! up front, workers sweep in parallel, and the candidate file is written
//! sequentially afterwards. `parallel_scaling` in the bench crate measures
//! the speedup.

use crate::filter::{
    load_partition, merge_pair, report_sweep_stats, write_pairs, Merged, Partitioned,
};
use crate::keyptr::{KeyPointer, OID_PAIR_SIZE};
use crate::JoinConfig;
use pbsm_geom::sweep::SweepStats;
use pbsm_storage::lockcheck::{self, LockId};
use pbsm_storage::record::RecordFile;
use pbsm_storage::{Db, Oid, StorageResult};
use std::sync::Mutex;

/// Merges all partition pairs using `config.merge_threads` workers into
/// one candidate file, byte-identical to the sequential merge's.
pub fn merge_partitions_parallel(
    db: &Db,
    r_parts: &Partitioned,
    s_parts: &Partitioned,
    config: &JoinConfig,
) -> StorageResult<Merged> {
    let threads = config.merge_threads.max(1);
    // Phase 1 (sequential I/O): load every partition pair.
    let mut pairs_in: Vec<(Vec<KeyPointer>, Vec<KeyPointer>)> =
        Vec::with_capacity(r_parts.files.len());
    for (rf, sf) in r_parts.files.iter().zip(&s_parts.files) {
        pairs_in.push((load_partition(db, rf)?, load_partition(db, sf)?));
    }

    // Phase 2 (parallel CPU): sweep pairs, pulled from a shared queue so
    // skewed partitions do not serialize behind one worker. Workers carry
    // their sweep tallies in the result slots — the metrics collector is
    // thread-local, so counting on a worker thread would lose the numbers.
    let n = pairs_in.len();
    let mut results: Vec<(Vec<(Oid, Oid)>, SweepStats)> = Vec::with_capacity(n);
    results.resize_with(n, Default::default);
    {
        let next = Mutex::new(0usize);
        let slots = Mutex::new(&mut results);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = {
                        // A poisoned lock means a sibling worker panicked;
                        // its panic resurfaces when the scope joins, so
                        // ignoring the poison here never masks a failure.
                        let mut g = lockcheck::lock(&next, LockId::ParallelNext);
                        if *g >= n {
                            break;
                        }
                        let i = *g;
                        *g += 1;
                        i
                    };
                    let (r, s) = &pairs_in[i];
                    let mut out = Vec::new();
                    let stats = merge_pair(r, s, config, &mut out);
                    lockcheck::lock(&slots, LockId::ParallelSlots)[i] = (out, stats);
                });
            }
        });
    }

    // Phase 3 (sequential I/O): write candidates in partition order so the
    // output is deterministic regardless of thread scheduling. The output
    // file is destroyed if the write fails, so a degraded ENOSPC re-run
    // starts from a clean disk.
    let out = RecordFile::create(db.pool(), OID_PAIR_SIZE)?;
    match write_candidates(db, &results, &out) {
        Ok((candidates, stats)) => {
            report_sweep_stats(stats);
            Ok(Merged {
                files: vec![out],
                candidates,
                ..Merged::default()
            })
        }
        Err(e) => {
            out.destroy(db.pool());
            Err(e)
        }
    }
}

fn write_candidates(
    db: &Db,
    results: &[(Vec<(Oid, Oid)>, SweepStats)],
    out: &RecordFile,
) -> StorageResult<(u64, SweepStats)> {
    let mut writer = out.writer(db.pool());
    let mut candidates = 0u64;
    let mut stats = SweepStats::default();
    for (part, part_stats) in results {
        candidates += part.len() as u64;
        stats.absorb(*part_stats);
        write_pairs(&mut writer, part)?;
    }
    writer.finish()?;
    Ok((candidates, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{merge_partitions, partition_input};
    use crate::loader::load_relation;
    use crate::partition::{TileGrid, TileMapScheme};
    use pbsm_storage::tuple::SpatialTuple;
    use pbsm_storage::DbConfig;

    #[test]
    fn parallel_merge_matches_sequential() {
        let db = Db::new(DbConfig::with_pool_mb(2));
        let mk = |n: usize, seed: u64| -> Vec<SpatialTuple> {
            crate::testgen::mk_tuples(n, seed, 60.0, 1, 0.0, 1.0, 0)
        };
        let r = load_relation(&db, "r", &mk(600, 3), false).unwrap();
        let s = load_relation(&db, "s", &mk(500, 5), false).unwrap();
        let grid = TileGrid::new(r.universe.union(&s.universe), 256);
        let rp = partition_input(&db, &r, &grid, TileMapScheme::Hash, 8).unwrap();
        let sp = partition_input(&db, &s, &grid, TileMapScheme::Hash, 8).unwrap();

        let seq_cfg = JoinConfig {
            merge_threads: 1,
            ..JoinConfig::default()
        };
        let par_cfg = JoinConfig {
            merge_threads: 4,
            ..JoinConfig::default()
        };
        let seq = merge_partitions(&db, &rp, &sp, &seq_cfg, None).unwrap();
        let par = merge_partitions(&db, &rp, &sp, &par_cfg, None).unwrap();
        assert_eq!(seq.candidates, par.candidates);
        let seq_bytes = seq.files[0].read_all(db.pool()).unwrap();
        let par_bytes = par.files[0].read_all(db.pool()).unwrap();
        assert_eq!(seq_bytes, par_bytes, "parallel merge must be deterministic");
    }
}
