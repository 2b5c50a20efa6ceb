//! The PBSM join driver (§3).
//!
//! Components are tracked to mirror Figure 12's breakdown: "Partition
//! <left>", "Partition <right>", "Merge Partitions", "Refinement Step".

use crate::cost::CostTracker;
use crate::filter::{concat_candidates, merge_partitions, partition_input};
use crate::keyptr::KEY_PTR_SIZE;
use crate::partition::{partition_count, TileGrid};
use crate::recover::{degraded_work_mem, join_fingerprint, Ckpt};
use crate::refine::refinement_step;
use crate::{JoinConfig, JoinOutcome, JoinSpec, JoinStats};
use pbsm_storage::catalog::RelationMeta;
use pbsm_storage::journal::{JoinResume, JournalRecord};
use pbsm_storage::record::RecordFile;
use pbsm_storage::{Db, StorageError, StorageResult};

/// Runs the Partition Based Spatial-Merge join.
///
/// On `DiskFull` (device out of space during partitioning, the candidate
/// merge, or the refinement sort) the driver degrades instead of aborting:
/// the failed attempt's temp files are released, work memory is halved and
/// the partition floor doubled, and the whole filter + refinement pipeline
/// re-runs — up to `config.recovery.max_attempts` total attempts. Any
/// other error, and `DiskFull` past the budget, surfaces unchanged.
pub fn pbsm_join(db: &Db, spec: &JoinSpec, config: &JoinConfig) -> StorageResult<JoinOutcome> {
    pbsm_join_resume(db, spec, config, None)
}

/// [`pbsm_join`], optionally resuming from crash checkpoints surfaced by
/// [`pbsm_storage::Db::recover`].
///
/// When the database journals intents (`DbConfig::journal`), every attempt
/// journals a `JoinBegin` carrying a fingerprint of its plan shape, each
/// completed partition-pair sweep and refinement sort run is checkpointed,
/// and a `JoinEnd` retires the checkpoints on success. A caller restarting
/// after a crash passes the recovered [`JoinResume`]; the driver reuses
/// checkpoints only when the restarted plan's fingerprint and partition
/// count match what was journaled — otherwise the checkpoint files are
/// destroyed and the join runs from scratch. Either way the result is
/// identical to an uninterrupted run.
pub fn pbsm_join_resume(
    db: &Db,
    spec: &JoinSpec,
    config: &JoinConfig,
    resume: Option<&JoinResume>,
) -> StorageResult<JoinOutcome> {
    let mut guard = Some(pbsm_obs::span(format!(
        "pbsm join {} ⋈ {}",
        spec.left, spec.right
    )));
    let (left, right) = {
        let cat = db.catalog();
        (
            cat.relation(&spec.left)?.clone(),
            cat.relation(&spec.right)?.clone(),
        )
    };
    let max_attempts = config.recovery.max_attempts.max(1);
    let mut work_mem = config.work_mem_bytes;
    let mut min_partitions = 1usize;
    let mut attempt = 1u32;
    let mut resume = resume;
    loop {
        // Equation 1 sizes the partition set from catalog cardinalities;
        // a degraded re-run additionally forces more partitions than the
        // failed attempt used.
        let p = partition_count(left.cardinality, right.cardinality, KEY_PTR_SIZE, work_mem)
            .max(min_partitions);
        // Degraded attempts run the whole pipeline (including the merge's
        // dynamic-repartition threshold) under the reduced work memory.
        let attempt_config = JoinConfig {
            work_mem_bytes: work_mem,
            ..config.clone()
        };
        let mut ckpt = db.pool().journal_enabled().then(|| {
            let fp = join_fingerprint(
                &left.name,
                &right.name,
                left.cardinality,
                right.cardinality,
                spec.predicate,
                p,
                work_mem,
                config.num_tiles,
            );
            // Checkpoints are trusted only by the very first attempt, and
            // only when the restarted plan matches the journaled one — a
            // degraded re-run has a different fingerprint by construction
            // (work memory and partition count both feed it).
            match resume.take() {
                Some(r) if attempt == 1 && r.fingerprint == fp && r.partitions == p as u32 => {
                    pbsm_obs::cached_counter!("pbsm.resume.joins").incr();
                    Ckpt::new(fp, Some(r))
                }
                rejected => {
                    Ckpt::new(fp, rejected).destroy(db);
                    Ckpt::new(fp, None)
                }
            }
        });
        let outcome = pbsm_attempt(db, spec, &attempt_config, &left, &right, p, ckpt.as_mut());
        if outcome.is_err() {
            // The one cleanup path for checkpoints: whatever no stage has
            // taken over yet is released before a retry or the error.
            if let Some(c) = ckpt {
                c.destroy(db);
            }
        }
        match outcome {
            Err(e) if e.is_disk_full() && attempt < max_attempts => {
                pbsm_obs::cached_counter!("pbsm.recover.enospc_retries").incr();
                pbsm_obs::flight::record(
                    pbsm_obs::flight::EventKind::Degrade,
                    "halve work_mem",
                    work_mem as u64,
                    p as u64,
                );
                min_partitions = (p * 2).max(2);
                work_mem = degraded_work_mem(work_mem);
                attempt += 1;
            }
            Err(e) => {
                if e.is_disk_full() {
                    pbsm_obs::cached_counter!("pbsm.recover.exhausted").incr();
                }
                return Err(e);
            }
            Ok(mut out) => {
                out.stats.recovery_retries = (attempt - 1) as u64;
                // The budget the successful attempt really ran under —
                // after degradation this is smaller than configured.
                out.stats.peak_work_mem_pages = (work_mem / pbsm_storage::PAGE_SIZE).max(1) as u64;
                if let Some(g) = guard.take() {
                    let record = g.finish();
                    let profile = crate::profile::build_join_profile(
                        "pbsm",
                        &format!("{} ⋈ {}", spec.left, spec.right),
                        &db.config().disk,
                        &record,
                        &out.report,
                        &out.stats,
                    );
                    pbsm_obs::profile::publish(profile.clone());
                    out.profile = Some(profile);
                    crate::telemetry::query_complete(
                        crate::telemetry::QueryClass::Pbsm,
                        record.delta(pbsm_obs::names::DISK_IO_NS),
                    );
                }
                return Ok(out);
            }
        }
    }
}

/// One full filter + refinement pass under `config` (already carrying
/// the attempt's work memory).
///
/// `ckpt` is `Some` exactly when the database journals. The attempt then
/// brackets its work in `JoinBegin`/`JoinEnd`, the merge writes each
/// partition pair to its own checkpointed file (reusing pairs a crashed
/// incarnation finished), the pair files are concatenated in pair order
/// for the refinement sort — byte-identical to the plain merge's single
/// file — and the sort checkpoints its runs. Stages take over the
/// checkpoints they consume (see [`Ckpt`]); the rest stay the caller's.
/// Every temp file the attempt itself creates is destroyed before an
/// error returns, so a degraded re-run (and the hard capacity budget)
/// starts from a clean disk.
fn pbsm_attempt(
    db: &Db,
    spec: &JoinSpec,
    config: &JoinConfig,
    left: &RelationMeta,
    right: &RelationMeta,
    p: usize,
    mut ckpt: Option<&mut Ckpt>,
) -> StorageResult<JoinOutcome> {
    let mut tracker = CostTracker::new();
    let mut stats = JoinStats::default();
    if let Some(c) = ckpt.as_deref_mut() {
        c.begin(db, p)?;
    }

    // The grid uses at least the configured tile count ("NT is greater
    // than or equal to P").
    let universe = left.universe.union(&right.universe);
    let grid = TileGrid::new(universe, config.num_tiles.max(p));
    stats.partitions = p;
    stats.tiles = grid.num_tiles() as usize;

    // Filter step, phase 1: partition both inputs (never checkpointed —
    // partition files are cheap to rebuild relative to sweeps and sorts).
    let left_parts = tracker.run(&format!("partition {}", left.name), || {
        partition_input(db, left, &grid, config.tile_map, p)
    })?;
    let right_parts = match tracker.run(&format!("partition {}", right.name), || {
        partition_input(db, right, &grid, config.tile_map, p)
    }) {
        Ok(parts) => parts,
        Err(e) => {
            left_parts.destroy(db);
            return Err(e);
        }
    };
    stats.input_elements = left_parts.input_elements + right_parts.input_elements;
    stats.replicated_elements = left_parts.replicated_elements + right_parts.replicated_elements;

    // Filter step, phase 2: plane-sweep merge of each partition pair.
    let merged = tracker.run("merge partitions", || {
        merge_partitions(db, &left_parts, &right_parts, config, ckpt.as_deref_mut())
    });
    left_parts.destroy(db);
    right_parts.destroy(db);
    let merged = merged?;
    stats.candidates = merged.candidates;
    stats.resumed_pairs = merged.resumed_pairs;

    // Refinement step over one candidate stream, the last file in
    // `candidates`: the plain merge's single file, or the pair files
    // concatenated in pair order — byte-identical to it, so the skip
    // offsets of resumed sort runs stay valid.
    let mut candidates = merged.files;
    if let Some(c) = ckpt.as_deref() {
        match concat_candidates(db, &candidates) {
            Ok(stream) => candidates.push(stream),
            Err(e) => {
                release_candidates(db, candidates, false);
                return Err(e);
            }
        }
        stats.resumed_runs = c.runs.len() as u64;
        if !c.runs.is_empty() {
            pbsm_obs::cached_counter!("pbsm.resume.runs_skipped").add(c.runs.len() as u64);
        }
    }
    let refined = match candidates.last() {
        Some(stream) => tracker.run("refinement step", || {
            refinement_step(
                db,
                stream,
                left,
                right,
                spec.predicate,
                &config.refine,
                config.work_mem_bytes,
                ckpt.as_deref_mut(),
            )
        }),
        None => Err(StorageError::Corrupt("merge produced no candidate file")),
    };
    release_candidates(
        db,
        candidates,
        refined.is_ok() && crate::telemetry::force_temp_leak(),
    );
    let refined = refined?;
    if let Some(c) = ckpt {
        db.pool()
            .journal_append(JournalRecord::JoinEnd { join_id: c.join_id })?;
    }
    stats.unique_candidates = refined.unique_candidates;
    stats.results = refined.pairs.len() as u64;

    Ok(JoinOutcome {
        pairs: refined.pairs,
        report: tracker.finish(),
        stats,
        profile: None,
    })
}

/// Destroys an attempt's candidate files, the refinement input (the last)
/// first. `leak_input` is a test hook: it leaks the refinement input so
/// the leak sentinel has a genuine monotonic drift to detect (under a
/// journal the skipped `TempDropped` also leaves the intent open, so the
/// journal-length leak axis drifts alongside live pages).
fn release_candidates(db: &Db, mut files: Vec<RecordFile>, leak_input: bool) {
    if let Some(input) = files.pop() {
        if !leak_input {
            input.destroy(db.pool());
        }
    }
    for f in files {
        f.destroy(db.pool());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::load_relation;
    use pbsm_geom::predicates::SpatialPredicate;
    use pbsm_storage::tuple::SpatialTuple;
    use pbsm_storage::DbConfig;

    fn mk_tuples(n: usize, seed: u64) -> Vec<SpatialTuple> {
        crate::testgen::mk_tuples(n, seed, 80.0, 3, 1.0, -0.5, 24)
    }

    #[test]
    fn pbsm_end_to_end() {
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(2));
        load_relation(&db, "road", &mk_tuples(700, 3), false).unwrap();
        load_relation(&db, "hydro", &mk_tuples(500, 9), false).unwrap();
        let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
        // Small work memory to force several partitions.
        let config = JoinConfig {
            work_mem_bytes: 16 * 1024,
            num_tiles: 128,
            ..JoinConfig::default()
        };
        let out = pbsm_join(&db, &spec, &config).unwrap();
        assert!(
            out.stats.partitions >= 2,
            "partitions {}",
            out.stats.partitions
        );
        assert!(out.stats.results > 0);
        assert!(out.stats.candidates >= out.stats.unique_candidates);
        assert!(out.stats.unique_candidates >= out.stats.results);
        // Components present and in Figure-12 shape.
        let names: Vec<&str> = out
            .report
            .components
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "partition road",
                "partition hydro",
                "merge partitions",
                "refinement step"
            ]
        );
        // Data this small stays resident in a 2 MB pool, so physical I/O
        // may legitimately be zero; CPU time must not be.
        assert!(out.report.total_cpu_s() > 0.0);
    }

    #[test]
    fn pbsm_in_memory_single_partition() {
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(8));
        load_relation(&db, "a", &mk_tuples(200, 5), false).unwrap();
        load_relation(&db, "b", &mk_tuples(200, 7), false).unwrap();
        let out = pbsm_join(
            &db,
            &JoinSpec::new("a", "b", SpatialPredicate::Intersects),
            &JoinConfig::for_db(&db),
        )
        .unwrap();
        assert_eq!(out.stats.partitions, 1);
        assert_eq!(out.stats.candidates, out.stats.unique_candidates);
        assert!(out.stats.results > 0);
    }

    #[test]
    fn journaled_join_matches_plain_and_retires_checkpoints() {
        let mk = |journal: bool| {
            let db = pbsm_storage::Db::new(DbConfig {
                journal,
                ..DbConfig::with_pool_mb(2)
            });
            load_relation(&db, "road", &mk_tuples(700, 3), false).unwrap();
            load_relation(&db, "hydro", &mk_tuples(500, 9), false).unwrap();
            db
        };
        let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
        let config = JoinConfig {
            work_mem_bytes: 16 * 1024,
            num_tiles: 128,
            ..JoinConfig::default()
        };
        let plain = pbsm_join(&mk(false), &spec, &config).unwrap();
        let db = mk(true);
        let out = pbsm_join(&db, &spec, &config).unwrap();
        // The journal claims file 0, shifting every heap file id by one;
        // compare the (page, slot) identity of each result pair instead.
        let strip = |pairs: &[(pbsm_storage::Oid, pbsm_storage::Oid)]| -> Vec<[u64; 2]> {
            pairs
                .iter()
                .map(|(a, b)| [a.raw() & 0xFFFF_FFFF_FFFF, b.raw() & 0xFFFF_FFFF_FFFF])
                .collect()
        };
        assert_eq!(strip(&out.pairs), strip(&plain.pairs));
        assert_eq!(out.stats.candidates, plain.stats.candidates);
        assert_eq!(out.stats.unique_candidates, plain.stats.unique_candidates);
        assert_eq!(out.stats.resumed_pairs, 0);
        assert_eq!(out.stats.resumed_runs, 0);
        // The JoinEnd record retired every checkpoint: recovery over this
        // disk finds no join in flight and nothing to reclaim.
        let cfg = db.config();
        let (_db2, state) = pbsm_storage::Db::recover(cfg, db.into_disk()).unwrap();
        assert_eq!(state.orphan_files, 0);
        assert_eq!(state.orphan_pages, 0);
        assert!(state.join.is_none());
    }

    #[test]
    fn pbsm_identity_join_contains_diagonal() {
        // Joining a relation with itself: every tuple pairs with itself.
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(4));
        load_relation(&db, "x", &mk_tuples(150, 13), false).unwrap();
        load_relation(&db, "y", &mk_tuples(150, 13), false).unwrap(); // same seed
        let out = pbsm_join(
            &db,
            &JoinSpec::new("x", "y", SpatialPredicate::Intersects),
            &JoinConfig::for_db(&db),
        )
        .unwrap();
        assert!(out.stats.results >= 150);
    }
}
