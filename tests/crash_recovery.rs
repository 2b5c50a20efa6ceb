//! Exhaustive crash-point sweeps for the intent journal and restart
//! recovery: small enough inputs that *every single disk operation* in
//! the window can be the crash point. For each op index the workload is
//! crashed, the database recovered from the surviving disk, the work
//! resumed from the journal's checkpoints, and the final answer compared
//! against a fault-free oracle — plus an audit recovery proving nothing
//! leaked. The bench-side `crash` harness samples a handful of points on
//! realistic data; these tests trade scale for total coverage.

use pbsm::geom::predicates::SpatialPredicate;
use pbsm::geom::{Geometry, Point, Polyline};
use pbsm::join::pbsm::{pbsm_join, pbsm_join_resume};
use pbsm::join::{load_relation, JoinConfig, JoinSpec};
use pbsm::storage::extsort::{external_sort_ckpt, SortCheckpoint};
use pbsm::storage::record::RecordFile;
use pbsm::storage::tuple::SpatialTuple;
use pbsm::storage::{
    Db, DbConfig, FaultConfig, FileId, JoinResume, JournalRecord, StorageError, StorageResult,
};
use std::cmp::Ordering;

fn journaled_cfg() -> DbConfig {
    DbConfig {
        journal: true,
        ..DbConfig::with_pool_mb(2)
    }
}

/// Recovery must restore the `live_pages` accounting a dead process could
/// not maintain: the counter has to equal the pages actually held by
/// non-dropped files.
fn assert_live_pages_reconcile(db: &Db, context: &str) {
    let disk = db.pool().disk();
    let held: u64 = (0..disk.num_files())
        .map(FileId)
        .filter(|f| !disk.is_dropped(*f))
        .map(|f| disk.num_pages(f) as u64)
        .sum();
    assert_eq!(
        disk.live_pages(),
        held,
        "{context}: live-page accounting must reconcile with file contents"
    );
}

// ---------------------------------------------------------------------------
// Checkpointed external sort: crash at every op of run generation + merge.
// ---------------------------------------------------------------------------

const SORT_JOIN_ID: u64 = 42;
const SORT_WORK_MEM: usize = 256; // 32 records per run → ~10 runs

fn u64_cmp(a: &[u8], b: &[u8]) -> Ordering {
    let ka = u64::from_le_bytes(a[..8].try_into().unwrap());
    let kb = u64::from_le_bytes(b[..8].try_into().unwrap());
    ka.cmp(&kb)
}

fn sort_keys() -> Vec<u64> {
    (0..300u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

/// A journaled database holding the committed sort input.
fn build_sort_db() -> (Db, RecordFile) {
    let db = Db::new(journaled_cfg());
    let input = RecordFile::create(db.pool(), 8).unwrap();
    let mut w = input.writer(db.pool());
    for k in sort_keys() {
        w.push(&k.to_le_bytes()).unwrap();
    }
    w.finish().unwrap();
    db.pool().flush_file(input.file_id()).unwrap();
    db.pool().commit_intent(input.file_id()).unwrap();
    (db, input)
}

fn read_keys(db: &Db, rf: &RecordFile) -> Vec<u64> {
    let mut out = Vec::new();
    let mut r = rf.reader(db.pool());
    while let Some(rec) = r.next_record().unwrap() {
        out.push(u64::from_le_bytes(rec[..8].try_into().unwrap()));
    }
    out
}

/// One checkpointed sort the way the join driver runs it: bracketed by a
/// `JoinBegin`, each durable run journaled as a `RunDone`.
fn checkpointed_sort(db: &Db, input: &RecordFile) -> StorageResult<RecordFile> {
    db.pool().journal_append(JournalRecord::JoinBegin {
        join_id: SORT_JOIN_ID,
        fingerprint: SORT_JOIN_ID,
        partitions: 1,
    })?;
    let mut on_run = |idx: u32, run: &RecordFile| {
        db.pool().journal_append(JournalRecord::RunDone {
            join_id: SORT_JOIN_ID,
            run_index: idx,
            file: run.file_id(),
            count: run.count(),
        })
    };
    external_sort_ckpt(
        db.pool(),
        input,
        SORT_WORK_MEM,
        u64_cmp,
        false,
        Some(SortCheckpoint {
            resume_runs: Vec::new(),
            on_run: &mut on_run,
        }),
    )
}

/// Resumes the sort on a recovered database from whatever run checkpoints
/// survived, re-journaling them under a fresh `JoinBegin` exactly like the
/// join driver does. Returns the sorted keys and how many runs resumed.
fn resume_sort(db: &Db, input: &RecordFile, recovered: Option<&JoinResume>) -> (Vec<u64>, usize) {
    db.pool()
        .journal_append(JournalRecord::JoinBegin {
            join_id: SORT_JOIN_ID,
            fingerprint: SORT_JOIN_ID,
            partitions: 1,
        })
        .unwrap();
    let mut resume_runs = Vec::new();
    if let Some(j) = recovered.filter(|j| j.join_id == SORT_JOIN_ID) {
        for rc in &j.runs {
            db.pool()
                .journal_append(JournalRecord::RunDone {
                    join_id: SORT_JOIN_ID,
                    run_index: rc.index,
                    file: rc.file,
                    count: rc.count,
                })
                .unwrap();
            resume_runs.push(RecordFile::open(rc.file, 8, rc.count));
        }
    }
    let n_resumed = resume_runs.len();
    let mut on_run = |idx: u32, run: &RecordFile| {
        db.pool().journal_append(JournalRecord::RunDone {
            join_id: SORT_JOIN_ID,
            run_index: idx,
            file: run.file_id(),
            count: run.count(),
        })
    };
    let sorted = external_sort_ckpt(
        db.pool(),
        input,
        SORT_WORK_MEM,
        u64_cmp,
        false,
        Some(SortCheckpoint {
            resume_runs,
            on_run: &mut on_run,
        }),
    )
    .unwrap();
    let keys = read_keys(db, &sorted);
    sorted.destroy(db.pool());
    db.pool()
        .journal_append(JournalRecord::JoinEnd {
            join_id: SORT_JOIN_ID,
        })
        .unwrap();
    (keys, n_resumed)
}

#[test]
fn extsort_survives_a_crash_at_every_op() {
    let mut oracle = sort_keys();
    oracle.sort_unstable();

    // Probe: a fault-free checkpointed sort measures the op window.
    let (db, input) = build_sort_db();
    let before = db.pool().disk().total_ops();
    let sorted = checkpointed_sort(&db, &input).unwrap();
    let window = db.pool().disk().total_ops() - before;
    assert_eq!(read_keys(&db, &sorted), oracle);
    assert!(window > 10, "sort too small to sweep: {window} ops");

    let mut resumed_total = 0usize;
    for crash_op in 0..window {
        let (db, input) = build_sort_db();
        let (input_file, input_count) = (input.file_id(), input.count());
        db.pool()
            .disk_mut()
            .set_faults(Some(FaultConfig::crash_at(11, crash_op)));
        match checkpointed_sort(&db, &input) {
            // The crash can land in the sort's trailing cleanup (run
            // destroys are best-effort and swallow errors), in which case
            // the sort legitimately completes. The result must still be
            // right, and the restart path below must still come up clean.
            Ok(out) => assert_eq!(
                read_keys(&db, &out),
                oracle,
                "crash op {crash_op}: completed sort diverged"
            ),
            Err(StorageError::Crashed) => {}
            Err(e) => panic!("crash op {crash_op}: expected Crashed, got {e}"),
        }

        // Restart: recover the disk, resume from surviving run checkpoints.
        let cfg = db.config();
        let (db2, state) = Db::recover(cfg, db.into_disk()).unwrap();
        let input = RecordFile::open(input_file, 8, input_count);
        let (keys, n_resumed) = resume_sort(&db2, &input, state.join.as_ref());
        assert_eq!(keys, oracle, "crash op {crash_op}: resumed sort diverged");
        resumed_total += n_resumed;

        // Audit: a second recovery must find nothing in flight and
        // nothing to reclaim — only the committed input and the journal.
        let (db3, audit) = Db::recover(cfg, db2.into_disk()).unwrap();
        assert!(
            audit.join.is_none(),
            "crash op {crash_op}: join not retired"
        );
        assert_eq!(
            (audit.orphan_files, audit.orphan_pages),
            (0, 0),
            "crash op {crash_op}: resumed sort leaked files"
        );
        assert_live_pages_reconcile(&db3, &format!("crash op {crash_op}"));
        assert_eq!(read_keys(&db3, &input), sort_keys(), "input damaged");
    }
    assert!(
        resumed_total > 0,
        "no crash point ever resumed a durable run; the checkpoints are inert"
    );
}

// ---------------------------------------------------------------------------
// Full PBSM join: crash at every op of partition → sweep → refine.
// ---------------------------------------------------------------------------

/// Overlapping line grids: `shift` offsets the second relation so every
/// tuple intersects a handful of the other side's tuples.
fn grid_tuples(n: usize, shift: f64) -> Vec<SpatialTuple> {
    (0..n)
        .map(|i| {
            let x = (i % 12) as f64 + shift;
            let y = (i / 12) as f64 + shift;
            let geom: Geometry =
                Polyline::new(vec![Point::new(x, y), Point::new(x + 1.4, y + 1.4)]).into();
            SpatialTuple::new(i as u64, geom, 0)
        })
        .collect()
}

fn build_join_db() -> Db {
    let db = Db::new(journaled_cfg());
    load_relation(&db, "alpha", &grid_tuples(120, 0.0), false).unwrap();
    load_relation(&db, "beta", &grid_tuples(100, 0.45), false).unwrap();
    db
}

#[test]
fn pbsm_join_survives_a_crash_at_every_op() {
    let spec = JoinSpec::new("alpha", "beta", SpatialPredicate::Intersects);
    // Tiny work memory: several partition pairs (so `PairDone` checkpoints
    // land throughout the merge) and a refinement sort that spills
    // multiple runs (so `RunDone` checkpoints engage too).
    let config = JoinConfig {
        work_mem_bytes: 2048,
        num_tiles: 16,
        ..JoinConfig::default()
    };

    // Oracle + op-window probe in one fault-free journaled run.
    let db = build_join_db();
    let before = db.pool().disk().total_ops();
    let oracle = pbsm_join(&db, &spec, &config).unwrap();
    let window = db.pool().disk().total_ops() - before;
    assert!(
        oracle.stats.partitions >= 2,
        "need a multi-partition join, got {}",
        oracle.stats.partitions
    );
    assert!(!oracle.pairs.is_empty());
    assert!(window > 20, "join too small to sweep: {window} ops");

    let mut resumed_pairs = 0u64;
    let mut resumed_runs = 0u64;
    for crash_op in 0..window {
        let db = build_join_db();
        let metas = db.catalog().snapshot();
        db.pool()
            .disk_mut()
            .set_faults(Some(FaultConfig::crash_at(97, crash_op)));
        match pbsm_join(&db, &spec, &config) {
            Ok(_) => panic!("crash op {crash_op}: join completed inside the crash window"),
            Err(StorageError::Crashed) => {}
            Err(e) => panic!("crash op {crash_op}: expected Crashed, got {e}"),
        }

        // Restart: recover, re-register the (volatile) catalog, resume.
        let cfg = db.config();
        let (db2, state) = Db::recover(cfg, db.into_disk()).unwrap();
        for meta in metas {
            db2.catalog_mut().put_relation(meta);
        }
        let out = pbsm_join_resume(&db2, &spec, &config, state.join.as_ref()).unwrap();
        assert_eq!(
            out.pairs, oracle.pairs,
            "crash op {crash_op}: resumed join diverged from the oracle"
        );
        resumed_pairs += out.stats.resumed_pairs;
        resumed_runs += out.stats.resumed_runs;

        // Audit: the resumed join must retire its checkpoints and leave
        // only the committed relations and the journal on disk.
        let (db3, audit) = Db::recover(cfg, db2.into_disk()).unwrap();
        assert!(
            audit.join.is_none(),
            "crash op {crash_op}: join left in flight after success"
        );
        assert_eq!(
            (audit.orphan_files, audit.orphan_pages),
            (0, 0),
            "crash op {crash_op}: resumed join leaked files"
        );
        assert_live_pages_reconcile(&db3, &format!("crash op {crash_op}"));
    }
    // The sweep covers every op, so both checkpoint kinds must have
    // provably skipped work at least once.
    assert!(
        resumed_pairs > 0,
        "no crash point ever skipped a checkpointed partition pair"
    );
    assert!(
        resumed_runs > 0,
        "no crash point ever resumed a durable refinement run"
    );
}

/// A resumed attempt that fails after accepting its checkpoints must
/// release them: here the very first journal append (the fresh
/// `JoinBegin`) fails past the retry budget, and every pair and run file
/// the recovered `JoinResume` names has to be dropped, not left allocated
/// for the life of the `Db`.
#[test]
fn failed_resume_releases_accepted_checkpoints() {
    let spec = JoinSpec::new("alpha", "beta", SpatialPredicate::Intersects);
    let config = JoinConfig {
        work_mem_bytes: 2048,
        num_tiles: 16,
        ..JoinConfig::default()
    };
    let db = build_join_db();
    let before = db.pool().disk().total_ops();
    let partitions = pbsm_join(&db, &spec, &config).unwrap().stats.partitions;
    let window = db.pool().disk().total_ops() - before;

    // Crash late enough — during the refinement sort — that the journal
    // holds every pair and at least one run.
    let (db, resume) = (0..window)
        .rev()
        .find_map(|crash_op| {
            let db = build_join_db();
            let metas = db.catalog().snapshot();
            db.pool()
                .disk_mut()
                .set_faults(Some(FaultConfig::crash_at(97, crash_op)));
            assert!(pbsm_join(&db, &spec, &config).is_err());
            let cfg = db.config();
            let (db2, state) = Db::recover(cfg, db.into_disk()).unwrap();
            for meta in metas {
                db2.catalog_mut().put_relation(meta);
            }
            let resume = state.join?;
            (resume.pairs.len() == partitions && !resume.runs.is_empty()).then_some((db2, resume))
        })
        .expect("some crash point leaves pair and run checkpoints");

    // Every write fails, in bursts longer than the retry policy absorbs.
    db.pool().disk_mut().set_faults(Some(FaultConfig {
        seed: 5,
        write_transient_ppm: 1_000_000,
        max_transient_burst: 16,
        ..FaultConfig::default()
    }));
    let result = pbsm_join_resume(&db, &spec, &config, Some(&resume));
    db.pool().disk_mut().set_faults(None);
    assert!(
        result.is_err(),
        "the resumed join cannot journal its JoinBegin"
    );
    let disk = db.pool().disk();
    let files = resume
        .pairs
        .iter()
        .map(|pc| pc.file)
        .chain(resume.runs.iter().map(|rc| rc.file));
    for file in files {
        assert!(disk.is_dropped(file), "checkpoint file {file:?} leaked");
    }
}
