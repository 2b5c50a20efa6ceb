//! The PBSM filter step (§3.1).
//!
//! 1. **Partitioning**: each input is scanned once; every tuple's
//!    key-pointer element is routed through the spatial partitioning
//!    function into one or more of the `P` partition files (`P` from
//!    Equation 1; with `P = 1` the single "partition" is exactly the
//!    paper's temporary relation `R_kp`).
//! 2. **Merging**: for each `i`, partitions `R_i` and `S_i` are loaded,
//!    sorted on `MBR.xl`, and joined with the plane sweep of
//!    [`pbsm_geom::sweep`]; matching element pairs contribute a candidate
//!    `<OID_R, OID_S>` to the output relation.
//!
//! Because the partitioning function replicates elements that span tiles
//! of multiple partitions, the candidate relation may contain duplicates;
//! they are eliminated by the refinement step's sort, exactly as in §3.2.

use crate::keyptr::{encode_pair, KeyPointer, KEY_PTR_SIZE, OID_PAIR_SIZE};
use crate::partition::{TileGrid, TileMapScheme};
use crate::recover::Ckpt;
use crate::{skew, JoinConfig};
use pbsm_geom::sweep::{sort_by_xl, sweep_join, SweepStats, Tagged};
use pbsm_storage::catalog::RelationMeta;
use pbsm_storage::heap::HeapFile;
use pbsm_storage::journal::JournalRecord;
use pbsm_storage::record::{RecordFile, RecordWriter};
use pbsm_storage::tuple::SpatialTuple;
use pbsm_storage::{Db, StorageError, StorageResult};

/// Result of partitioning one input.
pub struct Partitioned {
    /// One key-pointer file per partition.
    pub files: Vec<RecordFile>,
    /// Elements scanned from the input.
    pub input_elements: u64,
    /// Elements written across all partitions (≥ input: replication).
    pub replicated_elements: u64,
}

impl Partitioned {
    /// Drops all partition files.
    pub fn destroy(self, db: &Db) {
        for f in self.files {
            f.destroy(db.pool());
        }
    }
}

/// Scans `rel` and routes each tuple's key-pointer element into `p`
/// partition files through the spatial partitioning function.
pub fn partition_input(
    db: &Db,
    rel: &RelationMeta,
    grid: &TileGrid,
    scheme: TileMapScheme,
    p: usize,
) -> StorageResult<Partitioned> {
    let mut files: Vec<RecordFile> = Vec::with_capacity(p);
    for _ in 0..p {
        match RecordFile::create(db.pool(), KEY_PTR_SIZE) {
            Ok(f) => files.push(f),
            Err(e) => {
                for f in files {
                    f.destroy(db.pool());
                }
                return Err(e);
            }
        }
    }
    match partition_into(db, rel, grid, scheme, p, &files) {
        Ok((input_elements, replicated_elements)) => Ok(Partitioned {
            files,
            input_elements,
            replicated_elements,
        }),
        Err(e) => {
            // A failed scan (I/O fault, ENOSPC mid-spill) releases every
            // partition file so a degraded re-run starts from clean disk.
            for f in files {
                f.destroy(db.pool());
            }
            Err(e)
        }
    }
}

fn partition_into(
    db: &Db,
    rel: &RelationMeta,
    grid: &TileGrid,
    scheme: TileMapScheme,
    p: usize,
    files: &[RecordFile],
) -> StorageResult<(u64, u64)> {
    let mut writers: Vec<_> = files.iter().map(|f| f.writer(db.pool())).collect();
    let heap = HeapFile::open(rel.file);
    // Per-tuple observations tally into stack-local histograms and merge
    // into the registry once, after the scan.
    let mut tiles_per_mbr = pbsm_obs::LocalHist::new();
    let mut copies_per_mbr = pbsm_obs::LocalHist::new();
    let mut tile_counts = vec![0u64; grid.num_tiles() as usize];
    let mut input_elements = 0u64;
    let mut replicated_elements = 0u64;
    for item in heap.scan(db.pool()) {
        let (oid, bytes) = item?;
        let tuple = SpatialTuple::decode(&bytes)?;
        let kp = KeyPointer {
            mbr: tuple.geom.mbr(),
            oid,
        };
        let enc = kp.encode();
        input_elements += 1;
        let mut tiles = 0u64;
        grid.for_each_tile(&kp.mbr, |t| {
            tiles += 1;
            tile_counts[t as usize] += 1;
        });
        tiles_per_mbr.record(tiles);
        let mut err = None;
        let mut copies = 0u64;
        grid.for_each_partition(&kp.mbr, scheme, p, |part| {
            copies += 1;
            if let Err(e) = writers[part as usize].push(&enc) {
                err = Some(e);
            }
        });
        copies_per_mbr.record(copies);
        replicated_elements += copies;
        if let Some(e) = err {
            return Err(e);
        }
    }
    for w in writers {
        w.finish()?;
    }
    let mut occupancy = pbsm_obs::LocalHist::new();
    for &c in &tile_counts {
        occupancy.record(c);
    }
    tiles_per_mbr.flush(pbsm_obs::cached_histogram!("pbsm.partition.tiles_per_mbr"));
    copies_per_mbr.flush(pbsm_obs::cached_histogram!("pbsm.partition.copies_per_mbr"));
    occupancy.flush(pbsm_obs::cached_histogram!("pbsm.partition.tile_occupancy"));
    pbsm_obs::cached_counter!("pbsm.partition.input_elements").add(input_elements);
    pbsm_obs::cached_counter!("pbsm.partition.replicated_elements").add(replicated_elements);
    Ok((input_elements, replicated_elements))
}

/// Decodes a partition file into memory.
pub fn load_partition(db: &Db, file: &RecordFile) -> StorageResult<Vec<KeyPointer>> {
    let bytes = file.read_all(db.pool())?;
    Ok(bytes
        .chunks_exact(KEY_PTR_SIZE)
        .map(KeyPointer::decode)
        .collect())
}

/// Plane-sweeps one in-memory partition pair, appending candidate OID
/// pairs to `out`. This is the paper's "computational geometry based
/// plane-sweeping technique … the spatial equivalent of sort–merge".
///
/// Returns the sweep's work tallies rather than reporting them itself:
/// the parallel merge calls this from worker threads, whose thread-local
/// metric state would be lost, so the caller flushes the tallies on the
/// main thread.
pub fn sweep_partition_pair(
    r: &[KeyPointer],
    s: &[KeyPointer],
    out: &mut Vec<(pbsm_storage::Oid, pbsm_storage::Oid)>,
) -> SweepStats {
    let mut tr: Vec<Tagged> = r
        .iter()
        .enumerate()
        .map(|(i, kp)| (kp.mbr, i as u32))
        .collect();
    let mut ts: Vec<Tagged> = s
        .iter()
        .enumerate()
        .map(|(i, kp)| (kp.mbr, i as u32))
        .collect();
    sort_by_xl(&mut tr);
    sort_by_xl(&mut ts);
    sweep_join(&tr, &ts, |ir, is| {
        out.push((r[ir as usize].oid, s[is as usize].oid));
    })
}

/// Joins one loaded partition pair: the plane sweep, or — when dynamic
/// repartitioning is on and the pair overflows work memory — the skew
/// handler's recursive split. The one place that makes this choice, for
/// the sequential and the parallel merge alike.
pub(crate) fn merge_pair(
    r: &[KeyPointer],
    s: &[KeyPointer],
    config: &JoinConfig,
    out: &mut Vec<(pbsm_storage::Oid, pbsm_storage::Oid)>,
) -> SweepStats {
    let pair_bytes = (r.len() + s.len()) * KEY_PTR_SIZE;
    if config.dynamic_repartition && pair_bytes > config.work_mem_bytes {
        skew::merge_with_repartition(r, s, config.work_mem_bytes, out)
    } else {
        sweep_partition_pair(r, s, out)
    }
}

/// Flushes accumulated sweep tallies into the metrics registry (main
/// thread only).
pub(crate) fn report_sweep_stats(stats: SweepStats) {
    pbsm_obs::cached_counter!("pbsm.merge.sweep_comparisons").add(stats.comparisons);
    pbsm_obs::cached_counter!("pbsm.merge.candidates").add(stats.hits);
}

/// The merge's candidate OID pairs.
#[derive(Default)]
pub struct Merged {
    /// Candidate files in pair order: the plain engine's single file, or
    /// one per partition pair under a checkpoint context.
    pub files: Vec<RecordFile>,
    /// Raw candidates across all pairs (with replication duplicates).
    pub candidates: u64,
    /// Pairs whose candidate file was reused from a crash checkpoint.
    pub resumed_pairs: u64,
}

/// Merges every partition pair into candidate OID-pair files.
///
/// With `ckpt = None` (the plain engine) every pair's candidates go
/// through one writer into one file, and `config.merge_threads > 1`
/// sweeps pairs in parallel. With a checkpoint context each pair's
/// candidates land in their *own* file, flushed and journaled as a
/// `PairDone` the moment the pair completes; pairs checkpointed by a
/// crashed incarnation are taken out of `ckpt` and reused as-is, not
/// re-swept. That mode is always sequential — checkpoint order must
/// follow journal order — so it ignores `merge_threads`.
///
/// On error every file the merge holds is destroyed, reused checkpoints
/// included.
pub fn merge_partitions(
    db: &Db,
    r_parts: &Partitioned,
    s_parts: &Partitioned,
    config: &JoinConfig,
    ckpt: Option<&mut Ckpt>,
) -> StorageResult<Merged> {
    debug_assert_eq!(r_parts.files.len(), s_parts.files.len());
    let mut out = Merged::default();
    let merged = match ckpt {
        Some(c) => merge_into(db, r_parts, s_parts, config, Sink::PerPair(c), &mut out),
        None if config.merge_threads > 1 => {
            return crate::parallel::merge_partitions_parallel(db, r_parts, s_parts, config);
        }
        None => {
            let file = RecordFile::create(db.pool(), OID_PAIR_SIZE)?;
            let merged = merge_into(
                db,
                r_parts,
                s_parts,
                config,
                Sink::One(file.writer(db.pool())),
                &mut out,
            );
            out.files.push(file);
            merged
        }
    };
    match merged {
        Ok(()) => Ok(out),
        Err(e) => {
            for f in out.files {
                f.destroy(db.pool());
            }
            Err(e)
        }
    }
}

/// Where the merge loop writes each pair's candidates.
enum Sink<'a> {
    /// The plain engine: one writer over one file.
    One(RecordWriter<'a>),
    /// A checkpoint context: one flushed, journaled file per pair.
    PerPair(&'a mut Ckpt),
}

/// The per-pair merge loop. Checkpoint files it creates or reuses are
/// pushed onto `out.files`, so the caller can release them on error.
fn merge_into(
    db: &Db,
    r_parts: &Partitioned,
    s_parts: &Partitioned,
    config: &JoinConfig,
    mut sink: Sink<'_>,
    out: &mut Merged,
) -> StorageResult<()> {
    let mut stats = SweepStats::default();
    let mut pairs = Vec::new();
    for (i, (rf, sf)) in r_parts.files.iter().zip(&s_parts.files).enumerate() {
        if let Sink::PerPair(c) = &mut sink {
            if let Some(pc) = c.pairs.remove(&(i as u32)) {
                out.files
                    .push(RecordFile::open(pc.file, OID_PAIR_SIZE, pc.count));
                out.candidates += pc.count;
                out.resumed_pairs += 1;
                pbsm_obs::cached_counter!("pbsm.resume.pairs_skipped").incr();
                continue;
            }
            // pbsm-lint: allow(resource-pairing, reason = "pair files outlive this fn as join checkpoints; merge_partitions destroys them on error and the join driver destroys them at JoinEnd")
            let pair_file = RecordFile::create(db.pool(), OID_PAIR_SIZE)?;
            out.files.push(pair_file);
        }
        let r = load_partition(db, rf)?;
        let s = load_partition(db, sf)?;
        pairs.clear();
        stats.absorb(merge_pair(&r, &s, config, &mut pairs));
        out.candidates += pairs.len() as u64;
        match &mut sink {
            Sink::One(w) => write_pairs(w, &pairs)?,
            Sink::PerPair(c) => {
                let pair_file = out
                    .files
                    .last()
                    .ok_or(StorageError::Corrupt("pair file list emptied mid-merge"))?;
                let mut w = pair_file.writer(db.pool());
                write_pairs(&mut w, &pairs)?;
                w.finish()?;
                // Durability before checkpoint: the journal record must
                // never claim candidates the disk does not hold.
                db.pool().flush_file(pair_file.file_id())?;
                db.pool().journal_append(JournalRecord::PairDone {
                    join_id: c.join_id,
                    pair_index: i as u32,
                    file: pair_file.file_id(),
                    count: pair_file.count(),
                })?;
            }
        }
    }
    if let Sink::One(w) = sink {
        w.finish()?;
    }
    report_sweep_stats(stats);
    Ok(())
}

/// Appends candidate OID pairs to a candidate file's writer.
pub(crate) fn write_pairs(
    w: &mut RecordWriter<'_>,
    pairs: &[(pbsm_storage::Oid, pbsm_storage::Oid)],
) -> StorageResult<()> {
    for (ro, so) in pairs {
        w.push(&encode_pair(*ro, *so))?;
    }
    Ok(())
}

/// Concatenates per-pair candidate files into one relation, in pair order
/// — byte-identical to what the sequential single-file merge writes, so a
/// resumed join's refinement sees the exact byte stream the crashed
/// incarnation's would have.
pub fn concat_candidates(db: &Db, files: &[RecordFile]) -> StorageResult<RecordFile> {
    let out = RecordFile::create(db.pool(), OID_PAIR_SIZE)?;
    let result = (|| -> StorageResult<()> {
        let mut w = out.writer(db.pool());
        for f in files {
            let mut r = f.reader(db.pool());
            while let Some(rec) = r.next_record()? {
                w.push(rec)?;
            }
        }
        w.finish()
    })();
    match result {
        Ok(()) => Ok(out),
        Err(e) => {
            out.destroy(db.pool());
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::load_relation;
    use pbsm_storage::{DbConfig, Oid};

    fn mk_tuples(n: usize, seed: u64, spread: f64) -> Vec<SpatialTuple> {
        crate::testgen::mk_tuples(n, seed, spread, 1, 2.0, 0.0, 8)
    }

    fn setup() -> (pbsm_storage::Db, RelationMeta, RelationMeta) {
        setup_on(DbConfig::with_pool_mb(2))
    }

    fn setup_on(config: DbConfig) -> (pbsm_storage::Db, RelationMeta, RelationMeta) {
        let db = pbsm_storage::Db::new(config);
        let r = load_relation(&db, "r", &mk_tuples(800, 3, 50.0), false).unwrap();
        let s = load_relation(&db, "s", &mk_tuples(600, 7, 50.0), false).unwrap();
        (db, r, s)
    }

    /// Filter-level ground truth: all MBR-overlapping OID pairs.
    fn brute_filter(db: &pbsm_storage::Db, r: &RelationMeta, s: &RelationMeta) -> Vec<(Oid, Oid)> {
        let re = crate::loader::extract_entries(db, r).unwrap();
        let se = crate::loader::extract_entries(db, s).unwrap();
        let mut out = Vec::new();
        for (rr, ro) in &re {
            for (sr, so) in &se {
                if rr.intersects(sr) {
                    out.push((*ro, *so));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn read_pairs(db: &pbsm_storage::Db, rf: &RecordFile) -> Vec<(Oid, Oid)> {
        let bytes = rf.read_all(db.pool()).unwrap();
        let mut pairs: Vec<(Oid, Oid)> = bytes
            .chunks_exact(OID_PAIR_SIZE)
            .map(crate::keyptr::decode_pair)
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    #[test]
    fn single_partition_filter_matches_brute_force() {
        let (db, r, s) = setup();
        let universe = r.universe.union(&s.universe);
        let grid = TileGrid::new(universe, 64);
        let rp = partition_input(&db, &r, &grid, TileMapScheme::Hash, 1).unwrap();
        let sp = partition_input(&db, &s, &grid, TileMapScheme::Hash, 1).unwrap();
        assert_eq!(rp.input_elements, 800);
        assert_eq!(rp.replicated_elements, 800); // one partition: no replication
        let merged = merge_partitions(&db, &rp, &sp, &JoinConfig::default(), None).unwrap();
        assert!(merged.candidates > 0);
        assert_eq!(read_pairs(&db, &merged.files[0]), brute_filter(&db, &r, &s));
    }

    #[test]
    fn multi_partition_filter_matches_brute_force() {
        let (db, r, s) = setup();
        let universe = r.universe.union(&s.universe);
        for p in [2usize, 4, 7, 16] {
            for scheme in [TileMapScheme::RoundRobin, TileMapScheme::Hash] {
                let grid = TileGrid::new(universe, 256);
                let rp = partition_input(&db, &r, &grid, scheme, p).unwrap();
                let sp = partition_input(&db, &s, &grid, scheme, p).unwrap();
                assert!(rp.replicated_elements >= rp.input_elements);
                let mut merged =
                    merge_partitions(&db, &rp, &sp, &JoinConfig::default(), None).unwrap();
                let cand = merged.files.remove(0);
                assert_eq!(
                    read_pairs(&db, &cand),
                    brute_filter(&db, &r, &s),
                    "p={p} scheme={scheme:?}"
                );
                cand.destroy(db.pool());
                rp.destroy(&db);
                sp.destroy(&db);
            }
        }
    }

    #[test]
    fn duplicates_only_from_replication() {
        // With one tile per partition and objects spanning tiles, raw
        // candidates contain duplicates; dedup must fix it.
        let (db, r, s) = setup();
        let universe = r.universe.union(&s.universe);
        let grid = TileGrid::new(universe, 4);
        let rp = partition_input(&db, &r, &grid, TileMapScheme::RoundRobin, 4).unwrap();
        let sp = partition_input(&db, &s, &grid, TileMapScheme::RoundRobin, 4).unwrap();
        let merged = merge_partitions(&db, &rp, &sp, &JoinConfig::default(), None).unwrap();
        let deduped = read_pairs(&db, &merged.files[0]);
        assert!(merged.candidates >= deduped.len() as u64);
        assert_eq!(deduped, brute_filter(&db, &r, &s));
    }

    /// The invariant crash resume depends on: concatenated in pair order,
    /// the per-pair checkpoint files hold exactly the bytes the plain
    /// merge writes to its single file — so a resumed refinement sort
    /// sees the stream the crashed incarnation's would have. One `Db` for
    /// both merges, because the OIDs carry file ids and the journal shifts
    /// them.
    #[test]
    fn checkpointed_merge_concatenates_to_the_plain_stream() {
        let (db, r, s) = setup_on(DbConfig {
            journal: true,
            ..DbConfig::with_pool_mb(2)
        });
        let grid = TileGrid::new(r.universe.union(&s.universe), 64);
        for p in [1usize, 2, 4, 7] {
            let rp = partition_input(&db, &r, &grid, TileMapScheme::Hash, p).unwrap();
            let sp = partition_input(&db, &s, &grid, TileMapScheme::Hash, p).unwrap();
            let largest_pair = (0..p)
                .map(|i| (rp.files[i].count() + sp.files[i].count()) as usize * KEY_PTR_SIZE)
                .max()
                .unwrap();
            for (dynamic_repartition, work_mem_bytes) in [(false, 1 << 20), (true, 4096)] {
                // The small budget must really send a pair through the
                // skew handler.
                assert_eq!(largest_pair > work_mem_bytes, dynamic_repartition, "p={p}");
                let config = JoinConfig {
                    dynamic_repartition,
                    work_mem_bytes,
                    ..JoinConfig::default()
                };
                let plain = merge_partitions(&db, &rp, &sp, &config, None).unwrap();
                let mut ckpt = Ckpt::new(7, None);
                let per_pair = merge_partitions(&db, &rp, &sp, &config, Some(&mut ckpt)).unwrap();
                assert_eq!(per_pair.files.len(), p);
                assert_eq!(per_pair.candidates, plain.candidates);
                let stream = concat_candidates(&db, &per_pair.files).unwrap();
                assert_eq!(
                    stream.read_all(db.pool()).unwrap(),
                    plain.files[0].read_all(db.pool()).unwrap(),
                    "p={p} dynamic_repartition={dynamic_repartition}"
                );
                stream.destroy(db.pool());
                for f in plain.files.into_iter().chain(per_pair.files) {
                    f.destroy(db.pool());
                }
            }
            rp.destroy(&db);
            sp.destroy(&db);
        }
    }
}
