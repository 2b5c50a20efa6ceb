//! Every call into the engine, in one file.
//!
//! **End-to-end operations** use only names exported by `pbsm::prelude`
//! (`Db`, `DbConfig`, `load_relation`, `build_index`, `pbsm_join`,
//! `rtree_join`, `inl_join`, `ShardedDb::{new, load_relation, join,
//! replication}`, the generators) plus `pbsm::join::select::{select_scan,
//! select_index}` — the plain `(&Db, …)` signatures, shared across
//! threads through `Db: Sync`. Never the `*_at(Snapshot)`, `*_ckpt`,
//! `*_resume`, `merge_partitions*`, `refinement_step*` or
//! `set_replacement_policy` entry points. PBSM phase times are read from
//! the returned `JoinOutcome.report.components` / `.stats`.
//!
//! **Layer probes** (second half of the file) call the public functions
//! of one crate each; the README lists them all.

use crate::rng::Rng;
use pbsm::geom::hilbert::hilbert_of_rect;
use pbsm::geom::polygon::Ring;
use pbsm::geom::predicates::{evaluate, RefineOptions};
use pbsm::geom::sweep::{sort_by_xl, sweep_join};
use pbsm::join::select::{select_index, select_scan};
use pbsm::join::{TileGrid, TileMapScheme};
use pbsm::prelude::*;
use pbsm::rtree::bulk::bulk_load;
use pbsm::rtree::join::rtree_join as join_trees;
use pbsm::rtree::query::window_query;
use pbsm::rtree::{RTree, DEFAULT_CAPACITY};
use pbsm::storage::buffer::BufferPool;
use pbsm::storage::disk::{DiskModel, SimDisk};
use pbsm::storage::extsort::external_sort;
use pbsm::storage::heap::HeapFile;
use pbsm::storage::record::RecordFile;
use pbsm::storage::{FileId, PageId, PAGE_SIZE};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub use pbsm::geom::sweep::Tagged;
pub use pbsm::prelude::{Db, JoinOutcome, Oid, Rect, ShardedDb, SpatialPredicate, SpatialTuple};

/// Engine errors, stringified: the harness only counts and prints them.
pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// The two data sets of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Road ⋈ Hydrography polylines, `Intersects` (§4.4, Figure 7).
    Tiger,
    /// landuse ⊇ islands polygons, `Contains` (§4.4, Figure 9).
    Sequoia,
}

impl Family {
    /// Catalog names of the left and right join input.
    pub fn relations(self) -> (&'static str, &'static str) {
        match self {
            Family::Tiger => ("road", "hydro"),
            Family::Sequoia => ("landuse", "islands"),
        }
    }

    pub fn predicate(self) -> SpatialPredicate {
        match self {
            Family::Tiger => SpatialPredicate::Intersects,
            Family::Sequoia => SpatialPredicate::Contains,
        }
    }

    fn spec(self) -> JoinSpec {
        let (l, r) = self.relations();
        JoinSpec::new(l, r, self.predicate())
    }

    /// Largest per-axis shift `--seed` applies to a feature. TIGER: about
    /// one road length, so which features cross is re-drawn. Sequoia: a
    /// tenth of the smallest landuse radius, so islands stay inside their
    /// hosts and the containment selectivity is kept.
    fn jitter(self) -> f64 {
        match self {
            Family::Tiger => 0.01,
            Family::Sequoia => 0.002,
        }
    }
}

/// A join's two inputs, in load order.
pub struct Pair {
    pub left: Vec<SpatialTuple>,
    pub right: Vec<SpatialTuple>,
}

impl Pair {
    /// Minimum cover of both inputs (the sharded coordinator's universe).
    pub fn universe(&self) -> Rect {
        self.left
            .iter()
            .chain(&self.right)
            .fold(Rect::empty(), |acc, t| acc.union(&t.geom.mbr()))
    }
}

/// The generators' unjittered output at their calibrated default seeds.
pub fn generate_raw(family: Family, scale: f64) -> Pair {
    let (left, right) = match family {
        Family::Tiger => {
            let cfg = TigerConfig {
                scale,
                ..TigerConfig::default()
            };
            (tiger::road(&cfg), tiger::hydrography(&cfg))
        }
        Family::Sequoia => sequoia::generate(&SequoiaConfig {
            scale,
            ..SequoiaConfig::default()
        }),
    };
    Pair { left, right }
}

/// Makes a workload's inputs from `seed`.
///
/// The generators draw their *map* — cluster centres and spreads — from
/// their seed, and with it the join's selectivity: over six generator
/// seeds Road ⋈ Hydrography ran 0.73–1.16 s and landuse ⊇ islands
/// 0.77–1.60 s. Runs on different seeds could then not be compared, so
/// the map stays at the generators' calibrated defaults (the ones that
/// land near the paper's result sizes) and `seed` re-draws every
/// feature's position inside it: an independent shift of up to
/// [`Family::jitter`] per axis. Candidate counts then agree to 0.2 %
/// across seeds while the intersecting pairs differ.
pub fn generate(family: Family, scale: f64, seed: u64) -> Pair {
    let mut pair = generate_raw(family, scale);
    let mut rng = Rng::new(seed ^ 0x5EED_0000 ^ family as u64);
    for t in pair.left.iter_mut().chain(pair.right.iter_mut()) {
        let dx = (rng.next_f64() * 2.0 - 1.0) * family.jitter();
        let dy = (rng.next_f64() * 2.0 - 1.0) * family.jitter();
        t.geom = shifted(&t.geom, dx, dy);
    }
    pair
}

fn shifted(g: &Geometry, dx: f64, dy: f64) -> Geometry {
    let mv = |p: &Point| Point::new(p.x + dx, p.y + dy);
    let ring = |r: &Ring| Ring::new(r.points().iter().map(mv).collect());
    match g {
        Geometry::Point(p) => Geometry::Point(mv(p)),
        Geometry::Polyline(l) => Polyline::new(l.points().iter().map(mv).collect()).into(),
        Geometry::Polygon(p) => {
            Polygon::with_holes(ring(p.outer()), p.holes().iter().map(ring).collect()).into()
        }
    }
}

/// The query window as the geometry the selections refine against.
pub fn window_geometry(w: &Rect) -> Geometry {
    Polygon::simple(Ring::new(vec![
        Point::new(w.xl, w.yl),
        Point::new(w.xu, w.yl),
        Point::new(w.xu, w.yu),
        Point::new(w.xl, w.yu),
    ]))
    .into()
}

/// The exact predicate, for the brute-force self-check.
pub fn holds(pred: SpatialPredicate, left: &Geometry, right: &Geometry) -> bool {
    evaluate(pred, left, right, &RefineOptions::default())
}

// ---------------------------------------------------------------------
// End-to-end operations
// ---------------------------------------------------------------------

/// The three join algorithms of the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Pbsm,
    Rtree,
    Inl,
}

impl Algo {
    pub fn key(self) -> &'static str {
        match self {
            Algo::Pbsm => "pbsm",
            Algo::Rtree => "rtree",
            Algo::Inl => "inl",
        }
    }
}

/// A fresh, empty engine.
pub fn new_db(pool_bytes: usize, journal: bool) -> Db {
    Db::new(DbConfig {
        buffer_pool_bytes: pool_bytes,
        journal,
        ..DbConfig::default()
    })
}

/// Loads one unclustered relation; with `index`, also bulk-builds its
/// R\*-tree.
pub fn load(db: &Db, name: &str, tuples: &[SpatialTuple], index: bool) -> Res<()> {
    let meta = load_relation(db, name, tuples, false).map_err(err)?;
    if index {
        build_index(db, &meta).map_err(err)?;
    }
    Ok(())
}

/// Loads both inputs of `family`'s join, unindexed, and empties the pool
/// so the join starts cold.
pub fn load_cold(db: &Db, family: Family, pair: &Pair) -> Res<()> {
    let (l, r) = family.relations();
    load(db, l, &pair.left, false)?;
    load(db, r, &pair.right, false)?;
    db.pool().clear_cache().map_err(err)
}

/// One join of `family`'s two relations, work memory sized with the pool
/// as the paper does.
pub fn join(db: &Db, algo: Algo, family: Family) -> Res<JoinOutcome> {
    let (spec, cfg) = (family.spec(), JoinConfig::for_db(db));
    match algo {
        Algo::Pbsm => pbsm_join(db, &spec, &cfg),
        Algo::Rtree => rtree_join(db, &spec, &cfg),
        Algo::Inl => inl_join(db, &spec, &cfg),
    }
    .map_err(err)
}

/// One window selection; `by_index` picks the R\*-tree probe over the
/// scan. Returns the matching OIDs, sorted.
pub fn select(db: &Db, by_index: bool, relation: &str, window: &Rect) -> Res<Vec<Oid>> {
    if by_index {
        select_index(db, relation, window)
    } else {
        select_scan(db, relation, window)
    }
    .map(|out| out.oids)
    .map_err(err)
}

/// K journaled shard engines with both inputs loaded and indexed.
pub fn sharded(k: usize, pool_bytes: usize, family: Family, pair: &Pair) -> Res<ShardedDb> {
    let config = ShardedDbConfig {
        db: DbConfig {
            buffer_pool_bytes: pool_bytes,
            ..DbConfig::default()
        },
        ..ShardedDbConfig::with_shards(k)
    };
    let mut sdb = ShardedDb::new(config, pair.universe());
    let (l, r) = family.relations();
    sdb.load_relation(l, &pair.left, false).map_err(err)?;
    sdb.load_relation(r, &pair.right, false).map_err(err)?;
    Ok(sdb)
}

/// One scatter-gather join, work memory sized with each shard's pool.
pub fn shard_join(
    sdb: &mut ShardedDb,
    algo: Algo,
    family: Family,
    pool_bytes: usize,
) -> Res<ShardedJoinOutcome> {
    let alg = match algo {
        Algo::Pbsm => ShardAlgorithm::Pbsm,
        Algo::Rtree => ShardAlgorithm::RtreeJoin,
        Algo::Inl => ShardAlgorithm::Inl,
    };
    let cfg = JoinConfig {
        work_mem_bytes: pool_bytes,
        ..JoinConfig::default()
    };
    sdb.join(alg, &family.spec(), &cfg).map_err(err)
}

/// Stored copies per input tuple across the shards.
pub fn shard_replication(sdb: &ShardedDb) -> f64 {
    let (input, copies) = sdb.replication();
    copies as f64 / input.max(1) as f64
}

/// Pool and disk counters of one engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct Io {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub reads: u64,
    pub writes: u64,
    pub seeks: u64,
    pub modeled_io_s: f64,
}

impl Io {
    pub fn of(db: &Db) -> Io {
        let (p, d) = (db.pool().stats(), db.disk_stats());
        Io {
            hits: p.hits,
            misses: p.misses,
            evictions: p.evictions,
            reads: d.reads,
            writes: d.writes,
            seeks: d.seeks,
            modeled_io_s: d.io_ms / 1000.0,
        }
    }

    pub fn since(self, earlier: Io) -> Io {
        Io {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            seeks: self.seeks - earlier.seeks,
            modeled_io_s: self.modeled_io_s - earlier.modeled_io_s,
        }
    }

    pub fn hit_rate(self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// Engine-reported seconds of the components whose name starts with
/// `prefix` ("partition ", "merge partitions", "refinement step", "build
/// index on ", "join indices", "probe index").
pub fn phase_s(out: &JoinOutcome, prefix: &str) -> f64 {
    out.report
        .components
        .iter()
        .filter(|c| c.name.starts_with(prefix))
        .map(|c| c.cpu_s)
        .sum()
}

/// Digest of a pair list that ignores file ids (a journaled engine
/// numbers its files one higher): FNV-1a over each OID's page and slot.
pub fn pairs_digest(pairs: &[(Oid, Oid)]) -> u64 {
    let mut h = Fnv::new();
    for (a, b) in pairs {
        for oid in [a, b] {
            h.add(u64::from(oid.page_no()) << 16 | u64::from(oid.slot()));
        }
    }
    h.0
}

/// Digest of a selection's answer.
pub fn oids_digest(oids: &[Oid]) -> u64 {
    let mut h = Fnv::new();
    oids.iter().for_each(|o| h.add(o.raw()));
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Drops what the engine's instrumentation queued on this thread (query
/// profiles, finished span trees) and zeroes its registry. Called between
/// reps, outside timed regions: left alone, profiles pile up per query
/// and `peak_rss_mb` drifts with the rep count.
pub fn drain_obs() {
    drop(pbsm_obs::profile::take_pending());
    pbsm_obs::reset();
}

/// The per-query part of [`drain_obs`], cheap enough to run after every
/// query of a serving client.
pub fn drain_query() {
    drop(pbsm_obs::profile::take_pending());
    drop(pbsm_obs::take_spans());
}

// ---------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------

/// `(time spent in the measured calls, units of work done)`.
pub type Sample = (Duration, u64);

fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed(), out)
}

fn probe_pool(frames: usize) -> BufferPool {
    BufferPool::new(frames * PAGE_SIZE, SimDisk::new(DiskModel::default()))
}

/// A pool that holds `bytes` of data with room to spare, so the probe
/// times the structure and not the replacement policy.
fn roomy_pool(bytes: usize) -> BufferPool {
    probe_pool(bytes / PAGE_SIZE * 3 / 2 + 64)
}

/// MBRs tagged with their tuple's position, as the sweep wants them.
pub fn tagged(tuples: &[SpatialTuple]) -> Vec<Tagged> {
    tuples
        .iter()
        .enumerate()
        .map(|(i, t)| (t.geom.mbr(), i as u32))
        .collect()
}

/// [`tagged`], sorted the way `sweep_join` requires.
pub fn tagged_sorted(tuples: &[SpatialTuple]) -> Vec<Tagged> {
    let mut out = tagged(tuples);
    sort_by_xl(&mut out);
    out
}

/// geom: `sweep::sort_by_xl` over a fresh copy of both inputs.
pub fn probe_sort_by_xl(r: &[Tagged], s: &[Tagged]) -> Sample {
    let (mut r, mut s) = (r.to_vec(), s.to_vec());
    let (d, ()) = timed(|| {
        sort_by_xl(&mut r);
        sort_by_xl(&mut s);
    });
    black_box((&r, &s));
    (d, (r.len() + s.len()) as u64)
}

/// geom: `sweep::sweep_join` over two sorted inputs. Returns the sample,
/// the candidate pairs and `(comparisons, hits)`.
pub fn probe_sweep(r: &[Tagged], s: &[Tagged]) -> (Sample, Vec<(u32, u32)>, (u64, u64)) {
    let mut pairs = Vec::new();
    let (d, stats) = timed(|| sweep_join(r, s, |a, b| pairs.push((a, b))));
    (
        (d, (r.len() + s.len()) as u64),
        pairs,
        (stats.comparisons, stats.hits),
    )
}

/// geom: `predicates::evaluate` over MBR-candidate pairs. Returns the
/// sample and the number accepted.
pub fn probe_evaluate(family: Family, pair: &Pair, candidates: &[(u32, u32)]) -> (Sample, u64) {
    let opts = RefineOptions::default();
    let pred = family.predicate();
    let (d, accepted) = timed(|| {
        candidates
            .iter()
            .filter(|(i, j)| {
                evaluate(
                    pred,
                    &pair.left[*i as usize].geom,
                    &pair.right[*j as usize].geom,
                    &opts,
                )
            })
            .count() as u64
    });
    ((d, candidates.len() as u64), accepted)
}

/// geom: `hilbert::hilbert_of_rect` over a relation's MBRs.
pub fn probe_hilbert(universe: &Rect, rects: &[Tagged]) -> Sample {
    let (d, sum) = timed(|| {
        rects
            .iter()
            .fold(0u64, |acc, (r, _)| acc ^ hilbert_of_rect(universe, r))
    });
    black_box(sum);
    (d, rects.len() as u64)
}

/// A pool of `frames` frames with `pages` pages of one file written and
/// flushed; the pool is left warm or emptied.
fn pool_with_file(frames: usize, pages: usize, warm: bool) -> Res<(BufferPool, FileId)> {
    let pool = probe_pool(frames);
    let file = pool.begin_intent().map_err(err)?;
    for i in 0..pages {
        let (_pid, mut page) = pool.new_page(file).map_err(err)?;
        page[0] = i as u8;
    }
    pool.flush_all().map_err(err)?;
    if !warm {
        pool.clear_cache().map_err(err)?;
    }
    Ok((pool, file))
}

/// storage: `BufferPool::get` round-robin over resident pages, on
/// `threads` threads that each own a disjoint slice of the pages. The
/// unit is one get on one thread, so perfect scaling reads the same at
/// any thread count.
pub fn probe_pool_hit(threads: usize, gets_per_thread: u64) -> Res<Sample> {
    const PAGES_PER_THREAD: usize = 256;
    let (pool, file) = pool_with_file(2048, PAGES_PER_THREAD * threads, true)?;
    let run = |thread: usize| -> Res<()> {
        let base = (thread * PAGES_PER_THREAD) as u32;
        for i in 0..gets_per_thread {
            let page_no = base + (i % PAGES_PER_THREAD as u64) as u32;
            black_box(pool.get(PageId::new(file, page_no)).map_err(err)?[0]);
        }
        Ok(())
    };
    let run = &run;
    let (d, results) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|t| scope.spawn(move || run(t))).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "pool probe thread panicked".to_string())?
                })
                .collect::<Res<Vec<()>>>()
        })
    });
    results?;
    Ok((d, gets_per_thread))
}

/// storage: sequential `BufferPool::get` over a file 4× the pool, from a
/// cold pool: every get is a miss, most of them with an eviction.
pub fn probe_pool_miss() -> Res<Sample> {
    const FRAMES: usize = 1024;
    let (pool, file) = pool_with_file(FRAMES, 4 * FRAMES, false)?;
    let (d, r) = timed(|| -> Res<()> {
        for page_no in 0..(4 * FRAMES) as u32 {
            black_box(pool.get(PageId::new(file, page_no)).map_err(err)?[0]);
        }
        Ok(())
    });
    r?;
    Ok((d, 4 * FRAMES as u64))
}

/// storage: `BufferPool::new_page` + fill over 4× the pool (dirty
/// evictions with sorted write-behind), then `flush_all` of what is left
/// dirty. Returns the two samples.
pub fn probe_pool_write() -> Res<(Sample, Sample)> {
    const FRAMES: usize = 1024;
    let pool = probe_pool(FRAMES);
    let file = pool.begin_intent().map_err(err)?;
    let (d_new, r) = timed(|| -> Res<()> {
        for i in 0..4 * FRAMES {
            let (_pid, mut page) = pool.new_page(file).map_err(err)?;
            page.fill(i as u8);
        }
        Ok(())
    });
    r?;
    let dirty = pool.disk_stats().writes;
    let (d_flush, r) = timed(|| pool.flush_all().map_err(err));
    r?;
    let flushed = pool.disk_stats().writes - dirty;
    Ok(((d_new, 4 * FRAMES as u64), (d_flush, flushed)))
}

/// storage: `HeapFile::{insert, scan, fetch}` over one relation in a pool
/// that holds it (fetch in sorted-OID order, as refinement does).
/// Returns the three samples.
pub fn probe_heap(tuples: &[SpatialTuple]) -> Res<[Sample; 3]> {
    let records: Vec<Vec<u8>> = tuples.iter().map(SpatialTuple::encode).collect();
    let pool = roomy_pool(records.iter().map(Vec::len).sum());
    let heap = HeapFile::create(&pool).map_err(err)?;
    let n = records.len() as u64;
    let (d_insert, oids) = timed(|| {
        records
            .iter()
            .map(|r| heap.insert(&pool, r))
            .collect::<Result<Vec<Oid>, _>>()
    });
    let mut oids = oids.map_err(err)?;
    let (d_scan, scanned) = timed(|| {
        heap.scan(&pool)
            .map(|item| item.map(|(_, bytes)| bytes.len()))
            .sum::<Result<usize, _>>()
    });
    black_box(scanned.map_err(err)?);
    oids.sort_unstable();
    let mut buf = Vec::new();
    let (d_fetch, r) = timed(|| {
        oids.iter()
            .try_for_each(|o| heap.fetch(&pool, *o, &mut buf))
    });
    r.map_err(err)?;
    Ok([(d_insert, n), (d_scan, n), (d_fetch, n)])
}

/// Size of a PBSM key-pointer record: MBR + OID.
const KEY_POINTER: usize = 40;

/// storage: `RecordFile` writer then reader over `n` key-pointer-sized
/// records. Returns the two samples.
pub fn probe_record(n: u64) -> Res<[Sample; 2]> {
    let pool = roomy_pool(n as usize * KEY_POINTER);
    let file = RecordFile::create(&pool, KEY_POINTER).map_err(err)?;
    let mut rec = [0u8; KEY_POINTER];
    let (d_write, r) = timed(|| -> Res<()> {
        let mut w = file.writer(&pool);
        for i in 0..n {
            rec[..8].copy_from_slice(&i.to_le_bytes());
            w.push(&rec).map_err(err)?;
        }
        w.finish().map_err(err)
    });
    r?;
    let (d_read, r) = timed(|| -> Res<u64> {
        let mut reader = file.reader(&pool);
        let mut sum = 0u64;
        while let Some(rec) = reader.next_record().map_err(err)? {
            sum += u64::from(rec[0]);
        }
        Ok(sum)
    });
    black_box(r?);
    file.destroy(&pool);
    Ok([(d_write, n), (d_read, n)])
}

/// storage: `extsort::external_sort` of `n` seeded 16-byte OID pairs with
/// 1 MiB of work memory, duplicates removed. Returns the sample and the
/// number of runs formed.
pub fn probe_extsort(n: u64, seed: u64) -> Res<(Sample, u64)> {
    const OID_PAIR: usize = 16;
    let pool = probe_pool(1024);
    let input = RecordFile::create(&pool, OID_PAIR).map_err(err)?;
    {
        let mut rng = Rng::new(seed);
        let mut w = input.writer(&pool);
        for _ in 0..n {
            let mut rec = [0u8; OID_PAIR];
            // A narrow key space, so the dedup pass has work to do.
            rec[..8].copy_from_slice(&(rng.next_u64() % n).to_be_bytes());
            rec[8..].copy_from_slice(&(rng.next_u64() % 4).to_be_bytes());
            w.push(&rec).map_err(err)?;
        }
        w.finish().map_err(err)?;
    }
    let runs_before = pbsm_obs::counter_value(pbsm_obs::names::EXTSORT_RUNS);
    let (d, sorted) = timed(|| external_sort(&pool, &input, 1 << 20, |a, b| a.cmp(b), true));
    let sorted = sorted.map_err(err)?;
    let runs = pbsm_obs::counter_value(pbsm_obs::names::EXTSORT_RUNS) - runs_before;
    sorted.destroy(&pool);
    input.destroy(&pool);
    Ok(((d, n), runs))
}

/// Generous bytes per index entry (40 on the page, nodes 40–75 % full,
/// inner levels on top).
const INDEX_ENTRY: usize = 128;

/// Index entries for a relation's MBRs, with made-up OIDs in load order.
fn entries(rects: &[Tagged]) -> Vec<(Rect, Oid)> {
    rects
        .iter()
        .map(|(r, i)| (*r, Oid::new(FileId(1), i / 64, (i % 64) as u16)))
        .collect()
}

/// Shape of a bulk-loaded tree.
pub struct TreeShape {
    pub pages_per_kentry: f64,
    pub height: f64,
}

/// rtree: `bulk::bulk_load` of one relation's entries (Hilbert sort
/// included) into a pool that holds the tree.
pub fn probe_bulk_load(universe: &Rect, rects: &[Tagged]) -> Res<(Sample, TreeShape)> {
    let pool = roomy_pool(rects.len() * INDEX_ENTRY);
    let input = entries(rects);
    let (d, tree) = timed(|| bulk_load(&pool, input, universe, DEFAULT_CAPACITY, false));
    let tree = tree.map_err(err)?;
    let shape = TreeShape {
        pages_per_kentry: f64::from(tree.num_pages(&pool)) * 1000.0 / rects.len().max(1) as f64,
        height: f64::from(tree.height()),
    };
    Ok(((d, rects.len() as u64), shape))
}

/// rtree: `RTree::insert`, one entry at a time.
pub fn probe_insert(rects: &[Tagged]) -> Res<Sample> {
    let pool = roomy_pool(rects.len() * INDEX_ENTRY);
    let mut tree = RTree::create(&pool, DEFAULT_CAPACITY).map_err(err)?;
    let (d, r) = timed(|| {
        entries(rects)
            .into_iter()
            .try_for_each(|(rect, oid)| tree.insert(&pool, rect, oid))
    });
    r.map_err(err)?;
    Ok((d, rects.len() as u64))
}

/// Two warm bulk-loaded trees in one pool, for the query and join probes.
pub struct Trees {
    pool: BufferPool,
    left: RTree,
    right: RTree,
}

impl Trees {
    pub fn build(universe: &Rect, left: &[Tagged], right: &[Tagged]) -> Res<Trees> {
        let pool = roomy_pool((left.len() + right.len()) * INDEX_ENTRY);
        let left =
            bulk_load(&pool, entries(left), universe, DEFAULT_CAPACITY, false).map_err(err)?;
        let right =
            bulk_load(&pool, entries(right), universe, DEFAULT_CAPACITY, false).map_err(err)?;
        Ok(Trees { pool, left, right })
    }

    fn pins(&self) -> u64 {
        let s = self.pool.stats();
        s.hits + s.misses
    }

    /// rtree: `query::window_query` on the left tree. Returns the sample
    /// (unit: one query), pins and results.
    pub fn probe_window_query(&self, windows: &[Rect]) -> Res<(Sample, u64, u64)> {
        let pins = self.pins();
        let mut hits = Vec::new();
        let (d, results) = timed(|| -> Res<u64> {
            let mut results = 0;
            for w in windows {
                hits.clear();
                window_query(&self.left, &self.pool, w, &mut hits).map_err(err)?;
                results += hits.len() as u64;
            }
            Ok(results)
        });
        Ok(((d, windows.len() as u64), self.pins() - pins, results?))
    }

    /// rtree: `join::rtree_join` over the two trees. Returns the sample
    /// (unit: one candidate pair) and pins.
    pub fn probe_join(&self) -> Res<(Sample, u64)> {
        let pins = self.pins();
        let mut candidates = 0u64;
        let (d, r) = timed(|| {
            join_trees(&self.left, &self.right, &self.pool, &mut |a, b| {
                black_box((a, b));
                candidates += 1;
            })
        });
        r.map_err(err)?;
        Ok(((d, candidates), self.pins() - pins))
    }
}

/// core: `load_relation` then `build_index` of one relation in a fresh
/// 8 MiB engine. Returns the two samples.
pub fn probe_load_and_index(tuples: &[SpatialTuple]) -> Res<[Sample; 2]> {
    let db = new_db(8 << 20, false);
    let (d_load, meta) = timed(|| load_relation(&db, "probe", tuples, false));
    let meta = meta.map_err(err)?;
    let (d_index, tree) = timed(|| build_index(&db, &meta));
    tree.map_err(err)?;
    let n = tuples.len() as u64;
    Ok([(d_load, n), (d_index, n)])
}

/// core: `TileGrid::for_each_partition` over a relation's MBRs, with the
/// study's 1024 tiles hashed onto 3 partitions.
pub fn probe_route(universe: &Rect, rects: &[Tagged]) -> Sample {
    let grid = TileGrid::new(*universe, 1024);
    let (d, routed) = timed(|| {
        let mut routed = 0u64;
        for (r, _) in rects {
            grid.for_each_partition(r, TileMapScheme::Hash, 3, |p| routed += u64::from(p) + 1);
        }
        routed
    });
    black_box(routed);
    (d, rects.len() as u64)
}

/// core: warm single-thread `select_scan` (unit: one tuple scanned) and
/// `select_index` (unit: one result) over an indexed relation.
pub fn probe_selects(db: &Db, relation: &str, tuples: u64, windows: &[Rect]) -> Res<[Sample; 2]> {
    let scans = &windows[..windows.len().min(8)];
    let (d_scan, r) = timed(|| {
        scans
            .iter()
            .try_for_each(|w| select_scan(db, relation, w).map(drop))
    });
    r.map_err(err)?;
    let (d_index, results) = timed(|| {
        windows
            .iter()
            .map(|w| select_index(db, relation, w).map(|out| out.oids.len() as u64))
            .sum::<Result<u64, _>>()
    });
    let results = results.map_err(err)?;
    drain_obs();
    Ok([(d_scan, tuples * scans.len() as u64), (d_index, results)])
}

/// datagen: the generators alone (no jitter), unit: one tuple.
pub fn probe_datagen(family: Family, scale: f64) -> Sample {
    let (d, pair) = timed(|| generate_raw(family, scale));
    (d, (pair.left.len() + pair.right.len()) as u64)
}

/// obs: `pbsm_obs::span(..)` + drop, unit: one span.
pub fn probe_obs_span(n: u64) -> Sample {
    let (d, ()) = timed(|| {
        for _ in 0..n {
            drop(black_box(pbsm_obs::span("probe")));
        }
    });
    drain_obs();
    (d, n)
}

/// obs: `counter(<registered name>).add`, unit: one add.
pub fn probe_obs_counter(n: u64) -> Sample {
    let c = pbsm_obs::counter(pbsm_obs::names::POOL_HITS);
    let (d, ()) = timed(|| {
        for i in 0..n {
            c.add(black_box(i | 1));
        }
    });
    drain_obs();
    (d, n)
}
