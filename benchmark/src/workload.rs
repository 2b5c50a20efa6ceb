//! The four workloads and the three sections each of them runs.
//!
//! The driver wants every end-to-end metric from every workload, so a
//! workload is a *regime*, not a single operation: each runs the same
//! three sections — cold joins, closed-loop serving, sharded joins — and
//! differs in the data family and in which section gets the paper's full
//! cardinalities and most of the time. The other two sections run as a
//! reduced-scale panel in the same spirit (cold joins keep data ≈ 14× the
//! pool, serving keeps a pool that fits, shards keep K = 2).
//!
//! The amount of work is a fixed function of `--seconds` (reps and query
//! blocks scale with it; sized so the timed work fills about `--seconds`
//! at the commit that added the benchmark), never a deadline: sample
//! counts, query lists and pool-hit counts then repeat exactly.

use crate::engine::{self, Algo, Db, Family, Io, JoinOutcome, Oid, Pair, Rect, Res};
use crate::metrics::{self, Measured, Values};
use crate::rng::Rng;
use crate::trace::{Open, Span, Tracer};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

/// The `--seconds` the plans below are sized for (`run_seconds` in
/// `BENCHMARK.json`).
pub const NOMINAL_SECONDS: u32 = 20;

/// Closed-loop client threads of the serving section (= `nproc` of the
/// host the benchmark was sized on).
pub const CLIENTS: usize = 2;

/// Cold joins: each rep builds a fresh cold engine per variant and times
/// one join of PBSM, R-tree join (builds both indexes), INL (builds one)
/// and PBSM on a journaled engine.
pub struct JoinsPlan {
    pub scale: f64,
    pub pool_kib: usize,
    pub reps: u32,
}

/// Serving: one shared unjournaled engine holding all four relations and
/// their indexes, closed loop. First one client alone replays a list of
/// `alone_blocks` × 200 queries (latencies), then `CLIENTS` threads each
/// replay their own list of `loaded_blocks` × 200 at once (throughput).
pub struct ServePlan {
    pub scale: f64,
    pub pool_kib: usize,
    pub alone_blocks: u32,
    pub loaded_blocks: u32,
}

/// Sharded joins: `ShardedDb` with K = 2 (checked against K = 1), indexes
/// prebuilt at load; two discarded warm-up joins, then `reps` timed PBSM
/// and INL joins.
pub struct ShardPlan {
    pub scale: f64,
    pub pool_kib: usize,
    pub reps: u32,
}

pub struct Plan {
    pub name: &'static str,
    /// Why the workload exists (repeated in `BENCHMARK.json`).
    pub why: &'static str,
    pub family: Family,
    pub joins: JoinsPlan,
    pub serve: ServePlan,
    pub shard: ShardPlan,
}

const PANEL_JOINS: JoinsPlan = JoinsPlan {
    scale: 0.125,
    pool_kib: 1024,
    reps: 5,
};
const PANEL_SERVE: ServePlan = ServePlan {
    scale: 0.03,
    pool_kib: 64 * 1024,
    alone_blocks: 10,
    loaded_blocks: 2,
};
const PANEL_SHARD: ShardPlan = ShardPlan {
    scale: 0.125,
    pool_kib: 1024,
    reps: 8,
};

pub const PLANS: [Plan; 4] = [
    Plan {
        name: "tiger_join",
        why: "Road x Hydrography Intersects at full scale in an 8 MiB pool (data 14x cache, 3 partitions): filter step and storage miss path dominate",
        family: Family::Tiger,
        joins: JoinsPlan {
            scale: 1.0,
            pool_kib: 8 * 1024,
            reps: 3,
        },
        serve: PANEL_SERVE,
        shard: PANEL_SHARD,
    },
    Plan {
        name: "sequoia_join",
        why: "landuse contains islands at full scale, 8 MiB pool: refinement (geom predicates) is ~85 % of every algorithm, storage and rtree almost idle",
        family: Family::Sequoia,
        joins: JoinsPlan {
            scale: 1.0,
            pool_kib: 8 * 1024,
            reps: 4,
        },
        serve: PANEL_SERVE,
        shard: PANEL_SHARD,
    },
    Plan {
        name: "serve_mixed",
        why: "2 closed-loop clients on one shared Db whose 64 MiB pool holds all data: warm hit path, probes not builds, latch contention",
        family: Family::Tiger,
        joins: PANEL_JOINS,
        serve: ServePlan {
            scale: 0.1,
            pool_kib: 64 * 1024,
            alone_blocks: 8,
            loaded_blocks: 2,
        },
        shard: PANEL_SHARD,
    },
    Plan {
        name: "shard_scatter",
        why: "ShardedDb K=2 at full scale, 8 MiB pool per shard: the only results that wait for parallel parts, so replication, skew and the gather show",
        family: Family::Tiger,
        joins: PANEL_JOINS,
        serve: PANEL_SERVE,
        shard: ShardPlan {
            scale: 1.0,
            pool_kib: 8 * 1024,
            reps: 5,
        },
    },
];

// ---------------------------------------------------------------------
// Run context
// ---------------------------------------------------------------------

/// What one run accumulates: samples by metric name, the failure count,
/// set-up time and (when tracing) spans.
pub struct Ctx<'t> {
    tracer: &'t Tracer,
    pub spans: Vec<Span>,
    /// Enclosing spans on the main thread.
    stack: Vec<Option<Open>>,
    group: u64,
    /// Set while the traced run repeats an operation unrecorded, to price
    /// the recorder.
    paused: bool,
    pub seed: u64,
    /// `--seconds` ÷ [`NOMINAL_SECONDS`].
    budget: f64,
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl<'t> Ctx<'t> {
    pub fn new(tracer: &'t Tracer, seed: u64, seconds: u32) -> Self {
        Ctx {
            tracer,
            spans: Vec::new(),
            stack: Vec::new(),
            group: 0,
            paused: false,
            seed,
            budget: f64::from(seconds) / f64::from(NOMINAL_SECONDS),
            setup_s: 0.0,
            attempted: 0,
            failed: 0,
            samples: BTreeMap::new(),
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracer.on()
    }

    /// A plan's rep or block count at this run's `--seconds`.
    pub fn scaled(&self, nominal: u32) -> u32 {
        ((f64::from(nominal) * self.budget).round() as u32).max(1)
    }

    fn parent(&self) -> u64 {
        self.stack.iter().rev().flatten().next().map_or(0, Open::id)
    }

    /// Opens a span that encloses what follows, until [`Ctx::leave`].
    pub fn enter(&mut self, layer: &'static str, name: &str) {
        let open = self.tracer.open(self.parent(), self.group, layer, name);
        self.stack.push(open);
    }

    pub fn leave(&mut self) {
        let open = self.stack.pop().expect("leave without enter");
        self.tracer.close(open, Vec::new(), &mut self.spans);
    }

    /// Like [`Ctx::enter`], with a fresh group id for one rep.
    pub fn enter_rep(&mut self, name: &str) {
        self.group = self.tracer.new_group();
        self.enter("bench", name);
    }

    pub fn leave_rep(&mut self) {
        self.leave();
        self.group = 0;
    }

    /// Runs one timed call into `layer` inside a span; returns its result
    /// and its wall seconds. The clock starts after the span is opened
    /// and stops before it is closed, so tracing costs the timed region
    /// nothing.
    pub fn timed<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = match self.paused {
            false => self.tracer.open(self.parent(), self.group, layer, name),
            true => None,
        };
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.tracer.close(open, Vec::new(), &mut self.spans);
        (out, secs)
    }

    /// A step that builds inputs: timed like any call, and its time is
    /// added to `setup_s`.
    pub fn setup<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = self.timed(layer, name, f);
        self.setup_s += secs;
        out
    }

    /// Attaches attributes to the span closed last.
    pub fn annotate(&mut self, attrs: impl IntoIterator<Item = (&'static str, f64)>) {
        if let (true, Some(span)) = (self.tracing() && !self.paused, self.spans.last_mut()) {
            span.attrs
                .extend(attrs.into_iter().map(|(k, v)| (k.to_string(), v)));
        }
    }

    /// Adds one sample under `name`: a declared metric, or a series the
    /// harness derives declared metrics from.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Counts one operation; an `Err` is a failed operation.
    pub fn op<T>(&mut self, what: &str, result: Res<T>) -> Option<T> {
        self.attempted += 1;
        self.must(what, result)
    }

    /// Unwraps the result of a step that is not itself an operation
    /// (set-up, a probe); its `Err` still counts as a failure.
    pub fn must<T>(&mut self, what: &str, result: Res<T>) -> Option<T> {
        result
            .map_err(|e| {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
            })
            .ok()
    }

    /// Counts a failed answer check against the operation counted last.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failed += 1;
            eprintln!("FAILED answer check: {what}");
        }
    }

    /// The medians of everything sampled, as reported values.
    pub fn medians(&self) -> Values {
        self.samples
            .iter()
            .map(|(name, v)| (*name, Measured::median_of(v)))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Section 1: cold joins
// ---------------------------------------------------------------------

/// `(end-to-end metric, algorithm, journaled engine)`.
const VARIANTS: [(&str, Algo, bool); 4] = [
    ("pbsm_join_s", Algo::Pbsm, false),
    ("rtree_join_s", Algo::Rtree, false),
    ("inl_join_s", Algo::Inl, false),
    ("pbsm_journaled_join_s", Algo::Pbsm, true),
];

/// Internal sample name of the PBSM joins the traced run repeats with
/// recording paused, to price the recorder.
const UNTRACED_PBSM: &str = "bench.untraced_pbsm_join_s";

pub fn joins_section(ctx: &mut Ctx, plan: &Plan) {
    let (p, family, seed) = (&plan.joins, plan.family, ctx.seed);
    let pool = p.pool_kib * 1024;
    ctx.enter("bench", "joins");
    let pair = ctx.setup("datagen", "generate", || {
        engine::generate(family, p.scale, seed)
    });
    for rep in 0..ctx.scaled(p.reps) {
        ctx.enter_rep(&format!("joins rep {rep}"));
        // The three unjournaled answers must be identical; the journaled
        // engine numbers its files one higher, so it is compared by count
        // and by a digest that ignores file ids.
        let mut reference: Option<Vec<(Oid, Oid)>> = None;
        for (metric, algo, journal) in VARIANTS {
            let Some((out, secs, attrs)) = cold_join(ctx, family, &pair, pool, algo, journal)
            else {
                continue;
            };
            ctx.sample(metric, secs);
            if ctx.tracing() && !journal {
                layer_metrics_of_join(ctx, algo, &attrs);
            }
            let pairs = out.pairs;
            match &reference {
                None => reference = Some(pairs),
                Some(first) if journal => ctx.check(
                    "journaled pairs differ",
                    first.len() == pairs.len()
                        && engine::pairs_digest(first) == engine::pairs_digest(&pairs),
                ),
                Some(first) => ctx.check("algorithms disagree", *first == pairs),
            }
        }
        ctx.leave_rep();
        if ctx.tracing() {
            // Same join, recorder paused: the difference is its overhead.
            ctx.paused = true;
            if let Some((_, secs, _)) = cold_join(ctx, family, &pair, pool, Algo::Pbsm, false) {
                ctx.sample(UNTRACED_PBSM, secs);
            }
            ctx.paused = false;
        }
    }
    ctx.leave();
    if ctx.tracing() {
        let med = |name| metrics::median(ctx.samples(name));
        let (plain, journaled, untraced) = (
            med("pbsm_join_s"),
            med("pbsm_journaled_join_s"),
            med(UNTRACED_PBSM),
        );
        ctx.sample("storage.journal.overhead_pct", pct_over(journaled, plain));
        ctx.sample("bench.trace_overhead_pct", pct_over(plain, untraced));
    }
}

fn pct_over(value: f64, base: f64) -> f64 {
    (value - base) / base * 100.0
}

/// Builds a fresh cold engine (set-up), times one join on it, tears it
/// down. Returns the outcome, its wall seconds and what its span carries.
fn cold_join(
    ctx: &mut Ctx,
    family: Family,
    pair: &Pair,
    pool: usize,
    algo: Algo,
    journal: bool,
) -> Option<(JoinOutcome, f64, Attrs)> {
    let what = format!(
        "{} join{}",
        algo.key(),
        if journal { " (journaled)" } else { "" }
    );
    let db = ctx.setup("core", "load_relation x2 + clear_cache", || {
        let db = engine::new_db(pool, journal);
        engine::load_cold(&db, family, pair).map(|()| db)
    });
    let db = ctx.must(&what, db)?;
    let before = Io::of(&db);
    let (out, secs) = ctx.timed("core", &what, || engine::join(&db, algo, family));
    let io = Io::of(&db).since(before);
    drop(db);
    engine::drain_obs();
    let out = ctx.op(&what, out)?;
    let attrs = join_attrs(&out, io);
    ctx.annotate(attrs.iter().copied());
    Some((out, secs, attrs))
}

/// Attributes of a span, by name.
type Attrs = Vec<(&'static str, f64)>;

/// What a join span carries: engine-reported phase seconds, I/O counts
/// and `JoinStats`.
fn join_attrs(out: &JoinOutcome, io: Io) -> Attrs {
    let s = &out.stats;
    vec![
        ("partition_s", engine::phase_s(out, "partition ")),
        ("merge_s", engine::phase_s(out, "merge partitions")),
        ("refine_s", engine::phase_s(out, "refinement step")),
        ("build_index_s", engine::phase_s(out, "build index on ")),
        ("join_indices_s", engine::phase_s(out, "join indices")),
        ("probe_index_s", engine::phase_s(out, "probe index")),
        ("pool_hits", io.hits as f64),
        ("pool_misses", io.misses as f64),
        ("pool_evictions", io.evictions as f64),
        ("disk_reads", io.reads as f64),
        ("disk_writes", io.writes as f64),
        ("disk_seeks", io.seeks as f64),
        ("modeled_io_s", io.modeled_io_s),
        ("partitions", s.partitions as f64),
        ("input_elements", s.input_elements as f64),
        ("replicated_elements", s.replicated_elements as f64),
        ("candidates", s.candidates as f64),
        ("unique_candidates", s.unique_candidates as f64),
        ("results", s.results as f64),
    ]
}

/// The per-layer metrics of one traced cold join, from what its span
/// carries (so the engine's component names are spelled in one place).
fn layer_metrics_of_join(ctx: &mut Ctx, algo: Algo, attrs: &[(&'static str, f64)]) {
    let attr = |name| attrs.iter().find(|(n, _)| *n == name).map_or(0.0, |a| a.1);
    let ratio = |a: f64, b: f64| a / b.max(1.0);
    let key = algo.key();
    let hit_rate = ratio(attr("pool_hits"), attr("pool_hits") + attr("pool_misses"));
    ctx.sample(
        metrics::declared(&format!("storage.join.{key}.pool_hit_rate")),
        hit_rate,
    );
    for field in [
        "pool_evictions",
        "disk_reads",
        "disk_writes",
        "disk_seeks",
        "modeled_io_s",
    ] {
        ctx.sample(
            metrics::declared(&format!("storage.join.{key}.{field}")),
            attr(field),
        );
    }
    let phases: &[(&str, &str)] = match algo {
        Algo::Pbsm => &[
            ("partition_s", "partition_s"),
            ("merge_s", "merge_s"),
            ("refine_s", "refine_s"),
        ],
        Algo::Rtree => &[
            ("build_s", "build_index_s"),
            ("join_indices_s", "join_indices_s"),
            ("refine_s", "refine_s"),
        ],
        Algo::Inl => &[("build_s", "build_index_s"), ("probe_s", "probe_index_s")],
    };
    for (field, carried) in phases {
        ctx.sample(
            metrics::declared(&format!("core.{key}.{field}")),
            attr(carried),
        );
    }
    if algo == Algo::Pbsm {
        ctx.sample("core.pbsm.partitions", attr("partitions"));
        ctx.sample(
            "core.pbsm.replication_ratio",
            ratio(attr("replicated_elements"), attr("input_elements")),
        );
        ctx.sample(
            "core.pbsm.dup_ratio",
            ratio(attr("candidates"), attr("unique_candidates")),
        );
        ctx.sample(
            "core.pbsm.candidates_per_result",
            ratio(attr("unique_candidates"), attr("results")),
        );
    }
}

// ---------------------------------------------------------------------
// Section 2: closed-loop serving
// ---------------------------------------------------------------------

/// The relations the serving section loads and selects from: both
/// families' join inputs.
pub const SERVE_RELATIONS: [&str; 4] = ["road", "hydro", "landuse", "islands"];

/// Queries of a client's list that run before its clock starts.
pub const WARMUP: usize = 50;

/// The "seed" that orders the lone client's list, whatever `--seed` is.
const ALONE_ORDER: u64 = 0;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    SelectIndex,
    SelectScan,
    Pbsm,
    Inl,
    Rtree,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::SelectIndex => "select_index",
            Kind::SelectScan => "select_scan",
            Kind::Pbsm => "pbsm_join",
            Kind::Inl => "inl_join",
            Kind::Rtree => "rtree_join",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    pub kind: Kind,
    /// Index into [`SERVE_RELATIONS`] (used by selections only).
    pub relation: usize,
    pub window: Rect,
}

/// Queries in a block.
const BLOCK: usize = 200;

/// `(kind, relation, share of a block)`: 80 % `select_index` spread evenly
/// over the four relations, 10 % `select_scan`, 4 % PBSM, 3 % INL, 3 %
/// R-tree join. Scans and joins take their relations from the workload's
/// family, so each of those classes is one operation on one input and its
/// latencies have one mode. (A scan costs what its relation's size
/// dictates: spread over four relations the class had four narrow modes
/// and its median sat on the gap between two of them.)
const MIX: [(Kind, usize, usize); 8] = [
    (Kind::SelectIndex, 0, 40),
    (Kind::SelectIndex, 1, 40),
    (Kind::SelectIndex, 2, 40),
    (Kind::SelectIndex, 3, 40),
    (Kind::SelectScan, 0, 20),
    (Kind::Pbsm, 0, 8),
    (Kind::Inl, 0, 6),
    (Kind::Rtree, 0, 6),
];

/// A client's windows: centre uniform in [5, 95]², half-width 1–8.
///
/// Like the data (see `engine::generate`), the query lists have a pinned
/// part and a seeded part. The latency of a selection follows the number
/// of features its window covers, which ranges over three orders of
/// magnitude with where the window falls; windows drawn freely per seed
/// moved `select_index_p50_us` by 8 % and `select_index_p99_us` — two
/// dozen windows over a dense city — by 15–20 % from seed to seed. So
/// every `(client, kind, relation)` stratum draws its windows from a
/// stream of its own that does not depend on the seed; `--seed` decides
/// the order in which the strata interleave (and, through the data, what
/// each window finds).
struct Windows(Vec<Rng>);

impl Windows {
    /// The streams of one client's timed blocks, or of its warm-up (which
    /// must not use up a seed-dependent number of the timed windows).
    fn new(client: usize, warmup: bool) -> Self {
        let stream = |stratum| {
            let id = (client * 2 + usize::from(warmup)) * MIX.len() + stratum;
            Rng::new(0x5E17_EC75 ^ (id as u64) << 32)
        };
        Windows((0..MIX.len()).map(stream).collect())
    }

    fn next(&mut self, stratum: usize) -> Rect {
        let rng = &mut self.0[stratum];
        let (cx, cy) = (5.0 + rng.next_f64() * 90.0, 5.0 + rng.next_f64() * 90.0);
        let hw = 1.0 + rng.next_f64() * 7.0;
        Rect::new(cx - hw, cy - hw, cx + hw, cy + hw)
    }
}

/// One block: exactly the [`MIX`], in an order shuffled by the seed, so
/// the work per block does not depend on the luck of the draw.
fn block(rng: &mut Rng, windows: &mut Windows, family: Family) -> Vec<Query> {
    let mut strata = Vec::with_capacity(BLOCK);
    for (stratum, (_, _, share)) in MIX.iter().enumerate() {
        strata.extend([stratum].repeat(*share));
    }
    rng.shuffle(&mut strata);
    strata
        .into_iter()
        .map(|stratum| {
            let (kind, relation, _) = MIX[stratum];
            Query {
                kind,
                relation: match kind {
                    Kind::SelectIndex => relation,
                    _ => left_relation(family),
                },
                window: windows.next(stratum),
            }
        })
        .collect()
}

/// Index in [`SERVE_RELATIONS`] of the left input of `family`'s join.
fn left_relation(family: Family) -> usize {
    let (left, _) = family.relations();
    SERVE_RELATIONS.iter().position(|r| *r == left).unwrap_or(0)
}

/// A client's fixed query list: [`WARMUP`] queries, then `blocks` whole
/// blocks. The same `(seed, client)` always gives the same list.
pub fn query_list(seed: u64, client: usize, blocks: u32, family: Family) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xC11E_47C1_1E47_0001));
    let mut list = block(&mut rng, &mut Windows::new(client, true), family);
    list.truncate(WARMUP);
    let mut windows = Windows::new(client, false);
    for _ in 0..blocks {
        list.extend(block(&mut rng, &mut windows, family));
    }
    list
}

/// Runs one query; the digest of its answer.
fn run_query(db: &Db, family: Family, q: &Query) -> Res<u64> {
    let select = |by_index| {
        engine::select(db, by_index, SERVE_RELATIONS[q.relation], &q.window)
            .map(|oids| engine::oids_digest(&oids))
    };
    let join = |algo| engine::join(db, algo, family).map(|out| engine::pairs_digest(&out.pairs));
    match q.kind {
        Kind::SelectIndex => select(true),
        Kind::SelectScan => select(false),
        Kind::Pbsm => join(Algo::Pbsm),
        Kind::Inl => join(Algo::Inl),
        Kind::Rtree => join(Algo::Rtree),
    }
}

struct ClientRun {
    start: Instant,
    end: Instant,
    latencies: Vec<(Kind, f64)>,
    failed: u64,
    spans: Vec<Span>,
}

/// One closed-loop client: the next query is sent only when the previous
/// one has answered. Every answer is compared with the oracle's.
fn client(
    db: &Db,
    family: Family,
    list: &[Query],
    expected: &[u64],
    barrier: &Barrier,
    tracer: &Tracer,
    parent: u64,
) -> ClientRun {
    let mut run = ClientRun {
        start: Instant::now(),
        end: Instant::now(),
        latencies: Vec::with_capacity(list.len()),
        failed: 0,
        spans: Vec::new(),
    };
    for (i, q) in list.iter().enumerate() {
        if i == WARMUP {
            barrier.wait();
            run.start = Instant::now();
        }
        let group = if tracer.on() { tracer.new_group() } else { 0 };
        let open = tracer.open(parent, group, "core", q.kind.name());
        let t = Instant::now();
        let answer = run_query(db, family, q);
        let secs = t.elapsed().as_secs_f64();
        let attrs = match open {
            Some(_) => vec![("relation".to_string(), q.relation as f64)],
            None => Vec::new(),
        };
        tracer.close(open, attrs, &mut run.spans);
        if i >= WARMUP {
            run.latencies.push((q.kind, secs));
            if answer.as_ref() != Ok(&expected[i]) {
                run.failed += 1;
                eprintln!("FAILED query {i} ({}): {answer:?}", q.kind.name());
            }
        }
        engine::drain_query();
    }
    run.end = Instant::now();
    run
}

/// Replays one list per client thread against the shared engine, all
/// clients starting their clocks together; counts operations and failed
/// answers, keeps the spans, returns the runs that finished.
fn closed_loop(
    ctx: &mut Ctx,
    name: &str,
    db: &Db,
    family: Family,
    lists: &[Vec<Query>],
    expected: &[Vec<u64>],
) -> Vec<ClientRun> {
    ctx.enter("bench", name);
    let (tracer, parent) = (ctx.tracer, ctx.parent());
    let barrier = Barrier::new(lists.len());
    let runs: Vec<Option<ClientRun>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .zip(expected)
            .map(|(list, expected)| {
                let barrier = &barrier;
                scope.spawn(move || client(db, family, list, expected, barrier, tracer, parent))
            })
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });
    ctx.leave();
    let mut finished = Vec::new();
    for (run, list) in runs.into_iter().zip(lists) {
        ctx.attempted += (list.len() - WARMUP) as u64;
        match run {
            Some(mut run) => {
                ctx.failed += run.failed;
                ctx.spans.append(&mut run.spans);
                finished.push(run);
            }
            None => {
                ctx.failed += (list.len() - WARMUP) as u64;
                eprintln!("FAILED serve client panicked");
            }
        }
    }
    finished
}

pub fn serve_section(ctx: &mut Ctx, plan: &Plan) {
    let (p, family, seed) = (&plan.serve, plan.family, ctx.seed);
    ctx.enter("bench", "serve");
    let data: Vec<Pair> = [Family::Tiger, Family::Sequoia]
        .into_iter()
        .map(|f| ctx.setup("datagen", "generate", || engine::generate(f, p.scale, seed)))
        .collect();
    let db = ctx.setup("core", "load_relation + build_index x4", || {
        let db = engine::new_db(p.pool_kib * 1024, false);
        let relations = data.iter().flat_map(|pair| [&pair.left, &pair.right]);
        for (name, tuples) in SERVE_RELATIONS.iter().zip(relations) {
            engine::load(&db, name, tuples, true)?;
        }
        Ok(db)
    });
    let Some(db) = ctx.must("serve set-up", db) else {
        ctx.leave();
        return;
    };
    // One list per loaded client, then the lone client's. A selection
    // that follows a join runs on caches the join has emptied, so a
    // class's latencies shift with the order of the list: shuffled per
    // seed, `select_index_p50_us` spread 9 % over ten seeds, in one order
    // 3 %. The lone client therefore replays one order on every seed (its
    // data still follow the seed); the loaded clients' orders are seeded.
    let mut lists: Vec<Vec<Query>> = (0..CLIENTS)
        .map(|c| query_list(seed, c, ctx.scaled(p.loaded_blocks), family))
        .collect();
    lists.push(query_list(
        ALONE_ORDER,
        CLIENTS,
        ctx.scaled(p.alone_blocks),
        family,
    ));

    // Oracle: a single-threaded pass before the clients start. Selections
    // of either kind are held to the index probe's answer, joins of every
    // algorithm to PBSM's.
    let ((join_digest, expected), _) = ctx.timed("bench", "oracle pass", || {
        let join_digest = engine::join(&db, Algo::Pbsm, family)
            .map(|out| engine::pairs_digest(&out.pairs))
            .unwrap_or(0);
        let expected: Vec<Vec<u64>> = lists
            .iter()
            .map(|list| {
                list.iter()
                    .map(|q| match q.kind {
                        Kind::SelectIndex | Kind::SelectScan => run_query(
                            &db,
                            family,
                            &Query {
                                kind: Kind::SelectIndex,
                                ..q.clone()
                            },
                        )
                        .unwrap_or(0),
                        _ => join_digest,
                    })
                    .collect()
            })
            .collect();
        (join_digest, expected)
    });
    ctx.check("oracle join failed", join_digest != 0);
    engine::drain_obs();
    let before = Io::of(&db);

    // Pass 1, one client alone: the latency of each query class.
    let alone = closed_loop(
        ctx,
        "closed loop, 1 client",
        &db,
        family,
        &lists[CLIENTS..],
        &expected[CLIENTS..],
    );
    for (kind, secs) in alone.iter().flat_map(|run| &run.latencies) {
        let (name, to_unit) = match kind {
            Kind::SelectIndex => ("serve.select_index_us", 1e6),
            Kind::SelectScan => ("serve.select_scan_ms", 1e3),
            Kind::Pbsm => ("serve.pbsm_query_ms", 1e3),
            Kind::Inl => ("serve.inl_query_ms", 1e3),
            Kind::Rtree => ("serve.rtree_query_ms", 1e3),
        };
        ctx.sample(name, secs * to_unit);
    }

    // Pass 2, all clients at once: throughput from the first clock
    // starting to the last client finishing.
    let loaded = closed_loop(
        ctx,
        "closed loop, all clients",
        &db,
        family,
        &lists[..CLIENTS],
        &expected[..CLIENTS],
    );
    let queries: usize = loaded.iter().map(|run| run.latencies.len()).sum();
    let first = loaded.iter().map(|run| run.start).min();
    let last = loaded.iter().map(|run| run.end).max();
    if let (Some(first), Some(last)) = (first, last) {
        ctx.sample("serve_qps", queries as f64 / (last - first).as_secs_f64());
    }
    if ctx.tracing() {
        let io = Io::of(&db).since(before);
        let all = lists.iter().map(Vec::len).sum::<usize>() as f64;
        ctx.sample("storage.serve.pool_hits_per_query", io.hits as f64 / all);
        ctx.sample("storage.serve.pool_hit_rate", io.hit_rate());
    }
    ctx.leave();
}

/// The serving latencies' end-to-end metrics: `(metric, series, q)`.
pub const SERVE_QUANTILES: [(&str, &str, f64); 6] = [
    ("select_index_p50_us", "serve.select_index_us", 0.50),
    ("select_index_p99_us", "serve.select_index_us", 0.99),
    ("select_scan_p50_ms", "serve.select_scan_ms", 0.50),
    ("pbsm_query_p50_ms", "serve.pbsm_query_ms", 0.50),
    ("inl_query_p50_ms", "serve.inl_query_ms", 0.50),
    ("rtree_query_p50_ms", "serve.rtree_query_ms", 0.50),
];

// ---------------------------------------------------------------------
// Section 3: sharded joins
// ---------------------------------------------------------------------

pub fn shard_section(ctx: &mut Ctx, plan: &Plan) {
    let (p, family, seed) = (&plan.shard, plan.family, ctx.seed);
    let pool = p.pool_kib * 1024;
    let reps = ctx.scaled(p.reps);
    ctx.enter("bench", "shard");
    let pair = ctx.setup("datagen", "generate", || {
        engine::generate(family, p.scale, seed)
    });

    // K = 1 first: its key pairs are the answer K = 2 must reproduce. The
    // traced run also times it, for the speed-up ratios.
    let k1 = ctx.setup("core", "ShardedDb::load_relation x2 (K=1)", || {
        engine::sharded(1, pool, family, &pair)
    });
    let mut oracle = None;
    if let Some(mut k1) = ctx.must("shard set-up (K=1)", k1) {
        let k1_reps = if ctx.tracing() { reps.div_ceil(2) } else { 1 };
        for rep in 0..k1_reps {
            ctx.enter_rep(&format!("shard K=1 rep {rep}"));
            for (algo, name) in [
                (Algo::Pbsm, "core.shard.k1_pbsm_join_s"),
                (Algo::Inl, "shard.k1_inl_join_s"),
            ] {
                if algo == Algo::Inl && !ctx.tracing() {
                    continue;
                }
                let (out, secs) = ctx.timed(
                    "core",
                    &format!("ShardedDb::join {} K=1", algo.key()),
                    || engine::shard_join(&mut k1, algo, family, pool),
                );
                if let Some(out) = ctx.op("shard join (K=1)", out) {
                    ctx.sample(name, secs);
                    match &oracle {
                        None => oracle = Some(out.pairs),
                        Some(first) => ctx.check("K=1 answers disagree", *first == out.pairs),
                    }
                }
                engine::drain_obs();
            }
            ctx.leave_rep();
        }
    }

    let k2 = ctx.setup("core", "ShardedDb::load_relation x2 (K=2)", || {
        engine::sharded(2, pool, family, &pair)
    });
    if let Some(mut k2) = ctx.must("shard set-up (K=2)", k2) {
        if ctx.tracing() {
            ctx.sample(
                "core.shard.replication_ratio",
                engine::shard_replication(&k2),
            );
        }
        // Two discarded warm-up joins, then the timed reps.
        for rep in 0..reps + 1 {
            ctx.enter_rep(&format!("shard K=2 rep {rep}"));
            for (algo, metric) in [
                (Algo::Pbsm, "shard_pbsm_join_s"),
                (Algo::Inl, "shard_inl_join_s"),
            ] {
                let (out, secs) = ctx.timed(
                    "core",
                    &format!("ShardedDb::join {} K=2", algo.key()),
                    || engine::shard_join(&mut k2, algo, family, pool),
                );
                if rep == 0 {
                    engine::drain_obs();
                    continue;
                }
                if let Some(out) = ctx.op("shard join (K=2)", out) {
                    ctx.sample(metric, secs);
                    ctx.check("K=2 differs from K=1", Some(&out.pairs) == oracle.as_ref());
                    if ctx.tracing() && algo == Algo::Pbsm {
                        let emitted: Vec<f64> =
                            out.shards.iter().map(|s| s.emitted_pairs as f64).collect();
                        let raw: f64 = out.shards.iter().map(|s| s.raw_pairs as f64).sum();
                        let total: f64 = emitted.iter().sum();
                        let max = emitted.iter().copied().fold(0.0, f64::max);
                        ctx.sample(
                            "core.shard.emit_skew",
                            max * emitted.len() as f64 / total.max(1.0),
                        );
                        ctx.sample("core.shard.raw_per_emitted", raw / total.max(1.0));
                    }
                }
                engine::drain_obs();
            }
            ctx.leave_rep();
        }
    }
    ctx.leave();
    if ctx.tracing() {
        let med = |name| metrics::median(ctx.samples(name));
        let pbsm = med("core.shard.k1_pbsm_join_s") / med("shard_pbsm_join_s");
        let inl = med("shard.k1_inl_join_s") / med("shard_inl_join_s");
        ctx.sample("core.shard.speedup_k2.pbsm", pbsm);
        ctx.sample("core.shard.speedup_k2.inl", inl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_queries_different_seed_different() {
        let list = |seed, client| query_list(seed, client, 3, Family::Tiger);
        assert_eq!(list(7, 0), list(7, 0));
        assert_ne!(list(7, 0), list(8, 0));
        // Each client replays its own list.
        assert_ne!(list(7, 0), list(7, 1));
        // The seed reorders a client's queries; it does not redraw them.
        let sorted = |mut l: Vec<Query>| {
            l.drain(..WARMUP);
            l.sort_by(|a, b| {
                let key = |q: &Query| (q.kind, q.relation, q.window.xl.to_bits());
                key(a).cmp(&key(b))
            });
            l
        };
        assert_eq!(sorted(list(7, 0)), sorted(list(8, 0)));
    }

    #[test]
    fn every_block_holds_the_declared_mix() {
        let list = query_list(42, 1, 4, Family::Sequoia);
        assert_eq!(list.len(), WARMUP + 4 * BLOCK);
        for block in list[WARMUP..].chunks(BLOCK) {
            let count = |k| block.iter().filter(|q| q.kind == k).count();
            assert_eq!(count(Kind::SelectIndex), 160);
            assert_eq!(count(Kind::SelectScan), 20);
            assert_eq!(count(Kind::Pbsm), 8);
            assert_eq!(count(Kind::Inl), 6);
            assert_eq!(count(Kind::Rtree), 6);
            for relation in 0..SERVE_RELATIONS.len() {
                let probes = block
                    .iter()
                    .filter(|q| q.kind == Kind::SelectIndex && q.relation == relation);
                assert_eq!(probes.count(), 40);
            }
            // Scans read the left input of the family's join.
            let scans = block.iter().filter(|q| q.kind == Kind::SelectScan);
            assert!(scans
                .into_iter()
                .all(|q| SERVE_RELATIONS[q.relation] == "landuse"));
        }
        for q in &list {
            let (w, h) = (q.window.xu - q.window.xl, q.window.yu - q.window.yl);
            assert!((2.0..=16.0).contains(&w) && (w - h).abs() < 1e-9);
            assert!(q.window.xl >= -3.0 && q.window.xu <= 103.0);
        }
    }

    #[test]
    fn work_scales_with_seconds_and_never_reaches_zero() {
        let t = Tracer::new(false);
        assert_eq!(Ctx::new(&t, 1, NOMINAL_SECONDS).scaled(13), 13);
        assert_eq!(Ctx::new(&t, 1, NOMINAL_SECONDS * 2).scaled(3), 6);
        assert_eq!(Ctx::new(&t, 1, 1).scaled(3), 1);
    }
}
