//! Layer probes: each crate's public functions, timed from outside.
//!
//! The probes are the same in every workload's traced run: they work on
//! their own fixed-scale copies of the Road, Hydrography, landuse and
//! islands relations (jittered by the run's seed like every other input),
//! so the four traced runs of one set double as a noise check on each
//! other. A probe reports the median of [`SAMPLES`] samples, each holding
//! at least [`MIN_SAMPLE_S`] of time inside the measured calls.

use crate::engine::{self, Family, Res, Sample};
use crate::rng::Rng;
use crate::workload::{query_list, Ctx};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SAMPLES: usize = 5;
const MIN_SAMPLE_S: f64 = 0.1;
/// Scale of the probes' inputs: 114 k Road, 30 k Hydrography, 14.5 k
/// landuse and 5 k islands features.
const PROBE_SCALE: f64 = 0.25;

/// Times `pass` — one run over the probe's input, returning one
/// `(time, units)` per metric in `names` — and samples each metric's
/// nanoseconds per unit.
fn measure<const N: usize>(
    ctx: &mut Ctx,
    layer: &'static str,
    names: [&'static str; N],
    mut pass: impl FnMut() -> Res<[Sample; N]>,
) {
    for _ in 0..SAMPLES {
        let (totals, _) = ctx.timed(layer, names[0], || -> Res<[Sample; N]> {
            let mut totals = [(Duration::ZERO, 0u64); N];
            while totals.iter().map(|t| t.0.as_secs_f64()).sum::<f64>() < MIN_SAMPLE_S * N as f64 {
                for (total, (d, units)) in totals.iter_mut().zip(pass()?) {
                    total.0 += d;
                    total.1 += units;
                }
            }
            Ok(totals)
        });
        let Some(totals) = ctx.must(names[0], totals) else {
            return;
        };
        for (name, (d, units)) in names.into_iter().zip(totals) {
            ctx.sample(name, d.as_nanos() as f64 / units.max(1) as f64);
        }
    }
}

/// A fixed pure-CPU loop; a reading far from the recorded one means a
/// different or throttled host.
fn calibration() -> Sample {
    const ITERS: u64 = 10_000_000;
    let mut rng = Rng::new(1);
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..ITERS {
        acc ^= rng.next_u64();
    }
    black_box(acc);
    (t.elapsed(), ITERS)
}

pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    ctx.enter("bench", "probes");
    measure(ctx, "bench", ["host.calibration.ns_per_iter"], || {
        Ok([calibration()])
    });

    measure(ctx, "datagen", ["datagen.tiger.ns_per_tuple"], || {
        Ok([engine::probe_datagen(Family::Tiger, PROBE_SCALE)])
    });
    measure(ctx, "datagen", ["datagen.sequoia.ns_per_tuple"], || {
        Ok([engine::probe_datagen(Family::Sequoia, PROBE_SCALE)])
    });
    let tiger = engine::generate(Family::Tiger, PROBE_SCALE, seed);
    let sequoia = engine::generate(Family::Sequoia, PROBE_SCALE, seed);
    let universe = tiger.universe();
    let windows: Vec<_> = query_list(seed, 0, 5, Family::Tiger)
        .into_iter()
        .map(|q| q.window)
        .collect();

    // geom
    let (road, hydro) = (engine::tagged(&tiger.left), engine::tagged(&tiger.right));
    measure(ctx, "geom", ["geom.sort_by_xl.ns_per_rect"], || {
        Ok([engine::probe_sort_by_xl(&road, &hydro)])
    });
    let (road_x, hydro_x) = (
        engine::tagged_sorted(&tiger.left),
        engine::tagged_sorted(&tiger.right),
    );
    measure(ctx, "geom", ["geom.sweep_join.ns_per_rect"], || {
        Ok([engine::probe_sweep(&road_x, &hydro_x).0])
    });
    let (_, candidates, (comparisons, hits)) = engine::probe_sweep(&road_x, &hydro_x);
    ctx.sample(
        "geom.sweep_join.comparisons_per_hit",
        comparisons as f64 / hits.max(1) as f64,
    );
    let mut accepted = 0;
    measure(
        ctx,
        "geom",
        ["geom.evaluate_intersects.ns_per_pair"],
        || {
            let (sample, n) = engine::probe_evaluate(Family::Tiger, &tiger, &candidates);
            accepted = n;
            Ok([sample])
        },
    );
    ctx.sample(
        "geom.evaluate.accept_ratio.tiger",
        accepted as f64 / candidates.len().max(1) as f64,
    );
    let (_, candidates, _) = engine::probe_sweep(
        &engine::tagged_sorted(&sequoia.left),
        &engine::tagged_sorted(&sequoia.right),
    );
    measure(ctx, "geom", ["geom.evaluate_contains.ns_per_pair"], || {
        let (sample, n) = engine::probe_evaluate(Family::Sequoia, &sequoia, &candidates);
        accepted = n;
        Ok([sample])
    });
    ctx.sample(
        "geom.evaluate.accept_ratio.sequoia",
        accepted as f64 / candidates.len().max(1) as f64,
    );
    measure(ctx, "geom", ["geom.hilbert_of_rect.ns_per_key"], || {
        Ok([engine::probe_hilbert(&universe, &road)])
    });

    // storage
    measure(ctx, "storage", ["storage.pool.get_hit.ns_per_op"], || {
        Ok([engine::probe_pool_hit(1, 500_000)?])
    });
    measure(
        ctx,
        "storage",
        ["storage.pool.get_hit_2t.ns_per_op"],
        || Ok([engine::probe_pool_hit(2, 500_000)?]),
    );
    measure(ctx, "storage", ["storage.pool.get_miss.ns_per_op"], || {
        Ok([engine::probe_pool_miss()?])
    });
    measure(
        ctx,
        "storage",
        [
            "storage.pool.new_page_evict.ns_per_page",
            "storage.pool.flush_all.ns_per_page",
        ],
        || engine::probe_pool_write().map(|(a, b)| [a, b]),
    );
    measure(
        ctx,
        "storage",
        [
            "storage.heap.insert.ns_per_tuple",
            "storage.heap.scan.ns_per_tuple",
            "storage.heap.fetch.ns_per_tuple",
        ],
        || engine::probe_heap(&tiger.left),
    );
    measure(
        ctx,
        "storage",
        [
            "storage.record.write.ns_per_rec",
            "storage.record.read.ns_per_rec",
        ],
        || engine::probe_record(500_000),
    );
    let mut runs = 0;
    measure(ctx, "storage", ["storage.extsort.ns_per_rec"], || {
        let (sample, n) = engine::probe_extsort(360_000, seed)?;
        runs = n;
        Ok([sample])
    });
    ctx.sample("storage.extsort.runs", runs as f64);

    // rtree
    let mut shape = None;
    measure(ctx, "rtree", ["rtree.bulk_load.ns_per_entry"], || {
        let (sample, s) = engine::probe_bulk_load(&universe, &road)?;
        shape = Some(s);
        Ok([sample])
    });
    if let Some(shape) = shape {
        ctx.sample("rtree.pages_per_kentry", shape.pages_per_kentry);
        ctx.sample("rtree.height", shape.height);
    }
    measure(ctx, "rtree", ["rtree.insert.ns_per_entry"], || {
        Ok([engine::probe_insert(&hydro[..hydro.len().min(5_000)])?])
    });
    let trees = engine::Trees::build(&universe, &road, &hydro);
    if let Some(trees) = ctx.must("rtree probe set-up", trees) {
        let (mut pins, mut results) = (0, 0);
        measure(ctx, "rtree", ["rtree.window_query.ns_per_query"], || {
            let (sample, p, r) = trees.probe_window_query(&windows)?;
            (pins, results) = (p, r);
            Ok([sample])
        });
        let n = windows.len() as f64;
        ctx.sample("rtree.window_query.pins_per_query", pins as f64 / n);
        ctx.sample("rtree.window_query.results_per_query", results as f64 / n);
        let (mut pins, mut pairs) = (0, 0);
        measure(ctx, "rtree", ["rtree.join.ns_per_candidate"], || {
            let (sample, p) = trees.probe_join()?;
            (pins, pairs) = (p, sample.1);
            Ok([sample])
        });
        ctx.sample(
            "rtree.join.pins_per_candidate",
            pins as f64 / pairs.max(1) as f64,
        );
    }

    // core
    measure(
        ctx,
        "core",
        [
            "core.load_relation.ns_per_tuple",
            "core.build_index.ns_per_tuple",
        ],
        || engine::probe_load_and_index(&tiger.left),
    );
    measure(ctx, "core", ["core.tilegrid.route.ns_per_rect"], || {
        Ok([engine::probe_route(&universe, &road)])
    });
    let db = engine::new_db(64 << 20, false);
    let loaded = engine::load(&db, "road", &tiger.left, true);
    if ctx.must("select probe set-up", loaded).is_some() {
        let tuples = tiger.left.len() as u64;
        measure(
            ctx,
            "core",
            [
                "core.select_scan.ns_per_tuple",
                "core.select_index.ns_per_result",
            ],
            || engine::probe_selects(&db, "road", tuples, &windows),
        );
    }

    // obs
    measure(ctx, "obs", ["obs.span.ns_per_span"], || {
        Ok([engine::probe_obs_span(100_000)])
    });
    measure(ctx, "obs", ["obs.counter.ns_per_add"], || {
        Ok([engine::probe_obs_counter(1_000_000)])
    });
    engine::drain_obs();
    ctx.leave();
}
