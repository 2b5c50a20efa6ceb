//! The metric catalogue and the small statistics every number goes
//! through.
//!
//! Everything the runner can print is declared here first, with its
//! unit, its direction and — for per-layer metrics — the end-to-end
//! metric and workload it is expected to move. `BENCHMARK.json` at the
//! repository root repeats the names, units, directions and bounds; a
//! unit test keeps the two in step.

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric, with the prediction made before measuring.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this number should move
    /// ("✗" marks where it must *not* move).
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// The fifteen end-to-end metrics. Every workload reports all of them,
/// each in its own regime (see `workload::PLANS`).
pub const END_TO_END: [EndToEnd; 15] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("pbsm_join_s", "s", Lower, 0.10),
    e2e("rtree_join_s", "s", Lower, 0.10),
    e2e("inl_join_s", "s", Lower, 0.10),
    e2e("pbsm_journaled_join_s", "s", Lower, 0.10),
    e2e("serve_qps", "queries/s", Higher, 0.25),
    e2e("select_index_p50_us", "us", Lower, 0.25),
    e2e("select_index_p99_us", "us", Lower, 0.25),
    e2e("select_scan_p50_ms", "ms", Lower, 0.15),
    e2e("pbsm_query_p50_ms", "ms", Lower, 0.10),
    e2e("inl_query_p50_ms", "ms", Lower, 0.10),
    e2e("rtree_query_p50_ms", "ms", Lower, 0.10),
    e2e("shard_pbsm_join_s", "s", Lower, 0.10),
    e2e("shard_inl_join_s", "s", Lower, 0.10),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SWEEP: &str = "pbsm_join_s, shard_pbsm_join_s (merge ~17 %) and rtree_join_s on tiger_join; ✗ sequoia_join (merge 3 %)";
const EVAL_TIGER: &str =
    "all four *_join_s on tiger_join; *_query_p50_ms on serve_mixed; ✗ sequoia_join";
const EVAL_SEQUOIA: &str = "all four *_join_s on sequoia_join (~85 %); ✗ tiger_join";
const HILBERT: &str =
    "rtree_join_s, inl_join_s on tiger_join; setup_s on serve_mixed, shard_scatter";
const POOL_HIT: &str = "serve_qps, select_index_p50_us, inl_query_p50_ms on serve_mixed; ✗ sequoia_join; 2t / 1t is the latch-contention cost";
const POOL_MISS: &str =
    "pbsm_join_s, pbsm_journaled_join_s, inl_join_s on tiger_join; ✗ serve_mixed (no evictions)";
const HEAP_INSERT: &str = "setup_s on every workload";
const HEAP_SCAN: &str = "select_scan_p50_ms on serve_mixed; partition phase of pbsm_join_s";
const HEAP_FETCH: &str = "refine phase of *_join_s on tiger_join; inl_join_s, inl_query_p50_ms";
const RECORD: &str = "partition + merge phases of pbsm_join_s on tiger_join";
const EXTSORT: &str =
    "refine sort of pbsm_join_s / rtree_join_s, bulk-load sort of inl_join_s on tiger_join";
const JOIN_IO: &str = "read cost vs write cost vs modeled 1996 I/O of the matching *_join_s; a wall-time win that raises these is a trade, not a gain";
const SERVE_POOL: &str = "serve_qps on serve_mixed";
const JOURNAL: &str = "pbsm_journaled_join_s vs pbsm_join_s on the same workload";
const BULK: &str = "rtree_join_s, inl_join_s on tiger_join; setup_s on serve_mixed, shard_scatter";
const RT_INSERT: &str = "no end-to-end metric today; guards the paper's bulk-vs-insert result against node-layout changes";
const RT_QUERY: &str = "select_index_p50_us, select_index_p99_us, inl_query_p50_ms on serve_mixed; inl_join_s on tiger_join; ✗ pbsm_join_s";
const RT_JOIN: &str = "rtree_join_s on tiger_join; rtree_query_p50_ms on serve_mixed";
const PHASE: &str = "the phase split of the matching *_join_s on the same workload; a claimed saving must show in the phase that was changed";
const WASTE: &str = "wasted filter work: replication and duplicates inflate merge and refine-sort time of pbsm_join_s on tiger_join";
const CORE_SETUP: &str = "setup_s on every workload";
const ROUTE: &str = "partition phase of pbsm_join_s on tiger_join";
const SEL_SCAN: &str = "select_scan_p50_ms on serve_mixed";
const SEL_INDEX: &str =
    "select_index_p50_us on serve_mixed (single-thread floor; the 2-client number adds contention)";
const SHARD: &str = "shard_pbsm_join_s, shard_inl_join_s on shard_scatter: the slowest shard sets the time, so skew and replica work bound the speed-up";
const DATAGEN: &str = "setup_s only";
const OBS: &str = "every metric a little (instrumentation is unconditional today); prices what an obs-off build could save";
const SANITY: &str =
    "sanity only: overhead <= 2 %; calibration flags a different or throttled host";

/// The per-layer metrics of the traced run. The layer is the first
/// segment of the name: `geom`, `storage`, `rtree`, `core` (package
/// `pbsm-join`), `datagen`, `obs`; `bench` and `host` describe the
/// harness itself.
pub const PER_LAYER: [PerLayer; 79] = [
    layer("geom.sort_by_xl.ns_per_rect", "ns", Lower, SWEEP),
    layer("geom.sweep_join.ns_per_rect", "ns", Lower, SWEEP),
    layer("geom.sweep_join.comparisons_per_hit", "ratio", Lower, SWEEP),
    layer(
        "geom.evaluate_intersects.ns_per_pair",
        "ns",
        Lower,
        EVAL_TIGER,
    ),
    layer(
        "geom.evaluate.accept_ratio.tiger",
        "ratio",
        Higher,
        EVAL_TIGER,
    ),
    layer(
        "geom.evaluate_contains.ns_per_pair",
        "ns",
        Lower,
        EVAL_SEQUOIA,
    ),
    layer(
        "geom.evaluate.accept_ratio.sequoia",
        "ratio",
        Higher,
        EVAL_SEQUOIA,
    ),
    layer("geom.hilbert_of_rect.ns_per_key", "ns", Lower, HILBERT),
    layer("storage.pool.get_hit.ns_per_op", "ns", Lower, POOL_HIT),
    layer("storage.pool.get_hit_2t.ns_per_op", "ns", Lower, POOL_HIT),
    layer("storage.pool.get_miss.ns_per_op", "ns", Lower, POOL_MISS),
    layer(
        "storage.pool.new_page_evict.ns_per_page",
        "ns",
        Lower,
        POOL_MISS,
    ),
    layer("storage.pool.flush_all.ns_per_page", "ns", Lower, POOL_MISS),
    layer("storage.heap.insert.ns_per_tuple", "ns", Lower, HEAP_INSERT),
    layer("storage.heap.scan.ns_per_tuple", "ns", Lower, HEAP_SCAN),
    layer("storage.heap.fetch.ns_per_tuple", "ns", Lower, HEAP_FETCH),
    layer("storage.record.write.ns_per_rec", "ns", Lower, RECORD),
    layer("storage.record.read.ns_per_rec", "ns", Lower, RECORD),
    layer("storage.extsort.ns_per_rec", "ns", Lower, EXTSORT),
    layer("storage.extsort.runs", "count", Lower, EXTSORT),
    layer("storage.join.pbsm.pool_hit_rate", "ratio", Higher, JOIN_IO),
    layer("storage.join.pbsm.pool_evictions", "count", Lower, JOIN_IO),
    layer("storage.join.pbsm.disk_reads", "count", Lower, JOIN_IO),
    layer("storage.join.pbsm.disk_writes", "count", Lower, JOIN_IO),
    layer("storage.join.pbsm.disk_seeks", "count", Lower, JOIN_IO),
    layer("storage.join.pbsm.modeled_io_s", "s", Lower, JOIN_IO),
    layer("storage.join.rtree.pool_hit_rate", "ratio", Higher, JOIN_IO),
    layer("storage.join.rtree.pool_evictions", "count", Lower, JOIN_IO),
    layer("storage.join.rtree.disk_reads", "count", Lower, JOIN_IO),
    layer("storage.join.rtree.disk_writes", "count", Lower, JOIN_IO),
    layer("storage.join.rtree.disk_seeks", "count", Lower, JOIN_IO),
    layer("storage.join.rtree.modeled_io_s", "s", Lower, JOIN_IO),
    layer("storage.join.inl.pool_hit_rate", "ratio", Higher, JOIN_IO),
    layer("storage.join.inl.pool_evictions", "count", Lower, JOIN_IO),
    layer("storage.join.inl.disk_reads", "count", Lower, JOIN_IO),
    layer("storage.join.inl.disk_writes", "count", Lower, JOIN_IO),
    layer("storage.join.inl.disk_seeks", "count", Lower, JOIN_IO),
    layer("storage.join.inl.modeled_io_s", "s", Lower, JOIN_IO),
    layer(
        "storage.serve.pool_hits_per_query",
        "count",
        Lower,
        SERVE_POOL,
    ),
    layer("storage.serve.pool_hit_rate", "ratio", Higher, SERVE_POOL),
    layer("storage.journal.overhead_pct", "%", Lower, JOURNAL),
    layer("rtree.bulk_load.ns_per_entry", "ns", Lower, BULK),
    layer("rtree.pages_per_kentry", "pages", Lower, BULK),
    layer("rtree.height", "levels", Lower, BULK),
    layer("rtree.insert.ns_per_entry", "ns", Lower, RT_INSERT),
    layer("rtree.window_query.ns_per_query", "ns", Lower, RT_QUERY),
    layer(
        "rtree.window_query.pins_per_query",
        "count",
        Lower,
        RT_QUERY,
    ),
    layer(
        "rtree.window_query.results_per_query",
        "count",
        Higher,
        RT_QUERY,
    ),
    layer("rtree.join.ns_per_candidate", "ns", Lower, RT_JOIN),
    layer("rtree.join.pins_per_candidate", "ratio", Lower, RT_JOIN),
    layer("core.pbsm.partition_s", "s", Lower, PHASE),
    layer("core.pbsm.merge_s", "s", Lower, PHASE),
    layer("core.pbsm.refine_s", "s", Lower, PHASE),
    layer("core.rtree.build_s", "s", Lower, PHASE),
    layer("core.rtree.join_indices_s", "s", Lower, PHASE),
    layer("core.rtree.refine_s", "s", Lower, PHASE),
    layer("core.inl.build_s", "s", Lower, PHASE),
    layer("core.inl.probe_s", "s", Lower, PHASE),
    layer("core.pbsm.partitions", "count", Lower, WASTE),
    layer("core.pbsm.replication_ratio", "ratio", Lower, WASTE),
    layer("core.pbsm.dup_ratio", "ratio", Lower, WASTE),
    layer("core.pbsm.candidates_per_result", "ratio", Lower, WASTE),
    layer("core.load_relation.ns_per_tuple", "ns", Lower, CORE_SETUP),
    layer("core.build_index.ns_per_tuple", "ns", Lower, CORE_SETUP),
    layer("core.tilegrid.route.ns_per_rect", "ns", Lower, ROUTE),
    layer("core.select_scan.ns_per_tuple", "ns", Lower, SEL_SCAN),
    layer("core.select_index.ns_per_result", "ns", Lower, SEL_INDEX),
    layer("core.shard.k1_pbsm_join_s", "s", Lower, SHARD),
    layer("core.shard.replication_ratio", "ratio", Lower, SHARD),
    layer("core.shard.emit_skew", "ratio", Lower, SHARD),
    layer("core.shard.raw_per_emitted", "ratio", Lower, SHARD),
    layer("core.shard.speedup_k2.pbsm", "ratio", Higher, SHARD),
    layer("core.shard.speedup_k2.inl", "ratio", Higher, SHARD),
    layer("datagen.tiger.ns_per_tuple", "ns", Lower, DATAGEN),
    layer("datagen.sequoia.ns_per_tuple", "ns", Lower, DATAGEN),
    layer("obs.span.ns_per_span", "ns", Lower, OBS),
    layer("obs.counter.ns_per_add", "ns", Lower, OBS),
    layer("bench.trace_overhead_pct", "%", Lower, SANITY),
    layer("host.calibration.ns_per_iter", "ns", Lower, SANITY),
];

/// The catalogue's own copy of a declared name. Metric names built at run
/// time go through here, so nothing undeclared can be reported.
pub fn declared(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"))
}

/// The middle sample (mean of the middle two for an even count); 0 for
/// an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Exact-sample quantile by nearest rank: the smallest sample with at
/// least `q` of the set at or below it.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the usual ladder that still has at least
/// ten samples beyond its nearest-rank sample in a set of `n`; `None`
/// where only the median can be reported.
pub fn highest_percentile(n: usize) -> Option<f64> {
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|permille| n - (n * permille).div_ceil(1000) >= 10)
        .map(|permille| permille as f64 / 10.0)
}

/// One reported number with the samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub value: f64,
    pub n: usize,
    pub min: f64,
    pub max: f64,
}

impl Measured {
    /// A number that is not a statistic of several samples.
    pub fn single(value: f64) -> Self {
        Measured {
            value,
            n: 1,
            min: value,
            max: value,
        }
    }

    fn over(samples: &[f64], value: f64) -> Self {
        Measured {
            value,
            n: samples.len(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    pub fn median_of(samples: &[f64]) -> Self {
        Measured::over(samples, median(samples))
    }

    pub fn quantile_of(samples: &[f64], q: f64) -> Self {
        Measured::over(samples, quantile(samples, q))
    }
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, Measured>;

/// `name value unit n=<samples> min..max`, the line printed per metric.
pub fn render_line(name: &str, unit: &str, m: &Measured) -> String {
    format!("{name} {} {unit} n={} {}..{}", m.value, m.n, m.min, m.max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbsm_obs::Json;
    use std::collections::BTreeSet;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(160), Some(90.0));
        assert_eq!(highest_percentile(240), Some(95.0));
        assert_eq!(highest_percentile(999), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(4700), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    fn declared(doc: &Json, section: &str) -> Vec<(String, String, String)> {
        doc.get(section)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    /// The set of names the runner can print equals the set declared in
    /// `BENCHMARK.json`, with the same units, directions and bounds.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), ours);
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(bounds, END_TO_END.map(|m| m.bound));

        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(declared(&doc, "per_layer"), ours);

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let plans: Vec<(String, String)> = crate::workload::PLANS
            .iter()
            .map(|p| (p.name.to_string(), p.why.to_string()))
            .collect();
        assert_eq!(workloads, plans);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(crate::workload::NOMINAL_SECONDS as u64)
        );
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workload::PLANS.iter().map(|p| p.name))
            .collect();
        for n in &names {
            assert!(
                !n.is_empty()
                    && n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {n:?}"
            );
        }
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
