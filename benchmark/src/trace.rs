//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the engine, around every set-up step,
//! every end-to-end call and every probe call: name, layer, start and end
//! in nanoseconds since the run began, the span that caused it, and a
//! group id shared by the spans of one rep or one query. They are kept in
//! memory and written out once, when the run ends. A layer's self time is
//! its spans' duration minus the part their child spans cover.

use pbsm_obs::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// Shared by all spans of one rep or one query; 0 outside any.
    pub group: u64,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(String, f64)>,
}

/// A span that has started.
pub struct Open {
    id: u64,
    parent: u64,
    group: u64,
    layer: &'static str,
    name: String,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Hands out ids and timestamps. Finished spans go into a `Vec` the
/// caller owns, so client threads never share a lock with each other.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    // Relaxed: the counter only makes ids distinct, it publishes no data.
    next: AtomicU64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh id for a rep or a query.
    pub fn new_group(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span; `None` when tracing is off.
    pub fn open(&self, parent: u64, group: u64, layer: &'static str, name: &str) -> Option<Open> {
        self.on.then(|| Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            group,
            layer,
            name: name.to_string(),
            start_ns: self.now_ns(),
        })
    }

    /// Ends a span and stores it in `sink`.
    pub fn close(&self, open: Option<Open>, attrs: Vec<(String, f64)>, sink: &mut Vec<Span>) {
        if let Some(o) = open {
            sink.push(Span {
                id: o.id,
                parent: o.parent,
                group: o.group,
                layer: o.layer,
                name: o.name,
                start_ns: o.start_ns,
                end_ns: self.now_ns(),
                attrs,
            });
        }
    }
}

/// Self time of every span, by id: its duration minus the part of that
/// interval its direct children cover. Children of concurrent threads may
/// overlap each other, so their intervals are merged before subtracting.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Total self time per layer, in seconds.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer).or_default() += own[&s.id] as f64 / 1e9;
    }
    out
}

/// The trace document written to `benchmark/out/trace-<workload>.json`.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let own = self_times(spans);
    let rows = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("id".into(), Json::uint(s.id)),
                ("parent".into(), Json::uint(s.parent)),
                ("group".into(), Json::uint(s.group)),
                ("layer".into(), Json::Str(s.layer.into())),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_ns".into(), Json::uint(s.start_ns)),
                ("end_ns".into(), Json::uint(s.end_ns)),
                ("self_ns".into(), Json::uint(own[&s.id])),
                (
                    "attrs".into(),
                    Json::Obj(
                        s.attrs
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Num(*v)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::uint(seed)),
        ("spans".into(), Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            layer,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, 0, "bench", 0, 100),
            // Sequential children.
            span(2, 1, "core", 10, 30),
            span(3, 1, "storage", 40, 60),
            // A grandchild is charged to its parent, not to the root.
            span(4, 2, "geom", 12, 20),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 20 - 20);
        assert_eq!(own[&2], 20 - 8);
        assert_eq!(own[&3], 20);
        assert_eq!(own[&4], 8);
    }

    #[test]
    fn overlapping_children_are_merged_and_clipped() {
        let spans = [
            span(1, 0, "bench", 100, 200),
            // Two client threads overlapping on [120, 150).
            span(2, 1, "core", 110, 150),
            span(3, 1, "core", 120, 180),
            // Nested inside an already covered stretch.
            span(4, 1, "core", 130, 140),
            // Sticks out past the parent's end: only [190, 200) counts.
            span(5, 1, "core", 190, 230),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 70 - 10);
    }

    #[test]
    fn layer_totals_add_up_to_root_duration() {
        let spans = [
            span(1, 0, "bench", 0, 1_000_000_000),
            span(2, 1, "core", 0, 400_000_000),
            span(3, 2, "storage", 100_000_000, 200_000_000),
        ];
        let by_layer = layer_self_seconds(&spans);
        assert_eq!(by_layer["bench"], 0.6);
        assert_eq!(by_layer["core"], 0.3);
        assert_eq!(by_layer["storage"], 0.1);
        assert!((by_layer.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::new(false);
        let mut sink = Vec::new();
        let o = t.open(0, 0, "bench", "x");
        assert!(o.is_none());
        t.close(o, Vec::new(), &mut sink);
        assert!(sink.is_empty());

        let t = Tracer::new(true);
        let o = t.open(7, 9, "core", "join");
        t.close(o, vec![("pairs".into(), 3.0)], &mut sink);
        assert_eq!(sink.len(), 1);
        assert_eq!(
            (sink[0].parent, sink[0].group, sink[0].layer),
            (7, 9, "core")
        );
        assert!(sink[0].end_ns >= sink[0].start_ns);
    }
}
