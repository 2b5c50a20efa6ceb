//! Property-based tests for the geometry kernel.
//!
//! Needs the external `proptest` crate: re-add it to [dev-dependencies]
//! and run with `--features proptest-tests`.
#![cfg(feature = "proptest-tests")]

use pbsm_geom::hilbert;
use pbsm_geom::interval_tree::{Interval, IntervalTree};
use pbsm_geom::sweep::{self, Tagged};
use pbsm_geom::{Point, Polyline, Rect};
use proptest::prelude::*;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0f64..100.0, 0.0f64..100.0, 0.0f64..10.0, 0.0f64..10.0)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

fn arb_tagged(n: usize) -> impl Strategy<Value = Vec<Tagged>> {
    prop::collection::vec(arb_rect(), 0..n).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, r)| (r, i as u32))
            .collect()
    })
}

fn arb_polyline() -> impl Strategy<Value = Polyline> {
    prop::collection::vec((0.0f64..20.0, 0.0f64..20.0), 2..10)
        .prop_map(|pts| Polyline::new(pts.into_iter().map(|(x, y)| Point::new(x, y)).collect()))
}

proptest! {
    #[test]
    fn rect_intersects_symmetric(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn rect_union_covers_both(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains(&a));
        prop_assert!(u.contains(&b));
    }

    #[test]
    fn rect_intersection_contained_in_both(a in arb_rect(), b in arb_rect()) {
        let i = a.intersection(&b);
        if !i.is_empty() {
            prop_assert!(a.contains(&i));
            prop_assert!(b.contains(&i));
            prop_assert!(a.intersects(&b));
        } else {
            prop_assert!(!a.intersects(&b));
        }
    }

    #[test]
    fn enlargement_nonnegative(a in arb_rect(), b in arb_rect()) {
        prop_assert!(a.enlargement(&b) >= 0.0);
    }

    /// Both plane-sweep formulations agree with the quadratic reference on
    /// arbitrary inputs — the core filter-step invariant.
    #[test]
    fn sweeps_match_nested_loop(rs in arb_tagged(40), ss in arb_tagged(40)) {
        let mut expected = Vec::new();
        sweep::nested_loop_join(&rs, &ss, |a, b| expected.push((a, b)));
        expected.sort_unstable();

        let mut rs_sorted = rs.clone();
        let mut ss_sorted = ss.clone();
        sweep::sort_by_xl(&mut rs_sorted);
        sweep::sort_by_xl(&mut ss_sorted);

        let mut got = Vec::new();
        sweep::sweep_join(&rs_sorted, &ss_sorted, |a, b| got.push((a, b)));
        got.sort_unstable();
        prop_assert_eq!(&got, &expected);

        let mut got_iv = Vec::new();
        sweep::sweep_join_interval(&rs_sorted, &ss_sorted, |a, b| got_iv.push((a, b)));
        got_iv.sort_unstable();
        prop_assert_eq!(&got_iv, &expected);
    }

    /// The sweep-based polyline intersection agrees with the naive test.
    #[test]
    fn polyline_sweep_matches_naive(a in arb_polyline(), b in arb_polyline()) {
        prop_assert_eq!(
            pbsm_geom::seg_sweep::polylines_intersect_sweep(&a, &b),
            a.intersects_naive(&b)
        );
    }

    #[test]
    fn hilbert_roundtrip(x in 0u32..65536, y in 0u32..65536) {
        let d = hilbert::xy_to_d(x, y);
        prop_assert_eq!(hilbert::d_to_xy(d), (x, y));
    }

    /// Interval tree stabbing matches a linear scan under interleaved
    /// inserts and removes.
    #[test]
    fn interval_tree_matches_scan(
        ivs in prop::collection::vec((0.0f64..100.0, 0.0f64..10.0), 1..60),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..20),
        query in (0.0f64..100.0, 0.0f64..20.0),
    ) {
        let mut tree = IntervalTree::new();
        let mut list: Vec<Interval> = Vec::new();
        for (id, (lo, w)) in ivs.iter().enumerate() {
            let iv = Interval { low: *lo, high: lo + w, id: id as u32 };
            tree.insert(iv);
            list.push(iv);
        }
        for idx in removals {
            if list.is_empty() { break; }
            let victim = list.remove(idx.index(list.len()));
            prop_assert!(tree.remove(victim.low, victim.id));
        }
        let (ql, qw) = query;
        let qh = ql + qw;
        let mut got = Vec::new();
        tree.stab(ql, qh, &mut got);
        got.sort_unstable();
        let mut want: Vec<u32> = list.iter()
            .filter(|i| i.low <= qh && ql <= i.high)
            .map(|i| i.id)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        prop_assert_eq!(tree.len(), list.len());
    }

    /// MBR of a polyline covers every vertex, and the MBR-filter never
    /// rejects a truly intersecting pair (no false negatives).
    #[test]
    fn mbr_filter_is_superset(a in arb_polyline(), b in arb_polyline()) {
        for p in a.points() {
            prop_assert!(a.mbr().contains_point(*p));
        }
        if a.intersects_naive(&b) {
            prop_assert!(a.mbr().intersects(&b.mbr()));
        }
    }
}
