//! `--selfcheck`: everything the answer checks compare against each
//! other is compared here, at scale 0.05, against a brute-force nested
//! loop over the in-memory tuples with `geom::predicates::evaluate`.

use crate::engine::{self, Algo, Db, Family, Oid, Pair, Rect, Res, SpatialPredicate, SpatialTuple};
use crate::workload::{query_list, Kind, SERVE_RELATIONS};
use std::collections::BTreeMap;

const SCALE: f64 = 0.05;
const POOL: usize = 1 << 20;
/// Covers the universe with room for the jitter.
const EVERYTHING: Rect = Rect {
    xl: -1.0,
    yl: -1.0,
    xu: 101.0,
    yu: 101.0,
};

/// All `(left key, right key)` pairs satisfying the family's predicate.
fn brute_join(family: Family, pair: &Pair) -> Vec<(u64, u64)> {
    let right_mbrs: Vec<Rect> = pair.right.iter().map(|r| r.geom.mbr()).collect();
    let mut out = Vec::new();
    for l in &pair.left {
        let lm = l.geom.mbr();
        for (r, rm) in pair.right.iter().zip(&right_mbrs) {
            if lm.intersects(rm) && engine::holds(family.predicate(), &l.geom, &r.geom) {
                out.push((l.key, r.key));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Keys of the tuples whose exact geometry intersects `window`.
fn brute_select(tuples: &[SpatialTuple], window: &Rect) -> Vec<u64> {
    let geom = engine::window_geometry(window);
    let mut out: Vec<u64> = tuples
        .iter()
        .filter(|t| {
            window.intersects(&t.geom.mbr())
                && engine::holds(SpatialPredicate::Intersects, &geom, &t.geom)
        })
        .map(|t| t.key)
        .collect();
    out.sort_unstable();
    out
}

/// OID → key of one loaded relation. Heap OIDs sort in load order, so the
/// i-th OID of a scan that selects everything is the i-th tuple loaded.
fn keys_by_oid(db: &Db, relation: &str, tuples: &[SpatialTuple]) -> Res<BTreeMap<Oid, u64>> {
    let oids = engine::select(db, false, relation, &EVERYTHING)?;
    if oids.len() != tuples.len() {
        return Err(format!(
            "{relation}: scan returned {} of {} tuples",
            oids.len(),
            tuples.len()
        ));
    }
    Ok(oids.into_iter().zip(tuples.iter().map(|t| t.key)).collect())
}

/// One cold join on a fresh engine, as key pairs.
fn keyed_join(family: Family, pair: &Pair, algo: Algo, journal: bool) -> Res<Vec<(u64, u64)>> {
    let db = engine::new_db(POOL, journal);
    engine::load_cold(&db, family, pair)?;
    let (l, r) = family.relations();
    let (lk, rk) = (
        keys_by_oid(&db, l, &pair.left)?,
        keys_by_oid(&db, r, &pair.right)?,
    );
    let out = engine::join(&db, algo, family)?;
    let mut keyed: Vec<(u64, u64)> = out.pairs.iter().map(|(a, b)| (lk[a], rk[b])).collect();
    keyed.sort_unstable();
    engine::drain_obs();
    Ok(keyed)
}

struct Tally {
    checks: u32,
    failed: u32,
}

impl Tally {
    fn expect<T: PartialEq>(&mut self, what: &str, got: Res<T>, want: &T) {
        self.checks += 1;
        match got {
            Ok(got) if got == *want => {}
            Ok(_) => {
                self.failed += 1;
                println!("selfcheck FAILED {what}: answer differs from brute force");
            }
            Err(e) => {
                self.failed += 1;
                println!("selfcheck FAILED {what}: {e}");
            }
        }
    }
}

fn check_selects(tally: &mut Tally, seed: u64, data: &[Pair]) -> Res<()> {
    let relations: Vec<&Vec<SpatialTuple>> =
        data.iter().flat_map(|p| [&p.left, &p.right]).collect();
    let db = engine::new_db(64 << 20, false);
    let mut keys = Vec::new();
    for (name, tuples) in SERVE_RELATIONS.iter().zip(&relations) {
        engine::load(&db, name, tuples, true)?;
        keys.push(keys_by_oid(&db, name, tuples)?);
    }
    for q in query_list(seed, 0, 1, Family::Tiger) {
        let by_index = match q.kind {
            Kind::SelectIndex => true,
            Kind::SelectScan => false,
            _ => continue,
        };
        let name = SERVE_RELATIONS[q.relation];
        let got = engine::select(&db, by_index, name, &q.window).map(|oids| {
            let mut k: Vec<u64> = oids.iter().map(|o| keys[q.relation][o]).collect();
            k.sort_unstable();
            k
        });
        let want = brute_select(relations[q.relation], &q.window);
        tally.expect(&format!("{:?} on {name}", q.kind), got, &want);
    }
    engine::drain_obs();
    Ok(())
}

/// Runs the self-check; true when every answer matched.
pub fn run(seed: u64) -> bool {
    let mut tally = Tally {
        checks: 0,
        failed: 0,
    };
    let families = [Family::Tiger, Family::Sequoia];
    let data: Vec<Pair> = families
        .iter()
        .map(|f| engine::generate(*f, SCALE, seed))
        .collect();
    for (family, pair) in families.into_iter().zip(&data) {
        let want = brute_join(family, pair);
        println!(
            "selfcheck {family:?}: {} x {} tuples, {} result pairs by brute force",
            pair.left.len(),
            pair.right.len(),
            want.len()
        );
        for (algo, journal) in [
            (Algo::Pbsm, false),
            (Algo::Rtree, false),
            (Algo::Inl, false),
            (Algo::Pbsm, true),
        ] {
            let what = format!("{family:?} {} journal={journal}", algo.key());
            tally.expect(&what, keyed_join(family, pair, algo, journal), &want);
        }
        for k in [1, 2] {
            for algo in [Algo::Pbsm, Algo::Inl, Algo::Rtree] {
                let got = engine::sharded(k, POOL, family, pair)
                    .and_then(|mut sdb| engine::shard_join(&mut sdb, algo, family, POOL))
                    .map(|out| out.pairs);
                tally.expect(
                    &format!("{family:?} sharded K={k} {}", algo.key()),
                    got,
                    &want,
                );
                engine::drain_obs();
            }
        }
    }
    if let Err(e) = check_selects(&mut tally, seed, &data) {
        tally.failed += 1;
        println!("selfcheck FAILED selections: {e}");
    }
    println!(
        "selfcheck: {} checks, {} failed",
        tally.checks, tally.failed
    );
    tally.failed == 0
}
