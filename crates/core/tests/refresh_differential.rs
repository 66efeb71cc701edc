//! Differential test of session refresh reuse: the absorbed-append check
//! must reuse a scale exactly when the scale's timeline is unchanged.
//!
//! Seeded random pinned-period streams grow by random append batches —
//! repeats of old pairs, exact duplicates, new pairs, fresh labels, appends
//! into early windows, and (in every fifth stream) a fresh-label self-loop,
//! which interns a node without adding an event. Every refresh through one
//! `SweepCache` must be byte-identical to a scratch `try_run_on` of the same
//! events, and the reused scales must be exactly those whose
//! `Timeline::aggregated_from_view` is `==` before and after the append.

use saturn_core::parallel::WorkerPool;
use saturn_core::{OccupancyMethod, SweepCache, SweepControl, SweepGrid, TargetSpec};
use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder};
use saturn_trips::{EventView, Timeline};

/// A deterministic pseudo-random sequence (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }
}

const T_END: i64 = 999;
const KS: [u64; 9] = [999, 500, 200, 100, 50, 10, 5, 2, 1];

/// One random append batch on `b`, whose events so far are `events`.
fn append_batch(
    rng: &mut Rng,
    b: &mut LinkStreamBuilder,
    events: &mut Vec<(String, String, i64)>,
    nodes: u64,
    fresh: &str,
) {
    for _ in 0..1 + rng.next(4) {
        let event = match rng.next(5) {
            // an old pair again, a few ticks from one of its events
            0 => {
                let (u, v, t) = events[rng.next(events.len() as u64) as usize].clone();
                (u, v, (t + rng.next(7) as i64 - 3).clamp(0, T_END))
            }
            // an exact duplicate (dropped at build time)
            1 => events[rng.next(events.len() as u64) as usize].clone(),
            // any pair of old nodes, possibly new, in the early windows
            2 => (
                format!("n{}", rng.next(nodes)),
                format!("n{}", rng.next(nodes)),
                rng.next(50) as i64,
            ),
            // a fresh label
            3 => (fresh.to_string(), format!("n{}", rng.next(nodes)), rng.next(1000) as i64),
            // any pair anywhere
            _ => (
                format!("n{}", rng.next(nodes)),
                format!("n{}", rng.next(nodes)),
                rng.next(1000) as i64,
            ),
        };
        b.add(&event.0, &event.1, event.2);
        events.push(event);
    }
}

#[test]
fn refresh_reuses_exactly_the_unchanged_scales() {
    let mut pool = WorkerPool::new(2);
    let mut checked = (0usize, 0usize); // (scales compared, scales reused)
    for seed in 0..40u64 {
        let mut rng = Rng(seed);
        let nodes = 3 + rng.next(5);
        let directedness =
            if seed % 2 == 0 { Directedness::Undirected } else { Directedness::Directed };
        let targets =
            if seed % 3 == 0 { TargetSpec::Sample { size: 2, seed } } else { TargetSpec::All };
        let method = OccupancyMethod::new()
            .grid(SweepGrid::ExplicitK(KS.to_vec()))
            .targets(targets)
            .refine(0, 0);
        let mut b = LinkStreamBuilder::new(directedness);
        b.period(0, T_END);
        let mut events = Vec::new();
        for _ in 0..10 + rng.next(30) {
            let event = (
                format!("n{}", rng.next(nodes)),
                format!("n{}", rng.next(nodes)),
                rng.next(1000) as i64,
            );
            b.add(&event.0, &event.1, event.2);
            events.push(event);
        }
        let mut cache = SweepCache::new();
        let mut previous: Option<LinkStream> = None;
        for batch in 0..4 {
            if batch > 0 {
                append_batch(&mut rng, &mut b, &mut events, nodes, &format!("f{batch}"));
                if seed % 5 == 0 && batch == 2 {
                    b.add("z", "z", 10); // a fresh-label self-loop
                }
            }
            let Ok(stream) = b.snapshot() else { continue };
            let refreshed =
                method.try_refresh_on(&stream, &mut pool, &SweepControl::new(), &mut cache);
            let scratch = method.try_run_on(&stream, &mut pool, &SweepControl::new());
            assert_eq!(
                refreshed.unwrap().to_json(),
                scratch.unwrap().to_json(),
                "seed {seed} batch {batch}: refresh diverged from scratch"
            );

            let ks = SweepGrid::ExplicitK(KS.to_vec()).k_values(&stream, 1);
            let new_view = EventView::new(&stream);
            let (old_view, append) = match &previous {
                Some(old) => {
                    let old_view = EventView::new(old);
                    let append = new_view.append_since(&old_view);
                    (Some(old_view), append)
                }
                None => (None, None),
            };
            let mut unchanged = 0u64;
            for &k in &ks {
                let same = old_view.as_ref().is_some_and(|old| {
                    Timeline::aggregated_from_view(old, k)
                        == Timeline::aggregated_from_view(&new_view, k)
                });
                let absorbed = append.as_ref().is_some_and(|a| a.is_absorbed(k));
                assert_eq!(absorbed, same, "seed {seed} batch {batch} k={k}");
                unchanged += same as u64;
            }
            assert_eq!(cache.stats.scales_total, ks.len() as u64);
            assert_eq!(
                cache.stats.scales_reused, unchanged,
                "seed {seed} batch {batch}: reused scales must be the unchanged ones"
            );
            checked.0 += ks.len();
            checked.1 += unchanged as usize;
            previous = Some(stream);
        }
    }
    // the corpus exercises both outcomes
    assert!(checked.1 > 0 && checked.1 < checked.0, "{checked:?}");
}
