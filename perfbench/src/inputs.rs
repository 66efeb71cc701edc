//! Seeded workload inputs. The program under test only ever sees the
//! generated trace text.

use saturn_linkstream::io;
use saturn_synth::DatasetProfile;

/// The seed the pinned report digests were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// SplitMix64: a small deterministic generator for seeds and choices.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A seed for input number `index` of a run seeded with `seed`, so each
/// generated trace of a run is distinct and reproducible.
pub fn derive(seed: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0xd134_2543_de82_ef95)).next_u64()
}

/// The trace text of a dataset stand-in, as `saturn synth` writes it.
pub fn stand_in(profile: &DatasetProfile, factor: f64, seed: u64) -> String {
    io::to_string(&profile.scaled(factor).generate(seed))
}

/// One parsed event line of a trace text: `(line, timestamp)`.
pub fn event_lines(text: &str) -> Vec<(&str, i64)> {
    text.lines()
        .filter_map(|line| {
            let t = line.split_whitespace().last()?.parse().ok()?;
            Some((line, t))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let profile = DatasetProfile::irvine();
        let a = stand_in(&profile, 0.01, derive(7, 1));
        assert_eq!(a, stand_in(&profile, 0.01, derive(7, 1)));
        assert_ne!(a, stand_in(&profile, 0.01, derive(8, 1)));
        assert_ne!(derive(7, 1), derive(7, 2));
    }

    #[test]
    fn event_lines_skip_comments_and_keep_timestamps() {
        let text = "% header\na b 3\nb c 1 5\n";
        let lines = event_lines(text);
        assert_eq!(lines, vec![("a b 3", 3), ("b c 1 5", 5)]);
    }
}
