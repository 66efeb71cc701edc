//! Deliberate fault injection for exercising the failure paths of the
//! service — the harness behind the chaos integration test.
//!
//! A [`FaultPlan`] is parsed from a spec string (the `SATURN_FAULTS`
//! environment variable for `saturn serve`, or [`ServerConfig::faults`] for
//! in-process tests) and consulted at two seams: job execution on the
//! executor thread, and HTTP request parsing on connection threads. With no
//! plan configured every hook is a no-op behind an `Option` check, so
//! production behavior is untouched.
//!
//! # Spec grammar
//!
//! Comma-separated directives:
//!
//! ```text
//! panic:<site>:<probability>     panic at the site (caught like real ones)
//! slow:<site>:<millis>[ms]       sleep before the site's work
//! cancel_race:<probability>      fire a job's own cancel token as it starts
//! disk_write_err:<probability>   fail a disk-tier spill write with an I/O
//!                                error (trips the circuit breaker)
//! disk_full:<probability>        fail a spill write as if the disk were
//!                                full (ENOSPC-alike; trips the breaker)
//! disk_corrupt:<probability>     flip one byte of a spill file as it is
//!                                written — the write "succeeds", the next
//!                                read detects and quarantines it
//! disk_slow:<millis>[ms]         sleep before each disk read or write
//! seed:<u64>                     reseed the deterministic RNG
//! ```
//!
//! Sites: `analyze`, `validate` (specific job kinds), `job` / `sweep` (any
//! job), `parse` (HTTP request parsing). Example:
//! `panic:analyze:0.1,slow:sweep:250ms,cancel_race:1`.
//!
//! Probabilities are evaluated on a deterministic splitmix64 sequence so a
//! given plan misbehaves the same way on every run.
//!
//! [`ServerConfig::faults`]: crate::ServerConfig::faults

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Where a fault directive applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Analyze sweep jobs.
    Analyze,
    /// Validation sweep jobs.
    Validate,
    /// Any job on the executor (matches `Analyze` and `Validate` too).
    Job,
    /// HTTP request parsing on a connection thread.
    Parse,
}

impl FaultSite {
    /// Whether a directive written for `self` fires at `actual`.
    fn covers(self, actual: FaultSite) -> bool {
        self == actual
            || (self == FaultSite::Job
                && matches!(actual, FaultSite::Analyze | FaultSite::Validate))
    }
}

fn parse_site(raw: &str) -> Result<FaultSite, String> {
    match raw {
        "analyze" => Ok(FaultSite::Analyze),
        "validate" => Ok(FaultSite::Validate),
        "job" | "sweep" => Ok(FaultSite::Job),
        "parse" => Ok(FaultSite::Parse),
        other => Err(format!(
            "unknown fault site `{other}` (expected analyze|validate|job|sweep|parse)"
        )),
    }
}

/// A parsed fault plan. All hooks are safe to call from any thread; the
/// probability stream is shared (and deterministic for a given seed).
#[derive(Debug)]
pub struct FaultPlan {
    panics: Vec<(FaultSite, f64)>,
    slows: Vec<(FaultSite, Duration)>,
    cancel_race: f64,
    disk_write_err: f64,
    disk_full: f64,
    disk_corrupt: f64,
    disk_slow: Duration,
    rng: AtomicU64,
}

impl FaultPlan {
    /// Parses a spec string (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            panics: Vec::new(),
            slows: Vec::new(),
            cancel_race: 0.0,
            disk_write_err: 0.0,
            disk_full: 0.0,
            disk_corrupt: 0.0,
            disk_slow: Duration::ZERO,
            rng: AtomicU64::new(0x5eed_1e55_c0ff_ee00),
        };
        for directive in spec.split(',').map(str::trim).filter(|d| !d.is_empty()) {
            let mut parts = directive.split(':');
            let kind = parts.next().unwrap_or_default();
            match kind {
                "panic" => {
                    let site = parse_site(parts.next().unwrap_or_default())?;
                    let prob = parse_probability(parts.next(), directive)?;
                    plan.panics.push((site, prob));
                }
                "slow" => {
                    let site = parse_site(parts.next().unwrap_or_default())?;
                    let pause = parse_millis(parts.next(), directive)?;
                    plan.slows.push((site, pause));
                }
                "cancel_race" => {
                    plan.cancel_race = parse_probability(parts.next(), directive)?;
                }
                "disk_write_err" => {
                    plan.disk_write_err = parse_probability(parts.next(), directive)?;
                }
                "disk_full" => {
                    plan.disk_full = parse_probability(parts.next(), directive)?;
                }
                "disk_corrupt" => {
                    plan.disk_corrupt = parse_probability(parts.next(), directive)?;
                }
                "disk_slow" => {
                    plan.disk_slow = parse_millis(parts.next(), directive)?;
                }
                "seed" => {
                    let seed: u64 = parts
                        .next()
                        .unwrap_or_default()
                        .parse()
                        .map_err(|_| format!("bad seed in `{directive}`"))?;
                    plan.rng = AtomicU64::new(seed);
                }
                other => {
                    return Err(format!(
                        "unknown fault directive `{other}` (expected \
                         panic|slow|cancel_race|disk_write_err|disk_full|disk_corrupt|disk_slow|seed)"
                    ));
                }
            }
            if parts.next().is_some() {
                return Err(format!("trailing fields in `{directive}`"));
            }
        }
        Ok(plan)
    }

    /// The plan named by `SATURN_FAULTS`, if the variable is set and
    /// non-empty.
    pub fn from_env() -> Option<Result<FaultPlan, String>> {
        std::env::var("SATURN_FAULTS")
            .ok()
            .filter(|spec| !spec.trim().is_empty())
            .map(|spec| Self::parse(&spec))
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty()
            && self.slows.is_empty()
            && self.cancel_race <= 0.0
            && self.disk_write_err <= 0.0
            && self.disk_full <= 0.0
            && self.disk_corrupt <= 0.0
            && self.disk_slow == Duration::ZERO
    }

    /// Draws the next deterministic uniform in `[0, 1)` and compares.
    fn chance(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // splitmix64 over a shared Weyl sequence
        let mut z = self
            .rng
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Sleeps if any `slow` directive covers `site`.
    pub fn maybe_slow(&self, site: FaultSite) {
        for &(s, pause) in &self.slows {
            if s.covers(site) {
                std::thread::sleep(pause);
            }
        }
    }

    /// Panics (to be caught exactly like an organic panic) if a `panic`
    /// directive covers `site` and its probability fires.
    pub fn maybe_panic(&self, site: FaultSite) {
        for &(s, p) in &self.panics {
            if s.covers(site) && self.chance(p) {
                panic!("injected fault at {site:?}");
            }
        }
    }

    /// Whether this job's own cancel token should fire as it starts.
    pub fn cancel_race(&self) -> bool {
        self.chance(self.cancel_race)
    }

    /// Whether a disk-tier spill write should fail with a generic I/O error.
    pub fn disk_write_err(&self) -> bool {
        self.chance(self.disk_write_err)
    }

    /// Whether a disk-tier spill write should fail as if the disk were full.
    pub fn disk_full(&self) -> bool {
        self.chance(self.disk_full)
    }

    /// Whether one byte of the spill file being written should be flipped.
    /// The write itself succeeds; the corruption is caught (and the entry
    /// quarantined) by checksum verification on the next read.
    pub fn disk_corrupt(&self) -> bool {
        self.chance(self.disk_corrupt)
    }

    /// Sleeps for the configured `disk_slow` pause, if any, before a disk
    /// read or write.
    pub fn maybe_disk_slow(&self) {
        if self.disk_slow > Duration::ZERO {
            std::thread::sleep(self.disk_slow);
        }
    }
}

fn parse_millis(raw: Option<&str>, directive: &str) -> Result<Duration, String> {
    let raw = raw.unwrap_or_default();
    let millis: u64 = raw
        .strip_suffix("ms")
        .unwrap_or(raw)
        .parse()
        .map_err(|_| format!("bad duration in `{directive}`"))?;
    Ok(Duration::from_millis(millis))
}

fn parse_probability(raw: Option<&str>, directive: &str) -> Result<f64, String> {
    let p: f64 = raw
        .unwrap_or_default()
        .parse()
        .map_err(|_| format!("bad probability in `{directive}`"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability out of [0, 1] in `{directive}`"));
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_example() {
        let plan =
            FaultPlan::parse("panic:analyze:0.1,slow:sweep:250ms,cancel_race:1").unwrap();
        assert_eq!(plan.panics, vec![(FaultSite::Analyze, 0.1)]);
        assert_eq!(plan.slows, vec![(FaultSite::Job, Duration::from_millis(250))]);
        assert!(plan.cancel_race());
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_spec_is_a_noop_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert!(!plan.cancel_race());
        plan.maybe_panic(FaultSite::Analyze); // must not panic
        plan.maybe_slow(FaultSite::Parse); // must not sleep
    }

    #[test]
    fn job_site_covers_specific_kinds_but_not_parse() {
        assert!(FaultSite::Job.covers(FaultSite::Analyze));
        assert!(FaultSite::Job.covers(FaultSite::Validate));
        assert!(FaultSite::Job.covers(FaultSite::Job));
        assert!(!FaultSite::Job.covers(FaultSite::Parse));
        assert!(!FaultSite::Analyze.covers(FaultSite::Validate));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(FaultPlan::parse("panic:nowhere:0.1").is_err());
        assert!(FaultPlan::parse("warp:analyze:1").is_err());
        assert!(FaultPlan::parse("slow:job:fast").is_err());
        assert!(FaultPlan::parse("panic:job:1.5").is_err());
        assert!(FaultPlan::parse("panic:job:0.5:extra").is_err());
        assert!(FaultPlan::parse("disk_write_err:1.5").is_err());
        assert!(FaultPlan::parse("disk_slow:soon").is_err());
        assert!(FaultPlan::parse("disk_corrupt:0.5:extra").is_err());
    }

    #[test]
    fn disk_directives_parse_and_fire() {
        let plan =
            FaultPlan::parse("disk_write_err:1,disk_full:1,disk_corrupt:1,disk_slow:1ms")
                .unwrap();
        assert!(!plan.is_empty());
        assert!(plan.disk_write_err());
        assert!(plan.disk_full());
        assert!(plan.disk_corrupt());
        plan.maybe_disk_slow(); // sleeps 1ms; must return
        let quiet = FaultPlan::parse("").unwrap();
        assert!(!quiet.disk_write_err());
        assert!(!quiet.disk_full());
        assert!(!quiet.disk_corrupt());
        quiet.maybe_disk_slow(); // no-op
        let slow_only = FaultPlan::parse("disk_slow:5ms").unwrap();
        assert!(!slow_only.is_empty());
    }

    #[test]
    fn executor_directives_parse_and_fire() {
        // the directives the executor consults around each job
        let plan = FaultPlan::parse("cancel_race:1,slow:job:1ms,panic:job:1").unwrap();
        assert!(!plan.is_empty());
        assert!(plan.cancel_race());
        plan.maybe_slow(FaultSite::Analyze); // sleeps 1ms; must return
        let fired = std::panic::catch_unwind(|| plan.maybe_panic(FaultSite::Validate));
        assert!(fired.is_err(), "panic:job covers every job kind");
        plan.maybe_panic(FaultSite::Parse); // not covered: must not panic
    }

    #[test]
    fn probabilities_are_deterministic_per_seed() {
        let draw = |seed: &str| -> Vec<bool> {
            let plan = FaultPlan::parse(&format!("seed:{seed},panic:job:0.5")).unwrap();
            (0..32).map(|_| plan.chance(0.5)).collect()
        };
        assert_eq!(draw("7"), draw("7"));
        assert_ne!(draw("7"), draw("8"));
    }

    #[test]
    fn probability_extremes_short_circuit() {
        let plan = FaultPlan::parse("cancel_race:0").unwrap();
        assert!(!plan.cancel_race());
        let always = FaultPlan::parse("cancel_race:1").unwrap();
        for _ in 0..16 {
            assert!(always.cancel_race());
        }
    }
}
