//! Typed request parameters: one parser for every query knob the v1 API
//! accepts, replacing the per-endpoint hand-rolled `request.param` reads.
//!
//! Every endpoint taking query parameters funnels through
//! [`RequestParams::parse`], so a knob parses (and fails) identically on
//! `/v1/analyze`, `/v1/validate`, and the `/v1/streams` session routes.
//! Unknown parameters are ignored (clients may probe newer servers);
//! recognized parameters that fail to parse are a `400` with code
//! `bad_request` and a message naming the parameter and the raw value.
//!
//! | parameter | type | default | meaning |
//! |-----------|------|---------|---------|
//! | `points` | usize ≤ [`MAX_POINTS`] | 48 | geometric sweep grid size |
//! | `sample` | u32 | absent = exact | target-set sample size |
//! | `seed` | u64 | 1 | sampling seed (with `sample`) |
//! | `deadline_ms` | u64 | server default | end-to-end deadline, 0 = none |
//! | `tile` | usize | server default | sweep tile width, 0 = auto |
//! | `delta_min` | i64 | 1 | validation minimum delta |
//! | `weighted` | 0/1 | 1 | validation weighted transitions |
//! | `directed` | flag | off | parse the trace body as directed |
//! | `async` | flag | off | return `202` + job id instead of waiting |

use crate::http::Request;
use crate::ApiError;
use saturn_core::TargetSpec;
use saturn_linkstream::Directedness;
use std::time::Duration;

/// The largest `points` a request may ask for. The grid's `Δ` values are
/// collected before they are deduplicated, so an unbounded `points` lets
/// one query ask the connection thread for an arbitrarily large
/// allocation; every client in the repository asks for at most 48.
pub const MAX_POINTS: usize = 10_000;

/// Server-level fallbacks for the per-request execution knobs (from the
/// serve flags). Decoupled from the server context so the parser is unit-
/// testable without binding a socket.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParamDefaults {
    /// Default request deadline in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Default sweep tile width (0 = automatic).
    pub tile: usize,
}

/// Every query parameter of the v1 API, parsed and defaulted.
#[derive(Clone, Debug)]
pub struct RequestParams {
    /// `points`: geometric sweep grid size.
    pub points: usize,
    /// `sample`/`seed`: target spec (absent `sample` = exact).
    pub targets: TargetSpec,
    /// `deadline_ms` over the server default; `None` = unbounded.
    pub deadline: Option<Duration>,
    /// `tile` over the server default (0 = automatic).
    pub tile: usize,
    /// `delta_min` (validation sweeps).
    pub delta_min: i64,
    /// `weighted` (validation sweeps; default on).
    pub weighted: bool,
    /// `directed`: directedness of the trace body.
    pub directedness: Directedness,
    /// `async`: detach and answer `202` with a job id.
    pub async_job: bool,
}

impl RequestParams {
    /// Parses every recognized parameter of `request`, falling back to
    /// `defaults` for the server-level knobs. Any unparsable value is a
    /// `400` naming the parameter.
    pub fn parse(
        request: &Request,
        defaults: &ParamDefaults,
    ) -> Result<RequestParams, ApiError> {
        let deadline_ms = numeric(request, "deadline_ms", defaults.deadline_ms)?;
        // validated even when `sample` is absent: a garbled `seed` is a 400
        // like every other unparsable value, never silently ignored
        let seed = numeric(request, "seed", 1u64)?;
        let points = numeric(request, "points", 48usize)?;
        if points > MAX_POINTS {
            return Err(ApiError::new(
                400,
                format!("query parameter points={points}: above the maximum of {MAX_POINTS}"),
            ));
        }
        Ok(RequestParams {
            points,
            targets: match request.param("sample") {
                None => TargetSpec::All,
                Some(_) => TargetSpec::Sample { size: numeric(request, "sample", 0u32)?, seed },
            },
            deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            tile: numeric(request, "tile", defaults.tile)?,
            delta_min: numeric(request, "delta_min", 1i64)?,
            weighted: numeric::<u8>(request, "weighted", 1)? != 0,
            directedness: if request.flag("directed") {
                Directedness::Directed
            } else {
                Directedness::Undirected
            },
            async_job: request.flag("async"),
        })
    }
}

/// Parses a numeric query parameter, defaulting when absent.
pub fn numeric<T: std::str::FromStr>(
    request: &Request,
    key: &str,
    default: T,
) -> Result<T, ApiError>
where
    T::Err: std::fmt::Display,
{
    match request.param(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|e| ApiError::new(400, format!("query parameter {key}={raw}: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic request carrying only a query string.
    fn req(query: &[(&str, &str)]) -> Request {
        Request {
            method: "POST".into(),
            path: "/v1/analyze".into(),
            query: query.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            keep_alive: false,
            body: Vec::new(),
        }
    }

    fn parse(query: &[(&str, &str)]) -> Result<RequestParams, ApiError> {
        RequestParams::parse(&req(query), &ParamDefaults::default())
    }

    #[test]
    fn defaults_cover_an_empty_query() {
        let p = parse(&[]).unwrap();
        assert_eq!(p.points, 48);
        assert_eq!(p.targets, TargetSpec::All);
        assert_eq!(p.deadline, None);
        assert_eq!(p.tile, 0);
        assert_eq!(p.delta_min, 1);
        assert!(p.weighted);
        assert_eq!(p.directedness, Directedness::Undirected);
        assert!(!p.async_job);
    }

    #[test]
    fn server_defaults_flow_through() {
        let defaults = ParamDefaults { deadline_ms: 1500, tile: 8 };
        let p = RequestParams::parse(&req(&[]), &defaults).unwrap();
        assert_eq!(p.deadline, Some(Duration::from_millis(1500)));
        assert_eq!(p.tile, 8);
        // per-request values override every server default
        let p = RequestParams::parse(&req(&[("deadline_ms", "0"), ("tile", "2")]), &defaults)
            .unwrap();
        assert_eq!(p.deadline, None);
        assert_eq!(p.tile, 2);
    }

    #[test]
    fn explicit_values_parse() {
        let p = parse(&[
            ("points", "12"),
            ("sample", "64"),
            ("seed", "9"),
            ("deadline_ms", "250"),
            ("tile", "4"),
            ("delta_min", "5"),
            ("weighted", "0"),
            ("directed", "1"),
            ("async", "1"),
        ])
        .unwrap();
        assert_eq!(p.points, 12);
        assert_eq!(p.targets, TargetSpec::Sample { size: 64, seed: 9 });
        assert_eq!(p.deadline, Some(Duration::from_millis(250)));
        assert_eq!(p.tile, 4);
        assert_eq!(p.delta_min, 5);
        assert!(!p.weighted);
        assert_eq!(p.directedness, Directedness::Directed);
        assert!(p.async_job);
    }

    #[test]
    fn empty_sample_value_is_a_400() {
        // `?sample=` selects sampling but an empty value fails u32
        // parsing — a 400 naming the parameter, not a silent Sample{0}
        let e = parse(&[("sample", "")]).unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.message.contains("sample="));
    }

    #[test]
    fn every_numeric_parameter_rejects_garbage_with_400() {
        for key in ["points", "sample", "seed", "deadline_ms", "tile", "delta_min", "weighted"]
        {
            let e = parse(&[(key, "abc")]).unwrap_err();
            assert_eq!(e.status, 400, "{key}");
            assert_eq!(e.code, "bad_request", "{key}");
            assert!(!e.retryable, "{key}");
            assert!(
                e.message.contains(&format!("query parameter {key}=abc")),
                "{key}: {}",
                e.message
            );
        }
    }

    #[test]
    fn negative_and_overflow_values_are_400s() {
        assert_eq!(parse(&[("points", "-1")]).unwrap_err().status, 400);
        assert_eq!(parse(&[("deadline_ms", "-5")]).unwrap_err().status, 400);
        assert_eq!(parse(&[("weighted", "256")]).unwrap_err().status, 400);
        assert_eq!(parse(&[("seed", "99999999999999999999999")]).unwrap_err().status, 400);
        // i64 accepts negatives: delta_min=-3 parses (the sweep clamps it)
        assert_eq!(parse(&[("delta_min", "-3")]).unwrap().delta_min, -3);
    }

    #[test]
    fn points_above_the_maximum_are_400s() {
        assert_eq!(parse(&[("points", &MAX_POINTS.to_string())]).unwrap().points, MAX_POINTS);
        for raw in [(MAX_POINTS + 1).to_string(), "10000000000".to_string()] {
            let e = parse(&[("points", &raw)]).unwrap_err();
            assert_eq!((e.status, e.code), (400, "bad_request"), "points={raw}");
            assert!(
                e.message.contains(&format!("query parameter points={raw}")),
                "{}",
                e.message
            );
        }
    }

    #[test]
    fn flags_accept_their_historical_spellings() {
        for truthy in ["", "1", "true", "yes"] {
            assert!(parse(&[("async", truthy)]).unwrap().async_job, "async={truthy}");
            assert_eq!(
                parse(&[("directed", truthy)]).unwrap().directedness,
                Directedness::Directed,
                "directed={truthy}"
            );
        }
        assert!(!parse(&[("async", "0")]).unwrap().async_job);
        assert_eq!(parse(&[("directed", "0")]).unwrap().directedness, Directedness::Undirected);
    }

    #[test]
    fn weighted_only_disables_on_literal_zero() {
        assert!(parse(&[]).unwrap().weighted);
        assert!(parse(&[("weighted", "1")]).unwrap().weighted);
        assert!(!parse(&[("weighted", "0")]).unwrap().weighted);
        // a non-numeric value is a 400, not a silent "weighted"
        for raw in ["false", "banana"] {
            let e = parse(&[("weighted", raw)]).unwrap_err();
            assert_eq!((e.status, e.code), (400, "bad_request"), "weighted={raw}");
            assert!(
                e.message.contains(&format!("query parameter weighted={raw}")),
                "{}",
                e.message
            );
        }
    }

    #[test]
    fn last_value_wins_on_duplicates() {
        let p = parse(&[("points", "8"), ("points", "16")]).unwrap();
        assert_eq!(p.points, 16);
    }

    #[test]
    fn numeric_error_names_parameter_and_raw_value() {
        let e = numeric::<u64>(&req(&[("deadline_ms", "12x")]), "deadline_ms", 0).unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.message.starts_with("query parameter deadline_ms=12x:"), "{}", e.message);
    }
}
