//! # saturn — saturation-scale analysis of link streams
//!
//! A complete Rust implementation of *Non-Altering Time Scales for
//! Aggregation of Dynamic Networks into Series of Graphs* (Yannick Léo,
//! Christophe Crespelle, Eric Fleury — CoNEXT 2015; full version
//! arXiv:1805.06188).
//!
//! Many dynamic networks are *link streams*: finite collections of triplets
//! `(u, v, t)`. Analyses usually start by aggregating the stream into a
//! series of graphs over windows of length `Δ` — but how large can `Δ` be
//! before the series stops faithfully describing the stream? This library
//! computes the answer: the **saturation scale γ**, beyond which the
//! propagation properties (temporal paths, transitions, reachability delays)
//! of the series are demonstrably altered.
//!
//! ## Crates / modules
//!
//! This facade re-exports the workspace crates as modules:
//!
//! * [`linkstream`] — the stream data model, windows, parsing;
//! * [`graphseries`] — aggregation into snapshot series and classical
//!   per-snapshot statistics;
//! * [`trips`] — temporal paths, minimal trips, occupancy rates, the
//!   `O(nM)` backward dynamic program;
//! * [`distrib`] — distributions on `[0, 1]`, Monge–Kantorovich distance,
//!   entropies;
//! * [`core`] — the occupancy method: sweeps, γ detection, validation;
//! * [`synth`] — synthetic generators (time-uniform, two-mode, dataset
//!   stand-ins).
//!
//! ## Quickstart
//!
//! ```
//! use saturn::prelude::*;
//!
//! // Build a stream (or parse one with saturn::linkstream::io).
//! let mut b = LinkStreamBuilder::new(Directedness::Undirected);
//! for i in 0..200i64 {
//!     let names = ["a", "b", "c", "d", "e"];
//!     b.add(names[(i % 5) as usize], names[((i + 1) % 5) as usize], i * 50);
//! }
//! let stream = b.build().unwrap();
//!
//! // Run the occupancy method.
//! let report = OccupancyMethod::new()
//!     .grid(SweepGrid::Geometric { points: 24 })
//!     .run(&stream);
//! let gamma = report.gamma().expect("well-formed stream");
//! println!("saturation scale: {} ticks", gamma.delta_ticks);
//! ```

pub use saturn_core as core;
pub use saturn_distrib as distrib;
pub use saturn_graphseries as graphseries;
pub use saturn_linkstream as linkstream;
pub use saturn_synth as synth;
pub use saturn_trips as trips;

/// The most common imports, for `use saturn::prelude::*`.
pub mod prelude {
    pub use saturn_core::{
        classic_sweep, compare_selection_methods, validation_sweep, GammaResult, KeepPolicy,
        OccupancyMethod, OccupancyReport, SweepGrid, TargetSpec,
    };
    pub use saturn_distrib::{SelectionMetric, WeightedDist};
    pub use saturn_graphseries::{GraphSeries, Snapshot};
    pub use saturn_linkstream::{
        Directedness, Link, LinkStream, LinkStreamBuilder, NodeId, Time, WindowPartition,
    };
    pub use saturn_synth::{DatasetProfile, TimeUniform, TwoMode};
    pub use saturn_trips::{occupancy_histogram_on, stream_minimal_trips, TargetSet, Timeline};
}
