//! Golden report digests: the bytes of `OccupancyReport::to_json` are the
//! contract, and these pins catch any change that moves them.
//!
//! Every synthetic generator is analyzed at a small scale with an 8-point
//! geometric grid (default refinement), as a directed and as an undirected
//! stream, under all and sampled targets. A seeded three-batch append
//! sequence is also refreshed through one `SweepCache`, and each refresh's
//! report is pinned. The validation sweep (`/v1/validate`, `saturn
//! validate`) is pinned per generator and directedness on the same grid,
//! as the pretty JSON the service serves. A change that moves report bytes on purpose must
//! update these digests in the same commit and say why.

use saturn_core::fingerprint::{hex, Digest};
use saturn_core::parallel::WorkerPool;
use saturn_core::{
    validation_sweep_on, OccupancyMethod, SweepCache, SweepControl, SweepGrid, TargetSpec,
    ValidationOptions,
};
use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder};
use saturn_synth::{ContactModel, DatasetProfile, TimeUniform, TwoMode};

fn digest(json: &str) -> String {
    let mut d = Digest::new("saturn.golden-report.v1");
    d.write_str(json);
    hex(d.finish())
}

/// `stream` rebuilt with the given directedness, keeping labels and period.
fn as_directedness(stream: &LinkStream, directedness: Directedness) -> LinkStream {
    let mut b = LinkStreamBuilder::new(directedness);
    b.period(stream.t_begin(), stream.t_end());
    for l in stream.events() {
        b.add(stream.label(l.u), stream.label(l.v), l.t);
    }
    b.build().unwrap()
}

fn generators() -> Vec<(&'static str, LinkStream)> {
    let mut out = vec![
        (
            "time_uniform",
            TimeUniform { nodes: 8, links_per_pair: 3, span: 2_000, seed: 1 }.generate(),
        ),
        (
            "two_mode",
            TwoMode {
                nodes: 6,
                alternations: 4,
                span: 4_000,
                links_high: 3,
                links_low: 1,
                low_share: 0.5,
                seed: 5,
            }
            .generate(),
        ),
        (
            "contacts",
            ContactModel {
                nodes: 7,
                span: 20_000,
                contacts_per_pair: 3.0,
                mean_duration: 400.0,
                seed: 31,
            }
            .generate()
            .sample_periodic(200, 0)
            .unwrap(),
        ),
    ];
    for (name, factor) in
        [("irvine", 0.01), ("facebook", 0.005), ("enron", 0.05), ("manufacturing", 0.03)]
    {
        let profile = DatasetProfile::all().into_iter().find(|p| p.name == name).unwrap();
        out.push((name, profile.scaled(factor).generate(7)));
    }
    out
}

const SAMPLED: TargetSpec = TargetSpec::Sample { size: 4, seed: 3 };

fn method(targets: TargetSpec) -> OccupancyMethod {
    OccupancyMethod::new().grid(SweepGrid::Geometric { points: 8 }).targets(targets).threads(2)
}

/// `(case, digest)` pins of the scratch analyses.
const SCRATCH: &[(&str, &str)] = &[
    ("time_uniform/d/all", "7e0765b1c7a79292a651bf1fae5a630b"),
    ("time_uniform/d/sampled", "ad50909dec7818d22c9ef4aa7b44e3c9"),
    ("time_uniform/u/all", "e66dc9f42af27f94f78eaf6f502896d1"),
    ("time_uniform/u/sampled", "c11f07819e24eca0d45f27374074f040"),
    ("two_mode/d/all", "871864efcb81003285ff0c1f45671b94"),
    ("two_mode/d/sampled", "706a2cfac61705a0b6b8e9eddcf87d8e"),
    ("two_mode/u/all", "02068285180e75a7663591384b4d4b4e"),
    ("two_mode/u/sampled", "fad7fccfe87f1a327016cde540249110"),
    ("contacts/d/all", "be15cfa8aa29220e9db6593c01326fc1"),
    ("contacts/d/sampled", "dcca4cf81b0870b4707cd33d9cc73951"),
    ("contacts/u/all", "609e39e666eca177bf0248e1e25f9695"),
    ("contacts/u/sampled", "31af33efab656a8a548cfc1547c8d77a"),
    ("irvine/d/all", "efd32ef583c56a0890913f4a8c0d05bd"),
    ("irvine/d/sampled", "9a48cb3689c9ca42820cda8eafb64190"),
    ("irvine/u/all", "2fb5ae2aad9100bcfd73cc461452ed97"),
    ("irvine/u/sampled", "730283438d1840c33d9cb254f8a74fed"),
    ("facebook/d/all", "c63180b65e0d4087c4c8f1b43b6857dd"),
    ("facebook/d/sampled", "9768fe0ce3d35cd7b29ecdeec3b50e72"),
    ("facebook/u/all", "994ad62747931c88b31212505a2f50c5"),
    ("facebook/u/sampled", "91c802cc8f5d2f6716ebc9e2947ebd50"),
    ("enron/d/all", "beb0c68206db43f7aa3ef9450102d3ae"),
    ("enron/d/sampled", "c8597b96d674c660352c80894e78681d"),
    ("enron/u/all", "6fe5e81b00533aa43a6357528b36faf5"),
    ("enron/u/sampled", "2bd72046b936e9ca3a33266f45fb8182"),
    ("manufacturing/d/all", "6dc9ec5213ed10c70a25ab73f6ef403c"),
    ("manufacturing/d/sampled", "92bbde038e1cacd1ce855d91601cbefa"),
    ("manufacturing/u/all", "3c4728a023368e35b5f045cf0d429ba2"),
    ("manufacturing/u/sampled", "2d5d801425a5d72f344f8f07309ebf6d"),
];

/// `(case, digest)` pins of the validation sweeps.
const VALIDATE: &[(&str, &str)] = &[
    ("time_uniform/d", "6f0b6d2f7825c6f442454a6132a24ec0"),
    ("time_uniform/u", "94633c4db1343aacccbf1f72f274de49"),
    ("two_mode/d", "4407b4c1651de30cbc47b8e1e267ca32"),
    ("two_mode/u", "299d4d769b7f8f384d064210fc4c0b88"),
    ("contacts/d", "b01fd975c2b963feaf77450e60833f2d"),
    ("contacts/u", "bdc9005c06ec0679ba674163e6ec0318"),
    ("irvine/d", "178bd4edd21a94d7de95c4f5338e7c4c"),
    ("irvine/u", "dc3685bd4f288164cf4db3efe1480e48"),
    ("facebook/d", "1506dd151e5568b07c6a207af59790b0"),
    ("facebook/u", "683f46415d8445ff898c6da64f28bbe8"),
    ("enron/d", "f36389fda923aa5758a6716b057fbe6f"),
    ("enron/u", "0114beafed47048787446ebe11b969ca"),
    ("manufacturing/d", "c9f308dedf5d9042e226681a5c852e82"),
    ("manufacturing/u", "74b7a78105e3c4c6d07629517a67ee98"),
];

/// `(case, digest)` pins of the refreshes of the append sequence.
const REFRESH: &[(&str, &str)] = &[
    ("append/all/0", "fa5169691928b9c963ebe89c7729bdca"),
    ("append/all/1", "50afc516da669b3ed23e8b1772de88a1"),
    ("append/all/2", "e4247ec8f82e9831fe41e390e1a93377"),
    ("append/all/3", "4cbb50d13cfec1800b032fc1a2484f57"),
    ("append/sampled/0", "e88bdf412f5336bd8a91a916f78838f4"),
    ("append/sampled/1", "9e608c25a8690e5b4096deb4c3df5979"),
    ("append/sampled/2", "1e99c35583d9b89f69666bad4b79550f"),
    ("append/sampled/3", "f4a3ac2e8cf83a631e4ea0a458041564"),
];

fn check(pins: &[(&str, &str)], got: &[(String, String)]) {
    let mismatches: Vec<String> = got
        .iter()
        .filter(|(case, d)| pins.iter().find(|(c, _)| c == case).map(|&(_, p)| p) != Some(d))
        .map(|(case, d)| format!("    (\"{case}\", \"{d}\"),"))
        .collect();
    assert_eq!(pins.len(), got.len(), "pin count; computed:\n{}", mismatches.join("\n"));
    assert!(mismatches.is_empty(), "report bytes moved; computed:\n{}", mismatches.join("\n"));
}

#[test]
fn scratch_reports_match_their_pins() {
    let mut pool = WorkerPool::new(2);
    let mut got = Vec::new();
    for (name, stream) in generators() {
        for (dir, directedness) in
            [("d", Directedness::Directed), ("u", Directedness::Undirected)]
        {
            let stream = as_directedness(&stream, directedness);
            for (tgt, targets) in [("all", TargetSpec::All), ("sampled", SAMPLED)] {
                let json = method(targets).run_on(&stream, &mut pool).to_json();
                got.push((format!("{name}/{dir}/{tgt}"), digest(&json)));
            }
        }
    }
    check(SCRATCH, &got);
}

#[test]
fn validation_reports_match_their_pins() {
    let mut pool = WorkerPool::new(2);
    let grid = SweepGrid::Geometric { points: 8 };
    let options = ValidationOptions::default();
    let mut got = Vec::new();
    for (name, stream) in generators() {
        for (dir, directedness) in
            [("d", Directedness::Directed), ("u", Directedness::Undirected)]
        {
            let stream = as_directedness(&stream, directedness);
            let report =
                validation_sweep_on(&stream, &grid, TargetSpec::All, &options, &mut pool);
            let json = serde_json::to_string_pretty(&report).unwrap();
            got.push((format!("{name}/{dir}"), digest(&json)));
        }
    }
    check(VALIDATE, &got);
}

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

#[test]
fn refreshed_append_sequence_matches_its_pins() {
    let mut pool = WorkerPool::new(2);
    let mut got = Vec::new();
    for (tgt, targets) in [("all", TargetSpec::All), ("sampled", SAMPLED)] {
        let method = method(targets);
        let mut rng = Rng(11);
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.period(0, 3_000);
        for _ in 0..60 {
            let (u, v) = (rng.next(7), rng.next(7));
            b.add(&format!("n{u}"), &format!("n{v}"), rng.next(3_001) as i64);
        }
        let mut cache = SweepCache::new();
        for batch in 0..4 {
            if batch > 0 {
                // a fresh label per batch, events anywhere in the period
                for _ in 0..12 {
                    let u = format!("n{}", rng.next(7 + batch));
                    let v = format!("n{}", rng.next(7 + batch));
                    b.add(&u, &v, rng.next(3_001) as i64);
                }
            }
            let stream = b.snapshot().unwrap();
            let report = method
                .try_refresh_on(&stream, &mut pool, &SweepControl::new(), &mut cache)
                .unwrap();
            got.push((format!("append/{tgt}/{batch}"), digest(&report.to_json())));
        }
    }
    check(REFRESH, &got);
}
