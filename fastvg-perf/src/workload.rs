//! The three workloads and the request streams they send, generated
//! from the workload seed alone. The fleet only ever sees the request
//! documents; the ground truth each window answer is judged against is
//! computed here, from the device model, without rendering a diagram.
//!
//! Request `i` is derived from `(seed, i)` when it is sent, so a stream
//! never runs out however fast the fleet answers. Only the window's
//! items, with their ground truths, are built ahead of time.

use fastvg_core::report::Method;
use fastvg_wire::{mix64, Json};
use qd_dataset::generator::build_device;
use qd_dataset::{random_specs, zoo_specs, BenchmarkSpec, ZooScenario, DEFAULT_ZOO_SEED};
use qd_physics::device::PairGroundTruth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Never-seen devices, `method: fast`: a healthy `sim` cohort
    /// interleaved with hostile-zoo scenarios on their `hwsim` profiles.
    FastCold,
    /// Never-seen healthy devices on `sim`, `method: hough`.
    HoughCold,
    /// The 12 paper benchmarks x {fast, hough}, warmed in setup and
    /// replayed from the cache.
    HotReplay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::FastCold, Workload::HoughCold, Workload::HotReplay];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FastCold => "fast-cold",
            Workload::HoughCold => "hough-cold",
            Workload::HotReplay => "hot-replay",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every answer must come from the cache.
    pub fn hot(self) -> bool {
        self == Workload::HotReplay
    }

    /// Size of the deterministic window: the stream prefix that every
    /// run completes and that the instrument, correctness and digest
    /// numbers are computed over. Fast: the whole pinned zoo (108)
    /// interleaved with as many healthy devices. Hough: 200 devices, two
    /// more than whole 63/100/200 size cycles, so the seed's phase in
    /// the cycle shows in the instrument cost.
    /// Hot: ten rounds of the 24 keys plus one seeded extra key.
    pub fn default_window(self) -> usize {
        match self {
            Workload::FastCold => 2 * PINNED_ZOO,
            Workload::HoughCold => 200,
            Workload::HotReplay => 10 * HOT_KEYS + 1,
        }
    }
}

/// Scenarios in the pinned zoo (`default_zoo`: 9 per cell x 12 cells).
const PINNED_ZOO: usize = 108;

/// Scenarios per zoo chunk past the pinned zoo: one per cell.
const ZOO_CHUNK: usize = 12;

/// Healthy specs per generated chunk: two whole 63/100/200 size cycles,
/// so a device's size follows its position in the cohort.
const HEALTHY_CHUNK: usize = 6;

/// Distinct keys of the hot workload: 12 benchmarks x {fast, hough}.
const HOT_KEYS: usize = 24;

/// One request with its ground truth.
#[derive(Debug, Clone)]
pub struct Item {
    /// The `POST /extract?wait` body.
    pub body: String,
    /// The scenario it names.
    pub spec: BenchmarkSpec,
    /// The backend spec it is probed through.
    pub backend: String,
    /// The requested method.
    pub method: Method,
    /// Analytic ground truth of the device.
    pub truth: PairGroundTruth,
}

/// A workload's request stream.
#[derive(Debug)]
pub struct Stream {
    workload: Workload,
    seed: u64,
    /// Hot: the 24 keys. Cold: empty.
    keys: Vec<Item>,
    /// Fast-cold: the pinned zoo in a seeded order. Otherwise empty.
    pinned_zoo: Vec<ZooScenario>,
    /// Items of the window's requests, in stream order.
    window: Vec<Item>,
}

fn shuffle<T>(values: &mut [T], rng: &mut StdRng) {
    for i in (1..values.len()).rev() {
        values.swap(i, rng.random_range(0..=i));
    }
}

fn spec_body(spec: &BenchmarkSpec, backend: Option<&str>, method: Method) -> String {
    let mut body = Json::object()
        .field("method", method.wire_name())
        .field("spec", spec.to_json());
    if let Some(backend) = backend {
        body = body.field("backend", backend);
    }
    body.build().dump()
}

fn item(spec: BenchmarkSpec, backend: &str, method: Method, body: String) -> Result<Item, String> {
    let truth = build_device(&spec)
        .and_then(|device| device.ground_truth().map_err(Into::into))
        .map_err(|e| format!("spec {}: {e}", spec.index))?;
    Ok(Item {
        body,
        spec,
        backend: backend.to_string(),
        method,
        truth,
    })
}

impl Stream {
    /// Builds `workload`'s stream from `seed`, with the items of its
    /// first `window` requests.
    ///
    /// # Errors
    ///
    /// Returns a message when a window spec has no ground truth.
    pub fn new(workload: Workload, seed: u64, window: usize) -> Result<Stream, String> {
        let mut stream = Stream {
            workload,
            seed,
            keys: Vec::new(),
            pinned_zoo: Vec::new(),
            window: Vec::with_capacity(window),
        };
        match workload {
            Workload::FastCold => {
                // The pinned zoo in a seeded order fills the zoo half of
                // the window, so its three-way tally is the same on every
                // seed; seed-derived zoo chunks follow it.
                let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0x5eed_57ea));
                stream.pinned_zoo = zoo_specs(9, DEFAULT_ZOO_SEED);
                shuffle(&mut stream.pinned_zoo, &mut rng);
            }
            Workload::HoughCold => {}
            Workload::HotReplay => {
                for spec in qd_dataset::paper_specs() {
                    for method in [Method::FastExtraction, Method::HoughBaseline] {
                        let body = Json::object()
                            .field("benchmark", spec.index)
                            .field("method", method.wire_name())
                            .build()
                            .dump();
                        stream.keys.push(item(spec.clone(), "sim", method, body)?);
                    }
                }
            }
        }
        for i in 0..window {
            let next = match stream.cold(i) {
                Some((spec, backend)) => {
                    let body = spec_body(&spec, backend.as_deref(), stream.method(i));
                    item(
                        spec,
                        backend.as_deref().unwrap_or("sim"),
                        stream.method(i),
                        body,
                    )?
                }
                None => stream.keys[stream.key(i)].clone(),
            };
            stream.window.push(next);
        }
        Ok(stream)
    }

    /// The hot workload's keys (empty when cold).
    pub fn keys(&self) -> &[Item] {
        &self.keys
    }

    /// The window's items, in stream order.
    pub fn window(&self) -> &[Item] {
        &self.window
    }

    /// The method request `i` asks for.
    pub fn method(&self, i: usize) -> Method {
        match self.workload {
            Workload::FastCold => Method::FastExtraction,
            Workload::HoughCold => Method::HoughBaseline,
            Workload::HotReplay => self.keys[self.key(i)].method,
        }
    }

    /// The body of request `i`.
    pub fn body(&self, i: usize) -> Cow<'_, str> {
        if let Some(item) = self.window.get(i) {
            return Cow::Borrowed(&item.body);
        }
        match self.cold(i) {
            Some((spec, backend)) => {
                Cow::Owned(spec_body(&spec, backend.as_deref(), self.method(i)))
            }
            None => Cow::Borrowed(&self.keys[self.key(i)].body),
        }
    }

    /// The key hot request `i` replays: round `i / 24` is the 24 keys
    /// in an order seeded by the round.
    pub fn key(&self, i: usize) -> usize {
        let round = (i / HOT_KEYS) as u64;
        let mut rng = StdRng::seed_from_u64(mix64(mix64(self.seed ^ 0x5eed_57ea) ^ round));
        let mut order: [usize; HOT_KEYS] = std::array::from_fn(|k| k);
        shuffle(&mut order, &mut rng);
        order[i % HOT_KEYS]
    }

    /// The scenario and backend of cold request `i` (`None` when hot).
    fn cold(&self, i: usize) -> Option<(BenchmarkSpec, Option<String>)> {
        match self.workload {
            Workload::FastCold if i.is_multiple_of(2) => Some((self.healthy(i / 2, 0xfa57), None)),
            Workload::FastCold => {
                let scenario = self.zoo(i / 2);
                Some((scenario.spec, Some(scenario.backend)))
            }
            // The seed picks the cohort and its phase in the size cycle.
            Workload::HoughCold => Some((self.healthy(i + (self.seed % 3) as usize, 0x4009), None)),
            Workload::HotReplay => None,
        }
    }

    /// Device `n` of the seeded healthy cohort tagged `salt`.
    fn healthy(&self, n: usize, salt: u64) -> BenchmarkSpec {
        let chunk = (n / HEALTHY_CHUNK) as u64;
        random_specs(HEALTHY_CHUNK, mix64(mix64(self.seed ^ salt) ^ chunk))
            .swap_remove(n % HEALTHY_CHUNK)
    }

    /// Zoo scenario `z` of the fast-cold stream.
    fn zoo(&self, z: usize) -> ZooScenario {
        if let Some(pinned) = self.pinned_zoo.get(z) {
            return pinned.clone();
        }
        let chunk = ((z - PINNED_ZOO) / ZOO_CHUNK) as u64;
        zoo_specs(1, mix64(mix64(self.seed ^ 0x200) ^ chunk))
            .swap_remove((z - PINNED_ZOO) % ZOO_CHUNK)
    }
}
