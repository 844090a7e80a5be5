//! Tier-1 multiplexed-instrument coverage: `multiplexed:1+sim` is a
//! bit-identical drop-in for `sim` through the concurrent batch path,
//! equi-difference schedules are collision-free for every session count
//! the pool admits, and the scheduling policy can never leak into
//! extraction bytes — only into wall/dwell accounting.

use fastvg::instrument::mux::probe_slot;
use fastvg::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Everything a backend is allowed to influence *except* timing: if two
/// runs agree on this struct they produced the same physics, probe for
/// probe, bit for bit. Failures fingerprint as their category plus the
/// probe trail leading up to them.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    outcome: Result<ReportBits, ErrorCategory>,
    scatter: Vec<(i64, i64)>,
}

#[derive(Debug, Clone, PartialEq)]
struct ReportBits {
    slope_h: u64,
    slope_v: u64,
    matrix: VirtualizationMatrix,
    probes: usize,
    unique_pixels: usize,
    coverage: u64,
    simulated_dwell: std::time::Duration,
    stage_probes: Vec<(Stage, usize)>,
}

impl ReportBits {
    fn of(report: &ExtractionReport) -> Self {
        ReportBits {
            slope_h: report.slope_h.to_bits(),
            slope_v: report.slope_v.to_bits(),
            matrix: report.matrix,
            probes: report.probes,
            unique_pixels: report.unique_pixels,
            coverage: report.coverage.to_bits(),
            simulated_dwell: report.simulated_dwell,
            stage_probes: report.stages.iter().map(|s| (s.stage, s.probes)).collect(),
        }
    }
}

/// One full extraction on `spec`, scatter included.
fn extract_on(spec: &str, bench: &GeneratedBenchmark) -> Fingerprint {
    let backend = BackendRegistry::standard()
        .resolve(spec)
        .unwrap_or_else(|e| panic!("{spec} must resolve: {e}"));
    let scenario = SourceScenario::new(bench.csd.clone())
        .with_label(format!("bench{:02}", bench.spec.index))
        .with_seed(bench.spec.seed);
    let mut session = backend.session(scenario).expect("backend opens");
    let outcome = extract_with(&FastExtractor::new(), &mut session);
    Fingerprint {
        outcome: outcome
            .as_ref()
            .map(ReportBits::of)
            .map_err(|e| e.category()),
        scatter: session.scatter(),
    }
}

/// The unmultiplexed reference fingerprint for one paper benchmark,
/// computed once per process.
fn sim_reference(index: usize) -> Fingerprint {
    static CACHE: OnceLock<Mutex<HashMap<usize, Fingerprint>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().unwrap();
    cache
        .entry(index)
        .or_insert_with(|| extract_on("sim", &paper_benchmark(index).expect("paper benchmark")))
        .clone()
}

/// The `policy=ed` config of `channels` channels, `cap=capacity` and
/// `w=weight` whose generator is the first one at or after
/// `raw_generator` (counting round the frame `w·cap`) that the spec
/// parser admits — generator 1 always is.
fn admissible_ed(
    channels: usize,
    capacity: usize,
    weight: usize,
    raw_generator: usize,
) -> MuxConfig {
    let frame = weight * capacity;
    (0..frame)
        .map(|step| 1 + (raw_generator - 1 + step) % frame)
        .find_map(|i| {
            MuxConfig::parse(&format!(
                "{channels},cap={capacity},policy=ed,w={weight},i={i}"
            ))
            .ok()
        })
        .expect("generator 1 is admissible")
}

/// The ISSUE's headline identity: `multiplexed:1+sim` over the full
/// 12-benchmark suite at `jobs = 4` — four sessions genuinely contending
/// for one shared channel — is bitwise indistinguishable from plain
/// `sim`, failures included.
#[test]
fn one_channel_mux_is_bitwise_identical_to_sim_under_contention() {
    let suite = paper_suite().expect("suite generates");
    let registry = BackendRegistry::standard();
    let runner = BatchExtractor::new().with_jobs(4);

    let run = |spec: &str| {
        let backend = registry.resolve(spec).unwrap();
        runner.run(&FastExtractor::new(), suite.len(), |i| {
            backend
                .session(SourceScenario::new(suite[i].csd.clone()))
                .expect("backend opens")
        })
    };
    let plain = run("sim");
    let muxed = run("multiplexed:1+sim");

    for ((p, m), bench) in plain.iter().zip(&muxed).zip(&suite) {
        let index = bench.spec.index;
        assert_eq!(m.probes, p.probes, "benchmark {index}: probes");
        assert_eq!(m.scatter, p.scatter, "benchmark {index}: scatter");
        match (&p.outcome, &m.outcome) {
            (Ok(pr), Ok(mr)) => {
                assert_eq!(mr.slope_h.to_bits(), pr.slope_h.to_bits(), "bench {index}");
                assert_eq!(mr.slope_v.to_bits(), pr.slope_v.to_bits(), "bench {index}");
                assert_eq!(mr.matrix, pr.matrix, "benchmark {index}");
                assert_eq!(mr.unique_pixels, pr.unique_pixels, "benchmark {index}");
                assert_eq!(
                    mr.coverage.to_bits(),
                    pr.coverage.to_bits(),
                    "bench {index}"
                );
                assert_eq!(mr.simulated_dwell, pr.simulated_dwell, "benchmark {index}");
            }
            (Err(pe), Err(me)) => {
                assert_eq!(
                    me.category(),
                    pe.category(),
                    "benchmark {index}: {pe} vs {me}"
                );
            }
            (p, m) => panic!("benchmark {index}: outcome mismatch — sim {p:?}, mux {m:?}"),
        }
    }
}

/// Duplicate knobs die in the parser with the *named* error — the
/// regression the hwsim spec grammar shipped without.
#[test]
fn duplicate_spec_options_are_rejected_by_name() {
    let registry = BackendRegistry::standard();
    let duplicate = |spec: &str, want_scheme: &str, want_key: &str| {
        let err = registry
            .resolve(spec)
            .expect_err("duplicate must be rejected");
        assert!(
            matches!(
                &err,
                BackendError::DuplicateOption { scheme, key }
                    if *scheme == want_scheme && key == want_key
            ),
            "{spec}: {err}"
        );
    };
    duplicate("hwsim:nominal,xt=0.1,xt=0.9", "hwsim", "xt");
    duplicate("hwsim:aged,dead=0.05,bits=12,dead=0.01", "hwsim", "dead");
    duplicate("multiplexed:2,cap=4,cap=8", "multiplexed", "cap");
    duplicate("multiplexed:2,policy=ed,w=3,i=5,w=2", "multiplexed", "w");
}

proptest! {
    /// The CAC guarantee, for every admissible parameterization: the
    /// equi-difference codewords of all `K ≤ capacity` ranks are
    /// pairwise disjoint in-frame, and the induced slot streams stay
    /// globally collision-free and per-rank strictly increasing over a
    /// multi-frame window.
    #[test]
    fn equi_difference_schedules_are_collision_free(
        capacity in 1usize..17,
        weight in 1usize..9,
        raw_generator in 1usize..1000,
    ) {
        let n = (weight * capacity) as u64;
        let config = admissible_ed(1, capacity, weight, raw_generator);
        let (frame, codewords) = config.policy.codewords(capacity).unwrap();
        prop_assert_eq!(frame, n);

        // In-frame disjointness across every pair of ranks.
        let mut in_frame: Vec<u64> = codewords.iter().flatten().copied().collect();
        in_frame.sort_unstable();
        in_frame.dedup();
        prop_assert_eq!(
            in_frame.len(),
            weight * capacity,
            "codewords must tile the frame: {:?}",
            codewords
        );
        prop_assert!(in_frame.iter().all(|&slot| slot < n));

        // Slot streams: unique across all ranks over three frames,
        // strictly increasing within each rank.
        let probes_per_rank = 3 * weight as u64;
        let mut seen = std::collections::HashSet::new();
        for (rank, codeword) in codewords.iter().enumerate() {
            let mut last = None;
            for probe in 0..probes_per_rank {
                let slot = probe_slot(frame, codeword, probe);
                prop_assert!(
                    seen.insert(slot),
                    "rank {} probe {} collides on slot {}",
                    rank,
                    probe,
                    slot
                );
                prop_assert!(
                    last.is_none_or(|l| slot > l),
                    "rank {} schedule must be strictly increasing",
                    rank
                );
                last = Some(slot);
            }
        }
    }

    /// Scheduler choice is pure timing: whatever (policy, capacity,
    /// weight, generator, channel count) the spec selects, extraction
    /// bytes match the unmultiplexed reference exactly.
    #[test]
    fn scheduler_choice_never_changes_extraction_bytes(
        index in 1usize..13,
        channels in 1usize..3,
        capacity in 1usize..9,
        weight in 1usize..5,
        raw_generator in 1usize..100,
        equi_difference in 0u32..2,
    ) {
        let spec = if equi_difference == 1 {
            let config = admissible_ed(channels, capacity, weight, raw_generator);
            format!("multiplexed:{}", config.canonical_args())
        } else {
            format!("multiplexed:{channels},cap={capacity}")
        };
        let bench = paper_benchmark(index).expect("paper benchmark");
        prop_assert_eq!(extract_on(&spec, &bench), sim_reference(index), "{}", spec);
    }
}

/// The accounting side of the invariance property: on a contended
/// channel round-robin and equi-difference produce the *same bytes* but
/// visibly different dwell accounting — rr stalls nearly every probe
/// where ed runs most of its codeword burst clean.
#[test]
fn policies_differ_only_in_dwell_accounting() {
    let bench = paper_benchmark(6).unwrap();
    let registry = BackendRegistry::standard();
    let contend = |spec: &str| {
        let backend = registry.resolve(spec).unwrap();
        let results = BatchExtractor::new()
            .with_jobs(4)
            .run(&FastExtractor::new(), 4, |_| {
                backend
                    .session(SourceScenario::new(bench.csd.clone()))
                    .expect("backend opens")
            });
        let pool = backend
            .channel_pool()
            .expect("mux exposes its pool")
            .clone();
        (results, pool.stats())
    };
    let (rr_results, rr) = contend("multiplexed:1,cap=4");
    let (ed_results, ed) = contend("multiplexed:1,cap=4,policy=ed,w=4");

    for (r, e) in rr_results.iter().zip(&ed_results) {
        assert_eq!(r.scatter, e.scatter, "bytes must not depend on the policy");
        let (Ok(rr_report), Ok(ed_report)) = (&r.outcome, &e.outcome) else {
            panic!("benchmark 6 extracts under both policies");
        };
        assert_eq!(ed_report.slope_h.to_bits(), rr_report.slope_h.to_bits());
        assert_eq!(ed_report.coverage.to_bits(), rr_report.coverage.to_bits());
    }

    let acquires = |stats: &MuxStats| {
        stats.channels.iter().fold((0u64, 0u64), |(c, s), chan| {
            (c + chan.clean, s + chan.stalled)
        })
    };
    let (rr_clean, rr_stalled) = acquires(&rr);
    let (ed_clean, ed_stalled) = acquires(&ed);
    assert_eq!(
        rr_clean + rr_stalled,
        ed_clean + ed_stalled,
        "same probe count"
    );
    // Steady-state stall *time* converges (ed concentrates a frame's
    // worth of waiting at each burst boundary), but conflict avoidance
    // collapses the number of stalled acquires: most of an ed codeword
    // burst lands back-to-back where rr stalls probe after probe.
    assert!(
        ed_clean > rr_clean,
        "equi-difference must run more clean acquires: ed {ed_clean} vs rr {rr_clean}"
    );
    assert!(
        ed_stalled < rr_stalled,
        "conflict avoidance must cut stalled acquires: ed {ed_stalled} vs rr {rr_stalled}"
    );
}
