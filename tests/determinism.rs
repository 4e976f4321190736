//! Reproducibility guarantees: the whole month-long "Internet" is a pure
//! function of the seed.

use model::{fingerprint, Dataset};
use workload::{run_experiment, ExperimentConfig};

fn run(seed: u64, threads: usize) -> Dataset {
    let mut cfg = ExperimentConfig::quick(seed);
    cfg.hours = 8;
    cfg.threads = threads;
    run_experiment(&cfg).dataset
}

#[test]
fn same_seed_same_dataset() {
    let a = run(1234, 0);
    let b = run(1234, 0);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn thread_count_does_not_change_results() {
    let a = run(777, 1);
    let b = run(777, 3);
    let c = run(777, 13);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(fingerprint(&a), fingerprint(&c));
}

#[test]
fn different_seeds_differ() {
    let a = run(1, 0);
    let b = run(2, 0);
    assert_ne!(fingerprint(&a), fingerprint(&b));
    // But the structure is the same.
    assert_eq!(a.clients.len(), b.clients.len());
    assert_eq!(a.sites.len(), b.sites.len());
}

#[test]
fn apparatus_faults_stay_deterministic_across_threads() {
    use workload::ApparatusFaults;
    // Injected infrastructure faults draw from their own RNG streams, so a
    // degraded run must be as thread-invariant as a healthy one — same
    // surviving records, same lost clients, same quarantine counts.
    let faulted = |threads: usize| {
        let mut cfg = ExperimentConfig::quick(4242);
        cfg.hours = 8;
        cfg.wire_fidelity = false;
        cfg.threads = threads;
        cfg.apparatus = ApparatusFaults::stress();
        workload::run_experiment(&cfg)
    };
    let a = faulted(1);
    let b = faulted(5);
    assert_eq!(fingerprint(&a.dataset), fingerprint(&b.dataset));
    assert_eq!(a.report.lost_clients(), b.report.lost_clients());
    assert_eq!(a.report.records_dropped, b.report.records_dropped);
    assert_eq!(a.report.mrt_issues, b.report.mrt_issues);
    assert!(!a.report.is_clean(), "stress faults must leave a mark");
}

#[test]
fn telemetry_recording_does_not_change_results() {
    // The observability layer is observation-only: switching the recorder
    // on must leave the simulated month bit-for-bit identical. This also
    // holds (trivially) under `--no-default-features`, where `enable` is a
    // stub — the test then proves the stub build produces the same world.
    telemetry::enable(false);
    let off = run(31337, 0);
    telemetry::enable(true);
    let on = run(31337, 0);
    telemetry::enable(false);
    assert_eq!(fingerprint(&off), fingerprint(&on));
}

#[test]
fn provenance_recording_does_not_change_results() {
    // The flight recorder is pure observation: stamping every transaction
    // with its ground-truth fault set must not consume a single RNG draw or
    // reorder a single event. Same seed, recorder on vs off → bit-identical
    // dataset. (ci.sh additionally holds this via `detcheck`.)
    let run_prov = |record: bool, threads: usize| {
        let mut cfg = ExperimentConfig::quick(31337);
        cfg.hours = 8;
        cfg.threads = threads;
        cfg.record_provenance = record;
        run_experiment(&cfg)
    };
    let off = run_prov(false, 0);
    let on = run_prov(true, 0);
    assert_eq!(fingerprint(&off.dataset), fingerprint(&on.dataset));
    assert!(off.provenance.is_none(), "no sidecar unless asked");
    let log = on.provenance.expect("sidecar when asked");
    assert_eq!(log.records.len(), on.dataset.records.len());

    // The sidecar itself is thread-invariant, like everything else.
    let on2 = run_prov(true, 5);
    assert_eq!(fingerprint(&on.dataset), fingerprint(&on2.dataset));
    assert_eq!(Some(&log), on2.provenance.as_ref());
}

#[test]
fn forensic_tracing_does_not_change_results() {
    // The forensic tracer rides the same pure truth probes as the flight
    // recorder: switching it on must not consume a single RNG draw or
    // reorder a single event, at any thread count. (ci.sh additionally
    // holds this via `detcheck`, in both feature builds.)
    let run_traced = |trace: bool, threads: usize| {
        let mut cfg = ExperimentConfig::quick(31337);
        cfg.hours = 8;
        cfg.threads = threads;
        cfg.forensics = trace.then(workload::ForensicsConfig::default);
        run_experiment(&cfg)
    };
    let off = run_traced(false, 1);
    let on = run_traced(true, 1);
    assert_eq!(fingerprint(&off.dataset), fingerprint(&on.dataset));
    assert!(off.forensics.is_none(), "no exemplar store unless asked");
    let store = on.forensics.as_ref().expect("exemplar store when asked");
    assert!(!store.is_empty(), "a traced run captures exemplars");

    // The exemplar store itself is thread-invariant, like everything else.
    for threads in [2usize, 7] {
        let again = run_traced(true, threads);
        assert_eq!(fingerprint(&on.dataset), fingerprint(&again.dataset));
        let keys: Vec<_> = store.iter().map(|x| (x.key(), x.record_index)).collect();
        let again_keys: Vec<_> = again
            .forensics
            .as_ref()
            .expect("store present")
            .iter()
            .map(|x| (x.key(), x.record_index))
            .collect();
        assert_eq!(keys, again_keys, "exemplars drift at {threads} threads");
    }
}

#[test]
fn wire_codecs_never_change_the_world() {
    use workload::AdversarialProfile;
    // The DNS wire codecs check what they read back and never steer:
    // the resolver numbers its own messages instead of drawing ids from the
    // simulation RNG, answers come from the zones either way, and the proxy
    // resolves under the runner's switch. So a day of the quick world is
    // bit-identical with the codecs on and off, standard and adversarial.
    for adversarial in [
        AdversarialProfile::none(),
        AdversarialProfile::adversarial_month(),
    ] {
        let world = |wire_fidelity: bool| {
            let mut cfg = ExperimentConfig::quick(20050101);
            cfg.hours = 24;
            cfg.threads = 2;
            cfg.wire_fidelity = wire_fidelity;
            cfg.adversarial = adversarial;
            fingerprint(&run_experiment(&cfg).dataset)
        };
        assert_eq!(
            world(true),
            world(false),
            "the codecs changed the world: {adversarial:?}"
        );
    }
}

#[test]
fn existing_worlds_bit_identical_to_pre_archetype_goldens() {
    use workload::ApparatusFaults;
    // Golden fingerprints of the standard and degraded worlds. They moved
    // once, when the wire codecs stopped drawing DNS message ids from the
    // simulation RNG (and the proxy took the runner's codec switch), and
    // otherwise have not changed since before the adversarial
    // fault-archetype suite landed. Every archetype draws from its own
    // `fork_str` stream (forked only when its intensity is non-zero), so a
    // run with `AdversarialProfile::none()` — the default — must replay the
    // world a build without the suite produces. If either golden changes,
    // an archetype is consuming shared RNG state or perturbing event order
    // even when switched off. Each golden covers every field of the
    // dataset: who, where, when and whether it failed, but also download
    // times, bytes, DNS latencies, retransmission counts, failure kinds,
    // dig outcomes and the BGP cells.
    let standard = run(9090, 1);
    assert_eq!(
        fingerprint(&standard),
        0x2a56_c2aa_c13b_9131,
        "standard world's full dataset drifted from its golden fingerprint"
    );

    let mut cfg = ExperimentConfig::quick(4242);
    cfg.hours = 8;
    cfg.wire_fidelity = false;
    cfg.threads = 1;
    cfg.apparatus = ApparatusFaults::stress();
    let degraded = run_experiment(&cfg).dataset;
    assert_eq!(
        fingerprint(&degraded),
        0xad41_eb4a_1b04_8ca8,
        "degraded world's full dataset drifted from its golden fingerprint"
    );
}

#[test]
fn overlapping_dialup_batches_run_in_time_order() {
    // At 4 accesses/hour a dial-up batch (80 URLs × 12 s = 960 s) outlasts
    // its 900 s iteration window, so consecutive batches overlap and each
    // client's accesses must interleave by time. The other goldens run at 1
    // or 2 accesses/hour, where no windows overlap and draw order is time
    // order: running the accesses in draw order moves only this golden.
    let mut cfg = ExperimentConfig::quick(20050101);
    cfg.iterations_per_hour = 4;
    cfg.hours = 2;
    cfg.wire_fidelity = false;
    let ds = run_experiment(&cfg).dataset;
    assert_eq!(ds.records.len(), 85_290);
    assert_eq!(
        fingerprint(&ds),
        0x5eb5_3aad_6410_9d18,
        "overlapping dial-up world's full dataset drifted from its golden fingerprint"
    );
    for w in ds.records.windows(2) {
        if w[0].client == w[1].client {
            assert!(
                w[0].start <= w[1].start,
                "client {:?} ran an access out of time order at {:?}",
                w[0].client,
                w[1].start
            );
        }
    }
}

#[test]
fn adversarial_archetypes_stay_deterministic_across_threads() {
    use workload::AdversarialProfile;
    // The full archetype suite — BGP transients, censorship, colo blasts,
    // vantage splits, CDN brownouts, MTU blackholes, wrong-answer DNS —
    // must be as thread-invariant as the healthy world, sidecar included.
    let adversarial = |threads: usize| {
        let mut cfg = ExperimentConfig::quick(616);
        cfg.hours = 8;
        cfg.wire_fidelity = false;
        cfg.threads = threads;
        cfg.record_provenance = true;
        cfg.adversarial = AdversarialProfile::adversarial_month();
        run_experiment(&cfg)
    };
    let a = adversarial(1);
    let b = adversarial(5);
    assert_eq!(fingerprint(&a.dataset), fingerprint(&b.dataset));
    assert_eq!(a.provenance, b.provenance);

    // And the profile actually changes the world — the suite is not a no-op.
    let mut cfg = ExperimentConfig::quick(616);
    cfg.hours = 8;
    cfg.wire_fidelity = false;
    cfg.threads = 1;
    let baseline = run_experiment(&cfg).dataset;
    assert_ne!(
        fingerprint(&a.dataset),
        fingerprint(&baseline),
        "adversarial month must differ from the healthy world"
    );
}

#[test]
fn adversarial_world_bit_identical_to_golden() {
    use workload::AdversarialProfile;
    // Golden fingerprints of the adversarial month at the config of
    // `adversarial_archetypes_stay_deterministic_across_threads`, captured
    // before the connect behaviour was read off each vantage's stamped
    // fault set, and moved once since, when the wire codecs stopped
    // drawing DNS message ids from the simulation RNG. A precedence slip
    // between two archetypes moves only adversarial connects: the standard
    // and degraded goldens cannot see it.
    let mut cfg = ExperimentConfig::quick(616);
    cfg.hours = 8;
    cfg.wire_fidelity = false;
    cfg.threads = 1;
    cfg.record_provenance = true;
    cfg.adversarial = AdversarialProfile::adversarial_month();
    let out = run_experiment(&cfg);
    assert_eq!(
        fingerprint(&out.dataset),
        0xf491_40bc_81e4_5915,
        "adversarial world's full dataset drifted from its golden fingerprint"
    );
    let log = out.provenance.expect("provenance requested");
    assert_eq!(
        fingerprint(&log),
        0xfea6_d21f_4952_fc31,
        "adversarial provenance sidecar drifted from its golden fingerprint"
    );
}

#[test]
fn full_pipeline_and_report_are_thread_invariant() {
    use netprofiler::AnalysisConfig;
    let base_ds = run(9090, 1);
    let base_cfg = AnalysisConfig::default().with_threads(1);
    let base_report = report::render_all(&base_ds, base_cfg, 9090);
    for threads in [2usize, 7] {
        let ds = run(9090, threads);
        assert_eq!(fingerprint(&base_ds), fingerprint(&ds));
        let cfg = AnalysisConfig::default().with_threads(threads);
        let rendered = report::render_all(&ds, cfg, 9090);
        assert!(
            rendered == base_report,
            "rendered report differs at {threads} threads \
             ({} vs {} bytes)",
            rendered.len(),
            base_report.len()
        );
    }
}

#[test]
fn analysis_is_deterministic_too() {
    use netprofiler::{blame, Analysis, AnalysisConfig};
    let ds = run(55, 0);
    let b1 = blame::table5(&Analysis::new(&ds, AnalysisConfig::default()));
    let b2 = blame::table5(&Analysis::new(&ds, AnalysisConfig::default()));
    assert_eq!(b1, b2);
}
