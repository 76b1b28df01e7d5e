//! The deterministic-parallelism contract, end to end: for a fixed seed,
//! the campaign dataset and every derived paper artifact are
//! **byte-identical** whether the runtime uses 1, 2, or 8 worker threads.
//! Threads may only change wall-clock time (tracked separately through
//! `simnet::metrics` stage counters, which are never compared across
//! runs).

use chatlens::analysis::{fold_dataset, LdaConfig, LdaModel, StandardFolds};
use chatlens::platforms::id::PlatformKind;
use chatlens::simnet::metrics::Metrics;
use chatlens::{run_study_with, CampaignConfig, Dataset, ScenarioConfig};

fn scenario() -> ScenarioConfig {
    let mut c = ScenarioConfig::at_scale(0.004);
    c.seed = 99;
    c
}

fn collect(threads: usize) -> Dataset {
    run_study_with(
        scenario(),
        CampaignConfig {
            threads,
            ..CampaignConfig::default()
        },
    )
}

/// Render the three artifacts named by the acceptance criteria into one
/// byte string: Table 2 (dataset overview), Fig 6 (lifetime/revocation),
/// Table 4 (PII exposure).
fn artifact_bytes(ds: &Dataset) -> Vec<u8> {
    let mut out = String::new();
    // Table 2: per-platform rows plus the distinct total.
    for kind in PlatformKind::ALL {
        out.push_str(&format!("table2 {kind}: {:?}\n", ds.summary(kind)));
    }
    out.push_str(&format!("table2 total: {:?}\n", ds.totals()));
    let folds = fold_dataset(ds, StandardFolds::new());
    // Fig 6: revocation stats.
    for stats in folds.lifecycle.output().revocation {
        out.push_str(&format!("fig6: {stats:?}\n"));
    }
    // Table 4: PII exposure.
    for row in folds.pii.output().exposure {
        out.push_str(&format!("table4: {row:?}\n"));
    }
    out.into_bytes()
}

#[test]
fn artifacts_are_byte_identical_across_thread_counts() {
    let reference_ds = collect(1);
    let reference = artifact_bytes(&reference_ds);
    assert!(!reference.is_empty());
    for threads in [2, 8] {
        let ds = collect(threads);
        let bytes = artifact_bytes(&ds);
        assert_eq!(
            bytes, reference,
            "{threads}-thread run diverged from the serial run"
        );
        // The dataset underneath matches too, not just the rendering.
        assert_eq!(ds.timelines, reference_ds.timelines);
        assert_eq!(ds.tweets.len(), reference_ds.tweets.len());
    }
}

#[test]
fn lda_model_is_identical_across_thread_counts() {
    // Several hundred docs so the corpus spans multiple Gibbs chunks.
    let docs: Vec<Vec<u16>> = (0..600)
        .map(|d| (0..12).map(|j| ((d * 7 + j * 3) % 40) as u16).collect())
        .collect();
    let fit = |threads: usize| {
        LdaModel::fit(
            &docs,
            40,
            LdaConfig {
                k: 6,
                iterations: 15,
                seed: 5,
                threads,
                ..LdaConfig::default()
            },
        )
    };
    let serial = fit(1);
    for threads in [2, 8] {
        let par = fit(threads);
        for t in 0..6 {
            assert_eq!(
                par.top_words(t, 10),
                serial.top_words(t, 10),
                "topic {t} at {threads} threads"
            );
        }
        assert_eq!(par.topic_doc_shares(), serial.topic_doc_shares());
    }
}

/// The LDA stage's wall-clock is recorded via `simnet::metrics`, and on a
/// machine with >= 4 cores the 4-thread fit of the default 1/10-scale
/// corpus must beat the serial fit by > 1.5x. Single-core runners (like
/// the CI container) still execute the timing plumbing, but skip the
/// speedup assertion — there is nothing to speed up.
#[test]
fn lda_timing_recorded_and_parallel_speedup_on_multicore() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // A corpus big enough that chunked scheduling overhead is noise. On
    // multicore machines, use the paper's default 1/10-scale scenario.
    let docs: Vec<Vec<u16>> = if cores >= 4 {
        let ds = run_study_with(
            {
                let mut c = ScenarioConfig::at_scale(0.1);
                c.seed = 20_200_408;
                c
            },
            CampaignConfig::default(),
        );
        let vocab = chatlens::workload::Vocabulary::build();
        chatlens::analysis::topics::english_corpus(&ds, PlatformKind::Telegram, &vocab)
    } else {
        (0..2_000)
            .map(|d| (0..20).map(|j| ((d * 11 + j * 5) % 60) as u16).collect())
            .collect()
    };
    let vocab_len = docs
        .iter()
        .flatten()
        .map(|&w| w as usize + 1)
        .max()
        .unwrap();
    let mut metrics = Metrics::new();
    let fit = |metrics: &mut Metrics, threads: usize| {
        let stage = format!("lda.t{threads}");
        metrics.time_stage(&stage, || {
            LdaModel::fit(
                &docs,
                vocab_len,
                LdaConfig {
                    k: 8,
                    iterations: 10,
                    seed: 3,
                    threads,
                    ..LdaConfig::default()
                },
            )
        });
        metrics.stage_micros(&stage)
    };
    let serial_us = fit(&mut metrics, 1);
    let four_us = fit(&mut metrics, 4);
    assert!(serial_us > 0, "serial LDA timing recorded");
    assert!(four_us > 0, "4-thread LDA timing recorded");
    assert_eq!(metrics.get("stage.lda.t1.runs"), 1);
    assert_eq!(metrics.get("stage.lda.t4.runs"), 1);
    if cores >= 4 {
        let speedup = serial_us as f64 / four_us as f64;
        assert!(
            speedup > 1.5,
            "LDA at 4 threads: {speedup:.2}x over serial ({serial_us}us vs {four_us}us)"
        );
    } else {
        eprintln!("skipping speedup assertion: only {cores} core(s) available");
    }
}
