//! Fault-injection resilience: the campaign must degrade gracefully, not
//! collapse, under an unreliable network — the smoltcp-style "adverse
//! conditions" discipline of the networking guides applied to the whole
//! pipeline.

use chatlens::core::monitor::ObservedStatus;
use chatlens::platforms::id::PlatformKind;
use chatlens::simnet::fault::{FaultInjector, FaultProfile, OutageSpec};
use chatlens::{run_study_with, CampaignConfig, Dataset, ScenarioConfig};

fn scenario() -> ScenarioConfig {
    ScenarioConfig::at_scale(0.005)
}

#[test]
fn campaign_survives_heavy_faults() {
    // 15% drops + 10% server errors — the guides' "good starting value"
    // for fault injection. Retries absorb most of it.
    let ds = run_study_with(
        scenario(),
        CampaignConfig {
            faults: FaultInjector::new(0.15, 0.10),
            ..CampaignConfig::default()
        },
    );
    for kind in PlatformKind::ALL {
        let s = ds.summary(kind);
        assert!(s.group_urls > 0, "{kind}: discovery must survive");
        assert!(s.joined_groups > 0, "{kind}: joining must survive");
    }
    assert!(!ds.control.is_empty());
}

#[test]
fn faults_only_shrink_coverage_never_corrupt() {
    let clean = run_study_with(
        scenario(),
        CampaignConfig {
            faults: FaultInjector::none(),
            ..CampaignConfig::default()
        },
    );
    let faulty = run_study_with(
        scenario(),
        CampaignConfig {
            faults: FaultInjector::new(0.20, 0.10),
            ..CampaignConfig::default()
        },
    );
    // Coverage shrinks...
    assert!(faulty.failed_requests > 0, "faults must actually bite");
    assert!(
        faulty.tweets.len() <= clean.tweets.len(),
        "faults cannot create data"
    );
    // ...but everything collected is a real tweet from the same world.
    let clean_ids: std::collections::HashSet<u64> =
        clean.tweets.iter().map(|t| t.tweet.id.0).collect();
    let missing = faulty
        .tweets
        .iter()
        .filter(|t| !clean_ids.contains(&t.tweet.id.0))
        .count();
    assert_eq!(
        missing, 0,
        "faulty run produced tweets the clean run never saw"
    );
    // Discovered groups are a subset too.
    let clean_groups: std::collections::HashSet<String> =
        clean.groups.iter().map(|g| g.invite.dedup_key()).collect();
    assert!(faulty
        .groups
        .iter()
        .all(|g| clean_groups.contains(&g.invite.dedup_key())));
}

#[test]
fn degraded_campaign_still_reproduces_the_shape() {
    // Even at 15% drops the headline orderings of the paper hold.
    let ds = run_study_with(
        scenario(),
        CampaignConfig {
            faults: FaultInjector::new(0.15, 0.05),
            ..CampaignConfig::default()
        },
    );
    let lifecycle = chatlens::analysis::lifecycle::LifecycleFold::new();
    let [wa, tg, dc] = chatlens::analysis::fold_dataset(&ds, lifecycle)
        .output()
        .revocation;
    assert!(dc.revoked_fraction > wa.revoked_fraction);
    assert!(wa.revoked_fraction > tg.revoked_fraction);
    // Failed fetches show up as Failed observations, not phantom
    // revocations: revoked share under faults stays in the clean band.
    assert!(dc.revoked_fraction > 0.5 && dc.revoked_fraction < 0.85);
}

/// A compact, fully deterministic digest of everything in the dataset
/// that counts as "data" — deliberately excluding `metrics`, which holds
/// wall-clock stage timings and may differ between runs.
fn dataset_fingerprint(ds: &chatlens::Dataset) -> String {
    let mut out = String::new();
    out.push_str(&format!("failed_requests={}\n", ds.failed_requests));
    out.push_str(&format!("accounts={:?}\n", ds.accounts_used));
    out.push_str(&format!("extraction={:?}\n", ds.extraction));
    out.push_str(&format!("gaps={:?}\n", ds.gaps));
    for t in &ds.tweets {
        out.push_str(&format!("tweet={}\n", t.tweet.id.0));
    }
    for g in &ds.groups {
        out.push_str(&format!("group={}\n", g.invite.dedup_key()));
    }
    for (slot, tl) in ds.timelines.iter() {
        out.push_str(&format!("timeline {slot}: {tl:?}\n"));
    }
    for j in &ds.joined {
        out.push_str(&format!(
            "joined={} members={} msgs={}\n",
            j.key,
            j.members.len(),
            j.messages.len()
        ));
    }
    for q in &ds.quarantine {
        out.push_str(&format!(
            "quarantine={} {} day={} code={}\n",
            q.service,
            q.endpoint,
            q.day,
            q.code.label()
        ));
    }
    out
}

#[test]
fn fault_sweep_never_breaks_dataset_determinism() {
    // Sweep transport drop-chance from 0% to 20%. At every level the
    // dataset must be a pure function of (seed, fault level): repeated
    // runs — and runs at different thread counts — are identical. Only
    // the retry counters in `simnet::metrics` move as faults bite.
    let mut attempts_by_level = Vec::new();
    for drop_chance in [0.0, 0.05, 0.10, 0.20] {
        let run = |threads: usize| {
            run_study_with(
                scenario(),
                CampaignConfig {
                    faults: FaultInjector::new(drop_chance, 0.0),
                    threads,
                    ..CampaignConfig::default()
                },
            )
        };
        let first = run(1);
        let fingerprint = dataset_fingerprint(&first);
        for (label, ds) in [("repeat", run(1)), ("8 threads", run(8))] {
            assert_eq!(
                dataset_fingerprint(&ds),
                fingerprint,
                "{label} run diverged at drop chance {drop_chance}"
            );
            // The retry accounting is deterministic too, for a fixed
            // fault level — it varies only *across* levels.
            assert_eq!(
                ds.metrics.get("transport.attempts"),
                first.metrics.get("transport.attempts"),
                "attempts diverged at drop chance {drop_chance}"
            );
        }
        attempts_by_level.push((drop_chance, first.metrics.get("transport.attempts")));
    }
    // More drops => more retries. The clean run must be the floor, and
    // the heaviest fault level must visibly cost extra attempts.
    let clean = attempts_by_level[0].1;
    for &(p, attempts) in &attempts_by_level[1..] {
        assert!(
            attempts > clean,
            "drop chance {p} should force retries ({attempts} vs {clean} clean)"
        );
    }
}

// ---- correlated failures: scheduled outages, breakers, gap censoring ----

/// A campaign whose WhatsApp service is fully dark on study days 12..15.
fn wa_blackout_campaign() -> CampaignConfig {
    CampaignConfig {
        outages: [
            None,
            Some(OutageSpec {
                start_day: 12,
                days: 3,
                ban: false,
            }),
            None,
            None,
        ],
        ..CampaignConfig::default()
    }
}

/// Everything the dataset holds about one platform, as a comparable
/// digest: discovery records, timelines, gap-ledger entries, and joined
/// groups (members and messages included via `Debug`).
fn platform_slice(ds: &Dataset, kind: PlatformKind) -> String {
    let mut out = String::new();
    for (slot, g) in ds.groups.iter().enumerate() {
        if g.platform != kind {
            continue;
        }
        let key = g.invite.dedup_key();
        out.push_str(&format!("group={key}\n"));
        if let Some(tl) = ds.timelines.get(slot) {
            out.push_str(&format!("  timeline={tl:?}\n"));
        }
        if let Some(gaps) = ds.gaps.get(slot) {
            out.push_str(&format!("  gaps={gaps:?}\n"));
        }
    }
    for j in ds.joined_of(kind) {
        out.push_str(&format!("joined={j:?}\n"));
    }
    out
}

#[test]
fn three_day_blackout_censors_only_the_dark_platform() {
    let baseline = run_study_with(scenario(), CampaignConfig::default());
    assert!(
        baseline.gaps.is_empty(),
        "a calm campaign must not record censored days"
    );
    let outage = run_study_with(scenario(), wa_blackout_campaign());

    // The campaign completes and the outage left a censored record, never
    // fabricated observations: inside the window every WhatsApp fetch is
    // Failed, and the unrecoverable days landed in the gap ledger.
    assert!(!outage.gaps.is_empty(), "the blackout must leave gaps");
    let wa_keys: std::collections::HashSet<String> = outage
        .groups
        .iter()
        .filter(|g| g.platform == PlatformKind::WhatsApp)
        .map(|g| g.invite.dedup_key())
        .collect();
    for (slot, days) in outage.gaps.iter() {
        let key = outage.groups[slot].invite.dedup_key();
        assert!(wa_keys.contains(&key), "gap ledger leaked to {key}");
        for d in days {
            assert!((12..15).contains(d), "gap day {d} outside the outage");
        }
    }
    for g in outage
        .groups
        .iter()
        .filter(|g| g.platform == PlatformKind::WhatsApp)
    {
        let Some(tl) = outage.timeline_of(g) else {
            continue;
        };
        for o in tl.iter().filter(|o| (12..15).contains(&o.day)) {
            assert_eq!(
                o.status,
                ObservedStatus::Failed,
                "{}: day-{} observation fabricated during the blackout",
                g.invite.dedup_key(),
                o.day
            );
        }
    }

    // Everything the campaign collected about the *other* platforms — and
    // the Twitter side — is byte-identical to the no-outage run.
    for kind in [PlatformKind::Telegram, PlatformKind::Discord] {
        assert_eq!(
            platform_slice(&outage, kind),
            platform_slice(&baseline, kind),
            "{kind}: outputs perturbed by the WhatsApp outage"
        );
    }
    let tweet_ids = |ds: &Dataset| ds.tweets.iter().map(|t| t.tweet.id.0).collect::<Vec<_>>();
    assert_eq!(tweet_ids(&outage), tweet_ids(&baseline));
}

#[test]
fn service_recovers_to_baseline_after_outage_window() {
    let baseline = run_study_with(scenario(), CampaignConfig::default());
    let outage = run_study_with(scenario(), wa_blackout_campaign());

    // The storm was real: breakers opened and failed fast, and days were
    // censored.
    assert!(outage.metrics.get("transport.breaker_opened") > 0);
    assert!(outage.metrics.get("transport.breaker_fast_fails") > 0);
    assert!(outage.metrics.get("monitor.gap_days") > 0);
    assert_eq!(baseline.metrics.get("transport.breaker_opened"), 0);

    // After the window closes the breaker must fully recover — monitoring
    // resumes (not stuck open) and the per-day success profile returns to
    // the fault-free baseline: under calm faults a Failed observation
    // after day 15 would mean the breaker was still rejecting calls.
    let wa_obs = |ds: &Dataset, day: u32| {
        let mut alive = 0u64;
        let mut failed = 0u64;
        for g in ds
            .groups
            .iter()
            .filter(|g| g.platform == PlatformKind::WhatsApp)
        {
            let Some(tl) = ds.timeline_of(g) else {
                continue;
            };
            for o in tl.iter().filter(|o| o.day == day) {
                match o.status {
                    ObservedStatus::Alive { .. } => alive += 1,
                    ObservedStatus::Failed => failed += 1,
                    _ => {}
                }
            }
        }
        (alive, failed)
    };
    let (alive_day15, _) = wa_obs(&outage, 15);
    assert!(alive_day15 > 0, "monitoring must resume the day after");
    for day in 15..38 {
        let (alive, failed) = wa_obs(&outage, day);
        assert_eq!(failed, 0, "day {day}: breaker still rejecting calls");
        let (base_alive, _) = wa_obs(&baseline, day);
        // Same world, same fetch days: once the backlog of revocations
        // hidden by the gap has been caught up, the per-day alive counts
        // match the no-outage run exactly.
        if day >= 16 {
            assert_eq!(
                alive, base_alive,
                "day {day}: success rate did not return to baseline"
            );
        }
    }
}

#[test]
fn bursty_checkpoint_resume_is_bit_identical() {
    use chatlens::checkpoint::load_from_file;
    use chatlens::core::{
        resume_study, run_study_days_checkpointed, CampaignState, CheckpointPolicy,
    };
    let small = ScenarioConfig::at_scale(0.002);
    let campaign = CampaignConfig {
        profile: FaultProfile::Bursty,
        ..CampaignConfig::default()
    };
    let mut uninterrupted = run_study_with(small.clone(), campaign);
    uninterrupted.metrics.strip_wall_clock();

    let dir = std::env::temp_dir().join(format!("chatlens-bursty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    run_study_days_checkpointed(small, campaign, &CheckpointPolicy::daily(dir.clone()), 38)
        .expect("snapshots save");
    // Kill mid-storm and resume at every thread count: the finished
    // dataset — burst phases, breaker states, backfill queues, gap ledger
    // and all — must be byte-identical to the uninterrupted run.
    let path = dir.join("day019.ckpt");
    for threads in [1usize, 2, 8] {
        let mut state: CampaignState = load_from_file(&path).expect("snapshot loads");
        state.campaign.threads = threads;
        let mut resumed = resume_study(&state);
        resumed.metrics.strip_wall_clock();
        assert_eq!(
            dataset_fingerprint(&resumed),
            dataset_fingerprint(&uninterrupted),
            "bursty resume at {threads} thread(s) diverged"
        );
        assert_eq!(
            resumed, uninterrupted,
            "bursty resume at {threads} thread(s)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_metrics_account_for_the_work() {
    let ds = run_study_with(scenario(), CampaignConfig::default());
    let m = &ds.metrics;
    assert_eq!(m.get("campaign.search_rounds"), 38 * 24);
    assert_eq!(m.get("campaign.monitor_rounds"), 38);
    assert_eq!(m.get("campaign.sample_drains"), 38);
    assert!(m.get("transport.attempts") > m.get("discovery.tweets_collected"));
    assert_eq!(m.get("join.joined_groups"), ds.joined.len() as u64);
    let h = m.histogram("discovery.groups_known").expect("histogram");
    assert_eq!(h.count(), 38 * 24);
    assert!(h.max().unwrap() >= h.min().unwrap());
}
