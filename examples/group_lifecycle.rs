//! Group ephemerality: run the campaign and show how quickly invite URLs
//! die on each platform (the paper's Fig 6 finding that 68% of Discord
//! URLs are gone within the study, most before the first daily check).
//!
//! ```sh
//! cargo run --release --example group_lifecycle
//! ```

use chatlens::analysis::fold_dataset;
use chatlens::analysis::lifecycle::LifecycleFold;
use chatlens::platforms::id::PlatformKind;
use chatlens::report::series::sparkline;
use chatlens::report::table::{fmt_pct, Table};
use chatlens::{run_study, ScenarioConfig};

fn main() {
    println!("running the campaign at scale 0.02...\n");
    let dataset = run_study(ScenarioConfig::at_scale(0.02));
    let lifecycle = fold_dataset(&dataset, LifecycleFold::new()).output();

    let mut table = Table::new("URL ephemerality (paper: 27.3% / 20.4% / 68.4% revoked)").header([
        "Platform",
        "observed",
        "revoked",
        "dead on arrival",
        "median lifetime (days)",
    ]);
    for kind in PlatformKind::ALL {
        let s = &lifecycle.revocation[kind.index()];
        table.row([
            kind.name().to_string(),
            s.observed.to_string(),
            fmt_pct(s.revoked_fraction),
            fmt_pct(s.dead_on_arrival_fraction),
            s.lifetime_days
                .median()
                .map(|d| format!("{d:.0}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{}", table.render());

    println!("revocations observed per study day:");
    for kind in PlatformKind::ALL {
        let s = &lifecycle.revocation[kind.index()];
        println!("  {:<8} {}", kind.name(), sparkline(&s.revoked_per_day));
    }

    println!("\nstaleness (age when first shared; paper Fig 5):");
    for kind in PlatformKind::ALL {
        let e = &lifecycle.staleness[kind.index()];
        if e.is_empty() {
            continue;
        }
        println!(
            "  {:<8} same-day {}  >1 year {}  oldest {:.0} days",
            kind.name(),
            fmt_pct(e.fraction_at_most(0.0)),
            fmt_pct(e.fraction_above(365.0)),
            e.max().unwrap_or(0.0)
        );
    }
    println!(
        "\ntakeaway: WhatsApp groups are shared fresh and last; Discord \
         invites are usually dead before anyone checks — studies that crawl \
         such URLs must collect in near-real-time."
    );
}
