//! Ablations of OmniWindow's design choices (DESIGN.md §4): merging
//! strategies, the flattened SALU layout, the flowkey-array trade-off,
//! and the recirculation fan-out.

use omniwindow::experiments::ablations;
use ow_bench::{pct, Cli};

fn main() {
    let cli = Cli::parse();

    println!("Ablation 1: merging strategies (§4.1)");
    let m = ablations::merging_strategies(cli.scale, cli.seed);
    println!(
        "  AFR merging:          recall {}  ARE {:.4}",
        pct(m.afr_recall),
        m.afr_are
    );
    println!(
        "  merge results:        recall {}  (split heavy flows lost)",
        pct(m.results_recall)
    );
    println!(
        "  merge states:         ARE {:.4}  (collision error amplified)",
        m.state_are
    );

    println!("\nAblation 2: flattened two-region layout (§6) — SALUs per packet");
    println!("  {:<14} {:>10} {:>8}", "sketch", "flattened", "naive");
    for row in ablations::salu_ablation() {
        println!(
            "  {:<14} {:>10} {:>8}",
            row.sketch, row.flattened, row.naive
        );
    }

    println!("\nAblation 3: flowkey-array capacity (hybrid OW between CPC and DPC)");
    println!(
        "  {:>9} {:>11} {:>9} {:>9} {:>9}",
        "capacity", "data-plane", "injected", "time", "SRAM"
    );
    for p in ablations::fk_capacity_sweep(64 * 1024) {
        println!(
            "  {:>9} {:>11} {:>9} {:>8.2}ms {:>7}KB",
            p.capacity, p.from_dataplane, p.injected, p.millis, p.sram_kb
        );
    }

    println!("\nExtension: FlowRadar under state migration (§8)");
    {
        use omniwindow::config::WindowConfig;
        use omniwindow::migration::run_flowradar;
        use ow_common::time::Duration;
        use ow_trace::{TraceBuilder, TraceConfig};
        let trace = TraceBuilder::new(TraceConfig {
            duration: Duration::from_millis(1_000),
            flows: 3_000,
            packets: 60_000,
            seed: cli.seed,
            ..TraceConfig::default()
        })
        .build();
        let run = run_flowradar(&trace, &WindowConfig::paper_default());
        println!(
            "  {} windows, every sub-window state decoded completely: {}",
            run.windows.len(),
            run.all_complete
        );
        println!(
            "  per-sub-window migration time (16 recirculating packets): {}",
            run.migration_time
        );
    }

    println!("\nAblation 4: recirculation fan-out (64 K slots)");
    println!(
        "  {:>8} {:>12} {:>16}",
        "packets", "enumerate", "fits sub-window"
    );
    for p in ablations::recirc_sweep(65_536) {
        println!(
            "  {:>8} {:>10.2}ms {:>16}",
            p.packets,
            p.enumerate_ms,
            if p.fits_subwindow { "yes" } else { "no" }
        );
    }
}
