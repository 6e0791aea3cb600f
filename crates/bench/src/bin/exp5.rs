//! Exp#5 (Table 2): switch hardware resource breakdown.

use omniwindow::experiments::exp5_resources;
use ow_bench::Cli;
use ow_switch::resources::ResourceConfig;

fn main() {
    let cli = Cli::parse();
    let cfg = ResourceConfig::default();
    let report = exp5_resources::run_with(&cfg);

    println!("Exp#5: switch resource breakdown of Q1 (Table 2)\n");
    println!(
        "{:<20} {:>6} {:>9} {:>5} {:>5} {:>8}",
        "feature", "stage", "SRAM(KB)", "SALU", "VLIW", "gateway"
    );
    for f in &report.features {
        println!(
            "{:<20} {:>6} {:>9} {:>5} {:>5} {:>8}",
            f.feature, f.stages, f.sram_kb, f.salus, f.vliw, f.gateways
        );
    }
    let t = &report.total;
    println!(
        "{:<20} {:>6} {:>9} {:>5} {:>5} {:>8}",
        t.feature, t.stages, t.sram_kb, t.salus, t.vliw, t.gateways
    );
    println!("(rows: sums of the feature steps; Total: the paper's measured build, which");
    println!(" shares stages and VLIW words across features)");
    println!("\nnormalized by (Q1 + switch.p4):");
    for (name, p) in report.normalized_percent() {
        println!("  {name:<8} {p:5.1}%");
    }

    // The greedy packer assigns the same feature steps to physical
    // stages under Tofino-like limits: a lower bound on the measured
    // build, which also shares the pipeline with Q1 + switch.p4.
    let features = ow_switch::placement::omniwindow_features(&cfg);
    let placement =
        ow_switch::placement::place(&features, ow_switch::placement::StageLimits::default())
            .expect("Exp#5 build fits the pipeline");
    println!(
        "\ngreedy placement of the same steps ({} stages used):",
        placement.stages_used
    );
    for (name, stages) in &placement.assignments {
        println!("  {name:<20} stages {stages:?}");
    }
    cli.dump(&report);
}
