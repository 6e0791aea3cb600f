//! Exp#4 (Figure 10): controller time-usage breakdown (O1–O5).

use omniwindow::experiments::exp4_controller::{self, Exp4Result};
use omniwindow::experiments::Scale;
use ow_bench::Cli;

fn main() {
    let cli = Cli::parse();
    let flows = match cli.scale {
        Scale::Tiny | Scale::Small => 16 * 1024,
        Scale::Paper => 80 * 1024,
    };
    eprintln!("running Exp#4 (controller breakdown): {flows} AFRs per sub-window…");
    let result = exp4_controller::run(flows, 10, cli.seed);

    println!("Exp#4: controller time usage breakdown (Figure 10), µs per sub-window");
    println!("(O2+O3 is one column: MergeTable::insert_block inserts and merges in one call)\n");
    for (label, rows) in [("tumbling", &result.tumbling), ("sliding", &result.sliding)] {
        println!("{label} window:");
        println!(
            "  {:>4} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "sw", "O1", "O2+O3", "O4", "O5", "total"
        );
        for r in rows {
            println!(
                "  {:>4} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
                r.subwindow,
                r.o1_collect,
                r.o23_insert_merge,
                r.o4_process,
                r.o5_evict,
                r.total()
            );
        }
        println!(
            "  mean total: {:.0} µs per sub-window\n",
            Exp4Result::mean_total(rows)
        );
    }
    cli.dump(&result);
}
