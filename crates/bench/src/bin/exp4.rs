//! Exp#4 (Figure 10): controller time-usage breakdown (O1–O5).

use omniwindow::experiments::exp4_controller::{self, BreakdownRow, Exp4Result};
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
    println!("(O2+O3 is one column: MergeTable::insert_block inserts and merges in one call;");
    println!(
        " the paper row gives Figure 10's O2 alone in that column, and - where it states none)\n"
    );
    // Figure 10 at 80 K AFRs: O2 1.8 ms, O5 1.46 ms (sliding only),
    // totals 2.58 / 4.0 ms.
    let paper = [
        (
            "tumbling",
            &result.tumbling,
            [None, Some(1800.0), None, Some(0.0), Some(2580.0)],
        ),
        (
            "sliding",
            &result.sliding,
            [None, Some(1800.0), None, Some(1460.0), Some(4000.0)],
        ),
    ];
    for (label, rows, paper) in paper {
        println!("{label} window:");
        println!(
            "  {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "sw", "O1", "O2+O3", "O4", "O5", "total"
        );
        for r in rows {
            println!(
                "  {:>5} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
                r.subwindow,
                r.o1_collect,
                r.o23_insert_merge,
                r.o4_process,
                r.o5_evict,
                r.total()
            );
        }
        let n = rows.len().max(1) as f64;
        let mean = |f: fn(&BreakdownRow) -> f64| rows.iter().map(f).sum::<f64>() / n;
        println!(
            "  {:>5} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            "mean",
            mean(|r| r.o1_collect),
            mean(|r| r.o23_insert_merge),
            mean(|r| r.o4_process),
            mean(|r| r.o5_evict),
            Exp4Result::mean_total(rows)
        );
        let cell = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.0}"));
        println!(
            "  {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "paper",
            cell(paper[0]),
            cell(paper[1]),
            cell(paper[2]),
            cell(paper[3]),
            cell(paper[4])
        );
        println!(
            "  mean total: {:.0} µs per sub-window (paper: {:.0})\n",
            Exp4Result::mean_total(rows),
            paper[4].unwrap_or(0.0)
        );
    }
    cli.dump(&result);
}
