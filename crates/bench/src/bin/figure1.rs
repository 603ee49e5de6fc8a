//! Reproduces **Figure 1** of the paper: decompositions of a 1000×1000
//! grid under β ∈ {0.002, 0.005, 0.01, 0.02, 0.05, 0.1}, one PPM image per
//! sub-figure, plus the quantitative claims the caption makes ("lower β
//! leads to larger diameter and fewer edges on the boundaries").
//!
//! Usage: `figure1 [side] [outdir]` (defaults: 1000, `figures/`).

use mpx_bench::{arg_or, f, time, Table};
use mpx_decomp::{partition, DecompOptions, DecompositionStats, Traversal};
use mpx_graph::gen;
use mpx_viz::render_grid_partition;

fn main() {
    let side: usize = arg_or(1, 1000);
    let outdir: String = arg_or(2, "figures".to_string());
    std::fs::create_dir_all(&outdir).expect("create output directory");

    println!("# Figure 1: {side}x{side} grid, paper betas");
    let (g, gen_secs) = time(|| gen::grid2d(side, side));
    println!(
        "grid: n={} m={} (generated in {:.2}s)",
        g.num_vertices(),
        g.num_edges(),
        gen_secs
    );

    let betas = [0.002, 0.005, 0.01, 0.02, 0.05, 0.1];
    let labels = ["a", "b", "c", "d", "e", "f"];
    let ln_n = (g.num_vertices() as f64).ln();

    let mut table = Table::new(&[
        "fig",
        "beta",
        "clusters",
        "max_radius",
        "ln(n)/beta",
        "avg_radius",
        "cut_fraction",
        "cut/beta",
        "seconds",
    ]);
    for (i, &beta) in betas.iter().enumerate() {
        let opts = DecompOptions::new(beta)
            .with_seed(2013 + i as u64)
            .with_traversal(Traversal::TopDownPar);
        let (d, secs) = time(|| partition(&g, &opts));
        let stats = DecompositionStats::compute(&g, &d);
        let img = render_grid_partition(side, side, &d);
        let path = format!("{outdir}/figure1{}_beta{}.ppm", labels[i], beta);
        img.write(&path).expect("write image");
        table.row(&[
            format!("1({})", labels[i]),
            format!("{beta}"),
            stats.num_clusters.to_string(),
            stats.max_radius.to_string(),
            f(ln_n / beta, 0),
            f(stats.avg_radius, 1),
            f(stats.cut_fraction, 4),
            f(stats.cut_fraction / beta, 2),
            f(secs, 2),
        ]);
        println!("wrote {path}");
    }
    table.print();
    println!(
        "\nPaper claim check: radius should track ln(n)/beta (constant factor),\n\
         cut_fraction should track beta (cut/beta roughly constant < 1),\n\
         and both should move monotonically with beta."
    );
}
