//! Multi-node study (the paper's §VI-A future work): in-situ vs
//! post-processing vs in-transit on a cluster with a striped parallel
//! filesystem, plus a compute-node scaling sweep.
//!
//! ```sh
//! cargo run --release --example cluster_study
//! ```

use greenness_cluster::{ClusterConfig, ClusterKind};
use greenness_core::pipeline::cluster::run_cluster;
use greenness_core::report;

fn main() {
    let cfg = ClusterConfig::small(4, 2);
    println!(
        "cluster: {} compute nodes + {} PFS servers + 1 viz node, {} steps\n",
        cfg.compute_nodes, cfg.io_servers, cfg.timesteps
    );

    let mut rows = Vec::new();
    for kind in [
        ClusterKind::PostProcessing,
        ClusterKind::InSitu,
        ClusterKind::InTransit,
    ] {
        let r = run_cluster(kind, &cfg).expect("example cluster fits its PFS");
        rows.push(vec![
            format!("{kind:?}"),
            report::f(r.makespan_s, 2),
            report::f(r.total_energy_j / 1000.0, 2),
            report::f(r.compute_energy_j / 1000.0, 2),
            report::f(r.io_energy_j / 1000.0, 2),
            report::f(r.viz_energy_j / 1000.0, 2),
            report::f(r.average_power_w, 0),
        ]);
    }
    print!(
        "{}",
        report::render_table(
            "Distributed pipelines (energies in kJ)",
            &[
                "Pipeline",
                "Makespan (s)",
                "Total",
                "Compute",
                "PFS",
                "Viz",
                "Avg W"
            ],
            &rows
        )
    );

    println!("\ncompute-node scaling (post-processing):");
    let mut rows = Vec::new();
    for nodes in [2usize, 4, 8] {
        let mut c = ClusterConfig::small(nodes, 2);
        c.timesteps = 8;
        let r = run_cluster(ClusterKind::PostProcessing, &c).expect("example cluster fits its PFS");
        rows.push(vec![
            format!("{nodes} nodes"),
            report::f(r.makespan_s, 2),
            report::f(r.total_energy_j / 1000.0, 2),
            report::f(r.work_units / r.total_energy_j * 1000.0, 2),
        ]);
    }
    print!(
        "{}",
        report::render_table(
            "Scaling sweep",
            &["Cluster", "Makespan (s)", "Energy (kJ)", "Cell-updates/mJ"],
            &rows
        )
    );
    println!("\nfaster makespans, but aggregate energy grows with the node count —");
    println!("the static-power effect the paper identified, amplified by scale.");
}
