//! Domain scenario: in-situ visualization of a heat-transfer run, producing
//! a real image sequence.
//!
//! Runs the in-situ pipeline over a 256×256 plate with two hot sources,
//! keeps the rendered frames, and writes the PPM sequence to `./heat_movie/`
//! on the *host* filesystem so you can open it (e.g.
//! `ffmpeg -i heat_movie/frame%04d.ppm movie.mp4`). Also prints the run's
//! green metrics.
//!
//! ```sh
//! cargo run --release --example insitu_heat_movie
//! ```

use greenness_core::{experiment, pipeline::PipelineKind, PipelineConfig};
use greenness_viz::encode_ppm;

fn main() -> std::io::Result<()> {
    let mut cfg = PipelineConfig::case_study(1);
    cfg.label = "heat movie (256x256, 40 steps)".into();
    cfg.grid_nx = 256;
    cfg.grid_ny = 256;
    cfg.timesteps = 40;
    cfg.solver = PipelineConfig::default_solver(256, 256);
    cfg.render.width = 256;
    cfg.render.height = 256;
    cfg.keep_frames = true;

    println!("running the in-situ pipeline ({} steps)...", cfg.timesteps);
    let report = experiment::run(
        PipelineKind::InSitu,
        &cfg,
        &experiment::ExperimentSetup::default(),
    )
    .expect("run ok");

    std::fs::create_dir_all("heat_movie")?;
    let mut written = 0usize;
    for frame in &report.output.frames {
        std::fs::write(
            format!("heat_movie/frame{:04}.ppm", frame.step),
            encode_ppm(&frame.image),
        )?;
        written += 1;
    }

    println!("wrote {written} frames to ./heat_movie/");
    println!(
        "virtual run: {:.1} s, {:.1} W avg, {:.1} kJ",
        report.metrics.execution_time_s,
        report.metrics.average_power_w,
        report.metrics.energy_j / 1000.0
    );
    println!("power profile: {}", report.profile.ascii_sparkline(60));
    Ok(())
}
