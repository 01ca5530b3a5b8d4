//! # greenness-viz
//!
//! The visualization stage shared by both pipelines: a small software
//! renderer that turns heat-field snapshots into images. In the
//! post-processing pipeline it consumes snapshots read back from disk; in the
//! in-situ pipeline it renders directly from the solver's memory — the only
//! difference the paper studies is *where the data comes from*, so the
//! renderer itself is deliberately identical in both (and the
//! `image_equivalence` integration test asserts the outputs are
//! byte-identical).
//!
//! Components: perceptual-ish [`colormap`]s, a scalar-field [`raster`]izer,
//! a [`image`] (PPM) encoder whose output flows through the simulated
//! filesystem, the [`sample`] operator for the data-sampling optimization
//! the paper cites (refs [21]–[23]), and the [`cost`] model that charges
//! rendering work to the platform.

pub mod colormap;
pub mod cost;
pub mod image;
pub mod raster;
pub mod sample;

pub use colormap::Colormap;
pub use cost::RenderCostModel;
pub use image::{encode_ppm, ppm_size_bytes};
pub use raster::{render_field, render_field_hashed, Framebuffer, RenderOptions};
pub use sample::stride_sample;

#[cfg(any(test, feature = "reference"))]
pub use image::decode_ppm;
#[cfg(any(test, feature = "reference"))]
pub use raster::render_field_reference;
