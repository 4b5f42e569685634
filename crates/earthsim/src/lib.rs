//! Toy global Earth system: the ERA5-substitute substrate for the AERIS
//! reproduction.
//!
//! Contents:
//! - [`grid`]: pole-trimmed equiangular lat-lon grid and region math,
//! - [`variables`]: the paper's prognostic variable/channel structure,
//! - [`climate`]: seasonal climatology, solar/orography/land forcings,
//! - [`spectral`]: FFT-based operators for the dynamical core,
//! - [`dynamics`]: the forced-dissipative toy atmosphere (+ slab ocean),
//! - [`ocean`]: ENSO recharge oscillator with a spring barrier,
//! - [`events`]: seeded tropical cyclones and blocking heatwaves,
//! - [`dataset`]: trajectory sampling, normalization statistics, loaders.

#![forbid(unsafe_code)]

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod climate;
pub mod dataset;
pub mod dynamics;
pub mod events;
pub mod grid;
pub mod ocean;
pub mod spectral;
pub mod variables;

pub use climate::Climate;
pub use dataset::{Dataset, NormStats, SamplePair};
pub use dynamics::{forcings_at, render_climatology, ToyAtmosphere, ToyParams};
pub use events::{CycloneSeed, HeatwaveSeed, Scenario};
pub use grid::{Grid, Region, EQUATORIAL_BAND, NINO34};
pub use ocean::Enso;
pub use variables::{Channel, SurfaceVar, UpperVar, VariableSet, PAPER_LEVELS};
