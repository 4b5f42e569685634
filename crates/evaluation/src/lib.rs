//! Forecast evaluation (§VII-B): the WeatherBench-style probabilistic metrics
//! and the domain diagnostics behind Figs. 5–7.
//!
//! - [`metrics`]: latitude-weighted RMSE, ensemble-mean RMSE, fair CRPS,
//!   spread/skill ratio, anomaly correlation,
//! - [`assimilation`]: analysis RMSE/spread vs observation density and noise
//!   (guided nowcasts vs the unguided baseline),
//! - `distillation` (test-only until a figure runs it): student-vs-teacher
//!   gap RMSE and spread over lead time (what the serving fast tier trades
//!   for its latency),
//! - [`spectra`]: zonal power spectra and spectral ratios (blur detection),
//! - [`hovmoller`]: equatorial Hovmöller diagrams and pattern correlation,
//! - [`nino`]: Niño 3.4 index series,
//! - [`cyclone`]: MSLP-minimum tracker, track and intensity errors,
//! - [`heatwave`]: point time-series extraction and exceedance diagnostics.

#![forbid(unsafe_code)]

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod assimilation;
pub mod cyclone;
#[cfg(test)]
mod distillation;
pub mod heatwave;
pub mod hovmoller;
pub mod metrics;
pub mod nino;
pub mod spectra;

pub use assimilation::{analysis_quality, AssimEvalConfig, AssimPoint};
pub use cyclone::{track_cyclone, track_cyclone_guided, CycloneTrack, TrackPoint};
pub use heatwave::point_series;
pub use hovmoller::{hovmoller as hovmoller_diagram, pattern_correlation};
pub use metrics::{acc, crps, ensemble_mean, rmse, spread, ssr};
pub use nino::nino34_series;
pub use spectra::zonal_spectrum;
