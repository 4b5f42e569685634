//! Extreme-event scenarios: tropical cyclones and blocking heatwaves.
//!
//! The paper's Figs. 5b and 6 study Hurricane Laura and the August 2020
//! European heatwave. The toy substitute seeds analogous events into the
//! dynamical core at configurable times/places, so "truth" runs contain a
//! trackable, rapidly intensifying warm-core vortex and a multi-day blocking
//! heat anomaly that forecast models must capture.

use crate::grid::Grid;

/// A seeded tropical cyclone.
#[derive(Clone, Copy, Debug)]
pub struct CycloneSeed {
    /// Genesis time (hours since simulation start).
    pub genesis_hours: f64,
    /// Genesis latitude (degrees).
    pub lat: f32,
    /// Genesis longitude (degrees east).
    pub lon: f32,
    /// Lifetime during which forcing remains active (hours).
    pub lifetime_hours: f64,
    /// Peak vorticity forcing amplitude (1/s per day of forcing).
    pub peak_amp: f32,
    /// Core radius (meters).
    pub radius_m: f32,
}

impl CycloneSeed {
    /// A Hurricane-Laura-like seed: Atlantic genesis at low latitude, 7-day
    /// lifetime, rapid intensification.
    pub fn laura_like(genesis_hours: f64) -> Self {
        CycloneSeed {
            genesis_hours,
            lat: 16.0,
            lon: 300.0, // 60°W
            lifetime_hours: 8.0 * 24.0,
            peak_amp: 2.0e-5,
            // Core radius: resolvable at toy grids (>= 2 cells at 16x32; the
            // dealiasing filter removes structures much smaller than this).
            radius_m: 1.6e6,
        }
    }
}

/// A seeded blocking heatwave.
#[derive(Clone, Copy, Debug)]
pub struct HeatwaveSeed {
    /// Onset (hours since simulation start).
    pub onset_hours: f64,
    /// Duration of the block (hours).
    pub duration_hours: f64,
    /// Center latitude (degrees).
    pub lat: f32,
    /// Center longitude (degrees east).
    pub lon: f32,
    /// Peak near-surface heating rate (K/day at the center).
    pub heating: f32,
    /// Block radius (meters).
    pub radius_m: f32,
}

impl HeatwaveSeed {
    /// A UK-2020-like heatwave: block over western Europe.
    pub fn europe_like(onset_hours: f64) -> Self {
        HeatwaveSeed {
            onset_hours,
            duration_hours: 7.0 * 24.0,
            lat: 51.5,
            lon: 0.0, // London
            heating: 3.0,
            radius_m: 1.4e6,
        }
    }
}

/// Mutable per-cyclone runtime state tracked by the dynamical core.
#[derive(Clone, Copy, Debug)]
pub struct CycloneState {
    pub seed: CycloneSeed,
    /// Current center (continuous grid coordinates: row, col).
    pub row: f32,
    pub col: f32,
    /// Current intensity in [0, 1] of `peak_amp`.
    pub intensity: f32,
    pub active: bool,
}

impl CycloneState {
    /// Initial state at the genesis point.
    pub fn new(seed: CycloneSeed, grid: Grid) -> Self {
        CycloneState {
            seed,
            row: grid.row_of_lat(seed.lat) as f32,
            col: grid.col_of_lon(seed.lon) as f32,
            intensity: 0.05,
            active: false,
        }
    }
}

/// A full experiment scenario: the set of events active in a truth run.
#[derive(Clone, Debug, Default)]
pub struct Scenario {
    pub cyclones: Vec<CycloneSeed>,
    pub heatwaves: Vec<HeatwaveSeed>,
    /// Initial ENSO (phase radians, amplitude K); defaults to (0.9, 1.1) —
    /// a decaying warm event like early 2020.
    pub enso_init: Option<(f64, f64)>,
}

impl Scenario {
    /// Quiet climate: no seeded events (dynamics still produce weather).
    pub fn quiet() -> Self {
        Scenario::default()
    }
}

/// Gaussian bump of radius `radius_m` centered at continuous grid coordinates
/// `(row0, col0)`, evaluated over the whole grid with zonal periodicity.
/// Returns a `[tokens]` field with peak 1.
pub fn gaussian_bump(grid: Grid, row0: f32, col0: f32, radius_m: f32) -> Vec<f32> {
    let dy_m = 2.0e7 / grid.nlat as f32;
    let dx_m = 4.0e7 / grid.nlon as f32;
    let mut out = vec![0.0f32; grid.tokens()];
    let inv2r2 = 1.0 / (2.0 * radius_m * radius_m);
    for r in 0..grid.nlat {
        let dy = (r as f32 - row0) * dy_m;
        for c in 0..grid.nlon {
            let mut dcol = (c as f32 - col0).abs();
            if dcol > grid.nlon as f32 / 2.0 {
                dcol = grid.nlon as f32 - dcol;
            }
            let dx = dcol * dx_m;
            let d2 = dx * dx + dy * dy;
            let v = (-d2 * inv2r2).exp();
            if v > 1e-6 {
                out[grid.index(r, c)] = v;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's case-study period: a Laura-like cyclone and a European
    /// heatwave within a 90-day window, under a decaying warm ENSO.
    fn case_studies_2020(start_offset_hours: f64) -> Scenario {
        Scenario {
            cyclones: vec![CycloneSeed::laura_like(start_offset_hours + 30.0 * 24.0)],
            heatwaves: vec![HeatwaveSeed::europe_like(start_offset_hours + 20.0 * 24.0)],
            enso_init: Some((0.9, 1.1)),
        }
    }

    #[test]
    fn bump_peaks_at_center_and_wraps_zonally() {
        let g = Grid::new(16, 32);
        let b = gaussian_bump(g, 8.0, 0.0, 2.0e6);
        assert!((b[g.index(8, 0)] - 1.0).abs() < 1e-6);
        // Periodic in longitude: column 31 is as close as column 1.
        assert!((b[g.index(8, 1)] - b[g.index(8, 31)]).abs() < 1e-6);
        // Decays away.
        assert!(b[g.index(8, 16)] < b[g.index(8, 2)]);
    }

    #[test]
    fn scenario_case_studies_has_events() {
        let s = case_studies_2020(0.0);
        assert_eq!(s.cyclones.len(), 1);
        assert_eq!(s.heatwaves.len(), 1);
        assert!(s.enso_init.is_some());
        assert!(s.cyclones[0].genesis_hours > s.heatwaves[0].onset_hours);
    }

    #[test]
    fn cyclone_state_initializes_at_genesis_point() {
        let g = Grid::new(32, 64);
        let seed = CycloneSeed::laura_like(0.0);
        let st = CycloneState::new(seed, g);
        assert_eq!(st.row, g.row_of_lat(16.0) as f32);
        assert_eq!(st.col, g.col_of_lon(300.0) as f32);
        assert!(!st.active);
        assert!(st.intensity < 0.1);
    }
}
