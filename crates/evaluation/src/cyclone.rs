//! Tropical cyclone tracking and verification (Fig. 6).
//!
//! The standard feature-tracking approach: locate the minimum MSLP within a
//! search radius of the previous center, record the center, central pressure,
//! and maximum near-center 10m wind speed. Track error is the great-circle
//! distance to the reference track.

use aeris_earthsim::{Grid, VariableSet};
use aeris_tensor::Tensor;

/// One tracked position.
#[derive(Clone, Copy, Debug)]
pub struct TrackPoint {
    pub lat: f32,
    pub lon: f32,
    /// Central (minimum) MSLP (hPa).
    pub mslp: f32,
    /// Maximum 10m wind within the core (m/s).
    pub max_wind: f32,
}

/// A cyclone track over forecast steps.
#[derive(Clone, Debug, Default)]
pub struct CycloneTrack {
    pub points: Vec<TrackPoint>,
}

/// Great-circle distance between two points (km), spherical earth R=6371 km.
pub fn great_circle_km(lat1: f32, lon1: f32, lat2: f32, lon2: f32) -> f32 {
    let (p1, p2) = (lat1.to_radians(), lat2.to_radians());
    let dl = (lon2 - lon1).to_radians();
    let c = (p1.sin() * p2.sin() + p1.cos() * p2.cos() * dl.cos()).clamp(-1.0, 1.0);
    6371.0 * c.acos()
}

/// One fix on state `s`: the MSLP minimum within `search_km` of `center`,
/// with the maximum 10 m wind within ±2 cells of it. `ix` holds the
/// `(mslp, u10, v10)` channel indices.
fn fix(
    s: &Tensor,
    grid: Grid,
    ix: (usize, usize, usize),
    (lat, lon): (f32, f32),
    search_km: f32,
) -> TrackPoint {
    let (mslp_ix, u10, v10) = ix;
    let mut best: Option<(f32, usize)> = None;
    for t in 0..grid.tokens() {
        let (r, c) = grid.coords(t);
        if great_circle_km(lat, lon, grid.lat_deg(r), grid.lon_deg(c)) > search_km {
            continue;
        }
        let p = s.at(&[t, mslp_ix]);
        if best.is_none_or(|(bp, _)| p < bp) {
            best = Some((p, t));
        }
    }
    let (pmin, tmin) = best.expect("search radius contains no grid cells");
    let (r, c) = grid.coords(tmin);
    let mut max_wind = 0.0f32;
    for dr in -2i32..=2 {
        for dc in -2i32..=2 {
            let rr = r as i32 + dr;
            if rr < 0 || rr >= grid.nlat as i32 {
                continue;
            }
            let cc = ((c as i32 + dc).rem_euclid(grid.nlon as i32)) as usize;
            let i = grid.index(rr as usize, cc);
            let w = s.at(&[i, u10]).hypot(s.at(&[i, v10]));
            max_wind = max_wind.max(w);
        }
    }
    TrackPoint { lat: grid.lat_deg(r), lon: grid.lon_deg(c), mslp: pmin, max_wind }
}

/// The `(mslp, u10, v10)` channel indices a tracker reads.
fn channels(vars: &VariableSet) -> (usize, usize, usize) {
    let ix = |name: &str| vars.index_of(name).unwrap_or_else(|| panic!("needs {name}"));
    (ix("mslp"), ix("u10"), ix("v10"))
}

/// Track a cyclone through a state sequence, starting the search at
/// `(lat0, lon0)` and following the MSLP minimum within `search_km` of the
/// previous fix each step.
pub fn track_cyclone(
    states: &[Tensor],
    grid: Grid,
    vars: &VariableSet,
    lat0: f32,
    lon0: f32,
    search_km: f32,
) -> CycloneTrack {
    let ix = channels(vars);
    let mut center = (lat0, lon0);
    let points = states
        .iter()
        .map(|s| {
            let p = fix(s, grid, ix, center, search_km);
            center = (p.lat, p.lon);
            p
        })
        .collect();
    CycloneTrack { points }
}

/// Guided tracking (matched-low verification, as used operationally): at
/// each step the MSLP minimum is located within `search_km` of the provided
/// reference position for that step, rather than of the previous fix. This
/// keeps verification on the storm of interest even while it is shallow.
pub fn track_cyclone_guided(
    states: &[Tensor],
    grid: Grid,
    vars: &VariableSet,
    guide: &[(f32, f32)],
    search_km: f32,
) -> CycloneTrack {
    assert!(states.len() <= guide.len(), "guide must cover every step");
    let ix = channels(vars);
    let points = states.iter().zip(guide).map(|(s, &g)| fix(s, grid, ix, g, search_km)).collect();
    CycloneTrack { points }
}

impl CycloneTrack {
    /// Mean track error (km) against a reference track (pointwise).
    pub fn mean_track_error_km(&self, reference: &CycloneTrack) -> f32 {
        let n = self.points.len().min(reference.points.len());
        assert!(n > 0);
        let mut acc = 0.0f32;
        for i in 0..n {
            let (a, b) = (self.points[i], reference.points[i]);
            acc += great_circle_km(a.lat, a.lon, b.lat, b.lon);
        }
        acc / n as f32
    }

    /// Minimum central pressure over the track (peak intensity).
    pub fn min_mslp(&self) -> f32 {
        self.points.iter().map(|p| p.mslp).fold(f32::INFINITY, f32::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn great_circle_sanity() {
        assert!(great_circle_km(0.0, 0.0, 0.0, 0.0) < 1e-3);
        // Quarter circumference pole to equator ≈ 10,008 km.
        let d = great_circle_km(0.0, 0.0, 90.0, 0.0);
        assert!((d - 10_007.5).abs() < 10.0);
        // Longitude wrap.
        let d2 = great_circle_km(0.0, 359.0, 0.0, 1.0);
        assert!(d2 < 250.0, "wrapped distance {d2}");
    }

    fn synthetic_state(grid: Grid, vars: &VariableSet, low_lat: f32, low_lon: f32) -> Tensor {
        let mslp_ix = vars.index_of("mslp").unwrap();
        let mut s = Tensor::zeros(&[grid.tokens(), vars.len()]);
        for t in 0..grid.tokens() {
            let (r, c) = grid.coords(t);
            let d = great_circle_km(low_lat, low_lon, grid.lat_deg(r), grid.lon_deg(c));
            *s.at_mut(&[t, mslp_ix]) = 1013.0 - 30.0 * (-d * d / (800.0 * 800.0)).exp();
        }
        s
    }

    #[test]
    fn tracker_follows_a_moving_low() {
        let grid = Grid::new(32, 64);
        let vars = VariableSet::default_toy();
        let states: Vec<Tensor> = (0..5)
            .map(|k| synthetic_state(grid, &vars, 15.0 + 2.0 * k as f32, 300.0 - 3.0 * k as f32))
            .collect();
        let track = track_cyclone(&states, grid, &vars, 15.0, 300.0, 1500.0);
        assert_eq!(track.points.len(), 5);
        // Moves poleward and westward.
        assert!(track.points[4].lat > track.points[0].lat + 3.0);
        assert!(track.points[4].lon < track.points[0].lon - 3.0);
        assert!(track.min_mslp() < 990.0);
    }

    #[test]
    fn guided_tracker_stays_on_the_guide() {
        let grid = Grid::new(32, 64);
        let vars = VariableSet::default_toy();
        // Two lows: a deep one far away and a weak one on the guide path.
        let mslp_ix = vars.index_of("mslp").unwrap();
        let mut s = synthetic_state(grid, &vars, 15.0, 200.0); // weak target low
        for t in 0..grid.tokens() {
            let (r, c) = grid.coords(t);
            let d = great_circle_km(50.0, 40.0, grid.lat_deg(r), grid.lon_deg(c));
            let deep = 45.0 * (-d * d / (900.0 * 900.0)).exp();
            *s.at_mut(&[t, mslp_ix]) -= deep;
        }
        let guided = track_cyclone_guided(&[s], grid, &vars, &[(15.0, 200.0)], 900.0);
        // The guided fix must be the nearby weak low, not the deep remote one.
        assert!((guided.points[0].lat - 15.0).abs() < 10.0);
        assert!((guided.points[0].lon - 200.0).abs() < 15.0);
    }

    #[test]
    fn guided_on_the_previous_fixes_is_the_unguided_track() {
        let grid = Grid::new(32, 64);
        let vars = VariableSet::default_toy();
        let u10 = vars.index_of("u10").unwrap();
        let states: Vec<Tensor> = (0..5)
            .map(|k| {
                let mut s =
                    synthetic_state(grid, &vars, 15.0 + 2.0 * k as f32, 300.0 - 3.0 * k as f32);
                for t in 0..grid.tokens() {
                    *s.at_mut(&[t, u10]) = (t as f32 * 0.37 + k as f32).sin() * 20.0;
                }
                s
            })
            .collect();
        let unguided = track_cyclone(&states, grid, &vars, 15.0, 300.0, 1500.0);
        assert!(unguided.points.iter().all(|p| p.max_wind > 0.0));
        let guide: Vec<(f32, f32)> = std::iter::once((15.0, 300.0))
            .chain(unguided.points.iter().map(|p| (p.lat, p.lon)))
            .take(states.len())
            .collect();
        let guided = track_cyclone_guided(&states, grid, &vars, &guide, 1500.0);
        let bits = |t: &CycloneTrack| -> Vec<[u32; 4]> {
            let point = |p: &TrackPoint| [p.lat, p.lon, p.mslp, p.max_wind].map(f32::to_bits);
            t.points.iter().map(point).collect()
        };
        assert_eq!(bits(&guided), bits(&unguided));
    }

    #[test]
    fn track_error_zero_against_itself() {
        let grid = Grid::new(16, 32);
        let vars = VariableSet::default_toy();
        let states = vec![synthetic_state(grid, &vars, 20.0, 280.0)];
        let t = track_cyclone(&states, grid, &vars, 20.0, 280.0, 2000.0);
        assert!(t.mean_track_error_km(&t) < 1e-3);
    }
}
