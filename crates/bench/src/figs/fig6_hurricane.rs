//! Fig. 6: cyclone track and intensity forecasts at decreasing lead times
//! (paper: Hurricane Laura at 7/5/3 days before landfall).
//!
//! Truth positions come from the simulator's kinematic cyclone state (the
//! "best track"); member storms are located with guided (matched-low)
//! tracking around the best track, the standard verification practice.

use crate::{build_dataset, cells, forcing_provider, sim_at, standard_scenario, train_aeris};
use crate::{Report, RunScale, Table};
use aeris_evaluation::{track_cyclone_guided, CycloneTrack};
use aeris_tensor::Tensor;

pub fn run(scale: &RunScale) -> Report {
    let seed = 2020;
    let scenario = standard_scenario();
    let storm = scenario.cyclones.len() - 1;
    let genesis_hours = scenario.cyclones[storm].genesis_hours;
    let ds = build_dataset(seed, scenario.clone(), 460);
    let genesis_step = (genesis_hours / 6.0) as usize;
    let verify_steps = 24usize; // 6 days
    let mut r = Report::new("Fig 6: cyclone track & intensity by lead time");
    r.value("test cyclone genesis at dataset step", genesis_step, 0, "");
    r.value("genesis hour", genesis_hours, 0, "");

    // Best track: replay the truth simulator and read the kinematic cyclone
    // center each step.
    let mut sim = sim_at(seed, scenario, genesis_step);
    let g = ds.grid;
    let guide: Vec<(f32, f32)> = (0..verify_steps)
        .map(|_| {
            sim.step();
            let cy = sim.cyclones()[storm];
            let row = (cy.row.round() as usize).min(g.nlat - 1);
            (g.lat_deg(row), g.lon_deg(cy.col.round() as usize % g.nlon))
        })
        .collect();

    // Truth track: matched lows on the recorded truth states.
    let truth_states: Vec<Tensor> = (1..=verify_steps).map(|k| ds.state(genesis_step + k).clone()).collect();
    let truth = track_cyclone_guided(&truth_states, g, &ds.vars, &guide, 900.0);
    r.section("truth (best-track-matched), daily from genesis");
    let mut t = Table::new(&[
        ("day", 6, 1), ("lat", 8, 1), ("lon", 8, 1), ("mslp (hPa)", 12, 1), ("max wind (m/s)", 16, 1),
    ]);
    for (k, p) in truth.points.iter().enumerate().step_by(4) {
        t.row(cells![(k + 1) as f64 / 4.0, p.lat, p.lon, p.mslp, p.max_wind]);
    }
    r.table(t);
    r.value("truth minimum central pressure", truth.min_mslp(), 1, "hPa");

    let aeris = train_aeris(&ds, scale, seed);
    r.section("ensemble forecasts by lead");
    let mut t = Table::new(&[
        ("lead (d)", 9, 0), ("mean track err (km)", 21, 0), ("best member (km)", 18, 0),
        ("mean min MSLP (hPa)", 21, 1), ("truth (hPa)", 13, 1)
    ]);
    for lead_days in [7usize, 5, 3] {
        let i0 = genesis_step.saturating_sub(lead_days * 4).max(1);
        let steps = genesis_step + verify_steps - i0;
        let forc = forcing_provider(seed, ds.time(i0));
        let ens = aeris.ensemble(ds.state(i0), &forc, steps, scale.members, 600 + lead_days as u64);

        let offset = genesis_step - i0;
        let tracks: Vec<CycloneTrack> = ens
            .members
            .iter()
            .map(|m| track_cyclone_guided(&m[offset..offset + verify_steps], g, &ds.vars, &guide, 900.0))
            .collect();
        let errors: Vec<f32> = tracks.iter().map(|t| t.mean_track_error_km(&truth)).collect();
        let mean_err = errors.iter().sum::<f32>() / tracks.len() as f32;
        let best_err = errors.iter().copied().fold(f32::INFINITY, f32::min);
        let mean_min_mslp = tracks.iter().map(|t| t.min_mslp()).sum::<f32>() / tracks.len() as f32;
        t.row(cells![lead_days, mean_err, best_err, mean_min_mslp, truth.min_mslp()]);
    }
    r.table(t);
    r.note("\nPaper shape: track errors shrink with lead time; the intensification");
    r.note("(central pressure drop) is captured at the shorter leads.");
    r
}
