//! Fig. 5b: heatwave ensemble forecast over the event location (paper:
//! London, August 2020, lead > 1 week): the truth T2m series, the ensemble
//! envelope, the closest member and the exceedance fraction.

use crate::{build_dataset, cells, envelope, forcing_provider, standard_scenario, train_aeris};
use crate::{Report, RunScale, Table};
use aeris_evaluation::heatwave::{exceedance_fraction, point_series};
use aeris_tensor::Tensor;

pub fn run(scale: &RunScale) -> Report {
    let seed = 2020;
    let scenario = standard_scenario();
    let hw = *scenario.heatwaves.last().unwrap();
    let ds = build_dataset(seed, scenario, 460);
    let onset_step = (hw.onset_hours / 6.0) as usize;
    let lead_steps = 8 * 4; // launch 8 days before onset
    let event_steps = (hw.duration_hours / 6.0) as usize;
    let i0 = onset_step.saturating_sub(lead_steps);
    let horizon = lead_steps + event_steps + 8;
    let mut r = Report::new("Fig 5b: heatwave ensemble forecast at the event location");
    r.value("heatwave onset at step", onset_step, 0, "");
    r.value("forecast launched, steps earlier", lead_steps, 0, "");

    let aeris = train_aeris(&ds, scale, seed);
    let t2m = ds.vars.index_of("t2m").unwrap();
    let forc = forcing_provider(seed, ds.time(i0));
    let ens = aeris.ensemble(ds.state(i0), &forc, horizon, scale.members, 51);

    let truth_states: Vec<Tensor> = (1..=horizon).map(|k| ds.state(i0 + k).clone()).collect();
    let truth = point_series(&truth_states, ds.grid, hw.lat, hw.lon, t2m);
    let member_series: Vec<Vec<f32>> =
        ens.members.iter().map(|m| point_series(m, ds.grid, hw.lat, hw.lon, t2m)).collect();

    // Closest member by point-series RMSE (the first of equals).
    let rmse_of = |s: &Vec<f32>| {
        (s.iter().zip(&truth).map(|(a, b)| ((a - b) * (a - b)) as f64).sum::<f64>() / truth.len() as f64).sqrt()
    };
    let closest = member_series
        .iter()
        .map(rmse_of)
        .enumerate()
        .fold((0usize, f64::INFINITY), |acc, (i, e)| if e < acc.1 { (i, e) } else { acc })
        .0;

    r.section(format!("T2m at ({:.1}N, {:.1}E), daily", hw.lat, hw.lon));
    let mut t = Table::new(&[
        ("day", 6, 1), ("truth", 9, 1), ("ens-min", 9, 1), ("ens-mean", 9, 1), ("ens-max", 9, 1),
        ("closest", 9, 1)
    ]);
    for k in (3..horizon).step_by(4) {
        let [min, mean, max] = envelope(member_series.iter().map(|s| s[k]));
        t.row(cells![(k + 1) as f64 / 4.0, truth[k], min, mean, max, member_series[closest][k]]);
    }
    r.table(t);

    // Exceedance: did the ensemble catch the anomalous warmth? Threshold =
    // pre-event truth level + 2 K, tested during the event window.
    let pre = lead_steps.min(truth.len());
    let baseline = truth[..pre].iter().sum::<f32>() / pre as f32;
    let (t0, t1) = (lead_steps, (lead_steps + event_steps).min(horizon));
    let truth_peak = truth[t0..t1].iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let frac = exceedance_fraction(&member_series, baseline + 2.0, t0, t1);
    r.note("");
    r.value("pre-event baseline", baseline, 1, "K");
    r.value("truth event peak", truth_peak, 1, "K");
    r.value("members exceeding baseline+2K during the event", frac * 100.0, 0, "%");
    r.note("\nPaper shape: members capture the sharp rise then return to climatology,");
    r.note("with the ensemble mean tracking the event at > 1 week lead.");
    r
}
