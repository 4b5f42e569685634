//! Fig. 5a: medium-range ensemble skill — latitude-weighted ensemble-mean
//! RMSE, CRPS and spread/skill ratio for key variables, for AERIS vs the
//! GenCast analog, the IFS-ENS analog (perfect-model numerical ensemble),
//! the deterministic baseline and persistence.
//!
//! Expected shape (paper): AERIS ≤ IFS ENS on RMSE/CRPS, competitive with
//! GenCast; SSR < 1 (under-dispersive) for the diffusion models. The churn
//! on/off spread ablation is `ablations` §3.

use crate::{
    build_dataset, forcing_provider, sim_at, standard_scenario, train_aeris, train_deterministic, train_gencast,
    Cell, Report, RunScale, Table,
};
use aeris_baselines::numerical_ensemble;
use aeris_evaluation::{crps, ensemble_mean, rmse, ssr};
use aeris_tensor::Tensor;

const MODELS: [&str; 5] = ["AERIS", "GenCastA", "IFS-ENSa", "Determin.", "Persist."];
const CHANNELS: [&str; 3] = ["z500", "t850", "q700"];

pub fn run(scale: &RunScale) -> Report {
    let seed = 2020;
    let lead_steps = 40; // 10 days at 6 h
    let mut r = Report::new("Fig 5a: medium-range ensemble skill (toy ERA5)");
    r.note(format!("scale: {scale:?}"));

    let ds = build_dataset(seed, standard_scenario(), 460);
    let (_, _, test) = ds.split_ranges();
    r.note(format!("dataset: {} pairs (test {:?})", ds.len_pairs(), test));

    let aeris = train_aeris(&ds, scale, seed);
    let gencast = train_gencast(&ds, scale, seed);
    let det = train_deterministic(&ds, scale, seed);

    let lat_w = ds.grid.token_lat_weights();
    let n_ics = scale.initial_conditions;
    let ics: Vec<usize> = (0..n_ics)
        .map(|k| test.start + 2 + k * (test.len().saturating_sub(lead_steps + 4)).max(1) / n_ics.max(1))
        .filter(|&i| i + lead_steps < ds.len_pairs())
        .collect();
    r.note(format!("initial conditions at pair indices {ics:?}"));

    // acc[metric][model][channel][lead day], metric RMSE / CRPS / SSR,
    // summed over the initial conditions.
    let lead_days: Vec<usize> = (1..=lead_steps / 4).collect();
    let mut acc = vec![vec![vec![vec![0.0f64; lead_days.len()]; CHANNELS.len()]; MODELS.len()]; 3];
    for &i0 in &ics {
        let x0 = ds.state(i0);
        let forc = forcing_provider(seed, ds.time(i0));
        let aeris_ens = aeris.ensemble(x0, &forc, lead_steps, scale.members, 1000 + i0 as u64).members;
        let gc_ens = gencast.ensemble(x0, &forc, lead_steps, scale.members, 2000 + i0 as u64);
        let sim0 = sim_at(seed, standard_scenario(), i0);
        let ifs_ens = numerical_ensemble(&sim0, &ds.vars, lead_steps, scale.members, 1.0, 3000 + i0 as u64);
        let det_states = det.rollout(x0, &forc, lead_steps);

        for (ci, ch_name) in CHANNELS.iter().enumerate() {
            let ch = ds.vars.index_of(ch_name).expect("channel");
            for (li, &day) in lead_days.iter().enumerate() {
                let k = day * 4 - 1; // index into step list
                let t = ds.state(i0 + k + 1);
                for (mi, ens) in [&aeris_ens, &gc_ens, &ifs_ens].into_iter().enumerate() {
                    let mems: Vec<&Tensor> = ens.iter().map(|m| &m[k]).collect();
                    acc[0][mi][ci][li] += rmse(&ensemble_mean(&mems), t, &lat_w, ch);
                    acc[1][mi][ci][li] += crps(&mems, t, &lat_w, ch);
                    acc[2][mi][ci][li] += ssr(&mems, t, &lat_w, ch);
                }
                // Deterministic and persistence: RMSE only (no spread).
                acc[0][3][ci][li] += rmse(&det_states[k], t, &lat_w, ch);
                acc[0][4][ci][li] += rmse(x0, t, &lat_w, ch);
            }
        }
    }
    let n = ics.len() as f64;

    let heads: Vec<String> = lead_days.iter().map(|d| d.to_string()).collect();
    let mut columns = vec![("model", 12, 0)];
    columns.extend(heads.iter().map(|h| (h.as_str(), 9, 3)));
    for (ci, ch_name) in CHANNELS.iter().enumerate() {
        for (metric, (name, n_models)) in
            [("ensemble-mean RMSE", 5), ("CRPS", 3), ("spread/skill ratio", 3)].into_iter().enumerate()
        {
            r.section(format!("{ch_name}: {name} by lead (days)"));
            let mut t = Table::new(&columns);
            for (mi, model) in MODELS.iter().enumerate().take(n_models) {
                let mut row = vec![Cell::from(*model)];
                row.extend(acc[metric][mi][ci].iter().map(|&v| Cell::Num(v / n)));
                t.row(row);
            }
            r.table(t);
        }
    }
    r.note("\nPaper shapes to verify: AERIS RMSE/CRPS <= IFS-ENS analog over the");
    r.note("medium range; diffusion SSR < 1 (under-dispersive); deterministic");
    r.note("RMSE competitive early but ensembles win at longer leads.");
    r
}
