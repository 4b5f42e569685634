//! Regenerates Fig. 5a: medium-range ensemble skill — latitude-weighted
//! ensemble-mean RMSE, CRPS, and spread/skill ratio for key variables, for
//! AERIS vs the GenCast analog, the IFS-ENS analog (perfect-model numerical
//! ensemble), the deterministic baseline, and persistence.
//!
//! Expected shape (paper): AERIS ≤ IFS ENS on RMSE/CRPS, competitive with
//! GenCast; SSR < 1 (under-dispersive) for the diffusion models.
//! `--no-churn` disables the stochastic churn (ablation: spread collapses).

#![allow(clippy::needless_range_loop)]


use aeris_bench::*;
use aeris_evaluation::{crps, ensemble_mean, rmse, ssr};
use aeris_tensor::Tensor;

fn main() {
    let scale = RunScale::from_env();
    let no_churn = std::env::args().any(|a| a == "--no-churn");
    let seed = 2020;
    let n_steps = 460;
    let lead_steps = 40; // 10 days at 6 h
    header("Fig 5a: medium-range ensemble skill (toy ERA5)");
    println!("scale: {scale:?}  churn: {}", !no_churn);

    let ds = build_dataset(seed, standard_scenario(), n_steps);
    let (_, _, test) = ds.split_ranges();
    println!("dataset: {} pairs (test {:?})", ds.len_pairs(), test);

    println!("training AERIS…");
    let mut aeris = train_aeris(&ds, &scale, seed);
    if no_churn {
        aeris.sampler.cfg.churn = 0.0;
    }
    println!("training GenCast analog…");
    let gencast = train_gencast(&ds, &scale, seed);
    println!("training deterministic baseline…");
    let det = train_deterministic(&ds, &scale, seed);

    let lat_w = ds.grid.token_lat_weights();
    let vars = ds.vars.clone();
    let channels = ["z500", "t850", "q700"];
    let ics: Vec<usize> = (0..scale.initial_conditions)
        .map(|k| test.start + 2 + k * (test.len().saturating_sub(lead_steps + 4)).max(1) / scale.initial_conditions.max(1))
        .filter(|&i| i + lead_steps < ds.len_pairs())
        .collect();
    println!("initial conditions at pair indices {ics:?}");

    // metric[model][channel][lead_day] accumulated over ICs.
    let models = ["AERIS", "GenCastA", "IFS-ENSa", "Determin.", "Persist."];
    let lead_days: Vec<usize> = (1..=lead_steps / 4).collect();
    let mut rmse_acc = vec![vec![vec![0.0f64; lead_days.len()]; channels.len()]; models.len()];
    let mut crps_acc = vec![vec![vec![0.0f64; lead_days.len()]; channels.len()]; models.len()];
    let mut ssr_acc = vec![vec![vec![0.0f64; lead_days.len()]; channels.len()]; models.len()];

    for &i0 in &ics {
        let x0 = ds.state(i0).clone();
        let forc = forcing_provider(seed, ds.time(i0));
        let truth: Vec<&Tensor> = (1..=lead_steps).map(|k| ds.state(i0 + k)).collect();

        let aeris_ens = aeris.ensemble(&x0, &forc, lead_steps, scale.members, 1000 + i0 as u64);
        let gc_ens = gencast.ensemble(&x0, &forc, lead_steps, scale.members, 2000 + i0 as u64);
        let sim0 = sim_at(seed, standard_scenario(), i0);
        let ifs_ens = aeris_baselines::numerical_ensemble(
            &sim0, &vars, lead_steps, scale.members, 1.0, 3000 + i0 as u64,
        );
        let det_states = det.rollout(&x0, &forc, lead_steps);

        for (ci, ch_name) in channels.iter().enumerate() {
            let ch = vars.index_of(ch_name).expect("channel");
            for (li, &day) in lead_days.iter().enumerate() {
                let k = day * 4 - 1; // index into step list
                let t = truth[k];
                // AERIS
                let mems: Vec<&Tensor> = aeris_ens.members.iter().map(|m| &m[k]).collect();
                rmse_acc[0][ci][li] += rmse(&ensemble_mean(&mems), t, &lat_w, ch);
                crps_acc[0][ci][li] += crps(&mems, t, &lat_w, ch);
                ssr_acc[0][ci][li] += ssr(&mems, t, &lat_w, ch);
                // GenCast analog
                let mems: Vec<&Tensor> = gc_ens.iter().map(|m| &m[k]).collect();
                rmse_acc[1][ci][li] += rmse(&ensemble_mean(&mems), t, &lat_w, ch);
                crps_acc[1][ci][li] += crps(&mems, t, &lat_w, ch);
                ssr_acc[1][ci][li] += ssr(&mems, t, &lat_w, ch);
                // IFS ENS analog
                let mems: Vec<&Tensor> = ifs_ens.iter().map(|m| &m[k]).collect();
                rmse_acc[2][ci][li] += rmse(&ensemble_mean(&mems), t, &lat_w, ch);
                crps_acc[2][ci][li] += crps(&mems, t, &lat_w, ch);
                ssr_acc[2][ci][li] += ssr(&mems, t, &lat_w, ch);
                // Deterministic (RMSE only; CRPS degenerates to MAE-ish).
                rmse_acc[3][ci][li] += rmse(&det_states[k], t, &lat_w, ch);
                // Persistence
                rmse_acc[4][ci][li] += rmse(&x0, t, &lat_w, ch);
            }
        }
    }
    let n = ics.len() as f64;

    for (ci, ch_name) in channels.iter().enumerate() {
        header(&format!("{ch_name}: ensemble-mean RMSE by lead (days)"));
        print!("{:<12}", "model");
        for d in &lead_days {
            print!("{d:>9}");
        }
        println!();
        for (mi, m) in models.iter().enumerate() {
            if *m == "Determin." || *m == "Persist." || rmse_acc[mi][ci][0] > 0.0 {
                print!("{m:<12}");
                for li in 0..lead_days.len() {
                    print!("{:>9.3}", rmse_acc[mi][ci][li] / n);
                }
                println!();
            }
        }
        header(&format!("{ch_name}: CRPS by lead (days)"));
        print!("{:<12}", "model");
        for d in &lead_days {
            print!("{d:>9}");
        }
        println!();
        for (mi, m) in models.iter().enumerate().take(3) {
            print!("{m:<12}");
            for li in 0..lead_days.len() {
                print!("{:>9.3}", crps_acc[mi][ci][li] / n);
            }
            println!();
        }
        header(&format!("{ch_name}: spread/skill ratio by lead (days)"));
        print!("{:<12}", "model");
        for d in &lead_days {
            print!("{d:>9}");
        }
        println!();
        for (mi, m) in models.iter().enumerate().take(3) {
            print!("{m:<12}");
            for li in 0..lead_days.len() {
                print!("{:>9.3}", ssr_acc[mi][ci][li] / n);
            }
            println!();
        }
    }
    println!("\nPaper shapes to verify: AERIS RMSE/CRPS <= IFS-ENS analog over the");
    println!("medium range; diffusion SSR < 1 (under-dispersive); deterministic");
    println!("RMSE competitive early but ensembles win at longer leads.");
}
