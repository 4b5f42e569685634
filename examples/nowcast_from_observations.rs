//! Generative data assimilation end to end: observe a truth state with a
//! synthetic station network and a satellite ground track, then pull a
//! diffusion-forecast ensemble toward those observations with
//! observation-consistency guidance — first directly, then through the
//! serving engine, verifying the served analysis matches bit for bit.
//!
//! ```bash
//! cargo run --release --example nowcast_from_observations
//! ```

use aeris::assim::{nowcast_ensemble, GuidanceSchedule, ObsOperator};
use aeris::core::{AerisConfig, AerisModel, Forecaster};
use aeris::diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris::earthsim::{Grid, NormStats};
use aeris::evaluation::ensemble_mean;
use aeris::serve::{Forcings, NowcastRequest, ServeConfig, ServeEngine};
use aeris::tensor::{Rng, Tensor};
use std::sync::Arc;

fn main() {
    // A toy forecaster (untrained weights: the machinery, not the skill,
    // is what this example demonstrates).
    let cfg = AerisConfig::test_tiny();
    let channels = cfg.channels;
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let tokens = grid.tokens();
    let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
    let fc = Arc::new(Forecaster {
        model: AerisModel::new(cfg),
        res_stats: stats.clone(),
        stats,
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 4, churn: 0.0, second_order: true },
        ),
    });

    // A background state and the (normally unknown) truth it drifted from.
    let mut rng = Rng::seed_from(7);
    let background = Arc::new(Tensor::randn(&[tokens, channels], &mut rng));
    let truth = background.add(&Tensor::randn(&[tokens, channels], &mut rng).scale(0.5));
    let forcings = Tensor::zeros(&[tokens, 3]);

    // Two observing systems over the same truth: a fixed station network
    // and a polar-orbiter ground track; 10% of soundings go missing.
    let stations = ObsOperator::stations(&grid, 48, &[0, 1], &vec![0.3; channels], 11);
    let track = ObsOperator::satellite_track(&grid, 96, 3, 70.0, &[0, 1], &vec![0.3; channels], 12);
    let obs = Arc::new(stations.observe(&truth, 0.1, 13));
    let swath = track.observe(&truth, 0.1, 14);
    println!(
        "observing systems: {} station obs ({} present), {} satellite obs ({} present)",
        obs.n_obs(),
        obs.n_present(),
        swath.n_obs(),
        swath.n_present()
    );

    // Guided vs unguided analysis ensembles. The scheduled weight trades
    // observation fit against the model prior; it scales like sigma_o^2.
    let sched = GuidanceSchedule::Ramp { start: 0.01, end: 0.05 };
    let guided = nowcast_ensemble(&fc, &background, &forcings, &obs, sched, 4, 42);
    let unguided =
        nowcast_ensemble(&fc, &background, &forcings, &obs, GuidanceSchedule::off(), 4, 42);
    let rmse = |members: &[Tensor]| -> f64 {
        let x = ensemble_mean(&members.iter().collect::<Vec<_>>());
        let mut acc = 0.0f64;
        for (a, b) in x.data().iter().zip(truth.data()) {
            let d = (a - b) as f64;
            acc += d * d;
        }
        (acc / x.len() as f64).sqrt()
    };
    println!(
        "analysis RMSE vs truth: guided {:.4}, unguided {:.4}",
        rmse(&guided.members),
        rmse(&unguided.members)
    );

    // The same nowcast as a service: submit through the micro-batcher and
    // check the served members against the direct ensemble, bit for bit.
    let engine = ServeEngine::start(Arc::clone(&fc), ServeConfig::default());
    let response = engine
        .submit_nowcast(NowcastRequest {
            background: (*background).clone(),
            forcings: Forcings::Zeros { channels: 3 },
            observations: Arc::clone(&obs),
            schedule: sched,
            n_members: 4,
            seed: 42,
            deadline: None,
            tenant: None,
            tier: None,
        })
        .expect("admitted")
        .wait()
        .expect("served");
    for (m, member) in response.forecast.members.iter().enumerate() {
        assert_eq!(member[0].data(), guided.members[m].data(), "member {m} diverged");
    }
    println!(
        "served nowcast: {} members bitwise-identical to the direct call \
         ({} computed member-steps, {} from cache)",
        response.forecast.members.len(),
        response.computed_steps,
        response.cache_hits
    );
    let report = engine.shutdown();
    println!("engine served {} nowcast(s)", report.nowcasts);
}
