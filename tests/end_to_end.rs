//! Workspace-level integration: the full pipeline from toy atmosphere through
//! diffusion training to verified ensemble forecasts, spanning every crate.

use aeris::core::{prepare_samples, AerisConfig, AerisModel, Forecaster, Trainer, TrainerConfig};
use aeris::diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris::earthsim::{forcings_at, Climate, Dataset, Grid, Scenario, ToyParams, VariableSet};
use aeris::evaluation::{crps, ensemble_mean, rmse, ssr};
use aeris::nn::LrSchedule;
use aeris::tensor::Tensor;

fn setup() -> (Dataset, VariableSet) {
    let vars = VariableSet::with_levels(&[850]);
    let params = ToyParams {
        nlat: 8,
        nlon: 16,
        seed: 77,
        scenario: Scenario::quiet(),
        ..Default::default()
    };
    let ds = Dataset::generate(params, &vars, 120, 30, 0.8, 0.1);
    (ds, vars)
}

fn train(ds: &Dataset, vars: &VariableSet, images: u64) -> Forecaster {
    let cfg = AerisConfig {
        grid_h: 8,
        grid_w: 16,
        channels: vars.len(),
        forcing_channels: 3,
        dim: 16,
        n_heads: 2,
        ffn: 32,
        n_layers: 2,
        blocks_per_layer: 1,
        window: (4, 4),
        time_feat_dim: 16,
        cond_dim: 24,
        pos_amp: 0.1,
        seed: 5,
    };
    let mut model = AerisModel::new(cfg);
    let tcfg = TrainerConfig {
        schedule: LrSchedule { peak: 2e-3, warmup: images / 10, decay: images / 5, total: images },
        batch: 2,
        ema_halflife: images as f64 / 8.0,
        ..TrainerConfig::paper_scaled(images, 2)
    };
    let mut trainer = Trainer::new(&model, ds.grid, &vars.kappa(), tcfg);
    let samples = prepare_samples(ds, ds.split_ranges().0);
    let losses = trainer.fit(&mut model, &samples, images);
    assert!(losses.iter().all(|l| l.is_finite()), "training diverged");
    Forecaster {
        model: trainer.ema_model(&model),
        stats: ds.stats.clone(),
        res_stats: ds.res_stats.clone(),
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 4, churn: 0.1, second_order: true },
        ),
    }
}

#[test]
fn trained_ensemble_forecast_is_sane_and_scored() {
    let (ds, vars) = setup();
    let forecaster = train(&ds, &vars, 240);
    let (_, _, test) = ds.split_ranges();
    let i0 = test.start;
    let clim = Climate::new(Grid::new(8, 16), 77 ^ 0xEA57);
    let t0 = ds.time(i0);
    let forc = move |k: usize| forcings_at(&clim, (t0 + 6.0 * k as f64) / 24.0);
    let steps = 8usize;
    let ens = forecaster.ensemble(ds.state(i0), &forc, steps, 4, 3);
    assert_eq!(ens.members.len(), 4);
    assert_eq!(ens.n_steps(), steps);

    let lat_w = ds.grid.token_lat_weights();
    let t2m = vars.index_of("t2m").unwrap();
    for k in [0usize, steps - 1] {
        let truth = ds.state(i0 + k + 1);
        let members: Vec<&Tensor> = ens.at_step(k).expect("step within forecast horizon");
        for m in &members {
            assert!(m.all_finite(), "non-finite forecast at step {k}");
        }
        // Fields stay in physically plausible bounds.
        for m in &members {
            for t in 0..m.shape()[0] {
                let v = m.at(&[t, t2m]);
                assert!((150.0..400.0).contains(&v), "T2m {v} out of range at step {k}");
            }
        }
        let r = rmse(&ensemble_mean(&members), truth, &lat_w, t2m);
        let c = crps(&members, truth, &lat_w, t2m);
        assert!(r.is_finite() && r < 40.0, "RMSE {r}");
        assert!(c.is_finite() && c < r + 1.0, "CRPS {c} vs RMSE {r}");
        let s = ssr(&members, truth, &lat_w, t2m);
        assert!(s.is_finite() && s > 0.0, "SSR {s}");
    }
}

#[test]
fn training_beats_untrained_on_validation_loss() {
    let (ds, vars) = setup();
    let tf = TrigFlow::default();
    let weights = aeris::diffusion::loss_weights(&ds.grid.token_lat_weights(), &vars.kappa());

    // Validation diffusion loss at fixed (t, z) realizations.
    let val_loss = |f: &Forecaster| {
        let mut rng = aeris::tensor::Rng::seed_from(99);
        let (_, val, _) = ds.split_ranges();
        let mut total = 0.0f64;
        let mut n = 0;
        for i in val.clone().take(6) {
            let pair = ds.pair(i);
            let prev = ds.stats.standardize(&pair.prev);
            let x0 = ds.res_stats.standardize(&pair.next.sub(&pair.prev));
            let t = 0.8f32;
            let z = Tensor::randn(x0.shape(), &mut rng);
            let x_t = tf.interpolate(&x0, &z, t);
            let target = tf.velocity_target(&x0, &z, t);
            let v = f.model.velocity(&x_t, &prev, &pair.forcings, t);
            let d = v.sub(&target);
            let wd = d.mul(&d).mul(&weights);
            total += wd.mean();
            n += 1;
        }
        total / n as f64
    };

    let trained = train(&ds, &vars, 240);
    let untrained = Forecaster {
        model: AerisModel::new(trained.model.cfg.clone()),
        stats: ds.stats.clone(),
        res_stats: ds.res_stats.clone(),
        sampler: trained.sampler,
    };
    let (lt, lu) = (val_loss(&trained), val_loss(&untrained));
    assert!(lt < lu * 0.95, "training did not help: {lt:.4} vs untrained {lu:.4}");
}

#[test]
fn facade_reexports_every_crate() {
    // Compile-time check that the facade exposes the whole system.
    let _ = aeris::perfmodel::AURORA;
    let _ = aeris::earthsim::PAPER_LEVELS;
    let _ = aeris::diffusion::TrigFlow::default();
    let _ = aeris::nn::AdamWConfig::default();
    let _ = aeris::swipe::SwipeTopology::new(1, 1, 1, 1, 1);
    let _ = aeris::autodiff::Tape::new();
    let _ = aeris::tensor::Tensor::zeros(&[1]);
}
