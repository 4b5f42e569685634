//! The toy global atmosphere: a forced-dissipative barotropic vorticity core
//! on a doubly periodic domain, advected temperature/moisture tracers, a slab
//! ocean with an ENSO mode, and seeded extreme events.
//!
//! This is the ERA5-generating substitute (see DESIGN.md): it produces
//! Markovian, advective, seasonally forced global fields with jets, Rossby
//! waves, blocking, tropical cyclones, and a slow coupled ocean — the
//! statistical structure a weather diffusion model must learn — at a cost of
//! well under a millisecond per 6-hour step on a 32×64 grid.
//!
//! Coordinate convention: row 0 is the northernmost latitude and the internal
//! `y` axis increases southward with the row index. With streamfunction ψ,
//! `u_east = ∂ψ/∂y_row` and `v_north = ∂ψ/∂x`, so `ζ = ∇²ψ` in internal
//! coordinates equals the physical relative vorticity.

use crate::climate::Climate;
use crate::events::{gaussian_bump, CycloneState, Scenario};
use crate::grid::Grid;
use crate::ocean::{enso_pattern, Enso};
use crate::spectral::Spectral;
use crate::variables::{Channel, SurfaceVar, UpperVar, VariableSet};
use aeris_tensor::{Rng, Tensor};

/// Domain extents (meters): 40,000 km around a latitude circle, 20,000 km
/// pole to pole.
pub const LX: f64 = 4.0e7;
/// Meridional extent (m).
pub const LY: f64 = 2.0e7;

/// Tunable parameters of the toy atmosphere.
#[derive(Clone, Debug)]
pub struct ToyParams {
    pub nlat: usize,
    pub nlon: usize,
    pub seed: u64,
    /// Output cadence (one sample every `step_hours`).
    pub step_hours: f64,
    /// Dynamics substeps per output step (CFL control).
    pub substeps: usize,
    /// Effective planetary vorticity gradient (1/(m·s)); integrated
    /// exactly per mode, so it is a single constant rather than β(φ).
    pub beta0: f64,
    /// Relaxation time of ζ toward the climatological jet (days).
    pub jet_relax_days: f64,
    /// Relaxation time of tracer anomalies (days).
    pub tracer_relax_days: f64,
    /// RMS of the stochastic vorticity forcing per √day (1/s).
    pub noise_amp: f32,
    /// Scale-selective damping strength: e-folds at the grid scale per
    /// dynamics substep (∇⁸-style filter; also applies 2/3 dealiasing).
    pub damp_efolds: f64,
    /// SST anomaly relaxation time (days).
    pub sst_relax_days: f64,
    /// Seeded events.
    pub scenario: Scenario,
}

impl Default for ToyParams {
    fn default() -> Self {
        ToyParams {
            nlat: 32,
            nlon: 64,
            seed: 0,
            step_hours: 6.0,
            substeps: 2,
            beta0: 1.6e-11,
            jet_relax_days: 10.0,
            tracer_relax_days: 12.0,
            noise_amp: 1.2e-6,
            damp_efolds: 3.0,
            sst_relax_days: 25.0,
            scenario: Scenario::quiet(),
        }
    }
}

/// The running simulation.
#[derive(Clone)]
pub struct ToyAtmosphere {
    pub params: ToyParams,
    grid: Grid,
    clim: Climate,
    spec: Spectral,
    /// Relative vorticity (1/s), `[tokens]`.
    zeta: Vec<f32>,
    /// Temperature anomaly tracer (K).
    t_anom: Vec<f32>,
    /// Specific-humidity anomaly tracer (g/kg).
    q_anom: Vec<f32>,
    /// SST anomaly (K).
    sst_anom: Vec<f32>,
    enso: Enso,
    enso_pat: Vec<f32>,
    cyclones: Vec<CycloneState>,
    time_hours: f64,
    rng_forcing: Rng,
    rng_enso: Rng,
    /// ζ profile of the climatological jet (per token).
    zeta_jet: Vec<f32>,
    /// Meridional background temperature gradient per row (K/m, y_row south).
    dtbar_dy: Vec<f32>,
    /// Background moisture gradient per row (g/kg per m).
    dqbar_dy: Vec<f32>,
}

impl ToyAtmosphere {
    /// Build and lightly spin up the atmosphere.
    pub fn new(params: ToyParams) -> Self {
        let grid = Grid::new(params.nlat, params.nlon);
        let clim = Climate::new(grid, params.seed ^ 0xEA57);
        let spec = Spectral::new(params.nlat, params.nlon, LY, LX);
        let root = Rng::seed_from(params.seed);
        let mut rng_init = root.stream(1);

        // Jet vorticity: ζ_jet = -dU/dy_north = +dU/dy_row.
        let dy = LY / params.nlat as f64;
        let mut zeta_jet = vec![0.0f32; grid.tokens()];
        for r in 0..params.nlat {
            let rm = (r + params.nlat - 1) % params.nlat;
            let rp = (r + 1) % params.nlat;
            let du = clim.u_jet(rp, 500) - clim.u_jet(rm, 500);
            let z = (du as f64 / (2.0 * dy)) as f32;
            for c in 0..params.nlon {
                zeta_jet[grid.index(r, c)] = z;
            }
        }

        // Background tracer gradients (at a fixed reference day; the seasonal
        // cycle enters through the relaxation targets instead).
        let mut dtbar_dy = vec![0.0f32; params.nlat];
        let mut dqbar_dy = vec![0.0f32; params.nlat];
        for r in 0..params.nlat {
            let rm = (r + params.nlat - 1) % params.nlat;
            let rp = (r + 1) % params.nlat;
            dtbar_dy[r] = ((clim.t2m_eq(rp, 0, 90.0) - clim.t2m_eq(rm, 0, 90.0)) as f64
                / (2.0 * dy)) as f32;
            dqbar_dy[r] = ((clim.q_level_eq(rp, 0, 850, 90.0) - clim.q_level_eq(rm, 0, 850, 90.0))
                as f64
                / (2.0 * dy)) as f32;
        }

        let mut zeta = zeta_jet.clone();
        let noise = spec.band_noise(&mut rng_init, 2, 8, params.noise_amp * 2.0);
        for (z, n) in zeta.iter_mut().zip(&noise) {
            *z += n;
        }

        let (phase, amp) = params.scenario.enso_init.unwrap_or((0.4, 0.8));
        let enso = Enso::new(phase, amp);
        let cyclones = params
            .scenario
            .cyclones
            .iter()
            .map(|&s| CycloneState::new(s, grid))
            .collect();

        let mut sim = ToyAtmosphere {
            grid,
            clim,
            spec,
            zeta,
            t_anom: vec![0.0; grid.tokens()],
            q_anom: vec![0.0; grid.tokens()],
            sst_anom: vec![0.0; grid.tokens()],
            enso,
            enso_pat: enso_pattern(grid),
            cyclones,
            time_hours: 0.0,
            rng_forcing: root.stream(2),
            rng_enso: root.stream(3),
            zeta_jet,
            dtbar_dy,
            dqbar_dy,
            params,
        };
        // Initialize SST anomaly consistent with the ENSO state.
        let te = sim.enso.index();
        for (s, p) in sim.sst_anom.iter_mut().zip(&sim.enso_pat) {
            *s = te * p;
        }
        sim
    }

    /// Spin up by `n` output steps (discard transients). Runs on a negative
    /// clock ending at the current time, so scenario events (which live at
    /// t ≥ 0) never trigger during spin-up; event states are re-armed after.
    pub fn spinup(&mut self, n: usize) {
        let t0 = self.time_hours;
        self.time_hours = t0 - n as f64 * self.params.step_hours;
        for _ in 0..n {
            self.step();
        }
        debug_assert!((self.time_hours - t0).abs() < 1e-6);
        self.time_hours = t0;
        let grid = self.grid;
        for cy in &mut self.cyclones {
            *cy = CycloneState::new(cy.seed, grid);
        }
    }

    /// Simulation time in hours since start.
    pub fn time_hours(&self) -> f64 {
        self.time_hours
    }

    /// Simulation time in days.
    pub fn time_days(&self) -> f64 {
        self.time_hours / 24.0
    }

    /// The grid.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Velocities (u_east, v_north) from the current vorticity.
    pub fn velocities(&self) -> (Vec<f32>, Vec<f32>) {
        let zs = self.spec.forward(&self.zeta);
        let psis = self.spec.inv_laplacian(&zs);
        let u = self.spec.inverse(self.spec.ddy(&psis));
        let v = self.spec.inverse(self.spec.ddx(&psis));
        (u, v)
    }

    /// Streamfunction anomaly (relative to the jet part).
    fn psi(&self, zeta: &[f32]) -> Vec<f32> {
        let zs = self.spec.forward(zeta);
        self.spec.inverse(self.spec.inv_laplacian(&zs))
    }

    /// Tendencies of (ζ, T', Q') given the instantaneous state.
    fn tendencies(&self, zeta: &[f32], t: &[f32], q: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let n = self.grid.tokens();
        let zs = self.spec.forward(zeta);
        let psis = self.spec.inv_laplacian(&zs);
        let u = self.spec.inverse(self.spec.ddy(&psis));
        let v = self.spec.inverse(self.spec.ddx(&psis));
        let zx = self.spec.inverse(self.spec.ddx(&zs));
        let zy = self.spec.inverse(self.spec.ddy(&zs));
        let ts = self.spec.forward(t);
        let tx = self.spec.inverse(self.spec.ddx(&ts));
        let ty = self.spec.inverse(self.spec.ddy(&ts));
        let qs = self.spec.forward(q);
        let qx = self.spec.inverse(self.spec.ddx(&qs));
        let qy = self.spec.inverse(self.spec.ddy(&qs));

        let tau_j = (self.params.jet_relax_days * 86400.0) as f32;
        let tau_t = (self.params.tracer_relax_days * 86400.0) as f32;

        let mut dz = vec![0.0f32; n];
        let mut dt = vec![0.0f32; n];
        let mut dq = vec![0.0f32; n];
        // The β (planetary Rossby) term is handled exactly in spectral space
        // by `Spectral::rossby_rotate` after each substep, not here.
        for r in 0..self.grid.nlat {
            for c in 0..self.grid.nlon {
                let i = self.grid.index(r, c);
                // Material derivative in internal coords: dx/dt = u,
                // dy_row/dt = -v.
                let adv = |fx: f32, fy: f32| -u[i] * fx + v[i] * fy;
                dz[i] = adv(zx[i], zy[i]) + (self.zeta_jet[i] - zeta[i]) / tau_j;
                dt[i] = adv(tx[i], ty[i]) + v[i] * self.dtbar_dy[r] - t[i] / tau_t;
                dq[i] = adv(qx[i], qy[i]) + v[i] * self.dqbar_dy[r] - q[i] / tau_t;
            }
        }
        self.add_event_tendencies(&mut dz, &mut dt, &mut dq);
        (dz, dt, dq)
    }

    /// Add cyclone/heatwave forcing to the tendencies.
    fn add_event_tendencies(&self, dz: &mut [f32], dt: &mut [f32], dq: &mut [f32]) {
        let per_day = 1.0 / 86400.0f32;
        for cy in &self.cyclones {
            if !cy.active {
                continue;
            }
            let bump = gaussian_bump(self.grid, cy.row, cy.col, cy.seed.radius_m);
            let lat = self.grid.lat_deg(cy.row.round().max(0.0) as usize % self.grid.nlat);
            let sign = if lat >= 0.0 { 1.0 } else { -1.0 };
            let amp = cy.seed.peak_amp * cy.intensity * per_day;
            for (i, &b) in bump.iter().enumerate() {
                dz[i] += sign * amp * b;
                dt[i] += 2.5 * cy.intensity * b * per_day; // warm core
                dq[i] += 2.0 * cy.intensity * b * per_day; // moist core
            }
        }
        for hw in &self.params.scenario.heatwaves {
            let t = self.time_hours;
            if t < hw.onset_hours || t > hw.onset_hours + hw.duration_hours {
                continue;
            }
            // Ramp in/out over 24 h.
            let ramp_in = ((t - hw.onset_hours) / 24.0).min(1.0) as f32;
            let ramp_out = ((hw.onset_hours + hw.duration_hours - t) / 24.0).min(1.0) as f32;
            let ramp = ramp_in.min(ramp_out).max(0.0);
            let row = self.grid.row_of_lat(hw.lat) as f32;
            let col = self.grid.col_of_lon(hw.lon) as f32;
            let bump = gaussian_bump(self.grid, row, col, hw.radius_m);
            let sign = if hw.lat >= 0.0 { -1.0 } else { 1.0 }; // blocking anticyclone
            for (i, &b) in bump.iter().enumerate() {
                dz[i] += sign * 6.0e-6 * ramp * b * per_day;
                dt[i] += hw.heating * ramp * b * per_day;
                dq[i] -= 0.4 * hw.heating * ramp * b * per_day;
            }
        }
    }

    /// Advance one output step (`step_hours`).
    pub fn step(&mut self) {
        let dt_sub = self.params.step_hours * 3600.0 / self.params.substeps as f64;
        for _ in 0..self.params.substeps {
            self.substep(dt_sub);
        }
        let dt_days = self.params.step_hours / 24.0;

        // Stochastic vorticity forcing (applied once per output step).
        let noise = self.spec.band_noise(
            &mut self.rng_forcing,
            3,
            9,
            self.params.noise_amp * (dt_days as f32).sqrt(),
        );
        for (z, n) in self.zeta.iter_mut().zip(&noise) {
            *z += n;
        }

        // Slow ocean / ENSO.
        self.enso.step(dt_days, self.time_days(), &mut self.rng_enso);
        let tau_sst = self.params.sst_relax_days as f32;
        let te = self.enso.index();
        for i in 0..self.grid.tokens() {
            let target = te * self.enso_pat[i];
            self.sst_anom[i] += (dt_days as f32)
                * ((target - self.sst_anom[i]) / tau_sst + 0.01 * self.t_anom[i]);
        }

        // Cyclone lifecycle.
        self.update_cyclones(dt_days);

        self.time_hours += self.params.step_hours;
    }

    /// One RK2 (Heun) dynamics substep plus hyperdiffusion.
    fn substep(&mut self, dt: f64) {
        let (dz1, dt1, dq1) = self.tendencies(&self.zeta, &self.t_anom, &self.q_anom);
        let n = self.grid.tokens();
        let mut z1 = vec![0.0f32; n];
        let mut t1 = vec![0.0f32; n];
        let mut q1 = vec![0.0f32; n];
        for i in 0..n {
            z1[i] = self.zeta[i] + dt as f32 * dz1[i];
            t1[i] = self.t_anom[i] + dt as f32 * dt1[i];
            q1[i] = self.q_anom[i] + dt as f32 * dq1[i];
        }
        let (dz2, dt2, dq2) = self.tendencies(&z1, &t1, &q1);
        for i in 0..n {
            self.zeta[i] += (dt as f32) * 0.5 * (dz1[i] + dz2[i]);
            self.t_anom[i] += (dt as f32) * 0.5 * (dt1[i] + dt2[i]);
            self.q_anom[i] += (dt as f32) * 0.5 * (dq1[i] + dq2[i]);
        }
        let e = self.params.damp_efolds;
        self.spec.damp_small_scales(&mut self.zeta, e);
        self.spec.damp_small_scales(&mut self.t_anom, e * 0.5);
        self.spec.damp_small_scales(&mut self.q_anom, e * 0.5);
        self.spec.rossby_rotate(&mut self.zeta, self.params.beta0, dt);
    }

    /// Move and (de)intensify seeded cyclones.
    fn update_cyclones(&mut self, dt_days: f64) {
        if self.cyclones.is_empty() {
            return;
        }
        let (u, v) = self.velocities();
        let dy_m = LY / self.grid.nlat as f64;
        let dx_m = LX / self.grid.nlon as f64;
        let time = self.time_hours;
        let grid = self.grid;
        let clim = &self.clim;
        let sst_anom = &self.sst_anom;
        let day = time / 24.0;
        for cy in &mut self.cyclones {
            let in_window = time >= cy.seed.genesis_hours
                && time <= cy.seed.genesis_hours + cy.seed.lifetime_hours;
            if !cy.active && in_window {
                cy.active = true;
            }
            if !cy.active {
                continue;
            }
            if !in_window && cy.intensity < 0.05 {
                cy.active = false;
                continue;
            }
            // Steering flow at the center (nearest-cell sample, smoothed by
            // the vortex scale anyway) + beta drift (westward & poleward).
            let r = (cy.row.round() as usize).min(grid.nlat - 1);
            let c = (cy.col.round() as usize).rem_euclid(grid.nlon);
            let i = grid.index(r, c);
            let lat = grid.lat_deg(r);
            // Steering: damped ambient flow + beta drift (westward, poleward).
            let u_steer = 0.6 * u[i] as f64 - 2.0;
            let v_steer = 0.6 * v[i] as f64 + if lat >= 0.0 { 0.8 } else { -0.8 };
            cy.col = (cy.col as f64 + u_steer * dt_days * 86400.0 / dx_m)
                .rem_euclid(grid.nlon as f64) as f32;
            cy.row = (cy.row as f64 - v_steer * dt_days * 86400.0 / dy_m)
                .clamp(0.0, (grid.nlat - 1) as f64) as f32;

            // Intensity: organized genesis during the first 48 h, then grow
            // over warm ocean and decay over land / cold water (rapid
            // intensification appears over the warmest SST).
            let land = clim.land_mask[i];
            let sst = clim.sst_eq(r, c, day) + sst_anom[i];
            let genesis_phase = time < cy.seed.genesis_hours + 48.0;
            if in_window && (genesis_phase || (land < 0.5 && sst > 292.0)) {
                let env = if genesis_phase {
                    0.6
                } else {
                    1.1 * (sst - 292.0).min(6.0) / 6.0
                };
                cy.intensity += (env * (1.2 - cy.intensity) * dt_days as f32).max(0.0);
            } else {
                cy.intensity -= cy.intensity * (1.6 * dt_days) as f32;
            }
            cy.intensity = cy.intensity.clamp(0.0, 1.2);
        }
    }

    /// Current cyclone states (for truth-track extraction in experiments).
    pub fn cyclones(&self) -> &[CycloneState] {
        &self.cyclones
    }

    /// Add a small random perturbation to the dynamic state — the classic
    /// initial-condition perturbation used to build the numerical (IFS-ENS
    /// analog) ensemble. Perturbations live at synoptic scales so they do not
    /// project onto the (enormous-streamfunction) planetary modes.
    pub fn perturb(&mut self, amplitude: f32, rng: &mut Rng) {
        let noise_z = self.spec.band_noise(rng, 4, 12, amplitude * 8.0e-7);
        let noise_t = self.spec.band_noise(rng, 4, 12, amplitude * 0.2);
        for i in 0..self.grid.tokens() {
            self.zeta[i] += noise_z[i];
            self.t_anom[i] += noise_t[i];
        }
    }

    /// Re-seed the stochastic physics streams. The IFS-ENS analog ensemble
    /// combines initial-condition perturbations with *different stochastic
    /// forcing per member* (the toy equivalent of SPPT stochastic physics);
    /// without this, cloned members share identical forcing and the damped
    /// toy dynamics cannot diverge.
    pub fn reseed_stochastic(&mut self, seed: u64) {
        let root = Rng::seed_from(seed);
        self.rng_forcing = root.stream(2);
        self.rng_enso = root.stream(3);
    }

    /// Render the full prognostic state into a `[tokens, channels]` tensor in
    /// physical units.
    pub fn render(&self, vars: &VariableSet) -> Tensor {
        let n = self.grid.tokens();
        let day = self.time_days();
        let (u, v) = self.velocities();
        let psi = self.psi(&self.zeta);
        // Remove the jet contribution to get anomaly wind for vertical tilts.
        let mut u_anom = vec![0.0f32; n];
        for r in 0..self.grid.nlat {
            let uj = self.clim.u_jet(r, 500);
            for c in 0..self.grid.nlon {
                let i = self.grid.index(r, c);
                u_anom[i] = u[i] - uj;
            }
        }
        let mut out = Tensor::zeros(&[n, vars.len()]);
        for (ch_ix, ch) in vars.channels().iter().enumerate() {
            for r in 0..self.grid.nlat {
                let lat = self.grid.lat_deg(r);
                let f_cor = coriolis_bounded(lat);
                for c in 0..self.grid.nlon {
                    let i = self.grid.index(r, c);
                    let val = match ch {
                        Channel::Surface(SurfaceVar::T2m) => {
                            self.clim.t2m_eq(r, c, day)
                                + self.t_anom[i]
                                + 0.5 * self.sst_anom[i] * (1.0 - self.clim.land_mask[i])
                        }
                        Channel::Surface(SurfaceVar::U10) => {
                            0.6 * (self.clim.u_jet(r, 850) + 0.7 * u_anom[i])
                        }
                        Channel::Surface(SurfaceVar::V10) => 0.6 * 0.7 * v[i],
                        Channel::Surface(SurfaceVar::Mslp) => {
                            1013.0 + (1.2 * f_cor * psi[i] * 0.6 / 100.0)
                        }
                        Channel::Surface(SurfaceVar::Sst) => {
                            self.clim.sst_eq(r, c, day) + self.sst_anom[i]
                        }
                        Channel::Upper(UpperVar::Z, lev) => {
                            self.clim.z_level_eq(r, *lev, day)
                                + f_cor.abs().max(5e-5) * psi[i] * vert_amp(*lev)
                        }
                        Channel::Upper(UpperVar::T, lev) => {
                            self.clim.t_level_eq(r, c, *lev, day) + self.t_anom[i] * t_amp(*lev)
                        }
                        Channel::Upper(UpperVar::U, lev) => {
                            self.clim.u_jet(r, *lev) + vert_amp(*lev) * u_anom[i]
                        }
                        Channel::Upper(UpperVar::V, lev) => vert_amp(*lev) * v[i],
                        Channel::Upper(UpperVar::Q, lev) => (self.clim.q_level_eq(r, c, *lev, day)
                            + self.q_anom[i] * q_amp(*lev)
                            + 0.3 * self.t_anom[i] * q_amp(*lev))
                        .max(0.0),
                    };
                    *out.at_mut(&[i, ch_ix]) = val;
                }
            }
        }
        out
    }

    /// The three forcing channels the paper supplies as inputs (§VI-B):
    /// normalized TOA solar radiation, surface geopotential, land-sea mask.
    /// Shape `[tokens, 3]`.
    pub fn forcings(&self) -> Tensor {
        forcings_at(&self.clim, self.time_days())
    }

}

/// Forcing channels for an arbitrary valid time (used by forecast rollouts,
/// which must supply solar forcing at each autoregressive step).
pub fn forcings_at(clim: &Climate, day: f64) -> Tensor {
    let grid = clim.grid();
    let n = grid.tokens();
    let mut out = Tensor::zeros(&[n, 3]);
    for r in 0..grid.nlat {
        let solar = Climate::toa_solar(grid.lat_deg(r), day) / 700.0;
        for c in 0..grid.nlon {
            let i = grid.index(r, c);
            *out.at_mut(&[i, 0]) = solar;
            *out.at_mut(&[i, 1]) = clim.orography[i] / (9.81 * 3000.0);
            *out.at_mut(&[i, 2]) = clim.land_mask[i];
        }
    }
    out
}

/// Render the pure climatology (zero anomalies) into a `[tokens, channels]`
/// tensor for a given day — the WeatherBench climatology baseline and the
/// reference for anomaly diagnostics.
pub fn render_climatology(clim: &Climate, vars: &VariableSet, day: f64) -> Tensor {
    let grid = clim.grid();
    let n = grid.tokens();
    let mut out = Tensor::zeros(&[n, vars.len()]);
    for (ch_ix, ch) in vars.channels().iter().enumerate() {
        for r in 0..grid.nlat {
            for c in 0..grid.nlon {
                let i = grid.index(r, c);
                let val = match ch {
                    Channel::Surface(SurfaceVar::T2m) => clim.t2m_eq(r, c, day),
                    Channel::Surface(SurfaceVar::U10) => 0.6 * clim.u_jet(r, 850),
                    Channel::Surface(SurfaceVar::V10) => 0.0,
                    Channel::Surface(SurfaceVar::Mslp) => 1013.0,
                    Channel::Surface(SurfaceVar::Sst) => clim.sst_eq(r, c, day),
                    Channel::Upper(UpperVar::Z, lev) => clim.z_level_eq(r, *lev, day),
                    Channel::Upper(UpperVar::T, lev) => clim.t_level_eq(r, c, *lev, day),
                    Channel::Upper(UpperVar::U, lev) => clim.u_jet(r, *lev),
                    Channel::Upper(UpperVar::V, _) => 0.0,
                    Channel::Upper(UpperVar::Q, lev) => clim.q_level_eq(r, c, *lev, day),
                };
                *out.at_mut(&[i, ch_ix]) = val;
            }
        }
    }
    out
}

/// Coriolis parameter with a tropical floor so tropical vortices still carry
/// an MSLP signature (documented toy-model deviation).
fn coriolis_bounded(lat_deg: f32) -> f32 {
    let f = 2.0 * 7.2921e-5 * lat_deg.to_radians().sin();
    let floor = 0.35e-4;
    if f.abs() < floor {
        if lat_deg >= 0.0 {
            floor
        } else {
            -floor
        }
    } else {
        f
    }
}

/// Barotropic-anomaly amplitude by level (stronger aloft).
fn vert_amp(level_hpa: u32) -> f32 {
    match level_hpa {
        l if l >= 850 => 0.7,
        l if l >= 700 => 0.85,
        l if l >= 500 => 1.0,
        _ => 1.35,
    }
}

/// Temperature-anomaly amplitude by level (flips sign in the upper
/// troposphere, mimicking baroclinic structure).
fn t_amp(level_hpa: u32) -> f32 {
    match level_hpa {
        l if l >= 850 => 1.0,
        l if l >= 700 => 0.85,
        l if l >= 500 => 0.6,
        _ => -0.3,
    }
}

/// Moisture-anomaly amplitude by level.
fn q_amp(level_hpa: u32) -> f32 {
    match level_hpa {
        l if l >= 850 => 1.0,
        l if l >= 700 => 0.8,
        l if l >= 500 => 0.45,
        _ => 0.08,
    }
}

#[cfg(test)]
impl ToyAtmosphere {
    /// The climate (climatology + forcing fields).
    pub(crate) fn climate(&self) -> &Climate {
        &self.clim
    }

    /// ENSO oscillator state (diagnostics).
    pub(crate) fn enso(&self) -> &Enso {
        &self.enso
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params(seed: u64) -> ToyParams {
        ToyParams { nlat: 16, nlon: 32, seed, ..Default::default() }
    }

    #[test]
    fn hundred_days_stay_finite_and_bounded() {
        let mut sim = ToyAtmosphere::new(quick_params(1));
        sim.spinup(40);
        for _ in 0..400 {
            sim.step();
        }
        assert!(sim.zeta.iter().all(|v| v.is_finite()));
        let (u, v) = sim.velocities();
        let urms = (u.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>() / u.len() as f64)
            .sqrt();
        let vmax = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(urms > 1.0 && urms < 80.0, "u rms {urms}");
        assert!(vmax < 150.0, "v max {vmax}");
        assert!(sim.t_anom.iter().all(|v| v.abs() < 60.0));
    }

    #[test]
    fn weather_actually_varies() {
        let mut sim = ToyAtmosphere::new(quick_params(2));
        sim.spinup(40);
        let vars = VariableSet::default_toy();
        let a = sim.render(&vars);
        for _ in 0..20 {
            sim.step();
        }
        let b = sim.render(&vars);
        assert!(a.max_abs_diff(&b) > 0.1, "fields frozen");
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = |seed| {
            let mut sim = ToyAtmosphere::new(quick_params(seed));
            for _ in 0..10 {
                sim.step();
            }
            sim.render(&VariableSet::default_toy())
        };
        assert_eq!(mk(5).data(), mk(5).data());
        assert!(mk(5).max_abs_diff(&mk(6)) > 1e-3);
    }

    #[test]
    fn render_units_are_physical() {
        let mut sim = ToyAtmosphere::new(quick_params(3));
        sim.spinup(60);
        let vars = VariableSet::default_toy();
        let x = sim.render(&vars);
        let t2m = vars.index_of("t2m").unwrap();
        let mslp = vars.index_of("mslp").unwrap();
        let q850 = vars.index_of("q850").unwrap();
        let z500 = vars.index_of("z500").unwrap();
        for i in 0..sim.grid().tokens() {
            let t = x.at(&[i, t2m]);
            assert!((180.0..340.0).contains(&t), "t2m {t}");
            let p = x.at(&[i, mslp]);
            assert!((850.0..1120.0).contains(&p), "mslp {p}");
            assert!(x.at(&[i, q850]) >= 0.0, "negative humidity");
            let z = x.at(&[i, z500]);
            assert!((3.5e4..6.5e4).contains(&z), "z500 {z}");
        }
    }

    #[test]
    fn forcings_shapes_and_ranges() {
        let sim = ToyAtmosphere::new(quick_params(4));
        let f = sim.forcings();
        assert_eq!(f.shape(), &[sim.grid().tokens(), 3]);
        for i in 0..sim.grid().tokens() {
            assert!((0.0..=1.5).contains(&f.at(&[i, 0])));
            assert!((0.0..=1.01).contains(&f.at(&[i, 1])));
            let lm = f.at(&[i, 2]);
            assert!(lm == 0.0 || lm == 1.0);
        }
    }

    #[test]
    fn ensemble_members_diverge() {
        let base = {
            let mut s = ToyAtmosphere::new(quick_params(7));
            s.spinup(20);
            s
        };
        let mut a = base.clone();
        let mut b = base.clone();
        let mut rng = Rng::seed_from(99);
        b.perturb(1.0, &mut rng);
        b.reseed_stochastic(424242);
        let vars = VariableSet::default_toy();
        let t2m = vars.index_of("t2m").unwrap();
        let t2m_diff = |a: &ToyAtmosphere, b: &ToyAtmosphere| {
            let (xa, xb) = (a.render(&vars), b.render(&vars));
            let mut acc = 0.0f64;
            for i in 0..xa.shape()[0] {
                let d = xa.at(&[i, t2m]) - xb.at(&[i, t2m]);
                acc += (d * d) as f64;
            }
            (acc / xa.shape()[0] as f64).sqrt()
        };
        let d0 = t2m_diff(&a, &b);
        for _ in 0..40 {
            a.step();
            b.step();
        }
        let d1 = t2m_diff(&a, &b);
        assert!(d0 > 0.0);
        assert!(d1 > 2.0 * d0, "ensemble did not diverge: {d0} -> {d1}");
    }

    #[test]
    fn seeded_cyclone_spins_up_and_deepens_mslp() {
        let mut params = ToyParams { nlat: 32, nlon: 64, seed: 11, ..Default::default() };
        params.scenario = Scenario {
            cyclones: vec![crate::events::CycloneSeed::laura_like(24.0)],
            heatwaves: vec![],
            enso_init: None,
        };
        let mut sim = ToyAtmosphere::new(params);
        sim.spinup(20);
        let vars = VariableSet::default_toy();
        let mslp_ix = vars.index_of("mslp").unwrap();
        for _ in 0..20 {
            sim.step(); // 5 days, cyclone active from day 1
        }
        let cy = sim.cyclones()[0];
        assert!(cy.active);
        assert!(cy.intensity > 0.3, "intensity {}", cy.intensity);
        // The cyclone center must be a deep low: well below the background
        // (1013 hPa) and the minimum of its latitude row.
        let x = sim.render(&vars);
        let g = sim.grid();
        let (r0, c0) = (cy.row.round() as usize, cy.col.round() as usize % g.nlon);
        let center = x.at(&[g.index(r0, c0), mslp_ix]);
        let mut row_min = f32::INFINITY;
        for c in 0..g.nlon {
            row_min = row_min.min(x.at(&[g.index(r0, c), mslp_ix]));
        }
        let _ = (center, row_min);
        // The vorticity blob's pressure response can trail the kinematic
        // center by a cell or two; the storm's low must live in the
        // neighborhood and be deep relative to the 1013 hPa background.
        let mut local_min = f32::INFINITY;
        for dr in -3i32..=3 {
            let rr = r0 as i32 + dr;
            if rr < 0 || rr >= g.nlat as i32 {
                continue;
            }
            for dc in -3i32..=3 {
                let cc = ((c0 as i32 + dc).rem_euclid(g.nlon as i32)) as usize;
                local_min = local_min.min(x.at(&[g.index(rr as usize, cc), mslp_ix]));
            }
        }
        assert!(
            local_min < 1006.0,
            "no deep low near the cyclone center: local min {local_min} hPa"
        );
    }

    #[test]
    fn heatwave_raises_local_t2m() {
        let mut params = ToyParams { nlat: 32, nlon: 64, seed: 13, ..Default::default() };
        params.scenario = Scenario {
            cyclones: vec![],
            heatwaves: vec![crate::events::HeatwaveSeed::europe_like(24.0)],
            enso_init: None,
        };
        let mut sim = ToyAtmosphere::new(params);
        sim.spinup(10);
        let g = sim.grid();
        let i = g.index(g.row_of_lat(51.5), g.col_of_lon(0.0));
        let vars = VariableSet::default_toy();
        let t2m_ix = vars.index_of("t2m").unwrap();
        let before = sim.render(&vars).at(&[i, t2m_ix]);
        let clim_before = sim.climate().t2m_eq(g.row_of_lat(51.5), g.col_of_lon(0.0), sim.time_days());
        for _ in 0..20 {
            sim.step(); // through day 6: deep in the heatwave
        }
        let after = sim.render(&vars).at(&[i, t2m_ix]);
        let clim_after = sim.climate().t2m_eq(g.row_of_lat(51.5), g.col_of_lon(0.0), sim.time_days());
        let anom_change = (after - clim_after) - (before - clim_before);
        assert!(anom_change > 2.0, "heatwave anomaly change {anom_change}");
    }

    #[test]
    fn nino_index_tracks_enso_state() {
        let mut sim = ToyAtmosphere::new(ToyParams {
            nlat: 32,
            nlon: 64,
            seed: 17,
            scenario: Scenario { enso_init: Some((0.0, 1.5)), ..Default::default() },
            ..Default::default()
        });
        for _ in 0..60 {
            sim.step();
        }
        // Niño 3.4 index: area-mean SST anomaly over the Niño 3.4 box (K).
        let idx = sim.grid.region_mean(&sim.sst_anom, &crate::grid::NINO34);
        let te = sim.enso().index();
        assert!((idx - te).abs() < 1.0, "nino34 {idx} vs te {te}");
        assert!(idx.abs() > 0.2, "warm event not visible in SST");
    }
}
