//! The prognostic variable set (§VI-B of the paper).
//!
//! The paper predicts five surface variables (T2m, U10, V10, MSLP, SST) and
//! five atmospheric variables (Z, T, U, V, Q) on 13 pressure levels — 70
//! channels. At toy resolution we keep the identical *structure* with a
//! configurable (default 4) level set, plus the paper's variable weighting
//! κ(v): near-surface variables emphasized, upper-air weighted by pressure.

/// A surface variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SurfaceVar {
    /// 2-meter temperature (K).
    T2m,
    /// 10-meter zonal wind (m/s).
    U10,
    /// 10-meter meridional wind (m/s).
    V10,
    /// Mean sea-level pressure (hPa).
    Mslp,
    /// Sea surface temperature (K; land cells carry the relaxed value).
    Sst,
}

/// An upper-air variable (defined on pressure levels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpperVar {
    /// Geopotential (m²/s²).
    Z,
    /// Temperature (K).
    T,
    /// Zonal wind (m/s).
    U,
    /// Meridional wind (m/s).
    V,
    /// Specific humidity (g/kg).
    Q,
}

/// One channel of the state tensor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Channel {
    Surface(SurfaceVar),
    Upper(UpperVar, u32),
}

impl Channel {
    /// WeatherBench-style short name, e.g. `t2m`, `z500`, `q700`.
    pub fn name(&self) -> String {
        match self {
            Channel::Surface(SurfaceVar::T2m) => "t2m".into(),
            Channel::Surface(SurfaceVar::U10) => "u10".into(),
            Channel::Surface(SurfaceVar::V10) => "v10".into(),
            Channel::Surface(SurfaceVar::Mslp) => "mslp".into(),
            Channel::Surface(SurfaceVar::Sst) => "sst".into(),
            Channel::Upper(v, lev) => {
                let tag = match v {
                    UpperVar::Z => "z",
                    UpperVar::T => "t",
                    UpperVar::U => "u",
                    UpperVar::V => "v",
                    UpperVar::Q => "q",
                };
                format!("{tag}{lev}")
            }
        }
    }
}

/// The full ordered channel list of a model configuration.
#[derive(Clone, Debug)]
pub struct VariableSet {
    channels: Vec<Channel>,
}

/// The paper's 13 ERA5 pressure levels (hPa).
pub const PAPER_LEVELS: [u32; 13] = [50, 100, 150, 200, 250, 300, 400, 500, 600, 700, 850, 925, 1000];

impl VariableSet {
    /// Toy default: all five surface variables plus Z/T/U/V/Q on
    /// {850, 700, 500, 250} hPa — 25 channels.
    pub fn default_toy() -> Self {
        Self::with_levels(&[850, 700, 500, 250])
    }

    /// Surface variables plus upper-air variables on the given levels.
    pub fn with_levels(levels: &[u32]) -> Self {
        let mut channels = vec![
            Channel::Surface(SurfaceVar::T2m),
            Channel::Surface(SurfaceVar::U10),
            Channel::Surface(SurfaceVar::V10),
            Channel::Surface(SurfaceVar::Mslp),
            Channel::Surface(SurfaceVar::Sst),
        ];
        for &v in &[UpperVar::Z, UpperVar::T, UpperVar::U, UpperVar::V, UpperVar::Q] {
            for &lev in levels {
                channels.push(Channel::Upper(v, lev));
            }
        }
        VariableSet { channels }
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// True if no channels (never for constructed sets).
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Ordered channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Index of a channel by name (`z500` etc.), if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.channels.iter().position(|c| c.name() == name)
    }

    /// The paper's variable weights κ(v) (Eq. 2): fixed emphasis for surface
    /// variables (following GraphCast-style weighting) and pressure-
    /// proportional weights for upper-air channels, normalized to mean 1.
    pub fn kappa(&self) -> Vec<f32> {
        let mut w: Vec<f32> = self
            .channels
            .iter()
            .map(|c| match c {
                Channel::Surface(SurfaceVar::T2m) => 1.0,
                Channel::Surface(SurfaceVar::U10) => 0.77,
                Channel::Surface(SurfaceVar::V10) => 0.77,
                Channel::Surface(SurfaceVar::Mslp) => 1.5,
                Channel::Surface(SurfaceVar::Sst) => 1.0,
                Channel::Upper(_, lev) => *lev as f32 / 1000.0,
            })
            .collect();
        let mean: f32 = w.iter().sum::<f32>() / w.len() as f32;
        for v in &mut w {
            *v /= mean;
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_toy_has_25_channels() {
        let vs = VariableSet::default_toy();
        assert_eq!(vs.len(), 25);
        assert_eq!(vs.channels()[0].name(), "t2m");
        // 5 surface + Z(4) + T(4) + U(4) + V(4) = 21 channels before Q; 700 hPa
        // is the second level in the default order.
        assert_eq!(vs.index_of("q700"), Some(22));
    }

    #[test]
    fn paper_full_has_70_channels() {
        let vs = VariableSet::with_levels(&PAPER_LEVELS);
        assert_eq!(vs.len(), 5 + 5 * 13);
    }

    #[test]
    fn channel_names_are_unique() {
        let vs = VariableSet::default_toy();
        let mut names: Vec<String> = vs.channels().iter().map(|c| c.name()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn index_of_finds_named_channels() {
        let vs = VariableSet::default_toy();
        for (i, ch) in vs.channels().iter().enumerate() {
            assert_eq!(vs.index_of(&ch.name()), Some(i));
        }
        assert_eq!(vs.index_of("nonexistent"), None);
    }

    #[test]
    fn kappa_mean_is_one_and_upper_scales_with_pressure() {
        let vs = VariableSet::default_toy();
        let k = vs.kappa();
        let mean: f32 = k.iter().sum::<f32>() / k.len() as f32;
        assert!((mean - 1.0).abs() < 1e-5);
        let i850 = vs.index_of("t850").unwrap();
        let i250 = vs.index_of("t250").unwrap();
        assert!(k[i850] > k[i250], "near-surface levels must weigh more");
    }
}
