//! Model configuration.

/// Hyperparameters of an AERIS model instance.
///
/// The paper's production configs (Table II) set `dim` up to 7680 and grids
/// of 720×1440 at patch size 1×1; the toy configs used in this repo keep the
/// identical structure at laptop scale. `pipeline stages = n_layers + 2`
/// (§VII-A: I/O + embedding stages are separated).
#[derive(Clone, Debug)]
pub struct AerisConfig {
    /// Token grid height (latitudes) — pixel-level, patch size 1×1.
    pub grid_h: usize,
    /// Token grid width (longitudes).
    pub grid_w: usize,
    /// Prognostic channels C.
    pub channels: usize,
    /// Forcing channels (paper: 3 — solar, orography, land-sea mask).
    pub forcing_channels: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// SwiGLU hidden width.
    pub ffn: usize,
    /// Swin layers (pipeline-stage granularity).
    pub n_layers: usize,
    /// Transformer blocks per Swin layer.
    pub blocks_per_layer: usize,
    /// Attention window (height, width) in tokens.
    pub window: (usize, usize),
    /// Sinusoidal feature dim of the diffusion-time embedding.
    pub time_feat_dim: usize,
    /// Conditioning vector width (shared AdaLN trunk).
    pub cond_dim: usize,
    /// Amplitude of the 2D positional encoding added to input channels.
    pub pos_amp: f32,
    /// Parameter-init seed.
    pub seed: u64,
}

impl AerisConfig {
    /// A tiny config for unit tests (runs a full train step in milliseconds).
    pub fn test_tiny() -> Self {
        AerisConfig {
            grid_h: 8,
            grid_w: 16,
            channels: 4,
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
            seed: 0,
        }
    }

    /// Total input channels after conditioning concat `[x_t, x_{i-1}, x_f]`.
    pub fn input_channels(&self) -> usize {
        2 * self.channels + self.forcing_channels
    }

    /// Total transformer blocks.
    pub fn total_blocks(&self) -> usize {
        self.n_layers * self.blocks_per_layer
    }

    /// Tokens in the image.
    pub fn tokens(&self) -> usize {
        self.grid_h * self.grid_w
    }

    /// Per-head feature dim.
    pub fn head_dim(&self) -> usize {
        self.dim / self.n_heads
    }

    /// Validate divisibility constraints; panics with a clear message.
    pub fn validate(&self) {
        assert!(self.dim.is_multiple_of(self.n_heads), "dim must divide by heads");
        assert!(self.head_dim().is_multiple_of(4), "head_dim must divide by 4 (axial RoPE)");
        assert!(self.grid_h.is_multiple_of(self.window.0), "window height must tile the grid");
        assert!(self.grid_w.is_multiple_of(self.window.1), "window width must tile the grid");
        assert!(self.time_feat_dim.is_multiple_of(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_validates() {
        AerisConfig::test_tiny().validate();
    }

    #[test]
    fn derived_quantities() {
        let c = AerisConfig::test_tiny();
        assert_eq!(c.input_channels(), 11);
        assert_eq!(c.total_blocks(), 2);
        assert_eq!(c.tokens(), 128);
        assert_eq!(c.head_dim(), 8);
    }

    #[test]
    #[should_panic]
    fn bad_window_rejected() {
        let mut c = AerisConfig::test_tiny();
        c.window = (3, 4);
        c.validate();
    }
}
