//! One module per table or figure of the paper; each `run` returns the
//! [`Report`](crate::Report) its binary prints.

pub mod ablations;
pub mod assim;
pub mod fig2_swipe_comm;
pub mod fig4_strong_scaling;
pub mod fig4_weak_scaling;
pub mod fig5_heatwave;
pub mod fig5_medium_range;
pub mod fig6_hurricane;
pub mod fig7_seasonal;
pub mod table1_systems;
pub mod table2_configs;
pub mod table3_throughput;
