//! One module per paper artifact; each exposes `run(&ExperimentContext)`
//! which prints the regenerated table/figure and writes it under
//! `results/`.

pub mod ablation_leadtime;
pub mod ablation_ospf;
pub mod ablations;
pub mod fig07_routes;
pub mod fig08_regional_scatter;
pub mod fig11_peering;
pub mod fig12_tier1_replay;
pub mod fig13_regional_replay;
pub mod figs_forecast;
pub mod figs_maps;
pub mod figs_provisioning;
pub mod table1_bandwidths;
pub mod table2_tier1;
pub mod table3_regression;
