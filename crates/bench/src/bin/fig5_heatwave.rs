//! Fig. 5b: heatwave ensemble forecast: prints [`aeris_bench::figs::fig5_heatwave`]'s report.
fn main() {
    print!("{}", aeris_bench::figs::fig5_heatwave::run(&aeris_bench::RunScale::from_env()));
}
