//! Table II: model configurations: prints [`aeris_bench::figs::table2_configs`]'s report.
fn main() {
    print!("{}", aeris_bench::figs::table2_configs::run(&aeris_bench::RunScale::from_env()));
}
