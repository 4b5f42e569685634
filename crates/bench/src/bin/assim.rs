//! Analysis RMSE vs observation density: prints [`aeris_bench::figs::assim`]'s report.
fn main() {
    print!("{}", aeris_bench::figs::assim::run(&aeris_bench::RunScale::from_env()));
}
