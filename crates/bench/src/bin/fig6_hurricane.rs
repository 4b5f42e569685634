//! Fig. 6: cyclone track and intensity by lead: prints [`aeris_bench::figs::fig6_hurricane`]'s report.
fn main() {
    print!("{}", aeris_bench::figs::fig6_hurricane::run(&aeris_bench::RunScale::from_env()));
}
