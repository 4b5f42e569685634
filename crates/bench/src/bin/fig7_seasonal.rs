//! Fig. 7: seasonal stability: prints [`aeris_bench::figs::fig7_seasonal`]'s report.
fn main() {
    print!("{}", aeris_bench::figs::fig7_seasonal::run(&aeris_bench::RunScale::from_env()));
}
