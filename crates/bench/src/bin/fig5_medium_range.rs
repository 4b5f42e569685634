//! Fig. 5a: medium-range ensemble skill: prints [`aeris_bench::figs::fig5_medium_range`]'s report.
fn main() {
    print!("{}", aeris_bench::figs::fig5_medium_range::run(&aeris_bench::RunScale::from_env()));
}
