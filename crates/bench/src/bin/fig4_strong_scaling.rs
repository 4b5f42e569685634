//! Fig. 4 (top): strong scaling: prints [`aeris_bench::figs::fig4_strong_scaling`]'s report.
fn main() {
    print!("{}", aeris_bench::figs::fig4_strong_scaling::run(&aeris_bench::RunScale::from_env()));
}
