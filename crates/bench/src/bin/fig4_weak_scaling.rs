//! Fig. 4 (bottom + 4b): weak scaling: prints [`aeris_bench::figs::fig4_weak_scaling`]'s report.
fn main() {
    print!("{}", aeris_bench::figs::fig4_weak_scaling::run(&aeris_bench::RunScale::from_env()));
}
