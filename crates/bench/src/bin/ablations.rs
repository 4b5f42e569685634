//! Design-choice ablations: prints [`aeris_bench::figs::ablations`]'s report.
fn main() {
    print!("{}", aeris_bench::figs::ablations::run(&aeris_bench::RunScale::from_env()));
}
