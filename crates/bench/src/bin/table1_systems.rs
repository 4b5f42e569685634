//! Table I: system configurations: prints [`aeris_bench::figs::table1_systems`]'s report.
fn main() {
    print!("{}", aeris_bench::figs::table1_systems::run(&aeris_bench::RunScale::from_env()));
}
