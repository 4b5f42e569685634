//! Table III: sustained and peak throughput: prints [`aeris_bench::figs::table3_throughput`]'s report.
fn main() {
    print!("{}", aeris_bench::figs::table3_throughput::run(&aeris_bench::RunScale::from_env()));
}
