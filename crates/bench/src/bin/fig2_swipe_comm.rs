//! Fig. 2: measured SWiPe traffic by WP degree: prints [`aeris_bench::figs::fig2_swipe_comm`]'s report.
fn main() {
    print!("{}", aeris_bench::figs::fig2_swipe_comm::run(&aeris_bench::RunScale::from_env()));
}
