//! Regenerates the **Section 6.1 block census**: how many basic blocks
//! each application has and executes (the paper quotes stringsearch 25,
//! susan 93 executed blocks), plus the simulator's block-dispatch
//! histogram (mean/max instructions per dispatched superblock).

fn main() {
    println!("Section 6.1 — basic-block census");
    println!(
        "{:<14} {:>10} {:>8} {:>9} {:>12} {:>12} {:>8} {:>8}",
        "workload",
        "text(ins)",
        "static",
        "executed",
        "block-execs",
        "instructions",
        "blk-avg",
        "blk-max"
    );
    cimon_bench::print_rule(89);
    for r in cimon_bench::block_census() {
        println!(
            "{:<14} {:>10} {:>8} {:>9} {:>12} {:>12} {:>8.2} {:>8}",
            r.workload,
            r.text_instructions,
            r.static_blocks,
            r.executed_blocks,
            r.block_executions,
            r.instructions,
            r.block_mean,
            r.block_max
        );
    }
    println!("\nShape checks (paper: stringsearch 25, susan 93 executed blocks): counts");
    println!("spread widely across the suite with stringsearch's flat code the largest");
    println!("block population and the loop kernels the smallest. blk-avg/blk-max are");
    println!("the dispatcher's superblock lengths: what one `step_block` retires.");
}
