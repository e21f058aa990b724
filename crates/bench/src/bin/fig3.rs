fn main() {
    numa_bench::main("fig3")
}
