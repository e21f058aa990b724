fn main() {
    numa_bench::main("fig5")
}
