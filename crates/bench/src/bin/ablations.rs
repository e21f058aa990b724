fn main() {
    numa_bench::main("ablations")
}
