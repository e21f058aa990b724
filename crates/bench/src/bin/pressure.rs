fn main() {
    numa_bench::main("pressure")
}
