fn main() {
    numa_bench::main("table1")
}
