fn main() {
    numa_bench::main("chaos")
}
