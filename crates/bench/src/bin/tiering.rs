fn main() {
    numa_bench::main("tiering")
}
