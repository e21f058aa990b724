fn main() {
    numa_bench::main("scaling8")
}
