fn main() {
    numa_bench::main("blas1_check")
}
