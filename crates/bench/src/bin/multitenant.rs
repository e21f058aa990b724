fn main() {
    numa_bench::main("multitenant")
}
