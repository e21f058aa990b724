fn main() {
    numa_bench::main("ptrepl")
}
