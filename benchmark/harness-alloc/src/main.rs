fn main() {
    harness::cli_main()
}
