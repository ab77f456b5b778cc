pub fn bail(msg: &str) -> ! {
    eprintln!("{msg}");
    #[expect(
        clippy::disallowed_methods,
        reason = "fatal-signal shim, no destructors can be live here"
    )]
    std::process::exit(3)
}
