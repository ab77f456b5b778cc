pub fn fan_out() {
    #[expect(
        clippy::disallowed_methods,
        reason = "detached watchdog thread, output never observed"
    )]
    let handle = std::thread::spawn(|| 42);
    let _ = handle.join();
}
