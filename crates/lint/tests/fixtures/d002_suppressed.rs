use std::time::Instant;

pub fn stamp() -> Instant {
    #[expect(
        clippy::disallowed_methods,
        reason = "debug-only probe, value never reaches artifact bytes"
    )]
    Instant::now()
}
