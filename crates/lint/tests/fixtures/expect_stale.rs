pub fn first(xs: &[u32]) -> Option<u32> {
    #[expect(
        clippy::unwrap_used,
        reason = "the unwrap this excused was rewritten away"
    )]
    xs.first().copied()
}
