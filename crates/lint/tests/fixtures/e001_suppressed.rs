pub fn first(xs: &[u32]) -> u32 {
    assert!(!xs.is_empty());
    #[expect(clippy::unwrap_used, reason = "asserted non-empty one line up")]
    xs.first().copied().unwrap()
}
