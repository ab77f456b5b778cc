pub fn first(xs: &[u32]) -> u32 {
    assert!(!xs.is_empty());
    #[expect(clippy::unwrap_used)]
    xs.first().copied().unwrap()
}
