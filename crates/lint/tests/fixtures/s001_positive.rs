pub fn first(xs: &[u32]) -> u32 {
    // mm-allow(X999): no such rule exists
    // mm-allow(R001):
    // mm-allow(A001): nothing on this or the next line triggers A001
    xs[0]
}
