#[expect(
    clippy::disallowed_types,
    reason = "scratch map drained into a sorted Vec before any output"
)]
use std::collections::HashMap;

pub fn histogram(xs: &[u32]) -> Vec<(u32, u32)> {
    #[expect(
        clippy::disallowed_types,
        reason = "scratch map drained into a sorted Vec before any output"
    )]
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for &x in xs {
        *counts.entry(x).or_insert(0) += 1;
    }
    let mut out: Vec<(u32, u32)> = counts.into_iter().collect();
    out.sort_unstable();
    out
}
