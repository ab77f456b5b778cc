pub fn reinterpret(x: u32) -> i32 {
    // SAFETY: every u32 bit pattern is a valid i32 — but the workspace
    // forbids `unsafe` outright, so no comment can excuse it.
    unsafe { std::mem::transmute::<u32, i32>(x) }
}
