fn main() {
    let n: u32 = "7".parse().unwrap();
    let m: u32 = "8".parse().expect("digits");
    println!("{}", n + m);
}
