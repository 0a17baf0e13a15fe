//! Stamps the build settings into the binary, so every result names the
//! profile and codegen flags it was measured with.

fn main() {
    let var = |k: &str| std::env::var(k).unwrap_or_default();
    let rustflags = var("CARGO_ENCODED_RUSTFLAGS").replace('\u{1f}', " ");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={rustflags}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={}", var("PROFILE"));
    println!("cargo:rustc-env=PERFBENCH_OPT_LEVEL={}", var("OPT_LEVEL"));
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
