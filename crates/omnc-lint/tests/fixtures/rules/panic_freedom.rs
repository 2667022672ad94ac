// Fixture: the panic-freedom rule (unwrap).
// Linted under a fake hot-path module path; not compiled.

fn unwrap_positive(x: Option<u32>) -> u32 {
    x.unwrap() // finding: unwrap (deny)
}

fn unwrap_allowed(x: Option<u32>) -> u32 {
    x.unwrap() // lint: allow(unwrap) fixture: checked by caller
}

fn expect_is_fine(x: Option<u32>) -> u32 {
    x.expect("fixture")
}

fn macro_is_fine(flag: bool) {
    if flag {
        panic!("fixture");
    }
}

fn index_is_fine(v: &[u8]) -> u8 {
    v[0]
}
