// Fixture: the runtime-detected SIMD pattern for the unsafe-audit rule.
// Mirrors omnc-gf256's avx2 module: a safe entry point that checks the CPU
// feature itself and only then makes the feature-gated call, and a body
// whose only other unsafe operations are unaligned loads/stores of
// `chunks_exact(32)` blocks. Linted under the sanctioned module's path it
// produces zero findings; under any other path every `unsafe` is denied.
// Not compiled.

// SAFETY: every unsafe item in this module carries its own comment.
#![allow(unsafe_code)]

pub(crate) fn mul_assign(data: &mut [u8], c: u8) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return 0;
    }
    // SAFETY: AVX2 was detected on the running CPU just above.
    unsafe { mul_assign_avx2(data, c) }
}

#[target_feature(enable = "avx2")]
fn mul_assign_avx2(data: &mut [u8], c: u8) -> usize {
    let mut done = 0;
    for block in data.chunks_exact_mut(32) {
        // SAFETY: `block` is exactly 32 bytes and the accesses are unaligned.
        unsafe {
            let x = _mm256_loadu_si256(block.as_ptr().cast());
            _mm256_storeu_si256(block.as_mut_ptr().cast(), mul_block(x, c));
        }
        done += 32;
    }
    done
}
