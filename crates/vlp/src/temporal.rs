//! Temporal coding: the sweep length of a temporally-coded magnitude.
//!
//! A temporal converter (TC) is an equivalence check between an input value
//! and a free-running counter: when the counter reaches the input value the TC
//! asserts a one-cycle spike (Figure 2a of the paper). A spike at cycle `i`
//! *is* the temporal encoding of the value `i`, so coding an `n`-bit
//! magnitude takes one counter sweep of `2^n` cycles. The cycle cost of the
//! arrays built from these spikes lives in `mugi-arch`.

/// The number of cycles a full temporal sweep takes for an `n`-bit magnitude.
/// The paper repeatedly uses the fact that this grows exponentially (hence
/// 3-bit mantissas / INT4 magnitudes are the sweet spot).
pub fn sweep_cycles(bits: u32) -> u64 {
    1u64 << bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_grows_exponentially() {
        assert_eq!(sweep_cycles(3), 8);
        assert_eq!(sweep_cycles(7), 128);
        // The format-customization argument of Section 4.2: BF16's 7-bit
        // mantissa would need 16x the sweep of a 3-bit magnitude.
        assert_eq!(sweep_cycles(7) / sweep_cycles(3), 16);
    }
}
