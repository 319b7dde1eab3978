//! Temporal coding primitives: counters, spikes and temporal converters.
//!
//! A temporal converter (TC) is an equivalence check between an input value
//! and a free-running counter: when the counter reaches the input value the TC
//! asserts a one-cycle spike (Figure 2a of the paper). A spike at cycle `i`
//! *is* the temporal encoding of the value `i`; everything downstream
//! (subscription, value reuse) is built out of these spikes.

use serde::{Deserialize, Serialize};

/// A temporal encoding of a non-negative value: a single spike within a sweep
/// of `sweep_length` cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TemporalSignal {
    /// The cycle (0-based) at which the spike fires.
    pub spike_cycle: u32,
    /// Total number of cycles in the counting sweep (`2^bits`).
    pub sweep_length: u32,
}

impl TemporalSignal {
    /// Creates a signal for `value` with a sweep of `sweep_length` cycles.
    ///
    /// # Panics
    /// Panics if `value >= sweep_length`.
    pub fn new(value: u32, sweep_length: u32) -> Self {
        assert!(
            value < sweep_length,
            "value {value} does not fit in a sweep of {sweep_length} cycles"
        );
        TemporalSignal { spike_cycle: value, sweep_length }
    }

    /// The value this signal encodes (identical to the spike cycle).
    pub fn value(&self) -> u32 {
        self.spike_cycle
    }

    /// Whether the spike is asserted at `cycle`.
    pub fn is_asserted_at(&self, cycle: u32) -> bool {
        cycle == self.spike_cycle
    }
}

/// A temporal converter: latches one value and emits its spike as the shared
/// counter sweeps.
///
/// ```
/// use mugi_vlp::temporal::TemporalConverter;
/// let mut tc = TemporalConverter::new(3); // 3-bit magnitude -> 8-cycle sweep
/// tc.load(5);
/// let fired: Vec<bool> = (0..8).map(|c| tc.tick(c)).collect();
/// assert_eq!(fired.iter().filter(|&&f| f).count(), 1);
/// assert!(fired[5]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TemporalConverter {
    bits: u32,
    loaded: Option<u32>,
    fired: bool,
}

impl TemporalConverter {
    /// Creates a converter for `bits`-bit magnitudes (sweep length `2^bits`).
    ///
    /// # Panics
    /// Panics if `bits` is zero or greater than 16.
    pub fn new(bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "bits must be in 1..=16, got {bits}");
        TemporalConverter { bits, loaded: None, fired: false }
    }

    /// Sweep length in cycles.
    pub fn sweep_length(&self) -> u32 {
        1 << self.bits
    }

    /// Number of magnitude bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Loads a new value, clearing any previous spike state.
    ///
    /// # Panics
    /// Panics if `value` does not fit in the sweep.
    pub fn load(&mut self, value: u32) {
        assert!(value < self.sweep_length(), "value {value} does not fit in {} bits", self.bits);
        self.loaded = Some(value);
        self.fired = false;
    }

    /// Advances one cycle with the shared counter at `counter`; returns whether
    /// the spike fires on this cycle.
    pub fn tick(&mut self, counter: u32) -> bool {
        match self.loaded {
            Some(v) if counter == v && !self.fired => {
                self.fired = true;
                true
            }
            _ => false,
        }
    }

    /// Produces the signal for the currently loaded value without simulating
    /// cycle by cycle.
    pub fn signal(&self) -> Option<TemporalSignal> {
        self.loaded.map(|v| TemporalSignal::new(v, self.sweep_length()))
    }
}

/// Converts a slice of small magnitudes into temporal signals sharing one
/// sweep. This is the vectorised form used by a whole array column.
///
/// # Panics
/// Panics if any value does not fit in `bits`.
pub fn encode_all(values: &[u32], bits: u32) -> Vec<TemporalSignal> {
    let sweep = 1u32 << bits;
    values
        .iter()
        .map(|&v| {
            assert!(v < sweep, "value {v} does not fit in {bits} bits");
            TemporalSignal::new(v, sweep)
        })
        .collect()
}

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
    fn signal_encodes_value_as_spike_time() {
        let s = TemporalSignal::new(3, 8);
        assert_eq!(s.value(), 3);
        assert!(s.is_asserted_at(3));
        assert!(!s.is_asserted_at(2));
    }

    #[test]
    fn converter_fires_exactly_once() {
        let mut tc = TemporalConverter::new(3);
        tc.load(6);
        let mut fires = 0;
        for c in 0..tc.sweep_length() {
            if tc.tick(c) {
                fires += 1;
                assert_eq!(c, 6);
            }
        }
        assert_eq!(fires, 1);
        // A second sweep without reloading does not fire again.
        for c in 0..tc.sweep_length() {
            assert!(!tc.tick(c));
        }
    }

    #[test]
    fn reload_clears_fired_state() {
        let mut tc = TemporalConverter::new(2);
        tc.load(1);
        assert!(tc.tick(1));
        tc.load(2);
        assert!(tc.tick(2));
    }

    #[test]
    fn converter_without_load_never_fires() {
        let mut tc = TemporalConverter::new(4);
        for c in 0..tc.sweep_length() {
            assert!(!tc.tick(c));
        }
        assert!(tc.signal().is_none());
    }

    #[test]
    fn encode_all_matches_individual_encoding() {
        let signals = encode_all(&[0, 3, 7, 5], 3);
        assert_eq!(signals.len(), 4);
        assert_eq!(signals[1].value(), 3);
        assert!(signals.iter().all(|s| s.sweep_length == 8));
    }

    #[test]
    fn sweep_grows_exponentially() {
        assert_eq!(sweep_cycles(3), 8);
        assert_eq!(sweep_cycles(7), 128);
        // The format-customization argument of Section 4.2: BF16's 7-bit
        // mantissa would need 16x the sweep of a 3-bit magnitude.
        assert_eq!(sweep_cycles(7) / sweep_cycles(3), 16);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn load_rejects_oversized_values() {
        let mut tc = TemporalConverter::new(3);
        tc.load(8);
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=16")]
    fn zero_bits_rejected() {
        TemporalConverter::new(0);
    }
}
