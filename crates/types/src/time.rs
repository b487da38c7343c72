//! Event-time primitives.
//!
//! Gadget assigns 64-bit timestamps to events (paper §5.1) so that a single
//! generated stream can be replayed under different time units. Throughout
//! the workspace a [`Timestamp`] is interpreted as *milliseconds* of event
//! time unless a component documents otherwise.

/// Event time in milliseconds.
///
/// Event time is the time an event *occurred*, which is generally different
/// from the wall-clock time at which the event reaches an operator.
pub type Timestamp = u64;

/// Returns the start timestamp of the window of the given `length` that
/// contains `ts`, with windows aligned to multiples of `length` shifted by
/// `offset`.
///
/// This mirrors Flink's `TimeWindow::getWindowStartWithOffset` and is the
/// basic building block of the W-ID windowing strategy: a tumbling or
/// sliding window is identified by its start timestamp.
///
/// # Examples
///
/// ```
/// use gadget_types::time::window_start;
/// assert_eq!(window_start(12_345, 5_000, 0), 10_000);
/// assert_eq!(window_start(9_999, 5_000, 0), 5_000);
/// ```
///
/// # Panics
///
/// Panics if `length` is zero.
pub fn window_start(ts: Timestamp, length: Timestamp, offset: Timestamp) -> Timestamp {
    assert!(length > 0, "window length must be positive");
    let shifted = ts.wrapping_sub(offset);
    offset + shifted - (shifted % length)
}

/// Returns the start timestamps of every sliding window of the given
/// `length` and `slide` that contains `ts`, latest window first.
///
/// An event belongs to `ceil(length / slide)` windows when `slide <= length`
/// (paper §3.2.2: "each incoming event is assigned to `length/slide` window
/// buckets").
///
/// # Examples
///
/// ```
/// use gadget_types::time::sliding_window_starts;
/// // 10s windows sliding every 5s: ts=12s belongs to [10s, 20s) and [5s, 15s).
/// assert_eq!(sliding_window_starts(12_000, 10_000, 5_000), vec![10_000, 5_000]);
/// ```
///
/// # Panics
///
/// Panics if `slide` is zero.
pub fn sliding_window_starts(ts: Timestamp, length: Timestamp, slide: Timestamp) -> Vec<Timestamp> {
    assert!(slide > 0, "window slide must be positive");
    let last_start = window_start(ts, slide, 0);
    let mut starts = Vec::with_capacity((length / slide) as usize + 1);
    let mut start = last_start;
    loop {
        // The window [start, start + length) contains ts iff start > ts - length.
        if start + length > ts {
            starts.push(start);
        } else {
            break;
        }
        match start.checked_sub(slide) {
            Some(prev) => start = prev,
            None => break,
        }
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_start_aligns_down() {
        assert_eq!(window_start(0, 5_000, 0), 0);
        assert_eq!(window_start(4_999, 5_000, 0), 0);
        assert_eq!(window_start(5_000, 5_000, 0), 5_000);
        assert_eq!(window_start(1_000_000, 7, 0), 1_000_000 - (1_000_000 % 7));
    }

    #[test]
    fn window_start_with_offset() {
        assert_eq!(window_start(12_345, 5_000, 1_000), 11_000);
        assert_eq!(window_start(1_000, 5_000, 1_000), 1_000);
    }

    #[test]
    fn sliding_assigns_length_over_slide_windows() {
        // length 30, slide 5 => 6 windows per event.
        let starts = sliding_window_starts(100_000, 30_000, 5_000);
        assert_eq!(starts.len(), 6);
        for w in &starts {
            assert!(*w <= 100_000 && w + 30_000 > 100_000);
        }
    }

    #[test]
    fn sliding_equals_tumbling_when_slide_is_length() {
        let starts = sliding_window_starts(12_345, 5_000, 5_000);
        assert_eq!(starts, vec![10_000]);
    }

    #[test]
    fn sliding_near_zero_does_not_underflow() {
        let starts = sliding_window_starts(1_000, 30_000, 5_000);
        assert!(!starts.is_empty());
        assert!(starts.iter().all(|w| w + 30_000 > 1_000));
    }
}
