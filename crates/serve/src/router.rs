//! Antenna-to-shard routing.
//!
//! The routing contract that keeps serve answers bit-identical to a
//! single-process run: **one antenna, one shard, forever**. Each shard's
//! `SessionManager` then sees exactly the per-antenna report sequence the
//! reader sent (shard queues are FIFO), so ingest screening, windowing
//! and fixes replay deterministically.

/// The shard owning `antenna_id` among `shards` shards (a zero count is
/// treated as one): antenna id modulo shard count. Stateless, uniform for
/// the simulator's dense antenna ids, and trivially stable.
pub(crate) fn shard_of(antenna_id: u8, shards: usize) -> usize {
    usize::from(antenna_id) % shards.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulo_router_is_stable_and_in_range() {
        for antenna in 0..=u8::MAX {
            let s = shard_of(antenna, 3);
            assert!(s < 3);
            assert_eq!(s, shard_of(antenna, 3), "routing must be deterministic");
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert_eq!(shard_of(200, 0), 0);
    }
}
