//! Lint self-test fixture: every per-file rule must fire exactly at the
//! tilde expectation markers, and nowhere else. This file is never compiled;
//! the integration test feeds it to `analyze_file` under a hot-path
//! library name inside the documented core crates, so L5, the SeqCst
//! hot-path check and L9 are all in scope.

use std::f64::consts::TAU;

/// L1 fires on a bare unwrap in library code.
pub fn l1_unwrap(v: Option<u32>) -> u32 {
    v.unwrap() //~ L1
}

/// An allow marker inside a *string* must not suppress the rule: the
/// v1 engine matched markers on raw source lines and went quiet here.
pub fn l1_marker_in_string(v: Option<u32>) -> u32 {
    let _decoy = "lint:allow(no-panic)";
    v.unwrap() //~ L1
}

/// L2 fires on raw wrap arithmetic outside `geom::angle`.
pub fn l2_raw_wrap(phase: f64) -> f64 {
    phase.rem_euclid(TAU) //~ L2
}

/// L2 also fires on a manual ±π wrap.
pub fn l2_manual_wrap(mut d: f64) -> f64 {
    if d > std::f64::consts::PI { d -= TAU; } //~ L2
    d
}

/// L3 fires on float equality.
pub fn l3_float_eq(a: f64) -> bool {
    a == 0.0 //~ L3
}

/// L4 fires on a stringly-typed public error.
pub fn l4_stringly(s: &str) -> Result<u32, String> { //~ L4
    s.parse().map_err(|_| "bad".to_string())
}

/// L5 fires on an unannotated numeric cast in a hot path.
pub fn l5_cast(i: usize) -> f64 {
    i as f64 //~ L5
}

/// L6 fires when a lock guard is live across observer emission.
pub fn l6_guard_across_emit(obs: &ObsHandle, cache: &CacheLock) {
    let guard = cache.lock();
    obs.emit(|| guard.len()); //~ L6
}

/// L6 fires when a lock guard is live across a spectrum peak search.
pub fn l6_guard_across_peak(engine: &SpectrumEngine, cache: &CacheLock) {
    let guard = cache.lock();
    engine.peak_3d(guard.len()); //~ L6
}

/// L7 fires on a memory ordering without a justification note.
pub fn l7_unjustified(c: &std::sync::atomic::AtomicU64) {
    c.fetch_add(1, std::sync::atomic::Ordering::Relaxed); //~ L7
}

/// L7 rejects `SeqCst` in a hot path even with a note attached.
pub fn l7_seqcst_hot(c: &std::sync::atomic::AtomicU64) {
    // ordering: a note cannot bless SeqCst on the hot path
    c.fetch_add(1, std::sync::atomic::Ordering::SeqCst); //~ L7
}

pub fn l9_undocumented() {} //~ L9

#[cfg(test)]
mod tests {
    // Inside a test region none of the expression rules apply.
    #[test]
    fn exempt() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
        assert!(0.25f64.rem_euclid(std::f64::consts::TAU) == 0.25);
    }
}
