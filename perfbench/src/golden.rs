//! The golden decision file and the line format decisions are compared
//! in.

use palo_core::Decision;
use std::fmt::Write as _;

/// The golden decision file, read from the repository checkout.
pub const GOLDEN_PATH: &str = "tests/golden/decisions.txt";

/// The golden decision lines, or an error when the checkout lacks them.
pub fn golden_lines() -> Result<Vec<String>, String> {
    std::fs::read_to_string(GOLDEN_PATH)
        .map(|text| text.lines().map(str::to_string).collect())
        .map_err(|e| format!("cannot read {GOLDEN_PATH}: {e}"))
}

/// The golden line whose head (`name[stage] @ platform`) is `head`.
pub fn golden_line<'g>(golden: &'g [String], head: &str) -> Option<&'g String> {
    golden.iter().find(|g| g.split(':').next() == Some(head))
}

/// One decision in the golden file's format:
/// `name[stage] @ platform: class=… cost=0x…` (cost as exact bits).
pub fn decision_line(kernel: &str, stage: usize, platform: &str, d: &Decision) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{kernel}[{stage}] @ {platform}: class={:?} tile={:?} inter={:?} intra={:?} \
         nti={} lanes={} par={:?} cost={:#018x}",
        d.class,
        d.tile,
        d.inter_order,
        d.intra_order,
        d.use_nti,
        d.vector_lanes,
        d.parallel_var,
        d.predicted_cost.to_bits(),
    );
    out
}
