//! R0 fixture: broken directives. R0 can never be suppressed.

// lint:hotpath:start FIXTURE-R0-UNKNOWN (typo: not a directive)
pub fn a() {}

// lint:hot-path:end FIXTURE-R0-UNMATCHED-END (no open region)
pub fn b() {}

// lint:hot-path:start
pub fn c() -> Vec<u32> {
    // lint:allow(R1) FIXTURE-R0-NO-REASON
    Vec::new() // still fires: a bad allow suppresses nothing
}
// lint:hot-path:end

pub fn d(x: Option<u32>) -> u32 {
    // lint:allow(R9): FIXTURE-R0-BAD-RULE unknown rule id
    // lint:allow(R2): FIXTURE-R0-RETIRED-RULE copied from old docs
    x.unwrap_or(0)
}

// lint:hot-path:start FIXTURE-R0-NEVER-CLOSED
pub fn e() {}
