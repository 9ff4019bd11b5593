//! Byte-level JSON writers for fixed-shape lines: the journal's frame
//! payloads and the serving layer's reply lines.
//!
//! Those lines are written straight into a reused buffer instead of
//! through a `serde_json::Value` tree, and must come out byte for byte
//! as the tree printer would print them. Strings therefore go through
//! the vendored printer's own escaper, [`write_string`], so the two
//! cannot disagree; integers print in plain decimal, as the printer
//! prints them.

pub use serde_json::write_string;

use crate::market::MarketAccounting;

/// Appends `n` in decimal.
pub fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Appends `b` as `true` or `false`.
pub fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Appends the accounting as the object `STATUS` replies and snapshot
/// frames both carry, in their shared key order.
pub fn write_accounting(out: &mut String, a: &MarketAccounting) {
    for (key, n) in [
        (r#"{"submitted":"#, a.answers_submitted),
        (r#","accepted":"#, a.answers_accepted),
        (r#","rejected":"#, a.answers_rejected),
        (r#","dropped":"#, a.answers_dropped),
        (r#","paid":"#, a.answers_paid),
        (r#","abandoned":"#, a.answers_abandoned),
        (r#","stalled":"#, a.stalled),
        (r#","churned":"#, a.churned),
    ] {
        out.push_str(key);
        write_u64(out, n);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn writers_print_what_the_tree_printer_prints() {
        for n in [0, 7, 10, 99, 4_294_967_295, u64::MAX] {
            let mut out = String::new();
            write_u64(&mut out, n);
            assert_eq!(out, json!(n).to_string());
        }
        let a = MarketAccounting {
            answers_submitted: 9,
            answers_accepted: 8,
            answers_rejected: 1,
            answers_dropped: 2,
            answers_paid: 6,
            answers_abandoned: 2,
            stalled: 3,
            churned: u64::MAX,
        };
        let mut out = String::new();
        write_accounting(&mut out, &a);
        assert_eq!(
            out,
            r#"{"submitted":9,"accepted":8,"rejected":1,"dropped":2,"paid":6,"abandoned":2,"stalled":3,"churned":18446744073709551615}"#
        );
    }
}
