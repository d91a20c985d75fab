//! Comparison semantics for XQ conditions.
//!
//! The fragment compares string values of nodes (paper Fig. 6:
//! `var/axis::ν RelOp string`). Following XPath 1.0 practice — and because
//! the XMark queries compare prices and incomes — operands that both parse
//! as numbers are compared numerically; otherwise lexicographically.
//! Comparisons over node sets are existential: `$x/p = "v"` holds when
//! *some* matched node's string value satisfies the relation.

use gcx_query::RelOp;

/// Compares two string values under `op`, numerically when both sides
/// parse as `f64`.
pub fn compare_values(left: &str, right: &str, op: RelOp) -> bool {
    let lt = left.trim();
    let rt = right.trim();
    if let (Ok(a), Ok(b)) = (lt.parse::<f64>(), rt.parse::<f64>()) {
        return match op {
            RelOp::Le => a <= b,
            RelOp::Lt => a < b,
            RelOp::Eq => a == b,
            RelOp::Ne => a != b,
            RelOp::Ge => a >= b,
            RelOp::Gt => a > b,
        };
    }
    match op {
        RelOp::Le => left <= right,
        RelOp::Lt => left < right,
        RelOp::Eq => left == right,
        RelOp::Ne => left != right,
        RelOp::Ge => left >= right,
        RelOp::Gt => left > right,
    }
}

/// The equality class of a string value under `compare_values(_, _, Eq)`:
/// a number for values that parse as `f64` after trimming, the untrimmed
/// string otherwise (see [`eq_key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EqKey<'a> {
    /// `f64` bits, `-0.0` folded into `0.0`.
    Num(u64),
    Str(&'a str),
}

/// The key `compare_values(a, b, Eq)` compares by: it holds exactly when
/// both keys are `Some` and equal. `NaN` equals nothing, so it has no key.
/// A numeric and a non-numeric value can never be equal: string equality
/// would make them the same string, and both would parse.
pub fn eq_key(s: &str) -> Option<EqKey<'_>> {
    match s.trim().parse::<f64>() {
        Ok(x) if x.is_nan() => None,
        // A float pattern compares with `==`, so this arm takes `-0.0` too.
        Ok(0.0) => Some(EqKey::Num(0)),
        Ok(x) => Some(EqKey::Num(x.to_bits())),
        Err(_) => Some(EqKey::Str(s)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_key_decides_equality_exactly() {
        let corpus = [
            "7", "7.0", " 7 ", "07", "-0", "0", "0.0", "-0.0", "NaN", " nan", "inf", "+inf",
            "-inf", "1e3", "1000", "person7", " person7", "person7 ", "", " ", "1e400",
        ];
        for a in corpus {
            for b in corpus {
                let keyed = matches!((eq_key(a), eq_key(b)), (Some(x), Some(y)) if x == y);
                assert_eq!(
                    compare_values(a, b, RelOp::Eq),
                    keyed,
                    "{a:?} = {b:?}: keys {:?} / {:?}",
                    eq_key(a),
                    eq_key(b)
                );
            }
        }
        assert_eq!(eq_key("NaN"), None, "NaN never matches");
        assert_eq!(eq_key("-0"), eq_key("0"));
        assert_ne!(
            eq_key("person7"),
            eq_key(" person7"),
            "strings compare untrimmed"
        );
    }

    #[test]
    fn numeric_when_both_numeric() {
        assert!(compare_values("9", "10", RelOp::Lt), "9 < 10 numerically");
        assert!(!compare_values("9", "10", RelOp::Gt));
        assert!(compare_values("2.5", "2.50", RelOp::Eq));
        assert!(compare_values(" 42 ", "42", RelOp::Eq), "trimmed");
    }

    #[test]
    fn string_when_not_numeric() {
        assert!(compare_values("9a", "10a", RelOp::Gt), "lexicographic");
        assert!(compare_values("abc", "abd", RelOp::Lt));
        assert!(compare_values("person0", "person0", RelOp::Eq));
        assert!(compare_values("a", "b", RelOp::Ne));
    }

    #[test]
    fn mixed_falls_back_to_string() {
        assert!(!compare_values("10", "ten", RelOp::Eq));
        assert!(compare_values("10", "ten", RelOp::Ne));
    }
}
