//! Composition checks [`DesignBuilder::connect`](crate::DesignBuilder::connect)
//! runs on every connector: both endpoints must be equally wide, and at
//! least one of them must be able to drive the other. Two outputs on one
//! connector would fight over it; two inputs would wait on a value no
//! module ever sends. The point-to-point rule needs the builder's
//! bookkeeping and stays in `design.rs`.

use crate::design::DesignError;
use crate::module::PortSpec;

/// Refuses a connector between `a` and `b`, each given as its
/// `instance.port` label and spec.
pub(crate) fn check(
    (a, spec_a): (&str, &PortSpec),
    (b, spec_b): (&str, &PortSpec),
) -> Result<(), DesignError> {
    let labels = || (a.to_owned(), b.to_owned());
    if spec_a.width() != spec_b.width() {
        let (a, b) = labels();
        return Err(DesignError::WidthMismatch { a, b });
    }
    let a_drives_b = spec_a.direction().produces_output() && spec_b.direction().accepts_input();
    let b_drives_a = spec_b.direction().produces_output() && spec_a.direction().accepts_input();
    if !a_drives_b && !b_drives_a {
        let (a, b) = labels();
        return Err(DesignError::DirectionConflict { a, b });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortDirection;

    #[test]
    fn width_mismatch_is_deny() {
        let err = check(
            ("S.y", &PortSpec::output("y", 8)),
            ("T.a", &PortSpec::input("a", 4)),
        )
        .unwrap_err();
        assert!(matches!(err, DesignError::WidthMismatch { .. }));
        let text = err.to_string();
        assert!(text.contains("S.y") && text.contains("T.a"), "{text}");
    }

    #[test]
    fn double_driver_and_no_driver() {
        let y = PortSpec::output("y", 1);
        let a = PortSpec::input("a", 1);
        // Two outputs: a double driver.
        let err = check(("A.y", &y), ("B.y", &y)).unwrap_err();
        assert_eq!(
            err,
            DesignError::DirectionConflict {
                a: "A.y".into(),
                b: "B.y".into()
            }
        );
        // Two inputs: no driver.
        let err = check(("A.a", &a), ("B.a", &a)).unwrap_err();
        assert_eq!(
            err,
            DesignError::DirectionConflict {
                a: "A.a".into(),
                b: "B.a".into()
            }
        );
        // Either orientation of a driver and a receiver is fine, and a
        // bidirectional port can play either part.
        let io = PortSpec::new("io", PortDirection::Bidirectional, 1);
        for (p, q) in [(&y, &a), (&a, &y), (&io, &a), (&y, &io), (&io, &io)] {
            assert_eq!(check(("P", p), ("Q", q)), Ok(()));
        }
    }
}
