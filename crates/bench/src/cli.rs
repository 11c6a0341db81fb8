//! Tiny shared argument handling for the bench binaries.
//!
//! Every flag is parsed by one of these generic scanners, called with the
//! flag's literal name, so each binary's whole surface is visible in its
//! own source — which is where `ci.sh`'s entry-point ratchet looks for
//! it — instead of in a list of one-line wrappers here.

use std::path::PathBuf;
use std::str::FromStr;

/// Scans the process arguments for `flag` and returns its operand.
///
/// Exits with status 2 when the flag is present but its operand is
/// missing (`expects` finishes the error message: `"--trace needs a
/// file path"`).
#[must_use]
pub fn flag_value(flag: &str, expects: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == flag {
            return Some(args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {expects}");
                std::process::exit(2);
            }));
        }
    }
    None
}

/// [`flag_value`] as a [`PathBuf`].
#[must_use]
pub fn path_flag(flag: &str) -> Option<PathBuf> {
    flag_value(flag, "a file path").map(PathBuf::from)
}

/// [`flag_value`] parsed into `T`. Exits with status 2 when the operand
/// is present but does not parse.
#[must_use]
pub fn parsed_flag<T: FromStr>(flag: &str, expects: &str) -> Option<T> {
    flag_value(flag, expects).map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("{flag} needs {expects}");
            std::process::exit(2);
        })
    })
}

/// [`parsed_flag`] restricted to positive integers.
#[must_use]
pub fn positive_flag(flag: &str) -> Option<usize> {
    let n = parsed_flag::<usize>(flag, "a positive integer")?;
    if n == 0 {
        eprintln!("{flag} needs a positive integer");
        std::process::exit(2);
    }
    Some(n)
}

/// True when the bare `flag` is present.
#[must_use]
pub fn flag_present(flag: &str) -> bool {
    std::env::args().skip(1).any(|a| a == flag)
}
