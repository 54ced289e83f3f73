//! Option-value parsing shared by the command-line drivers: every error
//! names the option at fault.

use std::fmt::Display;
use std::str::FromStr;

/// The value following `flag`, or an error naming the flag that lacks one.
pub fn value_of(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The value following `flag`, parsed as a number, or an error naming the
/// flag and the value it could not parse.
pub fn number_of<T>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    let value = value_of(args, flag)?;
    value
        .parse()
        .map_err(|e| format!("bad {flag} value {value:?}: {e}"))
}
