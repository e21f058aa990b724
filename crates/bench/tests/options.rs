//! Command-line parsing: every value flag must accept both `--flag value`
//! and `--flag=value`, boolean flags must reject an inline value, and
//! unknown flags must fail rather than be silently ignored.

use numa_bench::{Options, ParseError};

fn parse(args: &[&str]) -> Result<Options, ParseError> {
    Options::try_parse_from(args.iter().map(|s| s.to_string()))
}

#[test]
fn value_flags_accept_both_spellings() {
    let a = parse(&["--seed", "42"]).unwrap();
    let b = parse(&["--seed=42"]).unwrap();
    assert_eq!(a.seed, 42);
    assert_eq!(b.seed, 42);

    let o = parse(&["--trace=t.json", "--json", "r.json"]).unwrap();
    assert_eq!(o.trace.as_deref(), Some("t.json"));
    assert_eq!(o.json.as_deref(), Some("r.json"));
}

#[test]
fn boolean_flags_parse_and_reject_inline_values() {
    let o = parse(&["--csv", "--full"]).unwrap();
    assert!(o.csv && o.full);
    assert!(matches!(parse(&["--csv=yes"]), Err(ParseError::Invalid(_))));
    assert!(matches!(parse(&["--full=1"]), Err(ParseError::Invalid(_))));
}

#[test]
fn errors_are_reported_not_ignored() {
    assert!(matches!(parse(&["--bogus"]), Err(ParseError::Invalid(_))));
    assert!(matches!(parse(&["--seed"]), Err(ParseError::Invalid(_))));
    assert!(matches!(
        parse(&["--seed", "notanumber"]),
        Err(ParseError::Invalid(_))
    ));
    assert!(matches!(parse(&["--help"]), Err(ParseError::Help)));
    assert!(matches!(parse(&["-h"]), Err(ParseError::Help)));
}

#[test]
fn defaults_are_stable() {
    let o = parse(&[]).unwrap();
    assert_eq!(o.seed, 0);
    assert!(!o.csv && !o.full);
    assert!(o.trace.is_none() && o.json.is_none());
}
