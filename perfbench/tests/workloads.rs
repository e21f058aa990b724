//! Tiny sizes of every workload pass their output checks and repeat
//! exactly; a wrong expected digest and a panic each count as a failed
//! repetition without ending the run.

use perfbench::churn::Churn;
use perfbench::harness::{Clock, Rep, Runner, Workload};
use perfbench::lu::{self, Lu};
use perfbench::migrate::Migrate;
use perfbench::trace::Tracer;
use std::time::Instant;

/// Run `w` untraced and then traced: both must pass with one output.
fn repeats(w: Box<dyn Workload>) {
    let mut r = Runner::new(w, None);
    let a = r.rep(&Tracer::off());
    let b = r.rep(&Tracer::on(Instant::now(), 1));
    assert!(a.ok && b.ok, "{:?} / {:?}", a.rep.failures, b.rep.failures);
    assert_eq!(a.rep.digest, b.rep.digest);
    assert_eq!(a.rep.sim_pages, b.rep.sim_pages);
    assert!(a.rep.sim_pages > 0);
    assert!(a.rep.layers.is_empty(), "untraced reps report no layers");
    assert!(!b.rep.layers.is_empty(), "traced reps report layers");
    assert_eq!((r.attempted, r.failed), (2, 0));
}

#[test]
fn lu_tiny_repeats() {
    repeats(Box::new(Lu::new(vec![(256, 64)])));
}

#[test]
fn migrate_tiny_repeats() {
    repeats(Box::new(Migrate::new(7, 4096)));
}

#[test]
fn churn_tiny_repeats() {
    repeats(Box::new(Churn::new(7, 40)));
}

#[test]
fn migrate_seed_changes_the_inputs() {
    let digest = |seed| {
        let mut r = Runner::new(Box::new(Migrate::new(seed, 1024)), None);
        r.rep(&Tracer::off()).rep.digest
    };
    assert_ne!(digest(1), digest(2));
}

#[test]
fn wrong_expected_digest_is_a_failed_rep() {
    // The tiny case list cannot hash to the quick sweep's digest.
    let mut r = Runner::new(Box::new(Lu::new(vec![(256, 64)])), Some(lu::QUICK_DIGEST));
    let c = r.rep(&Tracer::off());
    assert!(!c.ok);
    assert_eq!((r.attempted, r.failed), (1, 1));
}

struct Panics;

impl Workload for Panics {
    fn rep(&mut self, _: &mut Clock, _: &Tracer) -> Rep {
        panic!("deliberate");
    }
}

#[test]
fn panicking_rep_is_a_failed_rep() {
    let mut r = Runner::new(Box::new(Panics), None);
    let c = r.rep(&Tracer::off());
    assert!(!c.ok);
    assert!(c.rep.failures[0].contains("deliberate"));
    assert_eq!((r.attempted, r.failed), (1, 1));
}
